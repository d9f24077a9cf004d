//! The four preprocessing system architectures the paper compares.
//!
//! * **Co-located** — workers share the GPU training node (Fig. 2a).
//! * **Disagg** — a disaggregated CPU pool (Fig. 2b), the baseline.
//! * **Accelerator pool** — A100 or U280 cards behind the network
//!   (Fig. 7b).
//! * **PreSto** — ISP inside the storage system (Fig. 8), SmartSSD or
//!   storage-node U280 builds.
//!
//! Each system answers the same questions: per-worker latency breakdown,
//! aggregate preprocessing throughput, RPC traffic and power.

use presto_datagen::WorkloadProfile;
use presto_hwsim::breakdown::StageBreakdown;
use presto_hwsim::calib;
use presto_hwsim::cpu::{CpuWorkerModel, DataLocality};
use presto_hwsim::fpga::IspModel;
use presto_hwsim::gpu::GpuPreprocessModel;
use presto_hwsim::net::{NetworkModel, RpcAccount};
use presto_hwsim::power::{storage_node_power, CpuNodePower};
use presto_hwsim::units::{Secs, Watts};

/// Columns coalesced per bulk-fetch RPC by pool-style prefetchers.
///
/// Disaggregated preprocessing nodes (CPU or accelerator pools) issue one
/// ranged read per column chunk but keep several in flight; we model the
/// fetch pipeline as 8-way coalescing when computing steady-state
/// throughput, while single-batch latency pays the full per-column cost.
pub const POOL_FETCH_COALESCING: u64 = 8;

/// A preprocessing system design point.
#[derive(Debug, Clone)]
#[non_exhaustive]
pub enum System {
    /// CPU workers co-located with GPU training on the same host (Fig. 2a).
    Colocated {
        /// Number of worker cores (≤ 16 per GPU on a DGX-class host).
        workers: usize,
        /// The per-core model.
        cpu: CpuWorkerModel,
    },
    /// Disaggregated CPU pool (Fig. 2b) — the paper's baseline.
    DisaggCpu {
        /// Number of pool cores.
        cores: usize,
        /// The per-core model.
        cpu: CpuWorkerModel,
    },
    /// Disaggregated accelerator pool of A100s running NVTabular (Fig. 7b).
    GpuPool {
        /// Number of cards.
        cards: usize,
        /// The per-card model.
        gpu: GpuPreprocessModel,
        /// The pool's network.
        net: NetworkModel,
    },
    /// Disaggregated accelerator pool of U280 FPGAs (Fig. 7b).
    FpgaPool {
        /// Number of cards.
        cards: usize,
        /// The per-card model (use [`IspModel::u280_disaggregated`]).
        isp: IspModel,
        /// The pool's network.
        net: NetworkModel,
    },
    /// PreSto: ISP units inside the storage system (Fig. 8).
    Presto {
        /// Number of ISP devices.
        units: usize,
        /// The per-device model (SmartSSD or storage-node U280 build).
        isp: IspModel,
    },
}

impl System {
    /// The baseline Disagg system with `cores` PoC cores.
    #[must_use]
    pub fn disagg(cores: usize) -> Self {
        System::DisaggCpu { cores, cpu: CpuWorkerModel::poc() }
    }

    /// PreSto with `units` SmartSSDs.
    #[must_use]
    pub fn presto_smartssd(units: usize) -> Self {
        System::Presto { units, isp: IspModel::smartssd() }
    }

    /// PreSto with one storage-node U280.
    #[must_use]
    pub fn presto_u280() -> Self {
        System::Presto { units: 1, isp: IspModel::u280_in_storage() }
    }

    /// A co-located system with `workers` cores.
    #[must_use]
    pub fn colocated(workers: usize) -> Self {
        System::Colocated { workers, cpu: CpuWorkerModel::poc() }
    }

    /// A one-card A100 NVTabular pool.
    #[must_use]
    pub fn gpu_pool(cards: usize) -> Self {
        System::GpuPool { cards, gpu: GpuPreprocessModel::a100(), net: NetworkModel::poc() }
    }

    /// A one-card U280 pool.
    #[must_use]
    pub fn fpga_pool(cards: usize) -> Self {
        System::FpgaPool { cards, isp: IspModel::u280_disaggregated(), net: NetworkModel::poc() }
    }

    /// Display name matching the paper's figure legends.
    #[must_use]
    pub fn name(&self) -> String {
        match self {
            System::Colocated { workers, .. } => format!("Co-located({workers})"),
            System::DisaggCpu { cores, .. } => format!("Disagg({cores})"),
            System::GpuPool { cards, .. } => {
                if *cards == 1 {
                    "A100".into()
                } else {
                    format!("A100 x{cards}")
                }
            }
            System::FpgaPool { cards, isp, .. } => {
                if *cards == 1 {
                    isp.name().into()
                } else {
                    format!("{} x{cards}", isp.name())
                }
            }
            System::Presto { units, isp } => {
                if *units == 1 {
                    isp.name().into()
                } else {
                    format!("{} x{units}", isp.name())
                }
            }
        }
    }

    /// Number of parallel workers/devices.
    #[must_use]
    pub fn parallelism(&self) -> usize {
        match self {
            System::Colocated { workers, .. } => *workers,
            System::DisaggCpu { cores, .. } => *cores,
            System::GpuPool { cards, .. } | System::FpgaPool { cards, .. } => *cards,
            System::Presto { units, .. } => *units,
        }
    }

    /// Single-worker latency breakdown for one mini-batch (Figs. 5 and 12).
    #[must_use]
    pub fn worker_breakdown(&self, profile: &WorkloadProfile) -> StageBreakdown {
        match self {
            System::Colocated { cpu, .. } => cpu
                .stage_breakdown(profile, DataLocality::RemoteStorage)
                .scaled(1.0 / calib::cpu::COLOCATION_EFFICIENCY),
            System::DisaggCpu { cpu, .. } => {
                cpu.stage_breakdown(profile, DataLocality::RemoteStorage)
            }
            System::GpuPool { gpu, net, .. } => {
                let mut b = StageBreakdown::default();
                // Pool prefetchers coalesce ranged reads into bulk RPCs.
                let calls = profile.num_columns.div_ceil(POOL_FETCH_COALESCING);
                b.extract_read = net.rpc_time(calls, profile.raw_bytes);
                b.other = gpu.batch_time(profile);
                b.load = net.rpc_time(1, profile.tensor_bytes);
                b
            }
            System::FpgaPool { isp, net, .. } => {
                let mut b = isp.stage_breakdown(profile);
                let calls = profile.num_columns.div_ceil(POOL_FETCH_COALESCING);
                b.extract_read = net.rpc_time(calls, profile.raw_bytes);
                b.load = net.rpc_time(1, profile.tensor_bytes);
                b
            }
            System::Presto { isp, .. } => isp.stage_breakdown(profile),
        }
    }

    /// Single-worker latency for one mini-batch.
    #[must_use]
    pub fn worker_latency(&self, profile: &WorkloadProfile) -> Secs {
        self.worker_breakdown(profile).total()
    }

    /// Per-worker steady-state throughput, samples/sec.
    #[must_use]
    pub fn per_worker_throughput(&self, profile: &WorkloadProfile) -> f64 {
        let rows = profile.rows as f64;
        match self {
            System::Colocated { cpu, .. } => {
                cpu.throughput(profile, DataLocality::RemoteStorage)
                    * calib::cpu::COLOCATION_EFFICIENCY
            }
            System::DisaggCpu { cpu, .. } => cpu.throughput(profile, DataLocality::RemoteStorage),
            System::GpuPool { gpu, net, .. } => {
                let compute = gpu.batch_time(profile);
                rows / compute.max(pool_net_stage(net, profile)).seconds()
            }
            System::FpgaPool { isp, net, .. } => {
                let compute = rows / isp.throughput(profile);
                rows / Secs::new(compute).max(pool_net_stage(net, profile)).seconds()
            }
            System::Presto { isp, .. } => isp.throughput(profile),
        }
    }

    /// Aggregate preprocessing throughput, samples/sec (Fig. 11).
    #[must_use]
    pub fn throughput(&self, profile: &WorkloadProfile) -> f64 {
        self.per_worker_throughput(profile) * self.parallelism() as f64
    }

    /// RPC traffic per mini-batch (Fig. 13).
    #[must_use]
    pub fn rpc_account(&self, profile: &WorkloadProfile) -> RpcAccount {
        match self {
            System::Colocated { cpu, .. } | System::DisaggCpu { cpu, .. } => {
                cpu.rpc_account(profile, DataLocality::RemoteStorage)
            }
            System::GpuPool { .. } | System::FpgaPool { .. } => {
                let pull = RpcAccount { calls: profile.num_columns, bytes: profile.raw_bytes };
                let push = RpcAccount { calls: 1, bytes: profile.tensor_bytes };
                pull.plus(push)
            }
            // PreSto extracts P2P inside the device; only the train-ready
            // tensors cross the network.
            System::Presto { .. } => RpcAccount { calls: 1, bytes: profile.tensor_bytes },
        }
    }

    /// Preprocessing-attributable power draw of the whole system.
    ///
    /// Both sides include the storage node that hosts the raw data; Disagg
    /// adds the CPU fleet, PreSto adds its cards (Sec. V-C methodology).
    #[must_use]
    pub fn power(&self) -> Watts {
        let storage_baseline = storage_node_power(0, Watts::new(0.0));
        match self {
            System::Colocated { workers, .. } => {
                // Co-located workers burn GPU-node CPU power; charge the
                // per-core share of an active node plus the storage node.
                let node = CpuNodePower::xeon_node();
                storage_baseline + node.power_with_busy_cores(*workers)
            }
            System::DisaggCpu { cores, .. } => {
                storage_baseline + CpuNodePower::xeon_node().fleet_power(*cores)
            }
            System::GpuPool { cards, gpu, .. } => storage_baseline + gpu.power() * *cards as f64,
            System::FpgaPool { cards, isp, .. } => storage_baseline + isp.power() * *cards as f64,
            System::Presto { units, isp } => storage_node_power(*units, isp.power()),
        }
    }
}

/// Steady-state network stage of a pooled accelerator: coalesced bulk
/// fetches in, tensors out, full-duplex link.
fn pool_net_stage(net: &NetworkModel, profile: &WorkloadProfile) -> Secs {
    let calls = profile.num_columns.div_ceil(POOL_FETCH_COALESCING);
    let inbound = net.rpc_time(calls, profile.raw_bytes);
    let outbound = net.rpc_time(1, profile.tensor_bytes);
    inbound.max(outbound)
}

#[cfg(test)]
mod tests {
    use super::*;
    use presto_datagen::RmConfig;

    fn profile(c: &RmConfig) -> WorkloadProfile {
        WorkloadProfile::from_config(c)
    }

    #[test]
    fn presto_beats_disagg32_loses_to_disagg64() {
        // Fig. 11: one SmartSSD beats 32 cores; 64 cores win back by ~27%.
        for c in RmConfig::all() {
            let p = profile(&c);
            let presto = System::presto_smartssd(1).throughput(&p);
            let d32 = System::disagg(32).throughput(&p);
            let d64 = System::disagg(64).throughput(&p);
            assert!(presto > d32, "{}: presto {presto:.0} vs d32 {d32:.0}", c.name);
            assert!(d64 > presto, "{}: d64 {d64:.0} vs presto {presto:.0}", c.name);
            let ratio = d64 / presto;
            assert!((1.05..=1.9).contains(&ratio), "{}: d64/presto {ratio:.2}", c.name);
        }
    }

    #[test]
    fn disagg_scales_linearly() {
        let p = profile(&RmConfig::rm3());
        let one = System::disagg(1).throughput(&p);
        let sixteen = System::disagg(16).throughput(&p);
        assert!((sixteen / one - 16.0).abs() < 1e-6);
    }

    #[test]
    fn presto_speedup_band_matches_fig12() {
        // Fig. 12: 9.6× average, 11.6× maximum single-worker speedup.
        let mut speedups = Vec::new();
        for c in RmConfig::all() {
            let p = profile(&c);
            let disagg = System::disagg(1).worker_latency(&p);
            let presto = System::presto_smartssd(1).worker_latency(&p);
            speedups.push(disagg / presto);
        }
        let mean = speedups.iter().sum::<f64>() / speedups.len() as f64;
        let max = speedups.iter().fold(0.0f64, |a, &b| a.max(b));
        assert!((8.0..=12.5).contains(&mean), "mean speedup {mean:.1}");
        assert!((10.0..=13.5).contains(&max), "max speedup {max:.1}");
    }

    #[test]
    fn presto_rpc_traffic_is_much_lower() {
        // Fig. 13: PreSto cuts RPC-invoked inter-node time by ~2.9×.
        let net = NetworkModel::poc();
        let mut ratios = Vec::new();
        for c in RmConfig::all() {
            let p = profile(&c);
            let disagg = System::disagg(1).rpc_account(&p).time_on(&net);
            let presto = System::presto_smartssd(1).rpc_account(&p).time_on(&net);
            ratios.push(disagg / presto);
        }
        let mean = ratios.iter().sum::<f64>() / ratios.len() as f64;
        assert!((1.8..=4.5).contains(&mean), "mean RPC reduction {mean:.2}");
    }

    #[test]
    fn colocation_slows_workers() {
        let p = profile(&RmConfig::rm5());
        let colo = System::colocated(1).per_worker_throughput(&p);
        let disagg = System::disagg(1).per_worker_throughput(&p);
        assert!(colo < disagg);
        assert!((colo / disagg - calib::cpu::COLOCATION_EFFICIENCY).abs() < 1e-9);
    }

    #[test]
    fn u280_pool_copy_share_near_half() {
        // Sec. VI-C: copying in/out of the disaggregated node ≈ 47.6% of
        // the U280's end-to-end preprocessing time.
        let p = profile(&RmConfig::rm5());
        let b = System::fpga_pool(1).worker_breakdown(&p);
        let copy = (b.extract_read + b.load).seconds();
        let share = copy / b.total().seconds();
        assert!((0.30..=0.65).contains(&share), "copy share {share:.2}");
    }

    #[test]
    fn fig16_ordering_holds() {
        // PreSto(SmartSSD) ≈ 2.5× A100; U280 pool ≈ PreSto(SmartSSD);
        // PreSto(U280) fastest.
        let p = profile(&RmConfig::rm5());
        let a100 = System::gpu_pool(1).throughput(&p);
        let u280 = System::fpga_pool(1).throughput(&p);
        let presto_ssd = System::presto_smartssd(1).throughput(&p);
        let presto_u280 = System::presto_u280().throughput(&p);
        assert!(presto_ssd > 1.5 * a100, "presto {presto_ssd:.0} vs a100 {a100:.0}");
        let ratio = presto_ssd / u280;
        assert!((0.7..=1.3).contains(&ratio), "presto/u280 {ratio:.2}");
        assert!(presto_u280 > presto_ssd);
    }

    #[test]
    fn power_ordering_matches_envelopes() {
        let presto = System::presto_smartssd(9).power();
        let disagg = System::disagg(367).power();
        assert!(disagg.raw() > 8.0 * presto.raw(), "disagg {disagg} vs presto {presto}");
    }

    #[test]
    fn names_are_figure_faithful() {
        assert_eq!(System::disagg(64).name(), "Disagg(64)");
        assert_eq!(System::presto_smartssd(1).name(), "PreSto (SmartSSD)");
        assert_eq!(System::presto_u280().name(), "PreSto (U280)");
        assert_eq!(System::gpu_pool(1).name(), "A100");
        assert_eq!(System::fpga_pool(1).name(), "U280");
        assert_eq!(System::colocated(4).name(), "Co-located(4)");
        assert_eq!(System::presto_smartssd(3).name(), "PreSto (SmartSSD) x3");
    }
}
