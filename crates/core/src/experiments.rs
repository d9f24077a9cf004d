//! Data generators for every evaluation figure, consumed by the
//! `presto-bench` binaries and by the shape tests.
//!
//! Each function returns plain data in the same organization as the paper's
//! figure so a harness can print the rows/series directly.

use presto_datagen::{Dataset, RmConfig, WorkloadProfile};
use presto_hwsim::breakdown::StageBreakdown;
use presto_hwsim::cache::CacheConfig;
use presto_hwsim::gpu::GpuTrainModel;
use presto_hwsim::net::NetworkModel;
use presto_hwsim::trace::{characterize_op, OpCharacterization, OpKind};
use presto_hwsim::units::Secs;
use presto_ops::executor::PreprocessError;
use presto_ops::{BatchStream, FleetConfig, GraphError, PlanGraph, PreprocessPlan};

use crate::fleet::Fleet;
use crate::pipeline::{simulate, PipelineConfig, Trainer, TrainerConfig, TrainerReport};
use crate::placement::PlacementPlan;
use crate::provision::Provisioner;
use crate::systems::System;

/// One point of Fig. 3: co-located preprocessing scaling on RM5.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Fig3Point {
    /// Co-located preprocessing workers (CPU cores).
    pub cores: usize,
    /// Effective preprocessing throughput, samples/sec.
    pub preprocess_throughput: f64,
    /// Resulting GPU utilization in `[0, 1]` (from the pipeline sim).
    pub gpu_utilization: f64,
}

/// Fig. 3: throughput and GPU utilization vs co-located core count, plus
/// the A100's maximum training throughput (the dotted line).
#[must_use]
pub fn fig3(config: &RmConfig) -> (Vec<Fig3Point>, f64) {
    let gpu = GpuTrainModel::a100();
    let profile = WorkloadProfile::from_config(config);
    let mut points = Vec::new();
    for cores in [1usize, 2, 4, 8, 16] {
        let system = System::colocated(cores);
        let report = simulate(
            &system,
            &gpu,
            config,
            &PipelineConfig { batches: 48, queue_capacity: 8, num_gpus: 1 },
        );
        points.push(Fig3Point {
            cores,
            preprocess_throughput: system.throughput(&profile),
            gpu_utilization: report.gpu_utilization,
        });
    }
    (points, gpu.max_throughput(config))
}

/// Fig. 4: CPU cores required per model to feed an 8×A100 node.
#[must_use]
pub fn fig4() -> Vec<(String, usize)> {
    let p = Provisioner::poc();
    RmConfig::all().into_iter().map(|c| (c.name.clone(), p.cpu_cores_required(&c, 8))).collect()
}

/// Fig. 5: single-CPU-worker stage breakdown per model (absolute times;
/// the figure normalizes to RM1's total).
#[must_use]
pub fn fig5() -> Vec<(String, StageBreakdown)> {
    RmConfig::all()
        .into_iter()
        .map(|c| {
            let profile = WorkloadProfile::from_config(&c);
            (c.name.clone(), System::disagg(1).worker_breakdown(&profile))
        })
        .collect()
}

/// Fig. 6: CPU/memory/LLC characterization of the three key ops on RM1 and
/// RM5. `rows` scales the simulated batch (use the config's batch size for
/// paper fidelity; smaller values for quick runs).
#[must_use]
pub fn fig6(rows: usize) -> Vec<(String, OpKind, OpCharacterization)> {
    let mut out = Vec::new();
    for config in [RmConfig::rm1(), RmConfig::rm5()] {
        for op in OpKind::ALL {
            let m = characterize_op(&config, op, CacheConfig::xeon_llc(), rows);
            out.push((config.name.clone(), op, m));
        }
    }
    out
}

/// One Fig. 11 group: throughputs normalized to Disagg(1).
#[derive(Debug, Clone, PartialEq)]
pub struct Fig11Group {
    /// Model name.
    pub model: String,
    /// `(system name, normalized throughput)` in figure order.
    pub bars: Vec<(String, f64)>,
}

/// Fig. 11: Disagg(1/16/32/64) vs PreSto (one SmartSSD), normalized.
#[must_use]
pub fn fig11() -> Vec<Fig11Group> {
    RmConfig::all()
        .into_iter()
        .map(|c| {
            let profile = WorkloadProfile::from_config(&c);
            let base = System::disagg(1).throughput(&profile);
            let mut bars = Vec::new();
            for cores in [1usize, 16, 32, 64] {
                let s = System::disagg(cores);
                bars.push((s.name(), s.throughput(&profile) / base));
            }
            let presto = System::presto_smartssd(1);
            bars.push((presto.name(), presto.throughput(&profile) / base));
            Fig11Group { model: c.name.clone(), bars }
        })
        .collect()
}

/// One Fig. 12 group: per-worker breakdowns and the end-to-end speedup.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig12Group {
    /// Model name.
    pub model: String,
    /// Baseline Disagg single-worker breakdown.
    pub disagg: StageBreakdown,
    /// PreSto single-device breakdown.
    pub presto: StageBreakdown,
    /// `disagg.total() / presto.total()`.
    pub speedup: f64,
}

/// Fig. 12: latency breakdown of Disagg vs PreSto plus speedup, per model.
#[must_use]
pub fn fig12() -> Vec<Fig12Group> {
    RmConfig::all()
        .into_iter()
        .map(|c| {
            let profile = WorkloadProfile::from_config(&c);
            let disagg = System::disagg(1).worker_breakdown(&profile);
            let presto = System::presto_smartssd(1).worker_breakdown(&profile);
            let speedup = disagg.total() / presto.total();
            Fig12Group { model: c.name.clone(), disagg, presto, speedup }
        })
        .collect()
}

/// Fig. 13: aggregate RPC time per mini-batch, Disagg vs PreSto.
#[must_use]
pub fn fig13() -> Vec<(String, Secs, Secs)> {
    let net = NetworkModel::poc();
    RmConfig::all()
        .into_iter()
        .map(|c| {
            let profile = WorkloadProfile::from_config(&c);
            let disagg = System::disagg(1).rpc_account(&profile).time_on(&net);
            let presto = System::presto_smartssd(1).rpc_account(&profile).time_on(&net);
            (c.name.clone(), disagg, presto)
        })
        .collect()
}

/// Fig. 14: ISP units and CPU cores required per model for 8×A100.
#[must_use]
pub fn fig14() -> Vec<(String, usize, usize)> {
    let p = Provisioner::poc();
    RmConfig::all()
        .into_iter()
        .map(|c| (c.name.clone(), p.isp_units_required(&c, 8), p.cpu_cores_required(&c, 8)))
        .collect()
}

/// One Fig. 16 group: the four accelerated design points on one model.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig16Group {
    /// Model name.
    pub model: String,
    /// `(system name, samples/sec, samples/sec/W)` for A100, U280,
    /// PreSto (U280), PreSto (SmartSSD) in figure order.
    pub entries: Vec<(String, f64, f64)>,
}

/// Fig. 16: accelerated preprocessing alternatives, throughput and perf/W.
#[must_use]
pub fn fig16() -> Vec<Fig16Group> {
    RmConfig::all()
        .into_iter()
        .map(|c| {
            let profile = WorkloadProfile::from_config(&c);
            let systems = [
                System::gpu_pool(1),
                System::fpga_pool(1),
                System::presto_u280(),
                System::presto_smartssd(1),
            ];
            let entries = systems
                .into_iter()
                .map(|s| {
                    let tput = s.throughput(&profile);
                    // Perf/W uses card power only, matching the paper's
                    // device-level comparison.
                    let card_power = match &s {
                        System::GpuPool { gpu, .. } => gpu.power().raw(),
                        System::FpgaPool { isp, .. } | System::Presto { isp, .. } => {
                            isp.power().raw()
                        }
                        _ => unreachable!("fig16 uses accelerator systems"),
                    };
                    (s.name(), tput, tput / card_power)
                })
                .collect();
            Fig16Group { model: c.name.clone(), entries }
        })
        .collect()
}

/// One Fig. 17 cell: op latency under Disagg and PreSto at a feature scale.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig17Point {
    /// The operation.
    pub op: OpKind,
    /// Feature-count multiplier (1, 2, 4).
    pub factor: usize,
    /// Disagg single-worker op latency.
    pub disagg: Secs,
    /// PreSto single-device op latency.
    pub presto: Secs,
    /// `disagg / presto`.
    pub speedup: f64,
}

/// Fig. 17: sensitivity of the three ops to 1×/2×/4× feature counts
/// (baseline is RM5, as in the paper).
#[must_use]
pub fn fig17() -> Vec<Fig17Point> {
    let base = RmConfig::rm5();
    let mut out = Vec::new();
    for factor in [1usize, 2, 4] {
        let config = base.scaled_features(factor);
        let profile = WorkloadProfile::from_config(&config);
        let disagg = System::disagg(1).worker_breakdown(&profile);
        let presto = System::presto_smartssd(1).worker_breakdown(&profile);
        for op in OpKind::ALL {
            let (d, p) = match op {
                OpKind::Bucketize => (disagg.bucketize, presto.bucketize),
                OpKind::SigridHash => (disagg.sigridhash, presto.sigridhash),
                OpKind::Log => (disagg.log, presto.log),
            };
            out.push(Fig17Point { op, factor, disagg: d, presto: p, speedup: d / p });
        }
    }
    out
}

/// Host/ISP placement of every scenario graph's stages on a SmartSSD-backed
/// PreSto system — the "which operator runs where" table the plan IR makes
/// answerable per stage instead of per pipeline. Returns
/// `(scenario name, placement)` for the canonical, truncated-cross and
/// dictionary-remap scenarios compiled against `config`.
///
/// # Errors
///
/// Propagates graph construction/compilation failures (degenerate configs).
pub fn scenario_placements(
    config: &RmConfig,
    rows: usize,
) -> Result<Vec<(String, PlacementPlan)>, GraphError> {
    let presto = System::presto_smartssd(1);
    let scenarios = [
        ("canonical", PlanGraph::canonical(config, 1)?),
        ("truncated-cross", PlanGraph::truncated_cross(config, 1, 4, 2)?),
        ("remapped", PlanGraph::remapped(config, 1, 4096)?),
    ];
    scenarios
        .into_iter()
        .map(|(name, graph)| {
            let plan = PreprocessPlan::compile(graph, config)?;
            Ok((name.to_owned(), presto.plan_placement(&plan, rows)))
        })
        .collect()
}

/// One trainer-in-the-loop end-to-end run: a real producer fleet measured
/// at the consuming trainer.
#[derive(Debug, Clone)]
pub struct EndToEndPoint {
    /// System under test (figure-legend name).
    pub system: String,
    /// What the trainer observed.
    pub report: TrainerReport,
}

/// ISP-vs-CPU **end to end**: runs the same partitions through the host
/// streaming executor (sized by `cpu.stream_config()`) and through the
/// emulated in-storage fleet (`isp_units` devices), each consumed by a
/// [`Trainer`] with the given compute model. Throughput is therefore
/// measured where the paper measures it — at the trainer — instead of at a
/// materialized `Vec` drain; stall share and queue occupancy come along
/// for free.
///
/// # Errors
///
/// Propagates the first preprocessing failure from either fleet.
pub fn isp_vs_cpu_end_to_end(
    plan: &PreprocessPlan,
    dataset: &Dataset,
    cpu: &System,
    isp_units: usize,
    trainer: TrainerConfig,
) -> Result<Vec<EndToEndPoint>, PreprocessError> {
    let consumer = Trainer::new(trainer);
    let mut out = Vec::with_capacity(2);

    let host = BatchStream::spawn(plan, dataset.partitions(), &cpu.stream_config());
    out.push(EndToEndPoint { system: cpu.name(), report: consumer.run(host)? });

    let isp_units = isp_units.max(1);
    let isp =
        Fleet::Isp.spawn(plan, dataset.partitions(), &FleetConfig::new(isp_units, 2 * isp_units));
    out.push(EndToEndPoint {
        system: System::presto_smartssd(isp_units).name(),
        report: consumer.run(isp)?,
    });
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig3_shows_starvation_at_16_cores() {
        let (points, max_tput) = fig3(&RmConfig::rm5());
        assert_eq!(points.len(), 5);
        let last = points.last().unwrap();
        assert_eq!(last.cores, 16);
        assert!(last.gpu_utilization < 0.25, "util {:.2}", last.gpu_utilization);
        // Near-linear scaling 1 -> 16 workers (paper reports 15x).
        let scale = last.preprocess_throughput / points[0].preprocess_throughput;
        assert!((14.0..=16.0).contains(&scale), "scaling {scale:.1}");
        assert!(max_tput > last.preprocess_throughput);
    }

    #[test]
    fn fig4_fig14_are_consistent() {
        let cores4: Vec<usize> = fig4().into_iter().map(|(_, c)| c).collect();
        let fig14 = fig14();
        for ((_, units, cores14), c4) in fig14.iter().zip(cores4) {
            assert_eq!(*cores14, c4);
            assert!(*units <= 12);
        }
    }

    #[test]
    fn fig5_totals_grow_with_model() {
        let rows = fig5();
        let t: Vec<f64> = rows.iter().map(|(_, b)| b.total().seconds()).collect();
        assert!(t[4] / t[0] > 10.0, "RM5/RM1 {:.1}", t[4] / t[0]);
        for w in t.windows(2) {
            assert!(w[1] >= w[0] * 0.95);
        }
    }

    #[test]
    fn fig6_covers_both_models_and_all_ops() {
        let rows = fig6(1024);
        assert_eq!(rows.len(), 6);
        for (_, _, m) in &rows {
            assert!(m.cpu_utilization > 0.5);
            assert!(m.mem_bw_utilization < 0.2);
        }
    }

    #[test]
    fn fig11_presto_lands_between_disagg32_and_64() {
        for group in fig11() {
            let get =
                |name: &str| group.bars.iter().find(|(n, _)| n == name).map(|(_, v)| *v).unwrap();
            let presto = get("PreSto (SmartSSD)");
            assert!(presto > get("Disagg(32)"), "{}: presto {presto:.1}", group.model);
            assert!(presto < get("Disagg(64)"), "{}: presto {presto:.1}", group.model);
        }
    }

    #[test]
    fn fig12_speedups_in_band() {
        let groups = fig12();
        let mean: f64 = groups.iter().map(|g| g.speedup).sum::<f64>() / groups.len() as f64;
        assert!((8.0..=12.5).contains(&mean), "mean {mean:.1}");
    }

    #[test]
    fn fig13_presto_reduces_rpc_time() {
        for (model, disagg, presto) in fig13() {
            assert!(disagg > presto, "{model}");
        }
    }

    #[test]
    fn fig16_presto_smartssd_has_best_perf_per_watt() {
        for group in fig16() {
            let best = group.entries.iter().max_by(|a, b| a.2.partial_cmp(&b.2).unwrap()).unwrap();
            assert_eq!(best.0, "PreSto (SmartSSD)", "{}", group.model);
        }
    }

    #[test]
    fn isp_vs_cpu_end_to_end_trains_everything_on_both_paths() {
        let mut c = RmConfig::rm1();
        c.batch_size = 48;
        let plan = PreprocessPlan::from_config(&c, 1).expect("plan");
        let ds = Dataset::generate(&c, 6, 48, 2, 13).expect("dataset");
        let points =
            isp_vs_cpu_end_to_end(&plan, &ds, &System::disagg(2), 2, TrainerConfig::instant())
                .expect("both fleets preprocess");
        assert_eq!(points.len(), 2);
        assert_eq!(points[0].system, "Disagg(2)");
        assert_eq!(points[1].system, "PreSto (SmartSSD) x2");
        for p in &points {
            assert_eq!(p.report.batches, 6, "{}", p.system);
            assert_eq!(p.report.rows, 6 * 48, "{}", p.system);
            assert!(p.report.goodput > 0.0, "{}", p.system);
            assert_eq!(p.report.occupancy.iter().sum::<u64>(), 6, "{}", p.system);
        }
    }

    #[test]
    fn scenario_placements_cover_all_three_graphs() {
        let mut c = RmConfig::rm1();
        c.avg_sparse_len = 8;
        c.fixed_sparse_len = false;
        let rows = 8192;
        let placements = scenario_placements(&c, rows).expect("scenarios compile");
        assert_eq!(placements.len(), 3);
        for (name, p) in &placements {
            assert_eq!(p.rows, rows, "{name}");
            assert!(p.offloaded() > 0, "{name}: heavy stages offload at paper scale");
            assert!(p.speedup() >= 1.0, "{name}");
        }
        let cross = &placements[1].1;
        assert!(
            cross.offloaded() < cross.stages.len(),
            "truncated-cross keeps its trivial copies on the host"
        );
    }

    #[test]
    fn fig17_disagg_scales_presto_stays_robust() {
        let points = fig17();
        for op in OpKind::ALL {
            let series: Vec<&Fig17Point> = points.iter().filter(|p| p.op == op).collect();
            assert_eq!(series.len(), 3);
            // Disagg latency grows ~linearly with feature count.
            let growth = series[2].disagg / series[0].disagg;
            assert!((3.0..=5.0).contains(&growth), "{op}: disagg growth {growth:.1}");
            // PreSto keeps a significant speedup at every scale.
            for p in &series {
                assert!(p.speedup > 5.0, "{op} x{}: speedup {:.1}", p.factor, p.speedup);
            }
        }
    }
}
