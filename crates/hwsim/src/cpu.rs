//! CPU preprocessing-worker cost model (one TorchArrow worker per core,
//! Section II-D).
//!
//! Produces the Fig. 5 stage breakdown for one mini-batch on one core. The
//! per-element constants (see [`calib::cpu`]) model TorchArrow's
//! per-element, non-SIMD execution — the paper's root cause for CPUs
//! "failing to reap the abundant inter-/intra-feature parallelism".

use crate::breakdown::StageBreakdown;
use crate::calib;
use crate::net::{NetworkModel, RpcAccount};
use crate::ssd::SsdModel;
use crate::units::{BytesPerSec, Secs};
use presto_datagen::WorkloadProfile;

/// Where a CPU worker's raw feature data comes from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DataLocality {
    /// Worker runs on a remote node; raw data arrives over the network with
    /// one ranged-read RPC per projected column chunk (the Disagg path).
    RemoteStorage,
    /// Worker runs on the storage node itself; reads are local SSD reads.
    LocalStorage,
}

/// Cost model of one CPU preprocessing worker.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CpuWorkerModel {
    net: NetworkModel,
    ssd: SsdModel,
    decode_bw: BytesPerSec,
    copy_bw: BytesPerSec,
}

impl CpuWorkerModel {
    /// The PoC worker: Xeon Gold 6242 core, 10 GbE, NVMe storage.
    #[must_use]
    pub fn poc() -> Self {
        CpuWorkerModel {
            net: NetworkModel::poc(),
            ssd: SsdModel::nvme(),
            decode_bw: BytesPerSec::new(calib::cpu::DECODE_BYTES_PER_SEC),
            copy_bw: BytesPerSec::new(calib::cpu::COPY_BYTES_PER_SEC),
        }
    }

    /// Stage breakdown for preprocessing one mini-batch on one core.
    #[must_use]
    pub fn stage_breakdown(
        &self,
        profile: &WorkloadProfile,
        locality: DataLocality,
    ) -> StageBreakdown {
        let extract_read = match locality {
            DataLocality::RemoteStorage => {
                // One ranged-read RPC per projected column chunk.
                self.net.rpc_time(profile.num_columns, profile.raw_bytes)
            }
            DataLocality::LocalStorage => self.ssd.read_time(profile.raw_bytes),
        };
        let extract_decode = self.decode_bw.time_for(profile.raw_bytes);

        let bucketize = Secs::from_nanos(
            profile.generated_values as f64
                * f64::from(profile.bucket_search_depth)
                * calib::cpu::BUCKET_NS_PER_CMP,
        );
        let sigridhash =
            Secs::from_nanos(profile.sparse_values as f64 * calib::cpu::HASH_NS_PER_ELEM);
        let log = Secs::from_nanos(profile.dense_values as f64 * calib::cpu::LOG_NS_PER_ELEM);

        let format =
            Secs::from_nanos(profile.transform_values() as f64 * calib::cpu::FORMAT_NS_PER_ELEM)
                + self.copy_bw.time_for(profile.tensor_bytes);

        let other = Secs::new(calib::cpu::ELSE_FIXED_SECS)
            + Secs::from_nanos(profile.transform_values() as f64 * calib::cpu::ELSE_NS_PER_ELEM);

        // Load: staging the train-ready tensors into the transfer queue.
        // The network leg to the trainer is accounted in `rpc_account`
        // (Fig. 13), not in the per-worker latency breakdown.
        let load = self.copy_bw.time_for(profile.tensor_bytes);

        StageBreakdown {
            extract_read,
            extract_decode,
            bucketize,
            sigridhash,
            log,
            format,
            other,
            load,
        }
    }

    /// Single-worker throughput in samples/second.
    #[must_use]
    pub fn throughput(&self, profile: &WorkloadProfile, locality: DataLocality) -> f64 {
        profile.rows as f64 / self.stage_breakdown(profile, locality).total().seconds()
    }

    /// RPC traffic one worker generates per mini-batch (Fig. 13).
    ///
    /// Remote workers pay one RPC per column chunk for raw data plus one
    /// tensor push to the trainer; storage-local workers only push tensors.
    #[must_use]
    pub fn rpc_account(&self, profile: &WorkloadProfile, locality: DataLocality) -> RpcAccount {
        let pull = match locality {
            DataLocality::RemoteStorage => {
                RpcAccount { calls: profile.num_columns, bytes: profile.raw_bytes }
            }
            DataLocality::LocalStorage => RpcAccount::default(),
        };
        let push = RpcAccount { calls: 1, bytes: profile.tensor_bytes };
        pull.plus(push)
    }
}

impl Default for CpuWorkerModel {
    fn default() -> Self {
        Self::poc()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use presto_datagen::RmConfig;

    fn profile(c: &RmConfig) -> WorkloadProfile {
        WorkloadProfile::from_config(c)
    }

    #[test]
    fn transform_dominates_for_all_models() {
        let model = CpuWorkerModel::poc();
        for c in RmConfig::all() {
            let b = model.stage_breakdown(&profile(&c), DataLocality::RemoteStorage);
            assert!(
                b.transform_fraction() > 0.5,
                "{}: transform fraction {:.2}",
                c.name,
                b.transform_fraction()
            );
        }
    }

    #[test]
    fn transform_share_averages_near_paper_value() {
        // Paper: feature generation + normalization = 79% of preprocessing
        // time on average (Sec. III-B). Accept a ±10pp band.
        let model = CpuWorkerModel::poc();
        let mean: f64 = RmConfig::all()
            .iter()
            .map(|c| {
                model.stage_breakdown(&profile(c), DataLocality::RemoteStorage).transform_fraction()
            })
            .sum::<f64>()
            / 5.0;
        assert!((0.69..=0.89).contains(&mean), "mean transform share {mean:.3}");
    }

    #[test]
    fn rm5_is_an_order_of_magnitude_slower_than_rm1() {
        // Paper Fig. 5: RM5 ≈ 14× RM1 end-to-end. Accept 10–18×.
        let model = CpuWorkerModel::poc();
        let rm1 = model.stage_breakdown(&profile(&RmConfig::rm1()), DataLocality::RemoteStorage);
        let rm5 = model.stage_breakdown(&profile(&RmConfig::rm5()), DataLocality::RemoteStorage);
        let ratio = rm5.total() / rm1.total();
        assert!((10.0..=18.0).contains(&ratio), "RM5/RM1 = {ratio:.1}");
    }

    #[test]
    fn bucket_size_grows_bucketize_time_only() {
        let model = CpuWorkerModel::poc();
        let rm3 = model.stage_breakdown(&profile(&RmConfig::rm3()), DataLocality::RemoteStorage);
        let rm5 = model.stage_breakdown(&profile(&RmConfig::rm5()), DataLocality::RemoteStorage);
        assert!(rm5.bucketize > rm3.bucketize);
        assert_eq!(rm5.sigridhash, rm3.sigridhash);
        assert_eq!(rm5.log, rm3.log);
    }

    #[test]
    fn local_reads_are_faster_than_remote() {
        let model = CpuWorkerModel::poc();
        let p = profile(&RmConfig::rm5());
        let remote = model.stage_breakdown(&p, DataLocality::RemoteStorage);
        let local = model.stage_breakdown(&p, DataLocality::LocalStorage);
        assert!(local.extract_read < remote.extract_read);
        assert_eq!(local.sigridhash, remote.sigridhash);
    }

    #[test]
    fn throughput_is_inverse_latency() {
        let model = CpuWorkerModel::poc();
        let p = profile(&RmConfig::rm1());
        let b = model.stage_breakdown(&p, DataLocality::RemoteStorage);
        let tput = model.throughput(&p, DataLocality::RemoteStorage);
        assert!((tput - p.rows as f64 / b.total().seconds()).abs() < 1e-9);
    }

    #[test]
    fn rpc_account_includes_pull_and_push() {
        let model = CpuWorkerModel::poc();
        let p = profile(&RmConfig::rm2());
        let remote = model.rpc_account(&p, DataLocality::RemoteStorage);
        assert_eq!(remote.calls, p.num_columns + 1);
        assert_eq!(remote.bytes, p.raw_bytes + p.tensor_bytes);
        let local = model.rpc_account(&p, DataLocality::LocalStorage);
        assert_eq!(local.calls, 1);
        assert_eq!(local.bytes, p.tensor_bytes);
    }

    #[test]
    fn rm5_single_core_latency_in_seconds_band() {
        // Anchor for Fig. 4: per-core throughput must put 8×A100 demand in
        // the hundreds-of-cores range. Expect 1.5–3 s per batch.
        let model = CpuWorkerModel::poc();
        let b = model.stage_breakdown(&profile(&RmConfig::rm5()), DataLocality::RemoteStorage);
        let secs = b.total().seconds();
        assert!((1.5..=3.0).contains(&secs), "RM5 single-core latency {secs:.2}s");
    }
}
