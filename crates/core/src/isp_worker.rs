//! Functional emulation of one PreSto ISP worker (Fig. 10's dataflow), on
//! real data.
//!
//! The performance layer prices the accelerator analytically; this module
//! *executes* it: raw bytes are "P2P-extracted" from the partition blob,
//! decoded by the decoder unit, then run through the compiled plan's
//! operator stages, counting the fixed-size chunks each op would stream
//! through a unit's on-chip feature buffers (Section IV-C's structure) —
//! a count, not a copy: every op runs over the whole column. The worker
//! drives the *same* compiled
//! [`PreprocessPlan::stages`](presto_ops::PreprocessPlan::stages) as the
//! host executor (the one unit call, [`presto_ops::UnitState::run`], with
//! the on-chip buffer size as the chunk it counts in), so any operator
//! graph runs in storage with output bit-identical to the host CPU
//! pipeline by construction, which is the correctness argument for the
//! offload. It
//! shares the host executor's zero-copy substrate (recycled
//! [`ScratchSpace`], in-place transforms on uniquely held buffers), so
//! CPU-vs-ISP ablations compare transform dataflow, not allocator behavior.
//!
//! [`IspWorker`] is the per-partition API; the streaming ISP fleet
//! ([`Fleet::Isp`](crate::Fleet::Isp)) is the engine of
//! [`presto_ops::stream`] running the same pipeline, and its retry /
//! quarantine / failover semantics are documented there.

use presto_columnar::BlobRead;
use presto_ops::executor::PreprocessError;
use presto_ops::minibatch::MiniBatch;
use presto_ops::plan::PreprocessPlan;
use presto_ops::{ScratchSpace, Side, UnitState};

pub use presto_ops::executor::{IspRunStats, FEATURE_BUFFER_ELEMS};

/// One emulated in-storage preprocessing worker.
#[derive(Debug)]
pub struct IspWorker {
    plan: PreprocessPlan,
    chunk_elems: usize,
}

impl IspWorker {
    /// Creates a worker executing `plan` with the default buffer size.
    #[must_use]
    pub fn new(plan: PreprocessPlan) -> Self {
        IspWorker { plan, chunk_elems: FEATURE_BUFFER_ELEMS }
    }

    /// Overrides the on-chip buffer capacity: the elements per chunk that
    /// [`IspRunStats::units`] counts in. Output does not depend on it.
    ///
    /// # Panics
    ///
    /// Panics when `chunk_elems == 0`.
    #[must_use]
    pub fn with_buffer_elems(mut self, chunk_elems: usize) -> Self {
        assert!(chunk_elems > 0, "feature buffer must hold at least one element");
        self.chunk_elems = chunk_elems;
        self
    }

    /// The plan this worker executes.
    #[must_use]
    pub fn plan(&self) -> &PreprocessPlan {
        &self.plan
    }

    /// Runs the full in-storage pipeline over one partition blob with a
    /// fresh scratch; see [`IspWorker::preprocess_with`].
    ///
    /// # Errors
    ///
    /// Propagates storage/decode failures and missing-column errors.
    pub fn preprocess<B: BlobRead>(
        &self,
        blob: B,
    ) -> Result<(MiniBatch, IspRunStats), PreprocessError> {
        self.preprocess_with(blob, &mut ScratchSpace::new())
    }

    /// Runs the full in-storage pipeline over one partition blob:
    /// P2P extract → decoder unit → chunked operator stages → output
    /// assembly. Extract stages through the caller's [`ScratchSpace`]
    /// (recycled across partitions, like the host workers); the stages are
    /// the plan's compiled operator graph, counted in `chunk_elems`-sized
    /// on-chip feature-buffer chunks, transforming uniquely owned decode
    /// buffers in place whenever the storage backend allows it.
    ///
    /// # Errors
    ///
    /// Propagates storage/decode failures and missing-column errors.
    pub fn preprocess_with<B: BlobRead>(
        &self,
        blob: B,
        scratch: &mut ScratchSpace,
    ) -> Result<(MiniBatch, IspRunStats), PreprocessError> {
        let side = Side::whole(&self.plan, self.chunk_elems);
        let unit = UnitState::read(&self.plan, blob, None, side, scratch.read_scratch())?;
        let stats = IspRunStats { p2p_bytes: unit.fetched(), units: unit.stats() };
        Ok((unit.assemble(&self.plan)?.0, stats))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use presto_datagen::{generate_batch, write_partition, RmConfig};
    use presto_ops::preprocess_partition;

    fn setup(rows: usize) -> (RmConfig, PreprocessPlan, presto_columnar::MemBlob) {
        let mut c = RmConfig::rm1();
        c.batch_size = rows;
        let plan = PreprocessPlan::from_config(&c, 11).expect("plan");
        let batch = generate_batch(&c, rows, 5);
        let blob = write_partition(&batch).expect("serializes");
        (c, plan, blob)
    }

    #[test]
    fn isp_output_is_bit_identical_to_cpu_path() {
        let (_, plan, blob) = setup(256);
        let worker = IspWorker::new(plan.clone());
        let (isp_out, stats) = worker.preprocess(blob.clone()).expect("isp path");
        let (cpu_out, _) = preprocess_partition(&plan, blob).expect("cpu path");
        assert_eq!(isp_out, cpu_out);
        assert!(stats.units.elements > 0);
        assert!(stats.p2p_bytes > 0);
    }

    #[test]
    fn chunk_size_does_not_change_results() {
        let (_, plan, blob) = setup(200);
        let a = IspWorker::new(plan.clone())
            .with_buffer_elems(7)
            .preprocess(blob.clone())
            .expect("tiny chunks")
            .0;
        let b = IspWorker::new(plan.clone())
            .with_buffer_elems(4096)
            .preprocess(blob.clone())
            .expect("one chunk")
            .0;
        let c = IspWorker::new(plan).preprocess(blob).expect("default").0;
        assert_eq!(a, b);
        assert_eq!(b, c);
    }

    #[test]
    fn chunk_counts_follow_buffer_size() {
        let (_, plan, blob) = setup(256);
        let small = IspWorker::new(plan.clone())
            .with_buffer_elems(32)
            .preprocess(blob.clone())
            .expect("runs")
            .1;
        let large = IspWorker::new(plan).with_buffer_elems(512).preprocess(blob).expect("runs").1;
        assert!(small.units.generation_chunks > large.units.generation_chunks);
        assert_eq!(small.units.elements, large.units.elements);
    }

    #[test]
    fn p2p_bytes_match_projected_chunks() {
        let (_, plan, blob) = setup(128);
        let file_len = blob.as_bytes().len() as u64;
        let (_, stats) = IspWorker::new(plan).preprocess(blob).expect("runs");
        // Projection covers all feature columns here, so P2P bytes are most
        // of the file but strictly less (footer + magic excluded).
        assert!(stats.p2p_bytes < file_len);
        assert!(stats.p2p_bytes > file_len / 2);
    }

    #[test]
    #[should_panic(expected = "at least one element")]
    fn zero_buffer_rejected() {
        let (_, plan, _) = setup(8);
        let _ = IspWorker::new(plan).with_buffer_elems(0);
    }

    #[test]
    fn scratch_reuse_across_partitions_matches_fresh_runs() {
        let mut c = RmConfig::rm1();
        c.batch_size = 96;
        let plan = PreprocessPlan::from_config(&c, 11).expect("plan");
        let worker = IspWorker::new(plan.clone());
        let mut scratch = ScratchSpace::new();
        for seed in 0..3 {
            let batch = generate_batch(&c, 96, 40 + seed);
            let blob = write_partition(&batch).expect("serializes");
            let (fresh, fresh_stats) = worker.preprocess(blob.clone()).expect("fresh");
            let (reused, reused_stats) =
                worker.preprocess_with(blob, &mut scratch).expect("reused");
            assert_eq!(fresh, reused, "seed {seed}");
            assert_eq!(fresh_stats, reused_stats, "seed {seed}");
        }
    }

    #[test]
    fn opaque_backend_matches_shared_backend() {
        // CountingBlob defeats the lazy-decode path, forcing the staged
        // fallback in every unit; outputs and stats must not change.
        let (_, plan, blob) = setup(160);
        let worker = IspWorker::new(plan);
        let (shared_out, shared_stats) = worker.preprocess(blob.clone()).expect("shared");
        let counting = presto_columnar::CountingBlob::new(blob);
        let (opaque_out, opaque_stats) = worker.preprocess(&counting).expect("opaque");
        assert_eq!(shared_out, opaque_out);
        assert_eq!(shared_stats, opaque_stats);
        assert!(counting.bytes_read() > 0);
    }

    #[test]
    fn production_shape_also_matches() {
        let mut c = RmConfig::rm3();
        c.batch_size = 64;
        let plan = PreprocessPlan::from_config(&c, 3).expect("plan");
        let batch = generate_batch(&c, 64, 9);
        let blob = write_partition(&batch).expect("serializes");
        let (isp_out, _) = IspWorker::new(plan.clone()).preprocess(blob.clone()).expect("isp");
        let (cpu_out, _) = preprocess_partition(&plan, blob).expect("cpu");
        assert_eq!(isp_out, cpu_out);
        assert_eq!(isp_out.sparse().len(), 42 + 42);
    }
}
