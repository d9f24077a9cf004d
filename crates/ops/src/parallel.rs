//! Multi-worker host execution: the software architecture of Section II-D.
//!
//! [`run_workers`] drains the streaming engine's host fleet
//! ([`crate::stream`]) in partition order into a `Vec`, bit-identical to
//! serial execution. Callers that want batches *as they complete* — the
//! real producer–consumer shape, where the trainer overlaps with
//! preprocessing — should consume a [`crate::BatchStream`] directly.
//!
//! [`run_workers_materialized`] preserves the previous architecture (shared
//! ticket counter, results collected under one mutex, nothing visible until
//! every partition is done). It exists as the ablation baseline for
//! `benches/stream.rs` and the `ablation-stream` binary, which quantify what
//! streaming + double-buffered Extract buys over it.

use crate::executor::{preprocess_partition_with, PreprocessError, ScratchSpace};
use crate::minibatch::MiniBatch;
use crate::plan::PreprocessPlan;
use crate::stream::{BatchStream, FleetConfig};
use presto_datagen::Partition;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Outcome of a parallel preprocessing run.
#[derive(Debug)]
pub struct ParallelReport {
    /// Produced mini-batches, ordered by partition index.
    pub batches: Vec<MiniBatch>,
    /// Wall-clock duration of the whole run.
    pub elapsed: Duration,
    /// Number of workers used.
    pub workers: usize,
}

impl ParallelReport {
    /// Aggregate throughput in samples per second.
    #[must_use]
    pub fn samples_per_sec(&self) -> f64 {
        let rows: usize = self.batches.iter().map(MiniBatch::rows).sum();
        rows as f64 / self.elapsed.as_secs_f64().max(1e-12)
    }
}

/// Preprocesses all `partitions` using `workers` streaming pipelines and
/// collects the mini-batches in partition order.
///
/// Equivalent to draining
/// [`BatchStream::spawn`]`(..).into_ordered()`
/// with a channel capacity of `2 × workers`.
///
/// # Errors
///
/// Returns the first worker error encountered; remaining work is abandoned
/// (producers observe the stop flag within one partition).
///
/// # Panics
///
/// Panics if a worker thread itself panics.
pub fn run_workers(
    plan: &PreprocessPlan,
    partitions: &[Partition],
    workers: usize,
) -> Result<ParallelReport, PreprocessError> {
    let workers = workers.max(1).min(partitions.len().max(1));
    let start = Instant::now();
    let stream = BatchStream::spawn(plan, partitions, &FleetConfig::new(workers, workers * 2));
    let mut batches = Vec::with_capacity(partitions.len());
    for item in stream.into_ordered() {
        batches.push(item?.batch);
    }
    Ok(ParallelReport { batches, elapsed: start.elapsed(), workers })
}

/// The pre-streaming execution strategy: workers pull partition indices from
/// one shared atomic ticket and store whole mini-batches under a mutex;
/// nothing is visible to the caller until the last partition finishes.
///
/// Kept as the measured baseline for the streaming ablations — it answers
/// "what did per-worker output channels, double-buffered Extract and
/// device-affine sharding actually buy?" in `benches/stream.rs`. Output is
/// bit-identical to [`run_workers`].
///
/// # Errors
///
/// Returns the first worker error encountered; remaining work is abandoned.
///
/// # Panics
///
/// Panics if a worker thread itself panics.
pub fn run_workers_materialized(
    plan: &PreprocessPlan,
    partitions: &[Partition],
    workers: usize,
) -> Result<ParallelReport, PreprocessError> {
    let workers = workers.max(1).min(partitions.len().max(1));
    let next = AtomicUsize::new(0);
    let results: Mutex<Vec<Option<MiniBatch>>> = Mutex::new(vec![None; partitions.len()]);
    // Workers poll the lock-free flag on their hot loop; the mutex exists
    // only to store the error object itself on the (rare) failure path.
    let stop = AtomicBool::new(false);
    let first_error: Mutex<Option<PreprocessError>> = Mutex::new(None);

    let start = Instant::now();
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| {
                // One scratch per worker: every partition after the first
                // reuses the same Extract buffer and transform pools.
                let mut scratch = ScratchSpace::new();
                loop {
                    let idx = next.fetch_add(1, Ordering::Relaxed);
                    if idx >= partitions.len() || stop.load(Ordering::Relaxed) {
                        return;
                    }
                    match preprocess_partition_with(
                        plan,
                        partitions[idx].blob.clone(),
                        &mut scratch,
                    ) {
                        Ok((mb, _)) => {
                            results.lock().expect("result lock")[idx] = Some(mb);
                        }
                        Err(e) => {
                            let mut slot = first_error.lock().expect("error lock");
                            if slot.is_none() {
                                *slot = Some(e);
                            }
                            stop.store(true, Ordering::Relaxed);
                            return;
                        }
                    }
                }
            });
        }
    });
    let elapsed = start.elapsed();

    if let Some(e) = first_error.into_inner().expect("error lock") {
        return Err(e);
    }
    let batches: Vec<MiniBatch> = results
        .into_inner()
        .expect("result lock")
        .into_iter()
        .map(|b| b.expect("all partitions processed"))
        .collect();
    Ok(ParallelReport { batches, elapsed, workers })
}

#[cfg(test)]
mod tests {
    use super::*;
    use presto_datagen::{Dataset, RmConfig};

    fn tiny_dataset(partitions: usize) -> (RmConfig, Dataset) {
        let mut c = RmConfig::rm1();
        c.batch_size = 32;
        let ds = Dataset::generate(&c, partitions, 32, 2, 11).unwrap();
        (c, ds)
    }

    #[test]
    fn parallel_matches_serial() {
        let (c, ds) = tiny_dataset(6);
        let plan = PreprocessPlan::from_config(&c, 1).unwrap();
        let serial = run_workers(&plan, ds.partitions(), 1).unwrap();
        let parallel = run_workers(&plan, ds.partitions(), 4).unwrap();
        assert_eq!(serial.batches, parallel.batches);
        assert_eq!(parallel.workers, 4);
    }

    #[test]
    fn streaming_wrapper_matches_materialized_baseline() {
        let (c, ds) = tiny_dataset(7);
        let plan = PreprocessPlan::from_config(&c, 1).unwrap();
        let streamed = run_workers(&plan, ds.partitions(), 3).unwrap();
        let materialized = run_workers_materialized(&plan, ds.partitions(), 3).unwrap();
        assert_eq!(streamed.batches, materialized.batches);
    }

    #[test]
    fn output_order_follows_partition_index() {
        let (c, ds) = tiny_dataset(5);
        let plan = PreprocessPlan::from_config(&c, 1).unwrap();
        let report = run_workers(&plan, ds.partitions(), 3).unwrap();
        assert_eq!(report.batches.len(), 5);
        for mb in &report.batches {
            assert_eq!(mb.rows(), 32);
        }
    }

    #[test]
    fn worker_count_is_clamped() {
        let (c, ds) = tiny_dataset(2);
        let plan = PreprocessPlan::from_config(&c, 1).unwrap();
        let report = run_workers(&plan, ds.partitions(), 64).unwrap();
        assert_eq!(report.workers, 2);
        let report = run_workers(&plan, ds.partitions(), 0).unwrap();
        assert_eq!(report.workers, 1);
    }

    #[test]
    fn throughput_is_positive() {
        let (c, ds) = tiny_dataset(3);
        let plan = PreprocessPlan::from_config(&c, 1).unwrap();
        let report = run_workers(&plan, ds.partitions(), 2).unwrap();
        assert!(report.samples_per_sec() > 0.0);
    }

    #[test]
    fn corrupted_partition_surfaces_error() {
        let mut c = RmConfig::rm1();
        c.batch_size = 16;
        let ds = Dataset::generate(&c, 3, 16, 1, 1).unwrap();
        let plan = PreprocessPlan::from_config(&c, 1).unwrap();
        // Truncate one partition's blob.
        let mut partitions = ds.partitions().to_vec();
        let bytes = partitions[1].blob.as_bytes().to_vec();
        partitions[1].blob = presto_columnar::MemBlob::new(bytes[..bytes.len() / 2].to_vec());
        assert!(run_workers(&plan, &partitions, 2).is_err());
        assert!(run_workers_materialized(&plan, &partitions, 2).is_err());
    }
}
