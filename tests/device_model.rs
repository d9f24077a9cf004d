//! The queue-depth device model, checked from both sides.
//!
//! Executable side (`presto_columnar::Device`): with queue depth 1, `N`
//! concurrent reads must take at least `N ×` the single-read latency
//! (reads serialize at the device); with queue depth ≥ `N` they overlap.
//! Analytic side (`presto_hwsim::ssd::SsdModel`): `queued_service_time`
//! must predict exactly the serialization the token queue schedules — the
//! two models agree by construction, which is what makes the streaming
//! contention ablation physically meaningful.
//!
//! Timing assertions are one-sided or generously banded: lower bounds are
//! exact (a sleep never returns early), upper bounds leave room for
//! scheduler noise on loaded hosts.

use presto::columnar::{BlobRead, Device, DeviceModel, MemBlob};
use presto::hwsim::ssd::SsdModel;
use presto::hwsim::units::Secs;
use proptest::prelude::*;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Issues one read per thread through `device` and returns the elapsed
/// wall-clock time from before the first spawn to after the last join.
fn concurrent_reads(device: &Arc<Device>, threads: usize) -> Duration {
    let blob = MemBlob::new(vec![7u8; 256]).behind_device(Arc::clone(device));
    let start = Instant::now();
    std::thread::scope(|scope| {
        for t in 0..threads {
            let blob = blob.clone();
            scope.spawn(move || {
                let got = blob.read_at(t as u64, 8).expect("in range");
                assert_eq!(got, vec![7u8; 8]);
            });
        }
    });
    start.elapsed()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(3))]

    /// Queue depth 1: N concurrent reads serialize into ≥ N × latency.
    #[test]
    fn depth_one_serializes_concurrent_reads(n in 2usize..=4, latency_ms in 4u64..=8) {
        let latency = Duration::from_millis(latency_ms);
        let device = Arc::new(Device::new(DeviceModel::new(latency, 1)));
        let elapsed = concurrent_reads(&device, n);
        let floor = latency * n as u32;
        prop_assert!(
            elapsed >= floor,
            "{n} reads through a depth-1 device overlapped: {elapsed:?} < {floor:?}"
        );
        // The schedule itself is exact: completions chain one latency apart.
        prop_assert!(device.stats().makespan >= floor);
        prop_assert_eq!(device.stats().reads, n as u64);
    }

    /// Queue depth ≥ N restores overlap: N concurrent reads cost roughly
    /// one latency, not N.
    #[test]
    fn depth_at_least_n_overlaps(n in 2usize..=4) {
        let latency = Duration::from_millis(50);
        let device = Arc::new(Device::new(DeviceModel::new(latency, n)));
        let elapsed = concurrent_reads(&device, n);
        prop_assert!(elapsed >= latency, "a read cannot beat its own latency");
        // Tolerant ceiling: half a latency under the fully serialized
        // N × latency, so only genuine queueing (not scheduler skew on a
        // loaded CI host) can trip it.
        let ceiling = latency * n as u32 - latency / 2;
        prop_assert!(
            elapsed < ceiling,
            "depth {n} failed to overlap {n} reads: {elapsed:?} >= {ceiling:?}"
        );
    }

    /// The executable token queue and the analytic SSD model compute the
    /// same backlogged-device serialization, for any (reads, depth).
    #[test]
    fn device_model_and_hwsim_prediction_agree(
        reads in 0u64..200,
        depth in 1usize..16,
        latency_us in 1u64..5_000,
    ) {
        let latency = Duration::from_micros(latency_us);
        let executable = DeviceModel::new(latency, depth).serialized_time(reads);
        let analytic = SsdModel::nvme()
            .with_queue_depth(depth)
            .queued_service_time(reads, Secs::new(latency.as_secs_f64()));
        let delta = (executable.as_secs_f64() - analytic.seconds()).abs();
        prop_assert!(
            delta < 1e-9,
            "serialization disagrees: device {executable:?} vs hwsim {}s",
            analytic.seconds()
        );
    }
}

/// A backlogged depth-1 device driven by more threads than slots: the
/// scheduled makespan must match the hwsim prediction within 10% — the
/// agreement the streaming ablation (`repro-all ablation-stream`) reports.
#[test]
fn backlogged_depth_one_matches_hwsim_within_ten_percent() {
    let latency = Duration::from_millis(2);
    let device = Arc::new(Device::new(DeviceModel::new(latency, 1)));
    let blob = MemBlob::new(vec![1u8; 1024]).behind_device(Arc::clone(&device));
    let reads_per_thread = 4u64;
    let threads = 4u64;
    std::thread::scope(|scope| {
        for _ in 0..threads {
            let blob = blob.clone();
            scope.spawn(move || {
                for i in 0..reads_per_thread {
                    blob.read_at(i * 16, 16).expect("in range");
                }
            });
        }
    });
    let stats = device.stats();
    assert_eq!(stats.reads, threads * reads_per_thread);
    let predicted = SsdModel::nvme()
        .with_queue_depth(1)
        .queued_service_time(stats.reads, Secs::new(latency.as_secs_f64()));
    let ratio = stats.makespan.as_secs_f64() / predicted.seconds();
    assert!(
        (0.9..=1.1).contains(&ratio),
        "measured/predicted = {ratio:.3} (makespan {:?}, predicted {}s)",
        stats.makespan,
        predicted.seconds()
    );
}

/// `with_read_latency` keeps its legacy meaning: a private deep-queued
/// device where overlapping readers never queue behind each other.
#[test]
fn legacy_latency_blobs_do_not_contend() {
    let latency = Duration::from_millis(20);
    let blob = MemBlob::new(vec![0u8; 64]).with_read_latency(latency);
    let start = Instant::now();
    std::thread::scope(|scope| {
        for _ in 0..4 {
            let blob = blob.clone();
            scope.spawn(move || blob.read_at(0, 8).expect("in range"));
        }
    });
    let elapsed = start.elapsed();
    assert!(elapsed >= latency);
    assert!(elapsed < latency * 3, "legacy latency blobs must not serialize: {elapsed:?}");
}
