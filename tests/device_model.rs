//! The queue-depth device model, checked against its own prediction.
//!
//! Device side (`presto_columnar::Device`): with queue depth 1, `N`
//! concurrent reads must take at least `N ×` the single-read latency
//! (reads serialize at the device); with queue depth ≥ `N` they overlap.
//! A backlogged device's scheduled makespan must match
//! `DeviceModel::serialized_time`, `ceil(reads / depth) × latency` — the
//! one queueing formula in the workspace.
//!
//! Reader side (`presto_columnar::FileReader`): a group's chunk reads go
//! to the device as one submission, so from an idle device they finish in
//! exactly `DeviceModel::serialized_time(chunks)` of schedule time, where a
//! read-at-a-time loop pays a latency per chunk; an open is two waves.
//!
//! Timing assertions are one-sided or generously banded: lower bounds are
//! exact (a sleep never returns early), upper bounds leave room for
//! scheduler noise on loaded hosts.

use presto::columnar::{
    Array, BlobRead, DataType, Device, DeviceModel, Field, FileReader, FileWriter, MemBlob,
    ReadScratch, Result, Schema,
};
use proptest::prelude::*;
use std::cell::Cell;
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
}

/// A backlogged depth-1 device driven by more threads than slots: the
/// scheduled makespan must match `serialized_time` within 10%.
#[test]
fn backlogged_depth_one_matches_serialized_time_within_ten_percent() {
    let latency = Duration::from_millis(2);
    let model = DeviceModel::new(latency, 1);
    let device = Arc::new(Device::new(model));
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
    let predicted = model.serialized_time(stats.reads);
    let ratio = stats.makespan.as_secs_f64() / predicted.as_secs_f64();
    assert!(
        (0.9..=1.1).contains(&ratio),
        "measured/predicted = {ratio:.3} (makespan {:?}, predicted {predicted:?})",
        stats.makespan,
    );
}

/// A blob that reads from plain memory until `live` is set and through
/// `device` after: a reader opens without the device seeing its footer
/// reads, so the device is idle when the group read starts.
struct OpenedInMemory {
    memory: MemBlob,
    device: MemBlob,
    live: Cell<bool>,
}

impl OpenedInMemory {
    fn blob(&self) -> &MemBlob {
        if self.live.get() {
            &self.device
        } else {
            &self.memory
        }
    }
}

impl BlobRead for OpenedInMemory {
    fn blob_len(&self) -> u64 {
        self.memory.blob_len()
    }

    fn read_at_into(&self, offset: u64, buf: &mut [u8]) -> Result<()> {
        self.blob().read_at_into(offset, buf)
    }

    fn read_many_into(&self, reads: &mut dyn Iterator<Item = (u64, &mut [u8])>) -> Result<()> {
        self.blob().read_many_into(reads)
    }
}

/// A one-group file of `columns` integer columns.
fn file_of(columns: usize) -> Vec<u8> {
    let fields = (0..columns).map(|c| Field::new(format!("c{c}"), DataType::Int64)).collect();
    let mut writer = FileWriter::new(Schema::new(fields).expect("schema"));
    let arrays = (0..columns).map(|c| Array::Int64((0..64).map(|r| r * c as i64).collect()));
    writer.write_row_group(&arrays.collect::<Vec<_>>()).expect("writes");
    writer.finish()
}

/// The reader's two I/O shapes against the schedule the model predicts: a
/// group read of `n` chunks from an idle depth-`d` device spans exactly
/// `serialized_time(n)` (a schedule value, free of sleep jitter), while a
/// read-at-a-time loop over the same chunks spans at least `n × latency`.
#[test]
fn a_group_read_takes_the_serialized_time_and_a_loop_a_latency_per_chunk() {
    let latency = Duration::from_millis(2);
    for (n, depth) in [(1, 2), (5, 1), (5, 2), (12, 4), (40, 2)] {
        let model = DeviceModel::new(latency, depth);
        let bytes = MemBlob::new(file_of(n));
        let open = |device: &Arc<Device>| OpenedInMemory {
            memory: bytes.clone(),
            device: bytes.clone().behind_device(Arc::clone(device)),
            live: Cell::new(false),
        };

        let device = Arc::new(Device::new(model));
        let blob = open(&device);
        let reader = FileReader::open(&blob).expect("opens");
        blob.live.set(true);
        let columns: Vec<_> = (0..n).map(|c| (c, None)).collect();
        let arrays = reader.read_columns_with(0, &columns, &mut ReadScratch::new()).expect("reads");
        assert_eq!(arrays.len(), n);
        let stats = device.stats();
        assert_eq!((stats.reads, stats.makespan), (n as u64, model.serialized_time(n as u64)));

        let device = Arc::new(Device::new(model));
        let blob = open(&device);
        let reader = FileReader::open(&blob).expect("opens");
        blob.live.set(true);
        let mut scratch = ReadScratch::new();
        for (c, array) in arrays.iter().enumerate() {
            let one = reader.read_column_limit_with(0, c, None, &mut scratch).expect("reads");
            assert_eq!(&one, array);
        }
        let stats = device.stats();
        assert_eq!(stats.reads, n as u64);
        assert!(stats.makespan >= latency * n as u32, "{n} chunk reads in {:?}", stats.makespan);
    }
}

/// An open sends the head magic and the tail as one submission and then
/// reads the footer: two waves on a device deep enough for the first.
#[test]
fn an_open_is_two_waves() {
    let latency = Duration::from_millis(50);
    let device = Arc::new(Device::new(DeviceModel::new(latency, 2)));
    let blob = MemBlob::new(file_of(3)).behind_device(Arc::clone(&device));
    let start = Instant::now();
    FileReader::open(blob).expect("opens");
    let (elapsed, stats) = (start.elapsed(), device.stats());
    assert_eq!(stats.reads, 3);
    assert!(elapsed >= latency * 2, "{elapsed:?}");
    // The footer read starts when the first wave's sleep returns, so the
    // makespan is two latencies plus that overshoot, well short of three.
    assert!(stats.makespan >= latency * 2 && stats.makespan < latency * 3, "{stats:?}");
}
