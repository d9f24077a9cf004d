//! Criterion benches of the streaming pipelined executor against the PR-1
//! materialize-everything baseline.
//!
//! Three rungs, cumulative:
//!
//! 1. `pr1-baseline` — a faithful reconstruction of the PR-1 `run_workers`
//!    path: shared ticket counter, results under one mutex, and the
//!    pre-lazy-decode Extract (an `OpaqueBlob` wrapper hides the blob's
//!    shared allocation so every plain page is copy-decoded, exactly as
//!    PR 1 shipped).
//! 2. `materialized` — the same collect-at-the-end strategy on today's
//!    executor (lazy plain-page decode active): isolates the decode win.
//! 3. `streaming` / `streaming-no-prefetch` — the full streaming pipeline
//!    (bounded channel, device-affine claiming, double-buffered Extract),
//!    drained to completion: adds the overlap win.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use presto_columnar::{BlobRead, FileReader, MemBlob, ReadScratch, Result as ColumnarResult};
use presto_datagen::{generate_batch, write_partition, Dataset, Partition, RmConfig};
use presto_ops::{
    extract_columns_for_plan, preprocess_partition_with, run_workers_materialized, BatchStream,
    FleetConfig, MiniBatch, PlanGraph, PreprocessPlan, ScratchSpace,
};
use std::hint::black_box;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// PR-1's `MemBlob` decoded straight from its borrowed slice but had no
/// shared-allocation hook, so this wrapper forwards `as_slice` and
/// *withholds* the `Arc`: the reader takes exactly the PR-1 copy-decode
/// path over storage memory, with lazy plain-page decode disabled.
struct OpaqueBlob<'a>(&'a MemBlob);

impl BlobRead for OpaqueBlob<'_> {
    fn blob_len(&self) -> u64 {
        self.0.blob_len()
    }

    fn read_at_into(&self, offset: u64, buf: &mut [u8]) -> ColumnarResult<()> {
        self.0.read_at_into(offset, buf)
    }

    fn as_slice(&self) -> Option<&[u8]> {
        self.0.as_slice()
    }
    // as_shared: default None — the whole point.
}

/// The PR-1 `run_workers` strategy, reconstructed: one shared ticket, whole
/// mini-batches accumulated under a mutex, nothing visible until the end.
fn run_pr1_baseline(
    plan: &PreprocessPlan,
    partitions: &[Partition],
    workers: usize,
) -> Vec<MiniBatch> {
    let workers = workers.max(1).min(partitions.len().max(1));
    let next = AtomicUsize::new(0);
    let results: Mutex<Vec<Option<MiniBatch>>> = Mutex::new(vec![None; partitions.len()]);
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| {
                let mut scratch = ScratchSpace::new();
                loop {
                    let idx = next.fetch_add(1, Ordering::Relaxed);
                    if idx >= partitions.len() {
                        return;
                    }
                    let (mb, _) = preprocess_partition_with(
                        plan,
                        OpaqueBlob(&partitions[idx].blob),
                        &mut scratch,
                    )
                    .expect("bench data preprocesses");
                    results.lock().expect("result lock")[idx] = Some(mb);
                }
            });
        }
    });
    results
        .into_inner()
        .expect("result lock")
        .into_iter()
        .map(|b| b.expect("all partitions processed"))
        .collect()
}

fn drain_stream(plan: &PreprocessPlan, partitions: &[Partition], config: &FleetConfig) -> usize {
    let mut batches = 0usize;
    for item in BatchStream::spawn(plan, partitions, config) {
        item.expect("bench data preprocesses");
        batches += 1;
    }
    batches
}

fn bench_stream_vs_baseline(c: &mut Criterion) {
    const PARTITIONS: usize = 16;
    const ROWS: usize = 2048;
    const DEVICES: usize = 4;
    const WORKERS: usize = 8;

    let config = RmConfig::rm1();
    let ds = Dataset::generate(&config, PARTITIONS, ROWS, DEVICES, 5).expect("dataset");
    let plan = PreprocessPlan::from_config(&config, 1).expect("plan");
    let rows = (PARTITIONS * ROWS) as u64;

    let mut group = c.benchmark_group("stream_executor");
    group.throughput(Throughput::Elements(rows));
    group.sample_size(12);
    group.bench_function("pr1-baseline", |bench| {
        bench.iter(|| black_box(run_pr1_baseline(&plan, ds.partitions(), WORKERS).len()));
    });
    group.bench_function("materialized", |bench| {
        bench.iter(|| {
            black_box(
                run_workers_materialized(&plan, ds.partitions(), WORKERS)
                    .expect("bench data preprocesses")
                    .batches
                    .len(),
            )
        });
    });
    group.bench_function("streaming-no-prefetch", |bench| {
        let cfg = FleetConfig::new(WORKERS, 2 * WORKERS).without_prefetch();
        bench.iter(|| black_box(drain_stream(&plan, ds.partitions(), &cfg)));
    });
    group.bench_function("streaming", |bench| {
        let cfg = FleetConfig::new(WORKERS, 2 * WORKERS);
        bench.iter(|| black_box(drain_stream(&plan, ds.partitions(), &cfg)));
    });
    group.finish();
}

/// The same partitions behind an emulated storage device: every positioned
/// read pays `latency` (the thread sleeps as it would in `pread(2)` against
/// an SSD) and zero-copy borrows are off.
fn with_latency(ds: &Dataset, latency: std::time::Duration) -> Vec<Partition> {
    ds.partitions()
        .iter()
        .map(|p| Partition {
            index: p.index,
            device: p.device,
            rows: p.rows,
            blob: p.blob.clone().with_read_latency(latency),
        })
        .collect()
}

fn bench_latency_hiding(c: &mut Criterion) {
    // Extract against a device with per-read latency: the prefetch thread
    // sleeps in the emulated pread while the worker's CPU transforms the
    // previous partition — the double-buffering win, visible at low worker
    // counts even on a single-core host. (At high worker counts plain
    // worker-level parallelism hides device latency too, so the gap
    // narrows; the full sweep lives in `ablation-stream`.)
    const LATENCY_US: u64 = 25; // one NVMe-class random read per chunk
    const ROWS: usize = 4096; // sized so Extract and Transform are comparable
    let config = RmConfig::rm1();
    let ds = Dataset::generate(&config, 8, ROWS, 4, 5).expect("dataset");
    let plan = PreprocessPlan::from_config(&config, 1).expect("plan");
    let partitions = with_latency(&ds, std::time::Duration::from_micros(LATENCY_US));

    let mut group = c.benchmark_group("stream_ssd_latency");
    group.throughput(Throughput::Elements(8 * ROWS as u64));
    group.sample_size(12);
    for workers in [1usize, 2] {
        group.bench_function(format!("materialized-w{workers}"), |bench| {
            bench.iter(|| {
                black_box(
                    run_workers_materialized(&plan, &partitions, workers)
                        .expect("bench data preprocesses")
                        .batches
                        .len(),
                )
            });
        });
        group.bench_function(format!("streaming-w{workers}"), |bench| {
            let cfg = FleetConfig::new(workers, 2 * workers);
            bench.iter(|| black_box(drain_stream(&plan, &partitions, &cfg)));
        });
    }
    group.finish();
}

/// The Extract stage alone: open + the plan's projected read and decode
/// into one `RowBatch`.
fn extract_partition(
    plan: &PreprocessPlan,
    blob: MemBlob,
    read: &mut ReadScratch,
) -> presto_datagen::RowBatch {
    let reader = FileReader::open(blob).expect("opens");
    extract_columns_for_plan(plan, &reader, plan.required_columns(), read).expect("extracts")
}

fn bench_extract_only(c: &mut Criterion) {
    // The Extract stage in isolation — projected read + block decode into
    // one RowBatch — the subject of the delta-bitpacked codec work. RM1 is
    // the sparse-id-dominated shape (one 500k-vocab id per feature per
    // row); RM2 adds variable-length lists, exercising the offset path.
    const ROWS: usize = 4096;
    let mut group = c.benchmark_group("extract_partition");
    group.throughput(Throughput::Elements(ROWS as u64));
    for (name, mut config) in [("rm1", RmConfig::rm1()), ("rm2", RmConfig::rm2())] {
        config.batch_size = ROWS;
        let plan = PreprocessPlan::from_config(&config, 1).expect("plan");
        let batch = generate_batch(&config, ROWS, 5);
        let blob = write_partition(&batch).expect("encodes");
        let mut scratch = ReadScratch::new();
        group.bench_function(name, |bench| {
            bench.iter(|| {
                black_box(extract_partition(&plan, black_box(blob.clone()), &mut scratch))
            });
        });
    }
    // The long-sequence scenario with prefix pushdown: `long_history`'s
    // FirstX(8)-headed chains give every sparse column a `Prefix(8)`
    // requirement, so the plan-aware extract decodes ~8 of each ~512
    // elements. Compare against `rm2` above for the pushdown win.
    {
        let mut config = RmConfig::rm_longseq();
        config.batch_size = ROWS;
        let graph = PlanGraph::long_history(&config, 1, 8).expect("graph");
        let plan = PreprocessPlan::compile(graph, &config).expect("plan");
        let batch = generate_batch(&config, ROWS, 5);
        let blob = write_partition(&batch).expect("encodes");
        let mut scratch = ReadScratch::new();
        group.bench_function("longseq", |bench| {
            bench.iter(|| {
                black_box(extract_partition(&plan, black_box(blob.clone()), &mut scratch))
            });
        });
    }
    group.finish();
}

fn bench_queue_capacity(c: &mut Criterion) {
    // Back-pressure cost: a tiny channel forces producers to run in
    // lock-step with the consumer; a deep one decouples them.
    let config = RmConfig::rm1();
    let ds = Dataset::generate(&config, 12, 1024, 2, 9).expect("dataset");
    let plan = PreprocessPlan::from_config(&config, 1).expect("plan");

    let mut group = c.benchmark_group("stream_capacity");
    group.throughput(Throughput::Elements(12 * 1024));
    group.sample_size(12);
    for capacity in [1usize, 4, 16] {
        group.bench_function(format!("capacity-{capacity}"), |bench| {
            let cfg = FleetConfig::new(4, capacity);
            bench.iter(|| black_box(drain_stream(&plan, ds.partitions(), &cfg)));
        });
    }
    group.finish();
}

/// Short measurement windows keep `cargo bench --workspace` to a few
/// minutes while staying statistically useful.
fn quick() -> Criterion {
    Criterion::default()
        .warm_up_time(std::time::Duration::from_millis(300))
        .measurement_time(std::time::Duration::from_secs(2))
        .sample_size(12)
}

criterion_group! {
    name = benches;
    config = quick();
    targets = bench_stream_vs_baseline, bench_extract_only, bench_latency_hiding,
        bench_queue_capacity
}
criterion_main!(benches);
