//! Criterion benches of the real preprocessing kernels (`presto-ops`).
//!
//! These measure the host-CPU implementations of the operations the paper
//! offloads — Bucketize (Algorithm 1), SigridHash (Algorithm 2) and Log —
//! on paper-shaped inputs (8192-row mini-batches, RM1 and RM5 bucket
//! sizes). They are the functional-layer counterpart of Fig. 5/12's
//! modeled stage times.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use presto_datagen::DataRng;
use presto_ops::{lognorm, Bucketizer, SigridHasher};
use std::hint::black_box;

const BATCH: usize = 8192;

fn dense_column(n: usize, seed: u64) -> Vec<f32> {
    let mut rng = DataRng::seed_from_u64(seed);
    (0..n).map(|_| rng.dense_value()).collect()
}

fn sparse_ids(n: usize, seed: u64) -> Vec<i64> {
    let mut rng = DataRng::seed_from_u64(seed);
    (0..n).map(|_| rng.sparse_id(500_000)).collect()
}

fn bench_bucketize(c: &mut Criterion) {
    let mut group = c.benchmark_group("bucketize");
    let values = dense_column(BATCH, 1);
    for bucket_size in [1024usize, 2048, 4096] {
        let b = Bucketizer::log_spaced(bucket_size, 1.0e6).expect("valid boundaries");
        group.throughput(Throughput::Elements(BATCH as u64));
        group.bench_with_input(BenchmarkId::new("m", bucket_size), &b, |bench, b| {
            bench.iter(|| black_box(b.apply(black_box(&values))));
        });
    }
    group.finish();
}

fn bench_sigridhash(c: &mut Criterion) {
    let mut group = c.benchmark_group("sigridhash");
    let hasher = SigridHasher::new(42, 500_000).expect("positive max");
    // RM1: 1 id per row; RM5: avg 20 ids per row.
    for (label, elems) in [("rm1_lists", BATCH), ("rm5_lists", BATCH * 20)] {
        let ids = sparse_ids(elems, 2);
        group.throughput(Throughput::Elements(elems as u64));
        group.bench_with_input(BenchmarkId::new("shape", label), &ids, |bench, ids| {
            bench.iter(|| black_box(hasher.apply(black_box(ids))));
        });
    }
    group.finish();
}

fn bench_log(c: &mut Criterion) {
    let mut group = c.benchmark_group("lognorm");
    for cols in [13usize, 504] {
        let values = dense_column(BATCH * cols, 3);
        group.throughput(Throughput::Elements(values.len() as u64));
        group.bench_with_input(BenchmarkId::new("dense_cols", cols), &values, |bench, v| {
            bench.iter(|| black_box(lognorm::log_normalize(black_box(v))));
        });
    }
    group.finish();
}

/// Short measurement windows keep `cargo bench --workspace` to a few
/// minutes while staying statistically useful.
fn quick() -> Criterion {
    Criterion::default()
        .warm_up_time(std::time::Duration::from_millis(300))
        .measurement_time(std::time::Duration::from_secs(1))
        .sample_size(20)
}

criterion_group! {
    name = benches;
    config = quick();
    targets = bench_bucketize, bench_sigridhash, bench_log
}
criterion_main!(benches);
