//! Scratch-vs-allocating comparison: quantifies the zero-copy Extract and
//! allocation-free Transform refactor against a faithful reconstruction of
//! the allocating baseline (deep blob copies, allocating projected reads,
//! allocating kernels — the pre-refactor data path).
//!
//! The `partition_paths/*` pair is the headline number: the acceptance bar
//! for the refactor is `zero_copy` ≥ 1.3× the `alloc_baseline` throughput.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use presto_columnar::{FileReader, MemBlob};
use presto_datagen::{generate_batch, write_partition, RmConfig, RowBatch};
use presto_ops::{
    preprocess_batch_with, preprocess_partition_with, transform_batch_into, MiniBatch,
    PreprocessPlan, ScratchSpace,
};
use std::hint::black_box;

const ROWS: usize = 1024;

fn rm1_fixture() -> (PreprocessPlan, RowBatch, MemBlob) {
    let mut config = RmConfig::rm1();
    config.batch_size = ROWS;
    let plan = PreprocessPlan::from_config(&config, 1).expect("plan");
    let batch = generate_batch(&config, ROWS, 5);
    let blob = write_partition(&batch).expect("encodes");
    (plan, batch, blob)
}

/// The pre-refactor data path, reconstructed from public APIs: the blob is
/// deep-copied (as the old `MemBlob::clone` did), every projected chunk is
/// read through the allocating `read_projected`, and the transform runs the
/// allocating one-shot batch path.
fn alloc_baseline(plan: &PreprocessPlan, blob: &MemBlob) -> MiniBatch {
    let deep_clone = MemBlob::new(blob.as_bytes().to_vec());
    let reader = FileReader::open(deep_clone).expect("opens");
    let names: Vec<&str> = plan.required_columns().iter().map(String::as_str).collect();
    let mut columns = Vec::with_capacity(reader.row_group_count());
    for rg in 0..reader.row_group_count() {
        columns.push(reader.read_projected(rg, &names).expect("reads"));
    }
    let schema = {
        let fields: Vec<presto_columnar::Field> = plan
            .required_columns()
            .iter()
            .map(|n| {
                let idx = reader.schema().index_of(n).expect("resolves");
                reader.schema().field(idx).expect("valid").clone()
            })
            .collect();
        presto_columnar::Schema::new(fields).expect("schema")
    };
    let merged: Vec<presto_columnar::Array> = if columns.len() == 1 {
        columns.pop().expect("one row group")
    } else {
        (0..names.len())
            .map(|c| {
                let parts: Vec<presto_columnar::Array> =
                    columns.iter().map(|rg| rg[c].clone()).collect();
                presto_columnar::column::concat_arrays(&parts).expect("concat")
            })
            .collect()
    };
    let batch = RowBatch::new(schema, merged).expect("batch");
    preprocess_batch_with(plan, &batch, &mut ScratchSpace::new()).expect("preprocess").0
}

fn bench_partition_paths(c: &mut Criterion) {
    let (plan, _, blob) = rm1_fixture();
    let mut group = c.benchmark_group("partition_paths");
    group.throughput(Throughput::Elements(ROWS as u64));

    group.bench_function("alloc_baseline", |bench| {
        bench.iter(|| black_box(alloc_baseline(&plan, black_box(&blob))));
    });

    group.bench_function("zero_copy", |bench| {
        let mut scratch = ScratchSpace::new();
        bench.iter(|| {
            black_box(
                preprocess_partition_with(&plan, black_box(blob.clone()), &mut scratch)
                    .expect("pipeline")
                    .0,
            )
        });
    });
    group.finish();
}

fn bench_transform_scratch(c: &mut Criterion) {
    // Transform kernels only: fresh scratch per batch (allocating) vs one
    // warm scratch (allocation-free steady state).
    let (plan, batch, _) = rm1_fixture();
    let mut group = c.benchmark_group("transform_kernels");
    group.throughput(Throughput::Elements(ROWS as u64));

    group.bench_function("fresh_scratch", |bench| {
        bench.iter(|| {
            let mut scratch = ScratchSpace::new();
            black_box(transform_batch_into(&plan, &batch, &mut scratch).expect("transforms"));
        });
    });

    group.bench_function("warm_scratch", |bench| {
        let mut scratch = ScratchSpace::new();
        transform_batch_into(&plan, &batch, &mut scratch).expect("warms");
        bench.iter(|| {
            black_box(transform_batch_into(&plan, &batch, &mut scratch).expect("transforms"));
        });
    });
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
    targets = bench_partition_paths, bench_transform_scratch
}
criterion_main!(benches);
