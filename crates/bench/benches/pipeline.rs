//! Criterion benches of the end-to-end functional pipeline and of the
//! evaluation harness itself (simulation cost per figure).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use presto_core::experiments;
use presto_datagen::{generate_batch, write_partition, RmConfig};
use presto_ops::{
    preprocess_batch_with, preprocess_partition, PlanGraph, PreprocessPlan, ScratchSpace,
};
use std::hint::black_box;

fn bench_preprocess_batch(c: &mut Criterion) {
    let mut group = c.benchmark_group("preprocess_batch");
    for (name, mut config) in [("rm1", RmConfig::rm1()), ("rm2", RmConfig::rm2())] {
        config.batch_size = 1024;
        let plan = PreprocessPlan::from_config(&config, 1).expect("plan");
        let batch = generate_batch(&config, 1024, 5);
        group.throughput(Throughput::Elements(1024));
        group.bench_with_input(
            BenchmarkId::new("model", name),
            &(plan, batch),
            |bench, (plan, batch)| {
                // One-shot: a fresh scratch per batch.
                bench.iter(|| {
                    let mut scratch = ScratchSpace::new();
                    black_box(
                        preprocess_batch_with(plan, batch, &mut scratch).expect("preprocesses"),
                    )
                });
            },
        );
    }
    group.finish();
}

fn bench_preprocess_partition(c: &mut Criterion) {
    // Full Extract -> Transform -> Load path over the columnar format.
    let mut config = RmConfig::rm1();
    config.batch_size = 1024;
    let plan = PreprocessPlan::from_config(&config, 1).expect("plan");
    let batch = generate_batch(&config, 1024, 5);
    let blob = write_partition(&batch).expect("encodes");
    let mut group = c.benchmark_group("preprocess_partition");
    group.throughput(Throughput::Elements(1024));
    group.bench_function("rm1", |bench| {
        bench.iter(|| {
            black_box(preprocess_partition(&plan, black_box(blob.clone())).expect("pipeline"))
        });
    });
    group.finish();
}

fn bench_scenario_graphs(c: &mut Criterion) {
    // Non-canonical operator graphs through the full partition path: the
    // cost of the richer vocabulary (FirstX + NGram crosses, MapId
    // remaps) relative to the canonical pipeline on the same data.
    let mut config = RmConfig::rm1_lists();
    config.batch_size = 1024;
    let batch = generate_batch(&config, 1024, 5);
    let blob = write_partition(&batch).expect("encodes");
    let scenarios = [
        ("canonical", PlanGraph::canonical(&config, 1).expect("graph")),
        ("truncated_cross", PlanGraph::truncated_cross(&config, 1, 4, 2).expect("graph")),
        ("remapped", PlanGraph::remapped(&config, 1, 4096).expect("graph")),
    ];
    let mut group = c.benchmark_group("preprocess_scenario");
    group.throughput(Throughput::Elements(1024));
    for (name, graph) in scenarios {
        let plan = PreprocessPlan::compile(graph, &config).expect("compiles");
        group.bench_with_input(BenchmarkId::new("rm1_lists", name), &plan, |bench, plan| {
            bench.iter(|| {
                black_box(preprocess_partition(plan, black_box(blob.clone())).expect("pipeline"))
            });
        });
    }
    group.finish();
}

fn bench_experiment_harness(c: &mut Criterion) {
    // Cost of regenerating each modeled figure (all should be trivially
    // cheap except fig6, which runs the trace-driven cache simulation).
    let mut group = c.benchmark_group("figure_harness");
    group.bench_function("fig11", |bench| bench.iter(|| black_box(experiments::fig11())));
    group.bench_function("fig12", |bench| bench.iter(|| black_box(experiments::fig12())));
    group.bench_function("fig17", |bench| bench.iter(|| black_box(experiments::fig17())));
    group.sample_size(10);
    group.bench_function("fig6_rows512", |bench| bench.iter(|| black_box(experiments::fig6(512))));
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
    targets = bench_preprocess_batch, bench_preprocess_partition, bench_scenario_graphs,
        bench_experiment_harness
}
criterion_main!(benches);
