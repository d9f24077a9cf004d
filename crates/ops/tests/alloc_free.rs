//! Heap-allocation spot-check for the transform hot loop: once a
//! [`ScratchSpace`] is warm, `transform_batch_into` must perform **zero**
//! heap allocations per batch — over the canonical plan, the multi-op chain
//! graphs (`cleaned`, `remapped`), and the long-history and truncate +
//! cross graphs with `x` past every list length, whose `FirstX` ops are the
//! identity and skipped (a `FirstX`-only stage refills its slot).
//! This pins the allocation-free contract the executor documents — a
//! regression here silently reintroduces the per-batch malloc traffic the
//! zero-copy refactor removed.
//!
//! The counting allocator (presto-columnar's `tests/common`) counts only the
//! allocations of a thread inside `allocations_of`, so what the test
//! harness's other threads allocate meanwhile never lands in a count; this
//! file still contains exactly one `#[test]`.

use presto_datagen::{generate_batch, RmConfig};
use presto_ops::{
    preprocess_batch_with, transform_batch_into, PlanGraph, PreprocessPlan, ScratchSpace,
};

#[path = "../../columnar/tests/common/mod.rs"]
mod common;

use common::allocations_of;

#[test]
fn warm_transform_kernel_loop_allocates_nothing() {
    // One known allocation counts 1, so a count of 0 below means nothing
    // was allocated, not that nothing was counted.
    let boxed = allocations_of(|| std::hint::black_box(Box::new(7u64)));
    assert_eq!(boxed, 1, "the counter counts");

    let mut config = RmConfig::rm1();
    config.batch_size = 512;
    // Distinct same-shaped batches: steady state means *new data* through
    // *old buffers*, not re-processing one batch.
    let batches: Vec<_> = (0..4).map(|seed| generate_batch(&config, 512, seed)).collect();
    let longest = batches
        .iter()
        .flat_map(|b| b.columns())
        .filter_map(|c| c.as_list_int64())
        .flat_map(|(offsets, _)| offsets.windows(2).map(|w| (w[1] - w[0]) as usize))
        .max()
        .expect("the batches have list columns");
    let graphs = [
        ("canonical", PlanGraph::canonical(&config, 7)),
        ("cleaned", PlanGraph::cleaned(&config, 7)),
        ("remapped", PlanGraph::remapped(&config, 7, 1024)),
        ("long_history", PlanGraph::long_history(&config, 7, longest)),
        ("truncated_cross", PlanGraph::truncated_cross(&config, 7, longest, 2)),
    ];

    for (name, graph) in graphs {
        let plan =
            PreprocessPlan::compile(graph.expect("graph builds"), &config).expect("compiles");
        let mut scratch = ScratchSpace::new();

        // Warm-up: first passes size every pool to the workload's
        // high-water mark (allocations expected and allowed here).
        for batch in &batches {
            transform_batch_into(&plan, batch, &mut scratch).expect("transform succeeds");
        }

        // Steady state: zero allocations across many further batches.
        let delta = allocations_of(|| {
            for _round in 0..8 {
                for batch in &batches {
                    transform_batch_into(&plan, batch, &mut scratch).expect("transform succeeds");
                }
            }
        });
        assert_eq!(
            delta, 0,
            "{name}: steady-state transform allocated {delta} times over 32 batches"
        );

        // Sanity, after the counted loop: the warm scratch's mini-batch
        // still matches a cold one's.
        let batch = &batches[3];
        let (warm, _) = preprocess_batch_with(&plan, batch, &mut scratch).expect("warm run");
        let (cold, _) =
            preprocess_batch_with(&plan, batch, &mut ScratchSpace::new()).expect("cold run");
        assert_eq!(warm, cold, "{name}");
    }
}
