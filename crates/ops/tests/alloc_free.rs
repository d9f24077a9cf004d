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
//! The counting allocator is process-global, so this file contains exactly
//! one `#[test]`: nothing else runs concurrently in this binary to perturb
//! the counters.

use presto_datagen::{generate_batch, RmConfig};
use presto_ops::{
    preprocess_batch_with, transform_batch_into, PlanGraph, PreprocessPlan, ScratchSpace,
};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

/// Forwards to the system allocator, counting every allocation call.
struct CountingAllocator;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

fn allocation_count() -> u64 {
    ALLOCATIONS.load(Ordering::Relaxed)
}

#[test]
fn warm_transform_kernel_loop_allocates_nothing() {
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
        let before = allocation_count();
        for _round in 0..8 {
            for batch in &batches {
                transform_batch_into(&plan, batch, &mut scratch).expect("transform succeeds");
            }
        }
        let delta = allocation_count() - before;
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
