//! The counting global allocator of the allocation spot-checks. It counts
//! only the allocations of a thread inside [`allocations_of`], so what the
//! test harness's other threads allocate meanwhile never lands in a count.
//! Each test file that installs it by declaring this module (presto-ops'
//! `tests/alloc_free.rs` declares it by `#[path]`) still contains exactly
//! one `#[test]`.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

/// Forwards to the system allocator, counting the allocation calls of a
/// thread whose [`COUNTING`] flag is set.
struct CountingAllocator;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

thread_local! {
    /// Set on the calling thread while [`allocations_of`] runs its closure.
    /// `const`-initialized and without a destructor, so reading it never
    /// allocates.
    static COUNTING: Cell<bool> = const { Cell::new(false) };
}

fn count() {
    if COUNTING.with(Cell::get) {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
    }
}

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

/// Allocation calls (`alloc`, `alloc_zeroed`, `realloc`) the calling thread
/// made while `work` ran; what it returns is dropped after the count is
/// taken.
pub fn allocations_of<T>(work: impl FnOnce() -> T) -> u64 {
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    COUNTING.set(true);
    let result = work();
    COUNTING.set(false);
    let delta = ALLOCATIONS.load(Ordering::Relaxed) - before;
    drop(result);
    delta
}
