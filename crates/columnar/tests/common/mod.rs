//! The counting global allocator of the allocation spot-checks. It is
//! process-global, so each test file that installs it (by declaring this
//! module) contains exactly one `#[test]`: nothing else runs concurrently in
//! that binary to perturb the count.

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

/// Allocation calls (`alloc`, `alloc_zeroed`, `realloc`) made while `work`
/// ran; what it returns is dropped after the count is taken.
pub fn allocations_of<T>(work: impl FnOnce() -> T) -> u64 {
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let result = work();
    let delta = ALLOCATIONS.load(Ordering::Relaxed) - before;
    drop(result);
    delta
}
