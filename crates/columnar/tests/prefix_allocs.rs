//! Heap-allocation spot-check for the prefix-pushdown read: once a
//! [`ReadScratch`] is warm, `read_column_limit_with(.., Some(x))` allocates
//! its two output buffers (offsets and values, plus the shared handle each
//! is wrapped in) and nothing else — under every integer encoding, the
//! dictionary one included, whose ranged decode used to stage a full decode
//! in a fresh `Vec` per page.
//!
//! The counting allocator is process-global, so this file contains exactly
//! one `#[test]`: nothing else runs concurrently in this binary to perturb
//! the counters.

use presto_columnar::{
    Array, CountingBlob, DataType, Encoding, Field, FileReader, FileWriter, MemBlob, ReadScratch,
    Schema, WritePolicy,
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

/// Two output buffers, each a `Vec` moved behind a shared handle.
const ALLOCATIONS_PER_READ: u64 = 4;

#[test]
fn warm_prefix_reads_allocate_only_their_output() {
    let schema = Schema::new(vec![
        Field::new("history", DataType::ListInt64),
        Field::new("recent", DataType::ListInt64),
    ])
    .expect("schema");
    // `history` is long enough to be stored head/tail; `recent` is not.
    let history: Vec<Vec<i64>> =
        (0..300usize).map(|r| (0..(r % 7) * 90).map(|j| ((r + j) % 50) as i64).collect()).collect();
    let recent: Vec<Vec<i64>> =
        (0..300usize).map(|r| (0..r % 12).map(|j| ((r * j) % 9) as i64).collect()).collect();
    let columns =
        [Array::from_lists(history).expect("lists"), Array::from_lists(recent).expect("lists")];

    for encoding in [Encoding::Plain, Encoding::Delta, Encoding::DeltaBitpack, Encoding::Dictionary]
    {
        let policy = WritePolicy::default().with_forced_encoding(encoding);
        let mut writer = FileWriter::with_page_rows(schema.clone(), 64).with_policy(policy);
        writer.write_row_group(&columns).expect("writes");
        let bytes = writer.finish();
        let in_memory = FileReader::open(MemBlob::new(bytes.clone())).expect("opens");
        assert!(in_memory.meta().row_groups[0].columns[0].stats.head.is_some());
        assert!(in_memory.meta().row_groups[0].columns[1].stats.head.is_none());
        let staged = FileReader::open(CountingBlob::new(MemBlob::new(bytes))).expect("opens");

        let mut scratch = ReadScratch::new();
        let mut reads = |count: usize| {
            for _ in 0..count {
                for column in 0..2 {
                    let a = in_memory.read_column_limit_with(0, column, Some(8), &mut scratch);
                    let b = staged.read_column_limit_with(0, column, Some(8), &mut scratch);
                    assert_eq!(a.expect("reads"), b.expect("reads"));
                }
            }
        };
        reads(2); // warm-up: sizes every recycled buffer
        let before = ALLOCATIONS.load(Ordering::Relaxed);
        reads(8);
        let delta = ALLOCATIONS.load(Ordering::Relaxed) - before;
        assert_eq!(delta, 8 * 4 * ALLOCATIONS_PER_READ, "{encoding}: {delta} allocations");
    }
}
