//! Heap-allocation spot-check for the chunk read: once a [`ReadScratch`] is
//! warm, `read_column_limit_with` allocates its two output buffers (offsets
//! and values, plus the shared handle each is wrapped in) and nothing else —
//! under a limit and in full, from memory and through positioned reads,
//! under every integer encoding, the dictionary one included, which used to
//! stage its dictionary and indices in fresh `Vec`s per page.
//!
//! One `#[test]` per file: see `common`.

mod common;

use common::allocations_of;
use presto_columnar::{
    Array, CountingBlob, DataType, Encoding, Field, FileReader, FileWriter, MemBlob, ReadScratch,
    Schema, WritePolicy,
};

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

    for encoding in Encoding::ALL {
        let policy = WritePolicy::default().with_forced_encoding(encoding);
        let mut writer = FileWriter::with_page_rows(schema.clone(), 64).with_policy(policy);
        writer.write_row_group(&columns).expect("writes");
        let bytes = writer.finish();
        let in_memory = FileReader::open(MemBlob::new(bytes.clone())).expect("opens");
        assert!(in_memory.meta().row_groups[0].columns[0].stats.head.is_some());
        assert!(in_memory.meta().row_groups[0].columns[1].stats.head.is_none());
        let staged = FileReader::open(CountingBlob::new(MemBlob::new(bytes))).expect("opens");

        // A prefix read, then a full one: the multi-page chunks here never
        // become views, so both routes append into fresh outputs.
        for limit in [Some(8), None] {
            let mut scratch = ReadScratch::new();
            let mut reads = |count: usize| {
                for _ in 0..count {
                    for column in 0..2 {
                        let a = in_memory.read_column_limit_with(0, column, limit, &mut scratch);
                        let b = staged.read_column_limit_with(0, column, limit, &mut scratch);
                        assert_eq!(a.expect("reads"), b.expect("reads"));
                    }
                }
            };
            reads(2); // warm-up: sizes every recycled buffer
            let delta = allocations_of(|| reads(8));
            assert_eq!(
                delta,
                8 * 4 * ALLOCATIONS_PER_READ,
                "{encoding} {limit:?}: {delta} allocations"
            );
        }
    }
}
