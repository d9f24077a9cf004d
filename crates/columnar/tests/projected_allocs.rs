//! Heap-allocation spot-check for the reads that bring their own scratch:
//! `read_row_group` and `read_projected` stage every chunk of the call in
//! **one** [`presto_columnar::ReadScratch`], so a blob that exposes reads and
//! not memory costs them one staging buffer per call — not one per column,
//! which is what building the scratch inside the per-column read used to
//! cost.
//!
//! One `#[test]` per file: see `common`.

mod common;

use common::allocations_of;
use presto_columnar::{
    Array, CountingBlob, DataType, Encoding, Field, FileReader, FileWriter, MemBlob, Schema,
    WritePolicy,
};

#[test]
fn a_call_that_brings_its_own_scratch_stages_in_one_buffer() {
    // One known allocation counts 1, so the counts below are what the
    // reads allocated, not an empty count.
    assert_eq!(allocations_of(|| std::hint::black_box(Box::new(7u64))), 1);

    // The widest column first, so the staging buffer its chunk sizes holds
    // every later one; pages of 64 rows, so no chunk is a view and the two
    // readers below differ in nothing but where the bytes come from.
    let rows = 1000usize;
    let mut fields = vec![Field::new("label", DataType::Int64)];
    let mut columns = vec![Array::Int64((0..rows as i64).map(|i| i * 7919 % 1009).collect())];
    for c in 0..9 {
        fields.push(Field::new(format!("dense_{c}"), DataType::Float32));
        columns.push(Array::Float32((0..rows).map(|i| (i * (c + 1)) as f32 * 0.5).collect()));
    }
    let policy = WritePolicy::default().with_forced_encoding(Encoding::Plain);
    let mut writer =
        FileWriter::with_page_rows(Schema::new(fields).expect("schema"), 64).with_policy(policy);
    writer.write_row_group(&columns).expect("writes");
    let bytes = writer.finish();
    let in_memory = FileReader::open(MemBlob::new(bytes.clone())).expect("opens");
    let staged = FileReader::open(CountingBlob::new(MemBlob::new(bytes))).expect("opens");
    assert_eq!(staged.read_row_group(0).expect("reads"), columns);

    let names: Vec<&str> = ["label", "dense_0", "dense_4", "dense_8"].into();
    for (what, from_memory, through_reads) in [
        (
            "read_row_group",
            allocations_of(|| in_memory.read_row_group(0).expect("reads")),
            allocations_of(|| staged.read_row_group(0).expect("reads")),
        ),
        (
            "read_projected",
            allocations_of(|| in_memory.read_projected(0, &names).expect("reads")),
            allocations_of(|| staged.read_projected(0, &names).expect("reads")),
        ),
    ] {
        assert_eq!(through_reads, from_memory + 1, "{what}: one staging buffer per call");
    }
}
