//! Property-based tests of the columnar format: arbitrary data always
//! roundtrips (under every encoding the writer can be forced into), and
//! arbitrary corruption always errors (never panics, never returns wrong
//! data silently, never over-allocates from attacker-controlled counts).

use presto::columnar::checksum::{crc32, Crc32};
use presto::columnar::{
    encoding, Array, Compression, DataType, Encoding, Field, FileReader, FileWriter, MemBlob,
    Schema, WritePolicy,
};
use proptest::collection::vec;
use proptest::prelude::*;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// Forwards to the system allocator, remembering per thread the largest
/// single request — what a read driven by damaged counts must keep bounded.
/// (Per thread, because the tests of this binary run side by side.)
struct LargestRequest;

thread_local! {
    static LARGEST: Cell<usize> = const { Cell::new(0) };
}

fn note_request(size: usize) {
    let _ = LARGEST.try_with(|largest| largest.set(largest.get().max(size)));
}

unsafe impl GlobalAlloc for LargestRequest {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note_request(layout.size());
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note_request(layout.size());
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note_request(new_size);
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: LargestRequest = LargestRequest;

/// A run of bytes that no page checksum covers.
#[derive(Clone, Copy, PartialEq)]
enum Unchecksummed {
    /// A page count, or the `0x00` that opens a head/tail chunk.
    Count,
    /// The header of a page whose payload names the value encoding too (a
    /// list page, ordinary or head), or does not depend on one (floats).
    Header,
    /// The header of a page whose encoding tag is the only copy: an integer
    /// page, or a tail page.
    HeaderWithTheOnlyTag,
}

/// The bytes of a chunk that no page checksum covers, as file offsets: its
/// page counts, then every page header whole. Parsed here from the format's
/// description, not by the reader: a header is two tag bytes (encoding,
/// compression), three varints (rows, elements, stored payload length) and a
/// 4-byte CRC, and its payload starts at the next 8-byte file offset.
fn unchecksummed_spans(
    bytes: &[u8],
    offset: usize,
    byte_len: usize,
    data_type: DataType,
) -> Vec<(std::ops::Range<usize>, Unchecksummed)> {
    let varint = |pos: &mut usize| {
        let (mut value, mut shift) = (0u64, 0);
        loop {
            let byte = bytes[*pos];
            *pos += 1;
            value |= u64::from(byte & 0x7f) << shift;
            shift += 7;
            if byte & 0x80 == 0 {
                return value;
            }
        }
    };
    let mut spans = Vec::new();
    let mut pos = offset;
    let count = |pos: &mut usize, spans: &mut Vec<_>| {
        let start = *pos;
        let value = varint(pos);
        spans.push((start..*pos, Unchecksummed::Count));
        value
    };
    let marker = count(&mut pos, &mut spans);
    let parts = if marker == 0 { 2 } else { 1 };
    for part in 0..parts {
        let pages = if marker == 0 { count(&mut pos, &mut spans) } else { marker };
        for _ in 0..pages {
            let start = pos;
            pos += 2;
            let (_rows, _elements, payload_len) =
                (varint(&mut pos), varint(&mut pos), varint(&mut pos));
            pos += 4;
            let only_tag = data_type == DataType::Int64 || part == 1;
            let kind =
                if only_tag { Unchecksummed::HeaderWithTheOnlyTag } else { Unchecksummed::Header };
            spans.push((start..pos, kind));
            pos = pos.next_multiple_of(8) + payload_len as usize;
        }
        assert!(part + 1 < parts || pos == offset + byte_len, "the chunk's pages fill it");
    }
    spans
}

fn arb_array(rows: usize) -> impl Strategy<Value = Array> {
    prop_oneof![
        vec(any::<i64>(), rows..=rows).prop_map(|v| Array::Int64(v.into())),
        vec(any::<f32>().prop_filter("finite", |f| f.is_finite()), rows..=rows)
            .prop_map(|v| Array::Float32(v.into())),
        vec(any::<f64>().prop_filter("finite", |f| f.is_finite()), rows..=rows)
            .prop_map(|v| Array::Float64(v.into())),
        vec(vec(any::<i64>(), 0..8), rows..=rows)
            .prop_map(|lists| Array::from_lists(lists).expect("fits u32")),
    ]
}

/// One to two dozen lists of every shape the head/tail layout tells apart:
/// empty, shorter than K = 32, exactly K, just past it, and far longer —
/// weighted so that most draws reach the mean length of 128 that splits a
/// chunk and some do not.
fn arb_long_lists() -> impl Strategy<Value = Vec<Vec<i64>>> {
    let len = (0usize..8, 0usize..600).prop_map(|(shape, n)| match shape {
        0 => 0,
        1 => n % 32,
        2 => 32,
        3 => 33 + n % 8,
        _ => 128 + n,
    });
    vec(len.prop_flat_map(|len| vec(any::<i64>(), len..=len)), 1..24)
}

fn arb_table() -> impl Strategy<Value = (Schema, Vec<Array>)> {
    (1usize..5, 0usize..64).prop_flat_map(|(cols, rows)| {
        vec(arb_array(rows), cols..=cols).prop_map(move |arrays| {
            let fields: Vec<Field> = arrays
                .iter()
                .enumerate()
                .map(|(i, a)| Field::new(format!("col_{i}"), a.data_type()))
                .collect();
            (Schema::new(fields).expect("unique names"), arrays)
        })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn any_table_roundtrips((schema, arrays) in arb_table(), compressed in any::<bool>()) {
        let compression = if compressed { Compression::Lz } else { Compression::None };
        let mut writer =
            FileWriter::with_page_rows(schema.clone(), 16).with_compression(compression);
        writer.write_row_group(&arrays).expect("writes");
        let bytes = writer.finish();
        let reader = FileReader::open(MemBlob::new(bytes)).expect("opens");
        prop_assert_eq!(reader.schema(), &schema);
        let back = reader.read_row_group(0).expect("reads");
        prop_assert_eq!(back, arrays);
    }

    #[test]
    fn lz_codec_roundtrips_any_bytes(data in vec(any::<u8>(), 0..4096)) {
        let packed = presto::columnar::compress::compress(&data);
        prop_assert_eq!(presto::columnar::compress::decompress(&packed).expect("decodes"), data);
    }

    #[test]
    fn crc_is_incremental_across_any_split(pieces in vec(vec(any::<u8>(), 0..160), 2..=3)) {
        // Piece lengths fall on both sides of the checksum's 16-byte lane
        // and 64-byte folding thresholds, so a split feeds one route's state
        // into the other's; the bit-at-a-time loop is the reference.
        let whole = pieces.concat();
        let mut reference = !0u32;
        for &byte in &whole {
            reference ^= u32::from(byte);
            for _ in 0..8 {
                reference = if reference & 1 != 0 { (reference >> 1) ^ 0xedb8_8320 } else { reference >> 1 };
            }
        }
        let mut hasher = Crc32::new();
        for piece in &pieces {
            hasher.update(piece);
        }
        prop_assert_eq!(hasher.finalize(), !reference);
        prop_assert_eq!(crc32(&whole), !reference);
    }

    #[test]
    fn truncation_errors_cleanly((schema, arrays) in arb_table(), cut_frac in 0.0f64..1.0) {
        for forced in [None].into_iter().chain(Encoding::ALL.map(Some)) {
            let policy = WritePolicy { forced_encoding: forced, ..WritePolicy::default() };
            let mut writer = FileWriter::new(schema.clone()).with_policy(policy);
            writer.write_row_group(&arrays).expect("writes");
            let bytes = writer.finish();
            let cut = ((bytes.len() as f64) * cut_frac) as usize;
            if cut < bytes.len() {
                // Opening or reading a truncated file must error, never panic.
                if let Ok(reader) = FileReader::open(MemBlob::new(bytes[..cut].to_vec())) {
                    let _ = reader.read_row_group(0);
                }
            }
        }
    }

    #[test]
    fn single_byte_corruption_never_panics(
        (schema, arrays) in arb_table(),
        pos_frac in 0.0f64..1.0,
        flip in 1u8..=255,
    ) {
        for forced in [None].into_iter().chain(Encoding::ALL.map(Some)) {
            let policy = WritePolicy { forced_encoding: forced, ..WritePolicy::default() };
            let mut writer = FileWriter::new(schema.clone()).with_policy(policy);
            writer.write_row_group(&arrays).expect("writes");
            let mut bytes = writer.finish();
            let pos = ((bytes.len() - 1) as f64 * pos_frac) as usize;
            bytes[pos] ^= flip;
            // Any result is acceptable except a panic; checksums catch payload
            // damage, structural validation catches the rest.
            if let Ok(reader) = FileReader::open(MemBlob::new(bytes)) {
                let _ = reader.read_row_group(0);
            }
        }
    }

    #[test]
    fn projection_matches_full_read(
        (schema, arrays) in arb_table(),
        pick in any::<proptest::sample::Index>(),
    ) {
        let mut writer = FileWriter::new(schema.clone());
        writer.write_row_group(&arrays).expect("writes");
        let reader = FileReader::open(MemBlob::new(writer.finish())).expect("opens");
        let idx = pick.index(schema.len());
        let name = schema.field(idx).expect("in range").name().to_owned();
        let projected = reader.read_projected(0, &[&name]).expect("projects");
        prop_assert_eq!(&projected[0], &arrays[idx]);
    }

    #[test]
    fn any_table_roundtrips_under_every_forced_encoding(
        (schema, arrays) in arb_table(),
        page_rows in 1usize..64,
    ) {
        // Every codec must roundtrip arbitrary integer data, not just the
        // data the cost model would route to it.
        for enc in Encoding::ALL {
            let policy = WritePolicy::default().with_forced_encoding(enc);
            let mut writer = FileWriter::with_page_rows(schema.clone(), page_rows)
                .with_policy(policy);
            writer.write_row_group(&arrays).expect("writes");
            let reader = FileReader::open(MemBlob::new(writer.finish())).expect("opens");
            let back = reader.read_row_group(0).expect("reads");
            prop_assert!(back == arrays, "roundtrip differs under {enc}");
        }
    }

    #[test]
    fn block_codec_roundtrips_arbitrary_values(values in vec(any::<i64>(), 0..600)) {
        let mut buf = Vec::new();
        encoding::block::encode_i64(&values, &mut buf);
        prop_assert_eq!(buf.len(), encoding::block::encoded_len(&values));
        let mut out = Vec::new();
        let mut pos = 0;
        encoding::block::decode_i64_into(&buf, &mut pos, values.len(), &mut out)
            .expect("decodes");
        prop_assert_eq!(out, values);
        prop_assert_eq!(pos, buf.len());
    }

    #[test]
    fn corrupt_block_streams_error_cleanly(
        values in vec(any::<i64>(), 1..400),
        pos_frac in 0.0f64..1.0,
        flip in 1u8..=255,
        cut_frac in 0.0f64..1.0,
    ) {
        // Bit-flipped miniblock headers / widths and truncated last blocks
        // must surface ColumnarError — no panic, no runaway allocation.
        let mut buf = Vec::new();
        encoding::block::encode_i64(&values, &mut buf);
        let mut flipped = buf.clone();
        let idx = ((flipped.len() - 1) as f64 * pos_frac) as usize;
        flipped[idx] ^= flip;
        let mut out = Vec::new();
        let mut pos = 0;
        if encoding::block::decode_i64_into(&flipped, &mut pos, values.len(), &mut out).is_ok() {
            // A flip that survives decode must still produce exactly the
            // declared number of values (bits inside packed payloads can
            // change values without changing structure).
            prop_assert_eq!(out.len(), values.len());
        }
        prop_assert!(out.capacity() <= values.len().max(64) * 2, "over-allocated on corrupt data");
        let cut = ((buf.len() as f64) * cut_frac) as usize;
        if cut < buf.len() {
            let mut out = Vec::new();
            let mut pos = 0;
            prop_assert!(
                encoding::block::decode_i64_into(&buf[..cut], &mut pos, values.len(), &mut out)
                    .is_err(),
                "truncated stream decoded"
            );
        }
    }

    #[test]
    fn prefix_limited_reads_match_truncated_full_reads_under_every_encoding(
        groups in vec(vec(vec(any::<i64>(), 0..8), 1..24), 1..3),
        x in 1usize..6,
        page_rows in 1usize..16,
    ) {
        // The prefix-pushdown read contract: `Some(x)` on a list column is
        // bit-identical to a full decode followed by per-list truncation —
        // for every forced encoding, lists shorter than (and longer than)
        // `x`, empty lists, and row groups as small as one row.
        use presto::columnar::ReadScratch;
        let schema = Schema::new(vec![Field::new("lists", DataType::ListInt64)]).expect("schema");
        for enc in Encoding::ALL {
            let policy = WritePolicy::default().with_forced_encoding(enc);
            let mut writer =
                FileWriter::with_page_rows(schema.clone(), page_rows).with_policy(policy);
            for lists in &groups {
                let array = Array::from_lists(lists.clone()).expect("fits u32");
                writer.write_row_group(std::slice::from_ref(&array)).expect("writes");
            }
            let reader = FileReader::open(MemBlob::new(writer.finish())).expect("opens");
            let mut scratch = ReadScratch::new();
            for (g, lists) in groups.iter().enumerate() {
                let limited = reader
                    .read_projected_limits_with(g, &["lists"], &[Some(x)], &mut scratch)
                    .expect("prefix read");
                let truncated: Vec<Vec<i64>> = lists
                    .iter()
                    .map(|l| l[..l.len().min(x)].to_vec())
                    .collect();
                let expect = Array::from_lists(truncated).expect("fits u32");
                prop_assert!(limited[0] == expect, "{enc} g={g} x={x} diverged");
            }
        }
    }

    #[test]
    fn corrupt_streams_never_over_allocate_on_the_ranged_path(
        values in vec(any::<i64>(), 1..400),
        x in 1usize..9,
        pos_frac in 0.0f64..1.0,
        flip in 1u8..=255,
        cut_frac in 0.0f64..1.0,
    ) {
        // Satellite of the PR-4 hardening: the partial-block (prefix) decode
        // obeys the same budget discipline as the full decode — bit-flipped
        // headers and truncated streams error or produce exactly the
        // requested elements, and never drive an oversized reservation.
        let take = values.len().min(x);
        let ranges = [(0usize, take)];
        let mut buf = Vec::new();
        encoding::block::encode_i64(&values, &mut buf);
        let mut flipped = buf.clone();
        let idx = ((flipped.len() - 1) as f64 * pos_frac) as usize;
        flipped[idx] ^= flip;
        let mut out = Vec::new();
        let mut pos = 0;
        if encoding::block::decode_i64_ranges(&flipped, &mut pos, values.len(), &ranges, &mut out)
            .is_ok()
        {
            prop_assert_eq!(out.len(), take);
        }
        prop_assert!(out.capacity() <= take.max(64) * 2, "over-allocated on corrupt data");
        let cut = ((buf.len() as f64) * cut_frac) as usize;
        if cut < buf.len() {
            let mut out = Vec::new();
            let mut pos = 0;
            // A cut can land past the last needed element, where the prefix
            // decode legitimately stops early — success must then still
            // deliver exactly the requested prefix.
            if encoding::block::decode_i64_ranges(
                &buf[..cut], &mut pos, values.len(), &ranges, &mut out,
            )
            .is_ok()
            {
                prop_assert_eq!(&out[..], &values[..take]);
            }
        }
    }

    #[test]
    fn long_lists_read_back_whole_and_by_prefix_on_every_route(
        lists in arb_long_lists(),
        page_rows in 0usize..3,
        group_rows in 0usize..3,
        lz in any::<bool>(),
    ) {
        // Lists long enough to be stored as head + tail pages (and, when the
        // draw comes out short, lists that are not): a full read is the
        // input, a limited read is the input truncated — for every forced
        // codec and the cost model, every page and group size, LZ on and
        // off, from shared memory and through positioned reads.
        use presto::columnar::{CountingBlob, ReadScratch};
        let page_rows = [1usize, 7, 4096][page_rows];
        let group_rows = [None, Some(5usize), Some(1000)][group_rows];
        let schema = Schema::new(vec![Field::new("lists", DataType::ListInt64)]).expect("schema");
        let whole = Array::from_lists(lists.clone()).expect("fits u32");
        let mut scratch = ReadScratch::new();
        for forced in [None].into_iter().chain(Encoding::ALL.map(Some)) {
            let mut policy = WritePolicy { forced_encoding: forced, ..WritePolicy::default() };
            if lz {
                policy = policy.with_compression(Compression::Lz).compressing_hot_columns();
            }
            let mut writer =
                FileWriter::with_page_rows(schema.clone(), page_rows).with_policy(policy);
            if let Some(group_rows) = group_rows {
                writer = writer.with_group_rows(group_rows);
            }
            writer.write_batch(std::slice::from_ref(&whole)).expect("writes");
            let bytes = writer.finish();
            let shared = FileReader::open(MemBlob::new(bytes.clone())).expect("opens");
            let staged = FileReader::open(CountingBlob::new(MemBlob::new(bytes))).expect("opens");
            let mut start = 0usize;
            for (g, group) in shared.meta().row_groups.iter().enumerate() {
                let rows = group.rows as usize;
                let window = &lists[start..start + rows];
                let chunk = &group.columns[0];
                let elements: usize = window.iter().map(Vec::len).sum();
                prop_assert_eq!(chunk.stats.head.is_some(), rows > 0 && elements >= 128 * rows);
                let k = chunk.stats.head.map_or(32, |head| head.k as usize);
                let expect = Array::from_lists(window.to_vec()).expect("fits u32");
                prop_assert!(shared.read_column(g, 0).expect("reads") == expect, "{forced:?} g={g}");
                prop_assert!(staged.read_column(g, 0).expect("reads") == expect, "{forced:?} g={g}");
                for x in [0, 1, k - 1, k, k + 1, usize::MAX] {
                    let cut: Vec<Vec<i64>> =
                        window.iter().map(|l| l[..l.len().min(x)].to_vec()).collect();
                    let cut = Array::from_lists(cut).expect("fits u32");
                    let a = shared.read_column_limit_with(g, 0, Some(x), &mut scratch);
                    let b = staged.read_column_limit_with(g, 0, Some(x), &mut scratch);
                    prop_assert!(a.expect("reads") == cut, "{forced:?} g={g} x={x} (shared)");
                    prop_assert!(b.expect("reads") == cut, "{forced:?} g={g} x={x} (staged)");
                }
                start += rows;
            }
            prop_assert_eq!(start, lists.len());
        }
    }

    #[test]
    fn damage_to_a_head_tail_file_is_an_error_or_the_exact_answer(
        lists in arb_long_lists(),
        page_rows in 0usize..3,
        pos_frac in 0.0f64..1.0,
        flip in 1u8..=255,
    ) {
        use presto::columnar::ReadScratch;
        let schema = Schema::new(vec![Field::new("lists", DataType::ListInt64)]).expect("schema");
        let whole = Array::from_lists(lists.clone()).expect("fits u32");
        let mut writer = FileWriter::with_page_rows(schema, [1usize, 7, 4096][page_rows]);
        writer.write_row_group(std::slice::from_ref(&whole)).expect("writes");
        let mut bytes = writer.finish();
        // Anywhere but the footer and the tail (their CRC refuses at open):
        // page payloads are checksummed, but page headers, page counts and
        // the split marker are not, and a flip in the padding is harmless.
        let body = FileReader::open(MemBlob::new(bytes.clone())).expect("opens").meta()
            .row_groups[0].columns[0].byte_len as usize;
        let at = 8 + ((body - 1) as f64 * pos_frac) as usize;
        bytes[at] ^= flip;
        let reader = FileReader::open(MemBlob::new(bytes)).expect("the footer is intact");
        let mut scratch = ReadScratch::new();
        if let Ok(full) = reader.read_column(0, 0) {
            prop_assert!(full == whole, "a flip at {at} changed a full read silently");
        }
        for x in [1usize, 32, 33] {
            if let Ok(got) = reader.read_column_limit_with(0, 0, Some(x), &mut scratch) {
                let cut: Vec<Vec<i64>> =
                    lists.iter().map(|l| l[..l.len().min(x)].to_vec()).collect();
                prop_assert!(
                    got == Array::from_lists(cut).expect("fits u32"),
                    "a flip at {at} changed a prefix-{x} read silently"
                );
            }
        }
    }

    #[test]
    fn damage_to_any_page_header_byte_is_an_error_or_the_exact_answer(
        lists in arb_long_lists(),
        page_rows in 0usize..3,
        flip in 1u8..=255,
    ) {
        // Page payloads are checksummed; page headers, page counts and the
        // split marker are not. What stands behind them is the footer: every
        // page's counts are held to the chunk's declared rows and elements
        // before its payload is decoded, on every route. So for *each* such
        // byte — of a long-list chunk (head/tail when the draw is long
        // enough), an integer chunk and a float chunk — a flip is an error
        // or changes nothing, never a panic and never a reservation sized by
        // the damage.
        use presto::columnar::{CountingBlob, FaultPlan, FaultyBlob, ReadScratch};
        let schema = Schema::new(vec![
            Field::new("lists", DataType::ListInt64),
            Field::new("lengths", DataType::Int64),
            Field::new("halves", DataType::Float32),
        ])
        .expect("schema");
        let columns = [
            Array::from_lists(lists.clone()).expect("fits u32"),
            Array::Int64(lists.iter().map(|l| l.len() as i64).collect()),
            Array::Float32(lists.iter().map(|l| l.len() as f32 * 0.5).collect()),
        ];
        let mut writer = FileWriter::with_page_rows(schema, [1usize, 7, 4096][page_rows]);
        writer.write_row_group(&columns).expect("writes");
        let bytes = writer.finish();
        let meta = FileReader::open(MemBlob::new(bytes.clone())).expect("opens").meta().clone();
        let values: usize = lists.iter().map(Vec::len).sum();
        // Outputs, recycled lengths and the staged chunk are each within the
        // declared totals; growth doubles at worst.
        let declared = 4 * (8 * values + 16 * lists.len() + bytes.len()) + 4096;
        let mut scratch = ReadScratch::new();
        for (column, chunk) in meta.row_groups[0].columns.iter().enumerate() {
            let expect = |x: Option<usize>| match (&columns[column], x) {
                (Array::ListInt64 { .. }, Some(x)) => {
                    let cut: Vec<Vec<i64>> =
                        lists.iter().map(|l| l[..l.len().min(x)].to_vec()).collect();
                    Array::from_lists(cut).expect("fits u32")
                }
                (whole, _) => whole.clone(),
            };
            let (offset, byte_len) = (chunk.offset as usize, chunk.byte_len as usize);
            let spans = unchecksummed_spans(&bytes, offset, byte_len, columns[column].data_type());
            prop_assert!(spans.len() as u64 > chunk.stats.pages);
            for (span, kind) in spans {
                for at in span.clone() {
                    let mut damaged = bytes.clone();
                    damaged[at] ^= flip;
                    let blob = MemBlob::new(damaged);
                    let quiet = FaultPlan::new(1).arm();
                    let shared = FileReader::open(blob.clone()).expect("the footer is intact");
                    let staged = FileReader::open(CountingBlob::new(blob.clone())).expect("opens");
                    let faulty = FileReader::open(FaultyBlob::new(blob, quiet, 0, 0)).expect("opens");
                    // The compression tag is the one header byte whose damage
                    // sizes a reservation the footer does not bound: the LZ
                    // staging, clamped by the codec to 256× the stored payload.
                    let lz_tag = kind != Unchecksummed::Count && at == span.start + 1;
                    let bound = if lz_tag { 256 * bytes.len() } else { declared };
                    // And the encoding tag, where it is the only copy, is the
                    // one byte whose damage can still change an answer: a few
                    // values bit-packed and the same values as varints can be
                    // streams of one length, and then nothing tells the codecs
                    // apart (ROADMAP 2(a): the header joins the checksum).
                    let exact = !(kind == Unchecksummed::HeaderWithTheOnlyTag && at == span.start);
                    LARGEST.with(|largest| largest.set(0));
                    for limit in [None, Some(1), Some(32), Some(33)] {
                        for (route, got) in [
                            ("shared", shared.read_column_limit_with(0, column, limit, &mut scratch)),
                            ("staged", staged.read_column_limit_with(0, column, limit, &mut scratch)),
                            ("faulty", faulty.read_column_limit_with(0, column, limit, &mut scratch)),
                        ] {
                            if let Ok(got) = got {
                                prop_assert!(
                                    !exact || got == expect(limit),
                                    "a flip at {at} (column {column}) changed a {limit:?} read \
                                     silently on the {route} route"
                                );
                            }
                        }
                    }
                    let largest = LARGEST.with(Cell::get);
                    prop_assert!(
                        largest <= bound,
                        "a flip at {at} (column {column}) drove a {largest}-byte reservation, \
                         past {bound}"
                    );
                }
            }
        }
    }

    #[test]
    fn stats_match_data((schema, arrays) in arb_table()) {
        let mut writer = FileWriter::new(schema);
        writer.write_row_group(&arrays).expect("writes");
        let reader = FileReader::open(MemBlob::new(writer.finish())).expect("opens");
        let meta = reader.meta();
        for (chunk, array) in meta.row_groups[0].columns.iter().zip(&arrays) {
            prop_assert_eq!(chunk.stats.rows, array.len() as u64);
            prop_assert_eq!(chunk.stats.elements, array.element_count() as u64);
            if let Some(values) = array.as_int64() {
                prop_assert_eq!(chunk.stats.min_i64, values.iter().min().copied());
                prop_assert_eq!(chunk.stats.max_i64, values.iter().max().copied());
            }
        }
    }
}

#[test]
fn multi_row_group_files_roundtrip() {
    let schema =
        Schema::new(vec![Field::new("a", DataType::Int64), Field::new("b", DataType::ListInt64)])
            .expect("schema");
    let mut writer = FileWriter::with_page_rows(schema, 8);
    for g in 0..5i64 {
        writer
            .write_row_group(&[
                Array::Int64((0..20).map(|i| i * g).collect()),
                Array::from_lists((0..20).map(|i| vec![g; (i % 3) as usize]).collect::<Vec<_>>())
                    .expect("lists"),
            ])
            .expect("writes");
    }
    let reader = FileReader::open(MemBlob::new(writer.finish())).expect("opens");
    assert_eq!(reader.row_group_count(), 5);
    assert_eq!(reader.meta().total_rows(), 100);
    for g in 0..5 {
        let cols = reader.read_row_group(g).expect("reads");
        assert_eq!(cols[0].len(), 20);
    }
}

/// The head/tail layout is for long lists only. Files of the RM1 and RM5
/// shapes — mean list lengths 1 and 20 — must stay byte for byte what the
/// commit before it wrote: `(length, CRC-32)` below were captured there, from
/// this exact generator call, under the cost-model policy.
#[test]
fn files_without_long_lists_are_byte_identical_to_the_previous_layout() {
    use presto::datagen::{generate_batch, RmConfig};
    for (name, config, rows, group_rows, len, crc) in [
        ("rm1", RmConfig::rm1(), 512usize, None, 62_370usize, 0x87bf_c2d2u32),
        ("rm1 grouped", RmConfig::rm1(), 512, Some(100usize), 69_327, 0x5be9_f893),
        ("rm5", RmConfig::rm5(), 256, None, 1_079_550, 0x982e_43c9),
    ] {
        let batch = generate_batch(&config, rows, 9);
        let mut writer = FileWriter::new(batch.schema().clone());
        if let Some(group_rows) = group_rows {
            writer = writer.with_group_rows(group_rows);
        }
        writer.write_batch(batch.columns()).expect("writes");
        let bytes = writer.finish();
        assert_eq!((bytes.len(), crc32(&bytes)), (len, crc), "{name}");
        let reader = FileReader::open(MemBlob::new(bytes)).expect("opens");
        let chunks = reader.meta().row_groups.iter().flat_map(|rg| &rg.columns);
        assert!(chunks.into_iter().all(|chunk| chunk.stats.head.is_none()), "{name}");
    }
}
