//! Output and encoding pinning for the columnar format.
//!
//! * One fixed input, `write_partition(generate_batch(rm1 × 200 rows, seed
//!   42))`, must preprocess under the RM1 plan to a pinned fingerprint: a
//!   change to the writer, the reader or any operator that moves one bit of
//!   the mini-batch fails here. A 64-row RM5 partition (504 dense
//!   columns, whole tiles of the dense fill and a partial one) is pinned
//!   the same way.
//! * The reader opens exactly what the writer writes: `PSTOCOL4` at both
//!   ends. The retired `PSTOCOL1` to `PSTOCOL3` containers and a mismatched
//!   trailing magic fail at open.
//! * Files written with each of [`Encoding::ALL`] forced must decode to the
//!   same arrays and preprocess to the same mini-batch as the default
//!   policy.
//! * The default writer emits a pinned census of `(encoding, chunk part)`
//!   pairs over every preset's partitions and one of short row groups.

use presto::columnar::column::{page_summaries, ChunkPart};
use presto::columnar::{
    ColumnarError, Encoding, FileReader, FileWriter, MemBlob, WritePolicy, MAGIC,
};
use presto::datagen::{generate_batch, write_partition, write_partition_grouped, RmConfig};
use presto::ops::{preprocess_partition, MiniBatch, PreprocessPlan};

/// What the pinned partition preprocesses to under [`fixture_config`]'s
/// plan. First recorded over a `PSTOCOL2` file of the same batch; was
/// `0x8c2b_dfa5_d504_2341` while LogNorm was libm's `ln_1p`.
const FIXTURE_FINGERPRINT: u64 = 0xe760_b0df_2cda_808a;

/// The pinned partition's generation parameters (fixed forever).
fn fixture_config() -> RmConfig {
    let mut config = RmConfig::rm1();
    config.batch_size = 200;
    config
}

/// FNV-1a over every field of a mini-batch: what [`FIXTURE_FINGERPRINT`]
/// pins.
fn fingerprint(mb: &MiniBatch) -> u64 {
    let mut acc: u64 = 0xcbf2_9ce4_8422_2325;
    let mut mix = |b: u64| {
        acc ^= b;
        acc = acc.wrapping_mul(0x100_0000_01b3);
    };
    for &l in mb.labels() {
        mix(l as u64);
    }
    for f in mb.sparse() {
        for &v in &f.values {
            mix(v as u64);
        }
        for &o in &f.offsets {
            mix(u64::from(o));
        }
    }
    for r in 0..mb.rows() {
        for &d in mb.dense().row(r) {
            mix(u64::from(d.to_bits()));
        }
    }
    acc
}

#[test]
fn rm1_partition_preprocesses_to_pinned_fingerprint() {
    // Decode + full preprocessing of what the writer produces. Re-pinned
    // once, when LogNorm stopped being libm's `ln_1p` (its own kernel, see
    // `presto_ops::lognorm`): nothing else may change a bit.
    let config = fixture_config();
    let batch = generate_batch(&config, 200, 42);
    let blob = write_partition(&batch).expect("writes");
    let bytes = blob.as_bytes();
    assert_eq!((&bytes[..8], &bytes[bytes.len() - 8..]), (&MAGIC[..], &MAGIC[..]));
    let reader = FileReader::open(blob.clone()).expect("opens");
    assert_eq!(reader.read_row_group(0).expect("decodes"), batch.columns());
    let plan = PreprocessPlan::from_config(&config, 1).expect("plan");
    let (mb, _) = preprocess_partition(&plan, blob).expect("preprocesses");
    assert_eq!(fingerprint(&mb), FIXTURE_FINGERPRINT);
}

/// What a 64-row RM5 partition (`generate_batch(rm5, 64, 42)`, seed-1
/// plan) preprocesses to. Recorded from the column-at-a-time scatter that
/// the tiled dense fill replaced: every serial reference in the suite now
/// shares the fill, so only this number checks it independently.
const RM5_FINGERPRINT: u64 = 0x326f_a260_f576_4118;

#[test]
fn rm5_partition_preprocesses_to_pinned_fingerprint() {
    let config = RmConfig::rm5();
    let blob = write_partition(&generate_batch(&config, 64, 42)).expect("writes");
    let plan = PreprocessPlan::from_config(&config, 1).expect("plan");
    let (mb, _) = preprocess_partition(&plan, blob).expect("preprocesses");
    assert_eq!((mb.rows(), mb.dense().cols()), (64, 504));
    assert_eq!(fingerprint(&mb), RM5_FINGERPRINT);
}

#[test]
fn mixed_magic_versions_are_rejected() {
    let batch = generate_batch(&fixture_config(), 16, 1);
    let file = write_partition(&batch).expect("writes").as_bytes().to_vec();
    let n = file.len();
    let open = |bytes: Vec<u8>| match FileReader::open(MemBlob::new(bytes)) {
        Err(ColumnarError::CorruptFile { detail }) => detail,
        other => panic!("opened: {:?}", other.map(|r| r.row_group_count())),
    };
    // The retired containers, at both ends: refused by their leading magic.
    for magic in [b"PSTOCOL1", b"PSTOCOL2", b"PSTOCOL3"] {
        let mut bytes = file.clone();
        bytes[..8].copy_from_slice(magic);
        bytes[n - 8..].copy_from_slice(magic);
        assert_eq!(open(bytes), "bad leading magic");
    }
    // A current head with a retired tail is corruption, not compatibility.
    let mut bytes = file;
    bytes[n - 8..].copy_from_slice(b"PSTOCOL3");
    assert_eq!(open(bytes), "bad trailing magic");
}

/// The default cost model, then every encoding forced.
fn matrix_policies() -> Vec<(String, WritePolicy)> {
    let base = WritePolicy::default();
    let mut policies = vec![("default".to_owned(), base)];
    policies.extend(Encoding::ALL.map(|e| (e.to_string(), base.with_forced_encoding(e))));
    policies
}

#[test]
fn every_forced_encoding_roundtrips_row_groups() {
    // The PSTOCOL4 random-access path under the encoding matrix: grouped
    // files written under every forced encoding must serve each row group
    // back bit-identically, including the short last group.
    let mut config = RmConfig::rm1();
    config.batch_size = 300;
    let batch = generate_batch(&config, 300, 7);
    for (name, policy) in matrix_policies() {
        let mut writer = FileWriter::with_page_rows(batch.schema().clone(), 64)
            .with_policy(policy)
            .with_group_rows(128);
        writer.write_batch(batch.columns()).expect("writes");
        let reader = FileReader::open(MemBlob::new(writer.finish())).expect("opens");
        assert_eq!(reader.row_group_count(), 3, "300 rows at 128/group under {name}");
        let mut per_column: Vec<Vec<presto::columnar::Array>> =
            (0..batch.columns().len()).map(|_| Vec::new()).collect();
        for rg in 0..reader.row_group_count() {
            for (col, array) in reader.read_row_group(rg).expect("decodes").into_iter().enumerate()
            {
                per_column[col].push(array);
            }
        }
        for (col, parts) in per_column.into_iter().enumerate() {
            let whole = presto::columnar::column::concat_arrays(&parts).expect("concat");
            assert_eq!(whole, batch.columns()[col], "column {col} differs under {name}");
        }
    }
}

#[test]
fn every_forced_encoding_preprocesses_bit_identically() {
    let mut config = RmConfig::rm1();
    config.batch_size = 300;
    let plan = PreprocessPlan::from_config(&config, 1).expect("plan");
    let batch = generate_batch(&config, 300, 7);
    let reference = {
        let blob = write_partition(&batch).expect("writes");
        preprocess_partition(&plan, blob).expect("preprocesses").0
    };
    for (name, policy) in matrix_policies() {
        // Small pages force multi-page chunks through the batched decoder.
        let mut writer = FileWriter::with_page_rows(batch.schema().clone(), 64).with_policy(policy);
        writer.write_row_group(batch.columns()).expect("writes");
        let blob = MemBlob::new(writer.finish());
        let decoded =
            FileReader::open(blob.clone()).expect("opens").read_row_group(0).expect("decodes");
        assert_eq!(decoded, batch.columns(), "decode differs under {name}");
        let (mb, _) = preprocess_partition(&plan, blob).expect("preprocesses");
        assert_eq!(mb, reference, "preprocessing differs under {name}");
    }
}

/// The writer census: every `(encoding, chunk part)` pair the default
/// writer emits over partitions of every preset, list-shaped RM1 and the
/// long-history shape, at three seeds, plus RM1 in 16-row groups. `Plain`
/// carries the dense columns, `DeltaBitpack` the id lists (as head and tail
/// pages where lists are long), `Dictionary` the two-valued label. `Delta`
/// appears only on short pages: some id-list pages of the 16-row groups,
/// and no page of 256 rows or more. 256 rows give the same census as 2,048
/// (at 64, the label is bit-packed). A new pair is a format change: the
/// commit that makes it updates this list and says why.
#[test]
fn the_writer_emits_the_pinned_encoding_census() {
    const CENSUS: [(Encoding, ChunkPart); 6] = [
        (Encoding::Plain, ChunkPart::Whole),
        (Encoding::Dictionary, ChunkPart::Whole),
        (Encoding::Delta, ChunkPart::Whole),
        (Encoding::DeltaBitpack, ChunkPart::Whole),
        (Encoding::DeltaBitpack, ChunkPart::Head),
        (Encoding::DeltaBitpack, ChunkPart::Tail),
    ];
    let mut configs = RmConfig::all();
    configs.extend([RmConfig::rm1_lists(), RmConfig::rm_longseq()]);
    let mut inputs: Vec<(String, u64, MemBlob)> = Vec::new();
    for config in &configs {
        for seed in [7, 11, 42] {
            let blob = write_partition(&generate_batch(config, 256, seed)).expect("writes");
            inputs.push((config.name.clone(), seed, blob));
        }
    }
    for seed in [7, 11, 42] {
        let batch = generate_batch(&RmConfig::rm1(), 256, seed);
        let blob = write_partition_grouped(&batch, 16).expect("writes");
        inputs.push(("rm1 in 16-row groups".to_string(), seed, blob));
    }
    let mut seen: Vec<(Encoding, ChunkPart)> = Vec::new();
    for (name, seed, blob) in &inputs {
        let bytes = blob.as_bytes();
        let reader = FileReader::open(blob.clone()).expect("opens");
        for chunk in reader.meta().row_groups.iter().flat_map(|g| &g.columns) {
            let start = usize::try_from(chunk.offset).expect("offset fits");
            let end = start + usize::try_from(chunk.byte_len).expect("length fits");
            for page in page_summaries(&bytes[start..end], chunk.offset).expect("pages") {
                let pair = (page.encoding, page.part);
                assert!(CENSUS.contains(&pair), "{name} seed {seed} wrote {pair:?}");
                if !seen.contains(&pair) {
                    seen.push(pair);
                }
            }
        }
    }
    assert_eq!(seen.len(), CENSUS.len(), "the writer no longer emits all of the census: {seen:?}");
}
