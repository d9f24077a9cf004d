//! Format-version compatibility and encoding-matrix pinning.
//!
//! * Two checked-in fixtures — `PSTOCOL2`, written by the PR 3 code base,
//!   and `PSTOCOL3`, written by the last code base that could write one
//!   (PR 20's `FileWriter::with_format_version`, cost-model policy), both
//!   from `generate_batch(rm1 × 200 rows, seed 42)` — must keep decoding
//!   bit-identically under the current reader, all the way through
//!   preprocessing, to the fingerprint pinned when the first was made — the
//!   cross-version leg of CI's `shuffle-determinism` job. Nothing writes
//!   either container any more; they are read, and only read.
//! * Files written with every forced encoding must decode to the same
//!   arrays and preprocess to the same mini-batch as the default policy —
//!   the in-process counterpart of CI's `PRESTO_FORCE_ENCODING` matrix.

use presto::columnar::{
    Compression, Encoding, FileReader, FileWriter, FormatVersion, MemBlob, WritePolicy, MAGIC,
    MAGIC_V2, MAGIC_V3,
};
use presto::datagen::{generate_batch, write_partition, RmConfig};
use presto::ops::{preprocess_partition, MiniBatch, PreprocessPlan};

const V2_FIXTURE: &[u8] = include_bytes!("data/v2_rm1_200rows_seed42.pstocol");
const V3_FIXTURE: &[u8] = include_bytes!("data/v3_rm1_200rows_seed42.pstocol");

/// What both fixtures preprocess to under [`fixture_config`]'s plan. Was
/// `0x8c2b_dfa5_d504_2341` while LogNorm was libm's `ln_1p` (PRs 3–21).
const FIXTURE_FINGERPRINT: u64 = 0xe760_b0df_2cda_808a;

/// The fixture's generation parameters (fixed forever).
fn fixture_config() -> RmConfig {
    let mut config = RmConfig::rm1();
    config.batch_size = 200;
    config
}

/// FNV-1a over every field of a mini-batch, the fingerprint recorded when
/// the v2 fixture was generated.
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
fn v2_fixture_still_opens_and_decodes() {
    assert_eq!(&V2_FIXTURE[..8], MAGIC_V2, "fixture must really be a v2 file");
    let reader = FileReader::open(MemBlob::new(V2_FIXTURE.to_vec())).expect("v2 file opens");
    let config = fixture_config();
    let expected = generate_batch(&config, 200, 42);
    assert_eq!(reader.read_row_group(0).expect("decodes"), expected.columns());
}

#[test]
fn v2_fixture_preprocesses_bit_identically() {
    // Fingerprint of decode + full preprocessing of the fixture. Recorded
    // by the PR 3 code base when the fixture was written, and re-pinned
    // once when LogNorm stopped being libm's `ln_1p` (its own kernel, see
    // `presto_ops::lognorm`): nothing else may change a bit.
    let plan = PreprocessPlan::from_config(&fixture_config(), 1).expect("plan");
    let (mb, _) =
        preprocess_partition(&plan, MemBlob::new(V2_FIXTURE.to_vec())).expect("preprocesses");
    assert_eq!(fingerprint(&mb), FIXTURE_FINGERPRINT);
}

#[test]
fn v4_writer_output_matches_v2_content() {
    let config = fixture_config();
    let batch = generate_batch(&config, 200, 42);
    let blob = write_partition(&batch).expect("writes");
    assert_eq!(&blob.as_bytes()[..8], MAGIC, "new files carry the v4 magic");
    let v4 = FileReader::open(blob).expect("opens");
    assert_eq!(v4.version(), FormatVersion::V4);
    let v2 = FileReader::open(MemBlob::new(V2_FIXTURE.to_vec())).expect("opens");
    assert_eq!(v2.version(), FormatVersion::V2);
    assert_eq!(
        v4.read_row_group(0).expect("v4 decodes"),
        v2.read_row_group(0).expect("v2 decodes"),
    );
}

#[test]
fn v3_fixture_reads_through_v4_reader() {
    // The previous on-disk version must read through the current reader
    // with unchanged content — the "one release back" guarantee.
    assert_eq!(&V3_FIXTURE[..8], MAGIC_V3, "fixture must really be a v3 file");
    let reader = FileReader::open(MemBlob::new(V3_FIXTURE.to_vec())).expect("v3 file opens");
    assert_eq!(reader.version(), FormatVersion::V3);
    let batch = generate_batch(&fixture_config(), 200, 42);
    assert_eq!(reader.read_row_group(0).expect("decodes"), batch.columns());
    // Legacy footers carry no page/null statistics; rows still size
    // everything the reader needs.
    assert_eq!(reader.meta().total_rows(), 200);
    assert!(reader.meta().row_groups[0].columns.iter().all(|chunk| chunk.stats.pages == 0));
}

#[test]
fn v3_fixture_preprocesses_to_pinned_fingerprint() {
    let plan = PreprocessPlan::from_config(&fixture_config(), 1).expect("plan");
    let (mb, _) =
        preprocess_partition(&plan, MemBlob::new(V3_FIXTURE.to_vec())).expect("preprocesses");
    assert_eq!(
        fingerprint(&mb),
        FIXTURE_FINGERPRINT,
        "v3-written data must preprocess bit-identically to the v2 fixture"
    );
}

#[test]
fn mixed_magic_versions_are_rejected() {
    let config = fixture_config();
    let batch = generate_batch(&config, 16, 1);
    let blob = write_partition(&batch).expect("writes");
    let mut bytes = blob.as_bytes().to_vec();
    let n = bytes.len();
    // A v3 head with a v2 tail is corruption, not compatibility.
    bytes[n - 8..].copy_from_slice(MAGIC_V2);
    assert!(FileReader::open(MemBlob::new(bytes)).is_err());
    // Unknown versions stay rejected.
    let mut v1 = blob.as_bytes().to_vec();
    v1[..8].copy_from_slice(b"PSTOCOL1");
    v1[n - 8..].copy_from_slice(b"PSTOCOL1");
    assert!(FileReader::open(MemBlob::new(v1)).is_err());
}

/// Every encoding the matrix forces, plus the default cost model.
fn matrix_policies() -> Vec<(&'static str, WritePolicy)> {
    let base = WritePolicy::default();
    vec![
        ("default", base),
        ("plain", base.with_forced_encoding(Encoding::Plain)),
        ("delta_varint", base.with_forced_encoding(Encoding::Delta)),
        ("delta_bitpack", base.with_forced_encoding(Encoding::DeltaBitpack)),
        ("dictionary", base.with_forced_encoding(Encoding::Dictionary)),
        ("lz", base.with_compression(Compression::Lz)),
        ("lz_hot", base.with_compression(Compression::Lz).compressing_hot_columns()),
    ]
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
