//! Prefix pushdown on long-sequence user histories: decode only the list
//! prefix the plan actually consumes.
//!
//! The `RmConfig::rm_longseq` shape stores a handful of ~512-element
//! skewed history columns; `PlanGraph::long_history` consumes each one
//! through a `FirstX(x)`-headed chain. At compile time the plan derives a
//! [`ColumnRequirement::Prefix`] per raw column — every reader truncates,
//! so only the first `x` elements of each list can ever matter — and the
//! columnar layer honors it on both sides: the writer stores lists this
//! long as head pages (every length, the first 32 values of each list) and
//! tail pages (the rest), and a `Prefix(x ≤ 32)` read fetches, checksums
//! and decodes the head pages alone.
//!
//! The example:
//!
//! 1. prints the derived per-column requirements for the long-history
//!    plan, next to the canonical plan's all-`Full` answer;
//! 2. times the plan-aware Extract (prefix pushdown) against the
//!    full-decode Extract of the same partitions;
//! 3. counts the bytes each of the two reads per row through a
//!    `CountingBlob`, and asserts the prefix read moves at least 8× fewer
//!    (for `x` within the head pages' reach);
//! 4. asserts the pushed-down pipeline's mini-batches are bit-identical
//!    to the legacy full-decode + in-memory-`FirstX` pipeline.
//!
//! Run with: `cargo run --release --example long_history`
//!
//! Environment knobs (for CI and quick runs):
//! * `PRESTO_LONGSEQ_ROWS` — rows per partition (default 2048)
//! * `PRESTO_LONGSEQ_PARTITIONS` — partitions to generate (default 4)
//! * `PRESTO_LONGSEQ_X` — the FirstX prefix length (default 8)

use presto::columnar::{CountingBlob, FileReader, ReadScratch};
use presto::datagen::{generate_batch, write_partition, RmConfig};
use presto::ops::{
    extract_columns_for_plan, extract_columns_from_reader, preprocess_batch_with,
    preprocess_partition, ColumnRequirement, PlanGraph, PreprocessPlan, ScratchSpace,
};
use std::time::Instant;

fn env_usize(name: &str, default: usize) -> usize {
    std::env::var(name).ok().and_then(|v| v.parse().ok()).unwrap_or(default)
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let rows = env_usize("PRESTO_LONGSEQ_ROWS", 2048);
    let partitions = env_usize("PRESTO_LONGSEQ_PARTITIONS", 4);
    let x = env_usize("PRESTO_LONGSEQ_X", 8).max(1);

    let mut config = RmConfig::rm_longseq();
    config.batch_size = rows;
    let plan = PreprocessPlan::compile(PlanGraph::long_history(&config, 7, x)?, &config)?;
    let canonical = PreprocessPlan::compile(PlanGraph::canonical(&config, 7)?, &config)?;
    println!(
        "model {}: {partitions} x {rows} rows, avg list len {}, FirstX({x}) heads\n",
        config.name, config.avg_sparse_len
    );

    // ── 1. compile-time column requirements ──────────────────────────────
    println!("derived read requirements (long-history plan vs canonical plan):");
    for name in plan.required_columns() {
        if !name.starts_with("sparse_") {
            continue;
        }
        println!(
            "  {name:<10} long-history: {:<12} canonical: {:?}",
            format!("{:?}", plan.requirement_for(name)),
            canonical.requirement_for(name)
        );
    }
    assert_eq!(plan.requirement_for("sparse_0"), ColumnRequirement::Prefix(x));
    assert_eq!(canonical.requirement_for("sparse_0"), ColumnRequirement::Full);

    // ── 2. pushdown vs full-decode Extract ───────────────────────────────
    let blobs: Vec<_> = (0..partitions)
        .map(|p| write_partition(&generate_batch(&config, rows, 7 + p as u64)))
        .collect::<Result<_, _>>()?;
    let mut scratch = ReadScratch::new();
    let time_epoch = |label: &str, run: &mut dyn FnMut() -> usize| {
        let mut best = f64::INFINITY;
        let mut total = 0usize;
        for _ in 0..3 {
            let t0 = Instant::now();
            total = run();
            best = best.min(t0.elapsed().as_secs_f64());
        }
        println!("  {label:<22} {:>8.1} ms ({:>9.0} rows/s)", best * 1e3, total as f64 / best);
        best
    };
    println!("\nExtract, all {partitions} partitions:");
    let pushed_secs = time_epoch("prefix pushdown", &mut || {
        blobs
            .iter()
            .map(|b| {
                let reader = FileReader::open(b.clone()).expect("opens");
                extract_columns_for_plan(&plan, &reader, plan.required_columns(), &mut scratch)
                    .expect("extracts")
                    .rows()
            })
            .sum()
    });
    let full_secs = time_epoch("full decode", &mut || {
        blobs
            .iter()
            .map(|b| {
                let reader = FileReader::open(b.clone()).expect("opens");
                extract_columns_from_reader(&reader, plan.required_columns(), &mut scratch)
                    .expect("extracts")
                    .rows()
            })
            .sum()
    });
    println!("  pushdown speedup: {:.1}x", full_secs / pushed_secs.max(1e-12));

    // ── 3. bytes moved per row, counted at the blob ──────────────────────
    let mut bytes_per_row = [0.0f64; 2];
    for (slot, pushdown) in [(0, true), (1, false)] {
        let mut bytes = 0u64;
        for blob in &blobs {
            let counting = || FileReader::open(CountingBlob::new(blob.clone()));
            let footer = counting()?.into_inner().bytes_read();
            let reader = counting()?;
            if pushdown {
                extract_columns_for_plan(&plan, &reader, plan.required_columns(), &mut scratch)?;
            } else {
                extract_columns_from_reader(&reader, plan.required_columns(), &mut scratch)?;
            }
            bytes += reader.into_inner().bytes_read() - footer;
        }
        bytes_per_row[slot] = bytes as f64 / (partitions * rows) as f64;
    }
    let [pushed_bytes, full_bytes] = bytes_per_row;
    println!(
        "
bytes read per row: prefix pushdown {pushed_bytes:.0}, full decode {full_bytes:.0} \
         ({:.1}x fewer)",
        full_bytes / pushed_bytes
    );
    if x <= 32 {
        assert!(
            pushed_bytes * 8.0 <= full_bytes,
            "a Prefix({x}) read of head/tail chunks should move at least 8x fewer bytes"
        );
    }

    // ── 4. bit-identity against the legacy full-decode pipeline ──────────
    for blob in &blobs {
        let (pushed, _) = preprocess_partition(&plan, blob.clone())?;
        let reader = FileReader::open(blob.clone())?;
        let raw = extract_columns_from_reader(&reader, plan.required_columns(), &mut scratch)?;
        let (legacy, _) = preprocess_batch_with(&plan, &raw, &mut ScratchSpace::new())?;
        assert_eq!(pushed, legacy, "pushdown must be invisible in the output");
    }
    println!(
        "\nall {partitions} partitions: pushed-down pipeline bit-identical to \
         full decode + in-memory FirstX ✓"
    );
    Ok(())
}
