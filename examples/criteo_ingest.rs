//! Criteo TSV ingestion: parse click-logs in the real public-dataset
//! format, shard them into columnar partitions, and preprocess them — the
//! RM1 path with genuine file-format handling.
//!
//! Run with: `cargo run --example criteo_ingest [path/to/criteo.tsv]`
//! (without an argument, a format-faithful synthetic sample is used).

use presto::datagen::criteo;
use presto::datagen::{write_partition, RmConfig};
use presto::ops::{preprocess_batch_with, PreprocessPlan, ScratchSpace};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let text = match std::env::args().nth(1) {
        Some(path) => {
            println!("reading {path}");
            std::fs::read_to_string(path)?
        }
        None => {
            println!("no input file given; synthesizing 2,000 Criteo-format rows");
            criteo::synthesize_tsv(2_000, 2024)
        }
    };

    // Parse TSV -> tabular row batch (label + 13 dense + 26 sparse).
    let batch = criteo::parse_tsv(&text)?;
    println!("parsed {} rows into {} columns", batch.rows(), batch.schema().len());

    // Store as a columnar partition (what the storage system would hold).
    let blob = write_partition(&batch)?;
    println!(
        "columnar partition: {:.1} KiB ({:.2} bytes/row)",
        blob.as_bytes().len() as f64 / 1024.0,
        blob.as_bytes().len() as f64 / batch.rows() as f64
    );

    // Preprocess with the RM1 plan.
    let mut config = RmConfig::rm1();
    config.batch_size = batch.rows();
    let plan = PreprocessPlan::from_config(&config, 1)?;
    let (mini_batch, timings) = preprocess_batch_with(&plan, &batch, &mut ScratchSpace::new())?;
    println!(
        "preprocessed into {} samples x ({} dense + {} jagged features)",
        mini_batch.rows(),
        mini_batch.dense().cols(),
        mini_batch.sparse().len()
    );
    println!(
        "transform time on this host: bucketize {:?}, sigridhash {:?}, log {:?}",
        timings.bucketize(),
        timings.sigridhash(),
        timings.log()
    );

    // Show the normalization effect on one dense feature.
    let raw_col = batch.column("dense_0").and_then(|a| a.as_float32()).expect("dense_0");
    let max_raw = raw_col.iter().copied().fold(0.0f32, f32::max);
    let max_norm =
        (0..mini_batch.rows()).map(|r| mini_batch.dense().row(r)[0]).fold(0.0f32, f32::max);
    println!("dense_0 range compressed by Log: max {max_raw:.0} -> {max_norm:.2}");
    Ok(())
}
