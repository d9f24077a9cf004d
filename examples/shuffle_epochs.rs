//! Shuffled-epoch streaming over `PSTOCOL4` row groups: deterministic
//! permutations, mid-epoch resume, and the group-size trade-off.
//!
//! Part 1 (epochs): the same grouped dataset is streamed for three epochs
//! of one seed. Each epoch draws a fresh permutation of all row groups;
//! the same `(seed, epoch)` always draws the same one, so the delivered
//! order is reproducible across runs and worker counts.
//!
//! Part 2 (resume): an epoch is interrupted mid-stream, its
//! [`EpochCursor`] is serialized to a string, and a fresh stream resumes
//! from it. The example asserts the stitched run is bit-identical to an
//! uninterrupted epoch — the checkpoint/restart contract.
//!
//! Part 3 (group-size sweep): the same rows are written at several
//! rows-per-group settings, and the bytes one shuffled epoch actually
//! reads are summed from each file's row-group index. Small groups
//! approach a uniform row-level shuffle but multiply footer entries,
//! ranged reads, and stored bytes (chunk headers and encoder restarts —
//! measured read amplification); whole-partition groups read sequentially
//! but only permute partition order. Sizing groups at the training
//! mini-batch is the standard compromise: batches are drawn uniformly
//! while each read stays one contiguous ranged access per column.
//!
//! Run with: `cargo run --release --example shuffle_epochs`
//!
//! Environment knobs (for CI and quick runs):
//! * `PRESTO_SHUFFLE_PARTITIONS` — partitions to generate (default 6)
//! * `PRESTO_SHUFFLE_ROWS` — rows per partition (default 1024)
//! * `PRESTO_SHUFFLE_SEED` — shuffle seed (default 42)

use presto::columnar::FileReader;
use presto::datagen::{Dataset, RmConfig};
use presto::metrics::TextTable;
use presto::ops::{
    epoch_units, BatchStream, EpochCursor, FleetConfig, PreprocessPlan, ShuffleSpec,
};

fn env_usize(name: &str, default: usize) -> usize {
    std::env::var(name).ok().and_then(|v| v.parse().ok()).unwrap_or(default)
}

fn env_u64(name: &str, default: u64) -> u64 {
    std::env::var(name).ok().and_then(|v| v.parse().ok()).unwrap_or(default)
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let num_partitions = env_usize("PRESTO_SHUFFLE_PARTITIONS", 6);
    let rows = env_usize("PRESTO_SHUFFLE_ROWS", 1024);
    let seed = env_u64("PRESTO_SHUFFLE_SEED", 42);
    let group_rows = (rows / 4).max(1);

    let mut config = RmConfig::rm1();
    config.batch_size = group_rows;
    let plan = PreprocessPlan::from_config(&config, 1)?;
    let ds = Dataset::generate_grouped(&config, num_partitions, rows, 2, 7, group_rows)?;
    let units = epoch_units(ds.partitions())?;
    println!(
        "dataset: {num_partitions} partitions x {rows} rows, {group_rows} rows/group \
         = {} shuffle units\n",
        units.len()
    );

    // ── Part 1: three epochs of one seed ─────────────────────────────────
    println!("epoch permutations (seed {seed}; first 8 units as partition.group):");
    for epoch in 0..3u64 {
        let spec = ShuffleSpec::new(seed).with_epoch(epoch);
        let order: Vec<String> =
            BatchStream::spawn_shuffled(&plan, ds.partitions(), spec, &FleetConfig::new(4, 4))
                .map(|item| {
                    let b = item.expect("fault-free run");
                    format!("{}.{}", b.partition, b.group)
                })
                .collect();
        assert_eq!(order.len(), units.len(), "every unit exactly once");
        println!("  epoch {epoch}: {} ...", order[..order.len().min(8)].join(" "));
    }

    // ── Part 2: interrupt, serialize the cursor, resume ──────────────────
    let spec = ShuffleSpec::new(seed);
    let full: Vec<(usize, usize)> =
        BatchStream::spawn_shuffled(&plan, ds.partitions(), spec, &FleetConfig::new(4, 4))
            .map(|item| {
                let b = item.expect("ok");
                (b.partition, b.group)
            })
            .collect();
    let interrupt_at = units.len() / 2;
    let mut first =
        BatchStream::spawn_shuffled(&plan, ds.partitions(), spec, &FleetConfig::new(4, 4));
    let mut stitched: Vec<(usize, usize)> = first
        .by_ref()
        .take(interrupt_at)
        .map(|item| {
            let b = item.expect("ok");
            (b.partition, b.group)
        })
        .collect();
    let checkpoint = first.cursor().expect("shuffled stream").encode();
    drop(first);
    println!("\ninterrupted after {interrupt_at} units; cursor = {checkpoint:?}");
    let cursor = EpochCursor::decode(&checkpoint)?;
    stitched.extend(
        BatchStream::resume(&plan, ds.partitions(), cursor, &FleetConfig::new(2, 4))?.map(|item| {
            let b = item.expect("ok");
            (b.partition, b.group)
        }),
    );
    assert_eq!(stitched, full, "resume must be bit-identical to the uninterrupted epoch");
    println!("resumed: stitched epoch identical to the uninterrupted run ✓");

    // ── Part 3: group-size sweep ─────────────────────────────────────────
    // Shuffle quality vs read amplification, *measured*: `units` is the
    // permutation's sample space (more = finer shuffle), and `MiB/epoch` is
    // the data volume one shuffled epoch actually reads — every chunk of
    // every plan-projected column, summed from the row-group index
    // (`ChunkMeta::byte_len`). Smaller groups re-pay per-chunk headers and
    // reset the delta encoders more often, so the same rows occupy more
    // stored bytes; `amplification` is the ratio against whole-partition
    // groups.
    println!();
    let mut table = TextTable::new(vec![
        "rows/group",
        "units",
        "MiB/epoch",
        "amplification",
        "shuffle granularity",
    ]);
    let mut candidates = vec![1, 32, group_rows, rows];
    candidates.sort_unstable();
    candidates.dedup();
    let mut sweep: Vec<(usize, usize, u64)> = Vec::new();
    for candidate in candidates {
        let sweep_ds = Dataset::generate_grouped(&config, num_partitions, rows, 2, 7, candidate)?;
        let sweep_units = epoch_units(sweep_ds.partitions())?;
        let mut epoch_bytes = 0u64;
        for p in sweep_ds.partitions() {
            let reader = FileReader::open(p.blob.clone())?;
            let projected: Vec<usize> = plan
                .required_columns()
                .iter()
                .filter_map(|name| reader.schema().index_of(name))
                .collect();
            for rg in &reader.meta().row_groups {
                epoch_bytes += projected.iter().map(|&c| rg.columns[c].byte_len).sum::<u64>();
            }
        }
        sweep.push((candidate, sweep_units.len(), epoch_bytes));
    }
    let baseline_bytes = sweep.last().map_or(1, |&(_, _, b)| b.max(1));
    for &(candidate, units, bytes) in &sweep {
        let granularity = if candidate == 1 {
            "per-row (uniform)".to_owned()
        } else if candidate >= rows {
            "per-partition only".to_owned()
        } else {
            format!("{candidate}-row mini-batches")
        };
        table.row(vec![
            candidate.to_string(),
            units.to_string(),
            format!("{:.2}", bytes as f64 / (1024.0 * 1024.0)),
            format!("{:.2}x", bytes as f64 / baseline_bytes as f64),
            granularity,
        ]);
    }
    print!("{}", table.render());
    println!(
        "\ngroup-size tuning: rows/group = the training mini-batch ({group_rows} here) keeps\n\
         mini-batches uniformly drawn at one contiguous ranged read per column per batch;\n\
         smaller groups sharpen the shuffle but re-pay chunk headers and encoder restarts,\n\
         which the measured MiB/epoch column prices against whole-partition groups."
    );
    Ok(())
}
