//! CI bench-regression gate: a smoke profile of the three headline hot
//! paths, compared against a checked-in baseline.
//!
//! Measures (best-of-N wall-clock, small enough for a CI leg):
//!
//! * `extract_rm1_rows_per_sec` — the Extract stage alone
//!   (open + `extract_columns_for_plan`: projected read + block decode into one
//!   `RowBatch`), the `extract_partition/rm1` criterion bench's subject and
//!   the path the delta-bitpacked codec accelerates.
//! * `preprocess_partition_rm1_rows_per_sec` — the single-worker
//!   Extract→Transform→format pipeline over one RM1 partition
//!   (`preprocess_partition_with`, recycled scratch), the
//!   `preprocess_partition/rm1` criterion bench's subject.
//! * `streaming_end_to_end_rows_per_sec` — the streaming executor feeding
//!   the consuming trainer (`BatchStream::spawn` → `Trainer`),
//!   consumer-side goodput.
//! * `split_end_to_end_rows_per_sec` — the hybrid split-placement executor
//!   (`Fleet::Split(..).spawn`: ISP stage prefix pipelined against the
//!   host suffix at the cost-model boundary) feeding the same trainer.
//! * `multi_tenant_rows_per_sec` — two concurrent RM1 jobs through the
//!   multi-tenant [`PreprocessService`] sharing one pool worker under
//!   weighted-fair dispatch: aggregate delivered rows over wall-clock.
//! * `shuffled_stream_rows_per_sec` — the shuffled random-access epoch
//!   (`Fleet::Shuffled(..).spawn` over a row-group-indexed `PSTOCOL4` dataset,
//!   in-order delivery through the reorder buffer) feeding the same trainer:
//!   the price of shuffling relative to `streaming_end_to_end`.
//! * `extract_longseq_rows_per_sec` — the Extract stage on the
//!   long-sequence scenario (`RmConfig::rm_longseq` through
//!   `PlanGraph::long_history`) with prefix pushdown active: lists this
//!   long are stored as head + tail pages, and the plan's `Prefix(8)`
//!   requirements let the reader fetch and decode the head pages alone. The
//!   full-decode rate is printed alongside for the speedup figure; the
//!   gated number is the pushdown rate.
//!
//! Writes the measurements to `BENCH_ci.json` (uploaded as a CI artifact),
//! appends a per-metric delta table to `$GITHUB_STEP_SUMMARY` when that
//! variable is set (the job summary page shows the deltas even on green
//! runs), and **fails with exit code 1** when any metric regresses more
//! than 15% (override with `CI_BENCH_MAX_REGRESSION`) against
//! `BENCH_baseline.json` in the working directory.
//!
//! Refreshing the baseline after an intentional perf change:
//!
//! ```text
//! CI_BENCH_WRITE_BASELINE=1 cargo run --release -p presto-bench --bin ci-bench
//! git add BENCH_baseline.json   # commit alongside the change that moved it
//! ```
//!
//! CI also runs a `baseline-check` step that fails when
//! `BENCH_baseline.json` is older (by commit) than the last change to the
//! measured code paths — a stale baseline silently weakens the gate.

use presto_bench::{banner, parse_flat_json, print_table, render_flat_json};
use presto_columnar::{FileReader, MemBlob, ReadScratch};
use presto_core::placement::{place_stages, OpCostModel};
use presto_core::{Fleet, JobSpec, PreprocessService, ServiceConfig, Trainer, TrainerConfig};
use presto_datagen::{generate_batch, write_partition, Dataset, RmConfig, RowBatch};
use presto_hwsim::fpga::IspModel;
use presto_metrics::TextTable;
use presto_ops::{
    extract_columns_for_plan, preprocess_partition_with, BatchStream, FleetConfig, PreprocessPlan,
    ScratchSpace, ShuffleSpec,
};
use std::time::Instant;

const BASELINE_PATH: &str = "BENCH_baseline.json";
const OUTPUT_PATH: &str = "BENCH_ci.json";
const DEFAULT_MAX_REGRESSION: f64 = 0.15;

/// Best-of-`reps` throughput (rows/s) of one measured closure.
fn best_of<F: FnMut() -> usize>(reps: usize, mut run: F) -> f64 {
    let mut best = 0.0f64;
    for _ in 0..reps {
        let start = Instant::now();
        let rows = run();
        let tput = rows as f64 / start.elapsed().as_secs_f64().max(1e-12);
        best = best.max(tput);
    }
    best
}

/// The Extract stage alone: open + the plan's projected read and decode
/// into one `RowBatch`.
fn extract_partition(plan: &PreprocessPlan, blob: MemBlob, read: &mut ReadScratch) -> RowBatch {
    let reader = FileReader::open(blob).expect("opens");
    extract_columns_for_plan(plan, &reader, plan.required_columns(), read).expect("extracts")
}

fn extract_rm1() -> f64 {
    let mut config = RmConfig::rm1();
    config.batch_size = 4096;
    let plan = PreprocessPlan::from_config(&config, 1).expect("plan");
    let batch = generate_batch(&config, 4096, 7);
    let blob = write_partition(&batch).expect("serializes");
    let mut scratch = ReadScratch::new();
    extract_partition(&plan, blob.clone(), &mut scratch);
    best_of(5, || extract_partition(&plan, blob.clone(), &mut scratch).rows())
}

fn preprocess_partition_rm1() -> f64 {
    let mut config = RmConfig::rm1();
    config.batch_size = 4096;
    let plan = PreprocessPlan::from_config(&config, 1).expect("plan");
    let batch = generate_batch(&config, 4096, 7);
    let blob = write_partition(&batch).expect("serializes");
    let mut scratch = ScratchSpace::new();
    // Warm the scratch outside the measurement, like the criterion bench.
    preprocess_partition_with(&plan, blob.clone(), &mut scratch).expect("preprocesses");
    best_of(5, || {
        let (mb, _) =
            preprocess_partition_with(&plan, blob.clone(), &mut scratch).expect("preprocesses");
        mb.rows()
    })
}

fn streaming_end_to_end() -> f64 {
    let mut config = RmConfig::rm1();
    config.batch_size = 1024;
    let plan = PreprocessPlan::from_config(&config, 1).expect("plan");
    let ds = Dataset::generate(&config, 8, 1024, 2, 7).expect("dataset");
    let trainer = Trainer::new(TrainerConfig::instant());
    best_of(3, || {
        let stream = BatchStream::spawn(&plan, ds.partitions(), &FleetConfig::new(2, 4));
        let report = trainer.run(stream).expect("trains");
        report.rows
    })
}

fn split_end_to_end() -> f64 {
    let mut config = RmConfig::rm1();
    config.batch_size = 1024;
    let plan = PreprocessPlan::from_config(&config, 1).expect("plan");
    let model = OpCostModel::analytic(&IspModel::smartssd());
    let placement = place_stages(&plan, 1024, &model);
    let split = plan.split(&placement.fleet_assignment()).expect("splits");
    let ds = Dataset::generate(&config, 8, 1024, 2, 7).expect("dataset");
    let trainer = Trainer::new(TrainerConfig::instant());
    best_of(3, || {
        let config = FleetConfig::new(2, 4).with_host_workers(2);
        let stream = Fleet::Split(split.clone()).spawn(&plan, ds.partitions(), &config);
        let report = trainer.run(stream).expect("trains");
        report.rows
    })
}

/// Two concurrent RM1 jobs through the multi-tenant service on one shared
/// pool worker: the aggregate goodput the weighted-fair dispatcher
/// sustains when tenants contend for the same device fleet.
fn multi_tenant() -> f64 {
    let mut config = RmConfig::rm1();
    config.batch_size = 1024;
    let plan = PreprocessPlan::from_config(&config, 1).expect("plan");
    let ds = Dataset::generate(&config, 6, 1024, 2, 7).expect("dataset");
    best_of(3, || {
        let service = PreprocessService::new(
            ServiceConfig::new(1).with_max_active_jobs(2).with_job_capacity(ds.partitions().len()),
        );
        let handles: Vec<_> = (0..2)
            .map(|i| {
                let spec =
                    JobSpec::new(format!("tenant-{i}"), plan.clone(), ds.partitions().to_vec());
                service.submit(spec).expect("an idle pool admits both tenants")
            })
            .collect();
        let rows: usize = std::thread::scope(|scope| {
            let joins: Vec<_> = handles
                .into_iter()
                .map(|h| {
                    scope.spawn(move || {
                        h.map(|item| item.expect("preprocesses").batch.rows()).sum::<usize>()
                    })
                })
                .collect();
            joins.into_iter().map(|j| j.join().expect("tenant drains")).sum()
        });
        let _ = service.shutdown();
        rows
    })
}

/// The prefix-pushdown Extract on the long-sequence scenario
/// (`RmConfig::rm_longseq`: average list length 512, skewed, consumed
/// through `FirstX(8)`-headed chains): the plan derives `Prefix(8)` for
/// every sparse column, so each chunk's read stops at the end of its head
/// pages. Prints the full-decode rate of the same partition alongside,
/// so the pushdown speedup is a visible figure on every CI run; the gated
/// metric is the pushdown rate.
fn extract_longseq() -> f64 {
    use presto_ops::{extract_columns_from_reader, PlanGraph};
    let mut config = RmConfig::rm_longseq();
    config.batch_size = 2048;
    let graph = PlanGraph::long_history(&config, 1, 8).expect("graph");
    let plan = PreprocessPlan::compile(graph, &config).expect("plan");
    let batch = generate_batch(&config, 2048, 7);
    let blob = write_partition(&batch).expect("serializes");
    let mut scratch = ReadScratch::new();
    extract_partition(&plan, blob.clone(), &mut scratch);
    let pushdown = best_of(5, || extract_partition(&plan, blob.clone(), &mut scratch).rows());
    let reader = FileReader::open(blob).expect("opens");
    let full = best_of(5, || {
        extract_columns_from_reader(&reader, plan.required_columns(), &mut scratch)
            .expect("full decode")
            .rows()
    });
    println!(
        "  extract_longseq: pushdown {pushdown:.0} rows/s vs full decode {full:.0} rows/s \
         ({:.1}x)",
        pushdown / full.max(1e-12)
    );
    pushdown
}

/// The shuffled-epoch pipeline: row groups of a `PSTOCOL4` dataset in a
/// seeded permutation, delivered in permutation order to the trainer.
/// Groups of 256 rows give 32 shuffle units over the same data volume as
/// `streaming_end_to_end`, so the delta between the two metrics is the
/// cost of random access + reorder delivery.
fn shuffled_stream() -> f64 {
    let mut config = RmConfig::rm1();
    config.batch_size = 1024;
    let plan = PreprocessPlan::from_config(&config, 1).expect("plan");
    let ds = Dataset::generate_grouped(&config, 8, 1024, 2, 7, 256).expect("dataset");
    let trainer = Trainer::new(TrainerConfig::instant());
    best_of(3, || {
        let stream = Fleet::Shuffled(ShuffleSpec::new(42)).spawn(
            &plan,
            ds.partitions(),
            &FleetConfig::new(2, 4),
        );
        let report = trainer.run(stream).expect("trains");
        report.rows
    })
}

/// Appends the per-metric delta table to the GitHub Actions job summary
/// (`$GITHUB_STEP_SUMMARY`), so reviewers see the deltas without opening
/// logs — including on green runs. No-op outside CI.
fn write_step_summary(rows: &[[String; 5]], max_regression: f64, failed: bool) {
    let Ok(path) = std::env::var("GITHUB_STEP_SUMMARY") else {
        return;
    };
    let mut md = String::from("## Bench-regression gate\n\n");
    md.push_str("| metric | baseline rows/s | measured rows/s | delta | verdict |\n");
    md.push_str("|---|---:|---:|---:|---|\n");
    for [key, base, now, delta, verdict] in rows {
        let icon = if verdict == "ok" { "✅ ok" } else { "❌ REGRESSED" };
        md.push_str(&format!("| `{key}` | {base} | {now} | {delta} | {icon} |\n"));
    }
    md.push_str(&format!(
        "\n{} (threshold {:.0}%; refresh: `CI_BENCH_WRITE_BASELINE=1 cargo run --release \
         -p presto-bench --bin ci-bench`)\n",
        if failed { "**Gate FAILED**" } else { "Gate passed" },
        max_regression * 100.0
    ));
    let appended = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(&path)
        .and_then(|mut f| std::io::Write::write_all(&mut f, md.as_bytes()));
    if let Err(e) = appended {
        eprintln!("warning: could not write job summary to {path}: {e}");
    }
}

fn main() {
    banner(
        "CI bench-regression gate",
        "throughput must stay within 15% of the checked-in baseline",
    );
    let measured = vec![
        ("extract_rm1_rows_per_sec".to_owned(), extract_rm1()),
        ("preprocess_partition_rm1_rows_per_sec".to_owned(), preprocess_partition_rm1()),
        ("streaming_end_to_end_rows_per_sec".to_owned(), streaming_end_to_end()),
        ("split_end_to_end_rows_per_sec".to_owned(), split_end_to_end()),
        ("multi_tenant_rows_per_sec".to_owned(), multi_tenant()),
        ("shuffled_stream_rows_per_sec".to_owned(), shuffled_stream()),
        ("extract_longseq_rows_per_sec".to_owned(), extract_longseq()),
    ];
    std::fs::write(OUTPUT_PATH, render_flat_json(&measured)).expect("write BENCH_ci.json");
    println!("wrote {OUTPUT_PATH}");

    if std::env::var("CI_BENCH_WRITE_BASELINE").is_ok_and(|v| v == "1") {
        std::fs::write(BASELINE_PATH, render_flat_json(&measured))
            .expect("write BENCH_baseline.json");
        println!("refreshed {BASELINE_PATH}; commit it alongside your change");
        return;
    }

    let Ok(baseline_text) = std::fs::read_to_string(BASELINE_PATH) else {
        eprintln!(
            "error: {BASELINE_PATH} not found — run with CI_BENCH_WRITE_BASELINE=1 \
             from the repository root and commit the result"
        );
        std::process::exit(1);
    };
    let baseline = parse_flat_json(&baseline_text);
    if baseline.is_empty() {
        eprintln!(
            "error: no numeric metrics parsed from {BASELINE_PATH} — corrupt baseline; \
             refresh it with CI_BENCH_WRITE_BASELINE=1"
        );
        std::process::exit(1);
    }
    let max_regression = std::env::var("CI_BENCH_MAX_REGRESSION")
        .ok()
        .and_then(|v| v.parse::<f64>().ok())
        .unwrap_or(DEFAULT_MAX_REGRESSION);

    let mut table =
        TextTable::new(vec!["metric", "baseline rows/s", "measured rows/s", "delta", "verdict"]);
    let mut rows: Vec<[String; 5]> = Vec::new();
    let mut failed = false;
    for (key, base) in &baseline {
        let Some((_, now)) = measured.iter().find(|(k, _)| k == key) else {
            eprintln!("error: baseline metric {key} is no longer measured");
            failed = true;
            continue;
        };
        let delta = now / base - 1.0;
        let regressed = delta < -max_regression;
        failed |= regressed;
        rows.push([
            key.clone(),
            format!("{base:.0}"),
            format!("{now:.0}"),
            format!("{:+.1}%", delta * 100.0),
            if regressed { "REGRESSED".to_owned() } else { "ok".to_owned() },
        ]);
    }
    for row in &rows {
        table.row(row.to_vec());
    }
    // New metrics must be gated too: a measurement without a baseline
    // entry means the baseline was not refreshed alongside the change.
    for (key, _) in &measured {
        if !baseline.iter().any(|(k, _)| k == key) {
            eprintln!("error: measured metric {key} has no baseline entry — refresh the baseline");
            failed = true;
        }
    }
    print_table(&table);
    write_step_summary(&rows, max_regression, failed);
    if failed {
        eprintln!(
            "bench gate FAILED: a metric regressed more than {:.0}% against {BASELINE_PATH}",
            max_regression * 100.0
        );
        eprintln!("(intentional change? refresh the baseline — see the header of this binary)");
        std::process::exit(1);
    }
    println!("bench gate passed (threshold {:.0}%)", max_regression * 100.0);
}
