//! `presto-e2e` — the repository's benchmark.
//!
//! One process runs one workload: it generates its inputs from `--seed`,
//! proves the executor's output against a plain serial reference, then
//! drains closed-loop epochs for `--seconds` through its own consuming
//! loop and prints six trainer-side metrics (`--trace 0`) or the per-layer
//! ledger of a traced run (`--trace 1`). The last line of standard output
//! is the JSON object the driver reads. `presto-e2e aa` repeats the
//! untraced run in interleaved sets and prints the noise table. See
//! README.md in this directory.
//!
//! Only public API of the library is called; nothing inside it is
//! instrumented or changed.

mod aa;
mod layers;
mod stats;
mod trace;
mod verify;
mod workloads;

use layers::{StreamProbe, PER_LAYER};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::process::ExitCode;
use std::time::{Duration, Instant};
use trace::Tracer;
use verify::EpochOutcome;
use workloads::{Checking, Workload, WORKLOADS};

/// Counts this thread's heap allocations, so the layer walk can report
/// allocations per row. Thread-local cells keep the executors' threads off
/// a shared cache line.
struct CountingAllocator;

thread_local! {
    static ALLOCATIONS: Cell<(u64, u64)> = const { Cell::new((0, 0)) };
}

fn note_allocation(bytes: usize) {
    // `try_with`: the allocator also runs while a thread's locals are
    // being torn down, when the cell is gone.
    let _ = ALLOCATIONS.try_with(|c| {
        let (calls, total) = c.get();
        c.set((calls + 1, total + bytes as u64));
    });
}

/// `(calls, bytes)` allocated by the calling thread so far.
pub fn thread_allocations() -> (u64, u64) {
    ALLOCATIONS.with(Cell::get)
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counting touches only a
// const-initialised thread-local `Cell` and never allocates.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note_allocation(layout.size());
        // SAFETY: the caller's `layout` obligations pass through as given.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note_allocation(layout.size());
        // SAFETY: as in `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, which is `System`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note_allocation(new_size);
        // SAFETY: `ptr` came from this allocator, which is `System`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

pub struct EndToEndMetric {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    /// Share of the parent's median by which the metric may get worse.
    pub bound: f64,
}

/// The six trainer-side metrics, as `BENCHMARK.json` lists them (a test
/// keeps the two in step). Twice the worst A/A spread in README.md's noise
/// table is 22-28%, so every bound is the 0.25 the file format allows.
pub const END_TO_END: [EndToEndMetric; 6] = [
    EndToEndMetric { name: "rows_per_s", unit: "rows/s", better: "higher", bound: 0.25 },
    EndToEndMetric { name: "cpu_s_per_mrow", unit: "s/Mrow", better: "lower", bound: 0.25 },
    EndToEndMetric { name: "first_batch_ms", unit: "ms", better: "lower", bound: 0.25 },
    EndToEndMetric { name: "batch_gap_p95_ms", unit: "ms", better: "lower", bound: 0.25 },
    EndToEndMetric { name: "peak_rss_mb", unit: "MiB", better: "lower", bound: 0.25 },
    EndToEndMetric { name: "setup_s", unit: "s", better: "lower", bound: 0.25 },
];

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPEATS: usize = 3;

/// `run_seconds` of `BENCHMARK.json`, and the default of `--seconds`.
const RUN_SECONDS: u32 = 24;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut parsed =
        Args { workload: String::new(), seed: 7, seconds: RUN_SECONDS.into(), trace: false };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag} {value:?} is not {what}");
        match flag.as_str() {
            "--workload" => parsed.workload = value.clone(),
            "--seed" => parsed.seed = value.parse().map_err(|_| bad("a whole number"))?,
            "--seconds" => {
                parsed.seconds = value.parse().map_err(|_| bad("a number of seconds"))?;
                if !(parsed.seconds > 0.0 && parsed.seconds <= 600.0) {
                    return Err(bad("between 0 and 600"));
                }
            }
            "--trace" => {
                parsed.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                }
            }
            _ => return Err(format!("unknown argument {flag:?}")),
        }
    }
    if !WORKLOADS.iter().any(|w| w.name == parsed.workload) {
        let names: Vec<_> = WORKLOADS.iter().map(|w| w.name).collect();
        return Err(format!("--workload must be one of {}", names.join(", ")));
    }
    Ok(parsed)
}

/// Set-up: datasets, plans, serial reference, then one epoch through the
/// workload's executor with every batch fingerprinted against it.
fn set_up(args: &Args, total: &mut EpochOutcome) -> Result<Workload, String> {
    let workload = Workload::build(&args.workload, args.seed)?;
    let gate = workload.run_epoch(0, Checking::Full, false)?.outcome();
    total.absorb(gate);
    if gate.failed > 0 {
        return Err(format!("the gate failed {} of {} units", gate.failed, gate.attempted));
    }
    Ok(workload)
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Share of the timed epochs the time metrics are taken from: the quieter
/// half, by wall time per row. The host steals cycles from this box in
/// bursts, which only ever adds time; over 16 runs of each workload the
/// quieter half repeated a quarter to a half tighter than all epochs
/// (README.md has the table).
const QUIET_SHARE: f64 = 0.5;

/// What the consuming loop measured of one timed epoch.
struct EpochSample {
    /// Spawn/submit to joined.
    wall_s: f64,
    /// Process CPU (user + system, every thread) over the same interval.
    cpu_s: f64,
    rows: u64,
    first_ms: f64,
    gaps_ms: Vec<f64>,
}

struct Summary {
    epochs: usize,
    gap_samples: usize,
    rows_per_s: f64,
    cpu_s_per_mrow: f64,
    first_batch_ms: f64,
    batch_gap_p50_ms: f64,
    batch_gap_p95_ms: f64,
    batch_gap_p99_ms: f64,
}

/// The time metrics over the `share` of `samples` with the least wall time
/// per row: rows and CPU as totals over those epochs, first batch as their
/// median, gaps pooled.
fn summarize(samples: &[EpochSample], share: f64) -> Summary {
    let mut by_pace: Vec<&EpochSample> = samples.iter().collect();
    by_pace.sort_by(|a, b| (a.wall_s / a.rows as f64).total_cmp(&(b.wall_s / b.rows as f64)));
    by_pace.truncate(((samples.len() as f64 * share).ceil() as usize).clamp(1, samples.len()));
    let rows: u64 = by_pace.iter().map(|s| s.rows).sum();
    let mut firsts: Vec<f64> = by_pace.iter().map(|s| s.first_ms).collect();
    let mut gaps: Vec<f64> = by_pace.iter().flat_map(|s| s.gaps_ms.iter().copied()).collect();
    let gaps = stats::sorted(&mut gaps);
    Summary {
        epochs: by_pace.len(),
        gap_samples: gaps.len(),
        rows_per_s: rows as f64 / by_pace.iter().map(|s| s.wall_s).sum::<f64>(),
        cpu_s_per_mrow: by_pace.iter().map(|s| s.cpu_s).sum::<f64>() / (rows as f64 / 1e6),
        first_batch_ms: stats::median(&mut firsts),
        batch_gap_p50_ms: stats::percentile(gaps, 0.5),
        batch_gap_p95_ms: stats::percentile(gaps, 0.95),
        batch_gap_p99_ms: stats::percentile(gaps, 0.99),
    }
}

/// The untraced run: the metrics in `END_TO_END` order, and the unit tally.
fn run_untraced(args: &Args, process_start: Instant) -> Result<(Vec<f64>, EpochOutcome), String> {
    let mut total = EpochOutcome::default();
    let mut setups = Vec::with_capacity(SETUP_REPEATS);
    let mut workload = None;
    for repeat in 0..SETUP_REPEATS {
        // Release the previous copy first, so that peak memory is one
        // set-up's and the free is not timed.
        drop(workload.take());
        let started = if repeat == 0 { process_start } else { Instant::now() };
        workload = Some(set_up(args, &mut total)?);
        setups.push(started.elapsed().as_secs_f64());
    }
    let workload = workload.expect("SETUP_REPEATS is at least one");

    let mut samples = Vec::new();
    let timed = Instant::now();
    let mut epoch = 0u64;
    while timed.elapsed().as_secs_f64() < args.seconds {
        epoch += 1;
        let cpu_before = stats::cpu_seconds();
        let run = workload.run_epoch(epoch, Checking::Identity, false)?;
        let cpu_s = stats::cpu_seconds() - cpu_before;
        let outcome = run.outcome();
        total.absorb(outcome);
        if let Some(first) = run.first().filter(|_| outcome.failed == 0) {
            samples.push(EpochSample {
                wall_s: run.wall.as_secs_f64(),
                cpu_s,
                rows: outcome.rows,
                first_ms: ms(first),
                gaps_ms: run.tenants.iter().flat_map(|t| t.gaps.iter().copied().map(ms)).collect(),
            });
        }
    }
    let wall = timed.elapsed().as_secs_f64();
    if samples.is_empty() {
        return Err("no epoch was delivered whole".into());
    }

    let quiet = summarize(&samples, QUIET_SHARE);
    let whole = summarize(&samples, 1.0);
    let metrics = vec![
        quiet.rows_per_s,
        quiet.cpu_s_per_mrow,
        quiet.first_batch_ms,
        quiet.batch_gap_p95_ms,
        stats::peak_rss_mib(),
        stats::median(&mut setups),
    ];
    println!(
        "{}: seed {}, {epoch} epochs of {} units / {} rows in {wall:.3} s timed \
         (closed loop, {} busy threads)\n  why: {}",
        workload.info.name,
        args.seed,
        workload.units(),
        workload.rows(),
        workloads::BUSY_THREADS,
        workload.info.why,
    );
    for (metric, value) in END_TO_END.iter().zip(&metrics) {
        println!(
            "  {:<18} {value:>14.4} {:<7} ({} is better, may worsen by {:.0}%)",
            metric.name,
            metric.unit,
            metric.better,
            metric.bound * 100.0
        );
    }
    println!(
        "  time metrics are over the {} quieter of {} epochs ({} gap samples); over all of \
         them: {:.1} rows/s, {:.4} s/Mrow, first batch {:.4} ms, gaps p50 {:.4} / p95 {:.4} / \
         p99 {:.4} ms ({} samples)",
        quiet.epochs,
        samples.len(),
        quiet.gap_samples,
        whole.rows_per_s,
        whole.cpu_s_per_mrow,
        whole.first_batch_ms,
        whole.batch_gap_p50_ms,
        whole.batch_gap_p95_ms,
        whole.batch_gap_p99_ms,
        whole.gap_samples,
    );
    let mut rates: Vec<f64> = samples.iter().map(|s| s.rows as f64 / s.wall_s).collect();
    let rates = stats::sorted(&mut rates);
    println!(
        "  per-epoch rows/s: p10 {:.0}, p50 {:.0}, p90 {:.0}; set-ups {:?} s",
        stats::percentile(rates, 0.1),
        stats::percentile(rates, 0.5),
        stats::percentile(rates, 0.9),
        setups,
    );
    println!("  ops_attempted {} ops_failed {}", total.attempted, total.failed);
    Ok((metrics, total))
}

/// The traced run: streamed epochs with a span per delivered unit
/// (alternating with untraced ones, which price the tracing), then the
/// layer walk. Returns the per-layer metrics in `PER_LAYER` order.
fn run_traced(args: &Args) -> Result<(Vec<f64>, EpochOutcome), String> {
    let mut total = EpochOutcome::default();
    let workload = set_up(args, &mut total)?;
    let mut tracer = Tracer::new();
    let mut probe = StreamProbe::default();
    let streamed = Instant::now();
    let mut epoch = 0u64;
    // A tenth of the run traced, a tenth untraced, epoch about.
    while probe.traced_epochs < 2 || streamed.elapsed().as_secs_f64() < args.seconds * 0.2 {
        epoch += 1;
        let plain = workload.run_epoch(epoch, Checking::Identity, false)?;
        total.absorb(plain.outcome());
        probe.untraced_rows += plain.outcome().rows;
        probe.untraced_wall += plain.wall;
        epoch += 1;
        let traced = workload.run_epoch(epoch, Checking::Identity, true)?;
        total.absorb(traced.outcome());
        probe.traced_wall += traced.wall;
        probe.traced_epochs += 1;
        let mut first_unit = 0;
        for (tenant, drained) in workload.tenants.iter().zip(&traced.tenants) {
            for &(unit, from, to) in &drained.deliveries {
                tracer.record("stream.unit", epoch as u32, (first_unit + unit) as u32, from, to);
            }
            first_unit += tenant.reference.units().len();
            if let Some(recovery) = drained.stats.as_ref().and_then(|s| s.recovery.as_ref()) {
                probe.faults += recovery.faults;
                probe.retries += recovery.retries;
                probe.failovers += recovery.failovers;
            }
        }
    }
    let budget = Duration::from_secs_f64(args.seconds * 0.5);
    let ledger = layers::ledger(&workload, &mut tracer, budget, &probe)?;
    let path = format!("trace-{}.json", workload.info.name);
    tracer.write_json(&path, workload.info.name, args.seed).map_err(|e| format!("{path}: {e}"))?;

    println!(
        "{}: seed {}, traced run — {} streamed epochs traced, {} spans in {path}",
        workload.info.name,
        args.seed,
        probe.traced_epochs,
        tracer.spans().len(),
    );
    let mut metrics = Vec::with_capacity(PER_LAYER.len());
    for metric in PER_LAYER {
        let value = *ledger
            .get(metric.name)
            .ok_or_else(|| format!("the ledger did not produce {}", metric.name))?;
        println!(
            "  {:<44} {value:>16.4} {:<7} ({} is better)",
            metric.name, metric.unit, metric.better
        );
        metrics.push(value);
    }
    println!("  ops_attempted {} ops_failed {}", total.attempted, total.failed);
    Ok((metrics, total))
}

/// The driver's result line: one JSON object, values with all their digits.
fn result_line(names: &[(&str, &str)], values: &[f64], total: EpochOutcome) -> String {
    let metrics: Vec<String> = names
        .iter()
        .zip(values)
        .map(|((name, unit), value)| {
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        total.failed == 0,
        total.attempted,
        total.failed,
        metrics.join(", ")
    )
}

/// Build and host facts a reader needs beside the numbers.
fn print_provenance() {
    let run = |program: &str, args: &[&str]| {
        std::process::Command::new(program)
            .args(args)
            .stderr(std::process::Stdio::null())
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_owned())
            .unwrap_or_else(|| "unknown".to_owned())
    };
    println!(
        "  nproc {}; {}; commit {}",
        std::thread::available_parallelism().map_or(0, usize::from),
        run("rustc", &["--version"]),
        run("git", &["rev-parse", "--short", "HEAD"]),
    );
}

/// The first environment variable the library might read. `--seed` and
/// `--workload` are the only inputs: `WritePolicy::from_env` lets
/// `PRESTO_FORCE_ENCODING` change the stored encodings, and with them every
/// number this binary prints.
fn presto_variable(names: impl IntoIterator<Item = std::ffi::OsString>) -> Option<String> {
    names.into_iter().map(|n| n.to_string_lossy().into_owned()).find(|n| n.starts_with("PRESTO_"))
}

fn main() -> ExitCode {
    let process_start = Instant::now();
    if let Some(name) = presto_variable(std::env::vars_os().map(|(name, _)| name)) {
        eprintln!("presto-e2e: refusing to run with {name} set: the inputs must be hermetic");
        return ExitCode::from(2);
    }
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().is_some_and(|a| a == "aa") {
        return aa::main(&argv[1..]);
    }
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("presto-e2e: {e}");
            eprintln!(
                "usage: presto-e2e --workload <name> [--seed 7] [--seconds {RUN_SECONDS}] \
                 [--trace 0|1]\n       presto-e2e aa [--sets 2] [--runs 5] [--seconds {RUN_SECONDS}]"
            );
            return ExitCode::from(2);
        }
    };
    let outcome = if args.trace {
        let names: Vec<_> = PER_LAYER.iter().map(|m| (m.name, m.unit)).collect();
        run_traced(&args).map(|(values, total)| (result_line(&names, &values, total), total))
    } else {
        let names: Vec<_> = END_TO_END.iter().map(|m| (m.name, m.unit)).collect();
        run_untraced(&args, process_start)
            .map(|(values, total)| (result_line(&names, &values, total), total))
    };
    match outcome {
        Ok((line, total)) => {
            print_provenance();
            println!("{line}");
            if total.failed == 0 {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("presto-e2e: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests;
