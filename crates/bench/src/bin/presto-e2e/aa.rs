//! `presto-e2e aa`: the noise table. Runs every workload untraced in
//! interleaved sets of the same code, each run in a fresh process with its
//! own seed, and prints per metric each set's quartiles and relative
//! spread. Fails when a later set's median is worse than the first's by
//! more than the metric's bound, or a set's spread exceeds it — the rule a
//! later change is judged by must first hold between two copies of the same
//! code.

use crate::stats::{quartiles, relative_spread};
use crate::workloads::WORKLOADS;
use crate::END_TO_END;
use std::process::{Command, ExitCode, Stdio};

/// Pulls `"name": {"value": <number>` out of a result line this binary
/// printed.
pub fn metric_value(line: &str, name: &str) -> Option<f64> {
    let key = format!("\"{name}\": {{\"value\": ");
    let rest = &line[line.find(&key)? + key.len()..];
    rest[..rest.find([',', '}'])?].trim().parse().ok()
}

fn run_once(workload: &str, seed: u64, seconds: f64) -> Result<String, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let output = Command::new(exe)
        .args(["--workload", workload, "--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string(), "--trace", "0"])
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("spawn: {e}"))?;
    if !output.status.success() {
        return Err(format!("{workload} seed {seed} exited with {}", output.status));
    }
    let stdout = String::from_utf8_lossy(&output.stdout);
    stdout.lines().last().map(str::to_owned).ok_or_else(|| format!("{workload}: no output"))
}

pub fn main(args: &[String]) -> ExitCode {
    let (mut sets, mut runs, mut seed) = (2usize, 5usize, 7u64);
    let mut seconds = f64::from(crate::RUN_SECONDS);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().map(String::as_str).unwrap_or("");
        let ok = match flag.as_str() {
            "--sets" => value.parse().map(|v| sets = v).is_ok(),
            "--runs" => value.parse().map(|v| runs = v).is_ok(),
            "--seconds" => value.parse().map(|v| seconds = v).is_ok(),
            "--seed" => value.parse().map(|v| seed = v).is_ok(),
            _ => false,
        };
        if !ok || sets < 2 || runs < 2 {
            eprintln!("usage: presto-e2e aa [--sets 2] [--runs 5] [--seconds n] [--seed 7]");
            return ExitCode::from(2);
        }
    }

    // lines[set][workload] = result lines of that set's runs.
    let mut lines = vec![vec![Vec::new(); WORKLOADS.len()]; sets];
    for run in 0..runs {
        for (set, of_set) in lines.iter_mut().enumerate() {
            for (workload, of_workload) in WORKLOADS.iter().zip(of_set) {
                let run_seed = seed + (run * sets + set) as u64;
                eprintln!("aa: set {set} run {run}: {} seed {run_seed}", workload.name);
                match run_once(workload.name, run_seed, seconds) {
                    Ok(line) => of_workload.push(line),
                    Err(e) => {
                        eprintln!("presto-e2e aa: {e}");
                        return ExitCode::FAILURE;
                    }
                }
            }
        }
    }

    let mut failed = false;
    println!("A/A noise table: {sets} sets x {runs} runs x {seconds} s, seeds from {seed}");
    println!(
        "{:<20} {:<17} {:>4} {:>12} {:>12} {:>12} {:>8} {:>8}",
        "workload", "metric", "set", "q1", "median", "q3", "spread", "shift"
    );
    for (w, workload) in WORKLOADS.iter().enumerate() {
        for metric in &END_TO_END {
            let mut medians = Vec::with_capacity(sets);
            for (set, of_set) in lines.iter().enumerate() {
                let mut values: Vec<f64> =
                    of_set[w].iter().filter_map(|l| metric_value(l, metric.name)).collect();
                if values.len() != runs {
                    eprintln!("presto-e2e aa: {} lacks {}", workload.name, metric.name);
                    return ExitCode::FAILURE;
                }
                let [q1, median, q3] = quartiles(&mut values);
                let spread = relative_spread(&mut values);
                // How much worse this set's median is than the first's.
                let shift = medians.first().map_or(0.0, |&base: &f64| match metric.better {
                    "higher" => (base - median) / base,
                    _ => (median - base) / base,
                });
                let over = spread > metric.bound && metric.name != "setup_s";
                let moved = shift > metric.bound;
                failed |= over || moved;
                println!(
                    "{:<20} {:<17} {set:>4} {q1:>12.4} {median:>12.4} {q3:>12.4} {:>7.2}% {:>7.2}%{}",
                    workload.name,
                    metric.name,
                    spread * 100.0,
                    shift * 100.0,
                    if over || moved { "  <-- exceeds the bound" } else { "" },
                );
                medians.push(median);
            }
        }
    }
    if failed {
        eprintln!("presto-e2e aa: a spread or a shift between sets exceeds its metric's bound");
        return ExitCode::FAILURE;
    }
    println!("every set-to-set shift and every spread is within its metric's bound");
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metric_value_reads_a_result_line() {
        let line = crate::result_line(
            &[("rows_per_s", "rows/s"), ("setup_s", "s")],
            &[68123.4567, 0.75],
            crate::verify::EpochOutcome { attempted: 10, failed: 0, errors: 0, rows: 5 },
        );
        assert_eq!(metric_value(&line, "rows_per_s"), Some(68123.4567));
        assert_eq!(metric_value(&line, "setup_s"), Some(0.75));
        assert_eq!(metric_value(&line, "absent"), None);
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 10, \"failed\": 0, "));
    }
}
