//! # presto-bench
//!
//! Benchmark harness for the PreSto reproduction (ISCA 2024). One binary
//! per table/figure regenerates the paper's rows and prints the paper's
//! reported value next to the model's output:
//!
//! | Binary | Experiment |
//! |---|---|
//! | `table1` | Table I — dataset/model configurations |
//! | `table2` | Table II — FPGA resource utilization |
//! | `fig03` | Throughput & GPU utilization vs co-located cores |
//! | `fig04` | CPU cores required for 8×A100 |
//! | `fig05` | Single-worker latency breakdown |
//! | `fig06` | CPU/memory/LLC characterization |
//! | `fig11` | Disagg(N) vs PreSto throughput |
//! | `fig12` | Latency breakdown Disagg vs PreSto + speedup |
//! | `fig13` | Aggregate RPC time |
//! | `fig14` | ISP units & CPU cores for 8×A100 |
//! | `fig15` | Energy- and cost-efficiency |
//! | `fig16` | Accelerated alternatives (A100/U280/PreSto) |
//! | `fig17` | Sensitivity to feature count |
//! | `repro-all` | Everything above in sequence |
//!
//! Criterion benches (`cargo bench`) measure the *real* kernels in
//! `presto-ops` and the columnar codec, not the simulation. The end-to-end
//! benchmark is `presto-e2e` (its own README).

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

use presto_hwsim::breakdown::{Stage, StageBreakdown};
use presto_metrics::TextTable;

/// Prints a standard experiment banner with the paper's headline claim.
pub fn banner(experiment: &str, paper_claim: &str) {
    println!("==================================================================");
    println!("{experiment}");
    println!("paper: {paper_claim}");
    println!("==================================================================");
}

/// Adds a breakdown's stage shares to a table as percentage cells.
#[must_use]
pub fn breakdown_row(label: &str, b: &StageBreakdown) -> Vec<String> {
    let total = b.total().seconds();
    let mut row = vec![label.to_owned()];
    for stage in Stage::ALL {
        row.push(format!("{:.1}%", 100.0 * b.stage(stage).seconds() / total));
    }
    row.push(format!("{:.1} ms", total * 1e3));
    row
}

/// Header matching [`breakdown_row`].
#[must_use]
pub fn breakdown_header() -> Vec<String> {
    let mut h = vec!["system".to_owned()];
    h.extend(Stage::ALL.iter().map(|s| s.label().to_owned()));
    h.push("total".to_owned());
    h
}

/// Renders and prints a table.
pub fn print_table(table: &TextTable) {
    print!("{}", table.render());
    println!();
}

#[cfg(test)]
mod tests {
    use super::*;
    use presto_hwsim::units::Secs;

    #[test]
    fn breakdown_row_shares_sum_to_100() {
        let b = StageBreakdown {
            extract_read: Secs::from_millis(10.0),
            extract_decode: Secs::from_millis(10.0),
            bucketize: Secs::from_millis(20.0),
            sigridhash: Secs::from_millis(20.0),
            log: Secs::from_millis(20.0),
            format: Secs::from_millis(10.0),
            other: Secs::from_millis(5.0),
            load: Secs::from_millis(5.0),
        };
        let row = breakdown_row("x", &b);
        assert_eq!(row.len(), breakdown_header().len());
        let sum: f64 = row[1..row.len() - 1]
            .iter()
            .map(|c| c.trim_end_matches('%').parse::<f64>().unwrap())
            .sum();
        assert!((sum - 100.0).abs() < 0.5, "shares sum {sum}");
        assert!(row.last().unwrap().contains("100.0 ms"));
    }
}
