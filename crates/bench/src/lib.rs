//! # presto-bench
//!
//! The reproduction harness for PreSto (ISCA 2024). Every table, figure
//! and ablation of the evaluation is one entry of [`EXPERIMENTS`], and the
//! `repro-all` binary runs them in-process — all of them in paper order,
//! or the ones named on its command line — each printing the paper's
//! reported value next to the model's output:
//!
//! ```text
//! cargo run --release -p presto-bench --bin repro-all               # all 20
//! cargo run --release -p presto-bench --bin repro-all fig12 table1  # just those
//! ```
//!
//! Sizes and seeds are constants: no experiment reads an option or the
//! environment.
//!
//! | Name | Experiment |
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
//! | `ablation-isp` | ISP design choices: PE scaling, double buffering, feed path, dispatch overhead |
//! | `ablation-queue` | Input-queue depth and provisioning headroom |
//! | `ablation-stream` | The streaming executor on real data (measured, so its rows vary run to run) |
//! | `ablation-chaos` | Goodput vs injected transient-fault rate, host vs ISP fleet (measured) |
//! | `ablation-tenants` | Three tenants on one service pool: per-job report and fairness (measured) |
//! | `ablation-shuffle` | Shuffle granularity vs MiB read per epoch, by rows per group |
//! | `ablation-pushdown` | Prefix pushdown on long histories: requirements, Extract time (measured), bytes per row |
//!
//! The speed of the real kernels, the columnar codec and the executors is
//! measured by the end-to-end benchmark `presto-e2e` (its own README) and
//! its `--trace 1` per-layer ledger, not here. The package's third binary,
//! `columnar-inspect`, is the columnar format's command-line inspector.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod deployment;
pub mod efficiency;
pub mod experiments;
pub mod report;

mod ablation;
mod paper;

use presto_hwsim::breakdown::{Stage, StageBreakdown};
use report::TextTable;

/// Every experiment `repro-all` can run, by name, in paper order.
pub const EXPERIMENTS: [(&str, fn()); 20] = [
    ("table1", paper::table1),
    ("table2", paper::table2),
    ("fig03", paper::fig03),
    ("fig04", paper::fig04),
    ("fig05", paper::fig05),
    ("fig06", paper::fig06),
    ("fig11", paper::fig11),
    ("fig12", paper::fig12),
    ("fig13", paper::fig13),
    ("fig14", paper::fig14),
    ("fig15", paper::fig15),
    ("fig16", paper::fig16),
    ("fig17", paper::fig17),
    ("ablation-isp", ablation::isp),
    ("ablation-queue", ablation::queue),
    ("ablation-stream", ablation::stream),
    ("ablation-chaos", ablation::chaos),
    ("ablation-tenants", ablation::tenants),
    ("ablation-shuffle", ablation::shuffle),
    ("ablation-pushdown", ablation::pushdown),
];

/// Prints a standard experiment banner with the paper's headline claim.
fn banner(experiment: &str, paper_claim: &str) {
    println!("==================================================================");
    println!("{experiment}");
    println!("paper: {paper_claim}");
    println!("==================================================================");
}

/// Adds a breakdown's stage shares to a table as percentage cells.
fn breakdown_row(label: &str, b: &StageBreakdown) -> Vec<String> {
    let total = b.total().seconds();
    let mut row = vec![label.to_owned()];
    for stage in Stage::ALL {
        row.push(format!("{:.1}%", 100.0 * b.stage(stage).seconds() / total));
    }
    row.push(format!("{:.1} ms", total * 1e3));
    row
}

/// Header matching [`breakdown_row`].
fn breakdown_header() -> Vec<String> {
    let mut h = vec!["system".to_owned()];
    h.extend(Stage::ALL.iter().map(|s| s.label().to_owned()));
    h.push("total".to_owned());
    h
}

/// Renders and prints a table.
fn print_table(table: &TextTable) {
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
