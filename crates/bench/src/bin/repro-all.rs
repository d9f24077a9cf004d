//! Runs the paper's tables, figures and ablations in-process:
//!
//! ```text
//! repro-all [NAME ...]
//! ```
//!
//! With no names, every entry of [`presto_bench::EXPERIMENTS`] in paper
//! order; otherwise the named ones, in the order given, separated by a
//! blank line. An unknown name prints the list of names and exits 2 before
//! anything runs. Each experiment prints the paper's value next to the
//! model's, and `tests/paper_shape.rs` pins the same claims as bands.

use presto_bench::EXPERIMENTS;
use std::process::ExitCode;

fn main() -> ExitCode {
    let names: Vec<String> = std::env::args().skip(1).collect();
    let mut chosen: Vec<fn()> = Vec::new();
    for name in &names {
        let Some(&(_, run)) = EXPERIMENTS.iter().find(|(known, _)| known == name) else {
            let known: Vec<&str> = EXPERIMENTS.iter().map(|&(known, _)| known).collect();
            eprintln!("unknown experiment `{name}`; the experiments are: {}", known.join(" "));
            return ExitCode::from(2);
        };
        chosen.push(run);
    }
    if names.is_empty() {
        chosen = EXPERIMENTS.iter().map(|&(_, run)| run).collect();
    }
    for (i, run) in chosen.into_iter().enumerate() {
        if i > 0 {
            println!();
        }
        run();
    }
    ExitCode::SUCCESS
}
