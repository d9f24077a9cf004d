//! Runs every table/figure reproduction in sequence; each prints the
//! paper's value next to the model's, and `tests/paper_shape.rs` pins the
//! same claims as bands.

use std::process::Command;

fn main() {
    let binaries = [
        "table1", "table2", "fig03", "fig04", "fig05", "fig06", "fig11", "fig12", "fig13", "fig14",
        "fig15", "fig16", "fig17",
    ];
    // Prefer running sibling binaries from the same build directory.
    let self_path = std::env::current_exe().expect("current exe path");
    let dir = self_path.parent().expect("exe dir").to_path_buf();
    for bin in binaries {
        let path = dir.join(bin);
        let status = if path.exists() {
            Command::new(&path).status()
        } else {
            Command::new("cargo")
                .args(["run", "--quiet", "-p", "presto-bench", "--bin", bin])
                .status()
        };
        match status {
            Ok(s) if s.success() => println!(),
            Ok(s) => {
                eprintln!("{bin} exited with {s}");
                std::process::exit(1);
            }
            Err(e) => {
                eprintln!("failed to launch {bin}: {e}");
                std::process::exit(1);
            }
        }
    }
    println!("All 2 tables and 11 figures reproduced, each next to the paper's values;");
    println!("`cargo test --test paper_shape` asserts the same claims as bands.");
}
