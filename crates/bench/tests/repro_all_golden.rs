//! `repro-all` with no arguments prints every table, figure and ablation of
//! the model, and that text depends on nothing but the source: no clock, no
//! core count, no entropy. This test pins it byte for byte against
//! `repro-all.golden`. A change that moves a model number updates the file
//! in the same commit:
//!
//! ```text
//! cargo run -p presto-bench --bin repro-all > crates/bench/tests/repro-all.golden
//! ```

use std::process::Command;

const GOLDEN: &str = include_str!("repro-all.golden");

#[test]
fn repro_all_prints_the_golden_file() {
    let output = Command::new(env!("CARGO_BIN_EXE_repro-all")).output().expect("repro-all runs");
    assert!(output.status.success(), "repro-all exited with {}", output.status);
    let stdout = String::from_utf8(output.stdout).expect("repro-all prints UTF-8");
    if stdout == GOLDEN {
        return;
    }
    let (mut got, mut want) = (stdout.lines(), GOLDEN.lines());
    for line in 1.. {
        match (got.next(), want.next()) {
            (Some(g), Some(w)) if g == w => continue,
            (None, None) => panic!("repro-all differs from repro-all.golden in line endings only"),
            (g, w) => panic!(
                "repro-all differs from repro-all.golden at line {line}:\n  \
                 printed: {}\n  golden:  {}\n\
                 (an intended model change regenerates the file: \
                 cargo run -p presto-bench --bin repro-all > crates/bench/tests/repro-all.golden)",
                g.unwrap_or("(end of output)"),
                w.unwrap_or("(end of file)"),
            ),
        }
    }
}
