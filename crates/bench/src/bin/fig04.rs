//! Fig. 4 — CPU cores required for CPU-centric preprocessing to fully
//! utilize a training node with 8 A100 GPUs.

use presto_bench::{banner, print_table};
use presto_core::experiments::fig4;
use presto_metrics::TextTable;

fn main() {
    banner(
        "Fig. 4: CPU cores required to feed 8x A100",
        "up to 367 cores for RM5; hundreds of cores for production-scale models",
    );
    let mut t = TextTable::new(vec!["model", "CPU cores (model)", "paper (approx.)"]);
    let paper = ["~40", "~300", "~320", "~340", "367"];
    for ((model, cores), p) in fig4().into_iter().zip(paper) {
        t.row(vec![model, cores.to_string(), p.to_owned()]);
    }
    print_table(&t);
    println!("Shape check: production-scale models (RM2-5) require hundreds of");
    println!("cores; RM1 requires tens. Exact values depend on the calibrated");
    println!("per-core throughput and A100 training demand (presto_hwsim::calib).");
}
