//! Ablation study of the ISP accelerator's design choices (the knobs of
//! `presto_hwsim::fpga::IspModel`): PE scaling, double buffering, feed
//! path and per-stage dispatch overhead. All runs use RM5, the paper's
//! heaviest model.

use presto_bench::{banner, print_table};
use presto_datagen::{RmConfig, WorkloadProfile};
use presto_hwsim::fpga::{FeedPath, IspModel};
use presto_hwsim::units::Secs;
use presto_metrics::{samples_per_sec, TextTable};

fn main() {
    banner(
        "Ablation: ISP design choices (RM5)",
        "quantifies the Sec. IV-C design decisions the paper motivates qualitatively",
    );
    let profile = WorkloadProfile::from_config(&RmConfig::rm5());
    let base = IspModel::smartssd();
    let base_lat = base.latency(&profile);
    let base_tput = base.throughput(&profile);

    // 1. PE-count sweep.
    let mut t =
        TextTable::new(vec!["unit scale", "latency (ms)", "throughput (samples/s)", "vs baseline"]);
    for scale in [0.5f64, 1.0, 2.0, 4.0] {
        let m = IspModel::smartssd().with_unit_scale(scale);
        let tput = m.throughput(&profile);
        t.row(vec![
            format!("{scale}x"),
            format!("{:.1}", m.latency(&profile).millis()),
            samples_per_sec(tput),
            format!("{:.2}x", tput / base_tput),
        ]);
    }
    println!("-- PE-count sweep (all units scaled together) --");
    print_table(&t);
    println!("Doubling units helps sub-linearly: the P2P feed and DRAM-bound");
    println!("format stage do not scale with PEs (why the paper right-sizes");
    println!("units to the 25 W envelope instead of maximizing them).\n");

    // 2. Double buffering.
    let no_db = IspModel::smartssd().without_double_buffering();
    let mut t =
        TextTable::new(vec!["double buffering", "latency (ms)", "throughput", "speedup lost"]);
    t.row(vec![
        "on (paper design)".to_owned(),
        format!("{:.1}", base_lat.millis()),
        samples_per_sec(base_tput),
        "-".to_owned(),
    ]);
    let lat = no_db.latency(&profile);
    t.row(vec![
        "off".to_owned(),
        format!("{:.1}", lat.millis()),
        samples_per_sec(no_db.throughput(&profile)),
        format!("{:.0}%", 100.0 * (lat.seconds() / base_lat.seconds() - 1.0)),
    ]);
    println!("-- Double buffering (Sec. IV-C intra-feature overlap) --");
    print_table(&t);

    // 3. Feed path.
    let mut t = TextTable::new(vec!["feed path", "extract read (ms)", "latency (ms)"]);
    for (label, m) in [
        ("P2P (SmartSSD)", IspModel::smartssd()),
        ("host-staged", IspModel::smartssd().with_feed(FeedPath::HostStaged)),
    ] {
        let b = m.stage_breakdown(&profile);
        t.row(vec![
            label.to_owned(),
            format!("{:.1}", b.extract_read.millis()),
            format!("{:.1}", b.total().millis()),
        ]);
    }
    println!("-- Feed path: P2P vs host-staged --");
    print_table(&t);
    println!("Host staging is faster per device (3.2 GB/s host path vs 1.2 GB/s");
    println!("P2P) but costs host CPU/PCIe bandwidth and breaks the drop-in");
    println!("deployment story; P2P keeps preprocessing self-contained.\n");

    // 4. Dispatch-overhead sweep (matters most for small models).
    let rm1 = WorkloadProfile::from_config(&RmConfig::rm1());
    let mut t = TextTable::new(vec![
        "stage overhead",
        "RM1 latency (ms)",
        "RM5 latency (ms)",
        "RM1 speedup vs Disagg",
    ]);
    let disagg_rm1 = presto_core::systems::System::disagg(1).worker_latency(&rm1).seconds();
    for overhead_ms in [0.0f64, 0.5, 1.5, 5.0] {
        let m = IspModel::smartssd().with_stage_overhead(Secs::from_millis(overhead_ms));
        t.row(vec![
            format!("{overhead_ms} ms"),
            format!("{:.1}", m.latency(&rm1).millis()),
            format!("{:.1}", m.latency(&profile).millis()),
            format!("{:.1}x", disagg_rm1 / m.latency(&rm1).seconds()),
        ]);
    }
    println!("-- Kernel-dispatch overhead sweep --");
    print_table(&t);
    println!("Dispatch overhead is why RM1's speedup (Fig. 12) trails the");
    println!("production models': six 1.5 ms stage launches are a third of its");
    println!("entire preprocessing budget.");
}
