//! Ablations beyond the paper's figures: the ISP accelerator's design
//! choices, the input queue and provisioning headroom, and shuffle
//! granularity.

use crate::report::{percent, samples_per_sec, TextTable};
use crate::{banner, print_table};
use presto_columnar::FileReader;
use presto_core::pipeline::{simulate, PipelineConfig};
use presto_core::provision::Provisioner;
use presto_core::systems::System;
use presto_datagen::{Dataset, RmConfig, WorkloadProfile};
use presto_hwsim::fpga::{FeedPath, IspModel};
use presto_hwsim::gpu::GpuTrainModel;
use presto_hwsim::units::Secs;
use presto_ops::PreprocessPlan;

/// The ISP accelerator's design choices (the knobs of
/// `presto_hwsim::fpga::IspModel`): PE scaling, double buffering, feed
/// path and per-stage dispatch overhead. All runs use RM5, the paper's
/// heaviest model.
pub(crate) fn isp() {
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
    let disagg_rm1 = System::disagg(1).worker_latency(&rm1).seconds();
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

/// Input-queue depth and provisioning headroom in the producer–consumer
/// pipeline (Fig. 9's input queue).
pub(crate) fn queue() {
    banner(
        "Ablation: input-queue depth and provisioning headroom (RM5, 8x A100)",
        "the paper sizes fleets at exactly ceil(T/P); this quantifies the slack those choices leave",
    );
    let gpu = GpuTrainModel::a100();
    let config = RmConfig::rm5();
    let p = Provisioner::poc();
    let exact = p.isp_units_required(&config, 8);

    // 1. Queue-depth sweep at exact provisioning.
    let mut t = TextTable::new(vec!["queue capacity", "GPU utilization", "peak queue"]);
    for capacity in [1usize, 2, 4, 8, 16, 64] {
        let report = simulate(
            &System::presto_smartssd(exact),
            &gpu,
            &config,
            &PipelineConfig { batches: 256, queue_capacity: capacity, num_gpus: 8 },
        );
        t.row(vec![
            capacity.to_string(),
            percent(report.gpu_utilization),
            report.peak_queue.to_string(),
        ]);
    }
    println!("-- Queue depth at exact ceil(T/P) = {exact} SmartSSDs --");
    print_table(&t);

    // 2. Provisioning headroom sweep at queue capacity 8.
    let mut t = TextTable::new(vec!["ISP units", "vs ceil(T/P)", "GPU utilization"]);
    for delta in [-2i64, -1, 0, 1, 2] {
        let units = (exact as i64 + delta).max(1) as usize;
        let report = simulate(
            &System::presto_smartssd(units),
            &gpu,
            &config,
            &PipelineConfig { batches: 256, queue_capacity: 8, num_gpus: 8 },
        );
        t.row(vec![units.to_string(), format!("{delta:+}"), percent(report.gpu_utilization)]);
    }
    println!("-- Provisioning headroom --");
    print_table(&t);
    println!("One unit below ceil(T/P) costs utilization immediately; one above");
    println!("buys margin for failures (see the retry / failover policy in");
    println!("presto_ops::recovery::RetryPolicy) at one SmartSSD's 25 W.");
}

/// Shuffle granularity vs read amplification: the same RM1 rows written at
/// several rows-per-group settings, and the bytes one shuffled epoch reads
/// — every chunk of every plan-projected column, summed from each file's
/// row-group index. Smaller groups sharpen the shuffle but re-pay chunk
/// headers and encoder restarts.
pub(crate) fn shuffle() {
    banner(
        "Ablation: shuffle granularity vs read amplification (RM1, 2 x 1024 rows)",
        "row groups at the mini-batch size: uniform batches at one ranged read per column",
    );
    const ROWS: usize = 1024;
    const MINI_BATCH: usize = 256;
    let config = RmConfig::rm1();
    let plan = PreprocessPlan::from_config(&config, 1).expect("plan");
    let mut sweep = Vec::new();
    for group_rows in [1, 32, MINI_BATCH, ROWS] {
        let ds = Dataset::generate_grouped(&config, 2, ROWS, 2, 7, group_rows).expect("dataset");
        let (mut units, mut bytes) = (0usize, 0u64);
        for p in ds.partitions() {
            let reader = FileReader::open(p.blob.clone()).expect("opens");
            let projected: Vec<usize> = (plan.required_columns().iter())
                .filter_map(|name| reader.schema().index_of(name))
                .collect();
            units += reader.row_group_count();
            for rg in &reader.meta().row_groups {
                bytes += projected.iter().map(|&c| rg.columns[c].byte_len).sum::<u64>();
            }
        }
        sweep.push((group_rows, units, bytes));
    }
    let whole = sweep.last().map_or(1, |&(.., bytes)| bytes.max(1));
    let mut t = TextTable::new(vec![
        "rows/group",
        "units",
        "MiB/epoch",
        "amplification",
        "shuffle granularity",
    ]);
    for (group_rows, units, bytes) in sweep {
        t.row(vec![
            group_rows.to_string(),
            units.to_string(),
            format!("{:.2}", bytes as f64 / (1024.0 * 1024.0)),
            format!("{:.2}x", bytes as f64 / whole as f64),
            match group_rows {
                1 => "per-row (uniform)".to_owned(),
                ROWS => "per-partition only".to_owned(),
                n => format!("{n}-row mini-batches"),
            },
        ]);
    }
    print_table(&t);
}
