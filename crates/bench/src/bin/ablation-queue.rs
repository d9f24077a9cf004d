//! Ablation: input-queue depth and provisioning headroom in the
//! producer–consumer pipeline (Fig. 9's input queue).

use presto_bench::{banner, print_table};
use presto_core::pipeline::{simulate, PipelineConfig};
use presto_core::provision::Provisioner;
use presto_core::systems::System;
use presto_datagen::RmConfig;
use presto_hwsim::gpu::GpuTrainModel;
use presto_metrics::{percent, TextTable};

fn main() {
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
