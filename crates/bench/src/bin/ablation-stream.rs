//! Ablation: the streaming pipelined executor — queue capacity × workers ×
//! devices, device contention, Extract-latency hiding, and calibration of
//! the pipeline simulation from measured inter-arrival times.
//!
//! Run with `cargo run --release -p presto-bench --bin ablation-stream`.

use presto_bench::{banner, print_table};
use presto_columnar::{Device, DeviceModel};
use presto_core::pipeline::{simulate, simulate_measured, PipelineConfig};
use presto_core::systems::System;
use presto_datagen::{Dataset, Partition, RmConfig};
use presto_hwsim::gpu::GpuTrainModel;
use presto_hwsim::ssd::SsdModel;
use presto_hwsim::units::Secs;
use presto_metrics::{percent, TextTable};
use presto_ops::{inter_arrivals, BatchStream, FleetConfig, PreprocessPlan};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Drains one streaming run; returns (elapsed, arrival stamps, device
/// report rows, cross-device steals).
fn run_stream(
    plan: &PreprocessPlan,
    partitions: &[Partition],
    config: &FleetConfig,
) -> (Duration, Vec<Duration>, Vec<presto_ops::DeviceLoad>, usize) {
    let start = Instant::now();
    let mut stream = BatchStream::spawn(plan, partitions, config);
    let mut arrivals = Vec::new();
    let mut steals = 0usize;
    for item in stream.by_ref() {
        let batch = item.expect("ablation data preprocesses");
        arrivals.push(batch.arrived);
        steals += usize::from(batch.stolen);
    }
    let report = stream.device_report();
    (start.elapsed(), arrivals, report, steals)
}

fn throughput(rows: usize, elapsed: Duration) -> String {
    format!("{:>8.0} ", rows as f64 / elapsed.as_secs_f64().max(1e-12))
}

fn main() {
    banner(
        "Ablation: streaming executor — capacity x workers x devices (RM1)",
        "bounded-channel streaming; device-affine claiming; measured-arrival calibration",
    );
    let config = RmConfig::rm1();
    let plan = PreprocessPlan::from_config(&config, 1).expect("plan");
    const ROWS: usize = 1024;
    const PARTITIONS: usize = 24;
    let total_rows = ROWS * PARTITIONS;

    // 1. Workers x devices at capacity 2*workers: throughput plus the
    // per-device contention the affine scheduler observes.
    let mut t =
        TextTable::new(vec!["workers", "devices", "samples/s", "max in-flight/device", "steals"]);
    for devices in [1usize, 2, 4] {
        let ds = Dataset::generate(&config, PARTITIONS, ROWS, devices, 7).expect("dataset");
        for workers in [1usize, 2, 4, 8] {
            let cfg = FleetConfig::new(workers, 2 * workers);
            let (elapsed, _, report, steals) = run_stream(&plan, ds.partitions(), &cfg);
            let max_in_flight: Vec<String> =
                report.iter().map(|d| d.max_in_flight.to_string()).collect();
            t.row(vec![
                workers.to_string(),
                devices.to_string(),
                throughput(total_rows, elapsed),
                max_in_flight.join(","),
                steals.to_string(),
            ]);
        }
    }
    println!("-- Device-affine sharding: contention appears once workers > devices --");
    print_table(&t);
    println!(
        "(max in-flight > 1 on a device = workers contended for it; steals = cross-device claims)"
    );
    println!();

    // 2. Queue-capacity sweep: how much decoupling the bounded channel buys.
    let ds = Dataset::generate(&config, PARTITIONS, ROWS, 2, 9).expect("dataset");
    let mut t = TextTable::new(vec!["capacity", "streaming samples/s"]);
    for capacity in [1usize, 2, 4, 8, 16] {
        let cfg = FleetConfig::new(4, capacity);
        let (elapsed, _, _, _) = run_stream(&plan, ds.partitions(), &cfg);
        t.row(vec![capacity.to_string(), throughput(total_rows, elapsed)]);
    }
    println!("-- Queue capacity (4 workers, 2 devices) --");
    print_table(&t);
    println!();

    // 3. Extract-latency hiding: the same partitions behind an emulated
    // device (every positioned read sleeps 25us, zero-copy borrows off).
    let latency = Duration::from_micros(25);
    let slow: Vec<Partition> = ds
        .partitions()
        .iter()
        .map(|p| Partition {
            index: p.index,
            device: p.device,
            rows: p.rows,
            blob: p.blob.clone().with_read_latency(latency),
        })
        .collect();
    let mut t = TextTable::new(vec!["workers", "streaming samples/s"]);
    for workers in [1usize, 2, 4] {
        let cfg = FleetConfig::new(workers, 2 * workers);
        let (s, _, _, _) = run_stream(&plan, &slow, &cfg);
        t.row(vec![workers.to_string(), throughput(total_rows, s)]);
    }
    println!("-- Emulated SSD latency (25us/read): a worker pair keeps two reads in flight --");
    print_table(&t);
    println!();

    // 4. Queue-depth device model: the same partitions behind ONE emulated
    // device whose queue depth limits read concurrency. The schedule
    // makespan the token queue produces must agree with the hwsim SSD
    // model's predicted serialization (ceil(reads / depth) x latency) —
    // within 10% at queue depth 1, where the device is fully backlogged.
    let latency = Duration::from_micros(500);
    let qd_partitions = 8usize;
    let qd_ds = Dataset::generate(&config, qd_partitions, 256, 1, 11).expect("dataset");
    let mut t = TextTable::new(vec![
        "queue depth",
        "samples/s",
        "device reads",
        "queue wait (ms)",
        "device makespan (ms)",
        "hwsim predicted (ms)",
        "measured/predicted",
    ]);
    let mut qd1_ratio = None;
    for qd in [1usize, 2, 4, 32] {
        let device = Arc::new(Device::new(DeviceModel::new(latency, qd)));
        let gated: Vec<Partition> = qd_ds
            .partitions()
            .iter()
            .map(|p| Partition {
                index: p.index,
                device: p.device,
                rows: p.rows,
                blob: p.blob.clone().behind_device(Arc::clone(&device)),
            })
            .collect();
        let cfg = FleetConfig::new(4, 8);
        let (elapsed, _, _, _) = run_stream(&plan, &gated, &cfg);
        let stats = device.stats();
        let predicted = SsdModel::nvme()
            .with_queue_depth(qd)
            .queued_service_time(stats.reads, Secs::new(latency.as_secs_f64()));
        let ratio = stats.makespan.as_secs_f64() / predicted.seconds().max(1e-12);
        if qd == 1 {
            qd1_ratio = Some(ratio);
        }
        t.row(vec![
            qd.to_string(),
            throughput(qd_partitions * 256, elapsed),
            stats.reads.to_string(),
            format!("{:.1}", stats.queue_wait.as_secs_f64() * 1e3),
            format!("{:.1}", stats.makespan.as_secs_f64() * 1e3),
            format!("{:.1}", predicted.seconds() * 1e3),
            format!("{ratio:.3}"),
        ]);
    }
    println!("-- Queue-depth device model (4 workers, 1 device, 500us/read) --");
    print_table(&t);
    let qd1_ratio = qd1_ratio.expect("queue depth 1 measured");
    println!(
        "queue depth 1 serializes fully: measured/predicted = {qd1_ratio:.3} \
         ({} the 10% agreement band)",
        if (0.9..=1.1).contains(&qd1_ratio) { "within" } else { "OUTSIDE" }
    );
    println!("(deeper queues leave the backlog assumption, so the prediction is a lower bound)");
    println!();

    // 5. Calibration: replay the measured consumer-side inter-arrival
    // process through the trainer simulation and compare with the analytic
    // steady-state arrival model.
    let cfg = FleetConfig::new(2, 4);
    let (_, arrivals, _, _) = run_stream(&plan, ds.partitions(), &cfg);
    let gaps = inter_arrivals(&arrivals);
    let gpu = GpuTrainModel::a100();
    let sim_config = PipelineConfig { batches: 96, queue_capacity: 8, num_gpus: 1 };
    let measured = simulate_measured(&gaps, &gpu, &config, &sim_config);
    let analytic = simulate(&System::colocated(2), &gpu, &config, &sim_config);
    let mut t = TextTable::new(vec!["arrival model", "GPU utilization", "peak queue"]);
    t.row(vec![
        "measured BatchStream gaps".into(),
        percent(measured.gpu_utilization),
        measured.peak_queue.to_string(),
    ]);
    t.row(vec![
        "analytic steady-state".into(),
        percent(analytic.gpu_utilization),
        analytic.peak_queue.to_string(),
    ]);
    println!("-- Trainer simulation driven by measured inter-arrival times --");
    print_table(&t);
    println!("The measured row folds in real Extract overlap, device contention and");
    println!("channel back-pressure from this host's run; the analytic row is the");
    println!("idealized per-worker steady-state rate.");
}
