//! Ablations beyond the paper's figures: the ISP accelerator's design
//! choices, the input queue and provisioning headroom, the streaming
//! executor run on real data, goodput under storage faults, tenants
//! sharing one pool, shuffle granularity, and prefix pushdown.

use crate::report::{percent, samples_per_sec, TextTable};
use crate::{banner, print_table};
use presto_columnar::{BlobRead, CountingBlob, Device, DeviceModel, FaultPlan, FileReader};
use presto_columnar::{MemBlob, ReadScratch};
use presto_core::pipeline::{simulate, simulate_measured, PipelineConfig, Trainer, TrainerConfig};
use presto_core::placement::{place_stages, OpCostModel};
use presto_core::provision::Provisioner;
use presto_core::service::{JobSpec, PreprocessService, ServiceConfig};
use presto_core::systems::System;
use presto_core::Fleet;
use presto_datagen::WorkloadProfile;
use presto_datagen::{generate_batch, write_partition, Dataset, Partition, RmConfig};
use presto_hwsim::fpga::{FeedPath, IspModel};
use presto_hwsim::gpu::GpuTrainModel;
use presto_hwsim::units::Secs;
use presto_ops::{extract_columns_for_plan, extract_columns_from_reader, inter_arrivals};
use presto_ops::{BatchStream, FleetConfig, PlanGraph, PreprocessPlan, RetryPolicy};
use std::sync::Arc;
use std::time::{Duration, Instant};

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

/// The streaming pipelined executor — queue capacity × workers × devices,
/// device contention, Extract-latency hiding, and calibration of the
/// pipeline simulation from measured inter-arrival times. Its rows are
/// measured on this host, so they vary run to run.
pub(crate) fn stream() {
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
    // makespan the token queue produces must agree with the device model's
    // backlogged serialization (`DeviceModel::serialized_time`:
    // ceil(reads / depth) x latency) — within 10% at queue depth 1, where
    // the device is fully backlogged.
    let latency = Duration::from_micros(500);
    let qd_partitions = 8usize;
    let qd_ds = Dataset::generate(&config, qd_partitions, 256, 1, 11).expect("dataset");
    let mut t = TextTable::new(vec![
        "queue depth",
        "samples/s",
        "device reads",
        "queue wait (ms)",
        "device makespan (ms)",
        "predicted (ms)",
        "measured/predicted",
    ]);
    let mut qd1_ratio = None;
    for qd in [1usize, 2, 4, 32] {
        let model = DeviceModel::new(latency, qd);
        let device = Arc::new(Device::new(model));
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
        let predicted = model.serialized_time(stats.reads).as_secs_f64();
        let ratio = stats.makespan.as_secs_f64() / predicted.max(1e-12);
        if qd == 1 {
            qd1_ratio = Some(ratio);
        }
        t.row(vec![
            qd.to_string(),
            throughput(qd_partitions * 256, elapsed),
            stats.reads.to_string(),
            format!("{:.1}", stats.queue_wait.as_secs_f64() * 1e3),
            format!("{:.1}", stats.makespan.as_secs_f64() * 1e3),
            format!("{:.1}", predicted * 1e3),
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

    // 5. Calibration: replay the measured producer-side inter-arrival
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

/// Goodput under injected transient storage faults: the same RM1 partitions
/// through the host and the ISP fleet at rising per-read fault rates, each
/// drained by an instant trainer. Retried reads keep the output bytes
/// (`tests/chaos.rs` holds that); this prints what the retries cost. Its
/// rows are measured, so they vary run to run.
pub(crate) fn chaos() {
    banner(
        "Ablation: goodput vs injected transient-fault rate (RM1, 12 x 512 rows)",
        "recovery retries faulted reads to the same bytes; goodput pays for the retries",
    );
    let config = RmConfig::rm1();
    let plan = PreprocessPlan::from_config(&config, 42).expect("plan");
    let ds = Dataset::generate(&config, 12, 512, 2, 7).expect("dataset");
    // A whole-partition Extract issues ~40 column reads, so 5% per read
    // faults most attempts. The attempt budget lets every partition clear;
    // quarantine is off because the faults are random, not a dying device.
    let policy = RetryPolicy::recover()
        .with_max_attempts(2000)
        .with_backoff(Duration::ZERO, Duration::from_micros(50))
        .with_quarantine_after(0);
    let trainer = Trainer::new(TrainerConfig::instant());
    let mut t =
        TextTable::new(vec!["fleet", "fault rate", "goodput", "faults", "retries", "delivered"]);
    for rate in [0.0, 0.01, 0.02, 0.05] {
        for (name, fleet, workers) in
            [("Disagg (host)", Fleet::Host, 3), ("PreSto (ISP)", Fleet::Isp, 2)]
        {
            let injector = FaultPlan::new(42).with_transient_rate(rate).arm();
            let armed: Vec<Partition> = ds
                .partitions()
                .iter()
                .map(|p| Partition {
                    blob: p.blob.clone().with_faults(&injector, p.device, p.index),
                    ..p.clone()
                })
                .collect();
            let cfg = FleetConfig::new(workers, 4).with_recovery(policy.clone());
            let report = trainer.run(fleet.spawn(&plan, &armed, &cfg)).expect("every unit clears");
            let recovery = report.recovery().expect("a fleet stream reports recovery");
            t.row(vec![
                name.to_owned(),
                format!("{:.1}%", rate * 100.0),
                samples_per_sec(report.goodput),
                recovery.faults.to_string(),
                recovery.retries.to_string(),
                format!("{}/{}", recovery.delivered, recovery.partitions),
            ]);
        }
    }
    print_table(&t);
}

/// Three tenants with different graphs on three fleets share one 2-worker
/// pool: RM1 on the host, RM3 on ISP at weight 2 with a goodput SLO, and
/// list-shaped RM1's `cleaned` graph split where the cost model places it at
/// the paper's batch size. Prints the service report per job and Jain's
/// fairness; that each tenant's bytes are its solo run's is held by
/// `service::tests`. Its rows are measured, so they vary run to run.
pub(crate) fn tenants() {
    banner(
        "Ablation: three tenants on one preprocessing pool (RM1, RM3, RM1-L; 4 x 256 rows each)",
        "weighted-fair dispatch interleaves jobs so none starves; recovery state is per job",
    );
    let (rm1, rm3, lists) = (RmConfig::rm1(), RmConfig::rm3(), RmConfig::rm1_lists());
    let plan = |config: &RmConfig| PreprocessPlan::from_config(config, 7).expect("plan");
    let data = |config: &RmConfig, seed| {
        Dataset::generate(config, 4, 256, 2, seed).expect("dataset").partitions().to_vec()
    };
    let cleaned = PlanGraph::cleaned(&lists, 7).expect("graph");
    let cleaned = PreprocessPlan::compile(cleaned, &lists).expect("plan");
    let model = OpCostModel::analytic(&IspModel::smartssd());
    let placed = place_stages(&cleaned, lists.batch_size, &model);
    let split = cleaned.split(&placed.fleet_assignment()).expect("splits");
    let specs = [
        JobSpec::new("rm1-host", plan(&rm1), data(&rm1, 11)),
        JobSpec::new("rm3-isp", plan(&rm3), data(&rm3, 13))
            .with_fleet(Fleet::Isp)
            .with_weight(2.0)
            .with_goodput_slo(1.0),
        JobSpec::new("rm1l-cleaned-split", cleaned, data(&lists, 17))
            .with_fleet(Fleet::Split(split)),
    ];
    let config = ServiceConfig::new(2).with_max_active_jobs(3).with_job_capacity(2);
    let service = PreprocessService::new(config);
    let handles = specs.map(|spec| service.submit(spec).expect("an idle pool admits all three"));
    std::thread::scope(|s| {
        for handle in handles {
            s.spawn(move || handle.for_each(|item| drop(item.expect("tenant unit preprocesses"))));
        }
    });
    let report = service.shutdown();
    let mut t = TextTable::new(vec![
        "job",
        "fleet",
        "status",
        "delivered",
        "goodput",
        "SLO",
        "stall share",
        "max dispatch gap",
    ]);
    for job in &report.jobs {
        t.row(vec![
            job.name.clone(),
            job.fleet.clone(),
            format!("{:?}", job.status),
            format!("{}/{}", job.delivered, job.partitions),
            format!("{:.0} rows/s", job.goodput_rows_per_sec),
            match job.slo_met {
                Some(true) => "met".into(),
                Some(false) => "MISSED".into(),
                None => "-".into(),
            },
            percent(job.stall_share),
            format!("{:.1}ms", job.max_dispatch_gap.as_secs_f64() * 1e3),
        ]);
    }
    print_table(&t);
    println!(
        "pool: {} workers, elapsed {:.1}ms, Jain fairness {:.3}, max starvation {:.1}ms",
        report.pool_workers,
        report.elapsed.as_secs_f64() * 1e3,
        report.fairness,
        report.max_starvation().as_secs_f64() * 1e3
    );
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

/// One Extract of every column `plan` reads, pushed down to the plan's
/// prefixes or in full; returns the rows read.
fn extract_rows<B: BlobRead>(
    plan: &PreprocessPlan,
    reader: &FileReader<B>,
    pushdown: bool,
    read: &mut ReadScratch,
) -> usize {
    let columns = plan.required_columns();
    let batch = if pushdown {
        extract_columns_for_plan(plan, reader, columns, read)
    } else {
        extract_columns_from_reader(reader, columns, read)
    };
    batch.expect("extracts").rows()
}

/// Prefix pushdown on long user histories (RM-LS, lists of ~512 ids read
/// through `FirstX(8)` heads): the read requirement the plan derives per
/// history column next to the canonical plan's, then Extract time (best of
/// 3, measured) and bytes moved per row (counted at the blob) with and
/// without the pushdown.
pub(crate) fn pushdown() {
    banner(
        "Ablation: prefix pushdown on long histories (RM-LS, FirstX(8), 2 x 1024 rows)",
        "decode only the list prefix the plan consumes: head pages alone for x <= 32",
    );
    let config = RmConfig::rm_longseq();
    let compile = |graph| PreprocessPlan::compile(graph, &config).expect("plan");
    let plan = compile(PlanGraph::long_history(&config, 7, 8).expect("graph"));
    let canonical = compile(PlanGraph::canonical(&config, 7).expect("graph"));
    let mut t = TextTable::new(vec!["column", "long-history plan", "canonical plan"]);
    for name in plan.required_columns().iter().filter(|name| name.starts_with("sparse_")) {
        t.row(vec![
            name.clone(),
            format!("{:?}", plan.requirement_for(name)),
            format!("{:?}", canonical.requirement_for(name)),
        ]);
    }
    println!("-- Read requirements the plans derive --");
    print_table(&t);

    let blobs: Vec<MemBlob> = (0..2u64)
        .map(|p| write_partition(&generate_batch(&config, 1024, 7 + p)).expect("writes"))
        .collect();
    let mut read = ReadScratch::new();
    let mut t = TextTable::new(vec!["Extract", "ms (best of 3)", "rows/s", "bytes read/row"]);
    for (label, pushdown) in [("prefix pushdown", true), ("full decode", false)] {
        let mut best = f64::INFINITY;
        for _ in 0..3 {
            let start = Instant::now();
            for blob in &blobs {
                let reader = FileReader::open(blob.clone()).expect("opens");
                extract_rows(&plan, &reader, pushdown, &mut read);
            }
            best = best.min(start.elapsed().as_secs_f64());
        }
        let mut bytes = 0;
        for blob in &blobs {
            let counting = CountingBlob::new(blob.clone());
            let reader = FileReader::open(&counting).expect("opens");
            counting.reset();
            extract_rows(&plan, &reader, pushdown, &mut read);
            bytes += counting.bytes_read();
        }
        t.row(vec![
            label.to_owned(),
            format!("{:.1}", best * 1e3),
            format!("{:.0}", 2048.0 / best),
            format!("{:.0}", bytes as f64 / 2048.0),
        ]);
    }
    println!("-- Extract of the long-history plan's columns --");
    print_table(&t);
}
