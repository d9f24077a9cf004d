//! End-to-end training run: the Fig. 9 control flow of the paper, with the
//! trainer **in the loop**.
//!
//! Part 1 (analytic): the [`Provisioner`] measures the GPUs' demand `T`
//! and one device's rate `P`, spawns `⌈T/P⌉` devices, and the discrete-event
//! pipeline simulation plays out the producer–consumer loop — with the
//! Disagg baseline, PreSto SmartSSDs and PreSto storage-node U280s.
//!
//! Part 2 (executed): the same producer–consumer loop runs for real on
//! this host. The host streaming executor and the emulated ISP fleet each
//! preprocess a generated dataset, and a consuming [`Trainer`] — paced at
//! the A100's calibrated per-sample step time — pulls mini-batches off the
//! bounded channel. Throughput is reported where the paper measures it: at
//! the trainer (goodput, stall share, queue occupancy), and the measured
//! arrival trace is replayed through `simulate_measured` to calibrate the
//! simulation against the executor actually built in this repo.
//!
//! Run with: `cargo run --release --example end_to_end_training`
//!
//! Environment knobs (for CI and quick runs):
//! * `PRESTO_E2E_PARTITIONS` — partitions to generate (default 12)
//! * `PRESTO_E2E_ROWS` — rows per partition (default 2048)
//! * `PRESTO_E2E_TIME_SCALE` — trainer compute scale, 1.0 = real A100 pace
//!   (default 1.0; use e.g. 0.1 to shrink wall-clock time)

use presto::core::{
    isp_vs_cpu_end_to_end, simulate, PipelineConfig, Provisioner, System, TrainerConfig,
};
use presto::datagen::{Dataset, RmConfig, WorkloadProfile};
use presto::hwsim::cpu::CpuWorkerModel;
use presto::hwsim::fpga::IspModel;
use presto::hwsim::gpu::GpuTrainModel;
use presto::metrics::{percent, samples_per_sec, TextTable};
use presto::ops::PreprocessPlan;

fn env_usize(name: &str, default: usize) -> usize {
    std::env::var(name).ok().and_then(|v| v.parse().ok()).unwrap_or(default)
}

fn env_f64(name: &str, default: f64) -> f64 {
    std::env::var(name).ok().and_then(|v| v.parse().ok()).unwrap_or(default)
}

fn main() {
    // ---- Part 1: analytic provisioning (Fig. 9 on the paper's models) ----
    let model = RmConfig::rm5();
    let job = PipelineConfig { batches: 96, queue_capacity: 8, num_gpus: 8 };
    let poc = Provisioner::poc();
    let u280 =
        Provisioner::new(GpuTrainModel::a100(), CpuWorkerModel::poc(), IspModel::u280_in_storage());

    println!(
        "training job: {} on {} GPUs, {} mini-batches of {}",
        model.name, job.num_gpus, job.batches, model.batch_size
    );
    let demand = poc.training_demand(&model, job.num_gpus);
    println!("stress-tested training demand T = {} samples/s\n", samples_per_sec(demand));

    let mut table = TextTable::new(vec![
        "backend",
        "devices",
        "per-device P (samples/s)",
        "GPU utilization",
        "training throughput",
    ]);
    let profile = WorkloadProfile::from_config(&model);
    for system in [
        System::disagg(poc.cpu_cores_required(&model, job.num_gpus)),
        System::presto_smartssd(poc.isp_units_required(&model, job.num_gpus)),
        System::Presto {
            units: u280.isp_units_required(&model, job.num_gpus),
            isp: u280.isp().clone(),
        },
    ] {
        let report = simulate(&system, poc.gpu(), &model, &job);
        table.row(vec![
            system.name(),
            system.parallelism().to_string(),
            samples_per_sec(system.per_worker_throughput(&profile)),
            percent(report.gpu_utilization),
            samples_per_sec(report.training_throughput),
        ]);
    }
    print!("{}", table.render());
    println!();

    // ---- Part 2: trainer in the loop, executed on this host ----
    let partitions = env_usize("PRESTO_E2E_PARTITIONS", 12);
    let rows = env_usize("PRESTO_E2E_ROWS", 2048);
    let time_scale = env_f64("PRESTO_E2E_TIME_SCALE", 1.0);
    let mut config = RmConfig::rm1();
    config.batch_size = rows;
    let plan = PreprocessPlan::from_config(&config, 7).expect("plan");
    let dataset = Dataset::generate(&config, partitions, rows, 2, 42).expect("dataset");
    let gpu = GpuTrainModel::a100();
    let trainer = TrainerConfig::for_model(&gpu, &config, time_scale);

    println!(
        "executed run: {} partitions x {} rows of {}, trainer paced at {}x A100",
        partitions, rows, config.name, time_scale
    );
    let points = isp_vs_cpu_end_to_end(&plan, &dataset, &System::disagg(2), 2, trainer)
        .expect("both fleets preprocess");

    let mut table = TextTable::new(vec![
        "producer fleet",
        "trainer goodput (samples/s)",
        "trainer utilization",
        "stall share",
        "mean queue occupancy",
    ]);
    for p in &points {
        table.row(vec![
            p.system.clone(),
            samples_per_sec(p.report.goodput),
            percent(p.report.utilization),
            percent(p.report.stall_share()),
            format!("{:.2}", p.report.mean_occupancy()),
        ]);
    }
    println!("-- measured at the consuming trainer (not a Vec drain) --");
    print!("{}", table.render());
    println!();

    let host = &points[0].report;
    println!("host-fleet queue-occupancy histogram (pulls that found q batches queued):");
    for (q, n) in host.occupancy.iter().enumerate() {
        if *n > 0 {
            println!("  q={q}: {n}");
        }
    }
    println!();

    // Calibration: replay the trainer's measured arrival trace through the
    // discrete-event simulation of the same model.
    let sim =
        host.replay(&gpu, &config, &PipelineConfig { batches: 96, queue_capacity: 8, num_gpus: 1 });
    println!(
        "simulate_measured replay of the host trace: GPU utilization {}, peak queue {}",
        percent(sim.gpu_utilization),
        sim.peak_queue
    );
    println!();
    println!("Both backends sustain the same training throughput — the paper's");
    println!("premise for comparing them purely on power and cost (Fig. 15) —");
    println!("but PreSto does it with single-digit devices instead of hundreds");
    println!("of CPU cores.");
}
