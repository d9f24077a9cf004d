//! Chaos ablation: goodput under injected storage faults, and the
//! ISP→host failover path surviving a permanent device death.
//!
//! Part 1 (sweep): the same dataset is streamed through the Disagg host
//! fleet and the PreSto ISP fleet at increasing per-read transient-fault
//! rates. A consuming [`Trainer`] reports goodput, and the producer's
//! [`RunReport`] (surfaced through `TrainerReport::recovery`) shows the
//! retries and faults behind the degradation — the data itself stays
//! bit-identical to the fault-free run at every rate.
//!
//! Part 2 (failover): an ISP device dies permanently mid-run. The
//! consecutive-failure breaker quarantines it, its remaining partitions
//! fail over to the host fleet (the graph runner is bit-identical on both
//! sides), and the run completes with output equal to the fault-free
//! reference. The example asserts this — it doubles as the CI chaos
//! ablation.
//!
//! Run with: `cargo run --release --example chaos_run`
//!
//! Environment knobs (for CI and quick runs):
//! * `PRESTO_CHAOS_PARTITIONS` — partitions to generate (default 12)
//! * `PRESTO_CHAOS_ROWS` — rows per partition (default 1024)
//! * `PRESTO_FAULT_SEED` — fault-plan seed (default 42)

use std::sync::Arc;
use std::time::Duration;

use presto::columnar::{FaultInjector, FaultPlan};
use presto::core::{Trainer, TrainerConfig};
use presto::datagen::{Dataset, Partition, RmConfig};
use presto::metrics::{samples_per_sec, TextTable};
use presto::ops::{
    preprocess_partition, BatchStream, FleetConfig, MiniBatch, Pipeline, PreprocessPlan,
    RetryPolicy,
};

fn env_usize(name: &str, default: usize) -> usize {
    std::env::var(name).ok().and_then(|v| v.parse().ok()).unwrap_or(default)
}

fn env_u64(name: &str, default: u64) -> u64 {
    std::env::var(name).ok().and_then(|v| v.parse().ok()).unwrap_or(default)
}

/// Re-keys every partition's blob through `injector`; the original dataset
/// stays pristine as the fault-free reference.
fn armed(ds: &Dataset, injector: &Arc<FaultInjector>) -> Vec<Partition> {
    ds.partitions()
        .iter()
        .map(|p| Partition {
            index: p.index,
            device: p.device,
            rows: p.rows,
            blob: p.blob.clone().with_faults(injector, p.device, p.index),
        })
        .collect()
}

fn main() {
    let num_partitions = env_usize("PRESTO_CHAOS_PARTITIONS", 12);
    let rows = env_usize("PRESTO_CHAOS_ROWS", 1024);
    let seed = env_u64("PRESTO_FAULT_SEED", 42);

    let mut config = RmConfig::rm1();
    config.batch_size = rows;
    let plan = PreprocessPlan::from_config(&config, 42).expect("valid RM1 plan");
    let dataset = Dataset::generate(&config, num_partitions, rows, 2, 7).expect("generate dataset");
    println!(
        "dataset: {} partitions x {} rows of {} across 2 devices, fault seed {seed}\n",
        num_partitions, rows, config.name
    );

    let reference: Vec<MiniBatch> = dataset
        .partitions()
        .iter()
        .map(|p| preprocess_partition(&plan, p.blob.clone()).expect("fault-free pass").0)
        .collect();

    // Per-read rates: a whole-partition Extract issues ~40 column reads, so
    // even 2% per read faults roughly half of all attempts. The generous
    // attempt budget lets every partition eventually clear; quarantine is
    // off because these faults are random, not a dying device.
    let policy = RetryPolicy::recover()
        .with_max_attempts(2000)
        .with_backoff(Duration::ZERO, Duration::from_micros(50))
        .with_quarantine_after(0);
    let trainer = Trainer::new(TrainerConfig::instant());

    println!("-- goodput vs injected transient-fault rate (per column read) --");
    let mut table =
        TextTable::new(vec!["fleet", "fault rate", "goodput", "faults", "retries", "delivered"]);
    for rate in [0.0, 0.005, 0.01, 0.02] {
        for fleet in ["Disagg (host)", "PreSto (ISP)"] {
            let injector = FaultPlan::new(seed).with_transient_rate(rate).arm();
            let partitions = armed(&dataset, &injector);
            let report = if fleet.starts_with("Disagg") {
                let cfg = FleetConfig::new(3, 4).with_recovery(policy.clone());
                trainer.run(BatchStream::spawn(&plan, &partitions, &cfg))
            } else {
                let cfg = FleetConfig::new(2, 4).with_recovery(policy.clone());
                trainer.run(BatchStream::spawn_pipeline(&plan, &partitions, Pipeline::Isp, &cfg))
            }
            .expect("recovered run completes");
            let report_recovery = report.recovery().cloned();
            let recovery = report_recovery.expect("stream reports recovery");
            table.row(vec![
                fleet.to_string(),
                format!("{:.1}%", rate * 100.0),
                samples_per_sec(report.goodput),
                recovery.faults.to_string(),
                recovery.retries.to_string(),
                format!("{}/{}", recovery.delivered, recovery.partitions),
            ]);
        }
    }
    println!("{}", table.render());

    // ---- Part 2: permanent ISP device death, mid-run ----
    println!("-- permanent ISP device death: quarantine + host failover --");
    // Device 1 serves ~1.5 partitions' worth of reads, then every further
    // read fails: the breaker trips after two consecutive failures and the
    // host fleet re-reads the quarantined device's partitions from media.
    let injector = FaultPlan::new(seed).with_device_death(1, 60).arm();
    let partitions = armed(&dataset, &injector);
    let policy = RetryPolicy::recover().with_max_attempts(2).with_quarantine_after(2);
    let mut stream = BatchStream::spawn_pipeline(
        &plan,
        &partitions,
        Pipeline::Isp,
        &FleetConfig::new(2, 4).with_recovery(policy),
    );
    let mut batches: Vec<(usize, bool, MiniBatch)> = stream
        .by_ref()
        .map(|item| item.expect("failover completes every partition"))
        .map(|b| (b.partition, b.via_failover, b.batch))
        .collect();
    batches.sort_by_key(|(pos, ..)| *pos);
    let report = stream.run_report();

    let failovers = batches.iter().filter(|(_, via, _)| *via).count();
    let streamed: Vec<MiniBatch> = batches.into_iter().map(|(.., b)| b).collect();
    assert_eq!(streamed, reference, "failover output must be bit-identical to fault-free");
    assert!(report.failovers > 0, "the dead device's partitions must use the host path");
    assert!(report.quarantined.contains(&1), "device 1 must be quarantined");
    assert!(report.failed_partitions.is_empty(), "no partition is left behind");

    println!(
        "delivered {}/{} partitions ({} via host failover), {} faults, {} retries",
        report.delivered, report.partitions, failovers, report.faults, report.retries
    );
    println!("quarantined device slots: {:?}", report.quarantined);
    let mut events = TextTable::new(vec!["event", "count"]);
    for (label, count) in [
        ("faults", report.faults),
        ("retries", report.retries),
        ("failovers", report.failovers),
        ("stragglers", report.stragglers),
    ] {
        events.row(vec![label.to_string(), count.to_string()]);
    }
    println!("{}", events.render());
    println!("failover output bit-identical to the fault-free reference ✓");
}
