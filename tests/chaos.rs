//! Chaos properties for the fault-tolerant streaming executor, exercised
//! through the public facade exactly as a training job would use it.
//!
//! Every test pivots on the same invariant: recovery must be *invisible* in
//! the data. A run that retried transient faults, re-read corrupted pages
//! from pristine media, or failed a dead ISP device over to the host fleet
//! must produce mini-batches bit-identical to a fault-free serial pass —
//! and the [`RunReport`] must account for every partition (`delivered +
//! failed == partitions`; nothing dropped silently).
//!
//! The fault seed is taken from `PRESTO_FAULT_SEED` (default 42) so the CI
//! chaos job can sweep a seed matrix over the same properties.

use std::sync::Arc;
use std::time::Duration;

use presto::columnar::{FaultInjector, FaultPlan};
use presto::core::{Trainer, TrainerConfig};
use presto::datagen::{Dataset, Partition, RmConfig};
use presto::ops::{
    preprocess_partition, BatchStream, Fleet, FleetConfig, MiniBatch, PreprocessPlan, RetryPolicy,
};

fn fault_seed() -> u64 {
    std::env::var("PRESTO_FAULT_SEED").ok().and_then(|v| v.parse().ok()).unwrap_or(42)
}

fn dataset(partitions: usize, rows: usize, devices: usize) -> (RmConfig, Dataset) {
    let mut c = RmConfig::rm1();
    c.batch_size = rows;
    let ds = Dataset::generate(&c, partitions, rows, devices, 7).expect("generate dataset");
    (c, ds)
}

/// Re-keys every partition's blob through `injector`, leaving the original
/// dataset (the fault-free reference) untouched.
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

fn serial_reference(plan: &PreprocessPlan, ds: &Dataset) -> Vec<MiniBatch> {
    ds.partitions()
        .iter()
        .map(|p| preprocess_partition(plan, p.blob.clone()).expect("fault-free serial pass").0)
        .collect()
}

/// A retry budget generous enough that per-read transient rates clear: one
/// whole-partition attempt issues ~40 column reads, so each attempt succeeds
/// with probability ~(1 - rate)^40 and fresh read indices make retries
/// independent. Quarantine stays off — these faults are random across the
/// fleet, not a dying device.
fn transient_policy() -> RetryPolicy {
    RetryPolicy::recover()
        .with_max_attempts(2000)
        .with_backoff(Duration::ZERO, Duration::ZERO)
        .with_quarantine_after(0)
}

#[test]
fn host_fleet_transient_faults_stream_bit_identical() {
    let (c, ds) = dataset(6, 24, 2);
    let plan = PreprocessPlan::from_config(&c, 1).unwrap();
    let serial = serial_reference(&plan, &ds);

    let injector = FaultPlan::new(fault_seed()).with_transient_rate(0.08).arm();
    let partitions = armed(&ds, &injector);
    let config = FleetConfig::new(3, 2).with_recovery(transient_policy());
    let mut s = BatchStream::spawn(&plan, &partitions, &config).into_ordered();
    let streamed: Vec<MiniBatch> = s.by_ref().map(|i| i.unwrap().batch).collect();
    let report = s.run_report();

    assert_eq!(streamed, serial, "recovered host stream must be bit-identical");
    assert!(injector.stats().transient > 0, "the seed must actually inject faults");
    assert!(report.retries > 0, "faults imply retries under the recovery policy");
    assert!(report.failed_partitions.is_empty());
    assert_eq!(report.delivered as usize + report.failed_partitions.len(), report.partitions);
}

#[test]
fn isp_fleet_transient_faults_stream_bit_identical() {
    let (c, ds) = dataset(6, 24, 2);
    let plan = PreprocessPlan::from_config(&c, 1).unwrap();
    let serial = serial_reference(&plan, &ds);

    let injector = FaultPlan::new(fault_seed()).with_transient_rate(0.08).arm();
    let partitions = armed(&ds, &injector);
    let mut stream = Fleet::Isp.stream(
        &plan,
        &partitions,
        &FleetConfig::new(2, 2).with_recovery(transient_policy()),
    );
    let mut batches: Vec<(usize, MiniBatch)> =
        stream.by_ref().map(|i| i.unwrap()).map(|b| (b.partition, b.batch)).collect();
    batches.sort_by_key(|(pos, _)| *pos);
    let streamed: Vec<MiniBatch> = batches.into_iter().map(|(_, b)| b).collect();
    let report = stream.run_report();

    assert_eq!(streamed, serial, "recovered ISP stream must be bit-identical");
    assert!(injector.stats().transient > 0, "the seed must actually inject faults");
    assert!(report.failed_partitions.is_empty());
    assert_eq!(report.delivered as usize, report.partitions);
}

#[test]
fn corrupt_pages_recover_from_pristine_media() {
    let (c, ds) = dataset(4, 16, 1);
    let plan = PreprocessPlan::from_config(&c, 1).unwrap();
    let serial = serial_reference(&plan, &ds);

    let injector = FaultPlan::new(fault_seed()).with_corrupt_rate(0.04).arm();
    let partitions = armed(&ds, &injector);
    let config = FleetConfig::new(2, 2).with_recovery(transient_policy());
    let streamed: Vec<MiniBatch> = BatchStream::spawn(&plan, &partitions, &config)
        .into_ordered()
        .map(|i| i.unwrap().batch)
        .collect();

    assert_eq!(streamed, serial, "re-reads from pristine media must heal corruption");
    assert!(injector.stats().corrupt > 0, "the seed must actually corrupt pages");
}

#[test]
fn dead_isp_device_fails_over_bit_identically_and_reports_it() {
    let (c, ds) = dataset(8, 24, 2);
    let plan = PreprocessPlan::from_config(&c, 1).unwrap();
    let serial = serial_reference(&plan, &ds);

    // Device 1 serves ~1.5 partitions' worth of reads, then dies mid-run:
    // its in-flight partition fails, the breaker quarantines the device,
    // and every remaining device-1 partition routes to the host fleet.
    let injector = FaultPlan::new(fault_seed()).with_device_death(1, 60).arm();
    let partitions = armed(&ds, &injector);
    let policy = RetryPolicy::recover().with_max_attempts(2).with_quarantine_after(2);
    let mut stream =
        Fleet::Isp.stream(&plan, &partitions, &FleetConfig::new(2, 4).with_recovery(policy));
    let mut batches: Vec<(usize, bool, MiniBatch)> = stream
        .by_ref()
        .map(|i| i.unwrap())
        .map(|b| (b.partition, b.via_failover, b.batch))
        .collect();
    batches.sort_by_key(|(pos, ..)| *pos);
    let report = stream.run_report();

    let failovers = batches.iter().filter(|(_, via, _)| *via).count();
    let streamed: Vec<MiniBatch> = batches.into_iter().map(|(.., b)| b).collect();
    assert_eq!(streamed, serial, "failover output must be bit-identical to fault-free");
    assert!(failovers > 0, "device-1 partitions must arrive via the host path");
    assert!(report.failovers > 0);
    assert!(report.quarantined.contains(&1), "the dead device must be quarantined");
    assert!(report.failed_partitions.is_empty(), "failover leaves no partition behind");
    assert_eq!(report.delivered as usize, report.partitions);
}

#[test]
fn quarantine_without_failover_drops_nothing_silently() {
    let (c, ds) = dataset(6, 16, 2);
    let plan = PreprocessPlan::from_config(&c, 1).unwrap();

    let injector = FaultPlan::new(fault_seed()).with_device_death(0, 0).arm();
    let partitions = armed(&ds, &injector);
    let on_dead = partitions.iter().filter(|p| p.device == 0).count();
    let policy =
        RetryPolicy::recover().with_max_attempts(2).with_quarantine_after(2).with_failover(false);
    let mut stream =
        Fleet::Isp.stream(&plan, &partitions, &FleetConfig::new(2, 4).with_recovery(policy));
    let mut ok = 0usize;
    let mut errors = Vec::new();
    for item in stream.by_ref() {
        match item {
            Ok(_) => ok += 1,
            Err(e) => errors.push(e),
        }
    }
    let report = stream.run_report();

    assert_eq!(ok, partitions.len() - on_dead, "healthy-device partitions all deliver");
    assert_eq!(errors.len(), on_dead, "every dead-device partition errors loudly");
    for e in &errors {
        assert_eq!(e.device(), Some(0), "errors carry the dead device's id: {e}");
    }
    assert_eq!(
        report.delivered as usize + report.failed_partitions.len(),
        report.partitions,
        "every claimed partition is accounted for"
    );
}

#[test]
fn trainer_surfaces_the_recovery_report() {
    let (c, ds) = dataset(6, 24, 2);
    let plan = PreprocessPlan::from_config(&c, 1).unwrap();

    // Fault-free run: the report is present and clean.
    let config = FleetConfig::new(2, 2).with_recovery(transient_policy());
    let stream = BatchStream::spawn(&plan, ds.partitions(), &config);
    let report = Trainer::new(TrainerConfig::instant()).run(stream).unwrap();
    let recovery = report.recovery().expect("BatchStream reports recovery");
    assert!(recovery.clean(), "no faults injected, so no recovery activity");

    // Faulty run: retries show up in the trainer-level report.
    let injector = FaultPlan::new(fault_seed()).with_transient_rate(0.08).arm();
    let partitions = armed(&ds, &injector);
    let stream = BatchStream::spawn(&plan, &partitions, &config);
    let report = Trainer::new(TrainerConfig::instant()).run(stream).unwrap();
    let recovery = report.recovery().expect("BatchStream reports recovery");
    assert!(injector.stats().transient > 0);
    assert!(recovery.retries > 0, "trainer report must surface producer retries");
    assert_eq!(report.batches, ds.partitions().len());
}

#[test]
fn multi_tenant_device_death_degrades_only_the_victim_job() {
    use presto::core::{Fleet, JobSpec, JobStatus, PreprocessService, ServiceConfig};

    let (c, ds) = dataset(8, 24, 2);
    let plan = PreprocessPlan::from_config(&c, 1).unwrap();
    let serial = serial_reference(&plan, &ds);

    // The victim job's device 1 dies mid-run; the healthy job shares the
    // same pool but reads pristine media, so the quarantine must stay
    // scoped to the victim.
    let injector = FaultPlan::new(fault_seed()).with_device_death(1, 60).arm();
    let victim_partitions = armed(&ds, &injector);
    let policy = RetryPolicy::recover().with_max_attempts(2).with_quarantine_after(2);

    let service = PreprocessService::new(
        ServiceConfig::new(2).with_max_active_jobs(2).with_job_capacity(ds.partitions().len()),
    );
    let victim = service
        .submit(
            JobSpec::new("victim", plan.clone(), victim_partitions)
                .with_fleet(Fleet::Isp)
                .with_recovery(policy),
        )
        .expect("pool admits the victim job");
    let healthy = service
        .submit(JobSpec::new("healthy", plan.clone(), ds.partitions().to_vec()))
        .expect("pool admits the healthy job");

    let (victim_batches, healthy_ok) = std::thread::scope(|scope| {
        let v = scope.spawn(|| {
            let mut batches: Vec<(usize, bool, MiniBatch)> = victim
                .map(|i| i.expect("victim partitions fail over, not error"))
                .map(|b| (b.partition, b.via_failover, b.batch))
                .collect();
            batches.sort_by_key(|(pos, ..)| *pos);
            batches
        });
        let h = scope.spawn(|| {
            healthy.inspect(|i| assert!(i.is_ok(), "healthy job sees no faults")).count()
        });
        (v.join().unwrap(), h.join().unwrap())
    });
    let report = service.shutdown();

    let failovers = victim_batches.iter().filter(|(_, via, _)| *via).count();
    let streamed: Vec<MiniBatch> = victim_batches.into_iter().map(|(.., b)| b).collect();
    assert_eq!(streamed, serial, "victim output must be bit-identical despite failover");
    assert!(failovers > 0, "dead-device partitions must arrive via the host path");

    let victim_report = report.jobs.iter().find(|j| j.name == "victim").unwrap();
    let healthy_report = report.jobs.iter().find(|j| j.name == "healthy").unwrap();
    assert_eq!(victim_report.status, JobStatus::Completed);
    assert!(victim_report.recovery.failovers > 0);
    assert!(victim_report.recovery.quarantined.contains(&1));
    assert_eq!(
        victim_report.recovery.delivered as usize + victim_report.recovery.failed_partitions.len(),
        victim_report.recovery.partitions,
        "every victim partition is accounted for"
    );

    assert_eq!(healthy_ok, ds.partitions().len());
    assert_eq!(healthy_report.status, JobStatus::Completed);
    assert!(healthy_report.recovery.clean(), "quarantine must not leak to the healthy job");
    assert_eq!(healthy_report.delivered as usize, ds.partitions().len());
    assert!(healthy_report.goodput_rows_per_sec > 0.0, "healthy goodput stays measurable");
}
