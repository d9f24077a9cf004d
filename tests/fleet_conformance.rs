//! Fleet conformance: every fleet × {dedicated stream, service job} against
//! the behaviours the streaming engine promises for all of them.
//!
//! One table ([`fleets`] × [`Mode`]) runs through five cases:
//!
//! * a clean run is bit-identical to the serial reference
//!   (`preprocess_partition`, or `preprocess_group_with` where the unit is
//!   a row group), with every unit delivered exactly once — here the split
//!   fleet also runs with every stage on the host (no device work: no P2P
//!   and no boundary bytes), every stage on ISP (the host still assembles,
//!   from boundary bytes alone) and at a cost-model placement;
//! * transient faults are retried to a bit-identical stream;
//! * a dead device fails over (ISP, split) or fails loudly with tagged
//!   errors (host, shuffled, and ISP and split again with failover off),
//!   and `delivered + failed == units` either way;
//! * a fail-fast corrupt unit surfaces exactly one tagged error and stops
//!   the producers;
//! * dropping the consumer with a full capacity-1 channel joins every
//!   worker.
//!
//! A sixth pins the I/O shape: the device reads of a clean run, per fleet
//! and mode, counted on a zero-latency [`Device`]. A shuffled stream's
//! retried group read is pinned the same way: it reads through the footer
//! the enumeration parsed.
//!
//! Two more rows are the host fleet's alone: its workers are pairs of
//! threads that each read half of a unit's columns, and a fault that sits
//! only in thread A's columns, or only in thread B's, must end the unit as
//! one tagged error while the rest of the stream stays bit-identical.
//!
//! A dedicated stream and a service job over the same partitions must
//! agree, so each case runs once per mode. The one place the modes differ
//! by design is the shuffled fleet's unit: row groups on the stream, whole
//! partitions (in permuted order) on the service.
//!
//! The fault seed is taken from `PRESTO_FAULT_SEED` (default 42); the CI
//! chaos job sweeps it.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;
use std::time::Duration;

use presto::columnar::{Device, DeviceModel, FaultInjector, FaultPlan, FileReader, MemBlob};
use presto::core::{
    place_stages, BatchSource, Fleet, JobReport, JobSpec, JobStatus, OpCostModel,
    PreprocessService, ServiceConfig,
};
use presto::datagen::{Dataset, Partition, RmConfig};
use presto::hwsim::fpga::IspModel;
use presto::ops::{
    epoch_order, epoch_units, preprocess_group_with, preprocess_partition, FleetConfig, MiniBatch,
    Place, PreprocessError, PreprocessPlan, RetryPolicy, RunReport, ScratchSpace, ShuffleSpec,
    StreamStats, StreamedBatch,
};

const PARTITIONS: usize = 6;
const ROWS: usize = 32;
const GROUP_ROWS: usize = 16;
const DEAD_DEVICE: usize = 1;
const SHUFFLE: ShuffleSpec = ShuffleSpec { seed: 991_217, epoch: 2 };

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Mode {
    Stream,
    Service,
}

fn fault_seed() -> u64 {
    std::env::var("PRESTO_FAULT_SEED").ok().and_then(|v| v.parse().ok()).unwrap_or(42)
}

struct World {
    plan: PreprocessPlan,
    ds: Dataset,
}

fn world() -> World {
    let mut c = RmConfig::rm1();
    c.batch_size = ROWS;
    let plan = PreprocessPlan::from_config(&c, 11).expect("plan");
    let ds = Dataset::generate_grouped(&c, PARTITIONS, ROWS, 2, 21, GROUP_ROWS).expect("dataset");
    World { plan, ds }
}

/// The table's rows: every fleet, the split one at an alternating
/// placement so both sides and the boundary carry work.
fn fleets(plan: &PreprocessPlan) -> Vec<Fleet> {
    let tags: Vec<Place> = (0..plan.stages().len())
        .map(|i| if i % 2 == 0 { Place::Isp } else { Place::Host })
        .collect();
    let split = plan.split(&tags).expect("splits");
    assert!(!split.is_single_fleet());
    vec![Fleet::Host, Fleet::Isp, Fleet::Split(split), Fleet::Shuffled(SHUFFLE)]
}

/// More placements of the split fleet: every stage on the host, every
/// stage on ISP, and the mix the cost model picks for a paper-sized batch
/// (at [`ROWS`] it keeps everything on the host).
fn more_splits(plan: &PreprocessPlan) -> Vec<Fleet> {
    let n = plan.stages().len();
    let model = OpCostModel::analytic(&IspModel::smartssd());
    let placed = place_stages(plan, RmConfig::rm1().batch_size, &model).fleet_assignment();
    [vec![Place::Host; n], vec![Place::Isp; n], placed]
        .iter()
        .map(|tags| Fleet::Split(plan.split(tags).expect("splits")))
        .collect()
}

/// A fleet's name in assertion messages; a split one names its placement.
fn label(fleet: &Fleet) -> String {
    match fleet {
        Fleet::Split(split) => {
            format!("split ({} ISP / {} host)", split.isp_stages().len(), split.host_stages().len())
        }
        _ => fleet.name().to_owned(),
    }
}

fn by_group(fleet: &Fleet, mode: Mode) -> bool {
    matches!(fleet, Fleet::Shuffled(_)) && mode == Mode::Stream
}

fn fails_over(fleet: &Fleet) -> bool {
    matches!(fleet, Fleet::Isp | Fleet::Split(_))
}

/// The serial reference per `(partition, group)` unit, from pristine blobs.
fn reference(w: &World, fleet: &Fleet, mode: Mode) -> BTreeMap<(usize, usize), MiniBatch> {
    let mut scratch = ScratchSpace::new();
    let mut units = BTreeMap::new();
    for (pos, p) in w.ds.partitions().iter().enumerate() {
        if by_group(fleet, mode) {
            let reader = FileReader::open(p.blob.clone()).expect("opens");
            for group in 0..reader.row_group_count() {
                let (batch, _) =
                    preprocess_group_with(&w.plan, &reader, group, &mut scratch).expect("serial");
                units.insert((pos, group), batch);
            }
        } else {
            units
                .insert((pos, 0), preprocess_partition(&w.plan, p.blob.clone()).expect("serial").0);
        }
    }
    units
}

fn armed(partitions: &[Partition], injector: &Arc<FaultInjector>) -> Vec<Partition> {
    partitions
        .iter()
        .map(|p| Partition {
            blob: p.blob.clone().with_faults(injector, p.device, p.index),
            ..p.clone()
        })
        .collect()
}

/// Reads the shuffled stream's footer enumeration issues against `device`
/// before it has claimed anything — so a death can be scheduled for the
/// first read *after* it.
fn enumeration_reads(partitions: &[Partition], device: usize) -> u64 {
    let probe = Arc::new(Device::new(DeviceModel::new(Duration::ZERO, 1)));
    let behind: Vec<Partition> = partitions
        .iter()
        .filter(|p| p.device == device)
        .map(|p| Partition { blob: p.blob.clone().behind_device(Arc::clone(&probe)), ..p.clone() })
        .collect();
    epoch_units(&behind).expect("enumerates");
    probe.stats().reads
}

/// One fleet running in one mode, consumed through [`BatchSource`].
struct Running {
    source: Box<dyn BatchSource + Send>,
    service: Option<PreprocessService>,
    /// A shuffled *job* is served as its partitions in permuted order, so
    /// the positions it reports index the permuted list: `positions[p]` is
    /// the partition a reported position `p` stands for.
    positions: Option<Vec<usize>>,
}

fn start(
    w: &World,
    fleet: &Fleet,
    mode: Mode,
    partitions: &[Partition],
    recovery: RetryPolicy,
    workers: usize,
    capacity: usize,
) -> Running {
    match mode {
        Mode::Stream => {
            let config = FleetConfig::new(workers, capacity).with_recovery(recovery);
            let source = fleet.spawn(&w.plan, partitions, &config);
            Running { source, service: None, positions: None }
        }
        Mode::Service => {
            let service =
                PreprocessService::new(ServiceConfig::new(workers).with_job_capacity(capacity));
            let spec = JobSpec::new(fleet.name(), w.plan.clone(), partitions.to_vec())
                .with_fleet(fleet.clone())
                .with_recovery(recovery);
            let handle = service.submit(spec).expect("admitted");
            let positions = match fleet {
                Fleet::Shuffled(spec) => Some(epoch_order(partitions.len(), spec.seed, spec.epoch)),
                _ => None,
            };
            Running { source: Box::new(handle), service: Some(service), positions }
        }
    }
}

struct Drained {
    ok: Vec<StreamedBatch>,
    errors: Vec<PreprocessError>,
    stats: StreamStats,
    report: RunReport,
    job: Option<JobReport>,
}

fn drain(mut running: Running) -> Drained {
    let position = |p: usize| running.positions.as_ref().map_or(p, |order| order[p]);
    let (mut ok, mut errors) = (Vec::new(), Vec::new());
    while let Some(item) = running.source.next_batch() {
        match item {
            Ok(mut batch) => {
                batch.partition = position(batch.partition);
                ok.push(batch);
            }
            Err(e) => {
                let (p, device) = (e.partition().expect("tagged"), e.device().expect("tagged"));
                errors.push(e.with_location(position(p), device));
            }
        }
    }
    let stats = running.source.stats();
    let mut report = stats.recovery.clone().expect("every fleet tracks recovery");
    report.failed_partitions = report.failed_partitions.iter().map(|&p| position(p)).collect();
    report.failed_partitions.sort_unstable();
    drop(running.source);
    let job = running.service.map(|s| s.shutdown().jobs.remove(0));
    Drained { ok, errors, stats, report, job }
}

/// Every delivered batch is a reference unit, bit-identical, at most once.
fn assert_bit_identical(
    d: &Drained,
    reference: &BTreeMap<(usize, usize), MiniBatch>,
    partitions: &[Partition],
    what: &str,
) {
    let mut seen = BTreeSet::new();
    for b in &d.ok {
        let key = (b.partition, b.group);
        let want = reference.get(&key).unwrap_or_else(|| panic!("{what}: stray unit {key:?}"));
        assert_eq!(&b.batch, want, "{what}: unit {key:?} must be bit-identical");
        assert_eq!(b.device, partitions[b.partition].device, "{what}: unit {key:?}");
        assert!(seen.insert(key), "{what}: unit {key:?} delivered twice");
    }
}

fn recover_hard() -> RetryPolicy {
    RetryPolicy::recover()
        .with_max_attempts(2)
        .with_backoff(Duration::ZERO, Duration::ZERO)
        .with_quarantine_after(2)
}

fn clean_run_is_bit_identical_to_serial(mode: Mode) {
    let w = world();
    for fleet in fleets(&w.plan).into_iter().chain(more_splits(&w.plan)) {
        let what = format!("{} {mode:?}", label(&fleet));
        let reference = reference(&w, &fleet, mode);
        let parts = w.ds.partitions();
        let d = drain(start(&w, &fleet, mode, parts, RetryPolicy::fail_fast(), 2, 4));
        assert!(d.errors.is_empty(), "{what}: {:?}", d.errors);
        assert_eq!(d.ok.len(), reference.len(), "{what}: every unit delivered");
        assert_bit_identical(&d, &reference, parts, &what);
        assert!(d.ok.iter().all(|b| !b.via_failover && b.attempts == 1), "{what}");
        if by_group(&fleet, mode) {
            let units = epoch_units(parts).expect("enumerates");
            let want: Vec<(usize, usize)> = epoch_order(units.len(), SHUFFLE.seed, SHUFFLE.epoch)
                .into_iter()
                .map(|i| (units[i].partition, units[i].group))
                .collect();
            let got: Vec<(usize, usize)> = d.ok.iter().map(|b| (b.partition, b.group)).collect();
            assert_eq!(got, want, "{what}: permutation order");
        }
        assert_eq!(d.stats.completed, reference.len(), "{what}");
        assert_eq!(d.report.partitions, reference.len(), "{what}: the report counts units");
        assert_eq!(d.report.delivered as usize, reference.len(), "{what}");
        assert!(d.report.clean(), "{what}: {:?}", d.report);
        // Link traffic is a property of the pipeline, not of who runs it:
        // P2P bytes wherever stages run on the device, boundary bytes where
        // a split hands its ISP side's outputs to the host.
        let offloads = match &fleet {
            Fleet::Isp => true,
            Fleet::Split(split) => !split.isp_stages().is_empty(),
            _ => false,
        };
        let (p2p, boundary) = (d.stats.p2p_bytes > 0, d.stats.boundary_bytes > 0);
        let want = (offloads, offloads && matches!(fleet, Fleet::Split(_)));
        assert_eq!((p2p, boundary), want, "{what}: {:?}", d.stats);
        if mode == Mode::Service {
            let stream =
                drain(start(&w, &fleet, Mode::Stream, parts, RetryPolicy::fail_fast(), 2, 4));
            assert_eq!(
                (d.stats.p2p_bytes, d.stats.boundary_bytes),
                (stream.stats.p2p_bytes, stream.stats.boundary_bytes),
                "{what}: a job reports the link bytes its dedicated fleet would"
            );
            let job = d.job.expect("service mode");
            assert_eq!(job.status, JobStatus::Completed, "{what}");
            assert_eq!((job.delivered, job.rows), (PARTITIONS as u64, (PARTITIONS * ROWS) as u64));
        }
    }
}

fn transient_faults_are_retried_to_a_bit_identical_stream(mode: Mode) {
    let w = world();
    // A budget generous enough that per-read rates clear: each retry
    // consumes fresh read indices, so faults eventually miss. Quarantine
    // off — these faults are random across the fleet, not a dying device.
    let policy = RetryPolicy::recover()
        .with_max_attempts(2000)
        .with_backoff(Duration::ZERO, Duration::ZERO)
        .with_quarantine_after(0);
    for fleet in fleets(&w.plan) {
        let what = format!("{} {mode:?}", fleet.name());
        let reference = reference(&w, &fleet, mode);
        let injector = FaultPlan::new(fault_seed()).with_transient_rate(0.02).arm();
        let parts = armed(w.ds.partitions(), &injector);
        let mut spawns = 0;
        let d = loop {
            let d = drain(start(&w, &fleet, mode, &parts, policy.clone(), 2, 2));
            // The shuffled stream enumerates footers through the faulty
            // blobs before it has a unit to retry; a fault there is the
            // stream's only item and the caller's to respawn.
            spawns += 1;
            if d.report.partitions > 0 || spawns == 64 {
                break d;
            }
        };
        assert!(d.errors.is_empty(), "{what}: {:?}", d.errors);
        assert_eq!(d.ok.len(), reference.len(), "{what}: every unit delivered");
        assert_bit_identical(&d, &reference, &parts, &what);
        assert!(injector.stats().transient > 0, "{what}: the seed must inject faults");
        assert!(d.report.retries > 0, "{what}");
        assert_eq!(d.report.retries, d.report.faults, "{what}: every fault was retried");
        assert_eq!(d.report.failovers, 0, "{what}: retries sufficed");
        assert!(d.report.failed_partitions.is_empty(), "{what}");
        assert_eq!(d.report.delivered as usize, reference.len(), "{what}");
    }
}

fn dead_device_fails_over_or_fails_loudly(mode: Mode) {
    let w = world();
    // The fleets that fail over run twice, the second time with failover
    // off, where they must fail as loudly as the host fleet.
    let inputs = fleets(&w.plan).into_iter().flat_map(|fleet| {
        let failover_off = fails_over(&fleet).then(|| (fleet.clone(), false));
        std::iter::once((fleet, true)).chain(failover_off)
    });
    for (fleet, failover) in inputs {
        let what = format!("{} {mode:?}, failover {failover}", fleet.name());
        let reference = reference(&w, &fleet, mode);
        // Dead on arrival — or, where spawning itself reads footers, on the
        // first read after that.
        let lifetime = if by_group(&fleet, mode) {
            enumeration_reads(w.ds.partitions(), DEAD_DEVICE)
        } else {
            0
        };
        let injector = FaultPlan::new(fault_seed()).with_device_death(DEAD_DEVICE, lifetime).arm();
        let parts = armed(w.ds.partitions(), &injector);
        let policy = recover_hard().with_failover(failover);
        let d = drain(start(&w, &fleet, mode, &parts, policy, 2, 4));
        assert_bit_identical(&d, &reference, &parts, &what);
        let dead_slot = 1; // devices sorted distinct: [0, 1]
        assert!(d.report.quarantined.contains(&dead_slot), "{what}: breaker must trip");
        assert_eq!(
            d.report.delivered as usize + d.report.failed_partitions.len(),
            d.report.partitions,
            "{what}: nothing dropped silently"
        );
        assert_eq!(d.report.partitions, reference.len(), "{what}");
        let on_dead: Vec<(usize, usize)> =
            reference.keys().copied().filter(|&(p, _)| parts[p].device == DEAD_DEVICE).collect();
        if fails_over(&fleet) && failover {
            assert!(d.errors.is_empty(), "{what}: failover covers the dead device");
            assert_eq!(d.ok.len(), reference.len(), "{what}: no unit lost");
            let mut via: Vec<(usize, usize)> =
                d.ok.iter().filter(|b| b.via_failover).map(|b| (b.partition, b.group)).collect();
            via.sort_unstable();
            assert_eq!(via, on_dead, "{what}: exactly the dead device's units fail over");
            assert_eq!(d.report.failovers as usize, on_dead.len(), "{what}");
            assert!(d.report.failed_partitions.is_empty(), "{what}");
            assert!(d.stats.p2p_bytes > 0, "{what}: healthy units still crossed the link");
        } else {
            // The host pipeline is the fallback path: with `failover: true`
            // it still has nowhere to go, so the dead units fail loudly —
            // as they do on every fleet with failover off.
            let mut ok: Vec<(usize, usize)> = d.ok.iter().map(|b| (b.partition, b.group)).collect();
            ok.sort_unstable();
            let healthy: Vec<(usize, usize)> =
                reference.keys().copied().filter(|k| !on_dead.contains(k)).collect();
            assert_eq!(ok, healthy, "{what}: every healthy-device unit still delivers");
            assert_eq!(d.errors.len(), on_dead.len(), "{what}: every dead unit fails loudly");
            for e in &d.errors {
                assert_eq!(e.device(), Some(DEAD_DEVICE), "{what}: tagged with the device: {e}");
                assert_eq!(parts[e.partition().expect("provenance")].device, DEAD_DEVICE);
            }
            assert_eq!(d.report.failovers, 0, "{what}");
            assert!(d.ok.iter().all(|b| !b.via_failover), "{what}");
            if let Some(job) = &d.job {
                assert_eq!(job.status, JobStatus::Failed, "{what}");
            }
        }
    }
}

fn fail_fast_corrupt_unit_surfaces_one_error_and_stops(mode: Mode) {
    const CORRUPT: usize = 3;
    let w = world();
    let mut parts = w.ds.partitions().to_vec();
    // Corrupt the page data only: the footer at the tail stays intact, so
    // footer enumeration succeeds and the fault surfaces mid-stream.
    let mut bytes = parts[CORRUPT].blob.as_bytes().to_vec();
    let end = bytes.len() * 6 / 10;
    for b in &mut bytes[16..end] {
        *b ^= 0xff;
    }
    parts[CORRUPT].blob = MemBlob::new(bytes);
    for fleet in fleets(&w.plan) {
        let what = format!("{} {mode:?}", fleet.name());
        let reference = reference(&w, &fleet, mode);
        // One worker and a capacity-1 channel: the worst case for a
        // deadlock, and claims are sequential so exactly one unit fails.
        let d = drain(start(&w, &fleet, mode, &parts, RetryPolicy::fail_fast(), 1, 1));
        assert_eq!(d.errors.len(), 1, "{what}: the error surfaces exactly once");
        let e = &d.errors[0];
        assert!(matches!(e.root(), PreprocessError::Extract(_)), "{what}: {e}");
        assert_eq!(e.partition(), Some(CORRUPT), "{what}: carries the failing partition");
        assert_eq!(e.device(), Some(parts[CORRUPT].device), "{what}: and its device");
        assert!(d.ok.iter().all(|b| b.partition != CORRUPT), "{what}");
        assert!(d.ok.len() < reference.len() - 1, "{what}: producers stopped early");
        assert_eq!(d.stats.completed, d.ok.len(), "{what}: halted within one unit");
        assert_eq!(d.report.failed_partitions, vec![CORRUPT], "{what}");
        if let Some(job) = &d.job {
            assert_eq!(job.status, JobStatus::Failed, "{what}");
        }
    }
}

fn dropping_a_full_capacity_one_channel_joins(mode: Mode) {
    let w = world();
    for fleet in fleets(&w.plan) {
        let what = format!("{} {mode:?}", fleet.name());
        let mut running =
            start(&w, &fleet, mode, w.ds.partitions(), RetryPolicy::fail_fast(), 2, 1);
        running.source.next_batch().expect("yields").expect("no faults");
        // Walk away with the channel full and producers blocked mid-send:
        // the drop must join every worker (a deadlock would hang here).
        drop(running.source);
        if let Some(service) = running.service {
            let job = service.shutdown().jobs.remove(0);
            assert_eq!(job.status, JobStatus::Cancelled, "{what}");
        }
    }
}

/// The stored chunk of `column` in `p`'s first row group, damaged: every
/// read of it fails its checksum, reads of every other column succeed.
fn with_damaged_column(p: &Partition, column: &str) -> Partition {
    let reader = FileReader::open(p.blob.clone()).expect("opens");
    let meta = reader.meta();
    let chunk = &meta.row_groups[0].columns[meta.schema.index_of(column).expect("stored")];
    let mut bytes = p.blob.as_bytes().to_vec();
    // The chunk ends in page payload, which the page checksum covers.
    bytes[(chunk.offset + chunk.byte_len - 1) as usize] ^= 0xff;
    Partition { blob: MemBlob::new(bytes), ..p.clone() }
}

/// A fault in the columns of one thread of a host pair: that half retries
/// to exhaustion, the other half's finished work is dropped, and the unit
/// ends as exactly one tagged error. A service job runs the same units on
/// one thread each and must agree.
fn a_fault_in_one_half_fails_exactly_its_unit(mode: Mode) {
    let w = world();
    let halves = w.plan.feature_halves();
    let reference = reference(&w, &Fleet::Host, mode);
    let seed = fault_seed() as usize;
    let policy = RetryPolicy::recover()
        .with_max_attempts(3)
        .with_backoff(Duration::ZERO, Duration::ZERO)
        .with_quarantine_after(0);
    for (half, columns) in [("A", halves.isp_columns()), ("B", halves.host_columns())] {
        let (victim, column) = (seed % PARTITIONS, &columns[seed % columns.len()]);
        let what = format!("host {mode:?}, {column} of thread {half}");
        let mut parts = w.ds.partitions().to_vec();
        parts[victim] = with_damaged_column(&parts[victim], column);
        let d = drain(start(&w, &Fleet::Host, mode, &parts, policy.clone(), 2, 2));
        assert_eq!(d.errors.len(), 1, "{what}: one unit, one error: {:?}", d.errors);
        let e = &d.errors[0];
        assert!(matches!(e.root(), PreprocessError::Extract(_)), "{what}: {e}");
        assert_eq!((e.partition(), e.device()), (Some(victim), Some(parts[victim].device)));
        assert_eq!(d.ok.len(), PARTITIONS - 1, "{what}: every other unit delivers");
        assert_bit_identical(&d, &reference, &parts, &what);
        assert!(d.ok.iter().all(|b| b.attempts == 1), "{what}: nothing else retried");
        assert_eq!(d.report.failed_partitions, vec![victim], "{what}");
        assert_eq!(
            d.report.delivered as usize + d.report.failed_partitions.len(),
            d.report.partitions,
            "{what}: nothing dropped silently"
        );
        // Only the damaged half faulted: three attempts, two of them retries.
        assert_eq!((d.report.faults, d.report.retries), (3, 2), "{what}");
    }
}

/// Device reads of a clean run on one zero-latency device, per fleet (in
/// [`fleets`] order) and mode: three reads per footer open plus one per
/// projected column chunk per row group. Six partitions of two groups, 40
/// projected columns: 6 × (3 + 2 × 40) = 498 for one open per unit. The
/// host pair opens twice (A and B, 40 columns between them); the split
/// opens once per side and reads the columns both sides project twice; the
/// shuffled stream opens every footer once, in its enumeration, and reads
/// each row group through that reader: 6 × 3 + 12 × 40 = 498. Only a
/// change to the I/O shape itself may move these.
fn clean_run_io_shape(mode: Mode) {
    let w = world();
    let want: [u64; 4] = match mode {
        Mode::Stream => [516, 498, 672, 498],
        Mode::Service => [498, 498, 672, 498],
    };
    for (fleet, want) in fleets(&w.plan).into_iter().zip(want) {
        let what = format!("{} {mode:?}", fleet.name());
        let probe = Arc::new(Device::new(DeviceModel::new(Duration::ZERO, 1)));
        let parts: Vec<Partition> =
            w.ds.partitions()
                .iter()
                .map(|p| Partition {
                    blob: p.blob.clone().behind_device(Arc::clone(&probe)),
                    ..p.clone()
                })
                .collect();
        let d = drain(start(&w, &fleet, mode, &parts, RetryPolicy::fail_fast(), 2, 4));
        assert!(d.errors.is_empty(), "{what}: {:?}", d.errors);
        assert_eq!(d.ok.len(), reference(&w, &fleet, mode).len(), "{what}: every unit delivered");
        assert_eq!(probe.stats().reads, want, "{what}: device reads");
    }
}

/// A transient fault on a shuffled group read — one chunk read returns
/// damaged bytes, the media behind it is intact — is retried through the
/// reader the footer enumeration opened. The stream stays bit-identical,
/// and the device serves exactly the enumeration's footer reads, each
/// group's chunk reads, and the chunk reads of every retried attempt: a
/// retry never opens the footer again.
#[test]
fn shuffled_retry_reads_through_the_enumerated_reader() {
    const PROJECTED: u64 = 40; // chunk reads per group, as in `clean_run_io_shape`
    let w = world();
    let fleet = Fleet::Shuffled(SHUFFLE);
    let reference = reference(&w, &fleet, Mode::Stream);
    let policy = RetryPolicy::recover()
        .with_max_attempts(2000)
        .with_backoff(Duration::ZERO, Duration::ZERO)
        .with_quarantine_after(0);
    let injector = FaultPlan::new(fault_seed()).with_corrupt_rate(0.02).arm();
    let faulty = armed(w.ds.partitions(), &injector);
    // A damaged footer read fails the enumeration, which is the stream's
    // only item and the caller's to respawn.
    for _ in 0..64 {
        let probe = Arc::new(Device::new(DeviceModel::new(Duration::ZERO, 1)));
        let parts: Vec<Partition> = faulty
            .iter()
            .map(|p| Partition {
                blob: p.blob.clone().behind_device(Arc::clone(&probe)),
                ..p.clone()
            })
            .collect();
        let d = drain(start(&w, &fleet, Mode::Stream, &parts, policy.clone(), 2, 3));
        if d.report.partitions == 0 {
            continue;
        }
        let what = "shuffled Stream, damaged reads";
        assert!(d.errors.is_empty(), "{what}: {:?}", d.errors);
        assert_eq!(d.ok.len(), reference.len(), "{what}: every unit delivered");
        assert_bit_identical(&d, &reference, &parts, what);
        assert!(d.report.retries > 0, "{what}: the seed must damage a group read");
        assert_eq!(d.report.retries, d.report.faults, "{what}: every fault was retried");
        let groups = reference.len() as u64;
        let want = PARTITIONS as u64 * 3 + (groups + d.report.retries) * PROJECTED;
        assert_eq!(probe.stats().reads, want, "{what}: device reads");
        return;
    }
    panic!("64 enumerations in a row read a damaged footer");
}

macro_rules! both_modes {
    ($($case:ident => $stream:ident, $service:ident;)*) => {$(
        #[test]
        fn $stream() {
            $case(Mode::Stream);
        }

        #[test]
        fn $service() {
            $case(Mode::Service);
        }
    )*};
}

both_modes! {
    clean_run_is_bit_identical_to_serial => clean_stream, clean_service_job;
    transient_faults_are_retried_to_a_bit_identical_stream =>
        transient_faults_stream, transient_faults_service_job;
    dead_device_fails_over_or_fails_loudly => dead_device_stream, dead_device_service_job;
    fail_fast_corrupt_unit_surfaces_one_error_and_stops =>
        fail_fast_stream, fail_fast_service_job;
    dropping_a_full_capacity_one_channel_joins => drop_full_stream, drop_full_service_job;
    a_fault_in_one_half_fails_exactly_its_unit =>
        half_fault_stream, half_fault_service_job;
    clean_run_io_shape => io_shape_stream, io_shape_service_job;
}
