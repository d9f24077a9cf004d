//! The streaming engine: every fleet is claim → attempt → (hand off) →
//! deliver over one set of parts.
//!
//! PreSto's argument (Fig. 9/10) is that an ISP unit and a CPU worker run
//! the *same* Extract → Transform → Load pipeline and differ only in where
//! it is placed. This module is that statement as code: the host, ISP,
//! split and shuffled fleets are configurations of one engine, and a
//! `presto_core::PreprocessService` job is one of its runs, driven by the
//! service's pool threads instead of its own ([`Fleet::drive`]).
//! Finished mini-batches stream to the consumer through a bounded channel
//! as they complete, so the first batch arrives while later units are
//! still being read. In an unordered run the channel bounds the finished
//! batches that wait for the consumer: `capacity` in it, plus one per
//! producer thread blocked on a full channel. An ordered run (the shuffled
//! fleet, or any stream after [`BatchStream::into_ordered`]) has no such
//! bound: the consumer drains the channel into its reorder buffer while it
//! waits for the next unit in sequence (see [Ordering](self#ordering)).
//!
//! # Unit source
//!
//! A *unit* is what one delivered batch is made from: a whole partition,
//! or one `PSTOCOL4` row group of it (shuffled fleet). Units are what the
//! run counts — [`RunReport::partitions`] is the unit count. Workers claim
//! units from one source per run, through one rule on every fleet: a
//! **claim window** over a sequence of the units. The sequence is the
//! identity `0..n` on the partition fleets (host, ISP, split), so a unit's
//! sequence number is its partition position, and the seeded
//! [`epoch_order`] permutation on the shuffled fleet, claimed from an
//! [`EpochCursor`]. The window spans [`FleetConfig::capacity`] positions
//! from the lowest unclaimed one; a claim takes the lowest-sequence
//! unclaimed unit in it whose device has no unit in flight, or else the
//! lowest unclaimed unit. Two workers therefore keep two devices busy when
//! the next two units of the sequence share one. With one device, or a
//! capacity of 1, claims follow the sequence exactly. Which worker takes
//! a unit is only load balancing: no worker is tied to a device.
//!
//! The source records per-device load ([`DeviceLoad`]): a unit occupies
//! its device from the start of its device-side phase until every thread
//! reading it is done — the one running that phase, or both threads of a
//! two-sided unit's pair. A fused claim occupies its device under the
//! window's lock, so two racing claimers never both see one device idle.
//! Thread A of a pair occupies its unit's device only once thread B has
//! accepted the claim's announcement (see
//! [two-sided units](self#two-sided-units)), so two pairs can both choose
//! one idle device.
//!
//! The shuffled fleet reads every unit through the partition's
//! [`FileReader`] its footer enumeration opened, so a unit's device work is
//! its row group's chunk reads alone. Every other fleet opens the
//! partition per unit.
//!
//! # Start-up
//!
//! Opening a run does only device I/O, and keeps every device busy while
//! it does. The shuffled fleet must know its units before any is claimed,
//! so it opens every footer first, two device round trips per partition
//! (the head and tail as one submission, then the footer). It opens them
//! with one opener per device, at most [`FleetConfig::workers`] of them
//! and the calling thread among them, each opening its devices' partitions
//! in partition order: the devices overlap their round trips, and every
//! device sees the reads a serial walk would make, in the same order. A
//! host stream's [feature halves](PreprocessPlan::feature_halves) were
//! dealt when the plan was compiled. The other fleets open nothing up
//! front.
//!
//! # Phases
//!
//! A [`Fleet`] runs each unit in at most two phases. The *device-side*
//! phase reads the unit's stored bytes and ends in a finished batch, a
//! staged hand-off, or a fall-back-to-host marker; the *host-side* phase
//! finishes whichever it receives. Every cell that reads stored bytes is
//! one side of the one unit call, [`UnitState::run`] (its
//! [side table](crate::executor)).
//!
//! | fleet | device-side phase | host-side phase |
//! |---|---|---|
//! | [`Fleet::Host`] in a driven run, [`Fleet::Shuffled`] | the whole unit: Extract + Transform + format | — |
//! | [`Fleet::Host`] in a stream | side A: thread A's half of the features, its dense columns filled into the unit's matrix → its state | side B: thread B's half and the label, concurrently; then A's state merged, B's dense columns filled + format |
//! | [`Fleet::Isp`] | the whole unit, P2P bytes and unit chunks counted | full plan from pristine media, on the same thread (failover only) |
//! | [`Fleet::Split`] | side A: the ISP stages, P2P, boundary bytes and unit chunks counted → its state | side B: the host stages that read no boundary value (concurrently in a stream); then A's state merged — boundary seeded, the rest of the host stages run — + format; or failover |
//!
//! The phase boundary is either fused on one thread (the ISP and shuffled
//! fleets, and every fleet of a driven run: one [`Driver::run_one`] call
//! claims a unit, runs both phases — a split unit's two sides one after
//! the other, failover included — and delivers it) or, for a stream's
//! two-sided units, a one-slot link between the two threads of a pair.
//!
//! # Driven runs
//!
//! [`Fleet::stream`] spawns the run's own threads. [`Fleet::drive`] builds
//! the same run — unit source, recovery, consumer end — and hands back a
//! [`Driver`] instead, so that a caller's threads run its units one call
//! at a time: the multi-tenant service's pool runs every job this way,
//! choosing which job's driver to call next. A driven run never pairs its
//! workers; each call claims through the run's window, whichever thread
//! makes it.
//!
//! # Two-sided units
//!
//! A stream of the host or split fleet runs every unit on two sides, each
//! one side of the unit call over a [`SplitPlan`]: side A its ISP stages,
//! side B its host stages. The split fleet passes its carried split. The
//! host fleet passes [`PreprocessPlan::feature_halves`], which splits
//! every unit **by feature, not by phase**: it deals the plan's features
//! (raw columns plus every chain that reads them) into two
//! dependency-closed halves, both on the host. Each worker is a pair of
//! threads over a one-slot link. Thread A claims a unit and *announces the
//! claim* to thread B; both then open the partition, Extract only their
//! own columns and run only their own stages, concurrently — B only the
//! host stages that read no boundary value. A then hands its state across
//! — the link's FIFO order per pair is `announce(u0), state(u0),
//! announce(u1), …` — and moves on to the next unit while B merges it:
//! seeds A's boundary outputs, runs the host stages that read them, fills
//! the dense columns no one filled yet and finishes the mini-batch. A host
//! pair's A fills its own dense columns into the unit's row-major matrix
//! before the hand-off; since [`PreprocessPlan::feature_halves`] deals
//! each class of features in contiguous runs, the two fills write mostly
//! disjoint cache lines of each row. No raw column crosses a core, A runs
//! at most one unit ahead, and output is bit-identical to the fused path
//! because every stage is pure and each matrix column is written once.
//!
//! # Ordering
//!
//! Every item travels with its sequence number — its position in the
//! source's delivery order. Fleets yield in completion order by default;
//! the shuffled fleet, and any stream after [`BatchStream::into_ordered`],
//! yields in sequence order through one reorder buffer at the consumer.
//! Shuffled output is therefore bit-identical across worker counts and
//! claim windows, and [`BatchStream::cursor`] counts units *yielded*, not
//! claimed.
//!
//! # Failure semantics
//!
//! Every surfaced error is wrapped as [`PreprocessError::At`] with the
//! failing partition and device. The [`RetryPolicy`] in
//! [`FleetConfig::recovery`] (fail-fast by default on every fleet) governs
//! the rest, identically for every fleet:
//!
//! * One retry loop wraps each phase attempt — the whole unit on the host,
//!   ISP and shuffled pipelines, one side of a two-sided unit. Every failed
//!   attempt counts as a fault against its device, and only *retryable*
//!   errors ([`PreprocessError::is_retryable`]: storage-side faults, which
//!   all happen in Extract, before Transform) are retried with capped
//!   exponential backoff until the attempt budget runs out (each side of a
//!   two-sided unit has the whole budget, A answering to the breaker as the
//!   device side, and the unit reports `a + b − 1` attempts), the device's
//!   consecutive-failure breaker trips (device-side attempts only), or the
//!   run is stopping.
//! * A unit claimed against a quarantined device is not attempted. A
//!   pair's thread A announces it to no one: it delivers its error, or, on
//!   a split with failover on, hands its failover across as the only
//!   hand-off.
//! * A device-side phase of an ISP or split pipeline that is quarantined or
//!   out of retries **fails over** when the policy allows: the host-side
//!   phase re-reads the pristine media
//!   ([`presto_columnar::MemBlob::without_faults`]) and runs the full plan
//!   — bit-identical output, tagged `via_failover`, no P2P bytes. The host
//!   pipeline *is* the fallback path: it has nowhere to fail over to and
//!   fails loudly instead.
//! * Every claimed unit ends as exactly one `Ok` batch or one tagged `Err`
//!   (`delivered + failed == units` under `fail_fast: false`) — on a pair
//!   whichever side failed, delivered by thread B. Under
//!   fail-fast the first error raises the stop flag *before* the possibly
//!   blocking send, so sibling producers halt within one unit.
//!
//! Dropping a [`BatchStream`] (even with a full channel) stops and joins
//! every worker and re-raises worker panics.

use crate::executor::{
    PreprocessError, ScratchSpace, Side, StageTimings, UnitState, FEATURE_BUFFER_ELEMS,
};
use crate::minibatch::MiniBatch;
use crate::plan::{PreprocessPlan, SplitPlan};
use crate::recovery::{RecoveryTracker, RetryPolicy, RunReport};
use crate::shuffle::{epoch_order, epoch_readers, EpochCursor, GroupRef, ShuffleSpec};
use crossbeam_channel::{bounded, Receiver, Sender};
use presto_columnar::{ColumnarError, FileReader, MemBlob};
use presto_datagen::Partition;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;

/// Configuration shared by every fleet.
///
/// `workers`, `capacity` and `recovery` mean the same thing on every fleet,
/// so one config drives an apples-to-apples comparison across all of them;
/// `recovery` defaults to **fail-fast** ([`RetryPolicy::fail_fast`])
/// everywhere. A host- or split-fleet worker of a stream is a pair of
/// threads (see [two-sided units](self#two-sided-units)): a unit's
/// `timings.extract` (and every op bucket) is then the *sum* over the two
/// threads — CPU time, which can exceed the unit's wall time.
#[derive(Debug, Clone)]
pub struct FleetConfig {
    /// Worker (pipeline) count; clamped to `1..=units`. A host or split
    /// stream runs this many pairs of threads.
    pub workers: usize,
    /// Output-channel capacity in mini-batches; producers block when full.
    /// On every fleet it is also the claim window: how far past the lowest
    /// unclaimed unit of the sequence a claim may look for an idle device.
    pub capacity: usize,
    /// Failure handling (retry, quarantine, ISP→host failover); defaults
    /// to [`RetryPolicy::fail_fast`] on every fleet.
    pub recovery: RetryPolicy,
}

impl FleetConfig {
    /// `workers` pipelines over a `capacity`-bounded channel, fail-fast
    /// failure handling.
    #[must_use]
    pub fn new(workers: usize, capacity: usize) -> Self {
        FleetConfig { workers, capacity, recovery: RetryPolicy::fail_fast() }
    }

    /// Sets the failure-handling policy (all fleets).
    #[must_use]
    pub fn with_recovery(mut self, recovery: RetryPolicy) -> Self {
        self.recovery = recovery;
        self
    }
}

/// One snapshot of a streaming run's counters — what
/// [`BatchStream::stats`] and `BatchSource::stats()` return.
///
/// Counters that do not apply to a fleet are zero (`p2p_bytes` on the host
/// fleet, `boundary_bytes` everywhere but the split fleet). `recovery` is
/// `None` only for sources that do not track recovery at all (e.g. ad-hoc
/// test sources using the trait's default implementation).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct StreamStats {
    /// Producer worker count (pairs of threads on a host or split stream).
    pub workers: usize,
    /// Output-channel capacity in mini-batches.
    pub capacity: usize,
    /// Mini-batches buffered ahead of the consumer right now.
    pub queued: usize,
    /// Units delivered so far ([`RunReport::delivered`]).
    pub completed: usize,
    /// Bytes moved over the emulated P2P / device link (ISP and split
    /// fleets; the host fleet reads through the page cache and reports 0).
    /// Failed-over units contribute nothing: their bytes moved over the
    /// host's block-I/O path.
    pub p2p_bytes: u64,
    /// Bytes of typed boundary hand-offs crossing the split fleet's
    /// ISP → host link (0 on single-fleet executors).
    pub boundary_bytes: u64,
    /// Recovery-activity snapshot (retries, quarantines, per-device fault
    /// counts, delivery accounting), when the source tracks recovery.
    pub recovery: Option<RunReport>,
}

/// One mini-batch as it leaves the pipeline.
#[derive(Debug)]
pub struct StreamedBatch {
    /// Position of the source partition in the input slice.
    pub partition: usize,
    /// Row group within the partition this batch was decoded from. Fleets
    /// that preprocess whole partitions at a time report group `0`; the
    /// shuffled fleet reports the actual `PSTOCOL4` row group index.
    pub group: usize,
    /// Storage device the partition lives on.
    pub device: usize,
    /// The preprocessed mini-batch.
    pub batch: MiniBatch,
    /// Per-stage wall-clock timings for this unit.
    pub timings: StageTimings,
    /// Attempts this batch took (1 = first try succeeded).
    pub attempts: u32,
    /// True when the batch was produced by the host failover path after
    /// its device-side phase gave up (never on the host pipeline, which is
    /// the fallback path).
    pub via_failover: bool,
}

/// Load observed on one storage device during a streaming run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DeviceLoad {
    /// Device id (`Partition::device`).
    pub device: usize,
    /// Units resident on the device.
    pub partitions: usize,
    /// Peak simultaneously in-flight units (from the start of the
    /// device-side phase until the last thread reading the unit is done —
    /// the window the device is actually busy). Values above 1 mean
    /// workers contended for the device.
    pub max_in_flight: usize,
}

/// Which fleet runs a stream: where each unit's stages execute, and which
/// units are claimed in which order (see the [module docs](self)).
///
/// ```
/// use presto_datagen::{Dataset, RmConfig};
/// use presto_ops::{Fleet, FleetConfig, PreprocessPlan};
///
/// let mut c = RmConfig::rm1();
/// c.batch_size = 32;
/// let plan = PreprocessPlan::from_config(&c, 7)?;
/// let ds = Dataset::generate(&c, 2, 32, 1, 7)?;
/// let config = FleetConfig::new(2, 4);
/// for fleet in [Fleet::Host, Fleet::Isp] {
///     let mut source = fleet.spawn(&plan, ds.partitions(), &config);
///     while let Some(item) = source.next_batch() {
///         item?;
///     }
/// }
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub enum Fleet {
    /// Host CPU fleet: Extract, Transform and format sliced by feature
    /// across a worker pair (fused on one thread in a driven run), claimed
    /// in partition order through the window.
    Host,
    /// In-storage fleet: the whole plan on one emulated ISP unit per
    /// worker, counting its traffic in [`FEATURE_BUFFER_ELEMS`]-element
    /// on-chip feature-buffer chunks (no op copies through a buffer), with
    /// host failover for quarantined devices run by the worker whose device
    /// side gave up.
    Isp,
    /// Hybrid split fleet: every unit two-sided, the carried split's ISP
    /// stages on an emulated ISP unit (side A) and its host stages on the
    /// host (side B), which seeds side A's boundary outputs (see
    /// [two-sided units](self#two-sided-units)).
    Split(SplitPlan),
    /// Shuffled-epoch fleet: every `PSTOCOL4` row group of the partitions
    /// through the host pipeline, claimed and **delivered in the seeded
    /// permutation order** of the carried spec's epoch, whatever the worker
    /// count. Partitions written without row grouping degrade to a
    /// whole-partition shuffle. Every footer is opened before the first
    /// claim, one opener per device, and each unit reads through its
    /// partition's opened reader.
    Shuffled(ShuffleSpec),
}

impl Fleet {
    /// Starts this fleet over `partitions` and returns the concrete handle
    /// (for `cursor`, `device_report`, `run_report`, …). Partition data is
    /// snapshotted via O(1) clones (`MemBlob` shares its bytes), so the
    /// stream is `'static` and outlives its arguments. Batches come in
    /// completion order ([`BatchStream::into_ordered`] for partition
    /// order), except on the shuffled fleet, which yields its permutation
    /// order. Errors — including the shuffled fleet's up-front footer
    /// enumeration ([`epoch_units`](crate::epoch_units)) — surface on the
    /// stream. That enumeration runs before this returns, with one opener
    /// per device (at most `config.workers`, this thread among them; see
    /// [start-up](self#start-up)).
    #[must_use]
    pub fn stream(
        &self,
        plan: &PreprocessPlan,
        partitions: &[Partition],
        config: &FleetConfig,
    ) -> BatchStream {
        let units = self.units(partitions, config.workers);
        BatchStream::start(plan, partitions, self.clone(), units, 0, config)
    }

    /// This fleet's run over `partitions`, driven by the caller's threads
    /// instead of its own: the consumer end, exactly as [`Fleet::stream`]
    /// yields it, plus the [`Driver`] whose every
    /// [`run_one`](Driver::run_one) call claims, runs and delivers one unit
    /// on the calling thread (see [driven runs](self#driven-runs)). The
    /// stream ends once every clone of the driver is dropped.
    #[must_use]
    pub fn drive(
        &self,
        plan: &PreprocessPlan,
        partitions: &[Partition],
        config: &FleetConfig,
    ) -> (BatchStream, Driver) {
        let units = self.units(partitions, config.workers);
        BatchStream::open(plan, partitions, self.clone(), units, 0, config, false)
    }

    /// The units a run of this fleet claims: every row group through the
    /// readers its footer enumeration opened with up to `workers` openers
    /// (shuffled), or every whole partition.
    fn units(
        &self,
        partitions: &[Partition],
        workers: usize,
    ) -> Result<(Vec<Unit>, Readers), PreprocessError> {
        match self {
            Fleet::Shuffled(_) => epoch_readers(partitions, workers).map(group_units),
            _ => Ok(((0..partitions.len()).map(Unit::partition).collect(), Vec::new())),
        }
    }

    /// [`Fleet::stream`] type-erased behind [`BatchSource`], for callers —
    /// a trainer, the benchmark — that treat fleets interchangeably.
    #[must_use]
    pub fn spawn(
        &self,
        plan: &PreprocessPlan,
        partitions: &[Partition],
        config: &FleetConfig,
    ) -> Box<dyn BatchSource + Send> {
        Box::new(self.stream(plan, partitions, config))
    }

    /// Short human-readable fleet name for reports and logs.
    #[must_use]
    pub fn name(&self) -> &'static str {
        match self {
            Fleet::Host => "host",
            Fleet::Isp => "isp",
            Fleet::Split(_) => "split",
            Fleet::Shuffled(_) => "shuffled",
        }
    }
}

/// The shuffled fleet's units, one per row group, with the readers the
/// enumeration opened.
fn group_units((groups, readers): (Vec<GroupRef>, Readers)) -> (Vec<Unit>, Readers) {
    (
        groups.iter().map(|g| Unit { partition: g.partition, group: Some(g.group) }).collect(),
        readers,
    )
}

/// One opened reader per partition (the shuffled fleet's), or none.
type Readers = Vec<FileReader<MemBlob>>;

/// A producer a consumer can drain: a blocking pull of preprocessed
/// mini-batches plus the channel introspection a trainer's occupancy
/// histogram needs. Implemented by [`BatchStream`], whichever fleet runs
/// it, and by the multi-tenant service's per-job handle, so a trainer
/// plugs into any of them unchanged.
pub trait BatchSource {
    /// Pulls the next mini-batch, blocking until one is ready; `None` ends
    /// the stream.
    fn next_batch(&mut self) -> Option<StreamItem>;

    /// Output-channel capacity (sizes the occupancy histogram).
    fn capacity(&self) -> usize;

    /// Mini-batches currently buffered in the output channel.
    fn queued(&self) -> usize;

    /// Consolidated fleet counters ([`StreamStats`]): queue depth,
    /// completed partitions, emulated P2P / boundary link traffic, and the
    /// recovery snapshot. The default covers sources without
    /// instrumentation (capacity and live queue depth only; everything
    /// else zero / `None`).
    fn stats(&self) -> StreamStats {
        StreamStats { capacity: self.capacity(), queued: self.queued(), ..StreamStats::default() }
    }
}

impl<S: BatchSource + ?Sized> BatchSource for Box<S> {
    fn next_batch(&mut self) -> Option<StreamItem> {
        (**self).next_batch()
    }

    fn capacity(&self) -> usize {
        (**self).capacity()
    }

    fn queued(&self) -> usize {
        (**self).queued()
    }

    fn stats(&self) -> StreamStats {
        (**self).stats()
    }
}

/// What one delivered batch is made from: a whole partition or one of its
/// row groups.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Unit {
    partition: usize,
    group: Option<usize>,
}

impl Unit {
    /// The whole partition at `position` of the run's partition slice.
    fn partition(position: usize) -> Self {
        Unit { partition: position, group: None }
    }
}

/// A finished unit, before delivery accounting: the batch, its timings,
/// the attempts both phases consumed, and whether failover produced it.
#[derive(Debug)]
struct Finished {
    batch: MiniBatch,
    timings: StageTimings,
    attempts: u32,
    via_failover: bool,
}

/// One stream item: a delivered batch or a tagged error.
pub type StreamItem = Result<StreamedBatch, PreprocessError>;

/// A stream item with its sequence number (position in the delivery
/// order), as it travels through the output channel.
type SeqItem = (usize, StreamItem);

/// What a device-side phase leaves behind for the host-side phase.
enum Staged {
    /// The whole unit ran fused (host, ISP and shuffled units): nothing
    /// left to do.
    Done(MiniBatch, StageTimings),
    /// Side A of a two-sided unit, finished: its outputs, and on a host
    /// pair the unit's matrix with A's dense columns filled, for side B to
    /// merge.
    Half(UnitState),
    /// The device side gave up: run the full plan from pristine media.
    Fallback,
    /// Two-sided stream: thread A has just claimed the unit and starts on
    /// side A. Thread B starts on side B now, and A's hand-off for the same
    /// unit is the next one on the pair's link.
    Claimed,
}

/// Which side of the phase boundary an attempt runs on. Device-side
/// attempts go through the unit's (possibly dying) device and answer to its
/// circuit breaker; host-side attempts use the host's own block-I/O path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    Device,
    Host,
}

/// The run state of one streaming run: what a worker needs to take a
/// claimed [`Unit`] to a delivered item, plus the counters behind
/// [`StreamStats`].
#[derive(Debug)]
struct Run {
    plan: PreprocessPlan,
    partitions: Vec<Partition>,
    /// The shuffled fleet's enumerated readers, one per partition; empty
    /// where every unit opens its partition (every other fleet).
    readers: Readers,
    fleet: Fleet,
    tracker: RecoveryTracker,
    /// Raised on a fail-fast error (and on consumer drop); producers
    /// observe it between units and between attempts.
    stop: AtomicBool,
    p2p_bytes: AtomicU64,
    boundary_bytes: AtomicU64,
}

impl Run {
    /// A run of `units` units of `partitions` on `fleet` under `recovery`.
    fn new(
        plan: PreprocessPlan,
        partitions: Vec<Partition>,
        fleet: Fleet,
        recovery: RetryPolicy,
        units: usize,
    ) -> Self {
        let devices: Vec<usize> = partitions.iter().map(|p| p.device).collect();
        Run {
            tracker: RecoveryTracker::new(recovery, &devices, units),
            plan,
            partitions,
            readers: Vec::new(),
            fleet,
            stop: AtomicBool::new(false),
            p2p_bytes: AtomicU64::new(0),
            boundary_bytes: AtomicU64::new(0),
        }
    }

    /// The run's counters as a [`StreamStats`] snapshot; the consumer's
    /// handle supplies what only it knows (`workers`, `capacity`, `queued`).
    /// Failed-over units contribute no `p2p_bytes`: their bytes moved over
    /// the host's block-I/O path.
    fn stats(&self, workers: usize, capacity: usize, queued: usize) -> StreamStats {
        let recovery = self.tracker.report();
        StreamStats {
            workers,
            capacity,
            queued,
            completed: usize::try_from(recovery.delivered).unwrap_or(usize::MAX),
            p2p_bytes: self.p2p_bytes.load(Ordering::Relaxed),
            boundary_bytes: self.boundary_bytes.load(Ordering::Relaxed),
            recovery: Some(recovery),
        }
    }

    fn slot(&self, unit: Unit) -> usize {
        self.tracker.slot_of(self.partitions[unit.partition].device)
    }

    /// The one retry loop. Runs `f` until it succeeds or the policy says
    /// stop: the error is not retryable, the attempt budget is spent, a
    /// device-side attempt's breaker is open, or the run is stopping.
    fn attempt<T>(
        &self,
        unit: Unit,
        phase: Phase,
        mut f: impl FnMut() -> Result<T, PreprocessError>,
    ) -> (Result<T, PreprocessError>, u32) {
        let slot = self.slot(unit);
        let policy = self.tracker.policy();
        let mut attempt = 1;
        loop {
            let e = match f() {
                Ok(value) => return (Ok(value), attempt),
                Err(e) => e,
            };
            self.tracker.note_fault(slot, unit.partition);
            let retry = e.is_retryable()
                && attempt < policy.max_attempts
                && (phase == Phase::Host || !self.tracker.is_quarantined(slot))
                && !self.stop.load(Ordering::Relaxed);
            if !retry {
                return (Err(e), attempt);
            }
            attempt += 1;
            let backoff = self.tracker.note_retry(slot, unit.partition, attempt);
            if !backoff.is_zero() {
                std::thread::sleep(backoff);
            }
        }
    }

    /// Circuit open: a unit claimed against a quarantined device is not
    /// attempted, but it is never dropped silently either — this is the
    /// error it ends as.
    fn quarantined(&self, unit: Unit) -> Option<PreprocessError> {
        let device = self.partitions[unit.partition].device;
        self.tracker.is_quarantined(self.tracker.slot_of(device)).then(|| {
            PreprocessError::Extract(ColumnarError::Io {
                detail: format!("device {device} quarantined (circuit breaker open)"),
            })
        })
    }

    /// The one unit call over `unit`'s stored partition: open (unless the
    /// enumeration already did), Extract `side`'s projection of the unit,
    /// run its stages.
    fn run_side(
        &self,
        unit: Unit,
        side: Side<'_>,
        scratch: &mut ScratchSpace,
    ) -> Result<UnitState, PreprocessError> {
        let (plan, p, group, read) =
            (&self.plan, unit.partition, unit.group, scratch.read_scratch());
        match self.readers.get(p) {
            Some(reader) => UnitState::run(plan, reader, group, side, read),
            None => UnitState::read(plan, self.partitions[p].blob.clone(), group, side, read),
        }
    }

    /// One device-side attempt of `unit`: the whole unit, or side A of
    /// `sides`. An ISP or split unit counts its link traffic on success; a
    /// host pair's side A fills its dense columns into the unit's matrix.
    fn device_attempt(
        &self,
        unit: Unit,
        sides: Option<&SplitPlan>,
        scratch: &mut ScratchSpace,
    ) -> Result<Staged, PreprocessError> {
        let isp = matches!(self.fleet, Fleet::Isp | Fleet::Split(_));
        let chunk = if isp { FEATURE_BUFFER_ELEMS } else { usize::MAX };
        let Some(split) = sides else {
            let side = self.run_side(unit, Side::whole(&self.plan, chunk), scratch)?;
            let fetched = side.fetched();
            let (batch, timings) = side.assemble(&self.plan)?;
            if isp {
                self.p2p_bytes.fetch_add(fetched, Ordering::Relaxed);
            }
            return Ok(Staged::Done(batch, timings));
        };
        let mut side = self.run_side(unit, Side::isp(split, chunk), scratch)?;
        if isp {
            self.p2p_bytes.fetch_add(side.fetched(), Ordering::Relaxed);
            self.boundary_bytes.fetch_add(side.boundary_bytes(split), Ordering::Relaxed);
        } else {
            side.fill_dense(&self.plan, Some(split.isp_stages()))?;
        }
        Ok(Staged::Half(side))
    }

    /// The device-side phase of one claimed unit (the whole unit, or side A
    /// of `sides`), with the attempts it consumed: quarantine pre-check,
    /// retry loop, and the decision to fail over to the host when the
    /// device side cannot finish.
    fn first_phase(
        &self,
        unit: Unit,
        sides: Option<&SplitPlan>,
        scratch: &mut ScratchSpace,
    ) -> (Result<Staged, PreprocessError>, u32) {
        // Nothing on side A (a one-feature plan's halves, a host-only
        // split): no device work, no P2P traffic.
        if sides.is_some_and(|split| split.isp_stages().is_empty()) {
            return (Ok(Staged::Half(UnitState::new(&self.plan))), 1);
        }
        let (result, attempts) = match self.quarantined(unit) {
            Some(e) => (Err(e), 0),
            None => self.attempt(unit, Phase::Device, || self.device_attempt(unit, sides, scratch)),
        };
        (result.or_else(|e| self.give_up(unit, e)), attempts)
    }

    /// A device side that gave up. A retryable error that survived the
    /// retry loop means the device (or its link) is gone for this unit; the
    /// media behind it is intact, so an ISP or split unit fails over to the
    /// host when the policy allows.
    fn give_up(&self, unit: Unit, e: PreprocessError) -> Result<Staged, PreprocessError> {
        let fails_over = matches!(self.fleet, Fleet::Isp | Fleet::Split(_));
        if !(e.is_retryable() && self.tracker.policy().failover && fails_over) {
            return Err(e);
        }
        self.tracker.note_failover(self.slot(unit), unit.partition);
        Ok(Staged::Fallback)
    }

    /// Side B of a two-sided unit under its own retry loop: the host
    /// projection and the host stages that read no boundary value.
    fn host_side(
        &self,
        unit: Unit,
        split: &SplitPlan,
        scratch: &mut ScratchSpace,
    ) -> (Result<UnitState, PreprocessError>, u32) {
        self.attempt(unit, Phase::Host, || self.run_side(unit, Side::host(split), scratch))
    }

    /// The host-side phase: finishes whatever the device side left behind.
    /// Side A's state is merged into side B's, which a two-sided stream's
    /// thread B ran already (`own`) and the fused path runs here.
    fn finish(
        &self,
        unit: Unit,
        sides: Option<&SplitPlan>,
        staged: Staged,
        attempts: u32,
        own: Option<(Result<UnitState, PreprocessError>, u32)>,
        scratch: &mut ScratchSpace,
    ) -> Result<Finished, PreprocessError> {
        let plan = &self.plan;
        let (batch, timings, attempts, via_failover) = match (staged, sides) {
            (Staged::Done(batch, timings), _) => (batch, timings, attempts, false),
            (Staged::Half(half), Some(split)) => {
                let (own, own_attempts) =
                    own.unwrap_or_else(|| self.host_side(unit, split, scratch));
                let mut side = own?;
                let mut timings = half.timings();
                side.merge(plan, split, half)?;
                let (batch, own_timings) = side.assemble(plan)?;
                timings.absorb(&own_timings);
                // Each side counts its attempts from 1.
                (batch, timings, attempts + own_attempts - 1, false)
            }
            (Staged::Fallback, _) => {
                let blob = self.partitions[unit.partition].blob.without_faults();
                let side = Side::whole(plan, usize::MAX);
                let read = scratch.read_scratch();
                let (batch, timings) =
                    UnitState::read(plan, blob, unit.group, side, read)?.assemble(plan)?;
                (batch, timings, 1, true)
            }
            (Staged::Half(_) | Staged::Claimed, _) => {
                return Err(PreprocessError::Plan {
                    detail: "a two-sided hand-off outside a two-sided unit".into(),
                });
            }
        };
        Ok(Finished { batch, timings, attempts, via_failover })
    }

    /// The one delivery path: accounts `outcome` in the tracker, tags an
    /// error with its failure site, and sends the item. Returns false when
    /// the producer should stop claiming for this run (fail-fast error, or
    /// the consumer is gone).
    fn deliver(
        &self,
        tx: &Sender<SeqItem>,
        seq: usize,
        unit: Unit,
        outcome: Result<Finished, PreprocessError>,
    ) -> bool {
        let device = self.partitions[unit.partition].device;
        let slot = self.tracker.slot_of(device);
        match outcome {
            Ok(done) => {
                self.tracker.note_delivered(slot, unit.partition, done.via_failover);
                let item = StreamedBatch {
                    partition: unit.partition,
                    group: unit.group.unwrap_or(0),
                    device,
                    batch: done.batch,
                    timings: done.timings,
                    attempts: done.attempts.max(1),
                    via_failover: done.via_failover,
                };
                tx.send((seq, Ok(item))).is_ok()
            }
            Err(e) => {
                self.tracker.note_failed(slot, unit.partition);
                let e = e.with_location(unit.partition, device);
                if self.tracker.policy().fail_fast {
                    // Raise the stop flag *before* blocking on the (possibly
                    // full) channel, so sibling producers halt within one
                    // unit even if the consumer is slow.
                    self.stop.store(true, Ordering::Relaxed);
                    let _ = tx.send((seq, Err(e)));
                    false
                } else {
                    // Graceful degradation: surface this unit's error
                    // inline and keep streaming the rest.
                    tx.send((seq, Err(e))).is_ok()
                }
            }
        }
    }
}

/// A claimed unit: its sequence number plus the bookkeeping needed to
/// release the device when its last reader is done.
#[derive(Debug, Clone, Copy)]
struct Claim {
    seq: usize,
    unit: Unit,
    slot: usize,
}

#[derive(Debug, Default)]
struct DeviceCounters {
    device: usize,
    resident: usize,
    in_flight: AtomicUsize,
    max_in_flight: AtomicUsize,
}

/// The one claim interface over a run's units: a window over their
/// sequence (see [the module docs](self#unit-source)).
#[derive(Debug)]
struct UnitSource {
    /// The unit at each sequence number.
    units: Vec<Unit>,
    /// Device slot of each unit.
    slots: Vec<usize>,
    /// Threads that have yet to finish reading each unit: one, or the two
    /// of a pair.
    reading: Vec<AtomicUsize>,
    /// How far past the lowest unclaimed position a claim may look.
    window: usize,
    /// The lowest unclaimed position and, per position, whether it is
    /// claimed.
    claimed: Mutex<(usize, Vec<bool>)>,
    loads: Vec<DeviceCounters>,
}

impl UnitSource {
    /// Claims `units` — in sequence order — from position `start` through
    /// a window of `window` positions. Each unit is read by `readers`
    /// threads.
    fn new(run: &Run, units: Vec<Unit>, start: usize, window: usize, readers: usize) -> Self {
        let mut loads: Vec<DeviceCounters> = run
            .tracker
            .devices()
            .iter()
            .map(|&device| DeviceCounters { device, ..DeviceCounters::default() })
            .collect();
        let slots: Vec<usize> = units.iter().map(|&u| run.slot(u)).collect();
        for &slot in &slots {
            loads[slot].resident += 1;
        }
        let reading = units.iter().map(|_| AtomicUsize::new(readers)).collect();
        let claimed = Mutex::new((start, vec![false; units.len()]));
        UnitSource { units, slots, reading, window: window.max(1), claimed, loads }
    }

    /// Claims the lowest-sequence unclaimed unit in the window whose device
    /// is idle, or else the lowest unclaimed unit, and with `occupy`
    /// occupies its device ([`UnitSource::occupy`]) under the window's
    /// lock, so the next claimer sees it.
    fn claim(&self, occupy: bool) -> Option<Claim> {
        let mut guard = self.claimed.lock().expect("claim window lock");
        let (low, taken) = &mut *guard;
        let mut ahead = *low..self.units.len().min(*low + self.window);
        let idle = |&seq: &usize| {
            !taken[seq] && self.loads[self.slots[seq]].in_flight.load(Ordering::Relaxed) == 0
        };
        let seq = ahead.clone().find(idle).or_else(|| ahead.next())?;
        taken[seq] = true;
        while taken.get(*low) == Some(&true) {
            *low += 1;
        }
        let claim = Claim { seq, unit: self.units[seq], slot: self.slots[seq] };
        if occupy {
            self.occupy(claim);
        }
        Some(claim)
    }

    /// The claim's unit occupies its device from now until every one of
    /// its readers has called [`UnitSource::release`].
    fn occupy(&self, claim: Claim) {
        let load = &self.loads[claim.slot];
        let now = load.in_flight.fetch_add(1, Ordering::Relaxed) + 1;
        load.max_in_flight.fetch_max(now, Ordering::Relaxed);
    }

    /// One reader of the claim's unit is done with the device; the last
    /// one frees it. `AcqRel`: the last reader's decrement of `in_flight`
    /// must come after the occupying thread's increment, which precedes
    /// that thread's own release.
    fn release(&self, claim: Claim) {
        if self.reading[claim.seq].fetch_sub(1, Ordering::AcqRel) == 1 {
            self.loads[claim.slot].in_flight.fetch_sub(1, Ordering::Relaxed);
        }
    }

    fn report(&self) -> Vec<DeviceLoad> {
        self.loads
            .iter()
            .map(|load| DeviceLoad {
                device: load.device,
                partitions: load.resident,
                max_in_flight: load.max_in_flight.load(Ordering::Relaxed),
            })
            .collect()
    }
}

/// Everything the workers of one streaming run share.
#[derive(Debug)]
struct Engine {
    run: Run,
    source: UnitSource,
}

/// A unit in flight between the two threads of a two-sided stream: the
/// claim announcement, then side A's outcome. Thread A sends an `Err` only
/// for an announced unit: thread B is already working on it, so the failure
/// travels to B and the unit still ends as one item.
struct Handoff {
    claim: Claim,
    staged: Result<Staged, PreprocessError>,
    attempts: u32,
}

impl Engine {
    /// Thread A of a two-sided stream: claim → announce the claim to
    /// thread B → occupy → side A → release → hand side A's state across.
    /// The link holds one hand-off, so A starts on the next unit while B
    /// merges this one and then waits: at most one unit ahead. A unit
    /// claimed against a quarantined device is announced to no one: its
    /// error is delivered here, or its failover is the only hand-off.
    fn first_loop(&self, sides: &SplitPlan, link: &Sender<Handoff>, tx: &Sender<SeqItem>) {
        let mut scratch = ScratchSpace::new();
        while !self.run.stop.load(Ordering::Relaxed) {
            let Some(claim) = self.source.claim(false) else { break };
            let (staged, attempts) = match self.run.quarantined(claim.unit) {
                Some(e) => match self.run.give_up(claim.unit, e) {
                    Err(e) => {
                        if self.run.deliver(tx, claim.seq, claim.unit, Err(e)) {
                            continue;
                        }
                        break;
                    }
                    fallback => (fallback, 0),
                },
                None => {
                    let claimed = Handoff { claim, staged: Ok(Staged::Claimed), attempts: 0 };
                    if link.send(claimed).is_err() {
                        break;
                    }
                    // Occupied only now: the announcement was accepted, so B
                    // has finished reading the previous unit.
                    self.source.occupy(claim);
                    let first = self.run.first_phase(claim.unit, Some(sides), &mut scratch);
                    self.source.release(claim);
                    first
                }
            };
            if link.send(Handoff { claim, staged, attempts }).is_err() {
                break;
            }
        }
    }

    /// Thread B of a two-sided stream: on an announcement, side B under its
    /// own retry loop while A runs side A, then A's hand-off — merged,
    /// failed over or delivered as its error. Exits when thread A is gone.
    fn second_loop(&self, sides: &SplitPlan, link: &Receiver<Handoff>, tx: &Sender<SeqItem>) {
        let mut scratch = ScratchSpace::new();
        while let Ok(Handoff { claim, mut staged, mut attempts }) = link.recv() {
            if self.run.stop.load(Ordering::Relaxed) {
                break;
            }
            let mut own = None;
            if matches!(staged, Ok(Staged::Claimed)) {
                own = Some(self.run.host_side(claim.unit, sides, &mut scratch));
                self.source.release(claim);
                let Ok(handoff) = link.recv() else { break };
                (staged, attempts) = (handoff.staged, handoff.attempts);
            }
            let outcome = staged.and_then(|staged| {
                self.run.finish(claim.unit, Some(sides), staged, attempts, own, &mut scratch)
            });
            if !self.run.deliver(tx, claim.seq, claim.unit, outcome) {
                break;
            }
        }
    }
}

/// The producer end of one run, for threads that are not the run's own:
/// each [`Driver::run_one`] call claims one unit, runs both its phases on
/// the calling thread and delivers it into the run's [`BatchStream`]. Every
/// fused worker of a spawned stream is a loop over this call, and the
/// multi-tenant service's pool calls it for whichever job it serves next
/// ([`Fleet::drive`]). A clone is one more producer handle; the stream ends
/// when the last one is dropped.
#[derive(Debug, Clone)]
pub struct Driver {
    engine: Arc<Engine>,
    tx: Sender<SeqItem>,
    /// The run's units could not be enumerated: its error is the stream's
    /// only item.
    failed_start: bool,
}

impl Driver {
    /// Units the run claims in all (0 after a failed start).
    #[must_use]
    pub fn units(&self) -> usize {
        self.engine.source.units.len()
    }

    /// Whether the run is stopping: a fail-fast error, or the consumer
    /// end was dropped. A stopping run claims nothing more.
    #[must_use]
    pub fn stopped(&self) -> bool {
        self.engine.run.stop.load(Ordering::Relaxed)
    }

    /// Whether an error ended the run early: its units could not be
    /// enumerated, or a unit failed under a fail-fast policy.
    #[must_use]
    pub fn failed(&self) -> bool {
        let tracker = &self.engine.run.tracker;
        self.failed_start
            || (tracker.policy().fail_fast && !tracker.report().failed_partitions.is_empty())
    }

    /// The run's recovery snapshot ([`BatchStream::run_report`]).
    #[must_use]
    pub fn run_report(&self) -> RunReport {
        self.engine.run.tracker.report()
    }

    /// Claims one unit through the run's window, runs both phases on the
    /// calling thread and delivers the batch or the tagged error. Returns
    /// false when nothing was claimed (the source is drained or the run is
    /// stopping) or the run should stop (a fail-fast error, or the consumer
    /// is gone). The output channel holds [`FleetConfig::capacity`] items,
    /// so a caller that wants the call never to block keeps at most that
    /// many units claimed and not yet pulled.
    pub fn run_one(&self, scratch: &mut ScratchSpace) -> bool {
        let (run, source) = (&self.engine.run, &self.engine.source);
        if run.stop.load(Ordering::Relaxed) {
            return false;
        }
        let Some(claim) = source.claim(true) else { return false };
        // A split unit's two sides run one after the other.
        let sides = match &run.fleet {
            Fleet::Split(split) => Some(split),
            _ => None,
        };
        let (staged, attempts) = run.first_phase(claim.unit, sides, scratch);
        source.release(claim);
        let outcome = staged
            .and_then(|staged| run.finish(claim.unit, sides, staged, attempts, None, scratch));
        run.deliver(&self.tx, claim.seq, claim.unit, outcome)
    }
}

/// The consumer's end of a streaming run — the one handle every fleet
/// returns: an iterator of `Result<StreamedBatch, PreprocessError>`.
///
/// Dropping the stream stops the producers (stop flag + channel disconnect)
/// and joins every worker thread; no batches leak and nothing deadlocks
/// even when the channel is full.
#[derive(Debug)]
pub struct BatchStream {
    rx: Option<Receiver<SeqItem>>,
    handles: Vec<JoinHandle<()>>,
    engine: Arc<Engine>,
    /// Yield in sequence order (through `pending`) instead of arrival
    /// order.
    ordered: bool,
    /// The reorder buffer: out-of-order arrivals by sequence number. No
    /// configuration bounds it: the consumer drains the channel into it
    /// while it waits, so it holds every unit finished past the one it
    /// waits for — at most what the other workers complete while that unit
    /// is in flight.
    pending: BTreeMap<usize, StreamItem>,
    /// Next sequence number to yield in ordered mode — the consumer-side
    /// watermark the cursor is derived from, so a resumed run never
    /// re-delivers or skips a unit no matter what producers had claimed
    /// ahead.
    next_seq: usize,
    shuffle: Option<ShuffleSpec>,
    workers: usize,
    capacity: usize,
}

impl BatchStream {
    /// Starts a host-fleet run, [`Fleet::Host`]'s [`Fleet::stream`]:
    /// partitions claimed in order through the window, workers paired,
    /// batches yielded **as they complete**.
    #[must_use]
    pub fn spawn(
        plan: &PreprocessPlan,
        partitions: &[Partition],
        config: &FleetConfig,
    ) -> BatchStream {
        Fleet::Host.stream(plan, partitions, config)
    }

    /// Resumes a shuffled epoch from a serialized [`EpochCursor`]: unit
    /// `next` of the permutation is the first delivered, and the
    /// continuation is bit-identical to the uninterrupted run's tail.
    ///
    /// # Errors
    ///
    /// Fails when the cursor's `units` does not match the dataset's row
    /// grouping (a cursor from a different dataset or group size), or when
    /// the footers cannot be enumerated.
    pub fn resume(
        plan: &PreprocessPlan,
        partitions: &[Partition],
        cursor: EpochCursor,
        config: &FleetConfig,
    ) -> Result<BatchStream, PreprocessError> {
        let (units, readers) = group_units(epoch_readers(partitions, config.workers)?);
        if cursor.units != units.len() as u64 {
            return Err(PreprocessError::Extract(ColumnarError::CorruptFile {
                detail: format!(
                    "epoch cursor was taken over {} units but the dataset has {} — \
                     different data or row-group size",
                    cursor.units,
                    units.len()
                ),
            }));
        }
        let fleet = Fleet::Shuffled(ShuffleSpec { seed: cursor.seed, epoch: cursor.epoch });
        Ok(Self::start(plan, partitions, fleet, Ok((units, readers)), cursor.next, config))
    }

    /// Builds `fleet`'s run over `units` (with the partitions' readers,
    /// when the enumeration opened them) and returns its consumer end and
    /// its [`Driver`]: the shuffled fleet streams its permutation from
    /// position `next` in sequence order, every other fleet in completion
    /// order. With `paired`, the host and split fleets' units are two-sided
    /// (two readers each); otherwise every unit runs fused through the
    /// driver. A failed `units` becomes the stream's only item.
    fn open(
        plan: &PreprocessPlan,
        partitions: &[Partition],
        fleet: Fleet,
        units: Result<(Vec<Unit>, Readers), PreprocessError>,
        next: u64,
        config: &FleetConfig,
        paired: bool,
    ) -> (BatchStream, Driver) {
        let shuffle = match fleet {
            Fleet::Shuffled(spec) => Some(spec),
            _ => None,
        };
        let two_sided = paired && matches!(fleet, Fleet::Host | Fleet::Split(_));
        let ((units, readers), spawn_error) = match units {
            Ok(units) => (units, None),
            Err(e) => ((Vec::new(), Vec::new()), Some(e)),
        };
        let n = units.len();
        let workers = config.workers.max(1).min(n.max(1));
        let capacity = config.capacity.max(1);
        let recovery = config.recovery.clone();
        let run =
            Run { readers, ..Run::new(plan.clone(), partitions.to_vec(), fleet, recovery, n) };
        let start = usize::try_from(next).unwrap_or(usize::MAX).min(n);
        // The claim sequence: the permutation on the shuffled fleet, the
        // partitions' own order on every other.
        let units = match shuffle {
            Some(spec) => epoch_order(n, spec.seed, spec.epoch).iter().map(|&i| units[i]).collect(),
            None => units,
        };
        let source = UnitSource::new(&run, units, start, capacity, if two_sided { 2 } else { 1 });
        let engine = Arc::new(Engine { run, source });

        let (tx, rx) = bounded::<SeqItem>(capacity);
        let failed_start = spawn_error.is_some();
        if let Some(e) = spawn_error {
            // Capacity >= 1 and no producer has run: this cannot block.
            let _ = tx.send((start, Err(e)));
        }
        let stream = BatchStream {
            rx: Some(rx),
            handles: Vec::new(),
            engine: Arc::clone(&engine),
            ordered: shuffle.is_some(),
            pending: BTreeMap::new(),
            next_seq: start,
            shuffle,
            workers,
            capacity,
        };
        (stream, Driver { engine, tx, failed_start })
    }

    /// [`BatchStream::open`] with the run's own threads: a pair of threads
    /// per worker over a one-slot link where units are two-sided (host and
    /// split fleets, see [two-sided units](self#two-sided-units)), and
    /// otherwise fused workers, each a loop over the driver.
    fn start(
        plan: &PreprocessPlan,
        partitions: &[Partition],
        fleet: Fleet,
        units: Result<(Vec<Unit>, Readers), PreprocessError>,
        next: u64,
        config: &FleetConfig,
    ) -> BatchStream {
        let (mut stream, driver) = Self::open(plan, partitions, fleet, units, next, config, true);
        let engine = Arc::clone(&stream.engine);
        let (name, sides) = match &engine.run.fleet {
            Fleet::Host => ("presto-host", Some(Arc::clone(engine.run.plan.feature_halves()))),
            Fleet::Split(split) => ("presto-split", Some(Arc::new(split.clone()))),
            Fleet::Isp => ("presto-isp", None),
            Fleet::Shuffled(_) => ("presto-shuffle", None),
        };
        let mut spawn = |name: String, body: Box<dyn FnOnce() + Send>| {
            stream.handles.push(
                std::thread::Builder::new().name(name).spawn(body).expect("spawn stream worker"),
            );
        };
        for worker in 0..stream.workers {
            let (engine, driver) = (Arc::clone(&engine), driver.clone());
            let Some(sides) = sides.clone() else {
                // Fused: each worker runs both phases of its units (an ISP
                // unit's failover included), as a service job's pool
                // threads do.
                spawn(
                    format!("{name}-{worker}"),
                    Box::new(move || {
                        let mut scratch = ScratchSpace::new();
                        while driver.run_one(&mut scratch) {}
                    }),
                );
                continue;
            };
            let (link_tx, link_rx) = bounded::<Handoff>(1);
            let (engine_b, sides_b, tx) =
                (Arc::clone(&engine), Arc::clone(&sides), driver.tx.clone());
            spawn(
                format!("{name}-a-{worker}"),
                Box::new(move || engine.first_loop(&sides, &link_tx, &driver.tx)),
            );
            spawn(
                format!("{name}-b-{worker}"),
                Box::new(move || engine_b.second_loop(&sides_b, &link_rx, &tx)),
            );
        }
        drop(driver); // the workers' clones are now the only senders
        stream
    }

    /// Consolidated counters ([`StreamStats`]).
    #[must_use]
    pub fn stats(&self) -> StreamStats {
        self.engine.run.stats(self.workers, self.capacity, self.queued())
    }

    /// Effective channel capacity (after clamping).
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Mini-batches buffered ahead of the consumer at the instant of the
    /// call, counting both the output channel and the reorder buffer. A
    /// trainer sampling this on every pull builds the queue-occupancy
    /// histogram that shows whether producers ran ahead (queue full) or
    /// the consumer starved (queue empty).
    #[must_use]
    pub fn queued(&self) -> usize {
        self.rx.as_ref().map_or(0, Receiver::len) + self.pending.len()
    }

    /// Per-device load snapshot (final after the stream is drained).
    #[must_use]
    pub fn device_report(&self) -> Vec<DeviceLoad> {
        self.engine.source.report()
    }

    /// Recovery-activity snapshot ([`RunReport`]: retries, failovers,
    /// quarantines, per-device fault counts, delivery timeline; its
    /// `partitions` counts units). Final once the stream is drained;
    /// callable mid-stream for live monitoring.
    #[must_use]
    pub fn run_report(&self) -> RunReport {
        self.engine.run.tracker.report()
    }

    /// The resume checkpoint of a shuffled stream as of now (`None` on
    /// fleets without an epoch permutation): everything before the cursor
    /// has been **yielded to the consumer** (not merely claimed by a
    /// producer), so feeding it to [`BatchStream::resume`] — on this
    /// process or another — continues the epoch without gaps or repeats.
    #[must_use]
    pub fn cursor(&self) -> Option<EpochCursor> {
        self.shuffle.map(|spec| EpochCursor {
            seed: spec.seed,
            epoch: spec.epoch,
            next: self.next_seq as u64,
            units: self.engine.source.units.len() as u64,
        })
    }

    /// Switches the stream to sequence order (partition order on the
    /// partition fleets; the shuffled fleet already is), buffering
    /// out-of-order arrivals; output is bit-identical to serial execution.
    /// Call before pulling the first item.
    ///
    /// Errors are ordered like batches: a failed unit's `Err` is yielded
    /// at its position. After an early stop (fail-fast) some positions
    /// never arrive; whatever did is flushed in order once the producers
    /// are done, so every produced item is surfaced exactly once — even
    /// with a full capacity-1 channel, since the consumer keeps draining
    /// the channel while it waits.
    #[must_use]
    pub fn into_ordered(mut self) -> BatchStream {
        self.ordered = true;
        self
    }

    fn join_workers(&mut self) {
        for handle in self.handles.drain(..) {
            if let Err(panic) = handle.join() {
                if !std::thread::panicking() {
                    std::panic::resume_unwind(panic);
                }
            }
        }
    }
}

impl Iterator for BatchStream {
    type Item = StreamItem;

    fn next(&mut self) -> Option<StreamItem> {
        loop {
            if let Some(entry) = self.pending.first_entry() {
                if *entry.key() == self.next_seq {
                    self.next_seq += 1;
                    return Some(entry.remove());
                }
            }
            match self.rx.as_ref().and_then(|rx| rx.recv().ok()) {
                Some((_, item)) if !self.ordered => return Some(item),
                Some((seq, item)) => {
                    self.pending.insert(seq, item);
                }
                None => {
                    // All senders gone: the run is over; reap the threads,
                    // then flush whatever arrived past a gap (only
                    // reachable after an early stop).
                    self.join_workers();
                    let (seq, item) = self.pending.pop_first()?;
                    self.next_seq = seq + 1;
                    return Some(item);
                }
            }
        }
    }
}

impl Drop for BatchStream {
    fn drop(&mut self) {
        self.engine.run.stop.store(true, Ordering::Relaxed);
        // Disconnect the channel so producers blocked on a full queue fail
        // their send and exit instead of deadlocking.
        self.rx = None;
        self.join_workers();
    }
}

impl BatchSource for BatchStream {
    fn next_batch(&mut self) -> Option<StreamItem> {
        self.next()
    }

    fn capacity(&self) -> usize {
        BatchStream::capacity(self)
    }

    fn queued(&self) -> usize {
        BatchStream::queued(self)
    }

    fn stats(&self) -> StreamStats {
        BatchStream::stats(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use presto_columnar::{Device, DeviceModel};
    use presto_datagen::{generate_batch, write_partition, Dataset, RmConfig};
    use proptest::prelude::*;
    use std::time::Duration;

    fn tiny_config(rows: usize) -> RmConfig {
        let mut c = RmConfig::rm1();
        c.batch_size = rows;
        c
    }

    fn dataset(partitions: usize, rows: usize, devices: usize) -> (RmConfig, Dataset) {
        let c = tiny_config(rows);
        let ds = Dataset::generate(&c, partitions, rows, devices, 7).unwrap();
        (c, ds)
    }

    /// `blob` behind a private emulated device whose queue is deep enough
    /// that no read of these tests waits for a slot: every read pays
    /// `latency`, and nothing else.
    fn slow(blob: MemBlob, latency: Duration) -> MemBlob {
        blob.behind_device(Arc::new(Device::new(DeviceModel::new(latency, 32))))
    }

    /// A plan with one feature: `sparse_0` alone. The dealing puts it whole
    /// on thread B, so thread A of a pair reads nothing.
    fn one_feature_plan(c: &RmConfig) -> PreprocessPlan {
        let graph = crate::PlanGraph::new(vec![crate::ChainSpec::feature(
            "sparse_0",
            "sparse_0",
            vec![crate::Op::SigridHash(crate::SigridHasher::new(1, 1000).unwrap())],
        )]);
        PreprocessPlan::compile(graph, c).unwrap()
    }

    #[test]
    fn streaming_matches_serial_in_order() {
        // RM1, a one-feature plan, and RM5 (504 dense columns, so each
        // thread of a pair fills two long runs of every row), each with a
        // 0-row partition among its partitions.
        let with_empty = |c: &RmConfig, ds: Dataset| {
            let mut parts = ds.partitions().to_vec();
            let blob = write_partition(&generate_batch(c, 0, 3)).unwrap();
            parts.insert(1, Partition { index: 1, device: 1, rows: 0, blob });
            for (index, p) in parts.iter_mut().enumerate() {
                p.index = index;
            }
            parts
        };
        let (c, ds) = dataset(6, 32, 2);
        let rm1 = with_empty(&c, ds);
        let mut c5 = RmConfig::rm5();
        c5.batch_size = 16;
        let rm5 = with_empty(&c5, Dataset::generate(&c5, 3, 16, 2, 7).unwrap());
        for (plan, parts) in [
            (PreprocessPlan::from_config(&c, 1).unwrap(), &rm1),
            (one_feature_plan(&c), &rm1),
            (PreprocessPlan::from_config(&c5, 1).unwrap(), &rm5),
        ] {
            let serial: Vec<MiniBatch> = parts
                .iter()
                .map(|p| crate::executor::preprocess_partition(&plan, p.blob.clone()).unwrap().0)
                .collect();
            assert_eq!(serial[1].rows(), 0);
            let streamed: Vec<MiniBatch> =
                BatchStream::spawn(&plan, parts, &FleetConfig::new(3, 2))
                    .into_ordered()
                    .map(|item| item.unwrap().batch)
                    .collect();
            assert_eq!(streamed, serial);
        }
    }

    #[test]
    fn first_batch_arrives_before_last_partition_finishes() {
        // Partition 0 is ~64x the others *and* sits behind an emulated
        // slow device, so its worker provably sleeps while the small
        // partitions stream past it — a small partition must reach the
        // consumer while the big one is still in flight, the defining
        // property of streaming execution. (The latency, not just the row
        // count, is what makes this deterministic on a loaded single-core
        // runner: raw size alone races the OS scheduler.)
        let c = tiny_config(32);
        let plan = PreprocessPlan::from_config(&c, 1).unwrap();
        let mut partitions = Vec::new();
        for (index, rows) in [2048usize, 32, 32, 32].into_iter().enumerate() {
            let batch = generate_batch(&c, rows, index as u64 + 1);
            let mut blob = write_partition(&batch).unwrap();
            if index == 0 {
                blob = slow(blob, Duration::from_millis(2));
            }
            partitions.push(Partition { index, device: index % 2, rows, blob });
        }
        let mut stream = BatchStream::spawn(&plan, &partitions, &FleetConfig::new(2, 4));
        let first = stream.next().expect("stream yields").expect("no error");
        assert!(
            stream.stats().completed < partitions.len(),
            "first batch must arrive while other partitions are unfinished"
        );
        assert_ne!(first.partition, 0, "the slow partition cannot be first");
        // Drain the rest: all four partitions arrive exactly once.
        let mut seen: Vec<usize> = stream.by_ref().map(|i| i.unwrap().partition).collect();
        seen.push(first.partition);
        seen.sort_unstable();
        assert_eq!(seen, vec![0, 1, 2, 3]);
    }

    #[test]
    fn one_pair_streams_partitions_in_order_across_devices() {
        // Partition `i` lives on device `i % 4`, so the lowest unclaimed
        // partition is always on an idle device: one pair claims, and so
        // delivers, in partition order, with no reorder buffer.
        let (c, ds) = dataset(8, 16, 4);
        let plan = PreprocessPlan::from_config(&c, 1).unwrap();
        let mut stream = BatchStream::spawn(&plan, ds.partitions(), &FleetConfig::new(1, 8));
        let order: Vec<usize> = stream.by_ref().map(|i| i.unwrap().partition).collect();
        assert_eq!(order, (0..8).collect::<Vec<_>>());
        let report = stream.device_report();
        assert_eq!(report.len(), 4);
        assert_eq!(report.iter().map(|d| d.partitions).sum::<usize>(), 8);
        assert!(report.iter().all(|d| d.max_in_flight == 1), "{report:?}");
    }

    #[test]
    fn contention_is_visible_when_workers_outnumber_devices() {
        let (c, ds) = dataset(8, 24, 1);
        let plan = PreprocessPlan::from_config(&c, 1).unwrap();
        // Emulated device latency keeps each Extract on the device long
        // enough that concurrent claims genuinely overlap, host-independent.
        let partitions: Vec<Partition> = ds
            .partitions()
            .iter()
            .map(|p| Partition {
                index: p.index,
                device: p.device,
                rows: p.rows,
                blob: slow(p.blob.clone(), Duration::from_micros(200)),
            })
            .collect();
        let mut stream = BatchStream::spawn(&plan, &partitions, &FleetConfig::new(4, 16));
        let n = stream.by_ref().filter(|i| i.is_ok()).count();
        assert_eq!(n, 8);
        let report = stream.device_report();
        assert_eq!(report.len(), 1);
        assert!(
            report[0].max_in_flight > 1,
            "4 workers on 1 device must contend (max_in_flight {})",
            report[0].max_in_flight
        );
    }

    #[test]
    fn a_unit_occupies_its_device_until_both_halves_have_read() {
        let (c, ds) = dataset(6, 16, 1);
        // The rule itself: with two readers, the first release frees nothing.
        let plan = PreprocessPlan::from_config(&c, 1).unwrap();
        let units: Vec<Unit> = (0..6).map(Unit::partition).collect();
        let run = Run::new(
            plan.clone(),
            ds.partitions().to_vec(),
            Fleet::Host,
            RetryPolicy::fail_fast(),
            6,
        );
        let source = UnitSource::new(&run, units, 0, 1, 2);
        let in_flight = || source.loads[0].in_flight.load(Ordering::Relaxed);
        let claim = source.claim(false).unwrap();
        assert_eq!(in_flight(), 0, "claimed, not yet read");
        source.occupy(claim);
        source.release(claim);
        assert_eq!(in_flight(), 1, "one half is still reading");
        source.release(claim);
        assert_eq!(in_flight(), 0);

        // One device, one pair, every read slow. With the one-feature plan
        // only B reads at all, so A is done with each unit long before B:
        // A must neither free the device early nor occupy it with the next
        // unit while B still reads this one. A split's pair reads both sides
        // of each unit the same way.
        let alternating: Vec<crate::Place> = (0..plan.stages().len())
            .map(|i| if i % 2 == 0 { crate::Place::Isp } else { crate::Place::Host })
            .collect();
        let split = Fleet::Split(plan.split(&alternating).unwrap());
        let slow: Vec<Partition> = ds
            .partitions()
            .iter()
            .map(|p| Partition {
                blob: slow(p.blob.clone(), Duration::from_micros(300)),
                ..p.clone()
            })
            .collect();
        for (fleet, plan) in
            [(Fleet::Host, one_feature_plan(&c)), (Fleet::Host, plan.clone()), (split, plan)]
        {
            let mut stream = fleet.stream(&plan, &slow, &FleetConfig::new(1, 2));
            assert_eq!(stream.by_ref().filter(Result::is_ok).count(), 6, "{}", fleet.name());
            let report = stream.device_report();
            assert_eq!(report[0].max_in_flight, 1, "one pair reads one unit at a time");
            let left = stream.engine.source.loads[0].in_flight.load(Ordering::Relaxed);
            assert_eq!(left, 0, "every unit was released exactly once");
        }
    }

    #[test]
    fn a_split_whose_host_stages_read_the_boundary_matches_serial() {
        // Every `cross_*` stage on the host, every other stage on the ISP:
        // each cross reads the `trunc_*` output side A hands over, so side B
        // runs it only once that boundary value is seeded.
        let mut c = tiny_config(16);
        c.avg_sparse_len = 4;
        c.fixed_sparse_len = false;
        let plan =
            PreprocessPlan::compile(crate::PlanGraph::truncated_cross(&c, 7, 2, 2).unwrap(), &c)
                .unwrap();
        let assignment: Vec<crate::Place> = (plan.stages().iter())
            .map(|s| {
                if s.output().starts_with("cross_") {
                    crate::Place::Host
                } else {
                    crate::Place::Isp
                }
            })
            .collect();
        let split = plan.split(&assignment).unwrap();
        assert!(split.boundary().iter().any(|slot| slot.read_by_host));
        let ds = Dataset::generate(&c, 4, 16, 2, 7).unwrap();
        let serial: Vec<MiniBatch> = (ds.partitions().iter())
            .map(|p| crate::executor::preprocess_partition(&plan, p.blob.clone()).unwrap().0)
            .collect();
        let fleet = Fleet::Split(split);
        let streamed: Vec<MiniBatch> =
            (fleet.stream(&plan, ds.partitions(), &FleetConfig::new(2, 2)))
                .into_ordered()
                .map(|item| item.unwrap().batch)
                .collect();
        assert_eq!(streamed, serial, "split stream");
        // Driven on this thread, drained afterwards: the channel must hold
        // every unit, or `run_one` blocks on it.
        let (stream, driver) = fleet.drive(&plan, ds.partitions(), &FleetConfig::new(1, 4));
        let mut scratch = ScratchSpace::new();
        while driver.run_one(&mut scratch) {}
        drop(driver);
        let driven: Vec<MiniBatch> =
            stream.into_ordered().map(|item| item.unwrap().batch).collect();
        assert_eq!(driven, serial, "driven split");
    }

    #[test]
    fn ordered_adapter_restores_partition_order() {
        let (c, ds) = dataset(9, 16, 3);
        let plan = PreprocessPlan::from_config(&c, 1).unwrap();
        let order: Vec<usize> = BatchStream::spawn(&plan, ds.partitions(), &FleetConfig::new(3, 2))
            .into_ordered()
            .map(|i| i.unwrap().partition)
            .collect();
        assert_eq!(order, (0..9).collect::<Vec<_>>());
    }

    #[test]
    fn corrupt_partition_surfaces_error_and_stops_producers_promptly() {
        let (c, ds) = dataset(8, 16, 1);
        let plan = PreprocessPlan::from_config(&c, 1).unwrap();
        let mut partitions = ds.partitions().to_vec();
        // Truncate partition 2's blob mid-file.
        let bytes = partitions[2].blob.as_bytes().to_vec();
        partitions[2].blob = presto_columnar::MemBlob::new(bytes[..bytes.len() / 3].to_vec());
        // One worker pair: claims run 0, 1, 2, ... deterministically.
        let config = FleetConfig::new(1, 1);
        let mut stream = BatchStream::spawn(&plan, &partitions, &config);
        let mut ok = 0usize;
        let mut errors = 0usize;
        for item in stream.by_ref() {
            match item {
                Ok(b) => {
                    assert!(b.partition < 2, "nothing after the corrupt partition");
                    ok += 1;
                }
                Err(e) => {
                    assert!(matches!(e.root(), PreprocessError::Extract(_)), "{e}");
                    assert_eq!(e.partition(), Some(2), "error carries the failing partition");
                    assert_eq!(e.device(), Some(partitions[2].device), "and its device");
                    errors += 1;
                }
            }
        }
        assert_eq!((ok, errors), (2, 1), "batches before the error, then the error, then end");
        assert_eq!(
            stream.stats().completed,
            2,
            "the stop flag must halt the producer within one partition"
        );
    }

    #[test]
    fn error_send_does_not_deadlock_on_a_full_channel() {
        let (c, ds) = dataset(6, 16, 1);
        let plan = PreprocessPlan::from_config(&c, 1).unwrap();
        let mut partitions = ds.partitions().to_vec();
        let bytes = partitions[3].blob.as_bytes().to_vec();
        partitions[3].blob = presto_columnar::MemBlob::new(bytes[..bytes.len() / 2].to_vec());
        // Capacity-1 channel that the consumer never drains past the first
        // item: the error producer must not wedge the run.
        let config = FleetConfig::new(2, 1);
        let mut stream = BatchStream::spawn(&plan, &partitions, &config);
        let _first = stream.next().unwrap();
        drop(stream); // joins workers; a deadlock would hang the test here
    }

    #[test]
    fn capacity_one_applies_back_pressure() {
        let (c, ds) = dataset(8, 16, 1);
        let plan = PreprocessPlan::from_config(&c, 1).unwrap();
        let config = FleetConfig::new(1, 1);
        let mut stream = BatchStream::spawn(&plan, ds.partitions(), &config);
        let mut taken = 0usize;
        while let Some(item) = stream.next() {
            item.unwrap();
            taken += 1;
            // With one producer and capacity 1, the pipeline can never run
            // more than (queued = 1) + (blocked in send = 1) ahead of the
            // consumer, no matter how slowly we drain.
            assert!(
                stream.stats().completed <= taken + 2,
                "producer ran ahead: completed {} after {} taken",
                stream.stats().completed,
                taken
            );
            std::thread::yield_now();
        }
        assert_eq!(taken, 8);
    }

    #[test]
    fn ordered_stream_after_midrun_error_delivers_prefix_then_error_once() {
        let (c, ds) = dataset(6, 16, 1);
        let plan = PreprocessPlan::from_config(&c, 1).unwrap();
        let mut partitions = ds.partitions().to_vec();
        let bytes = partitions[3].blob.as_bytes().to_vec();
        partitions[3].blob = presto_columnar::MemBlob::new(bytes[..bytes.len() / 2].to_vec());
        // One worker pair, capacity 1 (the worst case for a deadlock):
        // claims run 0, 1, 2, 3 deterministically.
        let config = FleetConfig::new(1, 1);
        let mut delivered = Vec::new();
        let mut errors = 0usize;
        for item in BatchStream::spawn(&plan, &partitions, &config).into_ordered() {
            match item {
                Ok(b) => delivered.push(b.partition),
                Err(e) => {
                    errors += 1;
                    assert_eq!(e.partition(), Some(3));
                }
            }
        }
        assert_eq!(delivered, vec![0, 1, 2], "prefix delivered in order");
        assert_eq!(errors, 1, "error surfaced exactly once");
    }

    #[test]
    fn transient_faults_are_retried_to_a_bit_identical_stream() {
        let (c, ds) = dataset(6, 24, 2);
        let plan = PreprocessPlan::from_config(&c, 1).unwrap();
        let serial: Vec<MiniBatch> = ds
            .partitions()
            .iter()
            .map(|p| crate::executor::preprocess_partition(&plan, p.blob.clone()).unwrap().0)
            .collect();
        // Arm every partition with a per-read transient fault rate low
        // enough that a whole-partition attempt (~40 column reads) clears
        // within the generous attempt budget — each retry consumes fresh
        // read indices, so faults eventually miss. Quarantine off:
        // host-fleet faults here are random across devices, not a dying
        // device.
        let injector = presto_columnar::FaultPlan::new(1234).with_transient_rate(0.1).arm();
        let partitions: Vec<Partition> = ds
            .partitions()
            .iter()
            .map(|p| Partition {
                index: p.index,
                device: p.device,
                rows: p.rows,
                blob: p.blob.clone().with_faults(&injector, p.device, p.index),
            })
            .collect();
        let recovery = RetryPolicy::recover()
            .with_max_attempts(2000)
            .with_backoff(Duration::ZERO, Duration::ZERO)
            .with_quarantine_after(0);
        let config = FleetConfig::new(3, 2).with_recovery(recovery);
        let mut s = BatchStream::spawn(&plan, &partitions, &config).into_ordered();
        let streamed: Vec<MiniBatch> = s.by_ref().map(|i| i.unwrap().batch).collect();
        let report = s.run_report();
        assert_eq!(streamed, serial, "recovered stream must be bit-identical");
        assert!(injector.stats().transient > 0, "the plan must actually have injected faults");
        assert_eq!(report.retries, report.faults, "every fault was retried");
        assert!(report.retries > 0);
        assert!(report.failed_partitions.is_empty());
        assert_eq!(report.delivered, 6);
    }

    #[test]
    fn corrupt_pages_are_caught_by_crc_and_retried_from_pristine_media() {
        let (c, ds) = dataset(4, 16, 1);
        let plan = PreprocessPlan::from_config(&c, 1).unwrap();
        let injector = presto_columnar::FaultPlan::new(7).with_corrupt_rate(0.05).arm();
        let partitions: Vec<Partition> = ds
            .partitions()
            .iter()
            .map(|p| Partition {
                index: p.index,
                device: p.device,
                rows: p.rows,
                blob: p.blob.clone().with_faults(&injector, p.device, p.index),
            })
            .collect();
        let recovery = RetryPolicy::recover()
            .with_max_attempts(2000)
            .with_backoff(Duration::ZERO, Duration::ZERO)
            .with_quarantine_after(0);
        let config = FleetConfig::new(2, 2).with_recovery(recovery);
        let ok = BatchStream::spawn(&plan, &partitions, &config).filter(|i| i.is_ok()).count();
        assert_eq!(ok, 4, "corruption is transient from pristine media: all must deliver");
        assert!(injector.stats().corrupt > 0, "corruption must actually have been injected");
    }

    #[test]
    fn dead_device_is_quarantined_and_its_partitions_fail_loudly() {
        let (c, ds) = dataset(8, 16, 2);
        let plan = PreprocessPlan::from_config(&c, 1).unwrap();
        // Device 1 dies immediately; device 0 is healthy.
        let injector = presto_columnar::FaultPlan::new(5).with_device_death(1, 0).arm();
        let partitions: Vec<Partition> = ds
            .partitions()
            .iter()
            .map(|p| Partition {
                index: p.index,
                device: p.device,
                rows: p.rows,
                blob: p.blob.clone().with_faults(&injector, p.device, p.index),
            })
            .collect();
        let on_dead: Vec<usize> =
            partitions.iter().filter(|p| p.device == 1).map(|p| p.index).collect();
        let recovery = RetryPolicy::recover()
            .with_max_attempts(2)
            .with_backoff(Duration::ZERO, Duration::ZERO)
            .with_quarantine_after(2);
        let config = FleetConfig::new(2, 4).with_recovery(recovery);
        let mut stream = BatchStream::spawn(&plan, &partitions, &config);
        let mut ok = Vec::new();
        let mut failed = Vec::new();
        for item in stream.by_ref() {
            match item {
                Ok(b) => ok.push(b.partition),
                Err(e) => failed.push(e.partition().expect("provenance")),
            }
        }
        ok.sort_unstable();
        failed.sort_unstable();
        let healthy: Vec<usize> =
            partitions.iter().filter(|p| p.device == 0).map(|p| p.index).collect();
        assert_eq!(ok, healthy, "every healthy-device partition still delivers");
        assert_eq!(failed, on_dead, "every dead-device partition fails loudly");
        let report = stream.run_report();
        let dead_slot = 1; // devices sorted distinct: [0, 1]
        assert!(report.quarantined.contains(&dead_slot), "breaker must trip");
        assert!(report.device_health[dead_slot].quarantined);
        assert_eq!(
            report.delivered as usize + report.failed_partitions.len(),
            report.partitions,
            "nothing dropped silently"
        );
    }

    #[test]
    fn an_isp_stream_is_its_drivers() {
        // Device 1 dies at once. Its units fail over on the worker whose
        // device side gave up: the stream spawns no thread beyond its two
        // fused workers.
        let (c, ds) = dataset(6, 16, 2);
        let plan = PreprocessPlan::from_config(&c, 1).unwrap();
        let injector = presto_columnar::FaultPlan::new(5).with_device_death(1, 0).arm();
        let partitions: Vec<Partition> = ds
            .partitions()
            .iter()
            .map(|p| Partition {
                blob: p.blob.clone().with_faults(&injector, p.device, p.index),
                ..p.clone()
            })
            .collect();
        let recovery = RetryPolicy::recover().with_backoff(Duration::ZERO, Duration::ZERO);
        let config = FleetConfig::new(2, 4).with_recovery(recovery);
        let mut stream = Fleet::Isp.stream(&plan, &partitions, &config);
        assert_eq!(stream.handles.len(), 2, "one thread per worker, no failover thread");
        let mut delivered: Vec<(usize, bool)> = stream
            .by_ref()
            .map(|item| {
                let b = item.expect("every unit delivers");
                (b.partition, b.via_failover)
            })
            .collect();
        delivered.sort_unstable();
        let expected: Vec<(usize, bool)> =
            partitions.iter().map(|p| (p.index, p.device == 1)).collect();
        assert_eq!(delivered, expected, "device 1's units come back via failover");
        assert_eq!(stream.run_report().failovers, 3);
    }

    #[test]
    fn shuffled_fleet_surfaces_spawn_failure_on_the_stream() {
        let (c, ds) = dataset(1, 16, 1);
        let plan = PreprocessPlan::from_config(&c, 1).unwrap();
        let mut partitions = ds.partitions().to_vec();
        // Destroy the footer so epoch enumeration itself fails.
        let bytes = partitions[0].blob.as_bytes().to_vec();
        partitions[0].blob = presto_columnar::MemBlob::new(bytes[..bytes.len() / 2].to_vec());
        let fleet = Fleet::Shuffled(ShuffleSpec::new(1));
        let mut source = fleet.spawn(&plan, &partitions, &FleetConfig::new(1, 1));
        assert_eq!(source.queued(), 1);
        let first = source.next_batch().expect("one item");
        assert!(first.is_err());
        assert!(source.next_batch().is_none(), "error ends the stream");
    }

    #[test]
    fn fleet_names_are_stable() {
        assert_eq!(Fleet::Host.name(), "host");
        assert_eq!(Fleet::Isp.name(), "isp");
        assert_eq!(Fleet::Shuffled(ShuffleSpec::new(0)).name(), "shuffled");
    }

    #[test]
    fn workers_and_capacity_are_clamped() {
        let (c, ds) = dataset(2, 8, 1);
        let plan = PreprocessPlan::from_config(&c, 1).unwrap();
        let stream = BatchStream::spawn(&plan, ds.partitions(), &FleetConfig::new(64, 0));
        assert_eq!(stream.stats().workers, 2);
        assert_eq!(stream.capacity(), 1);
        assert_eq!(stream.count(), 2);
    }

    #[test]
    fn stats_consolidates_the_counters() {
        let (c, ds) = dataset(4, 16, 2);
        let plan = PreprocessPlan::from_config(&c, 1).unwrap();
        let mut stream = BatchStream::spawn(&plan, ds.partitions(), &FleetConfig::new(2, 4));
        let n = stream.by_ref().filter(Result::is_ok).count();
        assert_eq!(n, 4);
        let stats = stream.stats();
        assert_eq!((stats.workers, stats.capacity, stats.completed), (2, 4, 4));
        assert_eq!((stats.p2p_bytes, stats.boundary_bytes), (0, 0));
        let recovery = stats.recovery.expect("host fleet tracks recovery");
        assert_eq!(recovery.delivered, 4);
        assert!(recovery.failed_partitions.is_empty());
    }

    /// A source over the partitions in `order` whose unit at position `seq`
    /// lives on device `devices[seq]`, claimed through a window of `window`
    /// positions.
    fn window_source(devices: &[usize], order: &[usize], window: usize) -> UnitSource {
        let mut partitions: Vec<Partition> = (0..order.len())
            .map(|index| Partition {
                index,
                device: 0,
                rows: 0,
                blob: presto_columnar::MemBlob::new(Vec::new()),
            })
            .collect();
        for (&unit, &device) in order.iter().zip(devices) {
            partitions[unit].device = device;
        }
        let n = partitions.len();
        let plan = PreprocessPlan::from_config(&tiny_config(1), 1).unwrap();
        let fleet = Fleet::Shuffled(ShuffleSpec::new(0));
        let run = Run::new(plan, partitions, fleet, RetryPolicy::fail_fast(), n);
        let units = order.iter().map(|&p| Unit::partition(p)).collect();
        UnitSource::new(&run, units, 0, window, 1)
    }

    /// Claims until the source is drained, releasing each claim at once
    /// when `release`, else holding them all in flight; returns the
    /// sequence numbers in claim order.
    fn claim_all(source: &UnitSource, release: bool) -> Vec<usize> {
        std::iter::from_fn(|| source.claim(true))
            .inspect(|&claim| {
                if release {
                    std::thread::yield_now();
                    source.release(claim);
                }
            })
            .map(|claim| claim.seq)
            .collect()
    }

    #[test]
    fn claim_window_takes_the_lowest_unit_on_an_idle_device() {
        let order = epoch_order(6, 5, 0);
        let source = window_source(&[0, 0, 1, 1, 0, 1], &order, 4);
        let first = source.claim(true).unwrap();
        assert_eq!(first.seq, 0);
        let second = source.claim(true).unwrap();
        assert_eq!(second.seq, 2, "seq 1 shares seq 0's busy device; seq 2's is idle");
        assert_eq!(second.unit, Unit::partition(order[2]), "claims keep the permutation's seq");
        // Both devices busy: the lowest unclaimed unit.
        assert_eq!(source.claim(true).unwrap().seq, 1);
        // Device 1 freed: seq 3 is the lowest unclaimed unit on it.
        source.release(second);
        assert_eq!(claim_all(&source, false), [3, 4, 5]);

        // The partition fleets' identity order: with unit 1 still on
        // device 1, the next claim passes units 2 and 3 there for unit 4 on
        // idle device 2.
        let identity: Vec<usize> = (0..6).collect();
        let source = window_source(&[0, 1, 1, 1, 2, 2], &identity, 4);
        let first = source.claim(true).unwrap();
        assert_eq!(source.claim(true).unwrap().unit, Unit::partition(1));
        source.release(first);
        let next = source.claim(true).unwrap();
        assert_eq!((next.seq, next.unit, next.slot), (4, Unit::partition(4), 2));
    }

    #[test]
    fn claim_window_never_reaches_past_low_plus_capacity() {
        // Seq 4 is the only unit on device 1, but a window of 3 from the
        // lowest unclaimed position (1) ends before it: seq 1 is claimed on
        // the busy device first, and only then is seq 4 in reach.
        let order: Vec<usize> = (0..5).collect();
        let source = window_source(&[0, 0, 0, 0, 1], &order, 3);
        assert_eq!(claim_all(&source, false), [0, 1, 4, 2, 3]);
        let in_flight: Vec<usize> =
            source.loads.iter().map(|l| l.in_flight.load(Ordering::Relaxed)).collect();
        assert_eq!(in_flight, [4, 1], "a windowed claim occupies its device");
    }

    #[test]
    fn claim_window_of_one_or_on_one_device_is_sequence_order() {
        let order = epoch_order(8, 11, 0);
        let mixed = [0, 0, 1, 0, 1, 1, 0, 1];
        for (devices, window) in [(&mixed, 1), (&[0; 8], 4), (&[3; 8], 8)] {
            for release in [false, true] {
                let source = window_source(devices, &order, window);
                let want: Vec<usize> = (0..8).collect();
                assert_eq!(claim_all(&source, release), want, "{devices:?} window {window}");
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// Four threads claim and release at once over random permutations,
        /// device maps and windows: every position is claimed exactly once,
        /// and every device's in-flight count returns to zero.
        #[test]
        fn claim_window_claims_every_position_once_across_four_threads(
            devices in proptest::collection::vec(0usize..3, 1..48),
            seed in any::<u64>(),
            window in 1usize..6,
        ) {
            let order = epoch_order(devices.len(), seed, 0);
            let source = window_source(&devices, &order, window);
            let mut claimed: Vec<usize> = std::thread::scope(|scope| {
                let workers: Vec<_> = (0..4)
                    .map(|_| scope.spawn(|| claim_all(&source, true)))
                    .collect();
                workers.into_iter().flat_map(|w| w.join().unwrap()).collect()
            });
            claimed.sort_unstable();
            prop_assert_eq!(claimed, (0..devices.len()).collect::<Vec<_>>());
            for load in &source.loads {
                prop_assert_eq!(load.in_flight.load(Ordering::Relaxed), 0);
            }
        }
    }
}
