//! Multi-tenant preprocessing service: N concurrent jobs on one device pool.
//!
//! The paper provisions each training job its own preprocessing devices
//! (`⌈T/P⌉`, Fig. 4/14), but a real datacenter fleet runs *many* jobs that
//! time-share whatever the cluster has (Sec. VI-A). [`PreprocessService`]
//! models that sharing with the real executors of this repo rather than an
//! analytic curve: it owns a pool of worker threads (the shared device
//! fleet) and accepts any number of concurrent jobs, each described by a
//! [`JobSpec`] — a compiled plan, its partitions, a
//! [`Fleet`] preference (host CPU, in-storage, or hybrid split), a
//! weighted-fair share, and an optional goodput SLO.
//!
//! [`PreprocessService::submit`] performs **admission control** against the
//! pool: a job either starts immediately, queues behind the running set
//! ([`JobStatus::Queued`]), or is rejected with a typed
//! [`AdmissionError`]. Admitted jobs return a [`JobHandle`], which is
//! itself a [`BatchSource`] — each tenant's
//! [`Trainer`](crate::pipeline::Trainer) plugs into its handle exactly as
//! it would into a dedicated [`BatchStream`](presto_ops::BatchStream).
//!
//! # Scheduling
//!
//! Pool workers pick work with **weighted fair queuing**: among jobs that
//! are running, have unclaimed partitions, and have room in their bounded
//! output channel, claim a partition from the job with the smallest
//! `dispatched / weight`. A job whose consumer lags (full channel) yields
//! its turn instead of blocking a pool worker, so one slow tenant cannot
//! idle the pool, and a small job cannot starve behind a large one — the
//! fair-share score of the large job grows with every dispatch. Per-job
//! starvation is tracked as the longest gap between consecutive dispatches
//! ([`JobReport::max_dispatch_gap`]) and the pool-wide balance as Jain's
//! fairness index over weight-normalized service ([`ServiceReport::fairness`]).
//!
//! # Execution and isolation
//!
//! A pool worker takes each claimed partition through the same per-unit
//! path as a dedicated fleet's workers — the engine of
//! [`presto_ops::stream`], fused on the pool thread ([`Run::run_unit`] →
//! [`Run::deliver`]) — so retry, quarantine and failover behave exactly as
//! documented there. Each job owns a private [`Run`] (its own
//! [`RetryPolicy`], breaker state and counters): a device dying mid-run
//! degrades only the jobs with partitions on it, and every job's
//! [`RunReport`] accounts `delivered + failed == partitions` independently
//! of its neighbors.
//!
//! # Lifecycle
//!
//! Dropping a [`JobHandle`] cancels its remaining partitions; dropping the
//! service cancels everything and joins the pool.
//! [`PreprocessService::shutdown`] instead waits for all submitted jobs to
//! terminate (call it after draining the handles) and returns the final
//! [`ServiceReport`].

use crossbeam_channel::{bounded, Receiver, Sender};
use presto_datagen::Partition;
use presto_ops::plan::PreprocessPlan;
use presto_ops::recovery::{RetryPolicy, RunReport};
use presto_ops::stream::{BatchSource, Fleet, Run, SeqItem, StreamItem, StreamStats, Unit};
use presto_ops::ScratchSpace;
use std::collections::VecDeque;
use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Pool sizing and admission limits of a [`PreprocessService`].
///
/// The fields are plain settings: [`PreprocessService::new`] raises
/// `pool_workers`, `job_capacity` and `max_active_jobs` to at least 1, since
/// at 0 an admitted job would never be dispatched.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServiceConfig {
    /// Shared pool worker threads (the device fleet every job time-shares).
    pub pool_workers: usize,
    /// Per-job output-channel capacity in mini-batches; a job whose
    /// consumer lags past this stops receiving pool dispatches until it
    /// drains (back-pressure without blocking the pool).
    pub job_capacity: usize,
    /// Jobs allowed to run concurrently; further submissions queue.
    pub max_active_jobs: usize,
    /// Jobs allowed to wait in the admission queue; further submissions
    /// are rejected with [`AdmissionError::PoolSaturated`].
    pub max_queued_jobs: usize,
}

impl ServiceConfig {
    /// A pool of `pool_workers` threads with default admission limits
    /// (4 active jobs, 4 queued, 4-deep per-job channels).
    #[must_use]
    pub fn new(pool_workers: usize) -> Self {
        ServiceConfig { pool_workers, job_capacity: 4, max_active_jobs: 4, max_queued_jobs: 4 }
    }

    /// Sets the per-job output-channel capacity.
    #[must_use]
    pub fn with_job_capacity(mut self, job_capacity: usize) -> Self {
        self.job_capacity = job_capacity;
        self
    }

    /// Sets the concurrent-job admission limit.
    #[must_use]
    pub fn with_max_active_jobs(mut self, max_active_jobs: usize) -> Self {
        self.max_active_jobs = max_active_jobs;
        self
    }

    /// Sets the admission-queue depth (0 = reject when saturated).
    #[must_use]
    pub fn with_max_queued_jobs(mut self, max_queued_jobs: usize) -> Self {
        self.max_queued_jobs = max_queued_jobs;
        self
    }
}

/// One tenant's job: what to preprocess, on which fleet, with what share
/// of the pool and what goodput target.
#[derive(Debug, Clone)]
pub struct JobSpec {
    /// Human-readable job name, echoed in reports.
    pub name: String,
    /// The compiled preprocessing plan.
    pub plan: PreprocessPlan,
    /// The partitions to preprocess.
    pub partitions: Vec<Partition>,
    /// Which executor serves this job's partitions.
    pub fleet: Fleet,
    /// Weighted-fair share of the pool (relative to other jobs; > 0).
    pub weight: f64,
    /// Goodput SLO in rows/sec, checked against the job's delivered rate.
    pub goodput_slo: Option<f64>,
    /// Failure-handling policy for this job's partitions (private to the
    /// job: quarantines never leak to other tenants).
    pub recovery: RetryPolicy,
}

impl JobSpec {
    /// A host-fleet job with weight 1, no SLO and fail-fast recovery.
    #[must_use]
    pub fn new(name: impl Into<String>, plan: PreprocessPlan, partitions: Vec<Partition>) -> Self {
        JobSpec {
            name: name.into(),
            plan,
            partitions,
            fleet: Fleet::Host,
            weight: 1.0,
            goodput_slo: None,
            recovery: RetryPolicy::fail_fast(),
        }
    }

    /// Sets the fleet preference.
    #[must_use]
    pub fn with_fleet(mut self, fleet: Fleet) -> Self {
        self.fleet = fleet;
        self
    }

    /// Sets the weighted-fair share (clamped positive).
    #[must_use]
    pub fn with_weight(mut self, weight: f64) -> Self {
        self.weight = if weight > 0.0 { weight } else { 1.0 };
        self
    }

    /// Sets the goodput SLO in rows/sec.
    #[must_use]
    pub fn with_goodput_slo(mut self, rows_per_sec: f64) -> Self {
        self.goodput_slo = Some(rows_per_sec);
        self
    }

    /// Sets the failure-handling policy.
    #[must_use]
    pub fn with_recovery(mut self, recovery: RetryPolicy) -> Self {
        self.recovery = recovery;
        self
    }
}

/// Why [`PreprocessService::submit`] refused a job.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AdmissionError {
    /// The spec carries no partitions — nothing to schedule.
    NoPartitions,
    /// Active and queued slots are all taken.
    PoolSaturated {
        /// Jobs currently running.
        active: usize,
        /// Jobs already waiting in the admission queue.
        queued: usize,
        /// The queue-depth limit that was hit.
        max_queued: usize,
    },
    /// The service is shutting down.
    ShuttingDown,
}

impl fmt::Display for AdmissionError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AdmissionError::NoPartitions => write!(f, "job has no partitions"),
            AdmissionError::PoolSaturated { active, queued, max_queued } => {
                write!(f, "pool saturated: {active} active jobs, {queued}/{max_queued} queued")
            }
            AdmissionError::ShuttingDown => write!(f, "service is shutting down"),
        }
    }
}

impl std::error::Error for AdmissionError {}

/// Where a job is in its lifecycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobStatus {
    /// Admitted but waiting for an active-job slot.
    Queued,
    /// Receiving pool dispatches.
    Running,
    /// Every partition delivered.
    Completed,
    /// Terminated with at least one failed partition (or a fail-fast
    /// abort).
    Failed,
    /// The consumer dropped its [`JobHandle`] before completion.
    Cancelled,
}

/// One job's inputs and counters, shared between the pool, the scheduler
/// and the consumer's [`JobHandle`].
struct Job {
    name: String,
    fleet: &'static str,
    weight: f64,
    goodput_slo: Option<f64>,
    /// The engine's run state: plan, partitions, pipeline, recovery
    /// tracker and the counters behind [`StreamStats`].
    run: Run,
    cancelled: AtomicBool,
    /// Nanoseconds the consumer spent blocked in `next_batch`.
    stall_nanos: AtomicU64,
    rows: AtomicU64,
}

impl Job {
    fn partitions(&self) -> usize {
        self.run.partitions().len()
    }
}

/// Scheduler-owned mutable state of one job.
struct JobState {
    job: Arc<Job>,
    /// Producer end of the job's output channel; dropped at finalization
    /// so the consumer observes end-of-stream.
    tx: Option<Sender<SeqItem>>,
    status: JobStatus,
    /// Next unclaimed partition.
    cursor: usize,
    /// Partitions claimed but not yet delivered.
    inflight: usize,
    /// Total dispatches (the weighted-fair service counter).
    dispatched: u64,
    /// Fail-fast tripped: stop claiming, finalize when in-flight drains.
    halted: bool,
    submitted_at: Instant,
    started_at: Option<Instant>,
    finished_at: Option<Instant>,
    last_dispatch: Option<Instant>,
    max_gap: Duration,
}

impl JobState {
    fn dispatchable(&self, job_capacity: usize) -> bool {
        self.status == JobStatus::Running
            && !self.halted
            && !self.job.cancelled.load(Ordering::Relaxed)
            && self.cursor < self.job.partitions()
            && self.tx.as_ref().is_some_and(|tx| tx.len() + self.inflight < job_capacity)
    }

    fn terminal_when_drained(&self) -> bool {
        self.status == JobStatus::Running
            && self.inflight == 0
            && (self.halted
                || self.job.cancelled.load(Ordering::Relaxed)
                || self.cursor >= self.job.partitions())
    }
}

struct SchedState {
    jobs: Vec<JobState>,
    pending: VecDeque<usize>,
    active: usize,
    stop: bool,
}

struct ServiceInner {
    config: ServiceConfig,
    state: Mutex<SchedState>,
    signal: Condvar,
    started: Instant,
}

/// One claimed unit of work, extracted under the scheduler lock.
struct Claim {
    id: usize,
    pos: usize,
    job: Arc<Job>,
    tx: Sender<SeqItem>,
}

/// The multi-tenant preprocessing service — see the [module docs](self).
pub struct PreprocessService {
    inner: Arc<ServiceInner>,
    workers: Vec<JoinHandle<()>>,
}

impl fmt::Debug for PreprocessService {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("PreprocessService")
            .field("config", &self.inner.config)
            .finish_non_exhaustive()
    }
}

impl PreprocessService {
    /// Starts the pool: `config.pool_workers` threads, idle until jobs
    /// arrive. The pool size, per-job channel capacity and active-job limit
    /// are raised to at least 1 here, whichever way the config was built.
    #[must_use]
    pub fn new(config: ServiceConfig) -> Self {
        let config = ServiceConfig {
            pool_workers: config.pool_workers.max(1),
            job_capacity: config.job_capacity.max(1),
            max_active_jobs: config.max_active_jobs.max(1),
            ..config
        };
        let inner = Arc::new(ServiceInner {
            config: config.clone(),
            state: Mutex::new(SchedState {
                jobs: Vec::new(),
                pending: VecDeque::new(),
                active: 0,
                stop: false,
            }),
            signal: Condvar::new(),
            started: Instant::now(),
        });
        let workers = (0..config.pool_workers)
            .map(|i| {
                let inner = Arc::clone(&inner);
                std::thread::Builder::new()
                    .name(format!("presto-pool-{i}"))
                    .spawn(move || pool_worker(&inner))
                    .expect("spawn pool worker")
            })
            .collect();
        PreprocessService { inner, workers }
    }

    /// The pool configuration.
    #[must_use]
    pub fn config(&self) -> &ServiceConfig {
        &self.inner.config
    }

    /// Admits a job: starts it if an active slot is free, queues it if the
    /// admission queue has room, otherwise rejects it.
    ///
    /// # Errors
    ///
    /// [`AdmissionError::NoPartitions`] for an empty job,
    /// [`AdmissionError::PoolSaturated`] when both the active set and the
    /// queue are full, [`AdmissionError::ShuttingDown`] after shutdown
    /// began.
    pub fn submit(&self, mut spec: JobSpec) -> Result<JobHandle, AdmissionError> {
        if spec.partitions.is_empty() {
            return Err(AdmissionError::NoPartitions);
        }
        // A shuffled-fleet tenant gets its seeded epoch permutation applied
        // at admission: the pool then claims partitions in shuffled order
        // through the unchanged weighted-fair machinery (preprocessing
        // itself runs the host pipeline, whole partitions at a time).
        if let Fleet::Shuffled(shuffle) = &spec.fleet {
            let order = presto_ops::epoch_order(spec.partitions.len(), shuffle.seed, shuffle.epoch);
            spec.partitions = order.into_iter().map(|i| spec.partitions[i].clone()).collect();
        }
        let config = &self.inner.config;
        let mut state = self.inner.state.lock().expect("scheduler lock");
        if state.stop {
            return Err(AdmissionError::ShuttingDown);
        }
        let starts_now = state.active < config.max_active_jobs;
        if !starts_now && state.pending.len() >= config.max_queued_jobs {
            return Err(AdmissionError::PoolSaturated {
                active: state.active,
                queued: state.pending.len(),
                max_queued: config.max_queued_jobs,
            });
        }
        let units = spec.partitions.len();
        let job = Arc::new(Job {
            name: spec.name,
            fleet: spec.fleet.name(),
            weight: if spec.weight > 0.0 { spec.weight } else { 1.0 },
            goodput_slo: spec.goodput_slo,
            run: Run::new(spec.plan, spec.partitions, spec.fleet, spec.recovery, units),
            cancelled: AtomicBool::new(false),
            stall_nanos: AtomicU64::new(0),
            rows: AtomicU64::new(0),
        });
        let (tx, rx) = bounded::<SeqItem>(config.job_capacity);
        let id = state.jobs.len();
        let now = Instant::now();
        let status = if starts_now {
            state.active += 1;
            JobStatus::Running
        } else {
            state.pending.push_back(id);
            JobStatus::Queued
        };
        state.jobs.push(JobState {
            job: Arc::clone(&job),
            tx: Some(tx),
            status,
            cursor: 0,
            inflight: 0,
            dispatched: 0,
            halted: false,
            submitted_at: now,
            started_at: starts_now.then_some(now),
            finished_at: None,
            last_dispatch: None,
            max_gap: Duration::ZERO,
        });
        drop(state);
        self.inner.signal.notify_all();
        Ok(JobHandle {
            id,
            capacity: config.job_capacity,
            rx: Some(rx),
            job,
            inner: Arc::clone(&self.inner),
        })
    }

    /// A point-in-time [`ServiceReport`] over every submitted job.
    #[must_use]
    pub fn report(&self) -> ServiceReport {
        build_report(&self.inner)
    }

    /// Waits until every submitted job reaches a terminal status, stops
    /// the pool, and returns the final report. Call after draining the
    /// job handles — an undrained running job never terminates on its own.
    #[must_use]
    pub fn shutdown(mut self) -> ServiceReport {
        {
            let mut state = self.inner.state.lock().expect("scheduler lock");
            loop {
                reap(&mut state, &self.inner.config);
                let busy = state
                    .jobs
                    .iter()
                    .any(|j| matches!(j.status, JobStatus::Running | JobStatus::Queued));
                if !busy {
                    break;
                }
                let (next, _) = self
                    .inner
                    .signal
                    .wait_timeout(state, Duration::from_millis(5))
                    .expect("scheduler lock");
                state = next;
            }
            state.stop = true;
        }
        self.inner.signal.notify_all();
        self.join_pool();
        build_report(&self.inner)
    }

    fn join_pool(&mut self) {
        for handle in self.workers.drain(..) {
            if let Err(panic) = handle.join() {
                if !std::thread::panicking() {
                    std::panic::resume_unwind(panic);
                }
            }
        }
    }
}

impl Drop for PreprocessService {
    fn drop(&mut self) {
        {
            let mut state = self.inner.state.lock().expect("scheduler lock");
            state.stop = true;
            for job in &state.jobs {
                job.job.cancelled.store(true, Ordering::Relaxed);
            }
        }
        self.inner.signal.notify_all();
        self.join_pool();
    }
}

/// The consumer's end of one admitted job: a [`BatchSource`] yielding the
/// job's mini-batches in completion order, exactly like a dedicated
/// fleet's stream. Dropping the handle cancels the job's remaining
/// partitions.
pub struct JobHandle {
    id: usize,
    capacity: usize,
    rx: Option<Receiver<SeqItem>>,
    job: Arc<Job>,
    inner: Arc<ServiceInner>,
}

impl fmt::Debug for JobHandle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("JobHandle")
            .field("job", &self.id)
            .field("name", &self.job.name)
            .finish_non_exhaustive()
    }
}

impl JobHandle {
    /// The job's name, as given in its [`JobSpec`].
    #[must_use]
    pub fn name(&self) -> &str {
        &self.job.name
    }

    /// The job's current lifecycle status.
    #[must_use]
    pub fn status(&self) -> JobStatus {
        self.inner.state.lock().expect("scheduler lock").jobs[self.id].status
    }

    /// This job's [`JobReport`] so far (final once the stream has ended).
    #[must_use]
    pub fn report(&self) -> JobReport {
        job_report(&self.inner.state.lock().expect("scheduler lock").jobs[self.id])
    }

    /// Consolidated live counters for this job ([`StreamStats`]).
    #[must_use]
    pub fn stats(&self) -> StreamStats {
        let queued = self.rx.as_ref().map_or(0, Receiver::len);
        self.job.run.stats(self.inner.config.pool_workers, self.capacity, queued)
    }
}

impl Iterator for JobHandle {
    type Item = StreamItem;

    fn next(&mut self) -> Option<StreamItem> {
        let rx = self.rx.as_ref()?;
        let t0 = Instant::now();
        let item = rx.recv().ok();
        let nanos = u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX);
        self.job.stall_nanos.fetch_add(nanos, Ordering::Relaxed);
        match item {
            Some((_, item)) => {
                // A channel slot freed: wake the scheduler, the job may be
                // dispatchable again.
                self.inner.signal.notify_all();
                Some(item)
            }
            None => {
                self.rx = None;
                None
            }
        }
    }
}

impl BatchSource for JobHandle {
    fn next_batch(&mut self) -> Option<StreamItem> {
        self.next()
    }

    fn capacity(&self) -> usize {
        self.capacity
    }

    fn queued(&self) -> usize {
        self.rx.as_ref().map_or(0, Receiver::len)
    }

    fn stats(&self) -> StreamStats {
        JobHandle::stats(self)
    }
}

impl Drop for JobHandle {
    fn drop(&mut self) {
        self.job.cancelled.store(true, Ordering::Relaxed);
        self.rx = None;
        self.inner.signal.notify_all();
    }
}

/// Final accounting for one job.
#[derive(Debug, Clone, PartialEq)]
pub struct JobReport {
    /// Job name from the [`JobSpec`].
    pub name: String,
    /// Fleet the job ran on (`"host"`, `"isp"`, `"split"`).
    pub fleet: String,
    /// Lifecycle status at report time.
    pub status: JobStatus,
    /// Partitions in the job.
    pub partitions: usize,
    /// Partitions delivered as mini-batches.
    pub delivered: u64,
    /// Rows delivered.
    pub rows: u64,
    /// Weighted-fair share the job was scheduled with.
    pub weight: f64,
    /// Delivered rows/sec over the job's running time.
    pub goodput_rows_per_sec: f64,
    /// The SLO target from the spec, if any.
    pub goodput_slo: Option<f64>,
    /// Whether the goodput met the SLO (`None` when no SLO was set).
    pub slo_met: Option<bool>,
    /// Share of the job's running time its consumer spent blocked waiting
    /// for the next batch (0 = never starved the trainer).
    pub stall_share: f64,
    /// Time spent waiting in the admission queue before starting.
    pub queued_wait: Duration,
    /// Running time (start to finish, or to now while running).
    pub elapsed: Duration,
    /// Longest gap between consecutive pool dispatches — the starvation
    /// metric (small under fair sharing, large when crowded out).
    pub max_dispatch_gap: Duration,
    /// The job's private recovery accounting
    /// (`delivered + failed == partitions` once terminal).
    pub recovery: RunReport,
}

/// Roll-up over every job a service has seen.
#[derive(Debug, Clone, PartialEq)]
pub struct ServiceReport {
    /// Pool worker threads serving the jobs.
    pub pool_workers: usize,
    /// Service uptime at report time.
    pub elapsed: Duration,
    /// Jain's fairness index over the jobs' weight-normalized service
    /// (`dispatched / weight`): 1.0 = perfectly proportional sharing,
    /// `1/n` = one job monopolized the pool.
    pub fairness: f64,
    /// Per-job reports, in submission order.
    pub jobs: Vec<JobReport>,
}

impl ServiceReport {
    /// The worst starvation over all jobs: the largest
    /// [`JobReport::max_dispatch_gap`].
    #[must_use]
    pub fn max_starvation(&self) -> Duration {
        self.jobs.iter().map(|j| j.max_dispatch_gap).max().unwrap_or(Duration::ZERO)
    }
}

fn job_report(state: &JobState) -> JobReport {
    let job = &state.job;
    let recovery = job.run.tracker().report();
    let rows = job.rows.load(Ordering::Relaxed);
    let elapsed = match (state.started_at, state.finished_at) {
        (Some(start), Some(finish)) => finish.duration_since(start),
        (Some(start), None) => start.elapsed(),
        _ => Duration::ZERO,
    };
    let queued_wait = match state.started_at {
        Some(start) => start.duration_since(state.submitted_at),
        None => state.submitted_at.elapsed(),
    };
    let goodput = rows as f64 / elapsed.as_secs_f64().max(1e-9);
    let stall = Duration::from_nanos(job.stall_nanos.load(Ordering::Relaxed));
    let stall_share = (stall.as_secs_f64() / elapsed.as_secs_f64().max(1e-9)).clamp(0.0, 1.0);
    JobReport {
        name: job.name.clone(),
        fleet: job.fleet.to_string(),
        status: state.status,
        partitions: job.partitions(),
        delivered: recovery.delivered,
        rows,
        weight: job.weight,
        goodput_rows_per_sec: goodput,
        goodput_slo: job.goodput_slo,
        slo_met: job.goodput_slo.map(|target| goodput >= target),
        stall_share,
        queued_wait,
        elapsed,
        max_dispatch_gap: state.max_gap,
        recovery,
    }
}

fn jains_index(shares: &[f64]) -> f64 {
    if shares.is_empty() {
        return 1.0;
    }
    let sum: f64 = shares.iter().sum();
    let sum_sq: f64 = shares.iter().map(|x| x * x).sum();
    if sum_sq <= 0.0 {
        return 1.0;
    }
    (sum * sum) / (shares.len() as f64 * sum_sq)
}

fn build_report(inner: &ServiceInner) -> ServiceReport {
    let state = inner.state.lock().expect("scheduler lock");
    let shares: Vec<f64> = state
        .jobs
        .iter()
        .filter(|j| j.dispatched > 0)
        .map(|j| j.dispatched as f64 / j.job.weight)
        .collect();
    ServiceReport {
        pool_workers: inner.config.pool_workers,
        elapsed: inner.started.elapsed(),
        fairness: jains_index(&shares),
        jobs: state.jobs.iter().map(job_report).collect(),
    }
}

/// Finalizes a terminal job: drops its sender (ending the consumer's
/// stream), settles its status, frees its active slot and promotes queued
/// jobs into the freed capacity.
fn finalize(state: &mut SchedState, id: usize, config: &ServiceConfig) {
    {
        let job = &mut state.jobs[id];
        job.tx = None;
        job.finished_at = Some(Instant::now());
        // A fail-fast abort is a failure even when the consumer, having
        // seen the error, drops its handle before the job is reaped.
        job.status = if job.halted {
            JobStatus::Failed
        } else if job.job.cancelled.load(Ordering::Relaxed) {
            JobStatus::Cancelled
        } else if job.job.run.tracker().report().failed_partitions.is_empty() {
            JobStatus::Completed
        } else {
            JobStatus::Failed
        };
    }
    state.active -= 1;
    while state.active < config.max_active_jobs {
        let Some(next) = state.pending.pop_front() else { break };
        let job = &mut state.jobs[next];
        if job.job.cancelled.load(Ordering::Relaxed) {
            job.status = JobStatus::Cancelled;
            job.tx = None;
            job.finished_at = Some(Instant::now());
            continue;
        }
        job.status = JobStatus::Running;
        job.started_at = Some(Instant::now());
        state.active += 1;
    }
}

/// Sweeps for jobs whose work is finished (or cancelled/halted) with no
/// in-flight partitions and finalizes them.
fn reap(state: &mut SchedState, config: &ServiceConfig) {
    for id in 0..state.jobs.len() {
        if state.jobs[id].terminal_when_drained() {
            finalize(state, id, config);
        }
    }
}

/// Picks the next (job, partition) under weighted fair queuing: the
/// dispatchable job with the smallest `dispatched / weight` claims its
/// next partition.
fn claim_next(state: &mut SchedState, config: &ServiceConfig) -> Option<Claim> {
    reap(state, config);
    let id = state
        .jobs
        .iter()
        .enumerate()
        .filter(|(_, j)| j.dispatchable(config.job_capacity))
        .min_by(|(_, a), (_, b)| {
            let fa = a.dispatched as f64 / a.job.weight;
            let fb = b.dispatched as f64 / b.job.weight;
            fa.total_cmp(&fb)
        })
        .map(|(id, _)| id)?;
    let job = &mut state.jobs[id];
    let pos = job.cursor;
    job.cursor += 1;
    job.inflight += 1;
    job.dispatched += 1;
    let now = Instant::now();
    let since = job.last_dispatch.or(job.started_at).unwrap_or(now);
    let gap = now.duration_since(since);
    if gap > job.max_gap {
        job.max_gap = gap;
    }
    job.last_dispatch = Some(now);
    Some(Claim {
        id,
        pos,
        job: Arc::clone(&job.job),
        tx: job.tx.clone().expect("running job has a sender"),
    })
}

/// Pool worker body: claim fairly, then run and deliver the unit through
/// the engine's fused per-unit path.
fn pool_worker(inner: &ServiceInner) {
    let mut scratch = ScratchSpace::new();
    loop {
        let claim = {
            let mut state: MutexGuard<'_, SchedState> = inner.state.lock().expect("scheduler lock");
            loop {
                if state.stop {
                    return;
                }
                if let Some(claim) = claim_next(&mut state, &inner.config) {
                    break claim;
                }
                // The timeout re-polls channel room (consumers drain
                // without always reaching the condvar) and catches any
                // missed wakeup.
                let (next, _) = inner
                    .signal
                    .wait_timeout(state, Duration::from_millis(1))
                    .expect("scheduler lock");
                state = next;
            }
        };
        let Claim { id, pos, job, tx } = claim;
        let unit = Unit::partition(pos);
        let outcome = job.run.run_unit(unit, &mut scratch);
        if let Ok(done) = &outcome {
            job.rows.fetch_add(done.batch.rows() as u64, Ordering::Relaxed);
        }
        let halted = outcome.is_err() && job.run.tracker().policy().fail_fast;
        // Room was reserved at claim time (len + inflight < capacity), so
        // the send inside cannot block; it only errs when the consumer
        // dropped its handle, which cancellation already covers.
        job.run.deliver(&tx, pos, unit, false, outcome);
        {
            let mut state = inner.state.lock().expect("scheduler lock");
            let job = &mut state.jobs[id];
            job.inflight -= 1;
            if halted {
                job.halted = true;
            }
            reap(&mut state, &inner.config);
        }
        inner.signal.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use presto_datagen::{Dataset, RmConfig};
    use presto_ops::{preprocess_partition, MiniBatch};

    fn setup(parts: usize, rows: usize, seed: u64) -> (PreprocessPlan, Dataset, Vec<MiniBatch>) {
        let mut c = RmConfig::rm1();
        c.batch_size = rows;
        let plan = PreprocessPlan::from_config(&c, seed).expect("plan");
        let ds = Dataset::generate(&c, parts, rows, 2, seed).expect("dataset");
        let serial: Vec<MiniBatch> = ds
            .partitions()
            .iter()
            .map(|p| preprocess_partition(&plan, p.blob.clone()).unwrap().0)
            .collect();
        (plan, ds, serial)
    }

    fn drain(handle: JobHandle) -> Vec<(usize, MiniBatch)> {
        let mut got: Vec<(usize, MiniBatch)> = Vec::new();
        for item in handle {
            let b = item.expect("job partition preprocesses");
            got.push((b.partition, b.batch));
        }
        got.sort_by_key(|(p, _)| *p);
        got
    }

    #[test]
    fn single_job_is_bit_identical_to_serial() {
        let (plan, ds, serial) = setup(6, 32, 11);
        let service = PreprocessService::new(ServiceConfig::new(2));
        let handle =
            service.submit(JobSpec::new("solo", plan, ds.partitions().to_vec())).expect("admitted");
        let got = drain(handle);
        assert_eq!(got.len(), 6);
        for (pos, batch) in got {
            assert_eq!(batch, serial[pos], "partition {pos}");
        }
        let report = service.shutdown();
        assert_eq!(report.jobs.len(), 1);
        assert_eq!(report.jobs[0].status, JobStatus::Completed);
        assert_eq!(report.jobs[0].delivered, 6);
        assert_eq!(report.jobs[0].recovery.delivered, 6);
        assert!(report.jobs[0].recovery.failed_partitions.is_empty());
    }

    #[test]
    fn a_zero_in_a_config_literal_still_serves_the_job() {
        let (plan, ds, serial) = setup(3, 16, 11);
        let base = ServiceConfig::new(2);
        let zeroed = [
            ServiceConfig { pool_workers: 0, ..base.clone() },
            ServiceConfig { job_capacity: 0, ..base.clone() },
            ServiceConfig { max_active_jobs: 0, ..base.clone() },
            ServiceConfig { max_queued_jobs: 0, ..base },
        ];
        for config in zeroed {
            let what = format!("{config:?}");
            let (plan, partitions) = (plan.clone(), ds.partitions().to_vec());
            // A job no worker dispatches blocks its consumer and `shutdown`
            // forever: run both on a thread and fail at a deadline instead,
            // leaving a thread that timed out blocked where it is.
            let (tx, rx) = std::sync::mpsc::channel();
            let worker = std::thread::spawn(move || {
                let service = PreprocessService::new(config);
                let handle = service.submit(JobSpec::new("zero", plan, partitions));
                let got = drain(handle.expect("admitted"));
                let _ = tx.send((got, service.shutdown().jobs[0].status));
            });
            let served = rx.recv_timeout(Duration::from_secs(10));
            let timed_out = matches!(served, Err(std::sync::mpsc::RecvTimeoutError::Timeout));
            assert!(!timed_out, "{what}: the job was never served");
            worker.join().expect("the service thread does not panic");
            let (got, status) = served.expect("served before the thread ended");
            assert_eq!(got.len(), 3, "{what}");
            for (pos, batch) in got {
                assert_eq!(batch, serial[pos], "{what}: partition {pos}");
            }
            assert_eq!(status, JobStatus::Completed, "{what}");
        }
    }

    #[test]
    fn concurrent_jobs_with_distinct_plans_match_their_solo_outputs() {
        use crate::placement::{place_stages, OpCostModel};
        use presto_hwsim::fpga::IspModel;
        use presto_ops::PlanGraph;
        let (plan_a, ds_a, serial_a) = setup(5, 32, 11);
        let (plan_b, ds_b, serial_b) = setup(4, 24, 77);
        // The third tenant: the `cleaned` graph over list-shaped RM1, split
        // where the cost model places its stages at the paper's batch size.
        let lists = RmConfig::rm1_lists();
        let graph = PlanGraph::cleaned(&lists, 23).expect("cleaned graph");
        let plan_c = PreprocessPlan::compile(graph, &lists).expect("plan");
        let model = OpCostModel::analytic(&IspModel::smartssd());
        let placed = place_stages(&plan_c, lists.batch_size, &model).fleet_assignment();
        let split = plan_c.split(&placed).expect("splits");
        assert!(!split.isp_stages().is_empty() && !split.host_stages().is_empty());
        let ds_c = Dataset::generate(&lists, 4, 16, 2, 23).expect("dataset");
        let serial_c: Vec<MiniBatch> = ds_c
            .partitions()
            .iter()
            .map(|p| preprocess_partition(&plan_c, p.blob.clone()).unwrap().0)
            .collect();
        let service = PreprocessService::new(ServiceConfig::new(3));
        let handles = [
            JobSpec::new("a", plan_a, ds_a.partitions().to_vec())
                .with_fleet(Fleet::Isp)
                .with_weight(2.0),
            JobSpec::new("b", plan_b, ds_b.partitions().to_vec()),
            JobSpec::new("c", plan_c, ds_c.partitions().to_vec()).with_fleet(Fleet::Split(split)),
        ]
        .map(|spec| service.submit(spec).expect("admitted"));
        let got = std::thread::scope(|s| {
            handles.map(|h| s.spawn(move || drain(h))).map(|t| t.join().unwrap())
        });
        for ((name, got), serial) in
            ["a", "b", "c"].iter().zip(got).zip([serial_a, serial_b, serial_c])
        {
            assert_eq!(got.len(), serial.len(), "job {name}");
            for (pos, batch) in got {
                assert_eq!(batch, serial[pos], "job {name} partition {pos}");
            }
        }
        let report = service.shutdown();
        assert!(report.jobs.iter().all(|j| j.status == JobStatus::Completed));
        assert!(report.fairness > 0.5, "fairness {:.2}", report.fairness);
    }

    #[test]
    fn admission_queues_then_rejects_when_saturated() {
        let (plan, ds, _) = setup(4, 16, 11);
        // A 1-deep channel keeps the first job alive (it cannot buffer all
        // its output) until the consumer actually drains it.
        let config = ServiceConfig::new(1)
            .with_job_capacity(1)
            .with_max_active_jobs(1)
            .with_max_queued_jobs(1);
        let service = PreprocessService::new(config);
        let spec = || JobSpec::new("job", plan.clone(), ds.partitions().to_vec());
        let first = service.submit(spec()).expect("first admitted");
        let second = service.submit(spec()).expect("second queues");
        assert_eq!(second.status(), JobStatus::Queued);
        let err = service.submit(spec()).expect_err("third rejected");
        assert!(matches!(err, AdmissionError::PoolSaturated { max_queued: 1, .. }), "{err:?}");
        assert_eq!(
            service.submit(JobSpec::new("empty", plan.clone(), Vec::new())).expect_err("empty"),
            AdmissionError::NoPartitions
        );
        // Draining the first job frees its slot; the queued job runs.
        let got = drain(first);
        assert_eq!(got.len(), 4);
        let got = drain(second);
        assert_eq!(got.len(), 4);
        let report = service.shutdown();
        assert!(report.jobs[1].queued_wait > Duration::ZERO);
        assert_eq!(report.jobs[1].status, JobStatus::Completed);
    }

    #[test]
    fn dropping_a_handle_cancels_only_that_job() {
        let (plan, ds, serial) = setup(6, 32, 11);
        let service = PreprocessService::new(ServiceConfig::new(2).with_job_capacity(1));
        let doomed = service
            .submit(JobSpec::new("doomed", plan.clone(), ds.partitions().to_vec()))
            .expect("admitted");
        let survivor = service
            .submit(JobSpec::new("survivor", plan, ds.partitions().to_vec()))
            .expect("admitted");
        drop(doomed);
        let got = drain(survivor);
        assert_eq!(got.len(), 6);
        for (pos, batch) in got {
            assert_eq!(batch, serial[pos], "partition {pos}");
        }
        let report = service.shutdown();
        assert_eq!(report.jobs[0].status, JobStatus::Cancelled);
        assert_eq!(report.jobs[1].status, JobStatus::Completed);
    }

    #[test]
    fn weighted_shares_skew_dispatch_counts() {
        // One pool worker, two jobs with 3:1 weights and deep channels:
        // the heavy job must accumulate dispatches ahead of the light one.
        let (plan, ds, _) = setup(8, 16, 11);
        let service = PreprocessService::new(ServiceConfig::new(1).with_job_capacity(8));
        let heavy = service
            .submit(JobSpec::new("heavy", plan.clone(), ds.partitions().to_vec()).with_weight(3.0))
            .expect("admitted");
        let light = service
            .submit(JobSpec::new("light", plan, ds.partitions().to_vec()).with_weight(1.0))
            .expect("admitted");
        let (a, b) = std::thread::scope(|s| {
            let ta = s.spawn(|| drain(heavy));
            let tb = s.spawn(|| drain(light));
            (ta.join().unwrap(), tb.join().unwrap())
        });
        assert_eq!(a.len(), 8);
        assert_eq!(b.len(), 8);
        let report = service.shutdown();
        // Both finish (no starvation), and fairness over dispatched/weight
        // stays high because the scheduler equalized exactly that ratio.
        assert!(report.fairness > 0.6, "fairness {:.2}", report.fairness);
        assert!(report.max_starvation() < Duration::from_secs(30));
    }

    #[test]
    fn slo_and_stats_surface_through_the_handle() {
        let (plan, ds, _) = setup(4, 32, 11);
        let service = PreprocessService::new(ServiceConfig::new(2));
        let handle = service
            .submit(
                JobSpec::new("slo", plan, ds.partitions().to_vec())
                    .with_goodput_slo(1.0)
                    .with_fleet(Fleet::Isp),
            )
            .expect("admitted");
        let stats_handle = {
            let mut handle = handle;
            let mut n = 0;
            while let Some(item) = handle.next_batch() {
                item.expect("ok");
                n += 1;
            }
            assert_eq!(n, 4);
            handle
        };
        let stats = BatchSource::stats(&stats_handle);
        assert_eq!(stats.completed, 4);
        assert!(stats.p2p_bytes > 0, "ISP job moved P2P bytes");
        assert_eq!(stats.recovery.as_ref().unwrap().delivered, 4);
        let report = stats_handle.report();
        assert_eq!(report.slo_met, Some(true), "goodput {}", report.goodput_rows_per_sec);
        assert!(report.rows > 0);
        drop(stats_handle);
        let report = service.shutdown();
        assert_eq!(report.jobs[0].status, JobStatus::Completed);
    }

    #[test]
    fn fail_fast_job_halts_without_touching_its_neighbor() {
        let (plan, ds, _) = setup(6, 16, 11);
        // Kill device 0 for the victim job only.
        let injector = presto_columnar::FaultPlan::new(5).with_device_death(0, 0).arm();
        let faulty: Vec<Partition> = ds
            .partitions()
            .iter()
            .map(|p| Partition {
                index: p.index,
                device: p.device,
                rows: p.rows,
                blob: p.blob.clone().with_faults(&injector, p.device, p.index),
            })
            .collect();
        let service = PreprocessService::new(ServiceConfig::new(2));
        let victim =
            service.submit(JobSpec::new("victim", plan.clone(), faulty)).expect("admitted");
        let healthy = service
            .submit(JobSpec::new("healthy", plan, ds.partitions().to_vec()))
            .expect("admitted");
        let saw_error = victim.into_iter().any(|item| item.is_err());
        assert!(saw_error, "fail-fast job surfaces its error");
        let got = drain(healthy);
        assert_eq!(got.len(), 6, "healthy job is untouched");
        let report = service.shutdown();
        assert_eq!(report.jobs[0].status, JobStatus::Failed);
        assert_eq!(report.jobs[1].status, JobStatus::Completed);
        assert!(report.jobs[1].recovery.failed_partitions.is_empty());
    }
}
