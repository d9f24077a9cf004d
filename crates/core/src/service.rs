//! Multi-tenant preprocessing service: N concurrent jobs on one device pool.
//!
//! The paper provisions each training job its own preprocessing devices
//! (`⌈T/P⌉`, Fig. 4/14), but a real datacenter fleet runs *many* jobs that
//! time-share whatever the cluster has (Sec. VI-A). [`PreprocessService`]
//! models that sharing with the real executors of this repo rather than an
//! analytic curve: it owns a pool of worker threads (the shared device
//! fleet) and accepts any number of concurrent jobs, each described by a
//! [`JobSpec`] — a compiled plan, its partitions, a
//! [`Fleet`] preference (host CPU, in-storage, hybrid split, or shuffled
//! row groups) and a weighted-fair share.
//!
//! [`PreprocessService::submit`] performs **admission control** against the
//! pool: a job either starts immediately, queues behind the running set
//! ([`JobStatus::Queued`]), or is rejected with a typed
//! [`AdmissionError`]. Admitted jobs return a [`JobHandle`], which is
//! itself a [`BatchSource`] — each tenant's
//! [`Trainer`](crate::pipeline::Trainer) plugs into its handle exactly as
//! it would into a dedicated [`BatchStream`].
//!
//! # Scheduling
//!
//! Pool workers pick work with **weighted fair queuing**: among jobs that
//! are running, have unclaimed units, and have room in their bounded output
//! (fewer than `job_capacity` units claimed and not yet pulled by the
//! consumer), serve the job with the smallest `dispatched / weight`. A job
//! whose consumer lags yields its turn instead of blocking a pool worker,
//! so one slow tenant cannot idle the pool, and a small job cannot starve
//! behind a large one — the fair-share score of the large job grows with
//! every dispatch. *Which unit* a dispatch runs is the job's own unit
//! source's choice, exactly as on its dedicated stream, whichever pool
//! worker makes it: the claim window over the partitions in order on the
//! partition fleets, and over the seeded permutation on the shuffled
//! fleet, which is served by row group and delivered in permutation
//! order. Per-job starvation is tracked as the longest gap between
//! consecutive dispatches ([`JobReport::max_dispatch_gap`]) and the
//! pool-wide balance as Jain's fairness index over weight-normalized
//! service ([`ServiceReport::fairness`]).
//!
//! Every event that can change what a worker may do — a submit, a
//! consumer's pull, a dropped handle, a unit finishing — is accounted under
//! the scheduler lock, and every job that ends wakes every waiter, so idle
//! workers and [`PreprocessService::shutdown`] block on the condition
//! variable without polling.
//!
//! # Execution and isolation
//!
//! Each admitted job is one run of the streaming engine
//! ([`Fleet::drive`]): its own unit source, [`RetryPolicy`], breaker state
//! and counters, and a [`BatchStream`] consumer end. A pool worker serves a
//! job by one [`Driver::run_one`] call — claim, both phases fused on the
//! pool thread, deliver — so retry, quarantine and failover behave exactly
//! as documented in [`presto_ops::stream`]. A device dying mid-run degrades
//! only the jobs with units on it, and every job's [`RunReport`] accounts
//! `delivered + failed == units` independently of its neighbors.
//!
//! # Lifecycle
//!
//! Dropping a [`JobHandle`] cancels its remaining units; dropping the
//! service joins the pool and cancels every job it left unfinished, ending
//! their consumers' streams.
//! [`PreprocessService::shutdown`] instead waits for all submitted jobs to
//! terminate (call it after draining the handles) and returns the final
//! [`ServiceReport`].

use presto_datagen::Partition;
use presto_ops::plan::PreprocessPlan;
use presto_ops::recovery::{RetryPolicy, RunReport};
use presto_ops::stream::{
    BatchSource, BatchStream, Driver, Fleet, FleetConfig, StreamItem, StreamStats,
};
use presto_ops::ScratchSpace;
use std::collections::VecDeque;
use std::fmt;
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
    /// Failure-handling policy for this job's partitions (private to the
    /// job: quarantines never leak to other tenants).
    pub recovery: RetryPolicy,
}

impl JobSpec {
    /// A host-fleet job with weight 1 and fail-fast recovery.
    #[must_use]
    pub fn new(name: impl Into<String>, plan: PreprocessPlan, partitions: Vec<Partition>) -> Self {
        JobSpec {
            name: name.into(),
            plan,
            partitions,
            fleet: Fleet::Host,
            weight: 1.0,
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
    /// Every unit delivered.
    Completed,
    /// Terminated with at least one failed unit (or a fail-fast abort, or
    /// units that could not be enumerated).
    Failed,
    /// The consumer dropped its [`JobHandle`] before completion.
    Cancelled,
}

/// Scheduler-owned state of one job.
struct JobState {
    name: String,
    fleet: &'static str,
    weight: f64,
    partitions: usize,
    /// The producer end of the job's run; dropped when the job ends, which
    /// ends the consumer's stream.
    driver: Option<Driver>,
    /// The run's recovery report, frozen when the job ends.
    recovery: RunReport,
    status: JobStatus,
    /// Units claimed (the weighted-fair service counter).
    dispatched: usize,
    /// Claimed units still running on a pool worker.
    inflight: usize,
    /// Items the consumer has pulled.
    pulled: usize,
    /// Rows the consumer has pulled.
    rows: u64,
    /// Time the consumer spent blocked waiting for its next item.
    stall: Duration,
    submitted_at: Instant,
    started_at: Option<Instant>,
    finished_at: Option<Instant>,
    last_dispatch: Option<Instant>,
    max_gap: Duration,
}

impl JobState {
    /// Running, with a unit left to claim, no stop raised, and room: fewer
    /// than `capacity` units claimed and not yet pulled.
    fn dispatchable(&self, capacity: usize) -> bool {
        self.status == JobStatus::Running
            && self.dispatched < self.pulled + capacity
            && self.driver.as_ref().is_some_and(|d| !d.stopped() && self.dispatched < d.units())
    }

    /// Running, with nothing in flight and nothing more to claim.
    fn finished(&self) -> bool {
        self.status == JobStatus::Running
            && self.inflight == 0
            && self.driver.as_ref().is_some_and(|d| d.stopped() || self.dispatched >= d.units())
    }

    /// Counts one dispatch and hands the pool worker the job's driver.
    fn dispatch(&mut self) -> Option<Driver> {
        let now = Instant::now();
        let since = self.last_dispatch.or(self.started_at).unwrap_or(now);
        self.max_gap = self.max_gap.max(now.duration_since(since));
        self.last_dispatch = Some(now);
        self.dispatched += 1;
        self.inflight += 1;
        self.driver.clone()
    }

    /// Ends the job: freezes its report, settles its status and drops its
    /// driver. A fail-fast error (or a failed start) is a failure even
    /// when the consumer, having seen it, dropped its handle; a dropped
    /// handle (or `cancel`: the service itself was dropped) otherwise
    /// cancels; any failed unit fails the job.
    fn finalize(&mut self, cancel: bool) {
        let Some(driver) = self.driver.take() else { return };
        self.recovery = driver.run_report();
        self.status = if driver.failed() {
            JobStatus::Failed
        } else if cancel || driver.stopped() {
            JobStatus::Cancelled
        } else if self.recovery.failed_partitions.is_empty() {
            JobStatus::Completed
        } else {
            JobStatus::Failed
        };
        self.finished_at = Some(Instant::now());
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

impl ServiceInner {
    fn lock(&self) -> MutexGuard<'_, SchedState> {
        self.state.lock().expect("scheduler lock")
    }
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
    pub fn submit(&self, spec: JobSpec) -> Result<JobHandle, AdmissionError> {
        if spec.partitions.is_empty() {
            return Err(AdmissionError::NoPartitions);
        }
        let config = &self.inner.config;
        let fleet_config =
            FleetConfig::new(config.pool_workers, config.job_capacity).with_recovery(spec.recovery);
        let (stream, driver) = spec.fleet.drive(&spec.plan, &spec.partitions, &fleet_config);
        let mut state = self.inner.lock();
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
            name: spec.name.clone(),
            fleet: spec.fleet.name(),
            weight: if spec.weight > 0.0 { spec.weight } else { 1.0 },
            partitions: spec.partitions.len(),
            driver: Some(driver),
            recovery: RunReport::default(),
            status,
            dispatched: 0,
            inflight: 0,
            pulled: 0,
            rows: 0,
            stall: Duration::ZERO,
            submitted_at: now,
            started_at: starts_now.then_some(now),
            finished_at: None,
            last_dispatch: None,
            max_gap: Duration::ZERO,
        });
        // A run that failed to start has no unit to claim: it ends here.
        settle(&mut state, &self.inner);
        drop(state);
        self.inner.signal.notify_all();
        Ok(JobHandle { id, name: spec.name, stream: Some(stream), inner: Arc::clone(&self.inner) })
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
            let mut state = self.inner.lock();
            while state
                .jobs
                .iter()
                .any(|j| matches!(j.status, JobStatus::Running | JobStatus::Queued))
            {
                state = self.inner.signal.wait(state).expect("scheduler lock");
            }
        }
        self.stop_pool();
        build_report(&self.inner)
    }

    fn stop_pool(&mut self) {
        self.inner.lock().stop = true;
        self.inner.signal.notify_all();
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
        self.stop_pool();
        // Every job the pool left unfinished is cancelled, so that its
        // consumer's stream ends instead of waiting on a pool that is gone.
        for job in &mut self.inner.lock().jobs {
            if matches!(job.status, JobStatus::Running | JobStatus::Queued) {
                job.finalize(true);
            }
        }
    }
}

/// The consumer's end of one admitted job: a [`BatchSource`] yielding the
/// job's mini-batches exactly as its dedicated fleet's [`BatchStream`]
/// would (in completion order, or in permutation order on the shuffled
/// fleet). Dropping the handle cancels the job's remaining units.
pub struct JobHandle {
    id: usize,
    name: String,
    /// The run's consumer end; taken only when the handle drops.
    stream: Option<BatchStream>,
    inner: Arc<ServiceInner>,
}

impl fmt::Debug for JobHandle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("JobHandle")
            .field("job", &self.id)
            .field("name", &self.name)
            .finish_non_exhaustive()
    }
}

impl JobHandle {
    /// The job's name, as given in its [`JobSpec`].
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The job's current lifecycle status.
    #[must_use]
    pub fn status(&self) -> JobStatus {
        self.inner.lock().jobs[self.id].status
    }

    /// This job's [`JobReport`] so far (final once the stream has ended).
    #[must_use]
    pub fn report(&self) -> JobReport {
        job_report(&self.inner.lock().jobs[self.id])
    }

    /// Consolidated live counters for this job ([`StreamStats`]).
    #[must_use]
    pub fn stats(&self) -> StreamStats {
        self.stream.as_ref().map_or_else(StreamStats::default, BatchStream::stats)
    }
}

impl Iterator for JobHandle {
    type Item = StreamItem;

    fn next(&mut self) -> Option<StreamItem> {
        let t0 = Instant::now();
        let item = self.stream.as_mut()?.next();
        let waited = t0.elapsed();
        {
            let mut state = self.inner.lock();
            let job = &mut state.jobs[self.id];
            job.stall += waited;
            if let Some(item) = &item {
                job.pulled += 1;
                job.rows += item.as_ref().map_or(0, |b| b.batch.rows() as u64);
            }
        }
        // A pull frees room: the job may be dispatchable again.
        self.inner.signal.notify_all();
        item
    }
}

impl BatchSource for JobHandle {
    fn next_batch(&mut self) -> Option<StreamItem> {
        self.next()
    }

    fn capacity(&self) -> usize {
        self.inner.config.job_capacity
    }

    fn queued(&self) -> usize {
        self.stream.as_ref().map_or(0, BatchStream::queued)
    }

    fn stats(&self) -> StreamStats {
        JobHandle::stats(self)
    }
}

impl Drop for JobHandle {
    fn drop(&mut self) {
        // Dropping the consumer end stops the run; a job with nothing in
        // flight then ends here, any other when its last unit finishes.
        self.stream = None;
        settle(&mut self.inner.lock(), &self.inner);
    }
}

/// Final accounting for one job.
#[derive(Debug, Clone, PartialEq)]
pub struct JobReport {
    /// Job name from the [`JobSpec`].
    pub name: String,
    /// Fleet the job ran on (`"host"`, `"isp"`, `"split"` or `"shuffled"`;
    /// a shuffled job runs row groups on the host, in its seeded epoch
    /// permutation).
    pub fleet: String,
    /// Lifecycle status at report time.
    pub status: JobStatus,
    /// Partitions in the job (its unit count is
    /// [`RunReport::partitions`](presto_ops::recovery::RunReport::partitions)
    /// in `recovery`: one per non-empty row group on the shuffled fleet).
    pub partitions: usize,
    /// Units (partitions, or row groups on the shuffled fleet) delivered as
    /// mini-batches.
    pub delivered: u64,
    /// Rows the consumer has pulled.
    pub rows: u64,
    /// Weighted-fair share the job was scheduled with.
    pub weight: f64,
    /// Delivered rows/sec over the job's running time.
    pub goodput_rows_per_sec: f64,
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
    /// (`delivered + failed == units` once terminal).
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
    let recovery = state.driver.as_ref().map_or_else(|| state.recovery.clone(), Driver::run_report);
    let elapsed = match (state.started_at, state.finished_at) {
        (Some(start), Some(finish)) => finish.duration_since(start),
        (Some(start), None) => start.elapsed(),
        _ => Duration::ZERO,
    };
    let queued_wait = match state.started_at {
        Some(start) => start.duration_since(state.submitted_at),
        None => state.submitted_at.elapsed(),
    };
    let stall_share = (state.stall.as_secs_f64() / elapsed.as_secs_f64().max(1e-9)).clamp(0.0, 1.0);
    JobReport {
        name: state.name.clone(),
        fleet: state.fleet.to_string(),
        status: state.status,
        partitions: state.partitions,
        delivered: recovery.delivered,
        rows: state.rows,
        weight: state.weight,
        goodput_rows_per_sec: state.rows as f64 / elapsed.as_secs_f64().max(1e-9),
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
    let state = inner.lock();
    let shares: Vec<f64> = state
        .jobs
        .iter()
        .filter(|j| j.dispatched > 0)
        .map(|j| j.dispatched as f64 / j.weight)
        .collect();
    ServiceReport {
        pool_workers: inner.config.pool_workers,
        elapsed: inner.started.elapsed(),
        fairness: jains_index(&shares),
        jobs: state.jobs.iter().map(job_report).collect(),
    }
}

/// Ends every finished job and promotes queued jobs into the slots they
/// free (a promoted job that is already finished ends in the same pass),
/// then wakes every waiter if any job ended.
fn settle(state: &mut SchedState, inner: &ServiceInner) {
    let mut ended = false;
    while let Some(id) = state.jobs.iter().position(JobState::finished) {
        state.jobs[id].finalize(false);
        state.active -= 1;
        ended = true;
        while state.active < inner.config.max_active_jobs {
            let Some(next) = state.pending.pop_front() else { break };
            let job = &mut state.jobs[next];
            job.status = JobStatus::Running;
            job.started_at = Some(Instant::now());
            state.active += 1;
        }
    }
    if ended {
        inner.signal.notify_all();
    }
}

/// Pool worker body: serve the dispatchable job with the smallest
/// `dispatched / weight` one unit through its driver, or wait.
fn pool_worker(inner: &ServiceInner) {
    let mut scratch = ScratchSpace::new();
    let mut state = inner.lock();
    while !state.stop {
        let capacity = inner.config.job_capacity;
        let next = state
            .jobs
            .iter()
            .enumerate()
            .filter(|(_, j)| j.dispatchable(capacity))
            .min_by(|(_, a), (_, b)| {
                (a.dispatched as f64 / a.weight).total_cmp(&(b.dispatched as f64 / b.weight))
            })
            .map(|(id, _)| id);
        let Some(id) = next else {
            state = inner.signal.wait(state).expect("scheduler lock");
            continue;
        };
        let driver = state.jobs[id].dispatch();
        drop(state);
        // At most `job_capacity` units are claimed and not yet pulled, so
        // the delivery inside never blocks on a full channel.
        if let Some(driver) = driver {
            driver.run_one(&mut scratch);
        }
        state = inner.lock();
        state.jobs[id].inflight -= 1;
        settle(&mut state, inner);
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
    fn dropping_the_service_cancels_and_ends_every_unfinished_job() {
        let (plan, ds, _) = setup(6, 16, 11);
        let config = ServiceConfig::new(1).with_job_capacity(1).with_max_active_jobs(1);
        let service = PreprocessService::new(config);
        let spec = |name| JobSpec::new(name, plan.clone(), ds.partitions().to_vec());
        let mut running = service.submit(spec("running")).expect("admitted");
        let mut queued = service.submit(spec("queued")).expect("queues");
        running.next().expect("yields").expect("no faults");
        // The pool is joined once the drop returns: whatever it delivered
        // is still yielded, then both streams end.
        drop(service);
        assert!(running.by_ref().count() <= 1, "at most job_capacity units ran ahead");
        assert_eq!(queued.by_ref().count(), 0);
        assert_eq!(
            (running.status(), queued.status()),
            (JobStatus::Cancelled, JobStatus::Cancelled)
        );
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
    fn stats_surface_through_the_handle() {
        let (plan, ds, _) = setup(4, 32, 11);
        let service = PreprocessService::new(ServiceConfig::new(2));
        let handle = service
            .submit(JobSpec::new("stats", plan, ds.partitions().to_vec()).with_fleet(Fleet::Isp))
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
        assert!(stats_handle.report().rows > 0);
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
