//! Recovery policy and bookkeeping of the streaming engine.
//!
//! Every fleet of [`crate::stream`] faces the same failure menu — transient
//! read errors, corrupt pages, dead devices — and answers it with the same
//! mechanisms (see the engine's *Failure semantics*). This module holds the
//! knobs and the ledger:
//!
//! * [`RetryPolicy`] — the knobs. [`RetryPolicy::fail_fast`] (the default
//!   of [`FleetConfig::recovery`](crate::stream::FleetConfig)) is one
//!   attempt and the first error poisons the run; [`RetryPolicy::recover`]
//!   is the tolerant preset chaos tests use.
//! * [`RecoveryTracker`] — lock-light shared state: per-device health
//!   (consecutive failures → quarantine), aggregate counters, and a
//!   timestamped [`RecoveryEvent`] log.
//! * [`RunReport`] — the snapshot the tracker renders for consumers: how
//!   many retries/failovers/quarantines happened, which devices degraded,
//!   which units (if any) were lost, and the timestamped event log.
//!
//! Device identity here is a **slot index** into the run's sorted distinct
//! device list — the same ordering `crate::stream::DeviceLoad` reports.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Recovery knobs for a streaming run.
///
/// The defaults ([`RetryPolicy::fail_fast`]) reproduce the executor's
/// original semantics: one attempt per partition and the first error stops
/// the fleet. [`RetryPolicy::recover`] turns on every mechanism with
/// settings suitable for the chaos suite.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Attempts per partition (≥ 1) before its error is surfaced.
    pub max_attempts: u32,
    /// Backoff before retry `n` is `backoff × 2^(n-1)`, capped at
    /// [`RetryPolicy::backoff_cap`]. Zero disables sleeping between tries.
    pub backoff: Duration,
    /// Upper bound on one backoff sleep.
    pub backoff_cap: Duration,
    /// Consecutive failed *attempts* on one device before it is
    /// quarantined. `0` disables the circuit breaker.
    pub quarantine_after: u32,
    /// Whether a quarantined ISP device's partitions fail over to the host
    /// preprocessing path (ignored by the host fleet, which *is* the
    /// fallback path).
    pub failover: bool,
    /// Whether the first surfaced error stops the whole fleet (legacy
    /// semantics). With `false`, the fleet keeps streaming the partitions
    /// that still succeed and surfaces per-partition errors inline.
    pub fail_fast: bool,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy::fail_fast()
    }
}

impl RetryPolicy {
    /// The pre-recovery semantics: one attempt, no quarantine, no failover,
    /// first error poisons the run.
    #[must_use]
    pub fn fail_fast() -> Self {
        RetryPolicy {
            max_attempts: 1,
            backoff: Duration::ZERO,
            backoff_cap: Duration::ZERO,
            quarantine_after: 0,
            failover: false,
            fail_fast: true,
        }
    }

    /// Tolerant preset: 4 attempts with 1 ms → 8 ms exponential backoff,
    /// quarantine after 3 consecutive failures, failover on, keep streaming
    /// past per-partition errors.
    #[must_use]
    pub fn recover() -> Self {
        RetryPolicy {
            max_attempts: 4,
            backoff: Duration::from_millis(1),
            backoff_cap: Duration::from_millis(8),
            quarantine_after: 3,
            failover: true,
            fail_fast: false,
        }
    }

    /// Sets the attempt budget (clamped to ≥ 1).
    #[must_use]
    pub fn with_max_attempts(mut self, attempts: u32) -> Self {
        self.max_attempts = attempts.max(1);
        self
    }

    /// Sets the backoff base and cap.
    #[must_use]
    pub fn with_backoff(mut self, base: Duration, cap: Duration) -> Self {
        self.backoff = base;
        self.backoff_cap = cap.max(base);
        self
    }

    /// Sets the consecutive-failure quarantine threshold (`0` disables).
    #[must_use]
    pub fn with_quarantine_after(mut self, failures: u32) -> Self {
        self.quarantine_after = failures;
        self
    }

    /// Enables or disables ISP→host failover.
    #[must_use]
    pub fn with_failover(mut self, failover: bool) -> Self {
        self.failover = failover;
        self
    }

    /// The capped exponential backoff before retry attempt `attempt`
    /// (1-based count of *completed* attempts).
    #[must_use]
    pub fn backoff_for(&self, attempt: u32) -> Duration {
        if self.backoff.is_zero() {
            return Duration::ZERO;
        }
        let factor = 1u32 << attempt.saturating_sub(1).min(16);
        self.backoff.saturating_mul(factor).min(self.backoff_cap.max(self.backoff))
    }
}

/// What happened, for one entry of the [`RunReport`] event log.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecoveryEventKind {
    /// An attempt on the partition failed with a retryable error.
    Fault,
    /// The partition is being retried (`attempt` is the upcoming attempt
    /// number, 2-based: the first retry is attempt 2).
    Retry {
        /// Upcoming attempt number.
        attempt: u32,
    },
    /// The device tripped the consecutive-failure circuit breaker.
    Quarantine,
    /// The partition was handed to the host failover path.
    Failover,
    /// The partition's error was surfaced to the consumer (attempts
    /// exhausted or non-retryable).
    Failed,
    /// The partition's batch was delivered.
    Delivered {
        /// Whether the host failover path produced the batch.
        via_failover: bool,
    },
}

/// One timestamped entry of the recovery log.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecoveryEvent {
    /// Offset from the stream's start.
    pub at: Duration,
    /// Device slot (index into [`RunReport::device_health`]).
    pub device: usize,
    /// Partition index.
    pub partition: usize,
    /// What happened.
    pub kind: RecoveryEventKind,
}

/// Health summary of one device slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct DeviceHealth {
    /// Failed attempts charged to this device.
    pub faults: u64,
    /// Batches this device delivered (failover deliveries are charged to
    /// the *home* device slot — the report answers "whose partitions were
    /// these", the `via_failover` flag answers "who did the work").
    pub delivered: u64,
    /// Whether the device ended the run quarantined.
    pub quarantined: bool,
}

/// Snapshot of a streaming run's recovery activity.
///
/// Produced by [`RecoveryTracker::report`] and surfaced through
/// `BatchStream::run_report` and the Trainer. [`RunReport::events`] is
/// ordered by time.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct RunReport {
    /// Partitions the run was asked to stream.
    pub partitions: usize,
    /// Batches delivered (including via failover).
    pub delivered: u64,
    /// Retry attempts performed (beyond each partition's first attempt).
    pub retries: u64,
    /// Failed attempts observed (each may have led to a retry, failover or
    /// surfaced error).
    pub faults: u64,
    /// Partitions completed by the host failover path.
    pub failovers: u64,
    /// Device slots quarantined during the run.
    pub quarantined: Vec<usize>,
    /// Partitions whose error was surfaced to the consumer. Together with
    /// [`RunReport::delivered`] this accounts for every claimed partition:
    /// nothing is ever dropped silently.
    pub failed_partitions: Vec<usize>,
    /// Per-device-slot health (same order as the fleet's sorted distinct
    /// device list).
    pub device_health: Vec<DeviceHealth>,
    /// Timestamped log of every recovery action.
    pub events: Vec<RecoveryEvent>,
}

impl RunReport {
    /// `true` when the run needed no recovery action at all.
    #[must_use]
    pub fn clean(&self) -> bool {
        self.faults == 0
            && self.retries == 0
            && self.failovers == 0
            && self.quarantined.is_empty()
            && self.failed_partitions.is_empty()
    }
}

/// Per-device state the breaker decides on.
#[derive(Debug, Default)]
struct DeviceState {
    consecutive_failures: AtomicU64,
    quarantined: std::sync::atomic::AtomicBool,
}

/// Shared recovery bookkeeping for one streaming run.
///
/// One tracker is created per run and shared (behind the run's existing
/// `Arc`d shared state) by every worker. The event log is the one record:
/// every count a [`RunReport`] carries is derived from it. It takes a mutex
/// only on recovery-path events plus one delivery stamp per unit — nothing
/// on the per-row hot path. The breaker's per-device state is atomics.
#[derive(Debug)]
pub struct RecoveryTracker {
    policy: RetryPolicy,
    /// Sorted distinct device ids; a device's *slot* is its index here.
    devices: Vec<usize>,
    states: Vec<DeviceState>,
    partitions: usize,
    events: Mutex<Vec<RecoveryEvent>>,
    started: Instant,
}

impl RecoveryTracker {
    /// Creates a tracker for a run over `partitions` partitions on the
    /// given fleet. `devices` may be in any order and contain duplicates;
    /// slots are assigned over the sorted distinct list.
    #[must_use]
    pub fn new(policy: RetryPolicy, devices: &[usize], partitions: usize) -> Self {
        let mut distinct: Vec<usize> = devices.to_vec();
        distinct.sort_unstable();
        distinct.dedup();
        if distinct.is_empty() {
            distinct.push(0);
        }
        let states = distinct.iter().map(|_| DeviceState::default()).collect();
        RecoveryTracker {
            policy,
            devices: distinct,
            states,
            partitions,
            events: Mutex::new(Vec::new()),
            started: Instant::now(),
        }
    }

    /// The policy this tracker enforces.
    #[must_use]
    pub fn policy(&self) -> &RetryPolicy {
        &self.policy
    }

    /// Sorted distinct device ids; a device's slot is its index here.
    #[must_use]
    pub fn devices(&self) -> &[usize] {
        &self.devices
    }

    /// The slot index of device id `device` (clamped into range so an
    /// unknown id degrades to slot 0 instead of panicking).
    #[must_use]
    pub fn slot_of(&self, device: usize) -> usize {
        self.devices.binary_search(&device).unwrap_or(0)
    }

    fn log(&self, device_slot: usize, partition: usize, kind: RecoveryEventKind) {
        let at = self.started.elapsed();
        let mut events = self.events.lock().expect("recovery event log lock");
        events.push(RecoveryEvent { at, device: device_slot, partition, kind });
    }

    /// Whether `device_slot` has tripped the circuit breaker.
    #[must_use]
    pub fn is_quarantined(&self, device_slot: usize) -> bool {
        self.states.get(device_slot).is_some_and(|s| s.quarantined.load(Ordering::Relaxed))
    }

    /// Records one failed attempt on `device_slot` and returns whether this
    /// failure tripped the quarantine breaker (transition only: the caller
    /// that trips it handles the quarantine consequences once).
    pub fn note_fault(&self, device_slot: usize, partition: usize) -> bool {
        self.log(device_slot, partition, RecoveryEventKind::Fault);
        let Some(state) = self.states.get(device_slot) else { return false };
        let consecutive = state.consecutive_failures.fetch_add(1, Ordering::Relaxed) + 1;
        if self.policy.quarantine_after > 0
            && consecutive >= u64::from(self.policy.quarantine_after)
            && !state.quarantined.swap(true, Ordering::Relaxed)
        {
            self.log(device_slot, partition, RecoveryEventKind::Quarantine);
            return true;
        }
        false
    }

    /// Records an upcoming retry (attempt number is 2-based) and returns
    /// the backoff to sleep before it.
    #[must_use]
    pub fn note_retry(&self, device_slot: usize, partition: usize, attempt: u32) -> Duration {
        self.log(device_slot, partition, RecoveryEventKind::Retry { attempt });
        self.policy.backoff_for(attempt.saturating_sub(1))
    }

    /// Records a successful delivery; resets the device's consecutive
    /// failure streak (the breaker counts *consecutive* failures).
    pub fn note_delivered(&self, device_slot: usize, partition: usize, via_failover: bool) {
        if let Some(state) = self.states.get(device_slot).filter(|_| !via_failover) {
            state.consecutive_failures.store(0, Ordering::Relaxed);
        }
        self.log(device_slot, partition, RecoveryEventKind::Delivered { via_failover });
    }

    /// Records a partition handed to the host failover path.
    pub fn note_failover(&self, device_slot: usize, partition: usize) {
        self.log(device_slot, partition, RecoveryEventKind::Failover);
    }

    /// Records a partition whose error was surfaced to the consumer.
    pub fn note_failed(&self, device_slot: usize, partition: usize) {
        self.log(device_slot, partition, RecoveryEventKind::Failed);
    }

    /// Snapshots the run's recovery activity, counted from the event log.
    #[must_use]
    pub fn report(&self) -> RunReport {
        use RecoveryEventKind as K;
        let events = self.events.lock().expect("recovery event log lock").clone();
        let mut health = vec![DeviceHealth::default(); self.states.len()];
        let mut r = RunReport { partitions: self.partitions, ..RunReport::default() };
        for e in &events {
            let (total, device) = match e.kind {
                K::Fault => (&mut r.faults, health.get_mut(e.device).map(|h| &mut h.faults)),
                K::Delivered { .. } => {
                    (&mut r.delivered, health.get_mut(e.device).map(|h| &mut h.delivered))
                }
                K::Retry { .. } => (&mut r.retries, None),
                K::Failover => (&mut r.failovers, None),
                K::Failed => {
                    r.failed_partitions.push(e.partition);
                    continue;
                }
                K::Quarantine => continue,
            };
            *total += 1;
            if let Some(n) = device {
                *n += 1;
            }
        }
        for (slot, (h, s)) in health.iter_mut().zip(&self.states).enumerate() {
            h.quarantined = s.quarantined.load(Ordering::Relaxed);
            r.quarantined.extend(h.quarantined.then_some(slot));
        }
        r.failed_partitions.sort_unstable();
        RunReport { device_health: health, events, ..r }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fail_fast_policy_matches_legacy_semantics() {
        let p = RetryPolicy::fail_fast();
        assert_eq!(p.max_attempts, 1);
        assert!(p.fail_fast);
        assert!(!p.failover);
        assert_eq!(p.quarantine_after, 0);
        assert_eq!(p, RetryPolicy::default());
    }

    #[test]
    fn backoff_is_exponential_and_capped() {
        let p = RetryPolicy::fail_fast()
            .with_backoff(Duration::from_millis(1), Duration::from_millis(4));
        assert_eq!(p.backoff_for(1), Duration::from_millis(1));
        assert_eq!(p.backoff_for(2), Duration::from_millis(2));
        assert_eq!(p.backoff_for(3), Duration::from_millis(4));
        assert_eq!(p.backoff_for(9), Duration::from_millis(4), "capped");
        assert_eq!(RetryPolicy::fail_fast().backoff_for(5), Duration::ZERO);
    }

    #[test]
    fn quarantine_trips_on_consecutive_failures_and_resets_on_success() {
        let policy = RetryPolicy::recover().with_quarantine_after(3);
        let t = RecoveryTracker::new(policy, &[0, 1], 8);
        assert!(!t.note_fault(0, 0));
        assert!(!t.note_fault(0, 1));
        // A success resets the streak.
        t.note_delivered(0, 2, false);
        assert!(!t.note_fault(0, 3));
        assert!(!t.note_fault(0, 4));
        assert!(!t.is_quarantined(0));
        assert!(t.note_fault(0, 5), "third consecutive failure trips the breaker");
        assert!(t.is_quarantined(0));
        assert!(!t.note_fault(0, 6), "trip reported once (transition only)");
        assert!(!t.is_quarantined(1), "other device unaffected");
        let report = t.report();
        assert_eq!(report.quarantined, vec![0]);
        assert!(report.device_health[0].quarantined);
        assert_eq!(report.device_health[0].faults, 6);
    }

    #[test]
    fn quarantine_zero_disables_the_breaker() {
        let t = RecoveryTracker::new(RetryPolicy::fail_fast(), &[0], 4);
        for _ in 0..100 {
            assert!(!t.note_fault(0, 0));
        }
        assert!(!t.is_quarantined(0));
    }

    #[test]
    fn slots_are_sorted_distinct_devices() {
        let t = RecoveryTracker::new(RetryPolicy::recover(), &[5, 2, 5, 9, 2], 4);
        assert_eq!(t.slot_of(2), 0);
        assert_eq!(t.slot_of(5), 1);
        assert_eq!(t.slot_of(9), 2);
        assert_eq!(t.slot_of(7), 0, "unknown id degrades to slot 0");
        assert_eq!(t.report().device_health.len(), 3);
    }

    #[test]
    fn report_accounts_for_every_partition() {
        let t = RecoveryTracker::new(RetryPolicy::recover(), &[0], 3);
        t.note_delivered(0, 0, false);
        t.note_failover(0, 1);
        t.note_delivered(0, 1, true);
        t.note_failed(0, 2);
        let r = t.report();
        assert_eq!(r.delivered, 2);
        assert_eq!(r.failovers, 1);
        assert_eq!(r.failed_partitions, vec![2]);
        assert_eq!(r.delivered as usize + r.failed_partitions.len(), r.partitions);
        assert!(!r.clean());
        assert!(RecoveryTracker::new(RetryPolicy::recover(), &[0], 0).report().clean());
    }
}
