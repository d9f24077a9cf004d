//! Deterministic fault injection for storage blobs — the chaos harness
//! behind every recovery test in this workspace.
//!
//! A production preprocessing fleet loses devices and sees failed reads
//! and corrupt pages as *routine* events; an executor is only as
//! trustworthy as its behavior under them. This module makes those events
//! reproducible: a seeded [`FaultPlan`] decides, purely as a function of
//! `(seed, device, partition, read index)`, whether each positioned read
//! fails transiently, returns corrupted bytes (the page CRC catches them
//! downstream), or — once a device's read counter passes a configured
//! threshold — dies permanently. Latency is not a fault: it is the
//! emulated [`Device`](crate::Device)'s to model. Two runs with the same
//! plan and the same per-partition read sequences inject the same faults,
//! which is what lets property tests assert that a recovered stream is
//! bit-identical to a fault-free one.
//!
//! Faults are *attached* to blobs, not woven into readers:
//!
//! * [`FaultyBlob`] wraps any [`BlobRead`] backend (files included) and
//!   intercepts `read_at_into`.
//! * [`MemBlob::with_faults`](crate::MemBlob::with_faults) arms the
//!   workspace's standard in-memory partitions in place, so the streaming
//!   executors run over faulty storage with no type changes. Arming
//!   disables the zero-copy borrows — like an emulated
//!   [`Device`](crate::Device), a faulty medium exposes *reads*, not
//!   memory, so every byte passes through the injector.
//!
//! Injected corruption flips bytes in the **read buffer only**; the stored
//! bytes stay pristine, so a retry of the same read returns good data.
//! Permanent death models the loss of the *access path* the armed blob
//! represents (an ISP engine, a link, a controller): the same bytes read
//! through a differently-armed (or unarmed) clone still succeed, which is
//! exactly the property ISP→host failover relies on.

use crate::error::Result;
use crate::io::BlobRead;
use crate::ColumnarError;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// One scheduled permanent device death.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DeviceDeath {
    /// Device id ([`crate::MemBlob::with_faults`]'s `device` argument).
    pub device: usize,
    /// Reads the device services before dying; `0` means dead on arrival.
    pub after_reads: u64,
}

/// Seeded, deterministic description of the faults to inject.
///
/// Rates are per *positioned read* and drawn from a hash of
/// `(seed, device, partition, read index)` — no global RNG state, so the
/// decision for a given read never depends on thread interleaving. Build
/// one plan, [`arm`](FaultPlan::arm) it into a shared [`FaultInjector`],
/// and attach that injector to every blob in the run.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    /// Seed feeding the per-read decision hash.
    pub seed: u64,
    /// Probability a read fails with a transient I/O error.
    pub transient_rate: f64,
    /// Probability a read returns corrupted bytes (one byte flipped in the
    /// destination buffer; page CRCs catch it downstream).
    pub corrupt_rate: f64,
    /// Devices scheduled to die permanently.
    pub deaths: Vec<DeviceDeath>,
}

impl FaultPlan {
    /// A fault-free plan with the given seed; add faults with the builders.
    #[must_use]
    pub fn new(seed: u64) -> Self {
        FaultPlan { seed, transient_rate: 0.0, corrupt_rate: 0.0, deaths: Vec::new() }
    }

    /// Sets the transient-error rate (clamped to `[0, 1]`).
    #[must_use]
    pub fn with_transient_rate(mut self, rate: f64) -> Self {
        self.transient_rate = rate.clamp(0.0, 1.0);
        self
    }

    /// Sets the buffer-corruption rate (clamped to `[0, 1]`).
    #[must_use]
    pub fn with_corrupt_rate(mut self, rate: f64) -> Self {
        self.corrupt_rate = rate.clamp(0.0, 1.0);
        self
    }

    /// Schedules `device` to die permanently after `after_reads` reads.
    #[must_use]
    pub fn with_device_death(mut self, device: usize, after_reads: u64) -> Self {
        self.deaths.push(DeviceDeath { device, after_reads });
        self
    }

    /// Freezes the plan into a shareable runtime injector.
    #[must_use]
    pub fn arm(self) -> Arc<FaultInjector> {
        Arc::new(FaultInjector::new(self))
    }
}

/// Counts of faults actually injected so far (tests assert the harness did
/// something; reports attribute degraded throughput to a cause).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultStats {
    /// Transient I/O errors returned.
    pub transient: u64,
    /// Reads whose destination buffer was corrupted.
    pub corrupt: u64,
    /// Reads refused because their device was dead.
    pub dead_reads: u64,
}

/// What the injector decided for one read.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Fault {
    Transient,
    Corrupt,
    Dead,
}

/// Runtime state of one armed [`FaultPlan`]: shared (via `Arc`) by every
/// blob in a run so per-device death counters and injected-fault statistics
/// aggregate across the whole fleet.
#[derive(Debug)]
pub struct FaultInjector {
    plan: FaultPlan,
    /// Reads serviced per device scheduled to die (same order as
    /// `plan.deaths`).
    death_reads: Vec<AtomicU64>,
    transient: AtomicU64,
    corrupt: AtomicU64,
    dead_reads: AtomicU64,
}

/// SplitMix64 finalizer: a full-avalanche 64-bit mixer.
fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

impl FaultInjector {
    fn new(plan: FaultPlan) -> Self {
        let death_reads = plan.deaths.iter().map(|_| AtomicU64::new(0)).collect();
        FaultInjector {
            plan,
            death_reads,
            transient: AtomicU64::new(0),
            corrupt: AtomicU64::new(0),
            dead_reads: AtomicU64::new(0),
        }
    }

    /// Faults injected so far, across every armed blob.
    #[must_use]
    pub fn stats(&self) -> FaultStats {
        FaultStats {
            transient: self.transient.load(Ordering::Relaxed),
            corrupt: self.corrupt.load(Ordering::Relaxed),
            dead_reads: self.dead_reads.load(Ordering::Relaxed),
        }
    }

    /// Decides the fate of one read. Increments the device's death counter,
    /// so calling this *is* servicing a read for lifetime purposes.
    fn decide(&self, device: usize, partition: usize, read_index: u64) -> Option<Fault> {
        for (death, reads) in self.plan.deaths.iter().zip(&self.death_reads) {
            if death.device == device {
                let served = reads.fetch_add(1, Ordering::Relaxed);
                if served >= death.after_reads {
                    self.dead_reads.fetch_add(1, Ordering::Relaxed);
                    return Some(Fault::Dead);
                }
            }
        }
        let total = self.plan.transient_rate + self.plan.corrupt_rate;
        if total <= 0.0 {
            return None;
        }
        let h = mix(self.plan.seed ^ mix(device as u64 ^ mix(partition as u64 ^ mix(read_index))));
        // 53 uniform bits → [0, 1).
        let u = (h >> 11) as f64 / (1u64 << 53) as f64;
        if u < self.plan.transient_rate {
            self.transient.fetch_add(1, Ordering::Relaxed);
            Some(Fault::Transient)
        } else if u < total {
            self.corrupt.fetch_add(1, Ordering::Relaxed);
            Some(Fault::Corrupt)
        } else {
            None
        }
    }
}

/// One blob's attachment point to a shared [`FaultInjector`]: the injector
/// plus the `(device, partition)` coordinates faults are keyed on and the
/// blob's monotone read index. Clones of an armed blob share the site, so
/// the read sequence of a partition is counted once however many handles
/// exist.
#[derive(Debug)]
pub struct FaultSite {
    injector: Arc<FaultInjector>,
    device: usize,
    partition: usize,
    next_read: AtomicU64,
}

impl FaultSite {
    /// Creates a site binding `injector` to one `(device, partition)`.
    #[must_use]
    pub fn new(injector: Arc<FaultInjector>, device: usize, partition: usize) -> Self {
        FaultSite { injector, device, partition, next_read: AtomicU64::new(0) }
    }

    /// Runs one read through the injector: fails transient/dead reads, and
    /// returns whether the caller must corrupt the filled buffer
    /// afterwards.
    ///
    /// # Errors
    ///
    /// Returns [`ColumnarError::Io`] for injected transient faults and for
    /// reads on a dead device (the error message distinguishes them).
    pub fn intercept(&self) -> Result<bool> {
        let index = self.next_read.fetch_add(1, Ordering::Relaxed);
        match self.injector.decide(self.device, self.partition, index) {
            None => Ok(false),
            Some(Fault::Corrupt) => Ok(true),
            Some(Fault::Transient) => Err(ColumnarError::Io {
                detail: format!(
                    "injected transient fault (device {}, partition {}, read {index})",
                    self.device, self.partition
                ),
            }),
            Some(Fault::Dead) => Err(ColumnarError::Io {
                detail: format!(
                    "device {} is dead (injected permanent failure; partition {})",
                    self.device, self.partition
                ),
            }),
        }
    }

    /// Deterministically corrupts a filled read buffer (flips the middle
    /// byte). No-op on empty buffers.
    pub fn corrupt(buf: &mut [u8]) {
        if let Some(b) = buf.get_mut(buf.len() / 2) {
            *b ^= 0xA5;
        }
    }
}

/// A [`BlobRead`] decorator that injects the faults a shared
/// [`FaultInjector`] schedules for one `(device, partition)`.
///
/// Works over any backend ([`crate::FsBlob`] included). For the in-memory
/// partitions the executors use, prefer
/// [`MemBlob::with_faults`](crate::MemBlob::with_faults), which arms the
/// blob without changing its type. Like [`crate::CountingBlob`], this
/// decorator does not forward the zero-copy borrows — every read must pass
/// through the injector.
#[derive(Debug)]
pub struct FaultyBlob<B> {
    inner: B,
    site: Arc<FaultSite>,
}

impl<B: BlobRead> FaultyBlob<B> {
    /// Wraps `inner`, keying faults on `(device, partition)`.
    #[must_use]
    pub fn new(inner: B, injector: Arc<FaultInjector>, device: usize, partition: usize) -> Self {
        FaultyBlob { inner, site: Arc::new(FaultSite::new(injector, device, partition)) }
    }

    /// Returns the wrapped blob.
    #[must_use]
    pub fn into_inner(self) -> B {
        self.inner
    }
}

impl<B: BlobRead> BlobRead for FaultyBlob<B> {
    fn blob_len(&self) -> u64 {
        self.inner.blob_len()
    }

    fn read_at_into(&self, offset: u64, buf: &mut [u8]) -> Result<()> {
        let corrupt = self.site.intercept()?;
        self.inner.read_at_into(offset, buf)?;
        if corrupt {
            FaultSite::corrupt(buf);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::MemBlob;
    use std::time::Duration;

    #[test]
    fn fault_free_plan_injects_nothing() {
        let injector = FaultPlan::new(7).arm();
        let blob = FaultyBlob::new(MemBlob::new((0u8..64).collect()), injector.clone(), 0, 0);
        for i in 0..16 {
            assert_eq!(blob.read_at(i, 4).unwrap()[0], i as u8);
        }
        assert_eq!(injector.stats(), FaultStats::default());
    }

    #[test]
    fn transient_faults_are_deterministic_and_counted() {
        let run = |seed: u64| -> Vec<bool> {
            let injector = FaultPlan::new(seed).with_transient_rate(0.3).arm();
            let blob = FaultyBlob::new(MemBlob::new(vec![0; 256]), injector, 2, 5);
            (0..64).map(|i| blob.read_at(i, 2).is_err()).collect()
        };
        let a = run(42);
        let b = run(42);
        assert_eq!(a, b, "same seed, same faults");
        assert!(a.iter().any(|&e| e), "rate 0.3 over 64 reads must fire");
        assert!(a.iter().any(|&e| !e), "rate 0.3 must not fire everywhere");
        let c = run(43);
        assert_ne!(a, c, "different seed, different faults");
    }

    #[test]
    fn corruption_flips_buffer_bytes_but_not_storage() {
        let injector = FaultPlan::new(9).with_corrupt_rate(1.0).arm();
        let blob = FaultyBlob::new(MemBlob::new((0u8..32).collect()), injector.clone(), 0, 0);
        let got = blob.read_at(0, 8).unwrap();
        assert_ne!(got, (0u8..8).collect::<Vec<_>>(), "buffer must be corrupted");
        assert_eq!(blob.into_inner().as_bytes()[..8], *(0u8..8).collect::<Vec<_>>());
        assert!(injector.stats().corrupt >= 1);
    }

    #[test]
    fn device_death_triggers_after_scheduled_reads_and_is_permanent() {
        let injector = FaultPlan::new(1).with_device_death(3, 5).arm();
        let blob = FaultyBlob::new(MemBlob::new(vec![1; 64]), injector.clone(), 3, 0);
        for _ in 0..5 {
            blob.read_at(0, 4).expect("alive while under budget");
        }
        assert_eq!(injector.stats().dead_reads, 0);
        for _ in 0..3 {
            let err = blob.read_at(0, 4).expect_err("dead after budget");
            assert!(err.to_string().contains("dead"), "{err}");
        }
        assert_eq!(injector.stats().dead_reads, 3);
        // Other devices sharing the injector stay alive.
        let other = FaultyBlob::new(MemBlob::new(vec![2; 64]), injector, 1, 0);
        other.read_at(0, 4).expect("device 1 unaffected");
    }

    #[test]
    fn rates_are_clamped() {
        let plan = FaultPlan::new(0).with_transient_rate(7.0).with_corrupt_rate(-1.0);
        assert_eq!(plan.transient_rate, 1.0);
        assert_eq!(plan.corrupt_rate, 0.0);
    }

    #[test]
    fn a_submission_stops_at_its_first_refused_read_like_a_loop() {
        use crate::{Device, DeviceModel};
        const N: usize = 8;
        let plan = |seed| FaultPlan::new(seed).with_transient_rate(0.2).arm();
        // A seed whose first transient fault on (0, 0) is read k, mid-way.
        let (seed, k) = (0..)
            .find_map(|seed| {
                let probe = FaultyBlob::new(MemBlob::new(vec![0]), plan(seed), 0, 0);
                let k = (0..N).position(|_| probe.read_at(0, 1).is_err())?;
                (2..N - 1).contains(&k).then_some((seed, k))
            })
            .unwrap();
        let device = Arc::new(Device::new(DeviceModel::new(Duration::from_micros(1), 2)));
        let blob = MemBlob::new((0u8..64).collect())
            .behind_device(Arc::clone(&device))
            .with_faults(&plan(seed), 0, 0);
        let mut bufs = [[0u8; 4]; N];
        let mut reads = bufs.iter_mut().enumerate().map(|(i, b)| (4 * i as u64, &mut b[..]));
        assert!(blob.read_many_into(&mut reads).is_err());
        drop(reads);
        let site = blob.fault_site().unwrap();
        assert_eq!(site.next_read.load(Ordering::Relaxed), k as u64 + 1, "as in the loop");
        assert_eq!(device.stats().reads, k as u64, "nothing from the refused read on");
        for (i, buf) in bufs.iter().enumerate() {
            let stored: Vec<u8> = (4 * i as u8..4 * i as u8 + 4).collect();
            assert_eq!(buf[..] == stored, i < k, "range {i}, fault at {k}");
        }
    }

    #[test]
    fn a_corrupt_flag_flips_bytes_in_its_own_range_only() {
        let stored: Vec<u8> = (0u8..64).collect();
        let plan = || FaultPlan::new(5).with_corrupt_rate(0.5).arm();
        let looped = FaultyBlob::new(MemBlob::new(stored.clone()), plan(), 0, 0);
        let expect: Vec<Vec<u8>> = (0..8).map(|i| looped.read_at(8 * i, 8).unwrap()).collect();
        let blob = MemBlob::new(stored.clone()).with_faults(&plan(), 0, 0);
        let mut bufs = [[0u8; 8]; 8];
        let mut reads = bufs.iter_mut().enumerate().map(|(i, b)| (8 * i as u64, &mut b[..]));
        blob.read_many_into(&mut reads).unwrap();
        drop(reads);
        let flipped = (0..8).filter(|&i| bufs[i][..] != stored[8 * i..8 * i + 8]).count();
        assert!((1..8).contains(&flipped), "{flipped} of 8 ranges corrupted");
        for (i, buf) in bufs.iter().enumerate() {
            assert_eq!(buf[..], expect[i][..], "range {i}: the loop's bytes");
        }
    }

    #[test]
    fn mem_blob_arming_routes_reads_through_the_injector() {
        let injector = FaultPlan::new(11).with_transient_rate(1.0).arm();
        let blob = MemBlob::new((0u8..32).collect()).with_faults(&injector, 0, 4);
        assert!(blob.as_shared().is_none(), "armed blobs expose reads, not memory");
        assert!(blob.read_at(0, 4).is_err(), "rate-1.0 transient plan fails every read");
        // Clones share the site (and its read counter).
        assert!(blob.clone().read_at(0, 4).is_err());
        assert!(injector.stats().transient >= 2);
        // The pristine path ignores the arming: same bytes, no faults.
        let clean = blob.without_faults();
        assert_eq!(clean.read_at(0, 4).unwrap(), vec![0, 1, 2, 3]);
        assert!(clean.as_shared().is_some(), "unarmed clone restores memory semantics");
    }
}
