//! Storage backends for columnar files.
//!
//! The reader only needs random-access reads ([`BlobRead`]); this is what
//! makes *selective column extraction* possible — exactly the property the
//! PreSto paper relies on to avoid overfetching unwanted features
//! (Section II-B, Extract). [`CountingBlob`] measures the bytes actually
//! touched, which the exact-count tests and `presto-e2e`'s I/O ledger use.
//!
//! # Zero-copy Extract
//!
//! The interface is built around [`BlobRead::read_at_into`], which fills a
//! caller-provided buffer: a reader that recycles one [`ReadScratch`] per
//! worker performs no per-read heap allocation. Two further copies are
//! elided on the common paths:
//!
//! * [`MemBlob`] shares its bytes behind an [`Arc`], so cloning a blob (as
//!   every parallel worker does per partition) is a reference-count bump,
//!   not a file-sized `memcpy`. It also shares the bytes themselves via
//!   [`BlobRead::as_shared`], letting decoders run straight over the stored
//!   bytes with no staging copy at all.
//! * [`FsBlob`] uses positioned reads (`pread(2)` via
//!   `std::os::unix::fs::FileExt`), so parallel workers reading one file do
//!   not serialize behind a seek lock.
//!
//! # Emulated devices
//!
//! [`Device`] models a storage device as a queue-depth-limited service
//! gate: each read occupies one of [`DeviceModel::queue_depth`] slots for
//! [`DeviceModel::read_latency`], and reads beyond the depth serialize —
//! the behavior an NVMe queue actually exhibits. This is the workspace's
//! one model of a device queue (`presto_hwsim`'s SSD model is bandwidth
//! only). Place blobs behind a shared device with
//! [`MemBlob::behind_device`] to make contention measurable on any host.
//!
//! A reader hands the device several ranges at once with
//! [`BlobRead::read_many_into`]: one submission fills up to the queue depth
//! and queues the rest, so from an idle device `n` ranges finish in
//! [`DeviceModel::serialized_time`]`(n)` — ⌈n / depth⌉ waves — instead of
//! the `n × latency` a read-at-a-time loop pays. [`FsBlob`] (and every
//! decorator) still reads one range at a time: the trait's default
//! submission is that loop.

use crate::error::Result;
use crate::fault::{FaultInjector, FaultSite};
use std::fs;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Queue depth used by [`MemBlob::with_read_latency`]: deep enough that the
/// single reads of any realistic worker fleet in this workspace (≤ 16
/// pipelines) never queue, so the legacy "every read pays the latency
/// independently" behavior is preserved while still routing through the
/// shared [`Device`] gate. A submission of more ranges than this takes
/// ⌈ranges / 32⌉ waves, as on any device.
pub const DEFAULT_EMULATED_QUEUE_DEPTH: usize = 32;

/// Parameters of an emulated storage device.
///
/// The device services one positioned read in [`DeviceModel::read_latency`]
/// and can service at most [`DeviceModel::queue_depth`] reads concurrently
/// (the NVMe queue depth). Reads beyond the depth wait for a slot — they
/// *serialize at the device*, which is what the original sleep-per-read
/// emulation got wrong (it modeled a device with unbounded concurrency).
///
/// Its prediction for a backlogged device is
/// [`DeviceModel::serialized_time`], `ceil(reads / depth) × latency`, which
/// `tests/device_model.rs` checks against the schedule the emulation
/// produces.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DeviceModel {
    /// Service time of one positioned read.
    pub read_latency: Duration,
    /// Reads the device services concurrently (≥ 1).
    pub queue_depth: usize,
}

impl DeviceModel {
    /// A device with the given per-read service latency and queue depth
    /// (clamped to ≥ 1).
    #[must_use]
    pub fn new(read_latency: Duration, queue_depth: usize) -> Self {
        DeviceModel { read_latency, queue_depth: queue_depth.max(1) }
    }

    /// Makespan of `reads` positioned reads on a *backlogged* device:
    /// `ceil(reads / queue_depth) × read_latency`. This is the serialization
    /// the token queue produces when requests always outnumber slots.
    #[must_use]
    pub fn serialized_time(&self, reads: u64) -> Duration {
        let waves = reads.div_ceil(self.queue_depth.max(1) as u64);
        self.read_latency.saturating_mul(u32::try_from(waves).unwrap_or(u32::MAX))
    }
}

/// Aggregate statistics of one emulated device.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct DeviceStats {
    /// Positioned reads serviced.
    pub reads: u64,
    /// Total service time (`reads × read_latency`), summed over the queue's
    /// slots: up to `queue_depth` reads are in service at once, so
    /// `busy ÷ makespan` can reach `queue_depth`, not 1.
    pub busy: Duration,
    /// Total time reads spent queued waiting for a device slot, summed over
    /// reads: a submission of `n` reads on a depth-`d` device adds every
    /// queued read's wait, so this can exceed the wall time it spans.
    pub queue_wait: Duration,
    /// Schedule makespan: first read's start to last read's completion, as
    /// scheduled by the token queue (free of host sleep jitter).
    pub makespan: Duration,
}

/// Slot schedule shared by every read on one device, in nanoseconds since
/// the device's first read.
#[derive(Debug, Default)]
struct DeviceSchedule {
    /// Instant the offsets below are measured from (set by the first read).
    origin: Option<Instant>,
    /// Per-slot busy-until offsets.
    free_at: Vec<u64>,
    /// Completion offset of the latest-finishing read scheduled so far.
    last_completion: u64,
}

/// A shared emulated storage device: a queue-depth-limited gate that every
/// positioned read on the device passes through.
///
/// Each read claims the earliest-free of `queue_depth` service slots; its
/// completion deadline is `max(now, slot_free) + read_latency`. The reads of
/// one submission ([`BlobRead::read_many_into`]) claim their slots at the
/// same instant, and the reading thread sleeps until the *absolute*
/// deadline of the latest of them. Scheduling against
/// absolute deadlines keeps the emulation faithful: sleep overshoot on one
/// read does not accumulate into the device's schedule, so a backlogged
/// queue-depth-1 device serializes `N` reads into `N × latency` wall time
/// by construction.
///
/// Share one `Arc<Device>` across every [`MemBlob`] placed on the same
/// physical device ([`MemBlob::behind_device`]); per-device contention then
/// emerges from the workload instead of being assumed away.
#[derive(Debug)]
pub struct Device {
    model: DeviceModel,
    schedule: Mutex<DeviceSchedule>,
    reads: AtomicU64,
    waited_nanos: AtomicU64,
}

impl Device {
    /// Creates an idle device.
    #[must_use]
    pub fn new(model: DeviceModel) -> Self {
        Device {
            model,
            schedule: Mutex::new(DeviceSchedule {
                origin: None,
                free_at: vec![0; model.queue_depth.max(1)],
                last_completion: 0,
            }),
            reads: AtomicU64::new(0),
            waited_nanos: AtomicU64::new(0),
        }
    }

    /// The device's parameters.
    #[must_use]
    pub fn model(&self) -> DeviceModel {
        self.model
    }

    /// Admits `reads` reads submitted together: each claims the
    /// earliest-free slot at the same instant, so from idle they finish in
    /// [`DeviceModel::serialized_time`]`(reads)`. Returns the absolute
    /// deadline of the latest of them, which the caller must sleep until.
    fn admit(&self, reads: u64) -> Instant {
        let now = Instant::now();
        let latency = u64::try_from(self.model.read_latency.as_nanos()).unwrap_or(u64::MAX);
        let mut s = self.schedule.lock().expect("device schedule lock");
        let origin = *s.origin.get_or_insert(now);
        let now_off = u64::try_from(now.duration_since(origin).as_nanos()).unwrap_or(u64::MAX);
        let (mut latest, mut waited) = (now_off, 0);
        for _ in 0..reads {
            let slot = (0..s.free_at.len()).min_by_key(|&i| s.free_at[i]).expect("a slot");
            let start = now_off.max(s.free_at[slot]);
            latest = start.saturating_add(latency);
            s.free_at[slot] = latest;
            waited += start - now_off;
        }
        s.last_completion = s.last_completion.max(latest);
        drop(s);
        self.reads.fetch_add(reads, Ordering::Relaxed);
        self.waited_nanos.fetch_add(waited, Ordering::Relaxed);
        origin + Duration::from_nanos(latest)
    }

    /// Statistics accumulated so far.
    #[must_use]
    pub fn stats(&self) -> DeviceStats {
        let reads = self.reads.load(Ordering::Relaxed);
        let s = self.schedule.lock().expect("device schedule lock");
        DeviceStats {
            reads,
            busy: self.model.read_latency.saturating_mul(u32::try_from(reads).unwrap_or(u32::MAX)),
            queue_wait: Duration::from_nanos(self.waited_nanos.load(Ordering::Relaxed)),
            makespan: Duration::from_nanos(s.last_completion),
        }
    }
}

/// Sleeps until the absolute `deadline` (plain `thread::sleep` in a loop —
/// the std library has no stable `sleep_until`).
fn sleep_until(deadline: Instant) {
    loop {
        let now = Instant::now();
        let Some(remaining) = deadline.checked_duration_since(now) else { return };
        if remaining.is_zero() {
            return;
        }
        std::thread::sleep(remaining);
    }
}

/// Random-access read interface over a stored byte blob.
///
/// Implementors provide [`BlobRead::read_at_into`]; the allocating
/// [`BlobRead::read_at`] is derived from it. A `&B` reference to a
/// `BlobRead` also implements the trait, so readers can be passed by
/// reference.
pub trait BlobRead {
    /// Total blob length in bytes.
    fn blob_len(&self) -> u64;

    /// Fills `buf` with the `buf.len()` bytes starting at `offset`.
    ///
    /// This is the zero-copy-friendly primitive: callers that reuse the
    /// destination buffer (see [`ReadScratch`]) read without allocating.
    ///
    /// # Errors
    ///
    /// Returns an error when the range is out of bounds or the underlying
    /// medium fails.
    fn read_at_into(&self, offset: u64, buf: &mut [u8]) -> Result<()>;

    /// Fills every `(offset, buf)` of one submission, in order, stopping at
    /// the first read that fails. The default is a loop over
    /// [`BlobRead::read_at_into`], so a backend that does not override it
    /// behaves and counts exactly as that loop; [`MemBlob`] overrides it to
    /// hand the whole submission to its [`Device`] at once (see the module
    /// docs).
    ///
    /// # Errors
    ///
    /// Same conditions as [`BlobRead::read_at_into`], for any of the reads.
    fn read_many_into(&self, mut reads: &mut dyn Iterator<Item = (u64, &mut [u8])>) -> Result<()> {
        (&mut reads).try_for_each(|(offset, buf)| self.read_at_into(offset, buf))
    }

    /// Reads exactly `len` bytes starting at `offset` into a fresh buffer.
    ///
    /// # Errors
    ///
    /// Same conditions as [`BlobRead::read_at_into`].
    fn read_at(&self, offset: u64, len: usize) -> Result<Vec<u8>> {
        let mut buf = vec![0u8; len];
        self.read_at_into(offset, &mut buf)?;
        Ok(buf)
    }

    /// The blob's bytes behind their reference-counted allocation, when the
    /// backend stores them that way ([`MemBlob`] does). This is what enables
    /// *lazy plain-page decode*: a reader holding the `Arc` can hand out
    /// typed [`crate::Buffer`] views directly over the stored bytes, so an
    /// aligned plain-encoded page is never copied at all. Backends that
    /// cannot share ownership of their bytes return `None`.
    fn as_shared(&self) -> Option<Arc<Vec<u8>>> {
        None
    }
}

impl<B: BlobRead + ?Sized> BlobRead for &B {
    fn blob_len(&self) -> u64 {
        (**self).blob_len()
    }

    fn read_at_into(&self, offset: u64, buf: &mut [u8]) -> Result<()> {
        (**self).read_at_into(offset, buf)
    }

    fn read_many_into(&self, reads: &mut dyn Iterator<Item = (u64, &mut [u8])>) -> Result<()> {
        (**self).read_many_into(reads)
    }

    fn as_shared(&self) -> Option<Arc<Vec<u8>>> {
        (**self).as_shared()
    }
}

/// Recycled intermediates of the chunk decoder ([`crate::column::read_chunk`]):
/// what a decode needs between the stored bytes and its output buffers, so
/// that a warm read allocates those outputs and nothing else. Which fields a
/// read touches follows the decoder's route — none of them on the view
/// route. A caller outside [`ReadScratch`] (tests, tools) starts from
/// `Default`.
#[derive(Debug, Default)]
pub struct DecodeScratch {
    /// The length of every list of the chunk, from which its offsets are
    /// built once its pages are through.
    pub(crate) lengths: Vec<u64>,
    /// Head values of a head/tail chunk read in full, waiting to be
    /// interleaved with its tail pages.
    pub(crate) values: Vec<i64>,
    /// One page's kept element ranges, when a limit cuts it.
    pub(crate) ranges: Vec<(usize, usize)>,
    /// Dictionary and index staging of dictionary pages.
    pub(crate) dict: crate::encoding::dictionary::DictScratch,
}

/// Reusable per-worker buffers for the Extract read + decode path.
///
/// One `ReadScratch` per worker turns every column-chunk read into a
/// positioned read over recycled memory: after warm-up (the largest chunk
/// seen so far) no further allocation occurs. Beyond the chunk staging
/// buffer it recycles the chunk decoder's intermediates ([`DecodeScratch`])
/// — list lengths, prefix ranges, dictionary staging — so
/// decoded id/offset blocks go straight from storage bytes into their
/// exactly-sized output buffers with nothing allocated in between.
#[derive(Debug, Default)]
pub struct ReadScratch {
    buf: Vec<u8>,
    pub(crate) decode: DecodeScratch,
}

impl ReadScratch {
    /// Creates an empty scratch buffer.
    #[must_use]
    pub fn new() -> Self {
        ReadScratch::default()
    }

    /// Stages the `(offset, len)` ranges of one submission, fetched from
    /// `blob` with one [`BlobRead::read_many_into`], back to back in the
    /// recycled buffer (grown to the largest `total` seen so far), and
    /// returns those `total` bytes together with the decode intermediates as
    /// disjoint borrows — the chunk decoder's entry point for backends that
    /// expose reads and not memory. `total` is the sum of the lengths.
    ///
    /// # Errors
    ///
    /// Same conditions as [`BlobRead::read_many_into`].
    pub(crate) fn stage<B: BlobRead + ?Sized>(
        &mut self,
        blob: &B,
        total: usize,
        ranges: impl Iterator<Item = (u64, usize)>,
    ) -> Result<(&[u8], &mut DecodeScratch)> {
        self.buf.resize(total.max(self.buf.len()), 0);
        let mut rest = &mut self.buf[..total];
        blob.read_many_into(&mut ranges.map(|(offset, len)| {
            let (dst, tail) = std::mem::take(&mut rest).split_at_mut(len);
            rest = tail;
            (offset, dst)
        }))?;
        Ok((&self.buf[..total], &mut self.decode))
    }

    /// Current buffer capacity in bytes (diagnostic).
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.buf.capacity()
    }
}

/// An in-memory blob, the default backend for tests and simulation.
///
/// The bytes live behind an [`Arc`]: cloning a `MemBlob` is O(1) and the
/// clone shares storage with the original, which is what lets the parallel
/// workers hand partitions around without copying file contents.
///
/// For pipeline experiments, [`MemBlob::behind_device`] puts the blob
/// behind an emulated storage [`Device`]: every positioned read is
/// scheduled onto one of the device's queue-depth service slots (reads
/// beyond the depth serialize, as they would inside an NVMe device), and
/// the zero-copy borrows are disabled — a device exposes reads, not memory.
/// This is what lets the Extract-overlap and contention benches demonstrate
/// latency hiding and queueing on any host. [`MemBlob::with_read_latency`]
/// is the legacy convenience for a private, effectively-uncontended device.
#[derive(Debug, Clone, Default)]
pub struct MemBlob {
    data: Arc<Vec<u8>>,
    device: Option<Arc<Device>>,
    faults: Option<Arc<FaultSite>>,
}

impl MemBlob {
    /// Wraps a byte buffer.
    #[must_use]
    pub fn new(data: Vec<u8>) -> Self {
        MemBlob { data: Arc::new(data), device: None, faults: None }
    }

    /// Arms the blob against a shared [`FaultInjector`], keying injected
    /// faults on `(device, partition)`. Every positioned read then passes
    /// through the injector *before* any emulated-device gate, and — as
    /// with [`MemBlob::behind_device`] — the zero-copy borrows are
    /// disabled: a faulty medium exposes reads, not memory, so no decode
    /// path can sidestep the injection. Clones share the arming (and the
    /// per-partition read counter that makes injection deterministic).
    #[must_use]
    pub fn with_faults(
        mut self,
        injector: &Arc<FaultInjector>,
        device: usize,
        partition: usize,
    ) -> Self {
        self.faults = Some(Arc::new(FaultSite::new(Arc::clone(injector), device, partition)));
        self
    }

    /// A clone of this blob with the fault arming removed: same bytes,
    /// same emulated device (if any), pristine access path. This is the
    /// failover primitive — an ISP engine dying does not destroy the
    /// media, so the host fleet re-reads the partition through its own
    /// (unarmed) block-I/O path and gets the stored bytes intact.
    #[must_use]
    pub fn without_faults(&self) -> Self {
        MemBlob { data: Arc::clone(&self.data), device: self.device.clone(), faults: None }
    }

    /// The fault site this blob is armed with, when any.
    #[must_use]
    pub fn fault_site(&self) -> Option<&Arc<FaultSite>> {
        self.faults.as_ref()
    }

    /// Places the blob behind an emulated storage device: every read, and
    /// every range of a submission, is scheduled through `device`'s
    /// queue-depth gate, and [`BlobRead::as_shared`] reports `None` (reads
    /// must go through the "device"). Shares the same underlying bytes as
    /// `self`; share the same `Arc<Device>` across all blobs resident on one
    /// physical device so they contend for its slots.
    #[must_use]
    pub fn behind_device(mut self, device: Arc<Device>) -> Self {
        self.device = Some(device);
        self
    }

    /// Emulates device latency with a private, deep-queued device
    /// ([`DEFAULT_EMULATED_QUEUE_DEPTH`] slots): every read pays `latency`
    /// but single reads never queue behind each other — the pre-queue-model
    /// behavior, kept for overlap experiments where contention is not the
    /// subject. Use [`MemBlob::behind_device`] with an explicit
    /// [`DeviceModel`] to model a real queue depth.
    #[must_use]
    pub fn with_read_latency(self, latency: Duration) -> Self {
        if latency.is_zero() {
            return self;
        }
        self.behind_device(Arc::new(Device::new(DeviceModel::new(
            latency,
            DEFAULT_EMULATED_QUEUE_DEPTH,
        ))))
    }

    /// The emulated device backing this blob, when one is configured.
    #[must_use]
    pub fn device(&self) -> Option<&Arc<Device>> {
        self.device.as_ref()
    }

    /// The configured per-read latency (zero for plain memory).
    #[must_use]
    pub fn read_latency(&self) -> Duration {
        self.device.as_ref().map_or(Duration::ZERO, |d| d.model().read_latency)
    }

    /// Borrows the underlying bytes.
    #[must_use]
    pub fn as_bytes(&self) -> &[u8] {
        &self.data
    }

    /// Returns the underlying buffer, copying only if other clones still
    /// share it.
    #[must_use]
    pub fn into_inner(self) -> Vec<u8> {
        Arc::try_unwrap(self.data).unwrap_or_else(|shared| (*shared).clone())
    }
}

impl From<Vec<u8>> for MemBlob {
    fn from(data: Vec<u8>) -> Self {
        MemBlob::new(data)
    }
}

impl BlobRead for MemBlob {
    fn blob_len(&self) -> u64 {
        self.data.len() as u64
    }

    fn read_at_into(&self, offset: u64, buf: &mut [u8]) -> Result<()> {
        self.read_many_into(&mut std::iter::once((offset, buf)))
    }

    /// One pass in submission order, allocating nothing: check the range,
    /// let the fault site refuse or flag the read, copy, and corrupt the
    /// flagged copy alone (stored bytes stay pristine). Faults fire before
    /// the device gate, so a refused read — and every read after it, as in
    /// a loop of single reads — never occupies a device slot; a range past
    /// the blob fails the submission before any read is admitted. The reads
    /// that got through then go to the device together, and the caller
    /// sleeps once, until the latest of them completes.
    fn read_many_into(&self, mut reads: &mut dyn Iterator<Item = (u64, &mut [u8])>) -> Result<()> {
        let mut served = 0;
        let result = (&mut reads).try_for_each(|(offset, buf)| {
            let at = usize::try_from(offset).ok();
            let Some(src) = at.and_then(|at| self.data.get(at..at.checked_add(buf.len())?)) else {
                served = 0;
                return Err(crate::ColumnarError::UnexpectedEof { context: "blob range read" });
            };
            let corrupt = self.faults.as_deref().map_or(Ok(false), FaultSite::intercept)?;
            buf.copy_from_slice(src);
            if corrupt {
                FaultSite::corrupt(buf);
            }
            served += 1;
            Ok(())
        });
        if let Some(device) = self.device.as_ref().filter(|_| served > 0) {
            sleep_until(device.admit(served));
        }
        result
    }

    fn as_shared(&self) -> Option<Arc<Vec<u8>>> {
        if self.device.is_none() && self.faults.is_none() {
            Some(Arc::clone(&self.data))
        } else {
            None
        }
    }
}

/// A blob backed by a file on disk.
///
/// Reads use positioned I/O (`pread(2)`), so concurrent workers reading
/// different ranges of one file proceed in parallel with no shared cursor
/// and no lock.
#[derive(Debug)]
pub struct FsBlob {
    file: fs::File,
    len: u64,
}

impl FsBlob {
    /// Opens `path` for random-access reading.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors.
    pub fn open(path: impl AsRef<Path>) -> Result<Self> {
        let file = fs::File::open(path)?;
        let len = file.metadata()?.len();
        Ok(FsBlob { file, len })
    }
}

impl BlobRead for FsBlob {
    fn blob_len(&self) -> u64 {
        self.len
    }

    #[cfg(unix)]
    fn read_at_into(&self, offset: u64, buf: &mut [u8]) -> Result<()> {
        use std::os::unix::fs::FileExt;
        self.file.read_exact_at(buf, offset)?;
        Ok(())
    }

    #[cfg(windows)]
    fn read_at_into(&self, offset: u64, buf: &mut [u8]) -> Result<()> {
        use std::os::windows::fs::FileExt;
        let mut pos = offset;
        let mut filled = 0usize;
        while filled < buf.len() {
            let n = self.file.seek_read(&mut buf[filled..], pos)?;
            if n == 0 {
                return Err(crate::ColumnarError::UnexpectedEof { context: "file range read" });
            }
            filled += n;
            pos += n as u64;
        }
        Ok(())
    }
}

/// Decorator that counts bytes and read calls issued to an inner blob.
///
/// Used to demonstrate the columnar format's selective-read property: reading
/// two of forty columns must touch roughly 1/20 of the file.
///
/// `CountingBlob` deliberately does **not** forward
/// [`BlobRead::as_shared`]: the zero-copy borrows would bypass
/// `read_at_into` and the counters with it, and the whole point of the
/// decorator is to observe the traffic.
#[derive(Debug)]
pub struct CountingBlob<B> {
    inner: B,
    bytes_read: AtomicU64,
    read_calls: AtomicU64,
}

impl<B: BlobRead> CountingBlob<B> {
    /// Wraps `inner` with counters starting at zero.
    #[must_use]
    pub fn new(inner: B) -> Self {
        CountingBlob { inner, bytes_read: AtomicU64::new(0), read_calls: AtomicU64::new(0) }
    }

    /// Total bytes read so far.
    #[must_use]
    pub fn bytes_read(&self) -> u64 {
        self.bytes_read.load(Ordering::Relaxed)
    }

    /// Total ranges read so far: one per `read_at` / `read_at_into` call,
    /// and one per range of a [`BlobRead::read_many_into`] submission (the
    /// decorator reads a submission one range at a time).
    #[must_use]
    pub fn read_calls(&self) -> u64 {
        self.read_calls.load(Ordering::Relaxed)
    }

    /// Resets both counters to zero.
    pub fn reset(&self) {
        self.bytes_read.store(0, Ordering::Relaxed);
        self.read_calls.store(0, Ordering::Relaxed);
    }

    /// Returns the wrapped blob.
    #[must_use]
    pub fn into_inner(self) -> B {
        self.inner
    }
}

impl<B: BlobRead> BlobRead for CountingBlob<B> {
    fn blob_len(&self) -> u64 {
        self.inner.blob_len()
    }

    fn read_at_into(&self, offset: u64, buf: &mut [u8]) -> Result<()> {
        self.read_calls.fetch_add(1, Ordering::Relaxed);
        self.bytes_read.fetch_add(buf.len() as u64, Ordering::Relaxed);
        self.inner.read_at_into(offset, buf)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mem_blob_reads_ranges() {
        let blob = MemBlob::new((0u8..100).collect());
        assert_eq!(blob.blob_len(), 100);
        assert_eq!(blob.read_at(10, 3).unwrap(), vec![10, 11, 12]);
        assert!(blob.read_at(99, 2).is_err());
        assert!(blob.read_at(200, 1).is_err());
    }

    #[test]
    fn mem_blob_zero_len_read_at_end_is_ok() {
        let blob = MemBlob::new(vec![1, 2, 3]);
        assert_eq!(blob.read_at(3, 0).unwrap(), Vec::<u8>::new());
    }

    #[test]
    fn mem_blob_clone_shares_storage() {
        let blob = MemBlob::new(vec![7; 1 << 20]);
        let clone = blob.clone();
        // Same allocation, not a copy.
        assert!(std::ptr::eq(blob.as_bytes(), clone.as_bytes()));
        assert_eq!(clone.into_inner().len(), 1 << 20);
        // The original still owns the bytes after the clone is consumed.
        assert_eq!(blob.into_inner().len(), 1 << 20);
    }

    #[test]
    fn mem_blob_exposes_slice() {
        let blob = MemBlob::new(vec![1, 2, 3]);
        assert_eq!(blob.as_shared().unwrap()[..], [1, 2, 3]);
        let by_ref: &MemBlob = &blob;
        assert_eq!(BlobRead::as_shared(&by_ref).unwrap()[..], [1, 2, 3]);
    }

    #[test]
    fn mem_blob_shares_its_allocation() {
        let blob = MemBlob::new(vec![5, 6, 7]);
        let shared = blob.as_shared().unwrap();
        assert!(std::ptr::eq(shared.as_slice(), blob.as_bytes()));
        let by_ref: &MemBlob = &blob;
        assert!(BlobRead::as_shared(&by_ref).is_some());
        // Decorators and files stay opaque.
        assert!(CountingBlob::new(blob).as_shared().is_none());
    }

    #[test]
    fn read_at_into_fills_buffer_without_error() {
        let blob = MemBlob::new((0u8..32).collect());
        let mut buf = [0u8; 4];
        blob.read_at_into(8, &mut buf).unwrap();
        assert_eq!(buf, [8, 9, 10, 11]);
        assert!(blob.read_at_into(30, &mut buf).is_err());
    }

    #[test]
    fn read_scratch_recycles_buffer() {
        let blob = MemBlob::new((0u8..64).collect());
        let mut scratch = ReadScratch::new();
        let (bytes, _) = scratch.stage(&blob, 16, [(0, 4), (40, 12)].into_iter()).unwrap();
        assert_eq!(bytes, [0, 1, 2, 3].iter().copied().chain(40..52).collect::<Vec<u8>>());
        let cap = scratch.capacity();
        // Smaller and equal submissions must not grow the buffer.
        let (bytes, _) = scratch.stage(&blob, 8, std::iter::once((32, 8))).unwrap();
        assert_eq!(bytes, (32u8..40).collect::<Vec<_>>());
        assert_eq!(scratch.stage(&blob, 16, std::iter::once((0, 16))).unwrap().0.len(), 16);
        assert_eq!(scratch.capacity(), cap);
    }

    #[test]
    fn a_submission_reads_every_range_in_order() {
        let blob = MemBlob::new((0u8..32).collect());
        let (mut a, mut b, mut c) = ([0u8; 2], [0u8; 0], [0u8; 3]);
        blob.read_many_into(&mut [(30, &mut a[..]), (32, &mut b[..]), (0, &mut c[..])].into_iter())
            .unwrap();
        assert_eq!((a, c), ([30, 31], [0, 1, 2]));
        // The default loop and `&B` agree with the override.
        let counted = CountingBlob::new(&blob);
        counted.read_many_into(&mut [(1, &mut a[..]), (4, &mut c[..])].into_iter()).unwrap();
        assert_eq!((a, c, counted.read_calls(), counted.bytes_read()), ([1, 2], [4, 5, 6], 2, 5));
    }

    #[test]
    fn an_out_of_range_read_is_refused_before_the_device_sees_anything() {
        let device = Arc::new(Device::new(DeviceModel::new(Duration::from_millis(50), 2)));
        let blob = MemBlob::new(vec![1; 64]).behind_device(Arc::clone(&device));
        let t0 = Instant::now();
        assert!(blob.read_at(60, 8).is_err(), "alone");
        let (mut a, mut b, mut c) = ([0u8; 8], [0u8; 8], [0u8; 8]);
        let mut reads = [(0, &mut a[..]), (u64::MAX, &mut b[..]), (8, &mut c[..])].into_iter();
        assert!(blob.read_many_into(&mut reads).is_err(), "inside a submission");
        drop(reads);
        assert_eq!(device.stats(), DeviceStats::default());
        assert!(t0.elapsed() < Duration::from_millis(50), "no latency paid: {:?}", t0.elapsed());
    }

    #[test]
    fn one_submission_from_idle_finishes_in_serialized_time() {
        let model = DeviceModel::new(Duration::from_millis(3), 2);
        let device = Arc::new(Device::new(model));
        let blob = MemBlob::new((0u8..64).collect()).behind_device(Arc::clone(&device));
        let mut bufs = [[0u8; 4]; 5];
        let t0 = Instant::now();
        let mut reads = bufs.iter_mut().enumerate().map(|(i, b)| (8 * i as u64, &mut b[..]));
        blob.read_many_into(&mut reads).unwrap();
        assert!(t0.elapsed() >= model.serialized_time(5), "the caller sleeps out every wave");
        assert_eq!(bufs[4], [32, 33, 34, 35]);
        let stats = device.stats();
        assert_eq!((stats.reads, stats.makespan), (5, model.serialized_time(5)));
        // Waits of 0, 0, 1, 1 and 2 latencies behind the two slots.
        assert_eq!(stats.queue_wait, Duration::from_millis(3 * 4));
    }

    #[test]
    fn latency_blob_behaves_like_a_device() {
        let blob = MemBlob::new((0u8..32).collect());
        let slow = blob.clone().with_read_latency(Duration::from_millis(5));
        // Same bytes, device semantics: no zero-copy borrows.
        assert_eq!(slow.read_latency(), Duration::from_millis(5));
        assert!(slow.as_shared().is_none());
        assert!(blob.as_shared().is_some(), "plain clone keeps memory semantics");
        let t0 = std::time::Instant::now();
        assert_eq!(slow.read_at(4, 2).unwrap(), vec![4, 5]);
        assert!(t0.elapsed() >= Duration::from_millis(5), "read must pay the latency");
    }

    #[test]
    fn device_model_serializes_by_waves() {
        let m = DeviceModel::new(Duration::from_millis(2), 4);
        assert_eq!(m.serialized_time(0), Duration::ZERO);
        assert_eq!(m.serialized_time(4), Duration::from_millis(2));
        assert_eq!(m.serialized_time(5), Duration::from_millis(4));
        assert_eq!(m.serialized_time(12), Duration::from_millis(6));
        // Depth clamps to 1.
        assert_eq!(DeviceModel::new(Duration::from_millis(2), 0).queue_depth, 1);
    }

    #[test]
    fn shared_device_queue_depth_one_serializes_concurrent_reads() {
        let device = Arc::new(Device::new(DeviceModel::new(Duration::from_millis(4), 1)));
        let blob = MemBlob::new((0u8..64).collect()).behind_device(Arc::clone(&device));
        assert!(blob.as_shared().is_none(), "device blobs expose reads, not memory");
        let t0 = Instant::now();
        std::thread::scope(|scope| {
            for t in 0..3usize {
                let blob = blob.clone();
                scope.spawn(move || {
                    let got = blob.read_at(t as u64, 4).unwrap();
                    assert_eq!(got[0], t as u8);
                });
            }
        });
        // Three reads through a depth-1 device cannot overlap.
        assert!(t0.elapsed() >= Duration::from_millis(12), "elapsed {:?}", t0.elapsed());
        let stats = device.stats();
        assert_eq!(stats.reads, 3);
        // Depth 1 chains completions: each read starts no earlier than the
        // previous one finished, so the schedule makespan is at least N × L
        // whatever the arrival spread.
        assert!(stats.makespan >= Duration::from_millis(12), "makespan {:?}", stats.makespan);
        assert_eq!(stats.busy, Duration::from_millis(12));
    }

    #[test]
    fn deep_device_queue_restores_overlap() {
        // Generous latency so scheduler noise on loaded CI hosts cannot
        // push the overlapped case past the serialized bound (160ms).
        let device = Arc::new(Device::new(DeviceModel::new(Duration::from_millis(40), 4)));
        let blob = MemBlob::new(vec![1; 32]).behind_device(Arc::clone(&device));
        let t0 = Instant::now();
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let blob = blob.clone();
                scope.spawn(move || blob.read_at(0, 8).unwrap());
            }
        });
        let elapsed = t0.elapsed();
        assert!(elapsed >= Duration::from_millis(40));
        assert!(elapsed < Duration::from_millis(120), "4 slots must overlap, took {elapsed:?}");
        // Schedule makespan = latency + spawn skew (each read starts on
        // arrival; no read ever queues).
        let makespan = device.stats().makespan;
        assert!(makespan >= Duration::from_millis(40), "makespan {makespan:?}");
        assert!(makespan < Duration::from_millis(120), "no queueing expected, got {makespan:?}");
    }

    #[test]
    fn clones_share_the_device_gate() {
        let device = Arc::new(Device::new(DeviceModel::new(Duration::from_micros(100), 1)));
        let blob = MemBlob::new(vec![0; 16]).behind_device(Arc::clone(&device));
        let clone = blob.clone();
        blob.read_at(0, 4).unwrap();
        clone.read_at(4, 4).unwrap();
        assert_eq!(device.stats().reads, 2, "both clones route through one device");
        assert_eq!(blob.read_latency(), Duration::from_micros(100));
    }

    #[test]
    fn counting_blob_tracks_traffic() {
        let blob = CountingBlob::new(MemBlob::new(vec![0; 1000]));
        blob.read_at(0, 100).unwrap();
        blob.read_at(500, 50).unwrap();
        assert_eq!(blob.bytes_read(), 150);
        assert_eq!(blob.read_calls(), 2);
        blob.reset();
        assert_eq!(blob.bytes_read(), 0);
    }

    #[test]
    fn counting_blob_does_not_expose_slice() {
        // A zero-copy borrow would bypass the counters; see the type docs.
        let blob = CountingBlob::new(MemBlob::new(vec![0; 8]));
        assert!(blob.as_shared().is_none());
    }

    #[test]
    fn fs_blob_roundtrips_through_disk() {
        let dir = std::env::temp_dir().join("presto_columnar_io_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("blob.bin");
        std::fs::write(&path, [9u8, 8, 7, 6, 5]).unwrap();
        let blob = FsBlob::open(&path).unwrap();
        assert_eq!(blob.blob_len(), 5);
        assert_eq!(blob.read_at(1, 3).unwrap(), vec![8, 7, 6]);
        assert!(blob.as_shared().is_none());
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn fs_blob_positioned_reads_are_parallel_safe() {
        let dir = std::env::temp_dir().join("presto_columnar_io_par_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("parallel.bin");
        let payload: Vec<u8> = (0..=255u8).cycle().take(1 << 16).collect();
        std::fs::write(&path, &payload).unwrap();
        let blob = FsBlob::open(&path).unwrap();
        // Many threads reading interleaved ranges through one handle must
        // all see their own range (no shared-cursor interference).
        std::thread::scope(|scope| {
            for t in 0..8usize {
                let blob = &blob;
                let payload = &payload;
                scope.spawn(move || {
                    for i in 0..200usize {
                        let off = (t * 251 + i * 37) % (payload.len() - 16);
                        let got = blob.read_at(off as u64, 16).unwrap();
                        assert_eq!(got, &payload[off..off + 16]);
                    }
                });
            }
        });
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn blob_read_by_reference_works() {
        fn total_len(b: impl BlobRead) -> u64 {
            b.blob_len()
        }
        let blob = MemBlob::new(vec![0; 10]);
        assert_eq!(total_len(&blob), 10);
        assert_eq!(blob.blob_len(), 10);
    }
}
