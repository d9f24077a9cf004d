//! Shuffled epochs over row groups: seeded deterministic permutations and
//! resumable mid-epoch cursors.
//!
//! Real recommendation trainers consume *shuffled* epochs and checkpoint
//! mid-epoch — Meta's data storage & ingestion study names both as
//! first-order requirements of the online preprocessing path, and BagPipe's
//! lookahead exploits a known upcoming batch order. The `PSTOCOL4`
//! row-group index (see `presto_columnar::file`) makes the storage side of
//! this cheap: every mini-batch-aligned row group is independently
//! addressable with one ranged read per projected column. This module
//! defines the order; the engine ([`crate::stream`], shuffled fleet:
//! [`Fleet::Shuffled`](crate::Fleet::Shuffled))
//! streams it.
//!
//! * [`epoch_units`] enumerates every row group of every partition into a
//!   flat list of [`GroupRef`] units — the shuffle's sample space. The
//!   footers it parses are the epoch's footers: the shuffled stream opens
//!   them up front with one opener per device, keeps the readers and reads
//!   every unit through its partition's, so a unit costs its row group's
//!   chunk reads and no open.
//! * [`epoch_order`] derives the epoch's permutation of those units from
//!   `(seed, epoch)` with a SplitMix64-keyed Fisher–Yates shuffle. Same
//!   inputs ⇒ same permutation, on every worker count, forever; the epoch
//!   number folds in so successive epochs reshuffle without new seeds.
//!   The order is known up front, so the stream's claims look ahead in it:
//!   inside a window of [`FleetConfig::capacity`](crate::FleetConfig::capacity)
//!   positions a worker takes the earliest unit whose device is idle, and
//!   the consumer's reorder buffer restores the order — BagPipe's
//!   lookahead, applied to devices.
//! * [`EpochCursor`] ([`BatchStream::cursor`](crate::BatchStream::cursor))
//!   is a serializable checkpoint of how far the epoch got;
//!   [`BatchStream::resume`](crate::BatchStream::resume) continues from it
//!   bit-identically.
//!
//! # Shuffle quality vs read amplification
//!
//! The row-group size is the knob: groups of one row give a perfect
//! uniform shuffle but pay a footer entry, page headers and a ranged read
//! per row; whole-partition groups read sequentially but only permute
//! partition order. Sized at the training mini-batch (the intended
//! configuration), within-group order is fixed but groups — and therefore
//! mini-batches — are drawn uniformly, which is the standard trade
//! recommendation pipelines make. `repro-all ablation-shuffle` sweeps the
//! trade-off.

use crate::executor::PreprocessError;
use presto_columnar::{ColumnarError, FileReader, MemBlob};
use presto_datagen::Partition;
use std::panic::resume_unwind;
use std::sync::atomic::{AtomicUsize, Ordering};

/// What to shuffle: the seed and which epoch of it to stream.
///
/// The permutation is a pure function of `(seed, epoch, unit count)` —
/// nothing about worker count, timing or device layout leaks in.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ShuffleSpec {
    /// Shuffle seed shared by every epoch of a training run.
    pub seed: u64,
    /// Epoch number; each epoch draws a fresh permutation from the seed.
    pub epoch: u64,
}

impl ShuffleSpec {
    /// Epoch 0 of `seed`.
    #[must_use]
    pub fn new(seed: u64) -> Self {
        ShuffleSpec { seed, epoch: 0 }
    }

    /// Selects the epoch to stream.
    #[must_use]
    pub fn with_epoch(mut self, epoch: u64) -> Self {
        self.epoch = epoch;
        self
    }
}

/// One shuffle unit: a row group of a partition.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GroupRef {
    /// Position of the partition in the input slice.
    pub partition: usize,
    /// Row group index within the partition.
    pub group: usize,
    /// Rows in the group (from the footer index).
    pub rows: u64,
}

/// SplitMix64: the full-avalanche mixer keying the Fisher–Yates draws.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut x = *state;
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// Enumerates the epoch's shuffle units: every row group of every
/// partition, in `(partition, group)` order. Only footers are parsed, but
/// behind an emulated device each partition costs two device round trips
/// (the head and tail as one submission, then the footer). This walk opens
/// the partitions one after another on the calling thread; a stream opens
/// them with one opener per device, so its devices overlap their trips.
///
/// # Errors
///
/// Propagates open/footer failures (tagged with the partition and device).
pub fn epoch_units(partitions: &[Partition]) -> Result<Vec<GroupRef>, PreprocessError> {
    epoch_readers(partitions, 1).map(|(units, _)| units)
}

/// [`epoch_units`], plus the reader it opened for each partition: the
/// shuffled stream reads every unit through them.
///
/// The footers are opened by `min(openers, devices)` openers: the calling
/// thread and one scoped thread per other opener. Devices are dealt to the
/// openers in id order, and each opener opens its devices' partitions in
/// partition order, so every device sees the reads of a serial walk in the
/// same order and the result does not depend on `openers`. On failure an
/// opener stops before any partition past the lowest failure seen so far,
/// and the error is the lowest failing partition's, as a serial walk would
/// return.
pub(crate) fn epoch_readers(
    partitions: &[Partition],
    openers: usize,
) -> Result<(Vec<GroupRef>, Vec<FileReader<MemBlob>>), PreprocessError> {
    let mut devices: Vec<usize> = partitions.iter().map(|p| p.device).collect();
    devices.sort_unstable();
    devices.dedup();
    let openers = openers.clamp(1, devices.len().max(1));
    let failed = AtomicUsize::new(usize::MAX);
    let open = |opener: usize| {
        let mut opened = Vec::new();
        for (pos, p) in partitions.iter().enumerate() {
            if devices.binary_search(&p.device).unwrap_or(0) % openers != opener {
                continue;
            } else if pos > failed.load(Ordering::Relaxed) {
                break;
            }
            let reader = FileReader::open(p.blob.clone())
                .map_err(|e| PreprocessError::from(e).with_location(pos, p.device));
            if reader.is_err() {
                failed.fetch_min(pos, Ordering::Relaxed);
            }
            opened.push((pos, reader));
        }
        opened
    };
    let mut opened = std::thread::scope(|s| {
        let spawned: Vec<_> = (1..openers).map(|opener| s.spawn(move || open(opener))).collect();
        let mut opened = open(0);
        for handle in spawned {
            opened.extend(handle.join().unwrap_or_else(|panic| resume_unwind(panic)));
        }
        opened
    });
    // Every partition before the lowest failure was opened, so the walk in
    // partition order meets that failure first.
    opened.sort_unstable_by_key(|&(pos, _)| pos);
    let readers: Vec<_> = opened.into_iter().map(|(_, reader)| reader).collect::<Result<_, _>>()?;
    let units = readers.iter().enumerate().flat_map(|(partition, reader)| {
        let groups = reader.meta().row_groups.iter().enumerate().filter(|(_, rg)| rg.rows > 0);
        groups.map(move |(group, rg)| GroupRef { partition, group, rows: rg.rows })
    });
    Ok((units.collect(), readers))
}

/// The epoch's permutation: a seeded Fisher–Yates shuffle of
/// `0..unit_count`, keyed by SplitMix64 on `(seed, epoch)`. Deterministic
/// in its arguments alone.
#[must_use]
pub fn epoch_order(unit_count: usize, seed: u64, epoch: u64) -> Vec<usize> {
    let mut order: Vec<usize> = (0..unit_count).collect();
    // Fold the epoch into the stream state so each epoch of one seed draws
    // a fresh permutation; SplitMix64's avalanche decorrelates neighboring
    // (seed, epoch) pairs from the first draw.
    let mut state = seed ^ epoch.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    for i in (1..unit_count).rev() {
        let j = (splitmix64(&mut state) % (i as u64 + 1)) as usize;
        order.swap(i, j);
    }
    order
}

/// A serializable mid-epoch checkpoint: everything needed to continue a
/// shuffled epoch bit-identically on a fresh process.
///
/// `encode` / `decode` use a stable, dependency-free string form
/// (`pstoshuf1:<seed>:<epoch>:<next>:<units>`) so cursors can live in
/// checkpoint metadata, environment variables or logs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EpochCursor {
    /// Shuffle seed of the run.
    pub seed: u64,
    /// Epoch the cursor is inside.
    pub epoch: u64,
    /// Next permutation position to deliver (units before it are done).
    pub next: u64,
    /// Total units in the epoch — validated at resume so a cursor cannot
    /// silently replay against a differently grouped dataset.
    pub units: u64,
}

impl EpochCursor {
    /// Serializes the cursor (`pstoshuf1:<seed>:<epoch>:<next>:<units>`).
    #[must_use]
    pub fn encode(&self) -> String {
        format!("pstoshuf1:{}:{}:{}:{}", self.seed, self.epoch, self.next, self.units)
    }

    /// Parses a cursor serialized by [`EpochCursor::encode`].
    ///
    /// # Errors
    ///
    /// Returns a descriptive error for unknown prefixes, wrong field
    /// counts, or non-numeric fields.
    pub fn decode(s: &str) -> Result<Self, PreprocessError> {
        let bad = |detail: String| PreprocessError::Extract(ColumnarError::CorruptFile { detail });
        let rest = s
            .strip_prefix("pstoshuf1:")
            .ok_or_else(|| bad(format!("epoch cursor {s:?} lacks the pstoshuf1 prefix")))?;
        let fields: Vec<&str> = rest.split(':').collect();
        if fields.len() != 4 {
            return Err(bad(format!("epoch cursor has {} fields, expected 4", fields.len())));
        }
        let parse = |name: &str, v: &str| {
            v.parse::<u64>()
                .map_err(|_| bad(format!("epoch cursor field {name} is not a number: {v:?}")))
        };
        Ok(EpochCursor {
            seed: parse("seed", fields[0])?,
            epoch: parse("epoch", fields[1])?,
            next: parse("next", fields[2])?,
            units: parse("units", fields[3])?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::PreprocessPlan;
    use crate::stream::{BatchStream, Fleet, FleetConfig};
    use presto_columnar::{Device, DeviceModel, FaultPlan, FileMeta};
    use presto_datagen::{Dataset, RmConfig};
    use std::sync::Arc;
    use std::time::Duration;

    fn tiny(rows: usize) -> RmConfig {
        let mut c = RmConfig::rm1();
        c.batch_size = rows;
        c
    }

    fn grouped_dataset(partitions: usize, rows: usize, group_rows: usize) -> (RmConfig, Dataset) {
        let c = tiny(rows);
        let ds = Dataset::generate_grouped(&c, partitions, rows, 2, 7, group_rows).unwrap();
        (c, ds)
    }

    /// The partitions of `ds` behind one fresh device per device id.
    fn behind_devices(ds: &Dataset, model: DeviceModel) -> (Vec<Partition>, Vec<Arc<Device>>) {
        let devices = ds.partitions().iter().map(|p| p.device).max().map_or(0, |d| d + 1);
        let devices: Vec<_> = (0..devices).map(|_| Arc::new(Device::new(model))).collect();
        let partitions = ds
            .partitions()
            .iter()
            .map(|p| Partition {
                blob: p.blob.clone().behind_device(Arc::clone(&devices[p.device])),
                ..p.clone()
            })
            .collect();
        (partitions, devices)
    }

    /// The walk the openers must reproduce: one `FileReader::open` after
    /// another, stopping at the first failure.
    fn serial_walk(partitions: &[Partition]) -> Result<Vec<FileMeta>, PreprocessError> {
        let open = |(pos, p): (usize, &Partition)| {
            FileReader::open(p.blob.clone())
                .map(|r| r.meta().clone())
                .map_err(|e| PreprocessError::from(e).with_location(pos, p.device))
        };
        partitions.iter().enumerate().map(open).collect()
    }

    fn serial_units(footers: &[FileMeta]) -> Vec<GroupRef> {
        let mut units = Vec::new();
        for (partition, meta) in footers.iter().enumerate() {
            for (group, rg) in meta.row_groups.iter().enumerate().filter(|(_, rg)| rg.rows > 0) {
                units.push(GroupRef { partition, group, rows: rg.rows });
            }
        }
        units
    }

    #[test]
    fn openers_return_the_serial_walks_units_readers_and_device_reads() {
        let model = DeviceModel::new(Duration::ZERO, 2);
        for devices in [1, 2, 3] {
            let (c, _) = grouped_dataset(1, 8, 8);
            let ds = Dataset::generate_grouped(&c, 7, 24, devices, 7, 8).unwrap();
            let (serial_parts, serial_devices) = behind_devices(&ds, model);
            let footers = serial_walk(&serial_parts).unwrap();
            let serial_reads: Vec<u64> = serial_devices.iter().map(|d| d.stats().reads).collect();
            // Workers below, at and above the device count.
            for workers in [1, 2, 4] {
                let (parts, devs) = behind_devices(&ds, model);
                let (units, readers) = epoch_readers(&parts, workers).unwrap();
                let what = format!("{devices} devices, {workers} workers");
                assert_eq!(units, serial_units(&footers), "{what}");
                let metas: Vec<FileMeta> = readers.iter().map(|r| r.meta().clone()).collect();
                assert_eq!(metas, footers, "{what}");
                let reads: Vec<u64> = devs.iter().map(|d| d.stats().reads).collect();
                assert_eq!(reads, serial_reads, "{what}");
            }
        }
    }

    #[test]
    fn openers_fail_at_the_serial_walks_partition_and_device() {
        let (c, _) = grouped_dataset(1, 8, 8);
        let ds = Dataset::generate_grouped(&c, 6, 16, 3, 7, 8).unwrap();
        // Device 1 dead on arrival (partition 1 fails); device 2 dead after
        // its first open's three reads (partition 5 fails, while the other
        // devices open every partition before it).
        for (death, partition) in [((1, 0), 1), ((2, 3), 5)] {
            let armed = || {
                let injector = FaultPlan::new(5).with_device_death(death.0, death.1).arm();
                let blob = |p: &Partition| p.blob.clone().with_faults(&injector, p.device, p.index);
                ds.partitions().iter().map(|p| Partition { blob: blob(p), ..p.clone() }).collect()
            };
            let serial: Vec<Partition> = armed();
            let want = serial_walk(&serial).unwrap_err();
            assert_eq!((want.partition(), want.device()), (Some(partition), Some(death.0)));
            for workers in [1, 2, 3] {
                let parts: Vec<Partition> = armed();
                let got = epoch_readers(&parts, workers).map(|_| ()).unwrap_err();
                let what = format!("death {death:?}, {workers} workers");
                assert_eq!(
                    (got.partition(), got.device()),
                    (want.partition(), want.device()),
                    "{what}"
                );
                assert_eq!(got.to_string(), want.to_string(), "{what}");
            }
        }
    }

    #[test]
    fn openers_overlap_the_devices_round_trips() {
        // 4 partitions on 2 devices; an open is two round trips. Walked
        // serially, each device idles while the other opens, so its last
        // open ends 6 latencies after its first began; one opener per
        // device ends it after 4.
        let latency = Duration::from_millis(20);
        let model = DeviceModel::new(latency, 2);
        let (c, _) = grouped_dataset(1, 8, 8);
        let ds = Dataset::generate_grouped(&c, 4, 16, 2, 7, 8).unwrap();
        let (serial, serial_devices) = behind_devices(&ds, model);
        epoch_readers(&serial, 1).unwrap();
        let (parts, devices) = behind_devices(&ds, model);
        epoch_readers(&parts, 2).unwrap();
        for (d, (serial, device)) in serial_devices.iter().zip(&devices).enumerate() {
            let (serial, overlapped) = (serial.stats().makespan, device.stats().makespan);
            assert!(serial >= latency * 6, "device {d}: serial makespan {serial:?}");
            assert!(overlapped < latency * 5, "device {d}: makespan {overlapped:?}");
        }
    }

    #[test]
    fn epoch_order_is_deterministic_and_seed_sensitive() {
        let a = epoch_order(100, 42, 0);
        let b = epoch_order(100, 42, 0);
        assert_eq!(a, b);
        assert_ne!(a, epoch_order(100, 43, 0), "different seed, different order");
        assert_ne!(a, epoch_order(100, 42, 1), "different epoch, different order");
        // It is a permutation.
        let mut sorted = a.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..100).collect::<Vec<_>>());
        // Degenerate sizes.
        assert_eq!(epoch_order(0, 1, 0), Vec::<usize>::new());
        assert_eq!(epoch_order(1, 1, 0), vec![0]);
    }

    #[test]
    fn cursor_roundtrips_and_rejects_garbage() {
        let c = EpochCursor { seed: 991_217, epoch: 3, next: 17, units: 40 };
        assert_eq!(EpochCursor::decode(&c.encode()).unwrap(), c);
        for bad in ["", "pstoshuf1:1:2:3", "pstoshuf1:1:2:3:x", "other:1:2:3:4"] {
            assert!(EpochCursor::decode(bad).is_err(), "{bad:?}");
        }
    }

    #[test]
    fn shuffled_epoch_is_identical_across_worker_counts() {
        let (c, ds) = grouped_dataset(3, 48, 16);
        let plan = PreprocessPlan::from_config(&c, 1).unwrap();
        let spec = ShuffleSpec::new(42);
        let reference: Vec<(usize, usize)> = Fleet::Shuffled(spec)
            .stream(&plan, ds.partitions(), &FleetConfig::new(1, 2))
            .map(|i| {
                let b = i.unwrap();
                (b.partition, b.group)
            })
            .collect();
        assert_eq!(reference.len(), 9, "3 partitions x 3 groups");
        for workers in [4usize, 8] {
            let got: Vec<(usize, usize)> = Fleet::Shuffled(spec)
                .stream(&plan, ds.partitions(), &FleetConfig::new(workers, 2))
                .map(|i| {
                    let b = i.unwrap();
                    (b.partition, b.group)
                })
                .collect();
            assert_eq!(got, reference, "workers={workers}");
        }
    }

    #[test]
    fn resume_from_cursor_continues_bit_identically() {
        let (c, ds) = grouped_dataset(4, 40, 8);
        let plan = PreprocessPlan::from_config(&c, 1).unwrap();
        let spec = ShuffleSpec::new(7).with_epoch(2);
        let full: Vec<_> = Fleet::Shuffled(spec)
            .stream(&plan, ds.partitions(), &FleetConfig::new(3, 2))
            .map(|i| i.unwrap())
            .collect();
        assert_eq!(full.len(), 20);
        // Interrupt after 7 batches, snapshot the cursor, resume.
        let mut first =
            Fleet::Shuffled(spec).stream(&plan, ds.partitions(), &FleetConfig::new(3, 2));
        let head: Vec<_> = first.by_ref().take(7).map(|i| i.unwrap()).collect();
        let cursor = first.cursor().expect("shuffled stream");
        drop(first);
        assert_eq!(cursor.next, 7);
        let tail: Vec<_> =
            BatchStream::resume(&plan, ds.partitions(), cursor, &FleetConfig::new(2, 3))
                .unwrap()
                .map(|i| i.unwrap())
                .collect();
        assert_eq!(head.len() + tail.len(), full.len());
        for (got, want) in head.iter().chain(tail.iter()).zip(&full) {
            assert_eq!((got.partition, got.group), (want.partition, want.group));
            assert_eq!(got.batch, want.batch);
        }
    }

    #[test]
    fn resume_rejects_mismatched_unit_count() {
        let (c, ds) = grouped_dataset(2, 32, 8);
        let plan = PreprocessPlan::from_config(&c, 1).unwrap();
        let cursor = EpochCursor { seed: 1, epoch: 0, next: 0, units: 999 };
        assert!(
            BatchStream::resume(&plan, ds.partitions(), cursor, &FleetConfig::new(1, 1)).is_err()
        );
    }

    #[test]
    fn shuffled_output_matches_sequential_after_group_sort() {
        // Per-group preprocessing is row-wise, so sorting the shuffled
        // epoch by (partition, group) and concatenating must equal the
        // sequential whole-partition pipeline.
        let (c, ds) = grouped_dataset(3, 40, 16); // groups of 16,16,8
        let plan = PreprocessPlan::from_config(&c, 1).unwrap();
        let mut shuffled: Vec<_> = Fleet::Shuffled(ShuffleSpec::new(991_217))
            .stream(&plan, ds.partitions(), &FleetConfig::new(4, 2))
            .map(|i| i.unwrap())
            .collect();
        shuffled.sort_by_key(|b| (b.partition, b.group));
        for (pos, p) in ds.partitions().iter().enumerate() {
            let (serial, _) = crate::executor::preprocess_partition(&plan, p.blob.clone()).unwrap();
            let groups: Vec<_> = shuffled.iter().filter(|b| b.partition == pos).collect();
            assert_eq!(groups.len(), 3);
            let total: usize = groups.iter().map(|b| b.batch.rows()).sum();
            assert_eq!(total, serial.rows());
            // Row-window equality against the serial mini-batch.
            let mut start = 0usize;
            for g in groups {
                assert_eq!(g.batch, serial.slice_rows(start, g.batch.rows()).unwrap());
                start += g.batch.rows();
            }
        }
    }

    #[test]
    fn fail_fast_surfaces_error_and_stops_early() {
        let (c, ds) = grouped_dataset(2, 32, 8);
        let plan = PreprocessPlan::from_config(&c, 1).unwrap();
        let mut partitions = ds.partitions().to_vec();
        // Corrupt partition 1's page data only: the footer at the tail
        // stays intact, so epoch enumeration succeeds and the fault
        // surfaces mid-stream where the retry/fail-fast machinery runs.
        let mut bytes = partitions[1].blob.as_bytes().to_vec();
        let end = bytes.len() * 6 / 10;
        for b in &mut bytes[16..end] {
            *b ^= 0xff;
        }
        partitions[1].blob = presto_columnar::MemBlob::new(bytes);
        let items: Vec<_> = Fleet::Shuffled(ShuffleSpec::new(3))
            .stream(&plan, &partitions, &FleetConfig::new(2, 2))
            .collect();
        let errs: Vec<_> = items.iter().filter_map(|i| i.as_ref().err()).collect();
        assert!(!errs.is_empty(), "corruption must surface");
        for e in &errs {
            assert_eq!(e.partition(), Some(1), "{e}");
        }
        // Fail-fast: units past the failure are abandoned, so strictly
        // fewer than the epoch's 8 units arrive as Ok.
        let oks = items.iter().filter(|i| i.is_ok()).count();
        assert!(oks < 8, "stream must stop early, got {oks} ok batches");
    }

    #[test]
    fn recover_policy_streams_past_group_failures() {
        let (c, ds) = grouped_dataset(2, 32, 8);
        let plan = PreprocessPlan::from_config(&c, 1).unwrap();
        let mut partitions = ds.partitions().to_vec();
        let mut bytes = partitions[1].blob.as_bytes().to_vec();
        let end = bytes.len() * 6 / 10;
        for b in &mut bytes[16..end] {
            *b ^= 0xff;
        }
        partitions[1].blob = presto_columnar::MemBlob::new(bytes);
        // No quarantine so partition 0's groups are never collateral.
        let policy =
            crate::recovery::RetryPolicy::recover().with_quarantine_after(0).with_failover(false);
        let stream = Fleet::Shuffled(ShuffleSpec::new(3)).stream(
            &plan,
            &partitions,
            &FleetConfig::new(2, 2).with_recovery(policy),
        );
        let items: Vec<_> = stream.collect();
        assert_eq!(items.len(), 8, "every unit ends as exactly one Ok or Err");
        let oks: Vec<_> = items.iter().filter_map(|i| i.as_ref().ok()).collect();
        let errs: Vec<_> = items.iter().filter_map(|i| i.as_ref().err()).collect();
        assert!(!errs.is_empty());
        assert!(errs.iter().all(|e| e.partition() == Some(1)));
        // All 4 of partition 0's groups still arrive.
        assert_eq!(oks.iter().filter(|b| b.partition == 0).count(), 4);
    }
}
