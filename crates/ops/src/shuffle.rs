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
//! [`BatchStream::spawn_shuffled`](crate::BatchStream::spawn_shuffled))
//! streams it.
//!
//! * [`epoch_units`] enumerates every row group of every partition into a
//!   flat list of [`GroupRef`] units — the shuffle's sample space.
//! * [`epoch_order`] derives the epoch's permutation of those units from
//!   `(seed, epoch)` with a SplitMix64-keyed Fisher–Yates shuffle. Same
//!   inputs ⇒ same permutation, on every worker count, forever; the epoch
//!   number folds in so successive epochs reshuffle without new seeds.
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
//! recommendation pipelines make. `examples/shuffle_epochs` sweeps the
//! trade-off.

use crate::executor::PreprocessError;
use presto_columnar::{ColumnarError, FileReader};
use presto_datagen::Partition;

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
/// partition, in `(partition, group)` order. Only footers are parsed —
/// `MemBlob` clones share their bytes, so this is metadata-cost only.
///
/// # Errors
///
/// Propagates open/footer failures (tagged with the partition and device).
pub fn epoch_units(partitions: &[Partition]) -> Result<Vec<GroupRef>, PreprocessError> {
    let mut units = Vec::new();
    for (pos, p) in partitions.iter().enumerate() {
        let reader = FileReader::open(p.blob.clone())
            .map_err(|e| PreprocessError::from(e).with_location(pos, p.device))?;
        for (group, rg) in reader.meta().row_groups.iter().enumerate() {
            if rg.rows > 0 {
                units.push(GroupRef { partition: pos, group, rows: rg.rows });
            }
        }
    }
    Ok(units)
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
    /// True when the epoch is fully delivered.
    #[must_use]
    pub fn is_done(&self) -> bool {
        self.next >= self.units
    }

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
    use crate::stream::{BatchStream, FleetConfig};
    use presto_datagen::{Dataset, RmConfig};

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
        assert!(!c.is_done());
        assert!(EpochCursor { next: 40, ..c }.is_done());
        for bad in ["", "pstoshuf1:1:2:3", "pstoshuf1:1:2:3:x", "other:1:2:3:4"] {
            assert!(EpochCursor::decode(bad).is_err(), "{bad:?}");
        }
    }

    #[test]
    fn shuffled_epoch_is_identical_across_worker_counts() {
        let (c, ds) = grouped_dataset(3, 48, 16);
        let plan = PreprocessPlan::from_config(&c, 1).unwrap();
        let spec = ShuffleSpec::new(42);
        let reference: Vec<(usize, usize)> =
            BatchStream::spawn_shuffled(&plan, ds.partitions(), spec, &FleetConfig::new(1, 2))
                .map(|i| {
                    let b = i.unwrap();
                    (b.partition, b.group)
                })
                .collect();
        assert_eq!(reference.len(), 9, "3 partitions x 3 groups");
        for workers in [4usize, 8] {
            let got: Vec<(usize, usize)> = BatchStream::spawn_shuffled(
                &plan,
                ds.partitions(),
                spec,
                &FleetConfig::new(workers, 2),
            )
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
        let full: Vec<_> =
            BatchStream::spawn_shuffled(&plan, ds.partitions(), spec, &FleetConfig::new(3, 2))
                .map(|i| i.unwrap())
                .collect();
        assert_eq!(full.len(), 20);
        // Interrupt after 7 batches, snapshot the cursor, resume.
        let mut first =
            BatchStream::spawn_shuffled(&plan, ds.partitions(), spec, &FleetConfig::new(3, 2));
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
        let mut shuffled: Vec<_> = BatchStream::spawn_shuffled(
            &plan,
            ds.partitions(),
            ShuffleSpec::new(991_217),
            &FleetConfig::new(4, 2),
        )
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
        let items: Vec<_> = BatchStream::spawn_shuffled(
            &plan,
            &partitions,
            ShuffleSpec::new(3),
            &FleetConfig::new(2, 2),
        )
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
        let stream = BatchStream::spawn_shuffled(
            &plan,
            &partitions,
            ShuffleSpec::new(3),
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
