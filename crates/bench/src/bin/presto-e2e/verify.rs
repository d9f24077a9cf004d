//! The correctness gate: a plain serial reference per unit, a fingerprint
//! of every `MiniBatch`, and the per-epoch delivery ledger.
//!
//! One *unit* is what an executor delivers as one batch: a whole partition
//! on the partition fleets, one row group on the shuffled fleet. One unit
//! is one operation of `attempted` / `failed`.

use presto_columnar::FileReader;
use presto_datagen::Partition;
use presto_ops::{
    preprocess_group_with, preprocess_partition, MiniBatch, PreprocessError, PreprocessPlan,
    ScratchSpace, StreamedBatch,
};

/// Order-sensitive 64-bit fingerprint of everything a trainer would read
/// from a mini-batch: labels, dense bits, and each sparse feature's name,
/// offsets and ids. Lengths are mixed in so that moving a value across a
/// component boundary changes the result.
pub fn fingerprint(mb: &MiniBatch) -> u64 {
    fn mix(h: u64, w: u64) -> u64 {
        (h.rotate_left(5) ^ w).wrapping_mul(0x517c_c1b7_2722_0a95)
    }
    let mut h = mix(0x9e37_79b9_7f4a_7c15, mb.rows() as u64);
    h = mb.labels().iter().fold(h, |h, &v| mix(h, v as u64));
    h = mix(h, mb.dense().cols() as u64);
    h = mb.dense().data().iter().fold(h, |h, &v| mix(h, u64::from(v.to_bits())));
    for feature in mb.sparse() {
        h = feature.name.bytes().fold(mix(h, feature.name.len() as u64), |h, b| mix(h, b.into()));
        h = feature
            .offsets
            .iter()
            .fold(mix(h, feature.offsets.len() as u64), |h, &o| mix(h, o.into()));
        h = feature
            .values
            .iter()
            .fold(mix(h, feature.values.len() as u64), |h, &v| mix(h, v as u64));
    }
    h
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct UnitRef {
    pub partition: usize,
    pub group: usize,
    pub rows: usize,
    pub fingerprint: u64,
}

/// What every unit of one tenant's dataset must preprocess to, computed
/// without any executor: plain serial calls on pristine in-memory blobs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Reference {
    units: Vec<UnitRef>,
    /// Index into `units` of each partition's group 0.
    first_unit: Vec<usize>,
}

impl Reference {
    /// `by_group` selects the shuffled fleet's unit: each row group through
    /// `preprocess_group_with`; otherwise each partition through
    /// `preprocess_partition`. Units are in `(partition, group)` order —
    /// the order `presto_ops::epoch_units` enumerates them in.
    pub fn build(
        plan: &PreprocessPlan,
        partitions: &[Partition],
        by_group: bool,
    ) -> Result<Self, PreprocessError> {
        let mut units = Vec::new();
        let mut first_unit = Vec::with_capacity(partitions.len());
        let mut scratch = ScratchSpace::new();
        for (partition, p) in partitions.iter().enumerate() {
            first_unit.push(units.len());
            if by_group {
                let reader = FileReader::open(p.blob.clone())?;
                for group in 0..reader.row_group_count() {
                    let (mb, _) = preprocess_group_with(plan, &reader, group, &mut scratch)?;
                    units.push(UnitRef {
                        partition,
                        group,
                        rows: mb.rows(),
                        fingerprint: fingerprint(&mb),
                    });
                }
            } else {
                let (mb, _) = preprocess_partition(plan, p.blob.clone())?;
                units.push(UnitRef {
                    partition,
                    group: 0,
                    rows: mb.rows(),
                    fingerprint: fingerprint(&mb),
                });
            }
        }
        Ok(Reference { units, first_unit })
    }

    pub fn units(&self) -> &[UnitRef] {
        &self.units
    }

    pub fn rows(&self) -> usize {
        self.units.iter().map(|u| u.rows).sum()
    }

    fn index_of(&self, partition: usize, group: usize) -> Option<usize> {
        let idx = self.first_unit.get(partition)? + group;
        self.units.get(idx).filter(|u| u.partition == partition && u.group == group).map(|_| idx)
    }

    /// Flips one unit's fingerprint (the self-test of the gate).
    #[cfg(test)]
    pub fn corrupt(&mut self, unit: usize) {
        self.units[unit].fingerprint ^= 1;
    }
}

/// Delivery ledger of one tenant's epoch. Every unit must arrive exactly
/// once with the reference's row count — and, when `order` is given, in
/// exactly that order; with `full` checking its fingerprint must match too.
#[derive(Debug)]
pub struct EpochCheck<'a> {
    reference: &'a Reference,
    order: Option<Vec<usize>>,
    seen: Vec<bool>,
    delivered: usize,
    bad: u64,
    errors: u64,
    rows: u64,
}

/// `attempted` units of which `failed` were missing, duplicated, wrong or
/// out of order; `rows` counts rows of units that passed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EpochOutcome {
    pub attempted: u64,
    pub failed: u64,
    pub errors: u64,
    pub rows: u64,
}

impl EpochOutcome {
    pub fn absorb(&mut self, other: EpochOutcome) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.errors += other.errors;
        self.rows += other.rows;
    }
}

impl<'a> EpochCheck<'a> {
    pub fn new(reference: &'a Reference, order: Option<Vec<usize>>) -> Self {
        EpochCheck {
            reference,
            order,
            seen: vec![false; reference.units.len()],
            delivered: 0,
            bad: 0,
            errors: 0,
            rows: 0,
        }
    }

    /// Checks one stream item; returns the unit it was accepted as.
    pub fn observe(
        &mut self,
        item: &Result<StreamedBatch, PreprocessError>,
        full: bool,
    ) -> Option<usize> {
        let streamed = match item {
            Ok(streamed) => streamed,
            Err(_) => {
                // The unit it stood for stays unseen and is counted missing.
                self.errors += 1;
                return None;
            }
        };
        let position = self.delivered;
        self.delivered += 1;
        let Some(idx) = self.reference.index_of(streamed.partition, streamed.group) else {
            self.bad += 1;
            return None;
        };
        let unit = &self.reference.units[idx];
        let in_order = self.order.as_ref().is_none_or(|o| o.get(position) == Some(&idx));
        let ok = !self.seen[idx]
            && in_order
            && streamed.batch.rows() == unit.rows
            && (!full || fingerprint(&streamed.batch) == unit.fingerprint);
        // A duplicate is one bad delivery; the first copy keeps its verdict.
        if self.seen[idx] || !ok {
            self.bad += 1;
        }
        if !self.seen[idx] {
            self.seen[idx] = true;
            if ok {
                self.rows += unit.rows as u64;
            }
        }
        ok.then_some(idx)
    }

    pub fn finish(self) -> EpochOutcome {
        let missing = self.seen.iter().filter(|&&s| !s).count() as u64;
        EpochOutcome {
            attempted: self.reference.units.len() as u64,
            failed: missing + self.bad,
            errors: self.errors,
            rows: self.rows,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use presto_datagen::{Dataset, RmConfig};
    use presto_ops::{BatchStream, FleetConfig};

    fn tiny() -> (PreprocessPlan, Dataset) {
        let mut c = RmConfig::rm1();
        c.batch_size = 32;
        let plan = PreprocessPlan::from_config(&c, 3).unwrap();
        (plan, Dataset::generate_grouped(&c, 3, 32, 1, 3, 8).unwrap())
    }

    fn drain(plan: &PreprocessPlan, ds: &Dataset, check: &mut EpochCheck<'_>, full: bool) {
        for item in BatchStream::spawn(plan, ds.partitions(), &FleetConfig::new(2, 2)) {
            check.observe(&item, full);
        }
    }

    #[test]
    fn fingerprint_sees_every_component() {
        let (plan, ds) = tiny();
        let (a, _) = preprocess_partition(&plan, ds.partitions()[0].blob.clone()).unwrap();
        let (b, _) = preprocess_partition(&plan, ds.partitions()[1].blob.clone()).unwrap();
        assert_eq!(fingerprint(&a), fingerprint(&a.clone()));
        assert_ne!(fingerprint(&a), fingerprint(&b));
        // A row window differs from the whole, and from its neighbour.
        let head = a.slice_rows(0, 16).unwrap();
        let tail = a.slice_rows(16, 16).unwrap();
        assert_ne!(fingerprint(&head), fingerprint(&a));
        assert_ne!(fingerprint(&head), fingerprint(&tail));
    }

    #[test]
    fn reference_enumerates_groups_in_epoch_units_order() {
        let (plan, ds) = tiny();
        let by_group = Reference::build(&plan, ds.partitions(), true).unwrap();
        let units = presto_ops::epoch_units(ds.partitions()).unwrap();
        assert_eq!(by_group.units().len(), units.len());
        for (u, g) in by_group.units().iter().zip(&units) {
            assert_eq!((u.partition, u.group, u.rows as u64), (g.partition, g.group, g.rows));
        }
        assert_eq!(by_group.rows(), 96);
        assert_eq!(Reference::build(&plan, ds.partitions(), false).unwrap().units().len(), 3);
    }

    #[test]
    fn clean_epoch_passes_and_a_corrupted_reference_fails_the_gate() {
        let (plan, ds) = tiny();
        let mut reference = Reference::build(&plan, ds.partitions(), false).unwrap();
        let mut check = EpochCheck::new(&reference, None);
        drain(&plan, &ds, &mut check, true);
        assert_eq!(check.finish(), EpochOutcome { attempted: 3, failed: 0, errors: 0, rows: 96 });

        reference.corrupt(1);
        let mut check = EpochCheck::new(&reference, None);
        drain(&plan, &ds, &mut check, true);
        let outcome = check.finish();
        assert_eq!((outcome.failed, outcome.rows), (1, 64));
        // Identity-only checking (timed epochs) does not look at content.
        let mut check = EpochCheck::new(&reference, None);
        drain(&plan, &ds, &mut check, false);
        assert_eq!(check.finish().failed, 0);
    }

    #[test]
    fn missing_duplicate_and_out_of_order_units_count_as_failed() {
        let (plan, ds) = tiny();
        let reference = Reference::build(&plan, ds.partitions(), false).unwrap();
        let items: Vec<_> = BatchStream::spawn(&plan, ds.partitions(), &FleetConfig::new(1, 4))
            .into_ordered()
            .collect();

        let mut check = EpochCheck::new(&reference, None);
        check.observe(&items[0], true);
        check.observe(&items[0], true);
        assert_eq!(check.finish().failed, 3, "one duplicate, two missing");

        let mut check = EpochCheck::new(&reference, Some(vec![0, 2, 1]));
        for item in &items {
            check.observe(item, true);
        }
        assert_eq!(check.finish().failed, 2, "units 1 and 2 swapped");

        let mut check = EpochCheck::new(&reference, None);
        let err = Err(PreprocessError::BadColumn { column: "x".into() });
        check.observe(&err, true);
        let outcome = check.finish();
        assert_eq!((outcome.failed, outcome.errors), (3, 1));
    }
}
