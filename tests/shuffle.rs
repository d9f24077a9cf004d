//! Shuffled-epoch determinism suite — the in-process body of CI's
//! `shuffle-determinism` matrix.
//!
//! CI runs this file once per seed in {1, 42, 991217} via
//! `PRESTO_SHUFFLE_SEED` (default 42). The pinned properties:
//!
//! * Same seed ⇒ the same permutation and bit-identical epoch output
//!   across worker counts {1, 4, 8}, and behind two emulated devices with
//!   claim windows (`FleetConfig::capacity`) of 1 and 3.
//! * Different seeds ⇒ different permutations.
//! * Resuming from a mid-epoch [`EpochCursor`] is bit-identical to the
//!   uninterrupted run.
//! * After sorting by `(partition, group)`, the shuffled epoch equals the
//!   sequential in-memory pipeline on RM1, RM3, the `cleaned` scenario
//!   graph and the long-history graph (whose lists are stored as head +
//!   tail pages and read by prefix), with files written by the cost model
//!   and with each encoding forced.
//! * Property test: for arbitrary shapes × group sizes (including groups
//!   of one row and groups larger than a partition), every row is
//!   delivered exactly once per epoch.

use presto::columnar::{Device, DeviceModel, Encoding, FileWriter, MemBlob, WritePolicy};
use presto::core::pipeline::{Trainer, TrainerConfig};
use presto::datagen::{generate_batch, Dataset, Partition, RmConfig};
use presto::ops::graph::PlanGraph;
use presto::ops::{
    epoch_order, epoch_units, preprocess_batch_with, preprocess_partition, BatchStream,
    EpochCursor, Fleet, FleetConfig, MiniBatch, PreprocessPlan, ScratchSpace, ShuffleSpec,
};
use proptest::prelude::*;
use std::sync::Arc;
use std::time::Duration;

/// The CI matrix seed; defaults to 42 for plain `cargo test`.
fn matrix_seed() -> u64 {
    std::env::var("PRESTO_SHUFFLE_SEED").ok().and_then(|s| s.parse().ok()).unwrap_or(42)
}

fn rm1(rows: usize) -> RmConfig {
    let mut c = RmConfig::rm1();
    c.batch_size = rows;
    c
}

/// Collects a full shuffled epoch as `((partition, group), batch)` pairs.
fn collect_epoch(
    plan: &PreprocessPlan,
    partitions: &[Partition],
    spec: ShuffleSpec,
    workers: usize,
) -> Vec<((usize, usize), MiniBatch)> {
    collect_epoch_with(plan, partitions, spec, &FleetConfig::new(workers, 3))
}

fn collect_epoch_with(
    plan: &PreprocessPlan,
    partitions: &[Partition],
    spec: ShuffleSpec,
    config: &FleetConfig,
) -> Vec<((usize, usize), MiniBatch)> {
    Fleet::Shuffled(spec)
        .stream(plan, partitions, config)
        .map(|item| {
            let b = item.expect("no faults injected");
            ((b.partition, b.group), b.batch)
        })
        .collect()
}

#[test]
fn same_seed_is_bit_identical_across_worker_counts() {
    let c = rm1(16);
    let plan = PreprocessPlan::from_config(&c, 1).expect("plan");
    let ds = Dataset::generate_grouped(&c, 3, 48, 2, 9, 16).expect("dataset");
    let spec = ShuffleSpec::new(matrix_seed());
    let reference = collect_epoch(&plan, ds.partitions(), spec, 1);
    assert_eq!(reference.len(), 9, "3 partitions x 3 groups");
    for workers in [4usize, 8] {
        let got = collect_epoch(&plan, ds.partitions(), spec, workers);
        assert_eq!(got, reference, "workers={workers} must not change the epoch");
    }
    // Behind two emulated devices, claims look for an idle one inside the
    // capacity-wide window; delivery order must not notice.
    let devices: Vec<Arc<Device>> = (0..2)
        .map(|_| Arc::new(Device::new(DeviceModel::new(Duration::from_micros(200), 2))))
        .collect();
    let behind: Vec<Partition> = ds
        .partitions()
        .iter()
        .map(|p| Partition {
            blob: p.blob.clone().behind_device(Arc::clone(&devices[p.device])),
            ..p.clone()
        })
        .collect();
    for (workers, capacity) in [(4usize, 1usize), (4, 3), (8, 3)] {
        let config = FleetConfig::new(workers, capacity);
        let got = collect_epoch_with(&plan, &behind, spec, &config);
        assert_eq!(got, reference, "workers={workers}, capacity={capacity} behind two devices");
    }
}

#[test]
fn different_seeds_draw_different_permutations() {
    let seed = matrix_seed();
    // Permutation-level check over a space where collisions are
    // negligible (48! orderings).
    for other in [seed ^ 1, seed.wrapping_add(1), 991_218] {
        if other == seed {
            continue;
        }
        assert_ne!(epoch_order(48, seed, 0), epoch_order(48, other, 0), "seed {other}");
    }
    // Epoch-level check through the real stream.
    let c = rm1(8);
    let plan = PreprocessPlan::from_config(&c, 1).expect("plan");
    let ds = Dataset::generate_grouped(&c, 4, 24, 2, 5, 8).expect("dataset");
    let a: Vec<_> = collect_epoch(&plan, ds.partitions(), ShuffleSpec::new(seed), 2)
        .into_iter()
        .map(|(k, _)| k)
        .collect();
    let b: Vec<_> =
        collect_epoch(&plan, ds.partitions(), ShuffleSpec::new(seed.wrapping_add(7)), 2)
            .into_iter()
            .map(|(k, _)| k)
            .collect();
    assert_ne!(a, b, "12 units give a 1/479M collision chance; a match is a bug");
    let mut a_sorted = a.clone();
    let mut b_sorted = b.clone();
    a_sorted.sort_unstable();
    b_sorted.sort_unstable();
    assert_eq!(a_sorted, b_sorted, "both epochs cover the same units");
}

#[test]
fn successive_epochs_reshuffle_without_new_seeds() {
    let seed = matrix_seed();
    let e0 = epoch_order(36, seed, 0);
    let e1 = epoch_order(36, seed, 1);
    assert_ne!(e0, e1);
    // And each is still deterministic.
    assert_eq!(e1, epoch_order(36, seed, 1));
}

#[test]
fn resume_from_cursor_equals_uninterrupted_run() {
    let c = rm1(8);
    let plan = PreprocessPlan::from_config(&c, 1).expect("plan");
    let ds = Dataset::generate_grouped(&c, 4, 32, 2, 3, 8).expect("dataset");
    let spec = ShuffleSpec::new(matrix_seed()).with_epoch(1);
    let full = collect_epoch(&plan, ds.partitions(), spec, 3);
    assert_eq!(full.len(), 16);
    for interrupt_at in [1usize, 5, 15] {
        let mut first =
            Fleet::Shuffled(spec).stream(&plan, ds.partitions(), &FleetConfig::new(3, 2));
        let head: Vec<_> = first
            .by_ref()
            .take(interrupt_at)
            .map(|i| {
                let b = i.expect("ok");
                ((b.partition, b.group), b.batch)
            })
            .collect();
        let cursor = first.cursor().expect("shuffled stream");
        drop(first);
        // Round-trip the cursor through its serialized form, as a real
        // checkpoint would.
        let cursor = EpochCursor::decode(&cursor.encode()).expect("cursor round-trips");
        assert_eq!(cursor.next, interrupt_at as u64);
        let tail: Vec<_> =
            BatchStream::resume(&plan, ds.partitions(), cursor, &FleetConfig::new(2, 4))
                .expect("resumes")
                .map(|i| {
                    let b = i.expect("ok");
                    ((b.partition, b.group), b.batch)
                })
                .collect();
        let stitched: Vec<_> = head.into_iter().chain(tail).collect();
        assert_eq!(stitched, full, "interrupt_at={interrupt_at}");
    }
}

/// The scenario plans: RM1, RM3, RM1 through the `cleaned` graph, and the
/// long-history graph, whose `FirstX(8)` heads make every history column a
/// prefix read of head + tail chunks.
fn scenarios() -> Vec<(&'static str, RmConfig, PreprocessPlan)> {
    let rm1 = rm1(16);
    let mut rm3 = RmConfig::rm3();
    rm3.batch_size = 16;
    let mut longseq = RmConfig::rm_longseq();
    longseq.batch_size = 16;
    let cleaned_graph = PlanGraph::cleaned(&rm1, 3).expect("cleaned graph");
    let history_graph = PlanGraph::long_history(&longseq, 3, 8).expect("long-history graph");
    vec![
        ("rm1", rm1.clone(), PreprocessPlan::from_config(&rm1, 1).expect("rm1 plan")),
        ("rm3", rm3.clone(), PreprocessPlan::from_config(&rm3, 1).expect("rm3 plan")),
        (
            "cleaned",
            rm1.clone(),
            PreprocessPlan::compile(cleaned_graph, &rm1).expect("cleaned plan"),
        ),
        (
            "long-history",
            longseq.clone(),
            PreprocessPlan::compile(history_graph, &longseq).expect("long-history plan"),
        ),
    ]
}

#[test]
fn shuffled_epoch_matches_sequential_on_all_scenarios() {
    for (name, config, plan) in scenarios() {
        let batches: Vec<_> = (0..3u64).map(|p| generate_batch(&config, 40, 11 ^ p)).collect();
        let serial: Vec<MiniBatch> = batches
            .iter()
            .map(|b| preprocess_batch_with(&plan, b, &mut ScratchSpace::new()).expect("serial").0)
            .collect();
        for forced in [None].into_iter().chain(Encoding::ALL.map(Some)) {
            let policy = WritePolicy { forced_encoding: forced, ..WritePolicy::default() };
            let partitions: Vec<Partition> = batches
                .iter()
                .enumerate()
                .map(|(index, batch)| {
                    let mut writer = FileWriter::new(batch.schema().clone())
                        .with_policy(policy)
                        .with_group_rows(16);
                    writer.write_batch(batch.columns()).expect("writes");
                    let blob = MemBlob::new(writer.finish());
                    Partition { index, device: index % 2, rows: 40, blob }
                })
                .collect();
            let what = format!("{name}, {forced:?}");
            let mut epoch = collect_epoch(&plan, &partitions, ShuffleSpec::new(matrix_seed()), 4);
            epoch.sort_by_key(|(key, _)| *key);
            assert_eq!(epoch.len(), 9, "{what}: 3 partitions x groups [16,16,8]");
            for (pos, serial) in serial.iter().enumerate() {
                let mut start = 0usize;
                for ((partition, group), batch) in epoch.iter().filter(|((pp, _), _)| *pp == pos) {
                    let rows = batch.rows();
                    assert_eq!(
                        batch,
                        &serial.slice_rows(start, rows).expect("window"),
                        "{what}: partition {partition} group {group}"
                    );
                    start += rows;
                }
                assert_eq!(start, serial.rows(), "{what}: partition {pos} fully covered");
            }
        }
    }
}

#[test]
fn trainer_consumes_a_shuffled_fleet_unchanged() {
    let c = rm1(16);
    let plan = PreprocessPlan::from_config(&c, 1).expect("plan");
    let ds = Dataset::generate_grouped(&c, 2, 32, 2, 13, 16).expect("dataset");
    let fleet = Fleet::Shuffled(ShuffleSpec::new(matrix_seed()));
    let source = fleet.spawn(&plan, ds.partitions(), &FleetConfig::new(2, 3));
    let report = Trainer::new(TrainerConfig::instant()).run(source).expect("trains");
    assert_eq!(report.batches, 4, "2 partitions x 2 groups");
    assert_eq!(report.rows, 64);
    assert!(report.stream.recovery.is_some(), "shuffled fleet reports recovery activity");
}

#[test]
fn ungrouped_files_degrade_to_partition_shuffle() {
    // Single-group (v3-style) files still stream: the shuffle space is
    // just partition-granular.
    let c = rm1(16);
    let plan = PreprocessPlan::from_config(&c, 1).expect("plan");
    let ds = Dataset::generate(&c, 5, 16, 2, 3).expect("dataset");
    let units = epoch_units(ds.partitions()).expect("units");
    assert_eq!(units.len(), 5, "one unit per partition");
    assert!(units.iter().all(|u| u.group == 0));
    let epoch = collect_epoch(&plan, ds.partitions(), ShuffleSpec::new(matrix_seed()), 2);
    assert_eq!(epoch.len(), 5);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Exactly-once delivery for arbitrary shapes × group sizes, including
    /// groups of one row and groups larger than the partition, with the
    /// sorted epoch bit-identical to the sequential pipeline.
    #[test]
    fn every_row_arrives_exactly_once_per_epoch(
        partitions in 1usize..4,
        rows in 1usize..48,
        group_rows in prop_oneof![
            1usize..2,           // degenerate: per-row groups
            2usize..16,          // typical mini-batch-aligned groups
            64usize..96,         // larger than any partition: one group
        ],
        seed in 0u64..1000,
    ) {
        let c = rm1(rows.clamp(1, 16));
        let ds = Dataset::generate_grouped(&c, partitions, rows, 2, seed ^ 0xa5, group_rows)
            .expect("dataset");
        let plan = PreprocessPlan::from_config(&c, 1).expect("plan");
        let mut epoch = collect_epoch(&plan, ds.partitions(), ShuffleSpec::new(seed), 4);
        // Every unit exactly once.
        let mut keys: Vec<_> = epoch.iter().map(|(k, _)| *k).collect();
        let unique: std::collections::HashSet<_> = keys.iter().copied().collect();
        prop_assert_eq!(unique.len(), keys.len());
        keys.sort_unstable();
        let expected_groups_per_partition = rows.div_ceil(group_rows);
        prop_assert_eq!(keys.len(), partitions * expected_groups_per_partition);
        // Every row exactly once, in sequential order once sorted.
        epoch.sort_by_key(|(k, _)| *k);
        for pos in 0..partitions {
            let (serial, _) =
                preprocess_partition(&plan, ds.partitions()[pos].blob.clone()).expect("serial");
            let mut start = 0usize;
            for (_, batch) in epoch.iter().filter(|((pp, _), _)| *pp == pos) {
                let window = serial.slice_rows(start, batch.rows()).expect("window");
                prop_assert_eq!(batch, &window);
                start += batch.rows();
            }
            prop_assert_eq!(start, rows);
        }
    }
}
