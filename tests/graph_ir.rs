//! Plan-IR integration properties.
//!
//! 1. The compiled canonical graph is **bit-identical to the legacy fixed
//!    pipeline** — reimplemented here from the raw kernels with the frozen
//!    seed recipe — for RM1/RM2/RM3 and arbitrary shapes, across every
//!    integer encoding the columnar format supports.
//! 2. Non-canonical scenario graphs (FirstX truncation, NGram crosses,
//!    MapId remaps, Clamp/FillMissing dense cleanup) run end to end through
//!    the CPU streaming executor and the ISP fleet with identical output.
//! 3. Degenerate graph construction — cycles, type mismatches, duplicate
//!    or dangling outputs, arbitrary garbage — errors without panicking,
//!    and whatever compiles also executes without panicking.
//! 4. Split execution is bit-identical to host-only and ISP-only execution
//!    for arbitrary compiled graphs under *arbitrary* (not just
//!    cost-optimal) stage-to-fleet assignments and any chunk size, across
//!    every forced encoding — and so is the host fleet's feature-sliced
//!    worker pair, across every forced encoding and 1, 2 and 4 pairs.

use presto::columnar::{FileReader, ReadScratch};
use presto::datagen::RowBatch;
use presto::datagen::{generate_batch, generated_source_column, Dataset, RmConfig};
use presto::ops::{
    extract_columns_for_plan, lognorm, preprocess_batch_with, preprocess_partition,
    preprocess_split_host, preprocess_split_isp, BatchStream, BoundaryBatch, Bucketizer, ChainSpec,
    DenseMatrix, Fleet, FleetConfig, IdMap, JaggedFeature, MiniBatch, Op, Place, PlanGraph,
    PreprocessError, PreprocessPlan, ScratchSpace, SigridHasher, SplitPlan, StageTimings,
};
use proptest::prelude::*;

/// The borrowed in-memory path on a fresh scratch.
fn preprocess_batch(
    plan: &PreprocessPlan,
    batch: &RowBatch,
) -> Result<(MiniBatch, StageTimings), PreprocessError> {
    preprocess_batch_with(plan, batch, &mut ScratchSpace::new())
}

/// A split run over one stored partition, serially: both sides' projections
/// from one open, the ISP side at `chunk`, the host side seeded with its
/// boundary.
fn run_split(
    plan: &PreprocessPlan,
    split: &SplitPlan,
    blob: presto::columnar::MemBlob,
    chunk: usize,
) -> Result<MiniBatch, PreprocessError> {
    let reader = FileReader::open(blob)?;
    let mut read = ReadScratch::default();
    let boundary = if split.isp_stages().is_empty() {
        BoundaryBatch::default()
    } else {
        let batch = extract_columns_for_plan(plan, &reader, split.isp_columns(), &mut read)?;
        preprocess_split_isp(plan, split, batch, chunk)?.0
    };
    let batch = extract_columns_for_plan(plan, &reader, split.host_columns(), &mut read)?;
    Ok(preprocess_split_host(plan, split, batch, boundary)?.0)
}

/// The historical fixed three-stage pipeline, straight from the kernels:
/// the reference the compiled canonical graph must reproduce bit for bit.
/// Seed recipe and feature order are frozen (the v2 format-compat
/// fingerprint also pins them).
fn legacy_fixed_pipeline(config: &RmConfig, seed: u64, batch_seed: u64, rows: usize) -> MiniBatch {
    let batch = generate_batch(config, rows, batch_seed);
    let labels = batch.column("label").unwrap().as_int64().unwrap().to_vec();

    let mut generated: Vec<Vec<i64>> = Vec::new();
    for i in 0..config.num_generated {
        let source =
            batch.column(&generated_source_column(config, i)).and_then(|a| a.as_float32()).unwrap();
        let bucketizer = Bucketizer::log_spaced(config.bucket_size, 1.0e6).unwrap();
        generated.push(bucketizer.apply(source));
    }
    let mut hashed: Vec<(Vec<u32>, Vec<i64>)> = Vec::new();
    for i in 0..config.num_sparse {
        let (offsets, values) =
            batch.column(&format!("sparse_{i}")).and_then(|a| a.as_list_int64()).unwrap();
        let hasher =
            SigridHasher::new(seed ^ (0x5157_u64 << 32) ^ i as u64, config.avg_embeddings as u64)
                .unwrap();
        hashed.push((offsets.to_vec(), hasher.apply(values)));
    }
    let mut dense_norm: Vec<Vec<f32>> = Vec::new();
    for i in 0..config.num_dense {
        let col = batch.column(&format!("dense_{i}")).and_then(|a| a.as_float32()).unwrap();
        dense_norm.push(lognorm::log_normalize(col));
    }

    let dense = DenseMatrix::from_columns(&dense_norm, rows).unwrap();
    let mut sparse = Vec::new();
    for (i, (offsets, values)) in hashed.into_iter().enumerate() {
        sparse.push(JaggedFeature { name: format!("sparse_{i}"), offsets, values });
    }
    for (i, values) in generated.into_iter().enumerate() {
        let offsets: Vec<u32> = (0..=rows as u32).collect();
        sparse.push(JaggedFeature { name: format!("gen_{i}"), offsets, values });
    }
    MiniBatch::new(labels, dense, sparse).unwrap()
}

/// Compiled canonical output for the same `(config, seed, batch)`, through
/// the borrowed-batch path and through stored partitions written with every
/// forced integer encoding.
fn assert_canonical_matches_legacy(config: &RmConfig, seed: u64, batch_seed: u64, rows: usize) {
    use presto::columnar::{Encoding, FileWriter, MemBlob, WritePolicy};
    let reference = legacy_fixed_pipeline(config, seed, batch_seed, rows);
    let plan = PreprocessPlan::from_config(config, seed).expect("canonical compiles");
    let batch = generate_batch(config, rows, batch_seed);
    let (compiled, _) = preprocess_batch(&plan, &batch).expect("compiled plan runs");
    assert_eq!(compiled, reference, "{}: borrowed path diverged", config.name);

    for enc in Encoding::ALL {
        let policy = WritePolicy::default().with_forced_encoding(enc);
        let mut writer = FileWriter::with_page_rows(batch.schema().clone(), 7).with_policy(policy);
        writer.write_row_group(batch.columns()).expect("writes");
        let (from_disk, _) = preprocess_partition(&plan, MemBlob::new(writer.finish()))
            .expect("partition preprocesses");
        assert_eq!(from_disk, reference, "{}: {enc} partition diverged", config.name);
    }
}

#[test]
fn compiled_canonical_is_bit_identical_to_legacy_for_rm1_rm2_rm3() {
    for mut config in [RmConfig::rm1(), RmConfig::rm2(), RmConfig::rm3()] {
        config.batch_size = 24;
        assert_canonical_matches_legacy(&config, 11, 101, 24);
    }
}

/// A random-but-valid small RecSys shape.
fn arb_shape() -> impl Strategy<Value = (RmConfig, usize, u64)> {
    (1usize..8, 0usize..6, 1usize..5, 2usize..64, 1usize..48, any::<u64>()).prop_map(
        |(dense, sparse, avg_len, bucket, rows, seed)| {
            let mut c = RmConfig::rm1();
            c.name = "prop".into();
            c.num_dense = dense;
            c.num_sparse = sparse;
            c.avg_sparse_len = avg_len;
            c.fixed_sparse_len = false;
            c.num_generated = dense.min(4);
            c.bucket_size = bucket;
            c.num_tables = c.num_sparse + c.num_generated;
            c.batch_size = rows.max(1);
            c.validate().expect("constructed config is valid");
            (c, rows, seed)
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn compiled_canonical_matches_legacy_for_arbitrary_shapes(
        (config, rows, seed) in arb_shape(),
    ) {
        assert_canonical_matches_legacy(&config, 3, seed, rows);
    }

    #[test]
    fn scenario_graphs_run_identically_on_cpu_and_isp_fleets(
        (config, rows, seed) in arb_shape(),
        x in 1usize..5,
        n in 1usize..4,
        map_size in 1usize..200,
    ) {
        let partitions = 1 + (seed % 3) as usize;
        let ds = Dataset::generate(&config, partitions, rows, 2, seed ^ 0x6A4)
            .expect("dataset generates");
        for graph in [
            PlanGraph::truncated_cross(&config, 5, x, n).expect("cross graph"),
            PlanGraph::remapped(&config, 5, map_size).expect("remap graph"),
            PlanGraph::cleaned(&config, 5).expect("cleaned graph"),
        ] {
            let plan = PreprocessPlan::compile(graph, &config).expect("compiles");
            let serial: Vec<MiniBatch> = ds
                .partitions()
                .iter()
                .map(|p| preprocess_partition(&plan, p.blob.clone()).expect("serial").0)
                .collect();
            let cpu: Vec<MiniBatch> = BatchStream::spawn(&plan, ds.partitions(), &FleetConfig::new(2, 2))
                .into_ordered()
                .map(|item| item.expect("cpu batch").batch)
                .collect();
            prop_assert_eq!(&cpu, &serial);
            let config = FleetConfig::new(2, 2);
            let mut isp: Vec<(usize, MiniBatch)> =
                Fleet::Isp.stream(&plan, ds.partitions(), &config)
                .map(|item| item.expect("isp batch"))
                .map(|b| (b.partition, b.batch))
                .collect();
            isp.sort_by_key(|(p, _)| *p);
            for (pos, batch) in isp {
                prop_assert_eq!(&batch, &serial[pos]);
            }
        }
    }

    #[test]
    fn split_execution_matches_single_fleet_paths_for_arbitrary_assignments(
        (config, rows, seed) in arb_shape(),
        mask in any::<u64>(),
        chunk in 1usize..1024,
    ) {
        use presto::columnar::{Encoding, FileWriter, MemBlob, WritePolicy};
        use presto::datagen::Partition;
        let batch = generate_batch(&config, rows, seed ^ 0x51F);
        let blob = presto::datagen::write_partition(&batch).expect("serializes");
        for graph in [
            PlanGraph::canonical(&config, 5).expect("canonical graph"),
            PlanGraph::truncated_cross(&config, 5, 3, 2).expect("cross graph"),
            PlanGraph::cleaned(&config, 5).expect("cleaned graph"),
        ] {
            let plan = PreprocessPlan::compile(graph, &config).expect("compiles");
            let (host_only, _) = preprocess_partition(&plan, blob.clone()).expect("host path");
            let everything_isp = plan.split(&vec![Place::Isp; plan.stages().len()]).expect("splits");
            let isp_only = run_split(&plan, &everything_isp, blob.clone(), chunk).expect("isp path");
            prop_assert_eq!(&isp_only, &host_only);
            // An arbitrary — not cost-optimal — stage-to-fleet assignment,
            // one bit per stage.
            let assignment: Vec<Place> = (0..plan.stages().len())
                .map(|i| if (mask >> (i % 64)) & 1 == 1 { Place::Isp } else { Place::Host })
                .collect();
            let split = plan.split(&assignment).expect("splits");
            let via_split = run_split(&plan, &split, blob.clone(), chunk).expect("split path");
            prop_assert_eq!(&via_split, &host_only);
            // The feature split of the host fleet's worker pair: the same
            // plan dealt by feature to two concurrent threads, over every
            // forced encoding and pair count — and the ISP-only and split
            // paths again under each encoding.
            for enc in Encoding::ALL {
                let partitions: Vec<Partition> = (0..5)
                    .map(|index| {
                        let batch = generate_batch(&config, rows, seed ^ index as u64);
                        let policy = WritePolicy::default().with_forced_encoding(enc);
                        let mut writer = FileWriter::with_page_rows(batch.schema().clone(), 7)
                            .with_policy(policy);
                        writer.write_row_group(batch.columns()).expect("writes");
                        let blob = MemBlob::new(writer.finish());
                        Partition { index, device: index % 2, rows, blob }
                    })
                    .collect();
                let serial: Vec<MiniBatch> = partitions
                    .iter()
                    .map(|p| preprocess_partition(&plan, p.blob.clone()).expect("serial").0)
                    .collect();
                let first = partitions[0].blob.clone();
                let isp_only = run_split(&plan, &everything_isp, first.clone(), chunk).expect("isp");
                prop_assert!(isp_only == serial[0], "{enc}: isp path diverged");
                let via_split = run_split(&plan, &split, first, chunk).expect("split path");
                prop_assert!(via_split == serial[0], "{enc}: split path diverged");
                for workers in [1, 2, 4] {
                    let stream = BatchStream::spawn(&plan, &partitions, &FleetConfig::new(workers, 2));
                    prop_assert!(stream.prefetch(), "workers are pairs by default");
                    let paired: Vec<MiniBatch> = stream
                        .into_ordered()
                        .map(|item| item.expect("paired batch").batch)
                        .collect();
                    prop_assert!(paired == serial, "{enc} x {workers} pairs diverged");
                }
            }
        }
    }

    #[test]
    fn arbitrary_garbage_graphs_never_panic(
        spec in proptest::collection::vec(
            (0usize..10, 0usize..12, proptest::collection::vec(0usize..6, 0..4), any::<bool>()),
            0..8,
        ),
    ) {
        // Names drawn from a pool that collides with raw columns, other
        // chains, the label, and nothing at all; ops drawn from the full
        // vocabulary with small parameters. compile() must return a Result
        // (either way) without panicking, and anything that compiles must
        // also execute without panicking.
        let name_pool = [
            "a", "b", "c", "d", "label", "", "dense_0", "sparse_0", "nope", "gen_0",
        ];
        let op_of = |k: usize| match k {
            0 => Op::LogNorm,
            1 => Op::SigridHash(SigridHasher::new(1, 100).unwrap()),
            2 => Op::Bucketize(Bucketizer::new(vec![0.0, 1.0]).unwrap()),
            3 => Op::FirstX(2),
            4 => Op::NGram { n: 2, hasher: SigridHasher::new(2, 50).unwrap() },
            _ => Op::MapId(IdMap::shuffled(3, 16, 8)),
        };
        let chains: Vec<ChainSpec> = spec
            .iter()
            .map(|(out, input, ops, emit)| {
                let ops = ops.iter().map(|&k| op_of(k)).collect();
                if *emit {
                    ChainSpec::feature(name_pool[out % name_pool.len()], name_pool[input % name_pool.len()], ops)
                } else {
                    ChainSpec::intermediate(name_pool[out % name_pool.len()], name_pool[input % name_pool.len()], ops)
                }
            })
            .collect();
        let mut config = RmConfig::rm1();
        config.num_dense = 2;
        config.num_sparse = 2;
        config.num_generated = 1;
        config.num_tables = 3;
        config.avg_sparse_len = 2;
        config.fixed_sparse_len = false;
        config.batch_size = 8;
        if let Ok(plan) = PreprocessPlan::compile(PlanGraph::new(chains), &config) {
            let batch = generate_batch(&config, 8, 1);
            // Execution may legitimately succeed or fail (e.g. shapes), but
            // must never panic.
            let _ = preprocess_batch(&plan, &batch);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The prefix-pushdown acceptance property: a plan whose sparse readers
    /// are all FirstX-headed — so Extract decodes only each list's prefix
    /// and the leading FirstX becomes a passthrough — produces bit-identical
    /// mini-batches to full decode + the legacy FirstX kernel, across every
    /// forced encoding, lists shorter than `x`, empty lists, and row groups
    /// down to one row.
    #[test]
    fn prefix_pushdown_matches_full_decode_plus_legacy_firstx(
        (config, rows, seed) in arb_shape(),
        x in 1usize..6,
        n in 1usize..4,
        group_pick in 0usize..3,
    ) {
        use presto::columnar::{Encoding, FileReader, FileWriter, MemBlob, WritePolicy};
        use presto::ops::{extract_columns_from_reader, preprocess_group_with, ColumnRequirement};
        let group_rows = [1usize, 3, 16][group_pick]; // groups down to one row
        for graph in [
            PlanGraph::long_history(&config, 5, x).expect("long-history graph"),
            PlanGraph::truncated_cross(&config, 5, x, n).expect("cross graph"),
        ] {
            let plan = PreprocessPlan::compile(graph, &config).expect("compiles");
            if config.num_sparse > 0 {
                // Every sparse reader truncates, so the plan must push down.
                prop_assert_eq!(plan.requirement_for("sparse_0"), ColumnRequirement::Prefix(x));
            }
            // Per-row-group batches, so the group path has its own reference.
            let batches: Vec<_> = (0..rows.div_ceil(group_rows))
                .map(|g| generate_batch(&config, group_rows, seed ^ g as u64))
                .collect();
            for enc in Encoding::ALL {
                let policy = WritePolicy::default().with_forced_encoding(enc);
                let mut writer =
                    FileWriter::with_page_rows(batches[0].schema().clone(), 7).with_policy(policy);
                for b in &batches {
                    writer.write_row_group(b.columns()).expect("writes");
                }
                let blob = MemBlob::new(writer.finish());
                let reader = FileReader::open(blob).expect("opens");
                let mut scratch = ScratchSpace::new();
                for (g, raw) in batches.iter().enumerate() {
                    // Reference 1: the borrowed in-memory path — legacy
                    // FirstX kernel over the untruncated lists.
                    let (reference, _) =
                        preprocess_batch(&plan, raw).expect("legacy borrowed path");
                    // Reference 2: plan-free full decode of this group,
                    // stored alone, + the owned Transform (the host side of
                    // an everything-on-the-host split).
                    // extract_columns_from_reader never pushes down — it is
                    // the full-decode comparator.
                    let mut alone =
                        FileWriter::with_page_rows(raw.schema().clone(), 7).with_policy(policy);
                    alone.write_row_group(raw.columns()).expect("writes");
                    let alone = FileReader::open(MemBlob::new(alone.finish())).expect("opens");
                    let full = extract_columns_from_reader(
                        &alone,
                        plan.required_columns(),
                        scratch.read_scratch(),
                    )
                    .expect("full decode");
                    let host = plan.split(&vec![Place::Host; plan.stages().len()]).expect("splits");
                    let (via_full, _) =
                        preprocess_split_host(&plan, &host, full, BoundaryBatch::default())
                            .expect("owned path");
                    prop_assert!(via_full == reference, "{enc} group {g}: full-decode diverged");
                    // Pushdown: the shuffled row-group Extract with limits +
                    // passthrough FirstX.
                    let (pushed, _) = preprocess_group_with(&plan, &reader, g, &mut scratch)
                        .expect("pushdown path");
                    prop_assert!(pushed == reference, "{enc} group {g} diverged");
                }
            }
        }
    }
}

#[test]
fn degenerate_graphs_error_with_the_right_variants() {
    use presto::ops::GraphError;
    let c = RmConfig::rm1();
    let hash = || Op::SigridHash(SigridHasher::new(1, 100).unwrap());

    let cycle = PlanGraph::new(vec![
        ChainSpec::feature("a", "b", vec![hash()]),
        ChainSpec::feature("b", "a", vec![hash()]),
    ]);
    assert!(matches!(PreprocessPlan::compile(cycle, &c), Err(GraphError::Cycle { .. })));

    let mismatch = PlanGraph::new(vec![ChainSpec::feature("x", "sparse_0", vec![Op::LogNorm])]);
    assert!(matches!(PreprocessPlan::compile(mismatch, &c), Err(GraphError::TypeMismatch { .. })));

    let empty = PlanGraph::new(vec![]);
    assert!(matches!(PreprocessPlan::compile(empty, &c), Err(GraphError::EmptyGraph)));
}

#[test]
fn truncated_cross_features_are_shaped_and_bounded() {
    let mut c = RmConfig::rm1_lists();
    c.batch_size = 64;
    let x = 4;
    let plan =
        PreprocessPlan::compile(PlanGraph::truncated_cross(&c, 9, x, 2).unwrap(), &c).unwrap();
    let batch = generate_batch(&c, 64, 17);
    let (mb, _) = preprocess_batch(&plan, &batch).unwrap();
    // 26 truncated+hashed sparse + 26 crosses + 13 generated.
    assert_eq!(mb.sparse().len(), 26 + 26 + 13);
    let sparse0 = mb.sparse_by_name("sparse_0").unwrap();
    let cross0 = mb.sparse_by_name("cross_0").unwrap();
    for row in 0..64 {
        let len = sparse0.row(row).len();
        assert!(len <= x, "row {row}: FirstX({x}) left {len} ids");
        // NGram(2) over the same truncated list: max(len - 1, 0) windows.
        assert_eq!(cross0.row(row).len(), len.saturating_sub(1), "row {row}");
    }
    for &id in &cross0.values {
        assert!((0..c.avg_embeddings as i64).contains(&id), "cross id {id} out of table");
    }
}
