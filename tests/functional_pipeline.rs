//! Cross-crate functional tests: real data through the real pipeline,
//! checked against the analytic workload profiles the simulator prices.

use presto::columnar::{CountingBlob, FileReader};
use presto::datagen::{generate_batch, write_partition, Dataset, RmConfig, WorkloadProfile};
use presto::ops::{preprocess_partition, BatchStream, FleetConfig, MiniBatch, PreprocessPlan};

fn small(config: &mut RmConfig, batch: usize) -> RmConfig {
    config.batch_size = batch;
    config.clone()
}

#[test]
fn every_model_shape_preprocesses_cleanly() {
    for mut config in RmConfig::all() {
        let config = small(&mut config, 64);
        let plan = PreprocessPlan::from_config(&config, 11).expect("plan builds");
        let batch = generate_batch(&config, 64, 5);
        let blob = write_partition(&batch).expect("serializes");
        let (mb, _) = preprocess_partition(&plan, blob).expect("preprocesses");
        assert_eq!(mb.rows(), 64, "{}", config.name);
        assert_eq!(mb.dense().cols(), config.num_dense, "{}", config.name);
        assert_eq!(mb.sparse().len(), config.num_sparse + config.num_generated, "{}", config.name);
    }
}

#[test]
fn measured_bytes_track_analytic_profile() {
    // The simulator prices Extract from WorkloadProfile::raw_bytes; the
    // real columnar encoding must stay within 2x of that estimate, or the
    // hwsim layer is modeling a different format than we actually built.
    for mut config in RmConfig::all() {
        let name = config.name.clone();
        let config = small(&mut config, 512);
        let analytic = WorkloadProfile::from_config(&config);
        let measured = WorkloadProfile::measured(&config, 512, 3);
        let ratio = measured.raw_bytes as f64 / analytic.raw_bytes as f64;
        assert!((0.5..=2.0).contains(&ratio), "{name}: measured/analytic raw bytes {ratio:.2}");
    }
}

#[test]
fn minibatch_size_tracks_tensor_bytes_estimate() {
    let mut config = RmConfig::rm1();
    let config = small(&mut config, 1024);
    let plan = PreprocessPlan::from_config(&config, 1).expect("plan");
    let batch = generate_batch(&config, 1024, 9);
    let (mb, _) =
        presto::ops::preprocess_batch_with(&plan, &batch, &mut presto::ops::ScratchSpace::new())
            .expect("preprocesses");
    let profile = WorkloadProfile::of_batch(&config, &batch, 0);
    // Host mini-batch stores i64 ids (vs int32 on the wire): allow 2.2x.
    let ratio = mb.byte_size() as f64 / profile.tensor_bytes as f64;
    assert!((0.8..=2.2).contains(&ratio), "minibatch/tensor_bytes {ratio:.2}");
}

#[test]
fn dataset_round_robin_feeds_parallel_workers() {
    let mut config = RmConfig::rm1();
    let config = small(&mut config, 48);
    let ds = Dataset::generate(&config, 8, 48, 4, 77).expect("dataset");
    let plan = PreprocessPlan::from_config(&config, 1).expect("plan");
    let batches: Vec<MiniBatch> =
        BatchStream::spawn(&plan, ds.partitions(), &FleetConfig::new(4, 8))
            .into_ordered()
            .map(|item| item.expect("workers run").batch)
            .collect();
    assert_eq!(batches.len(), 8);
    // Every partition produced a distinct mini-batch (different data).
    for window in batches.windows(2) {
        assert_ne!(window[0], window[1]);
    }
}

#[test]
fn extract_reads_only_plan_columns() {
    // The plan needs label + dense + sparse (all columns here), so add an
    // unused extra column scenario by projecting a subset manually.
    let mut config = RmConfig::rm1();
    let config = small(&mut config, 256);
    let batch = generate_batch(&config, 256, 13);
    let blob = write_partition(&batch).expect("serializes");
    let file_len = blob.as_bytes().len() as u64;

    let counting = CountingBlob::new(blob);
    let reader = FileReader::open(counting).expect("opens");
    let metadata = reader.into_inner();
    let meta_bytes = metadata.bytes_read();
    metadata.reset();
    let reader = FileReader::open(metadata).expect("reopens");
    reader.read_projected(0, &["label", "dense_0"]).expect("projects");
    let blob = reader.into_inner();
    let data_bytes = blob.bytes_read() - meta_bytes;
    assert!(data_bytes < file_len / 5, "projected read touched {data_bytes} of {file_len} bytes");
}

#[test]
fn hashed_ids_fit_paper_embedding_tables() {
    // Every normalized id must index an embedding table of the configured
    // size — the exact contract SigridHash exists to enforce (Sec. II-C).
    let mut config = RmConfig::rm2();
    let config = small(&mut config, 128);
    let plan = PreprocessPlan::from_config(&config, 3).expect("plan");
    let batch = generate_batch(&config, 128, 21);
    let (mb, _) =
        presto::ops::preprocess_batch_with(&plan, &batch, &mut presto::ops::ScratchSpace::new())
            .expect("preprocesses");
    for feat in mb.sparse() {
        let bound = if feat.name.starts_with("gen_") {
            config.bucket_size as i64 + 1
        } else {
            config.avg_embeddings as i64
        };
        assert!(feat.values.iter().all(|v| (0..bound).contains(v)), "{}", feat.name);
    }
}
