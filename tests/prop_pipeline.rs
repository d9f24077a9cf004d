//! Property tests pinning the zero-copy refactor: every execution path of
//! the preprocessing pipeline — borrowed batch, owned batch, stored
//! partition, and all of them again over a *reused* scratch — must produce
//! bit-identical mini-batches for arbitrary workload shapes.

use presto::datagen::{generate_batch, write_partition, Dataset, RmConfig};
use presto::ops::{
    preprocess_batch_with, preprocess_partition, preprocess_partition_with, preprocess_split_host,
    BatchStream, BoundaryBatch, FleetConfig, MiniBatch, Place, PreprocessPlan, ScratchSpace,
};
use proptest::prelude::*;

/// A random-but-valid small RecSys shape (kept small: each case writes and
/// re-reads a columnar partition).
fn arb_shape() -> impl Strategy<Value = (RmConfig, usize, u64)> {
    (
        1usize..8,  // dense features
        0usize..6,  // sparse features
        1usize..5,  // avg sparse length
        2usize..64, // bucket size
        1usize..48, // rows
        any::<u64>(),
    )
        .prop_map(|(dense, sparse, avg_len, bucket, rows, seed)| {
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
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn all_execution_paths_agree((config, rows, seed) in arb_shape()) {
        let plan = PreprocessPlan::from_config(&config, 3).expect("plan builds");
        let batch = generate_batch(&config, rows, seed);
        let blob = write_partition(&batch).expect("serializes");

        let (reference, _) =
            preprocess_batch_with(&plan, &batch, &mut ScratchSpace::new())
                .expect("borrowed path");

        let (from_disk, _) =
            preprocess_partition(&plan, blob.clone()).expect("partition path");
        prop_assert_eq!(&from_disk, &reference);

        // The owned Transform over the in-memory batch: the host side of an
        // everything-on-the-host split.
        let host = plan.split(&vec![Place::Host; plan.stages().len()]).expect("splits");
        let (owned, _) = preprocess_split_host(&plan, &host, batch, BoundaryBatch::default())
            .expect("owned path");
        prop_assert_eq!(&owned, &reference);

        // Re-processing the same partition must be repeatable (the in-place
        // transforms must never leak back into shared storage).
        let (again, _) = preprocess_partition(&plan, blob).expect("repeat partition");
        prop_assert_eq!(&again, &reference);
    }

    #[test]
    fn streaming_paths_are_bit_identical_to_serial(
        (config, rows, seed) in arb_shape(),
        workers in 1usize..5,
        capacity in 1usize..4,
        devices in 1usize..4,
    ) {
        // The whole executor matrix over one multi-partition dataset:
        // serial and streaming (ordered, on worker pairs) must produce the
        // same bytes.
        let partitions = 1 + (seed % 5) as usize;
        let ds = Dataset::generate(&config, partitions, rows, devices, seed ^ 0x51ED)
            .expect("dataset generates");
        let plan = PreprocessPlan::from_config(&config, 3).expect("plan builds");
        let serial: Vec<MiniBatch> = ds
            .partitions()
            .iter()
            .map(|p| preprocess_partition(&plan, p.blob.clone()).expect("serial path").0)
            .collect();

        let fleet_config = FleetConfig::new(workers, capacity);
        let streamed: Vec<MiniBatch> = BatchStream::spawn(&plan, ds.partitions(), &fleet_config)
            .into_ordered()
            .map(|item| item.expect("streamed batch").batch)
            .collect();
        prop_assert_eq!(&streamed, &serial);
    }

    #[test]
    fn every_encoding_preprocesses_bit_identically(
        (config, rows, seed) in arb_shape(),
        page_rows in 1usize..32,
    ) {
        // The encoding matrix through the whole pipeline: a partition
        // written with each forced codec (and with small pages, so the
        // batched multi-page decoder runs) must preprocess to the same
        // mini-batch as the default-policy file.
        use presto::columnar::{Encoding, FileWriter, MemBlob, WritePolicy};
        let plan = PreprocessPlan::from_config(&config, 3).expect("plan builds");
        let batch = generate_batch(&config, rows, seed);
        let blob = write_partition(&batch).expect("serializes");
        let (reference, _) = preprocess_partition(&plan, blob).expect("default policy");
        for enc in Encoding::ALL {
            let policy = WritePolicy::default().with_forced_encoding(enc);
            let mut writer = FileWriter::with_page_rows(batch.schema().clone(), page_rows)
                .with_policy(policy);
            writer.write_row_group(batch.columns()).expect("writes");
            let (mb, _) = preprocess_partition(&plan, MemBlob::new(writer.finish()))
                .expect("forced-encoding partition");
            prop_assert!(mb == reference, "preprocessing differs under {enc}");
        }
    }

    #[test]
    fn scratch_reuse_across_shapes_is_sound(
        (config_a, rows_a, seed_a) in arb_shape(),
        (config_b, rows_b, seed_b) in arb_shape(),
    ) {
        // One worker's scratch sees partitions of *different* shapes in
        // sequence; outputs must match fresh-scratch runs every time.
        let mut scratch = ScratchSpace::new();
        for (config, rows, seed) in [
            (&config_a, rows_a, seed_a),
            (&config_b, rows_b, seed_b),
            (&config_a, rows_a, seed_a ^ 1),
        ] {
            let plan = PreprocessPlan::from_config(config, 5).expect("plan builds");
            let batch = generate_batch(config, rows, seed);
            let blob = write_partition(&batch).expect("serializes");
            let (fresh, _) =
                preprocess_partition(&plan, blob.clone()).expect("fresh scratch");
            let (reused, _) = preprocess_partition_with(&plan, blob, &mut scratch)
                .expect("reused scratch");
            prop_assert_eq!(reused, fresh);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Weighted-fair service invariant: every admitted job terminates with
    /// `delivered + failed == partitions`, and no job starves behind a
    /// larger neighbor (dispatch gaps stay bounded, so small jobs make
    /// progress while big ones run).
    #[test]
    fn every_admitted_job_terminates_with_full_accounting(
        pool_workers in 1usize..4,
        job_sizes in proptest::collection::vec(1usize..6, 2..5),
        weights in proptest::collection::vec(1u32..5, 2..5),
        seed in any::<u64>(),
    ) {
        use presto::core::{JobSpec, JobStatus, PreprocessService, ServiceConfig};
        use std::time::Duration;

        let mut c = RmConfig::rm1();
        c.batch_size = 8;
        let plan = PreprocessPlan::from_config(&c, 3).expect("plan builds");
        let jobs: Vec<Dataset> = job_sizes
            .iter()
            .enumerate()
            .map(|(i, &parts)| {
                Dataset::generate(&c, parts, 8, 1, seed ^ i as u64).expect("dataset")
            })
            .collect();

        let service = PreprocessService::new(
            ServiceConfig::new(pool_workers)
                .with_max_active_jobs(jobs.len())
                .with_job_capacity(2),
        );
        let handles: Vec<_> = jobs
            .iter()
            .enumerate()
            .map(|(i, ds)| {
                let weight = f64::from(weights[i % weights.len()]);
                service
                    .submit(
                        JobSpec::new(format!("job-{i}"), plan.clone(), ds.partitions().to_vec())
                            .with_weight(weight),
                    )
                    .expect("pool admits every job within max_active_jobs")
            })
            .collect();

        let drained: Vec<usize> = std::thread::scope(|scope| {
            let joins: Vec<_> = handles
                .into_iter()
                .map(|h| {
                    scope.spawn(move || {
                        h.inspect(|i| assert!(i.is_ok(), "fault-free job")).count()
                    })
                })
                .collect();
            joins.into_iter().map(|j| j.join().unwrap()).collect()
        });
        let report = service.shutdown();

        prop_assert_eq!(report.jobs.len(), jobs.len());
        for (i, job) in report.jobs.iter().enumerate() {
            prop_assert_eq!(job.status, JobStatus::Completed);
            prop_assert_eq!(drained[i], job_sizes[i]);
            prop_assert_eq!(
                job.recovery.delivered as usize + job.recovery.failed_partitions.len(),
                job.recovery.partitions
            );
            prop_assert!(
                job.max_dispatch_gap < Duration::from_secs(30),
                "job-{} must not starve behind its neighbors", i
            );
        }
        prop_assert!(report.fairness > 0.0 && report.fairness <= 1.0 + 1e-9);
    }
}
