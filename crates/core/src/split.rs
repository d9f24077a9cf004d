//! The split-fleet suite: a [`PlacementPlan`](crate::placement::PlacementPlan)
//! materialized by [`PreprocessPlan::split`](presto_ops::PreprocessPlan::split)
//! and streamed as [`Fleet::Split`](crate::Fleet::Split) — ISP stage prefix
//! and host suffix pipelined over the bounded device link by the engine of
//! [`presto_ops::stream`], which documents the phases, the byte accounting
//! (`p2p_bytes` for the drive-side extraction the host never performs,
//! `boundary_bytes` for exactly the intermediates that crossed the link)
//! and the failover semantics these tests pin.

#[cfg(test)]
mod tests {
    use presto_datagen::{Dataset, Partition, RmConfig};
    use presto_ops::plan::{Place, PreprocessPlan};
    use presto_ops::{
        preprocess_partition, BatchStream, FleetConfig, MiniBatch, Pipeline, RetryPolicy,
    };

    fn setup(parts: usize, rows: usize) -> (PreprocessPlan, Dataset, Vec<MiniBatch>) {
        let mut c = RmConfig::rm1();
        c.batch_size = rows;
        let plan = PreprocessPlan::from_config(&c, 11).expect("plan");
        let ds = Dataset::generate(&c, parts, rows, 2, 21).expect("dataset");
        let serial: Vec<MiniBatch> = ds
            .partitions()
            .iter()
            .map(|p| preprocess_partition(&plan, p.blob.clone()).unwrap().0)
            .collect();
        (plan, ds, serial)
    }

    fn alternating(n: usize) -> Vec<Place> {
        (0..n).map(|i| if i % 2 == 0 { Place::Isp } else { Place::Host }).collect()
    }

    #[test]
    fn split_stream_is_bit_identical_to_serial_path() {
        let (plan, ds, serial) = setup(6, 48);
        let split = plan.split(&alternating(plan.stages().len())).unwrap();
        assert!(!split.is_single_fleet());
        let mut stream = BatchStream::spawn_pipeline(
            &plan,
            ds.partitions(),
            Pipeline::Split(split.clone()),
            &FleetConfig::new(2, 2),
        );
        let mut got: Vec<(usize, MiniBatch)> = Vec::new();
        for item in stream.by_ref() {
            let b = item.expect("preprocesses");
            got.push((b.partition, b.batch));
        }
        assert_eq!(stream.completed(), 6);
        assert!(stream.p2p_bytes() > 0, "ISP side extracted over P2P");
        assert!(stream.boundary_bytes() > 0, "intermediates crossed the link");
        got.sort_by_key(|(p, _)| *p);
        assert_eq!(got.len(), 6);
        for (pos, batch) in got {
            assert_eq!(batch, serial[pos], "partition {pos}");
        }
    }

    #[test]
    fn host_only_split_moves_no_device_bytes() {
        let (plan, ds, serial) = setup(4, 32);
        let split = plan.split(&vec![Place::Host; plan.stages().len()]).unwrap();
        let mut stream = BatchStream::spawn_pipeline(
            &plan,
            ds.partitions(),
            Pipeline::Split(split.clone()),
            &FleetConfig::new(2, 2),
        );
        let mut got: Vec<(usize, MiniBatch)> = Vec::new();
        for item in stream.by_ref() {
            let b = item.expect("preprocesses");
            got.push((b.partition, b.batch));
        }
        assert_eq!(stream.p2p_bytes(), 0);
        assert_eq!(stream.boundary_bytes(), 0);
        got.sort_by_key(|(p, _)| *p);
        for (pos, batch) in got {
            assert_eq!(batch, serial[pos], "partition {pos}");
        }
    }

    #[test]
    fn all_isp_split_still_assembles_on_host() {
        let (plan, ds, serial) = setup(4, 32);
        let split = plan.split(&vec![Place::Isp; plan.stages().len()]).unwrap();
        let mut stream = BatchStream::spawn_pipeline(
            &plan,
            ds.partitions(),
            Pipeline::Split(split.clone()),
            &FleetConfig::new(2, 2),
        );
        let mut got: Vec<(usize, MiniBatch)> = Vec::new();
        for item in stream.by_ref() {
            let b = item.expect("preprocesses");
            got.push((b.partition, b.batch));
        }
        assert!(stream.boundary_bytes() > 0, "every emitted stage crossed");
        got.sort_by_key(|(p, _)| *p);
        for (pos, batch) in got {
            assert_eq!(batch, serial[pos], "partition {pos}");
        }
    }

    #[test]
    fn placement_driven_split_matches_serial_path() {
        use crate::placement::{place_stages, OpCostModel};
        use presto_hwsim::fpga::IspModel;
        let (plan, ds, serial) = setup(4, 48);
        let model = OpCostModel::analytic(&IspModel::smartssd());
        let placement = place_stages(&plan, 48, &model);
        let split = plan.split(&placement.fleet_assignment()).unwrap();
        let mut stream = BatchStream::spawn_pipeline(
            &plan,
            ds.partitions(),
            Pipeline::Split(split.clone()),
            &FleetConfig::new(2, 2),
        );
        let mut got: Vec<(usize, MiniBatch)> = Vec::new();
        for item in stream.by_ref() {
            let b = item.expect("preprocesses");
            got.push((b.partition, b.batch));
        }
        got.sort_by_key(|(p, _)| *p);
        for (pos, batch) in got {
            assert_eq!(batch, serial[pos], "partition {pos}");
        }
    }

    #[test]
    fn dead_isp_device_fails_over_to_full_host_plan() {
        let (plan, ds, serial) = setup(8, 32);
        let injector = presto_columnar::FaultPlan::new(3).with_device_death(1, 0).arm();
        let partitions: Vec<Partition> = ds
            .partitions()
            .iter()
            .map(|p| Partition {
                index: p.index,
                device: p.device,
                rows: p.rows,
                blob: p.blob.clone().with_faults(&injector, p.device, p.index),
            })
            .collect();
        let recovery = RetryPolicy::recover()
            .with_max_attempts(2)
            .with_backoff(std::time::Duration::ZERO, std::time::Duration::ZERO)
            .with_quarantine_after(2);
        let split = plan.split(&alternating(plan.stages().len())).unwrap();
        let mut stream = BatchStream::spawn_pipeline(
            &plan,
            &partitions,
            Pipeline::Split(split.clone()),
            &FleetConfig::new(2, 4).with_recovery(recovery),
        );
        let mut got: Vec<(usize, MiniBatch, bool)> = Vec::new();
        for item in stream.by_ref() {
            let b = item.expect("failover covers the dead device");
            got.push((b.partition, b.batch, b.via_failover));
        }
        let report = stream.run_report();
        got.sort_by_key(|(p, _, _)| *p);
        assert_eq!(got.len(), 8, "no partition lost");
        for (pos, batch, _) in &got {
            assert_eq!(batch, &serial[*pos], "partition {pos} must be bit-identical");
        }
        assert!(got.iter().any(|(_, _, via)| *via), "failover delivered");
        assert!(report.failovers > 0);
        assert!(report.quarantined.contains(&1));
        assert!(report.failed_partitions.is_empty());
        assert_eq!(report.delivered, 8);
    }
}
