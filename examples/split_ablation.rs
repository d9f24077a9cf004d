//! Split-placement ablation: host-only vs ISP-only vs hybrid split
//! execution of the same compiled plans, under emulated SSD read latency.
//!
//! For each RM scenario graph (canonical, truncated-cross, remapped,
//! cleaned) this example:
//!
//! 1. asks the placement cost model where each stage should run and
//!    materializes the answer with `PreprocessPlan::split`;
//! 2. streams every partition through three fleets — host-only CPU
//!    workers, ISP-only emulated in-storage units, and the hybrid split
//!    executor (ISP prefix pipelined against host suffix) — asserting the
//!    output of all three **bit-identical** to the serial reference;
//! 3. prints the planner's per-stage predicted costs (host, ISP, boundary
//!    transfer) next to the measured per-side transform time and the
//!    predicted vs measured boundary traffic.
//!
//! The emulated device latency (`MemBlob::with_read_latency`) is what makes
//! the comparison interesting: under it, extraction dominates, and the
//! split pipeline overlaps the drive-side prefix of partition *i + 1* with
//! the host-side suffix of partition *i*.
//!
//! A final long-history section prices `PlanGraph::long_history` (512-
//! element skewed lists behind `FirstX(8)` heads) with and without prefix
//! pushdown: the `Prefix(8)` requirement shrinks the priced element counts
//! ~64x, which flips the cost-model fleet choice for the long-sequence
//! stages — and the pushed-down plan still executes bit-identically to the
//! serial full-materialization reference.
//!
//! Run with: `cargo run --release --example split_ablation`
//! `PRESTO_ABLATION_ROWS` / `PRESTO_ABLATION_PARTITIONS` /
//! `PRESTO_ABLATION_LAT_US` shrink or reshape the run (CI uses tiny
//! values); `PRESTO_ABLATION_STRICT=1` additionally requires the split to
//! beat both single-fleet runs on at least one scenario.

use presto::columnar::{FileReader, ReadScratch};
use presto::core::placement::{place_stages, OpCostModel};
use presto::datagen::{Dataset, Partition, RmConfig};
use presto::hwsim::fpga::IspModel;
use presto::ops::{
    extract_columns_for_plan, preprocess_partition, preprocess_split_host, preprocess_split_isp,
    BatchStream, BoundaryBatch, ChainSpec, ColumnRequirement, Fleet, FleetConfig, MiniBatch, Op,
    PlanGraph, PreprocessPlan, SigridHasher, StageTimings,
};
use std::time::{Duration, Instant};

fn env_usize(key: &str, default: usize) -> usize {
    std::env::var(key).ok().and_then(|v| v.parse().ok()).unwrap_or(default)
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let rows = env_usize("PRESTO_ABLATION_ROWS", 2048);
    let partitions = env_usize("PRESTO_ABLATION_PARTITIONS", 8);
    let lat_us = env_usize("PRESTO_ABLATION_LAT_US", 1500);
    let strict = std::env::var("PRESTO_ABLATION_STRICT").is_ok_and(|v| v == "1");
    let mut config = RmConfig::rm1_lists();
    config.batch_size = rows;
    println!(
        "model {}: {partitions} x {rows} rows, emulated SSD read latency {lat_us} us",
        config.name
    );
    let dataset = Dataset::generate(&config, partitions, rows, 2, 2024)?;
    // The same partitions behind an emulated device: every positioned read
    // pays the SSD latency, so extraction cost is realistic rather than
    // DRAM-speed.
    let slow: Vec<Partition> = dataset
        .partitions()
        .iter()
        .map(|p| Partition {
            index: p.index,
            device: p.device,
            rows: p.rows,
            blob: p.blob.clone().with_read_latency(Duration::from_micros(lat_us as u64)),
        })
        .collect();

    let scenarios: Vec<(&str, PlanGraph)> = vec![
        ("canonical", PlanGraph::canonical(&config, 7)?),
        ("truncated-cross", PlanGraph::truncated_cross(&config, 7, 4, 2)?),
        ("remapped", PlanGraph::remapped(&config, 7, 4096)?),
        ("cleaned", PlanGraph::cleaned(&config, 7)?),
    ];
    let model = OpCostModel::analytic(&IspModel::smartssd());
    let total_rows = (partitions * rows) as f64;
    let mut split_won_any = false;

    // Untimed warm-up pass: fault in the blob pages, warm the allocator and
    // spawn-path, so the first timed scenario is not charged for cold-start.
    {
        let plan = PreprocessPlan::compile(PlanGraph::canonical(&config, 7)?, &config)?;
        let placement = place_stages(&plan, rows, &model);
        let split = plan.split(&placement.fleet_assignment())?;
        let warm = FleetConfig::new(2, 4);
        for item in Fleet::Split(split.clone()).stream(&plan, &slow, &warm) {
            item?;
        }
        for item in BatchStream::spawn(&plan, &slow, &FleetConfig::new(2, 4)) {
            item?;
        }
    }

    for (name, graph) in scenarios {
        let plan = PreprocessPlan::compile(graph, &config)?;
        let placement = place_stages(&plan, rows, &model);
        let split = plan.split(&placement.fleet_assignment())?;
        println!(
            "\n=== scenario {name}: {} stages, {} on ISP / {} on host, {} boundary crossings",
            plan.stages().len(),
            split.isp_stages().len(),
            split.host_stages().len(),
            split.boundary().len()
        );

        // Latency-free serial reference: the bit-identity anchor.
        let serial: Vec<MiniBatch> = dataset
            .partitions()
            .iter()
            .map(|p| preprocess_partition(&plan, p.blob.clone()).map(|(mb, _)| mb))
            .collect::<Result<_, _>>()?;

        // Host-only fleet.
        let t0 = Instant::now();
        let host: Vec<MiniBatch> = BatchStream::spawn(&plan, &slow, &FleetConfig::new(2, 4))
            .into_ordered()
            .map(|item| item.map(|b| b.batch))
            .collect::<Result<_, _>>()?;
        let host_time = t0.elapsed();
        assert_eq!(host, serial, "{name}: host-only stream must match serial");

        // ISP-only fleet.
        let t0 = Instant::now();
        let mut isp_stream = Fleet::Isp.stream(&plan, &slow, &FleetConfig::new(2, 4));
        let mut isp: Vec<(usize, MiniBatch)> = Vec::new();
        for item in isp_stream.by_ref() {
            let b = item?;
            isp.push((b.partition, b.batch));
        }
        let isp_time = t0.elapsed();
        drop(isp_stream);
        isp.sort_by_key(|(p, _)| *p);
        for (pos, batch) in &isp {
            assert_eq!(batch, &serial[*pos], "{name}: ISP-only partition {pos} must match");
        }

        // Hybrid split fleet: ISP prefix pipelined against host suffix.
        let t0 = Instant::now();
        let split_config = FleetConfig::new(2, 4);
        let mut split_stream = Fleet::Split(split.clone()).stream(&plan, &slow, &split_config);
        let mut hybrid: Vec<(usize, MiniBatch)> = Vec::new();
        for item in split_stream.by_ref() {
            let b = item?;
            hybrid.push((b.partition, b.batch));
        }
        let split_time = t0.elapsed();
        let measured_boundary = split_stream.stats().boundary_bytes;
        hybrid.sort_by_key(|(p, _)| *p);
        for (pos, batch) in &hybrid {
            assert_eq!(batch, &serial[*pos], "{name}: split partition {pos} must match");
        }

        let tput = |t: Duration| total_rows / t.as_secs_f64();
        println!(
            "  host-only  : {:>8.1} ms ({:>9.0} rows/s)",
            host_time.as_secs_f64() * 1e3,
            tput(host_time)
        );
        println!(
            "  ISP-only   : {:>8.1} ms ({:>9.0} rows/s)",
            isp_time.as_secs_f64() * 1e3,
            tput(isp_time)
        );
        let best_single = host_time.min(isp_time);
        let won = split_time <= best_single;
        split_won_any |= won;
        println!(
            "  split      : {:>8.1} ms ({:>9.0} rows/s), {:.2}x vs best single fleet{}",
            split_time.as_secs_f64() * 1e3,
            tput(split_time),
            best_single.as_secs_f64() / split_time.as_secs_f64(),
            if won { "  <- wins" } else { "" }
        );

        // Planner-predicted per-stage costs vs the measured split run.
        // The same split serially over partition 0: both projections from
        // one open, the ISP side chunked, the host side seeded.
        let mut read = ReadScratch::new();
        let reader = FileReader::open(dataset.partitions()[0].blob.clone())?;
        let (boundary, isp_timings) = if split.isp_stages().is_empty() {
            (BoundaryBatch::default(), StageTimings::default())
        } else {
            let batch = extract_columns_for_plan(&plan, &reader, split.isp_columns(), &mut read)?;
            let (boundary, timings, _) = preprocess_split_isp(&plan, &split, batch, 512)?;
            (boundary, timings)
        };
        let boundary_bytes = boundary.byte_len();
        let host_batch = extract_columns_for_plan(&plan, &reader, split.host_columns(), &mut read)?;
        let (check, host_timings) = preprocess_split_host(&plan, &split, host_batch, boundary)?;
        assert_eq!(check, serial[0], "{name}: serial split must match too");
        let output_bytes = plan.stage_output_bytes(rows);
        let predicted_boundary: u64 =
            split.boundary().iter().map(|slot| output_bytes[slot.stage]).sum();
        let predicted_isp: f64 = placement
            .stages
            .iter()
            .filter(|s| s.place == presto::core::Place::Isp)
            .map(|s| s.isp.map_or(0.0, |c| c.seconds()))
            .sum();
        let predicted_host: f64 = placement
            .stages
            .iter()
            .filter(|s| s.place == presto::core::Place::Host)
            .map(|s| s.host.seconds())
            .sum();
        println!(
            "  per partition, predicted vs measured: ISP transform {:.2} / {:.2} ms, \
             host transform {:.2} / {:.2} ms, boundary {:.1} / {:.1} KiB",
            predicted_isp * 1e3,
            isp_timings.ops.total().as_secs_f64() * 1e3,
            predicted_host * 1e3,
            host_timings.ops.total().as_secs_f64() * 1e3,
            predicted_boundary as f64 / 1024.0,
            boundary_bytes as f64 / 1024.0,
        );
        println!(
            "  streamed boundary traffic: {:.1} KiB over {} partitions",
            measured_boundary as f64 / 1024.0,
            partitions
        );
        let mut heaviest: Vec<_> = placement.stages.iter().collect();
        heaviest.sort_by_key(|s| std::cmp::Reverse(s.elements));
        for s in heaviest.iter().take(4) {
            println!(
                "    {:<12} {:<28} host {:>10}  isp {:<10}  transfer {:<10} -> {}",
                s.output,
                s.ops,
                s.host.to_string(),
                s.isp.map_or("n/a".into(), |c| c.to_string()),
                s.transfer.to_string(),
                s.place
            );
        }
        if placement.stages.len() > 4 {
            println!("    ... ({} more stages)", placement.stages.len() - 4);
        }
    }

    // ── Long-history scenario: prefix pushdown moves the placement ───────
    // `long_history` heads every sparse chain with FirstX(8), so the plan
    // derives `Prefix(8)` for each 512-element history column and the cost
    // model prices the truncated extract. The comparator adds one consumer
    // per column that hashes the *full* history — any full-list reader
    // forces `Full` decode — which restores the pre-pushdown pricing for
    // the very same FirstX-headed stages. The fleet choice flips.
    {
        let ls_rows = (rows / 4).max(64);
        let ls_parts = partitions.clamp(1, 4);
        let mut ls_config = RmConfig::rm_longseq();
        ls_config.batch_size = ls_rows;
        println!(
            "\n=== scenario long-history ({}): {ls_parts} x {ls_rows} rows, avg list len {}",
            ls_config.name, ls_config.avg_sparse_len
        );
        let plan = PreprocessPlan::compile(PlanGraph::long_history(&ls_config, 7, 8)?, &ls_config)?;
        let mut full_chains = PlanGraph::long_history(&ls_config, 7, 8)?.chains().to_vec();
        for i in 0..ls_config.num_sparse {
            let hasher = SigridHasher::new(0xF011 ^ i as u64, ls_config.avg_embeddings as u64)?;
            full_chains.push(ChainSpec::feature(
                format!("full_hist_{i}"),
                format!("sparse_{i}"),
                vec![Op::SigridHash(hasher)],
            ));
        }
        let plan_full = PreprocessPlan::compile(PlanGraph::new(full_chains), &ls_config)?;
        assert_eq!(plan.requirement_for("sparse_0"), ColumnRequirement::Prefix(8));
        assert_eq!(plan_full.requirement_for("sparse_0"), ColumnRequirement::Full);
        let placed = place_stages(&plan, ls_rows, &model);
        let placed_full = place_stages(&plan_full, ls_rows, &model);
        let mut flips = 0usize;
        for s in &placed.stages {
            if !s.output.starts_with("sparse_") {
                continue;
            }
            let f = placed_full
                .stages
                .iter()
                .find(|t| t.output == s.output)
                .expect("comparator shares the stage");
            if f.place != s.place {
                flips += 1;
            }
            println!(
                "  {:<10} full-decode pricing: {:>8} elems -> {:<5}  prefix(8) pricing: \
                 {:>6} elems -> {}",
                s.output, f.elements, f.place, s.elements, s.place
            );
        }
        println!(
            "  {flips} of {} long-sequence stages changed fleet under prefix pushdown",
            ls_config.num_sparse
        );
        if strict {
            assert!(flips > 0, "PRESTO_ABLATION_STRICT: pushdown never moved a placement");
        }

        // Execute the pushed-down plan at its chosen placement: still
        // bit-identical to the serial full-materialization reference.
        let ls_dataset = Dataset::generate(&ls_config, ls_parts, ls_rows, 2, 2024)?;
        let ls_slow: Vec<Partition> = ls_dataset
            .partitions()
            .iter()
            .map(|p| Partition {
                index: p.index,
                device: p.device,
                rows: p.rows,
                blob: p.blob.clone().with_read_latency(Duration::from_micros(lat_us as u64)),
            })
            .collect();
        let serial: Vec<MiniBatch> = ls_dataset
            .partitions()
            .iter()
            .map(|p| preprocess_partition(&plan, p.blob.clone()).map(|(mb, _)| mb))
            .collect::<Result<_, _>>()?;
        let split = plan.split(&placed.fleet_assignment())?;
        let t0 = Instant::now();
        let split_config = FleetConfig::new(2, 4);
        let mut hybrid: Vec<(usize, MiniBatch)> = Vec::new();
        for item in Fleet::Split(split.clone()).stream(&plan, &ls_slow, &split_config) {
            let b = item?;
            hybrid.push((b.partition, b.batch));
        }
        let split_time = t0.elapsed();
        hybrid.sort_by_key(|(p, _)| *p);
        for (pos, batch) in &hybrid {
            assert_eq!(batch, &serial[*pos], "long-history split partition {pos} must match");
        }
        println!(
            "  split with prefix pushdown: {:.1} ms ({:.0} rows/s), bit-identical to the \
             serial reference",
            split_time.as_secs_f64() * 1e3,
            (ls_parts * ls_rows) as f64 / split_time.as_secs_f64()
        );
    }

    println!(
        "\nall scenarios bit-identical across host-only, ISP-only, and split execution{}",
        if split_won_any { "; split beat both single fleets on >=1 scenario" } else { "" }
    );
    if strict {
        assert!(split_won_any, "PRESTO_ABLATION_STRICT: split never beat the best single fleet");
    }
    Ok(())
}
