//! Non-canonical preprocessing scenarios end to end: compile operator
//! graphs beyond the paper's fixed SigridHash/Bucketize/LogNorm triple and
//! run them through *both* fleets — the host CPU streaming executor and
//! the emulated in-storage (ISP) workers — verifying bit-identical output,
//! then ask the placement cost model where each stage should run.
//!
//! Scenarios (on RM1-L, the RM1 variant with production-shaped sparse
//! lists):
//!
//! * **canonical** — the paper's fixed pipeline, as a graph.
//! * **truncated-cross** — every sparse list truncated to its first 4 ids
//!   (FirstX), then hashed, plus a pairwise n-gram feature cross per
//!   sparse feature — the RM-variant shape of Meta's ingestion study.
//! * **remapped** — sparse ids through a bounded dictionary (MapId) before
//!   hashing; generated features remapped into a smaller table.
//!
//! Run with: `cargo run --release --example plan_scenarios`
//! `PRESTO_SCENARIO_ROWS` / `PRESTO_SCENARIO_PARTITIONS` shrink the run
//! (CI uses tiny values to catch example rot cheaply).

use presto::core::placement::{place_stages, OpCostModel};
use presto::datagen::{Dataset, RmConfig};
use presto::hwsim::fpga::IspModel;
use presto::ops::{
    preprocess_partition, BatchStream, FleetConfig, MiniBatch, Pipeline, PlanGraph, PreprocessPlan,
};
use std::time::Instant;

fn env_usize(key: &str, default: usize) -> usize {
    std::env::var(key).ok().and_then(|v| v.parse().ok()).unwrap_or(default)
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let rows = env_usize("PRESTO_SCENARIO_ROWS", 2048);
    let partitions = env_usize("PRESTO_SCENARIO_PARTITIONS", 8);
    let mut config = RmConfig::rm1_lists();
    config.batch_size = rows;
    println!(
        "model {}: {} dense + {} sparse (avg len {}) + {} generated, {partitions} x {rows} rows",
        config.name,
        config.num_dense,
        config.num_sparse,
        config.avg_sparse_len,
        config.num_generated
    );
    let dataset = Dataset::generate(&config, partitions, rows, 2, 2024)?;

    let scenarios: Vec<(&str, PlanGraph)> = vec![
        ("canonical", PlanGraph::canonical(&config, 7)?),
        ("truncated-cross", PlanGraph::truncated_cross(&config, 7, 4, 2)?),
        ("remapped", PlanGraph::remapped(&config, 7, 4096)?),
    ];

    for (name, graph) in scenarios {
        let plan = PreprocessPlan::compile(graph, &config)?;
        println!(
            "\n=== scenario {name}: {} stages, {} emitted features, {} projected columns",
            plan.stages().len(),
            plan.emitted_dense().len() + plan.emitted_lists().len() + plan.emitted_ids().len(),
            plan.required_columns().len()
        );

        // Serial reference.
        let serial: Vec<MiniBatch> = dataset
            .partitions()
            .iter()
            .map(|p| preprocess_partition(&plan, p.blob.clone()).map(|(mb, _)| mb))
            .collect::<Result<_, _>>()?;

        // Host CPU streaming fleet.
        let t0 = Instant::now();
        let cpu: Vec<MiniBatch> =
            BatchStream::spawn(&plan, dataset.partitions(), &FleetConfig::new(2, 4))
                .into_ordered()
                .map(|item| item.map(|b| b.batch))
                .collect::<Result<_, _>>()?;
        let cpu_time = t0.elapsed();
        assert_eq!(cpu, serial, "{name}: CPU stream must match serial");

        // In-storage fleet (emulated ISP units, chunked through on-chip
        // feature buffers).
        let t0 = Instant::now();
        let mut isp_stream = BatchStream::spawn_pipeline(
            &plan,
            dataset.partitions(),
            Pipeline::Isp,
            &FleetConfig::new(2, 4),
        );
        let mut isp: Vec<(usize, MiniBatch)> = Vec::new();
        for item in isp_stream.by_ref() {
            let b = item?;
            isp.push((b.partition, b.batch));
        }
        let isp_time = t0.elapsed();
        let p2p = isp_stream.p2p_bytes();
        isp.sort_by_key(|(p, _)| *p);
        let isp: Vec<MiniBatch> = isp.into_iter().map(|(_, b)| b).collect();
        assert_eq!(isp, serial, "{name}: ISP fleet must match serial");

        let total_rows = (partitions * rows) as f64;
        println!(
            "  CPU fleet  : {:>8.1} ms ({:.0} rows/s), bit-identical to serial",
            cpu_time.as_secs_f64() * 1e3,
            total_rows / cpu_time.as_secs_f64()
        );
        println!(
            "  ISP fleet  : {:>8.1} ms ({:.0} rows/s), {:.1} KiB over P2P, bit-identical",
            isp_time.as_secs_f64() * 1e3,
            total_rows / isp_time.as_secs_f64(),
            p2p as f64 / 1024.0
        );

        // Where should each stage run? Price the plan on a SmartSSD.
        let placement = place_stages(&plan, rows, &OpCostModel::analytic(&IspModel::smartssd()));
        println!(
            "  placement  : {}/{} stages offloaded to ISP, projected transform speedup {:.2}x",
            placement.offloaded(),
            placement.stages.len(),
            placement.speedup()
        );
        let mut heaviest: Vec<_> = placement.stages.iter().collect();
        heaviest.sort_by_key(|s| std::cmp::Reverse(s.elements));
        for s in heaviest.iter().take(4) {
            println!(
                "    {:<12} {:<28} {:>9} elems  host {:>10}  isp {:<10}  -> {}",
                s.output,
                s.ops,
                s.elements,
                s.host.to_string(),
                s.isp.map_or("n/a".into(), |c| c.to_string()),
                s.place
            );
        }
        if placement.stages.len() > 4 {
            println!("    ... ({} more stages)", placement.stages.len() - 4);
        }
    }
    println!("\nall scenarios produced bit-identical output on both fleets");
    Ok(())
}
