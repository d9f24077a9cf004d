//! The paper-shape contract: every headline claim of the PreSto paper,
//! asserted as a band over the full model stack. If calibration drifts,
//! these tests fail before the `presto-bench` figure binaries' tables can
//! silently drift from the paper.
//!
//! Bands are intentionally loose enough to tolerate constant tweaks but
//! tight enough that "who wins, by roughly what factor, where the
//! crossovers fall" cannot silently invert.

use presto::core::experiments;
use presto::core::provision::Provisioner;
use presto::core::systems::System;
use presto::datagen::{RmConfig, WorkloadProfile};
use presto::hwsim::net::NetworkModel;
use presto::metrics::efficiency::{fig15, mean};

fn profiles() -> Vec<(RmConfig, WorkloadProfile)> {
    RmConfig::all().into_iter().map(|c| (c.clone(), WorkloadProfile::from_config(&c))).collect()
}

#[test]
fn headline_speedup_9_6x_average_11_6x_max() {
    let groups = experiments::fig12();
    let speedups: Vec<f64> = groups.iter().map(|g| g.speedup).collect();
    let avg = mean(&speedups);
    let max = speedups.iter().fold(0.0f64, |a, &b| a.max(b));
    assert!((8.0..=12.5).contains(&avg), "avg speedup {avg:.2} (paper 9.6)");
    assert!((10.0..=13.5).contains(&max), "max speedup {max:.2} (paper 11.6)");
}

#[test]
fn transform_ops_dominate_cpu_preprocessing() {
    // Sec. III-B: Bucketize + SigridHash + Log = 79% of time on average.
    let shares: Vec<f64> =
        experiments::fig5().iter().map(|(_, b)| b.transform_fraction()).collect();
    let avg = mean(&shares);
    assert!((0.69..=0.89).contains(&avg), "avg transform share {avg:.3} (paper 0.79)");
}

#[test]
fn production_models_are_an_order_of_magnitude_heavier() {
    // Fig. 5: RM5 ≈ 14× RM1 end-to-end preprocessing latency.
    let rows = experiments::fig5();
    let ratio = rows[4].1.total().seconds() / rows[0].1.total().seconds();
    assert!((10.0..=18.0).contains(&ratio), "RM5/RM1 {ratio:.1} (paper 14)");
}

#[test]
fn presto_extract_share_near_40_percent() {
    // Sec. VI-A: Extract ≈ 40.8% of PreSto's preprocessing time on average.
    let shares: Vec<f64> =
        experiments::fig12().iter().map(|g| g.presto.extract_fraction()).collect();
    let avg = mean(&shares);
    assert!((0.30..=0.52).contains(&avg), "avg PreSto extract share {avg:.3} (paper 0.408)");
}

#[test]
fn one_smartssd_sits_between_32_and_64_cores() {
    // Fig. 11: PreSto > Disagg(32); Disagg(64) wins back by ~27%.
    for (config, profile) in profiles() {
        let presto = System::presto_smartssd(1).throughput(&profile);
        let d32 = System::disagg(32).throughput(&profile);
        let d64 = System::disagg(64).throughput(&profile);
        assert!(presto > d32, "{}: crossover below 32 cores", config.name);
        let ratio = d64 / presto;
        assert!(
            (1.05..=1.9).contains(&ratio),
            "{}: Disagg(64)/PreSto {ratio:.2} (paper 1.27)",
            config.name
        );
    }
}

#[test]
fn rpc_reduction_near_2_9x() {
    let net = NetworkModel::poc();
    let mut ratios = Vec::new();
    for (_, profile) in profiles() {
        let disagg = System::disagg(1).rpc_account(&profile).time_on(&net);
        let presto = System::presto_smartssd(1).rpc_account(&profile).time_on(&net);
        ratios.push(disagg / presto);
    }
    let avg = mean(&ratios);
    assert!((1.8..=4.5).contains(&avg), "avg RPC reduction {avg:.2} (paper 2.9)");
}

#[test]
fn provisioning_scale_matches_figs_4_and_14() {
    let p = Provisioner::poc();
    let rm5_cores = p.cpu_cores_required(&RmConfig::rm5(), 8);
    assert!((280..=420).contains(&rm5_cores), "RM5 cores {rm5_cores} (paper 367)");
    for c in RmConfig::all() {
        let units = p.isp_units_required(&c, 8);
        assert!(units <= 12, "{}: {units} ISP units (paper max 9)", c.name);
        assert!(units >= 1);
    }
}

#[test]
fn energy_efficiency_near_11x_cost_efficiency_near_4x() {
    let rows = fig15();
    let energy: Vec<f64> = rows.iter().map(|r| r.energy_efficiency_gain).collect();
    let cost: Vec<f64> = rows.iter().map(|r| r.cost_efficiency_gain).collect();
    let e_avg = mean(&energy);
    let c_avg = mean(&cost);
    assert!((7.0..=14.0).contains(&e_avg), "avg energy gain {e_avg:.1} (paper 11.3)");
    assert!((3.0..=6.5).contains(&c_avg), "avg cost gain {c_avg:.1} (paper 4.3)");
}

#[test]
fn colocated_gpu_starves_below_25_percent() {
    // Fig. 3: 16 co-located workers leave the A100 under ~20% utilized.
    let (points, _) = experiments::fig3(&RmConfig::rm5());
    let at16 = points.iter().find(|p| p.cores == 16).expect("16-core point");
    assert!(at16.gpu_utilization < 0.25, "utilization {:.2}", at16.gpu_utilization);
    // Near-linear worker scaling (paper: 15× from 1 to 16 workers).
    let scale = at16.preprocess_throughput / points[0].preprocess_throughput;
    assert!((14.0..=16.0).contains(&scale), "scaling {scale:.1}");
}

#[test]
fn gpu_preprocessing_loses_to_presto_by_2_5x() {
    // Fig. 16: PreSto (SmartSSD) ≈ 2.5× the A100's NVTabular throughput.
    let mut ratios = Vec::new();
    for group in experiments::fig16() {
        let get = |name: &str| {
            group.entries.iter().find(|(n, _, _)| n == name).map(|(_, t, _)| *t).unwrap()
        };
        ratios.push(get("PreSto (SmartSSD)") / get("A100"));
    }
    let avg = mean(&ratios);
    assert!((1.8..=3.6).contains(&avg), "avg PreSto/A100 {avg:.2} (paper 2.5)");
}

#[test]
fn smartssd_wins_perf_per_watt_everywhere() {
    // Fig. 16 right axis: the 25 W SmartSSD dominates performance/Watt.
    for group in experiments::fig16() {
        let best = group
            .entries
            .iter()
            .max_by(|a, b| a.2.partial_cmp(&b.2).expect("finite perf/W"))
            .expect("entries");
        assert_eq!(best.0, "PreSto (SmartSSD)", "{}: best perf/W is {}", group.model, best.0);
    }
}

#[test]
fn disagg_op_latency_scales_with_features_presto_keeps_speedup() {
    // Fig. 17: 1x/2x/4x feature sweep.
    let points = experiments::fig17();
    for op in presto::hwsim::trace::OpKind::ALL {
        let series: Vec<_> = points.iter().filter(|p| p.op == op).collect();
        let growth = series[2].disagg / series[0].disagg;
        assert!((3.0..=5.0).contains(&growth), "{op}: Disagg growth {growth:.2}");
        for p in &series {
            assert!(p.speedup > 5.0, "{op} x{}: speedup {:.1}", p.factor, p.speedup);
        }
    }
}
