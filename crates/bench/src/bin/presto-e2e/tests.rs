//! Smoke tests: every workload passes its own gate, the traced run fills
//! the whole ledger, and `BENCHMARK.json` says what the tables here say.

use crate::layers::{self, StreamProbe, PER_LAYER};
use crate::trace::Tracer;
use crate::workloads::{Checking, Workload, WORKLOADS};
use crate::{parse_args, presto_variable, END_TO_END};
use std::time::Duration;

/// The gate epoch plus two timed-style epochs deliver every unit.
fn smoke(name: &str) -> Workload {
    let workload = Workload::build(name, 7).expect("builds");
    let gate = workload.run_epoch(0, Checking::Full, false).expect("gate epoch runs").outcome();
    assert_eq!(gate.attempted, workload.units() as u64);
    assert_eq!((gate.failed, gate.errors), (0, 0), "{name}: gate");
    assert_eq!(gate.rows, workload.rows() as u64);
    for epoch in 1..=2 {
        let run = workload.run_epoch(epoch, Checking::Identity, false).expect("epoch runs");
        assert_eq!(run.outcome().failed, 0, "{name}: epoch {epoch}");
        assert_eq!(run.outcome().rows, workload.rows() as u64);
        assert!(run.first().is_some());
    }
    workload
}

#[test]
fn rm5_host_mem_delivers_every_unit() {
    smoke("rm5_host_mem");
}

#[test]
fn longseq_isp_mem_delivers_every_unit() {
    smoke("longseq_isp_mem");
}

#[test]
fn rm1_shuffled_ssd_delivers_every_unit_and_fills_the_ledger() {
    let workload = smoke("rm1_shuffled_ssd");
    let plain = workload.run_epoch(3, Checking::Identity, false).unwrap();
    let traced = workload.run_epoch(4, Checking::Identity, true).unwrap();
    assert_eq!(traced.tenants[0].deliveries.len(), workload.units());
    let probe = StreamProbe {
        untraced_rows: plain.outcome().rows,
        untraced_wall: plain.wall,
        traced_wall: traced.wall,
        traced_epochs: 1,
        ..StreamProbe::default()
    };
    let mut tracer = Tracer::new();
    let ledger = layers::ledger(&workload, &mut tracer, Duration::ZERO, &probe).unwrap();
    for metric in PER_LAYER {
        let value = ledger.get(metric.name).unwrap_or_else(|| panic!("{} missing", metric.name));
        assert!(value.is_finite(), "{} = {value}", metric.name);
    }
    assert_eq!(ledger.len(), PER_LAYER.len(), "the ledger and the table list the same names");
    // Counts are exact: a footer read or two, then one read per column of
    // each 256-row group (label, 13 dense, 26 sparse).
    assert!(ledger["columnar.device.reads_per_group"] > 40.0);
    // Every span closed, and each unit's children nest inside it.
    assert!(tracer.spans().iter().all(|s| s.end_ns >= s.start_ns));
    assert!(tracer.totals()["unit"].count >= 2 * workload.tenants[0].pristine.len() as u64);
}

#[test]
fn mixed_service_chaos_loses_nothing_and_fails_over() {
    let workload = smoke("mixed_service_chaos");
    let traced = workload.run_epoch(3, Checking::Identity, true).unwrap();
    assert_eq!(traced.outcome().failed, 0);
    let recovery = traced.tenants[1].stats.as_ref().unwrap().recovery.as_ref().unwrap();
    assert!(recovery.failovers > 0, "device 1 dies mid-epoch: {recovery:?}");
    assert!(traced.tenants[0].stats.as_ref().unwrap().boundary_bytes > 0, "the split hands off");
    assert!(traced.service.unwrap().fairness > 0.5);
}

#[test]
fn arguments_are_the_contracts() {
    let args = |s: &str| s.split_whitespace().map(str::to_owned).collect::<Vec<_>>();
    let parsed =
        parse_args(&args("--workload rm5_host_mem --seed 9 --seconds 1.5 --trace 1")).unwrap();
    assert_eq!(
        (parsed.workload.as_str(), parsed.seed, parsed.seconds, parsed.trace),
        ("rm5_host_mem", 9, 1.5, true)
    );
    assert_eq!(parse_args(&args("--workload longseq_isp_mem")).unwrap().seed, 7);
    for bad in [
        "",
        "--workload nope",
        "--workload rm5_host_mem --seconds 0",
        "--workload rm5_host_mem --trace 2",
        "--workload rm5_host_mem --seed",
        "--workload rm5_host_mem --epochs 3",
    ] {
        assert!(parse_args(&args(bad)).is_err(), "{bad:?} should be refused");
    }
}

#[test]
fn any_presto_variable_is_refused() {
    let vars =
        |names: &[&str]| names.iter().map(|n| std::ffi::OsString::from(*n)).collect::<Vec<_>>();
    assert_eq!(presto_variable(vars(&["PATH", "HOME"])), None);
    assert_eq!(
        presto_variable(vars(&["PATH", "PRESTO_FORCE_ENCODING"])),
        Some("PRESTO_FORCE_ENCODING".to_owned())
    );
}

fn well_formed(name: &str) -> bool {
    let mut chars = name.chars();
    chars.next().is_some_and(|c| c.is_ascii_alphanumeric())
        && name.len() <= 64
        && chars.all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
}

#[test]
fn names_and_counts_stay_within_the_contract() {
    let names: Vec<&str> = WORKLOADS
        .iter()
        .map(|w| w.name)
        .chain(END_TO_END.iter().map(|m| m.name))
        .chain(PER_LAYER.iter().map(|m| m.name))
        .collect();
    for name in &names {
        assert!(well_formed(name), "{name}");
        assert_eq!(names.iter().filter(|n| n == &name).count(), 1, "{name} is used once");
    }
    assert!((2..=8).contains(&WORKLOADS.len()));
    assert!(END_TO_END.len() <= 16 && PER_LAYER.len() <= 128);
    assert!(WORKLOADS.iter().all(|w| w.why.len() <= 200 && !w.why.contains('\n')));
    assert!(END_TO_END.iter().all(|m| m.bound > 0.0 && m.bound <= 0.25));
    assert!(END_TO_END.iter().any(|m| (m.name, m.unit, m.better) == ("setup_s", "s", "lower")));
    let units = END_TO_END.iter().map(|m| m.unit).chain(PER_LAYER.iter().map(|m| m.unit));
    for unit in units {
        assert!(unit.len() <= 16, "{unit}");
        assert!(unit.chars().all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)), "{unit}");
    }
}

/// `BENCHMARK.json` as the tables in this directory define it.
fn benchmark_json() -> String {
    let dir = "crates/bench/src/bin/presto-e2e";
    let mut out = String::from("{\n");
    out += &format!(
        "  \"command\": [\"cargo\", \"run\", \"--release\", \"--offline\", \"--quiet\", \
         \"--manifest-path\", \"{dir}/Cargo.toml\", \"--\"],\n"
    );
    out += &format!("  \"paths\": [\"{dir}\"],\n");
    out += &format!("  \"run_seconds\": {},\n", crate::RUN_SECONDS);
    let list = |items: Vec<String>| items.join(",\n");
    out += "  \"workloads\": [\n";
    out += &list(
        WORKLOADS
            .iter()
            .map(|w| format!("    {{\"name\": \"{}\", \"why\": \"{}\"}}", w.name, w.why))
            .collect(),
    );
    out += "\n  ],\n  \"end_to_end\": [\n";
    out += &list(
        END_TO_END
            .iter()
            .map(|m| {
                format!(
                    "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}",
                    m.name, m.unit, m.better, m.bound
                )
            })
            .collect(),
    );
    out += "\n  ],\n  \"per_layer\": [\n";
    out += &list(
        PER_LAYER
            .iter()
            .map(|m| {
                format!(
                    "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}",
                    m.name, m.unit, m.better
                )
            })
            .collect(),
    );
    out += "\n  ]\n}\n";
    out
}

#[test]
fn benchmark_json_is_in_step_with_the_tables() {
    let expected = benchmark_json();
    let committed = include_str!("../../../../../BENCHMARK.json");
    assert!(
        committed == expected,
        "BENCHMARK.json at the repository root should read:\n{expected}"
    );
}

#[test]
fn time_metrics_come_from_the_quieter_epochs() {
    let sample = |wall_s: f64, first_ms: f64, gaps_ms: Vec<f64>| crate::EpochSample {
        wall_s,
        cpu_s: wall_s * 2.0,
        rows: 1000,
        first_ms,
        gaps_ms,
    };
    let samples = vec![
        sample(4.0, 40.0, vec![9.0, 9.0]),
        sample(1.0, 10.0, vec![1.0, 2.0]),
        sample(2.0, 20.0, vec![3.0, 4.0]),
        sample(8.0, 80.0, vec![9.0, 9.0]),
    ];
    let quiet = crate::summarize(&samples, 0.5);
    assert_eq!((quiet.epochs, quiet.gap_samples), (2, 4));
    assert_eq!(quiet.rows_per_s, 2000.0 / 3.0);
    assert_eq!(quiet.cpu_s_per_mrow, 6.0 / 0.002);
    assert_eq!(quiet.first_batch_ms, 15.0);
    assert_eq!(quiet.batch_gap_p50_ms, 2.5);
    let whole = crate::summarize(&samples, 1.0);
    assert_eq!((whole.epochs, whole.rows_per_s), (4, 4000.0 / 15.0));
    assert_eq!(whole.first_batch_ms, 30.0);
    // The share rounds up and never selects nothing.
    assert_eq!(crate::summarize(&samples[..1], 0.1).epochs, 1);
}
