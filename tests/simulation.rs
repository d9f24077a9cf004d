//! Integration tests of the simulation stack: provisioning feeds the
//! pipeline and the pipeline respects physics (Fig. 9 end to end: measure
//! `T`, measure `P`, spawn `⌈T/P⌉` devices, simulate the producer–consumer
//! loop).

use presto::core::pipeline::{simulate, PipelineConfig, PipelineReport};
use presto::core::provision::Provisioner;
use presto::core::systems::System;
use presto::datagen::RmConfig;
use presto::hwsim::cpu::CpuWorkerModel;
use presto::hwsim::fpga::IspModel;
use presto::hwsim::gpu::GpuTrainModel;

const GPUS: usize = 8;

/// The `⌈T/P⌉`-sized fleets that keep `GPUS` A100s fed on `config`: Disagg
/// CPU cores, PreSto SmartSSDs and PreSto storage-node U280s.
fn provisioned_fleets(config: &RmConfig) -> [System; 3] {
    let poc = Provisioner::poc();
    let u280 =
        Provisioner::new(GpuTrainModel::a100(), CpuWorkerModel::poc(), IspModel::u280_in_storage());
    [
        System::disagg(poc.cpu_cores_required(config, GPUS)),
        System::presto_smartssd(poc.isp_units_required(config, GPUS)),
        System::Presto { units: u280.isp_units_required(config, GPUS), isp: u280.isp().clone() },
    ]
}

fn train(system: &System, config: &RmConfig, batches: usize) -> PipelineReport {
    simulate(
        system,
        &GpuTrainModel::a100(),
        config,
        &PipelineConfig { batches, queue_capacity: 8, num_gpus: GPUS },
    )
}

#[test]
fn provisioned_systems_reach_high_utilization_for_every_model() {
    for config in RmConfig::all() {
        let reports =
            provisioned_fleets(&config).map(|system| (train(&system, &config, 64), system));
        for (report, system) in &reports {
            assert!(
                report.gpu_utilization > 0.85,
                "{} {}: utilization {:.2}",
                config.name,
                system.name(),
                report.gpu_utilization
            );
            assert_eq!(report.batches_trained, 64);
        }
        // Every fleet meets the same demand, the premise of comparing them
        // on power and cost alone (Sec. V-C).
        let baseline = reports[0].0.training_throughput;
        for (report, system) in &reports[1..] {
            let ratio = report.training_throughput / baseline;
            assert!((0.9..=1.1).contains(&ratio), "{} {}: {ratio:.2}", config.name, system.name());
        }
    }
}

#[test]
fn under_provisioning_shows_up_as_starvation() {
    let config = RmConfig::rm5();
    let units = Provisioner::poc().isp_units_required(&config, GPUS);
    let full = train(&System::presto_smartssd(units), &config, 48);
    let starved = train(&System::presto_smartssd((units / 2).max(1)), &config, 48);
    assert!(
        starved.gpu_utilization < full.gpu_utilization,
        "halved fleet {:.2} vs full {:.2}",
        starved.gpu_utilization,
        full.gpu_utilization
    );
}

#[test]
fn utilization_is_always_a_fraction() {
    let gpu = GpuTrainModel::a100();
    for workers in [1usize, 3, 17, 100] {
        for queue in [1usize, 2, 4, 64] {
            let report = simulate(
                &System::disagg(workers),
                &gpu,
                &RmConfig::rm2(),
                &PipelineConfig { batches: 24, queue_capacity: queue, num_gpus: 2 },
            );
            assert!((0.0..=1.0).contains(&report.gpu_utilization));
            assert_eq!(report.batches_trained, 24);
            assert!(report.peak_queue <= queue, "peak queue {}", report.peak_queue);
            assert!(report.makespan.seconds() > 0.0);
        }
    }
}

#[test]
fn presto_fleet_is_two_orders_smaller_than_cpu_fleet() {
    let p = Provisioner::poc();
    for config in RmConfig::all() {
        let cores = p.cpu_cores_required(&config, 8);
        let units = p.isp_units_required(&config, 8);
        assert!(cores >= 30 * units, "{}: {cores} cores vs {units} units", config.name);
    }
}

#[test]
fn simulation_is_deterministic() {
    let gpu = GpuTrainModel::a100();
    let cfg = PipelineConfig { batches: 32, queue_capacity: 8, num_gpus: 4 };
    let a = simulate(&System::presto_smartssd(3), &gpu, &RmConfig::rm3(), &cfg);
    let b = simulate(&System::presto_smartssd(3), &gpu, &RmConfig::rm3(), &cfg);
    assert_eq!(a, b);
}
