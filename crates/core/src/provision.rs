//! T/P provisioning — step ❷ of the PreSto software flow (Fig. 9).
//!
//! The train manager measures the GPUs' maximum training throughput `T`
//! (by stress-testing with dummy mini-batches); the preprocess manager
//! measures a single device's preprocessing throughput `P` and allocates
//! `⌈T / P⌉` devices. Here both rates come from the device models of
//! `presto-hwsim` — `T` from the GPU model, `P` from the CPU-worker or ISP
//! model — and Figures 4 and 14 are direct outputs of this module.

use presto_datagen::{RmConfig, WorkloadProfile};
use presto_hwsim::cpu::{CpuWorkerModel, DataLocality};
use presto_hwsim::fpga::IspModel;
use presto_hwsim::gpu::GpuTrainModel;

/// Provisioning calculator binding the device models together.
#[derive(Debug, Clone)]
pub struct Provisioner {
    gpu: GpuTrainModel,
    cpu: CpuWorkerModel,
    isp: IspModel,
}

impl Provisioner {
    /// The paper's PoC devices: A100 trainer, Xeon workers, SmartSSD ISP.
    #[must_use]
    pub fn poc() -> Self {
        Provisioner {
            gpu: GpuTrainModel::a100(),
            cpu: CpuWorkerModel::poc(),
            isp: IspModel::smartssd(),
        }
    }

    /// Builds a provisioner from explicit device models.
    #[must_use]
    pub fn new(gpu: GpuTrainModel, cpu: CpuWorkerModel, isp: IspModel) -> Self {
        Provisioner { gpu, cpu, isp }
    }

    /// The trainer model.
    #[must_use]
    pub fn gpu(&self) -> &GpuTrainModel {
        &self.gpu
    }

    /// The CPU worker model.
    #[must_use]
    pub fn cpu(&self) -> &CpuWorkerModel {
        &self.cpu
    }

    /// The ISP model.
    #[must_use]
    pub fn isp(&self) -> &IspModel {
        &self.isp
    }

    /// Aggregate training-side demand `T` for `num_gpus` GPUs, samples/sec.
    #[must_use]
    pub fn training_demand(&self, config: &RmConfig, num_gpus: usize) -> f64 {
        self.gpu.max_throughput(config) * num_gpus as f64
    }

    /// Single-CPU-core preprocessing throughput `P`, samples/sec (Disagg).
    #[must_use]
    pub fn cpu_core_throughput(&self, config: &RmConfig) -> f64 {
        let profile = WorkloadProfile::from_config(config);
        self.cpu.throughput(&profile, DataLocality::RemoteStorage)
    }

    /// Single-SmartSSD preprocessing throughput `P`, samples/sec (PreSto).
    #[must_use]
    pub fn isp_unit_throughput(&self, config: &RmConfig) -> f64 {
        let profile = WorkloadProfile::from_config(config);
        self.isp.throughput(&profile)
    }

    /// CPU cores required to keep `num_gpus` GPUs fed (Fig. 4): `⌈T / P⌉`.
    #[must_use]
    pub fn cpu_cores_required(&self, config: &RmConfig, num_gpus: usize) -> usize {
        ceil_ratio(self.training_demand(config, num_gpus), self.cpu_core_throughput(config))
    }

    /// SmartSSD ISP units required to keep `num_gpus` GPUs fed (Fig. 14).
    #[must_use]
    pub fn isp_units_required(&self, config: &RmConfig, num_gpus: usize) -> usize {
        ceil_ratio(self.training_demand(config, num_gpus), self.isp_unit_throughput(config))
    }
}

impl Default for Provisioner {
    fn default() -> Self {
        Self::poc()
    }
}

fn ceil_ratio(demand: f64, per_unit: f64) -> usize {
    if demand <= 0.0 {
        return 0;
    }
    (demand / per_unit).ceil() as usize
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rm5_needs_hundreds_of_cores_for_8_gpus() {
        // Paper Fig. 4: 367 cores for RM5. Accept 280–420.
        let p = Provisioner::poc();
        let cores = p.cpu_cores_required(&RmConfig::rm5(), 8);
        assert!((280..=420).contains(&cores), "RM5 cores {cores}");
    }

    #[test]
    fn rm1_needs_tens_of_cores() {
        // Paper Fig. 4: RM1 is the small bar (tens of cores).
        let p = Provisioner::poc();
        let cores = p.cpu_cores_required(&RmConfig::rm1(), 8);
        assert!((15..=80).contains(&cores), "RM1 cores {cores}");
    }

    #[test]
    fn isp_units_stay_in_single_digits() {
        // Paper Fig. 14: at most 9 ISP units across all models.
        let p = Provisioner::poc();
        for c in RmConfig::all() {
            let units = p.isp_units_required(&c, 8);
            assert!((1..=12).contains(&units), "{}: {units} units", c.name);
        }
    }

    #[test]
    fn core_requirements_grow_monotonically_with_model() {
        let p = Provisioner::poc();
        let all: Vec<usize> = RmConfig::all().iter().map(|c| p.cpu_cores_required(c, 8)).collect();
        for w in all.windows(2) {
            assert!(w[1] >= w[0], "core demand must not shrink: {all:?}");
        }
    }

    #[test]
    fn demand_scales_with_gpu_count() {
        let p = Provisioner::poc();
        let c = RmConfig::rm3();
        let one = p.cpu_cores_required(&c, 1);
        let eight = p.cpu_cores_required(&c, 8);
        assert!(eight >= 7 * one, "1 GPU: {one}, 8 GPUs: {eight}");
        assert_eq!(p.cpu_cores_required(&c, 0), 0);
    }

    #[test]
    fn isp_vs_cpu_ratio_matches_throughput_ratio() {
        let p = Provisioner::poc();
        let c = RmConfig::rm5();
        let ratio = p.isp_unit_throughput(&c) / p.cpu_core_throughput(&c);
        // One SmartSSD replaces tens of cores (Fig. 11: beats 32 cores).
        assert!(ratio > 32.0, "ISP/core ratio {ratio:.1}");
    }
}
