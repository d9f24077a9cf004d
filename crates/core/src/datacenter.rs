//! Datacenter-scale network contention across concurrent training jobs.
//!
//! The paper's PoC isolates one job, but its Fig. 13 argument is about the
//! fleet: "real-world datacenter fleets concurrently handle a large number
//! of training jobs, all of which time-share the datacenter network"
//! (Sec. VI-A). This module models that: `J` concurrent jobs share the
//! storage fabric's bisection bandwidth; each Disagg job moves raw features
//! *and* tensors across it, each PreSto job only tensors. When offered load
//! exceeds capacity, every job's preprocessing throttles proportionally and
//! GPU utilization sinks fleet-wide.
//!
//! [`measure_throttle`] complements the analytic curve with *measured*
//! contention: it drives the real multi-tenant
//! [`PreprocessService`] with `J`
//! identical jobs time-sharing one fixed pool and reports each point's mean
//! per-job goodput against the solo run — the executor-level analogue of
//! the fabric model's fair-share throttle.

use presto_datagen::{Partition, RmConfig, WorkloadProfile};
use presto_hwsim::gpu::GpuTrainModel;
use presto_hwsim::units::BytesPerSec;
use presto_ops::plan::PreprocessPlan;

use crate::provision::Provisioner;
use crate::service::{JobSpec, PreprocessService, ServiceConfig};

/// Which preprocessing system the fleet's jobs use.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FleetKind {
    /// All jobs use disaggregated CPU preprocessing.
    Disagg,
    /// All jobs use PreSto in-storage preprocessing.
    Presto,
}

/// A shared storage-network fabric.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Fabric {
    /// Bisection bandwidth between the storage tier and compute tiers.
    pub bisection: BytesPerSec,
}

impl Fabric {
    /// A modest fabric: 16 × 10 GbE storage uplinks.
    #[must_use]
    pub fn poc_cluster() -> Self {
        Fabric { bisection: BytesPerSec::gbit(160.0) }
    }
}

/// Result of the contention analysis for one fleet configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ContentionReport {
    /// Concurrent jobs.
    pub jobs: usize,
    /// Network bytes/sec one unthrottled job offers the fabric.
    pub per_job_offered: f64,
    /// Total offered load as a fraction of bisection bandwidth.
    pub fabric_load: f64,
    /// Throttle factor applied to every job's preprocessing (1.0 = none).
    pub throttle: f64,
    /// Fleet-average GPU utilization after throttling.
    pub gpu_utilization: f64,
}

/// Network bytes one mini-batch moves across the fabric for a job.
fn per_batch_bytes(kind: FleetKind, profile: &WorkloadProfile) -> u64 {
    match kind {
        // Raw features in (storage -> pool) + tensors out (pool -> trainer).
        FleetKind::Disagg => profile.raw_bytes + profile.tensor_bytes,
        // Tensors only (storage -> trainer).
        FleetKind::Presto => profile.tensor_bytes,
    }
}

/// Analyzes `jobs` identical jobs (each `config` on `gpus_per_job` GPUs)
/// sharing `fabric`.
///
/// Each job is provisioned to meet its GPUs' demand in isolation
/// (`⌈T/P⌉` devices); the fabric then throttles all jobs equally when
/// oversubscribed. GPU utilization = throttled preprocessing throughput /
/// training demand, capped at 1.
#[must_use]
pub fn analyze(
    kind: FleetKind,
    config: &RmConfig,
    jobs: usize,
    gpus_per_job: usize,
    fabric: Fabric,
) -> ContentionReport {
    let provisioner = Provisioner::poc();
    let profile = WorkloadProfile::from_config(config);
    let gpu = GpuTrainModel::a100();
    let demand = gpu.max_throughput(config) * gpus_per_job as f64;

    // Provisioned preprocessing throughput (isolated).
    let supply = match kind {
        FleetKind::Disagg => {
            let cores = provisioner.cpu_cores_required(config, gpus_per_job);
            provisioner.cpu_core_throughput(config) * cores as f64
        }
        FleetKind::Presto => {
            let units = provisioner.isp_units_required(config, gpus_per_job);
            provisioner.isp_unit_throughput(config) * units as f64
        }
    };

    // Offered network load at full preprocessing rate.
    let batches_per_sec = supply / profile.rows as f64;
    let per_job_offered = batches_per_sec * per_batch_bytes(kind, &profile) as f64;
    let total_offered = per_job_offered * jobs as f64;
    let fabric_load = total_offered / fabric.bisection.raw();

    // Fair-share throttling when oversubscribed.
    let throttle = if fabric_load > 1.0 { 1.0 / fabric_load } else { 1.0 };
    let effective = supply * throttle;
    let gpu_utilization = (effective / demand).min(1.0);

    ContentionReport { jobs, per_job_offered, fabric_load, throttle, gpu_utilization }
}

/// Sweeps job counts for both fleet kinds; returns
/// `(jobs, disagg_report, presto_report)` triples.
#[must_use]
pub fn sweep(
    config: &RmConfig,
    job_counts: &[usize],
    gpus_per_job: usize,
    fabric: Fabric,
) -> Vec<(usize, ContentionReport, ContentionReport)> {
    job_counts
        .iter()
        .map(|&jobs| {
            (
                jobs,
                analyze(FleetKind::Disagg, config, jobs, gpus_per_job, fabric),
                analyze(FleetKind::Presto, config, jobs, gpus_per_job, fabric),
            )
        })
        .collect()
}

/// One measured contention point: `jobs` identical tenants on one pool.
#[derive(Debug, Clone, PartialEq)]
pub struct MeasuredThrottle {
    /// Concurrent jobs sharing the pool.
    pub jobs: usize,
    /// Mean per-job goodput (rows/sec) at this concurrency.
    pub mean_rows_per_sec: f64,
    /// Solo-run goodput (rows/sec) the curve is normalized against.
    pub solo_rows_per_sec: f64,
    /// Jain's fairness index across the concurrent jobs.
    pub fairness: f64,
}

impl MeasuredThrottle {
    /// Measured throttle factor: shared goodput relative to solo
    /// (1.0 = no contention; the analytic counterpart is
    /// [`ContentionReport::throttle`]).
    #[must_use]
    pub fn throttle(&self) -> f64 {
        self.mean_rows_per_sec / self.solo_rows_per_sec.max(1e-12)
    }
}

/// Measures the contention throttle curve by running `job_counts[i]`
/// identical host-fleet jobs through a real
/// [`PreprocessService`] sharing
/// `pool_workers` threads, each job preprocessing its own copy of
/// `partitions` under `plan`. The first element of the result is always
/// the solo baseline (1 job), prepended when absent from `job_counts`.
///
/// Where [`analyze`] throttles on fabric bandwidth, this measures the
/// compute-side analogue on the living executor: `J` tenants fair-sharing
/// a fixed pool each get roughly `1/J` of it.
///
/// # Panics
///
/// Panics if a job fails admission (the service is sized to admit
/// `max(job_counts)` jobs) or a partition fails to preprocess.
#[must_use]
pub fn measure_throttle(
    plan: &PreprocessPlan,
    partitions: &[Partition],
    job_counts: &[usize],
    pool_workers: usize,
) -> Vec<MeasuredThrottle> {
    let mut counts: Vec<usize> = job_counts.iter().copied().filter(|&j| j > 0).collect();
    if counts.first() != Some(&1) {
        counts.insert(0, 1);
    }
    let mut solo = 0.0f64;
    let mut out = Vec::with_capacity(counts.len());
    for jobs in counts {
        let config = ServiceConfig::new(pool_workers)
            .with_max_active_jobs(jobs)
            .with_job_capacity(partitions.len().max(1));
        let service = PreprocessService::new(config);
        let handles: Vec<_> = (0..jobs)
            .map(|i| {
                service
                    .submit(JobSpec::new(format!("tenant-{i}"), plan.clone(), partitions.to_vec()))
                    .expect("service sized for all tenants")
            })
            .collect();
        std::thread::scope(|scope| {
            for handle in handles {
                scope.spawn(move || {
                    for item in handle {
                        item.expect("partition preprocesses");
                    }
                });
            }
        });
        let report = service.shutdown();
        let mean = report.jobs.iter().map(|j| j.goodput_rows_per_sec).sum::<f64>()
            / report.jobs.len().max(1) as f64;
        if jobs == 1 {
            solo = mean;
        }
        out.push(MeasuredThrottle {
            jobs,
            mean_rows_per_sec: mean,
            solo_rows_per_sec: solo,
            fairness: report.fairness,
        });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_job_is_unthrottled() {
        let fabric = Fabric::poc_cluster();
        for kind in [FleetKind::Disagg, FleetKind::Presto] {
            let r = analyze(kind, &RmConfig::rm5(), 1, 8, fabric);
            assert_eq!(r.throttle, 1.0, "{kind:?}");
            assert!(r.gpu_utilization > 0.95, "{kind:?}: {:.2}", r.gpu_utilization);
        }
    }

    #[test]
    fn disagg_offers_more_network_load_per_job() {
        let fabric = Fabric::poc_cluster();
        let d = analyze(FleetKind::Disagg, &RmConfig::rm5(), 1, 8, fabric);
        let p = analyze(FleetKind::Presto, &RmConfig::rm5(), 1, 8, fabric);
        // Disagg moves raw + tensors; PreSto tensors only.
        assert!(
            d.per_job_offered > 1.5 * p.per_job_offered,
            "disagg {:.2e} vs presto {:.2e}",
            d.per_job_offered,
            p.per_job_offered
        );
    }

    #[test]
    fn presto_sustains_more_concurrent_jobs() {
        // Find the first job count where each fleet's utilization drops
        // below 90%; PreSto must sustain strictly more.
        let fabric = Fabric::poc_cluster();
        let breaking_point = |kind: FleetKind| {
            (1..200)
                .find(|&jobs| {
                    analyze(kind, &RmConfig::rm5(), jobs, 8, fabric).gpu_utilization < 0.9
                })
                .unwrap_or(200)
        };
        let disagg = breaking_point(FleetKind::Disagg);
        let presto = breaking_point(FleetKind::Presto);
        assert!(presto > disagg, "presto breaks at {presto} jobs, disagg at {disagg}");
    }

    #[test]
    fn throttle_is_proportional_past_saturation() {
        let fabric = Fabric::poc_cluster();
        let a = analyze(FleetKind::Disagg, &RmConfig::rm5(), 50, 8, fabric);
        let b = analyze(FleetKind::Disagg, &RmConfig::rm5(), 100, 8, fabric);
        assert!(a.fabric_load > 1.0);
        assert!((b.throttle / a.throttle - 0.5).abs() < 0.01);
        assert!(b.gpu_utilization < a.gpu_utilization);
    }

    #[test]
    fn measured_throttle_reflects_pool_sharing() {
        use presto_datagen::Dataset;
        // Enough work per run (tens of milliseconds) that a neighbour
        // taking the other CPU slows the solo and the shared run alike:
        // with microsecond runs one preemption of the solo run alone used
        // to decide the ratio.
        let mut c = RmConfig::rm1();
        c.batch_size = 512;
        let plan = PreprocessPlan::from_config(&c, 7).unwrap();
        let ds = Dataset::generate(&c, 8, 512, 2, 7).unwrap();
        let curve = measure_throttle(&plan, ds.partitions(), &[1, 3], 2);
        assert_eq!(curve.len(), 2);
        assert_eq!(curve[0].jobs, 1);
        assert!((curve[0].throttle() - 1.0).abs() < 1e-9, "solo normalizes to 1");
        let shared = &curve[1];
        assert_eq!(shared.jobs, 3);
        assert!(shared.mean_rows_per_sec > 0.0);
        // Three tenants on two workers each get about a third of the pool;
        // the bound leaves a factor of three for scheduling noise.
        assert!(shared.throttle() < 1.0, "throttle {:.2}", shared.throttle());
        // Served fairly: every tenant was dispatched its whole job, so the
        // weight-normalized dispatch shares are equal — no clock involved.
        assert!(shared.fairness > 0.99, "fairness {:.2}", shared.fairness);
    }

    #[test]
    fn sweep_covers_both_kinds() {
        let rows = sweep(&RmConfig::rm3(), &[1, 8, 32], 8, Fabric::poc_cluster());
        assert_eq!(rows.len(), 3);
        for (jobs, d, p) in rows {
            assert_eq!(d.jobs, jobs);
            assert_eq!(p.jobs, jobs);
            assert!(p.gpu_utilization >= d.gpu_utilization);
        }
    }
}
