//! The four workloads: what each generates, which executor drains it, and
//! the consuming loop that stands where the trainer would.

use crate::verify::{EpochCheck, EpochOutcome, Reference};
use presto_columnar::{Device, DeviceModel, FaultPlan, FileWriter, MemBlob};
use presto_core::placement::{place_stages, OpCostModel, PlacementPlan};
use presto_core::{BatchSource, Fleet, JobSpec, PreprocessService, ServiceConfig, ServiceReport};
use presto_datagen::{generate_batch, Partition, RmConfig};
use presto_hwsim::IspModel;
use presto_ops::{
    epoch_order, FleetConfig, PlanGraph, PreprocessPlan, RetryPolicy, ShuffleSpec, StreamStats,
};
use std::sync::Arc;
use std::time::{Duration, Instant};

#[derive(Debug)]
pub struct WorkloadInfo {
    pub name: &'static str,
    pub why: &'static str,
}

/// Names and reasons as `BENCHMARK.json` lists them (a test keeps the two
/// in step).
pub const WORKLOADS: [WorkloadInfo; 4] = [
    WorkloadInfo {
        name: "rm5_host_mem",
        why: "Production-scale RM5 on the host fleet, CPU-bound: Transform is about half the \
              work, so an ops kernel, format or full-decode gain must show here.",
    },
    WorkloadInfo {
        name: "longseq_isp_mem",
        why: "Long-history lists through prefix pushdown on the ISP fleet: Extract is nearly all \
              the work, so a columnar decode gain shows here and an ops kernel gain must not.",
    },
    WorkloadInfo {
        name: "rm1_shuffled_ssd",
        why: "Shuffled row-group reads behind a 500 us queue-depth-2 device: reads per group x \
              latency sets the rate, so I/O coalescing shows and CPU kernels do not.",
    },
    WorkloadInfo {
        name: "mixed_service_chaos",
        why: "Two service tenants at once, a split-placed plan and a faulty ISP job: hand-off, \
              fair dispatch, retry, quarantine and failover all run, and nothing may be lost.",
    },
];

/// Threads each workload keeps busy (`nproc` of the 2-core reference box).
pub const BUSY_THREADS: usize = 2;

/// The emulated SSD of `rm1_shuffled_ssd`. At 100 us the run was bound by
/// `thread::sleep` overshoot (8% spread, drifting); at 500 us it is bound
/// by the device schedule (1%).
pub const SSD: (Duration, usize) = (Duration::from_micros(500), 2);
const SSD_GROUP_ROWS: usize = 256;
const DEVICES: usize = 2;

/// The device of the chaos tenant that dies, and after how many reads.
const DEATH: (usize, u64) = (1, 200);
const TRANSIENT_RATE: f64 = 0.002;

/// One dataset with its plan and the executor that serves it.
#[derive(Debug, Clone)]
pub struct Tenant {
    pub name: &'static str,
    pub config: RmConfig,
    pub plan: PreprocessPlan,
    /// Plain in-memory partitions: what the reference and the layer walk
    /// read.
    pub pristine: Vec<Partition>,
    /// What the executor reads: `pristine`, or the same bytes behind the
    /// emulated devices.
    stored: Vec<Partition>,
    pub fleet: Fleet,
    pub fleet_config: FleetConfig,
    /// Arms every epoch's blobs with a fresh seeded `FaultPlan`.
    chaos: bool,
    pub reference: Reference,
}

/// What dataset generation and encoding cost during set-up.
#[derive(Debug, Default, Clone, Copy)]
pub struct SetupLedger {
    pub rows: u64,
    pub generate: Duration,
    pub write: Duration,
    pub raw_bytes: u64,
    pub stored_bytes: u64,
}

#[derive(Debug)]
pub struct Workload {
    pub info: &'static WorkloadInfo,
    pub seed: u64,
    pub tenants: Vec<Tenant>,
    /// Tenants are jobs of one `PreprocessService` instead of dedicated
    /// fleets.
    pub service: bool,
    pub ledger: SetupLedger,
}

/// What the consuming loop saw of one tenant's epoch.
#[derive(Debug, Default)]
pub struct TenantEpoch {
    /// Epoch start to first verified batch.
    pub first: Option<Duration>,
    /// Consumer-side gaps between consecutive batches.
    pub gaps: Vec<Duration>,
    pub outcome: EpochOutcome,
    /// `(unit, previous delivery or epoch start, delivery)` per accepted
    /// batch, and the fleet's final counters; traced epochs only.
    pub deliveries: Vec<(usize, Instant, Instant)>,
    pub stats: Option<StreamStats>,
}

#[derive(Debug)]
pub struct EpochRun {
    /// Spawn/submit to joined/shut down.
    pub wall: Duration,
    pub tenants: Vec<TenantEpoch>,
    pub service: Option<ServiceReport>,
}

impl EpochRun {
    pub fn outcome(&self) -> EpochOutcome {
        let mut total = EpochOutcome::default();
        self.tenants.iter().for_each(|t| total.absorb(t.outcome));
        total
    }

    pub fn first(&self) -> Option<Duration> {
        self.tenants.iter().filter_map(|t| t.first).min()
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Checking {
    /// Fingerprint every batch against the reference (the set-up gate).
    Full,
    /// Unit identity, row count, exactly-once and order (timed epochs).
    Identity,
}

struct DatasetShape {
    partitions: usize,
    rows: usize,
    group_rows: Option<usize>,
}

fn generate(
    config: &RmConfig,
    shape: &DatasetShape,
    seed: u64,
    ledger: &mut SetupLedger,
) -> Result<Vec<Partition>, String> {
    let mut partitions = Vec::with_capacity(shape.partitions);
    for index in 0..shape.partitions {
        let t0 = Instant::now();
        // Same per-partition seed derivation as `Dataset::generate`.
        let batch = generate_batch(config, shape.rows, seed ^ (index as u64) << 17);
        let t1 = Instant::now();
        let mut writer = FileWriter::new(batch.schema().clone());
        if let Some(group_rows) = shape.group_rows {
            writer = writer.with_group_rows(group_rows);
        }
        writer.write_batch(batch.columns()).map_err(|e| format!("encode: {e}"))?;
        let bytes = writer.finish();
        ledger.generate += t1 - t0;
        ledger.write += t1.elapsed();
        ledger.rows += shape.rows as u64;
        ledger.raw_bytes += batch.byte_size() as u64;
        ledger.stored_bytes += bytes.len() as u64;
        partitions.push(Partition {
            index,
            device: index % DEVICES,
            rows: shape.rows,
            blob: MemBlob::new(bytes),
        });
    }
    Ok(partitions)
}

/// Where the analytic cost model puts each stage of `plan` at `rows` rows
/// per partition: the boundary the split tenant runs at, and the prediction
/// the ledger prints beside its measurements.
pub fn analytic_placement(plan: &PreprocessPlan, rows: usize) -> PlacementPlan {
    place_stages(plan, rows, &OpCostModel::analytic(&IspModel::smartssd()))
}

/// The same bytes behind fresh emulated devices, one per device id.
pub fn behind_devices(
    partitions: &[Partition],
    model: DeviceModel,
) -> (Vec<Partition>, Vec<Arc<Device>>) {
    let devices: Vec<Arc<Device>> = (0..DEVICES).map(|_| Arc::new(Device::new(model))).collect();
    let stored = partitions
        .iter()
        .map(|p| Partition {
            blob: p.blob.clone().behind_device(Arc::clone(&devices[p.device])),
            ..p.clone()
        })
        .collect();
    (stored, devices)
}

impl Tenant {
    #[allow(clippy::too_many_arguments)]
    fn build(
        name: &'static str,
        mut config: RmConfig,
        shape: DatasetShape,
        graph: impl FnOnce(&RmConfig) -> Result<PlanGraph, presto_ops::GraphError>,
        fleet: impl FnOnce(&PreprocessPlan) -> Result<Fleet, String>,
        fleet_config: FleetConfig,
        seed: u64,
        ledger: &mut SetupLedger,
    ) -> Result<Tenant, String> {
        config.batch_size = shape.rows;
        let pristine = generate(&config, &shape, seed, ledger)?;
        let graph = graph(&config).map_err(|e| format!("{name}: graph: {e}"))?;
        let plan =
            PreprocessPlan::compile(graph, &config).map_err(|e| format!("{name}: plan: {e}"))?;
        let fleet = fleet(&plan)?;
        let by_group = matches!(fleet, Fleet::Shuffled(_));
        let reference = Reference::build(&plan, &pristine, by_group)
            .map_err(|e| format!("{name}: reference: {e}"))?;
        let stored = if by_group {
            behind_devices(&pristine, DeviceModel::new(SSD.0, SSD.1)).0
        } else {
            pristine.clone()
        };
        Ok(Tenant {
            name,
            config,
            plan,
            pristine,
            stored,
            fleet,
            fleet_config,
            chaos: false,
            reference,
        })
    }

    /// This tenant as a job whose deliveries a service epoch can check. The
    /// service serves whole partitions, so a shuffled tenant becomes a
    /// host-fleet job over the same stored partitions with a per-partition
    /// reference.
    pub fn as_service_job(&self) -> Result<Tenant, String> {
        let mut job = self.clone();
        if matches!(self.fleet, Fleet::Shuffled(_)) {
            job.fleet = Fleet::Host;
            job.reference = Reference::build(&self.plan, &self.pristine, false)
                .map_err(|e| format!("{}: reference: {e}", self.name))?;
        }
        Ok(job)
    }

    /// The fleet spec of one epoch (only the shuffled fleet's changes).
    pub fn fleet_for(&self, epoch: u64) -> Fleet {
        match &self.fleet {
            Fleet::Shuffled(spec) => Fleet::Shuffled(spec.with_epoch(epoch)),
            other => other.clone(),
        }
    }

    /// The partitions the executor reads in one epoch.
    pub fn partitions_for(&self, seed: u64, epoch: u64) -> Vec<Partition> {
        if !self.chaos {
            return self.stored.clone();
        }
        let injector = FaultPlan::new(seed.wrapping_add(epoch))
            .with_transient_rate(TRANSIENT_RATE)
            .with_device_death(DEATH.0, DEATH.1)
            .arm();
        self.stored
            .iter()
            .map(|p| Partition {
                blob: p.blob.clone().with_faults(&injector, p.device, p.index),
                ..p.clone()
            })
            .collect()
    }

    pub fn recovery(&self) -> RetryPolicy {
        if self.chaos {
            RetryPolicy::recover()
                .with_backoff(Duration::ZERO, Duration::ZERO)
                .with_quarantine_after(2)
        } else {
            RetryPolicy::fail_fast()
        }
    }

    /// The order the epoch's units must arrive in, where the fleet
    /// promises one.
    fn delivery_order(&self, epoch: u64) -> Option<Vec<usize>> {
        match &self.fleet {
            Fleet::Shuffled(spec) => {
                Some(epoch_order(self.reference.units().len(), spec.seed, epoch))
            }
            _ => None,
        }
    }

    /// This tenant's own fleet over its own partitions for one epoch.
    pub fn spawn(&self, seed: u64, epoch: u64) -> Box<dyn BatchSource + Send> {
        let config = self.fleet_config.clone().with_recovery(self.recovery());
        self.fleet_for(epoch).spawn(&self.plan, &self.partitions_for(seed, epoch), &config)
    }
}

/// Drains `source` the way a trainer would, checking every item.
fn consume(
    mut source: Box<dyn BatchSource + Send>,
    tenant: &Tenant,
    epoch: u64,
    started: Instant,
    checking: Checking,
    traced: bool,
) -> TenantEpoch {
    let units = tenant.reference.units().len();
    let mut check = EpochCheck::new(&tenant.reference, tenant.delivery_order(epoch));
    let mut out = TenantEpoch { gaps: Vec::with_capacity(units), ..TenantEpoch::default() };
    let mut last = started;
    while let Some(item) = source.next_batch() {
        let unit = check.observe(&item, checking == Checking::Full);
        let now = Instant::now();
        match out.first {
            None => out.first = Some(now - started),
            Some(_) => out.gaps.push(now - last),
        }
        if let (true, Some(unit)) = (traced, unit) {
            out.deliveries.push((unit, last, now));
        }
        last = now;
    }
    if traced {
        out.stats = Some(source.stats());
    }
    out.outcome = check.finish();
    out
}

impl Workload {
    /// Generates and encodes the datasets, compiles the plans and builds
    /// the serial reference. The gate epoch is the caller's next step.
    pub fn build(name: &str, seed: u64) -> Result<Workload, String> {
        let info = WORKLOADS
            .iter()
            .find(|w| w.name == name)
            .ok_or_else(|| format!("unknown workload {name:?}"))?;
        let mut ledger = SetupLedger::default();
        let plan_seed = seed ^ 0x9e37;
        let canonical = |c: &RmConfig| PlanGraph::canonical(c, plan_seed);
        let whole = |partitions, rows| DatasetShape { partitions, rows, group_rows: None };
        let tenants = match name {
            "rm5_host_mem" => vec![Tenant::build(
                "rm5",
                RmConfig::rm5(),
                whole(8, 1024),
                canonical,
                |_| Ok(Fleet::Host),
                FleetConfig::new(1, 4),
                seed,
                &mut ledger,
            )?],
            "longseq_isp_mem" => vec![Tenant::build(
                "longseq",
                RmConfig::rm_longseq(),
                whole(6, 2048),
                |c| PlanGraph::long_history(c, plan_seed, 8),
                |_| Ok(Fleet::Isp),
                FleetConfig::new(BUSY_THREADS, 4),
                seed,
                &mut ledger,
            )?],
            "rm1_shuffled_ssd" => vec![Tenant::build(
                "rm1",
                RmConfig::rm1(),
                DatasetShape { partitions: 4, rows: 2048, group_rows: Some(SSD_GROUP_ROWS) },
                canonical,
                |_| Ok(Fleet::Shuffled(ShuffleSpec::new(seed ^ 0x5f))),
                FleetConfig::new(BUSY_THREADS, 4),
                seed,
                &mut ledger,
            )?],
            "mixed_service_chaos" => {
                let split = Tenant::build(
                    "split",
                    RmConfig::rm1_lists(),
                    whole(8, 2048),
                    |c| PlanGraph::remapped(c, plan_seed, 100_000),
                    |plan| {
                        plan.split(&analytic_placement(plan, 2048).fleet_assignment())
                            .map(Fleet::Split)
                            .map_err(|e| format!("split: {e}"))
                    },
                    FleetConfig::new(BUSY_THREADS, 4),
                    seed,
                    &mut ledger,
                )?;
                let mut isp_chaos = Tenant::build(
                    "isp_chaos",
                    RmConfig::rm1(),
                    whole(16, 2048),
                    canonical,
                    |_| Ok(Fleet::Isp),
                    FleetConfig::new(BUSY_THREADS, 4),
                    seed ^ 0xc4a05,
                    &mut ledger,
                )?;
                isp_chaos.chaos = true;
                vec![split, isp_chaos]
            }
            _ => unreachable!("name was found in WORKLOADS"),
        };
        Ok(Workload { info, seed, tenants, service: name == "mixed_service_chaos", ledger })
    }

    pub fn units(&self) -> usize {
        self.tenants.iter().map(|t| t.reference.units().len()).sum()
    }

    pub fn rows(&self) -> usize {
        self.tenants.iter().map(|t| t.reference.rows()).sum()
    }

    /// One closed-loop epoch: spawn (or submit), drain to the end, join.
    pub fn run_epoch(
        &self,
        epoch: u64,
        checking: Checking,
        traced: bool,
    ) -> Result<EpochRun, String> {
        if self.service {
            return self.run_service_epoch(&self.tenants, epoch, checking, traced);
        }
        let tenant = &self.tenants[0];
        let started = Instant::now();
        let source = tenant.spawn(self.seed, epoch);
        let drained = consume(source, tenant, epoch, started, checking, traced);
        Ok(EpochRun { wall: started.elapsed(), tenants: vec![drained], service: None })
    }

    /// The tenants as concurrent jobs of one service with a pool of
    /// [`BUSY_THREADS`], each drained by its own consumer thread.
    pub fn run_service_epoch(
        &self,
        tenants: &[Tenant],
        epoch: u64,
        checking: Checking,
        traced: bool,
    ) -> Result<EpochRun, String> {
        let started = Instant::now();
        let service = PreprocessService::new(
            ServiceConfig::new(BUSY_THREADS)
                .with_max_active_jobs(tenants.len())
                .with_job_capacity(4),
        );
        let mut handles = Vec::with_capacity(tenants.len());
        for tenant in tenants {
            let spec = JobSpec::new(
                tenant.name,
                tenant.plan.clone(),
                tenant.partitions_for(self.seed, epoch),
            )
            .with_fleet(tenant.fleet_for(epoch))
            .with_recovery(tenant.recovery());
            handles.push(
                service.submit(spec).map_err(|e| format!("{}: admission: {e}", tenant.name))?,
            );
        }
        let drained = std::thread::scope(|scope| {
            let consumers: Vec<_> = handles
                .into_iter()
                .zip(tenants)
                .map(|(handle, tenant)| {
                    scope.spawn(move || {
                        consume(Box::new(handle), tenant, epoch, started, checking, traced)
                    })
                })
                .collect();
            consumers
                .into_iter()
                .map(|c| c.join().map_err(|_| "a consumer thread panicked".to_owned()))
                .collect::<Result<Vec<_>, _>>()
        })?;
        let report = service.shutdown();
        Ok(EpochRun { wall: started.elapsed(), tenants: drained, service: Some(report) })
    }
}
