//! End-to-end training-pipeline simulation (Fig. 9's producer–consumer
//! loop), driven by the discrete-event engine.
//!
//! Preprocessing workers independently produce mini-batches into the train
//! manager's bounded input queue; the GPU trainer consumes them. The
//! simulation reports GPU utilization, queue occupancy and makespan — the
//! quantities behind Fig. 3.
//!
//! Two arrival models drive the producer side:
//!
//! * [`simulate`] — the analytic model: every worker produces at its
//!   steady-state per-worker throughput ([`System::per_worker_throughput`]).
//! * [`simulate_measured`] — the calibration hook: replay a *measured*
//!   inter-arrival process, e.g. the consumer-side gaps recorded from a
//!   real `presto_ops::stream::BatchStream` run, so the simulated trainer
//!   is driven by the executor actually built in this repo rather than an
//!   idealized rate.
//!
//! The *executable* counterpart of the simulation is the [`Trainer`]: a
//! real consumer that pulls mini-batches off a [`BatchSource`] (the host
//! streaming executor or the ISP emulation), spends calibrated per-batch
//! compute on each ([`TrainerConfig::for_model`]), and reports
//! consumer-side goodput, stall time and queue-occupancy histograms. Its
//! measured inter-arrival trace feeds [`simulate_measured`]
//! ([`TrainerReport::replay`]), closing the loop between the built system
//! and the model.

use presto_datagen::{RmConfig, WorkloadProfile};
use presto_hwsim::event::EventQueue;
use presto_hwsim::gpu::GpuTrainModel;
use presto_hwsim::units::Secs;
use presto_ops::executor::PreprocessError;
use presto_ops::recovery::RunReport;
use presto_ops::stream::{inter_arrivals, BatchSource, StreamStats};
use std::time::{Duration, Instant};

use crate::systems::System;

/// Configuration of one simulated run.
#[derive(Debug, Clone)]
pub struct PipelineConfig {
    /// Mini-batches to train before stopping.
    pub batches: usize,
    /// Input-queue capacity (mini-batches); producers stall when full.
    pub queue_capacity: usize,
    /// Number of GPUs consuming batches.
    pub num_gpus: usize,
}

impl Default for PipelineConfig {
    fn default() -> Self {
        PipelineConfig { batches: 64, queue_capacity: 8, num_gpus: 1 }
    }
}

/// Result of a simulated run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PipelineReport {
    /// Total simulated wall-clock time.
    pub makespan: Secs,
    /// Time the GPUs spent actually training.
    pub gpu_busy: Secs,
    /// GPU utilization in `[0, 1]` (busy time over `num_gpus × makespan`).
    pub gpu_utilization: f64,
    /// Mini-batches trained.
    pub batches_trained: usize,
    /// Effective end-to-end training throughput, samples/sec.
    pub training_throughput: f64,
    /// Peak input-queue occupancy observed.
    pub peak_queue: usize,
}

#[derive(Debug)]
enum Event {
    /// A preprocessing worker finished a mini-batch.
    BatchReady { worker: usize },
    /// A GPU finished training a mini-batch.
    GpuDone { gpu: usize },
}

/// Simulates `config.batches` mini-batches flowing through `system` into
/// `gpu` trainers.
///
/// Producers are modeled at their steady-state per-worker throughput;
/// trainers at their per-step time. The bounded queue applies back-pressure:
/// a worker with a ready batch waits for space before starting its next one.
#[must_use]
pub fn simulate(
    system: &System,
    gpu: &GpuTrainModel,
    model: &RmConfig,
    config: &PipelineConfig,
) -> PipelineReport {
    let profile = WorkloadProfile::from_config(model);
    let workers = system.parallelism().max(1);
    let per_worker = system.per_worker_throughput(&profile);
    let batch_interval = Secs::new(profile.rows as f64 / per_worker);
    let step_time = gpu.step_time(model);
    let num_gpus = config.num_gpus.max(1);

    let mut queue: usize = 0; // ready batches waiting for a GPU
    let mut started = 0usize; // batches whose production has begun
    let mut trained = 0usize;
    // Workers holding a finished batch because the queue is full
    // (a producer blocks on its push, as in the real input queue).
    let mut blocked_workers: Vec<usize> = Vec::new();
    let mut idle_gpus: Vec<usize> = (0..num_gpus).collect();
    let mut gpu_busy = Secs::ZERO;
    let mut peak_queue = 0usize;
    let mut first_arrival: Option<Secs> = None;

    let mut events: EventQueue<Event> = EventQueue::new();
    // Kick off the first wave of production. Workers are staggered across
    // one batch interval, as a running fleet would be — without this the
    // simulation produces artificial arrival bursts.
    for worker in 0..workers {
        if started < config.batches {
            started += 1;
            let offset = batch_interval * (worker as f64 / workers as f64);
            events.schedule_after(batch_interval + offset, Event::BatchReady { worker });
        }
    }

    let start_next = |events: &mut EventQueue<Event>, started: &mut usize, worker: usize| {
        if *started < config.batches {
            *started += 1;
            events.schedule_after(batch_interval, Event::BatchReady { worker });
        }
    };

    while let Some((now, event)) = events.pop() {
        match event {
            Event::BatchReady { worker } => {
                first_arrival.get_or_insert(now);
                if let Some(gpu_id) = idle_gpus.pop() {
                    // Hand straight to an idle GPU, bypassing the queue.
                    gpu_busy += step_time;
                    events.schedule_after(step_time, Event::GpuDone { gpu: gpu_id });
                    start_next(&mut events, &mut started, worker);
                } else if queue < config.queue_capacity {
                    queue += 1;
                    peak_queue = peak_queue.max(queue);
                    start_next(&mut events, &mut started, worker);
                } else {
                    // Queue full: the worker blocks holding its batch.
                    blocked_workers.push(worker);
                }
            }
            Event::GpuDone { gpu: gpu_id } => {
                trained += 1;
                if queue > 0 {
                    queue -= 1;
                    gpu_busy += step_time;
                    events.schedule_after(step_time, Event::GpuDone { gpu: gpu_id });
                    // Space freed: one blocked worker delivers and resumes.
                    if let Some(worker) = blocked_workers.pop() {
                        queue += 1;
                        start_next(&mut events, &mut started, worker);
                    }
                } else if let Some(worker) = blocked_workers.pop() {
                    // Zero-capacity queue: hand the held batch over directly.
                    gpu_busy += step_time;
                    events.schedule_after(step_time, Event::GpuDone { gpu: gpu_id });
                    start_next(&mut events, &mut started, worker);
                } else {
                    idle_gpus.push(gpu_id);
                }
            }
        }
        if trained >= config.batches {
            break;
        }
    }

    let makespan = events.now();
    // Utilization and throughput are measured over the steady window from
    // the first batch arrival (the paper measures a running pipeline, not
    // cold start).
    let window = match first_arrival {
        Some(t) if makespan > t => makespan - t,
        _ => makespan,
    };
    let denom = window.seconds() * num_gpus as f64;
    PipelineReport {
        makespan,
        gpu_busy,
        gpu_utilization: if denom == 0.0 { 0.0 } else { (gpu_busy.seconds() / denom).min(1.0) },
        batches_trained: trained,
        training_throughput: trained as f64 * profile.rows as f64 / window.seconds().max(1e-12),
        peak_queue,
    }
}

/// Simulates `config.batches` mini-batches arriving with the *measured*
/// inter-arrival gaps `inter_arrivals` (replayed cyclically when the run is
/// longer than the recording) flowing into `gpu` trainers.
///
/// The measured process already folds in worker parallelism, Extract
/// overlap and device contention, so it is modeled as one aggregated
/// producer; the bounded queue still applies back-pressure — when it is
/// full the producer holds its batch and the remaining arrivals shift
/// later, exactly like a blocked `send` on the real output channel.
///
/// An empty `inter_arrivals` means "instant arrivals" (a producer that is
/// never the bottleneck).
#[must_use]
pub fn simulate_measured(
    inter_arrivals: &[Duration],
    gpu: &GpuTrainModel,
    model: &RmConfig,
    config: &PipelineConfig,
) -> PipelineReport {
    let profile = WorkloadProfile::from_config(model);
    let step_time = gpu.step_time(model);
    let num_gpus = config.num_gpus.max(1);
    let gaps: Vec<Secs> = if inter_arrivals.is_empty() {
        vec![Secs::ZERO]
    } else {
        inter_arrivals.iter().map(|d| Secs::new(d.as_secs_f64())).collect()
    };

    let mut queue: usize = 0;
    let mut started = 0usize;
    let mut trained = 0usize;
    // The producer holding a finished batch because the queue is full.
    let mut producer_blocked = false;
    let mut idle_gpus: Vec<usize> = (0..num_gpus).collect();
    let mut gpu_busy = Secs::ZERO;
    let mut peak_queue = 0usize;
    let mut first_arrival: Option<Secs> = None;

    let mut events: EventQueue<Event> = EventQueue::new();
    if config.batches > 0 {
        started = 1;
        events.schedule_after(gaps[0], Event::BatchReady { worker: 0 });
    }

    let start_next = |events: &mut EventQueue<Event>, started: &mut usize| {
        if *started < config.batches {
            let gap = gaps[*started % gaps.len()];
            *started += 1;
            events.schedule_after(gap, Event::BatchReady { worker: 0 });
        }
    };

    while let Some((now, event)) = events.pop() {
        match event {
            Event::BatchReady { .. } => {
                first_arrival.get_or_insert(now);
                if let Some(gpu_id) = idle_gpus.pop() {
                    gpu_busy += step_time;
                    events.schedule_after(step_time, Event::GpuDone { gpu: gpu_id });
                    start_next(&mut events, &mut started);
                } else if queue < config.queue_capacity {
                    queue += 1;
                    peak_queue = peak_queue.max(queue);
                    start_next(&mut events, &mut started);
                } else {
                    producer_blocked = true;
                }
            }
            Event::GpuDone { gpu: gpu_id } => {
                trained += 1;
                if queue > 0 {
                    queue -= 1;
                    gpu_busy += step_time;
                    events.schedule_after(step_time, Event::GpuDone { gpu: gpu_id });
                    if producer_blocked {
                        queue += 1;
                        producer_blocked = false;
                        start_next(&mut events, &mut started);
                    }
                } else if producer_blocked {
                    gpu_busy += step_time;
                    events.schedule_after(step_time, Event::GpuDone { gpu: gpu_id });
                    producer_blocked = false;
                    start_next(&mut events, &mut started);
                } else {
                    idle_gpus.push(gpu_id);
                }
            }
        }
        if trained >= config.batches {
            break;
        }
    }

    let makespan = events.now();
    let window = match first_arrival {
        Some(t) if makespan > t => makespan - t,
        _ => makespan,
    };
    let denom = window.seconds() * num_gpus as f64;
    PipelineReport {
        makespan,
        gpu_busy,
        gpu_utilization: if denom == 0.0 { 0.0 } else { (gpu_busy.seconds() / denom).min(1.0) },
        batches_trained: trained,
        training_throughput: trained as f64 * profile.rows as f64 / window.seconds().max(1e-12),
        peak_queue,
    }
}

// ---------------------------------------------------------------------------
// Trainer in the loop: a real consumer for the streaming executor.
// ---------------------------------------------------------------------------

/// How the trainer prices the compute of one mini-batch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Compute {
    /// Fixed wall-clock time per mini-batch, whatever its size.
    PerBatch(Duration),
    /// Wall-clock time per sample (per-RM-model calibration: the GPU step
    /// time divided by the model's batch size, so partitions of any size
    /// are priced consistently).
    PerRow(Duration),
}

/// Configuration of a [`Trainer`]: how long the consumer computes on each
/// mini-batch it pulls off the stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TrainerConfig {
    compute: Compute,
}

impl TrainerConfig {
    /// A trainer that consumes batches instantly (measures pure supply).
    #[must_use]
    pub fn instant() -> Self {
        TrainerConfig { compute: Compute::PerBatch(Duration::ZERO) }
    }

    /// A trainer that spends `step` of wall-clock compute per mini-batch.
    #[must_use]
    pub fn per_batch(step: Duration) -> Self {
        TrainerConfig { compute: Compute::PerBatch(step) }
    }

    /// Per-RM-model calibration: prices compute at `gpu.step_time(model) /
    /// model.batch_size` per sample, scaled by `time_scale` (1.0 replays
    /// the A100's real pace; smaller values shrink wall-clock time while
    /// preserving the compute-to-supply ratio). This is what makes trainer
    /// runs on small test partitions comparable to the full-batch analytic
    /// model — and what calibrates [`simulate_measured`] traces per model.
    #[must_use]
    pub fn for_model(gpu: &GpuTrainModel, model: &RmConfig, time_scale: f64) -> Self {
        let per_row =
            gpu.step_time(model).seconds() * time_scale.max(0.0) / model.batch_size.max(1) as f64;
        TrainerConfig { compute: Compute::PerRow(Duration::from_secs_f64(per_row)) }
    }

    /// Compute time charged for a mini-batch of `rows` samples.
    #[must_use]
    pub fn step_for(&self, rows: usize) -> Duration {
        match self.compute {
            Compute::PerBatch(step) => step,
            Compute::PerRow(per_row) => {
                per_row.saturating_mul(u32::try_from(rows).unwrap_or(u32::MAX))
            }
        }
    }
}

/// What the trainer observed while consuming one stream end to end.
///
/// All quantities are **consumer-side**: goodput is rows per second as seen
/// by the trainer, stall is time the trainer sat idle waiting for the
/// producers, and the occupancy histogram samples the bounded channel at
/// every pull. This is the measurement the paper's end-to-end claim is
/// about — a `Vec` drain can report producer throughput, only a consumer
/// can report whether the trainer stayed fed.
#[derive(Debug, Clone, PartialEq)]
pub struct TrainerReport {
    /// Mini-batches trained.
    pub batches: usize,
    /// Samples trained.
    pub rows: usize,
    /// Wall-clock time from starting to consume until the last batch was
    /// trained (includes the pipeline-fill cold start).
    pub elapsed: Duration,
    /// Emulated GPU compute time.
    pub compute: Duration,
    /// Time spent blocked on the stream with an idle trainer (includes the
    /// wait for the first batch).
    pub stall: Duration,
    /// Consumer-side goodput, samples/sec (`rows / elapsed`).
    pub goodput: f64,
    /// Trainer utilization in `[0, 1]`: `compute / (compute + stall)`.
    pub utilization: f64,
    /// Queue-occupancy histogram: `occupancy[q]` counts pulls that found
    /// `q` mini-batches buffered in the channel (length = capacity + 1).
    pub occupancy: Vec<u64>,
    /// Measured consumer-side inter-arrival gaps, ready to replay through
    /// [`simulate_measured`] (per-RM-model calibration).
    pub inter_arrivals: Vec<Duration>,
    /// Final [`BatchSource::stats`] snapshot of the producer fleet:
    /// completed partitions, emulated P2P / boundary link traffic, and the
    /// fleet's recovery activity (retries, failovers, quarantines,
    /// per-device fault counts) when the source tracks recovery.
    pub stream: StreamStats,
}

impl TrainerReport {
    /// The producer fleet's recovery activity, when the source reported
    /// one (shorthand for `self.stream.recovery.as_ref()`).
    #[must_use]
    pub fn recovery(&self) -> Option<&RunReport> {
        self.stream.recovery.as_ref()
    }

    /// Share of wall-clock time the trainer spent stalled.
    #[must_use]
    pub fn stall_share(&self) -> f64 {
        let total = self.elapsed.as_secs_f64();
        if total == 0.0 {
            0.0
        } else {
            (self.stall.as_secs_f64() / total).min(1.0)
        }
    }

    /// Mean channel occupancy observed across all pulls.
    #[must_use]
    pub fn mean_occupancy(&self) -> f64 {
        let pulls: u64 = self.occupancy.iter().sum();
        if pulls == 0 {
            return 0.0;
        }
        let weighted: u64 = self.occupancy.iter().enumerate().map(|(q, &n)| q as u64 * n).sum();
        weighted as f64 / pulls as f64
    }

    /// Replays this run's measured inter-arrival process through the
    /// discrete-event trainer simulation — the calibration loop that ties
    /// [`simulate_measured`] to the executor actually built in this repo.
    #[must_use]
    pub fn replay(
        &self,
        gpu: &GpuTrainModel,
        model: &RmConfig,
        config: &PipelineConfig,
    ) -> PipelineReport {
        simulate_measured(&self.inter_arrivals, gpu, model, config)
    }
}

/// The consuming trainer: pulls mini-batches from a [`BatchSource`],
/// spends [`TrainerConfig`]'s compute on each, and reports consumer-side
/// goodput, stall time and queue occupancy.
#[derive(Debug, Clone, Copy)]
pub struct Trainer {
    config: TrainerConfig,
}

impl Trainer {
    /// Creates a trainer with the given compute model.
    #[must_use]
    pub fn new(config: TrainerConfig) -> Self {
        Trainer { config }
    }

    /// The trainer's compute model.
    #[must_use]
    pub fn config(&self) -> TrainerConfig {
        self.config
    }

    /// Consumes `source` to exhaustion, training every mini-batch.
    ///
    /// # Errors
    ///
    /// Returns the first producer error; dropping the source on the way
    /// out stops the remaining producers.
    pub fn run<S: BatchSource>(&self, mut source: S) -> Result<TrainerReport, PreprocessError> {
        let capacity = source.capacity().max(1);
        let mut occupancy = vec![0u64; capacity + 1];
        let mut arrivals: Vec<Duration> = Vec::new();
        let mut stall = Duration::ZERO;
        let mut compute = Duration::ZERO;
        let mut rows = 0usize;
        let mut batches = 0usize;
        let start = Instant::now();
        loop {
            let wait_from = Instant::now();
            let Some(item) = source.next_batch() else { break };
            let streamed = item?;
            stall += wait_from.elapsed();
            occupancy[source.queued().min(capacity)] += 1;
            arrivals.push(streamed.arrived);
            let batch_rows = streamed.batch.rows();
            let step = self.config.step_for(batch_rows);
            if !step.is_zero() {
                std::thread::sleep(step);
            }
            compute += step;
            rows += batch_rows;
            batches += 1;
        }
        let elapsed = start.elapsed();
        let busy = compute + stall;
        // Snapshot the fleet's consolidated counters before the source
        // drops (final: every producer has delivered or failed by now).
        let stream = source.stats();
        Ok(TrainerReport {
            batches,
            rows,
            elapsed,
            compute,
            stall,
            goodput: rows as f64 / elapsed.as_secs_f64().max(1e-12),
            utilization: if busy.is_zero() {
                0.0
            } else {
                compute.as_secs_f64() / busy.as_secs_f64()
            },
            occupancy,
            inter_arrivals: inter_arrivals(&arrivals),
            stream,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(system: &System, batches: usize) -> PipelineReport {
        let gpu = GpuTrainModel::a100();
        simulate(
            system,
            &gpu,
            &RmConfig::rm5(),
            &PipelineConfig { batches, queue_capacity: 8, num_gpus: 1 },
        )
    }

    #[test]
    fn starved_gpu_has_low_utilization() {
        // 16 co-located workers on RM5: the Fig. 3 situation (< 20% util).
        let report = run(&System::colocated(16), 48);
        assert!(
            report.gpu_utilization < 0.25,
            "colocated(16) utilization {:.2}",
            report.gpu_utilization
        );
        assert_eq!(report.batches_trained, 48);
    }

    #[test]
    fn provisioned_fleet_saturates_gpu() {
        // Enough Disagg cores to exceed demand: utilization near 1.
        let report = run(&System::disagg(400), 48);
        assert!(report.gpu_utilization > 0.9, "utilization {:.2}", report.gpu_utilization);
    }

    #[test]
    fn more_workers_never_hurt() {
        let a = run(&System::disagg(16), 32).training_throughput;
        let b = run(&System::disagg(64), 32).training_throughput;
        let c = run(&System::disagg(256), 32).training_throughput;
        assert!(b > a);
        assert!(c >= b * 0.99);
    }

    #[test]
    fn queue_respects_capacity() {
        let gpu = GpuTrainModel::a100();
        let report = simulate(
            &System::disagg(512),
            &gpu,
            &RmConfig::rm5(),
            &PipelineConfig { batches: 64, queue_capacity: 4, num_gpus: 1 },
        );
        assert!(report.peak_queue <= 4 + 1, "peak queue {}", report.peak_queue);
    }

    #[test]
    fn training_throughput_capped_by_gpu() {
        let gpu = GpuTrainModel::a100();
        let max = gpu.max_throughput(&RmConfig::rm5());
        let report = run(&System::disagg(1024), 64);
        assert!(report.training_throughput <= max * 1.01);
        assert!(report.training_throughput > max * 0.8);
    }

    #[test]
    fn multi_gpu_needs_proportional_supply() {
        let gpu = GpuTrainModel::a100();
        let single = simulate(
            &System::presto_smartssd(2),
            &gpu,
            &RmConfig::rm5(),
            &PipelineConfig { batches: 64, queue_capacity: 8, num_gpus: 1 },
        );
        let eight = simulate(
            &System::presto_smartssd(2),
            &gpu,
            &RmConfig::rm5(),
            &PipelineConfig { batches: 64, queue_capacity: 8, num_gpus: 8 },
        );
        assert!(eight.gpu_utilization < single.gpu_utilization);
    }

    #[test]
    fn measured_fast_arrivals_saturate_the_gpu() {
        let gpu = GpuTrainModel::a100();
        let step = gpu.step_time(&RmConfig::rm1()).seconds();
        // Arrivals 50x faster than training: the GPU is the bottleneck.
        let gaps = vec![Duration::from_secs_f64(step / 50.0); 16];
        let report = simulate_measured(
            &gaps,
            &gpu,
            &RmConfig::rm1(),
            &PipelineConfig { batches: 128, queue_capacity: 8, num_gpus: 1 },
        );
        assert_eq!(report.batches_trained, 128);
        assert!(report.gpu_utilization > 0.95, "utilization {:.3}", report.gpu_utilization);
        assert!(report.peak_queue <= 8, "peak queue {}", report.peak_queue);
    }

    #[test]
    fn measured_slow_arrivals_starve_the_gpu_proportionally() {
        let gpu = GpuTrainModel::a100();
        let step = gpu.step_time(&RmConfig::rm1()).seconds();
        // One batch every 4 step-times: utilization must settle near 25%.
        let gaps = vec![Duration::from_secs_f64(step * 4.0)];
        let report = simulate_measured(
            &gaps,
            &gpu,
            &RmConfig::rm1(),
            &PipelineConfig { batches: 64, queue_capacity: 8, num_gpus: 1 },
        );
        assert!(
            (report.gpu_utilization - 0.25).abs() < 0.05,
            "utilization {:.3}",
            report.gpu_utilization
        );
    }

    #[test]
    fn measured_replay_cycles_and_respects_capacity() {
        let gpu = GpuTrainModel::a100();
        // Bursty trace shorter than the run: two instant arrivals then a
        // long silence, replayed cyclically through a capacity-2 queue.
        let step = gpu.step_time(&RmConfig::rm1()).seconds();
        let gaps = [0.0, 0.0, step * 3.0].map(Duration::from_secs_f64);
        let report = simulate_measured(
            &gaps,
            &gpu,
            &RmConfig::rm1(),
            &PipelineConfig { batches: 32, queue_capacity: 2, num_gpus: 1 },
        );
        assert_eq!(report.batches_trained, 32);
        assert!(report.peak_queue <= 2, "peak queue {}", report.peak_queue);
        assert!(report.training_throughput > 0.0);
    }

    #[test]
    fn measured_empty_trace_means_instant_supply() {
        let gpu = GpuTrainModel::a100();
        let report = simulate_measured(
            &[],
            &gpu,
            &RmConfig::rm1(),
            &PipelineConfig { batches: 16, queue_capacity: 4, num_gpus: 1 },
        );
        assert_eq!(report.batches_trained, 16);
        assert!(report.gpu_utilization > 0.99, "utilization {:.3}", report.gpu_utilization);
    }

    #[test]
    fn zero_batches_terminate() {
        let gpu = GpuTrainModel::a100();
        let report = simulate(
            &System::disagg(4),
            &gpu,
            &RmConfig::rm1(),
            &PipelineConfig { batches: 0, queue_capacity: 4, num_gpus: 1 },
        );
        assert_eq!(report.batches_trained, 0);
    }

    // --- Trainer in the loop ---

    use presto_datagen::Dataset;
    use presto_ops::{BatchStream, FleetConfig, PreprocessPlan};

    fn tiny_dataset(partitions: usize, rows: usize) -> (RmConfig, PreprocessPlan, Dataset) {
        let mut c = RmConfig::rm1();
        c.batch_size = rows;
        let plan = PreprocessPlan::from_config(&c, 1).expect("plan");
        let ds = Dataset::generate(&c, partitions, rows, 2, 11).expect("dataset");
        (c, plan, ds)
    }

    #[test]
    fn instant_trainer_consumes_every_batch() {
        let (_, plan, ds) = tiny_dataset(6, 64);
        let stream = BatchStream::spawn(&plan, ds.partitions(), &FleetConfig::new(2, 3));
        let report = Trainer::new(TrainerConfig::instant()).run(stream).expect("trains");
        assert_eq!(report.batches, 6);
        assert_eq!(report.rows, 6 * 64);
        assert!(report.goodput > 0.0);
        assert_eq!(report.occupancy.len(), 3 + 1);
        assert_eq!(report.occupancy.iter().sum::<u64>(), 6, "one sample per pull");
        assert_eq!(report.inter_arrivals.len(), 5, "N batches give N-1 gaps");
        assert_eq!(report.compute, Duration::ZERO);
        assert!(report.utilization < 1.0, "an instant trainer only ever stalls");
    }

    #[test]
    fn slow_trainer_keeps_the_queue_full_and_rarely_stalls() {
        let (_, plan, ds) = tiny_dataset(8, 32);
        let stream = BatchStream::spawn(&plan, ds.partitions(), &FleetConfig::new(2, 2));
        let trainer = Trainer::new(TrainerConfig::per_batch(Duration::from_millis(5)));
        let report = trainer.run(stream).expect("trains");
        assert_eq!(report.batches, 8);
        assert!(report.compute >= Duration::from_millis(40));
        assert!(
            report.utilization > 0.5,
            "a 5ms/batch trainer over tiny partitions must be compute-bound, got {:.2}",
            report.utilization
        );
        // After the first pull the producers run ahead: most pulls must
        // find a non-empty queue.
        let nonempty: u64 = report.occupancy[1..].iter().sum();
        assert!(nonempty >= 4, "occupancy {:?}", report.occupancy);
        assert!(report.stall_share() < 0.5, "stall share {:.2}", report.stall_share());
    }

    #[test]
    fn trainer_surfaces_producer_errors() {
        let (_, plan, ds) = tiny_dataset(4, 32);
        let mut partitions = ds.partitions().to_vec();
        let bytes = partitions[1].blob.as_bytes().to_vec();
        partitions[1].blob = presto_columnar::MemBlob::new(bytes[..bytes.len() / 3].to_vec());
        let stream = BatchStream::spawn(&plan, &partitions, &FleetConfig::new(1, 2));
        let result = Trainer::new(TrainerConfig::instant()).run(stream);
        assert!(result.is_err(), "corrupt partition must surface to the trainer");
    }

    #[test]
    fn per_model_calibration_prices_rows_not_batches() {
        let gpu = GpuTrainModel::a100();
        let config = RmConfig::rm1();
        let calibrated = TrainerConfig::for_model(&gpu, &config, 1.0);
        let full = calibrated.step_for(config.batch_size);
        let expected = gpu.step_time(&config).seconds();
        assert!((full.as_secs_f64() - expected).abs() < expected * 0.01);
        // Half the rows cost half the compute; scale shrinks linearly.
        let half = calibrated.step_for(config.batch_size / 2);
        assert!((half.as_secs_f64() * 2.0 - expected).abs() < expected * 0.02);
        let scaled = TrainerConfig::for_model(&gpu, &config, 0.25).step_for(config.batch_size);
        assert!((scaled.as_secs_f64() * 4.0 - expected).abs() < expected * 0.02);
        assert_eq!(TrainerConfig::instant().step_for(1024), Duration::ZERO);
    }

    #[test]
    fn trainer_trace_replays_through_the_simulation() {
        let (config, plan, ds) = tiny_dataset(8, 64);
        let stream = BatchStream::spawn(&plan, ds.partitions(), &FleetConfig::new(2, 4));
        let report = Trainer::new(TrainerConfig::instant()).run(stream).expect("trains");
        let gpu = GpuTrainModel::a100();
        let sim = report.replay(
            &gpu,
            &config,
            &PipelineConfig { batches: 32, queue_capacity: 8, num_gpus: 1 },
        );
        assert_eq!(sim.batches_trained, 32);
        assert!(sim.gpu_utilization > 0.0);
    }

    #[test]
    fn mean_occupancy_weights_the_histogram() {
        let report = TrainerReport {
            batches: 4,
            rows: 4,
            elapsed: Duration::from_secs(1),
            compute: Duration::ZERO,
            stall: Duration::from_secs(1),
            goodput: 4.0,
            utilization: 0.0,
            occupancy: vec![2, 0, 2],
            inter_arrivals: Vec::new(),
            stream: StreamStats::default(),
        };
        assert!((report.mean_occupancy() - 1.0).abs() < 1e-12);
        assert!((report.stall_share() - 1.0).abs() < 1e-12);
    }
}
