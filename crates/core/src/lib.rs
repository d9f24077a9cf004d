//! # presto-core
//!
//! The PreSto system layer of the ISCA 2024 reproduction: everything above
//! the device models and below the benchmark harness.
//!
//! * [`systems::System`] — the four preprocessing architectures the paper
//!   compares (co-located, disaggregated CPU pool, accelerator pools,
//!   PreSto ISP).
//! * [`provision::Provisioner`] — the `⌈T/P⌉` sizing rule of Fig. 9's
//!   train and preprocess managers (Figs. 4/14).
//! * [`pipeline`] — the discrete-event producer–consumer simulation behind
//!   GPU-utilization numbers (Fig. 3).
//! * [`placement`] — cost-model-driven host/ISP placement of a compiled
//!   plan's operator stages.
//! * [`fleet::Fleet`] — the fleet spec: host, ISP, split or shuffled, each
//!   a configuration of the one streaming engine
//!   ([`presto_ops::stream`]), spawned as an interchangeable
//!   [`pipeline::BatchSource`].
//! * [`service::PreprocessService`] — the multi-tenant preprocessing
//!   service: N concurrent jobs share one device pool under weighted-fair
//!   dispatch with admission control and per-job SLO tracking.
//! * [`experiments`] — one data generator per evaluation figure.
//!
//! ## Example: reproduce the headline comparison on RM5
//!
//! ```
//! use presto_core::systems::System;
//! use presto_datagen::{RmConfig, WorkloadProfile};
//!
//! let profile = WorkloadProfile::from_config(&RmConfig::rm5());
//! let presto = System::presto_smartssd(1);
//! let disagg32 = System::disagg(32);
//! assert!(presto.throughput(&profile) > disagg32.throughput(&profile));
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod experiments;
pub mod fleet;
pub mod isp_worker;
pub mod pipeline;
pub mod placement;
pub mod provision;
pub mod service;
#[cfg(test)]
mod split;
pub mod systems;

pub use experiments::{isp_vs_cpu_end_to_end, EndToEndPoint};
pub use fleet::Fleet;
pub use isp_worker::{IspRunStats, IspWorker};
pub use pipeline::{
    simulate, simulate_measured, BatchSource, PipelineConfig, PipelineReport, Trainer,
    TrainerConfig, TrainerReport,
};
pub use placement::{place_stages, OpCostModel, Place, PlacementPlan, StagePlacement};
pub use provision::{MeasuredThroughput, Provisioner};
pub use service::{
    AdmissionError, JobHandle, JobReport, JobSpec, JobStatus, PreprocessService, ServiceConfig,
    ServiceReport,
};
pub use systems::System;
