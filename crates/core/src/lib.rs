//! # presto-core
//!
//! The PreSto system layer of the ISCA 2024 reproduction: everything above
//! the device models and the streaming engine, and below the reproduction
//! harness.
//!
//! * [`systems::System`] — the four preprocessing architectures the paper
//!   compares (co-located, disaggregated CPU pool, accelerator pools,
//!   PreSto ISP).
//! * [`provision::Provisioner`] — the `⌈T/P⌉` sizing rule of Fig. 9's
//!   train and preprocess managers (Figs. 4/14).
//! * [`placement`] — cost-model-driven host/ISP placement of a compiled
//!   plan's operator stages.
//! * [`service::PreprocessService`] — the multi-tenant preprocessing
//!   service: N concurrent jobs share one device pool under weighted-fair
//!   dispatch with admission control and per-job SLO tracking.
//! * [`pipeline`] — the [`Trainer`] that consumes any [`BatchSource`], and
//!   the discrete-event producer–consumer simulation behind GPU-utilization
//!   numbers (Fig. 3).
//!
//! [`Fleet`] and [`BatchSource`] are the streaming engine's
//! ([`presto_ops::stream`]), re-exported here beside the service and the
//! trainer that take them. The per-figure data generators live in
//! `presto-bench`, with the harness that prints them.
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

pub mod isp_worker;
pub mod pipeline;
pub mod placement;
pub mod provision;
pub mod service;
pub mod systems;

pub use isp_worker::{IspRunStats, IspWorker};
pub use pipeline::{
    simulate, simulate_measured, PipelineConfig, PipelineReport, Trainer, TrainerConfig,
    TrainerReport,
};
pub use placement::{place_stages, OpCostModel, Place, PlacementPlan, StagePlacement};
pub use presto_ops::stream::{BatchSource, Fleet};
pub use provision::{MeasuredThroughput, Provisioner};
pub use service::{
    AdmissionError, JobHandle, JobReport, JobSpec, JobStatus, PreprocessService, ServiceConfig,
    ServiceReport,
};
pub use systems::System;
