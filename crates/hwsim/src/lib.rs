//! # presto-hwsim
//!
//! Device cost models for the PreSto reproduction (ISCA 2024). The paper's
//! evaluation runs on hardware we cannot access (SmartSSDs, A100s, Xeon
//! pools, 10 GbE), so this crate models each device from first-order
//! quantities — bytes moved, elements transformed, unit rates, link
//! bandwidths — with constants calibrated against the paper's own PoC
//! measurements (see [`calib`]; `tests/paper_shape.rs` pins the bands).
//!
//! * [`cpu::CpuWorkerModel`] — one TorchArrow worker on one Xeon core
//!   (the Fig. 5 baseline).
//! * [`fpga::IspModel`] — the PreSto ISP accelerator (Fig. 10), in
//!   SmartSSD, PreSto(U280) and disaggregated-U280 builds.
//! * [`gpu::GpuTrainModel`] / [`gpu::GpuPreprocessModel`] — the A100 as
//!   trainer (Fig. 3's demand) and as NVTabular preprocessor (Fig. 16).
//! * [`net::NetworkModel`] — 10 GbE + RPC overhead (Fig. 13).
//! * [`ssd::SsdModel`] — NVMe read bandwidth, host path and P2P (the
//!   device queue is `presto_columnar::DeviceModel`'s).
//! * [`cache::CacheSim`] + [`trace`] — trace-driven LLC simulation behind
//!   the Fig. 6 characterization.
//! * [`event::EventQueue`] — deterministic discrete-event engine for the
//!   end-to-end pipeline simulation in `presto-core`.
//! * [`power`] — node/device power for the Fig. 15 energy comparison.
//!
//! ## Example: one SmartSSD vs one CPU core on RM5
//!
//! ```
//! use presto_datagen::{RmConfig, WorkloadProfile};
//! use presto_hwsim::cpu::{CpuWorkerModel, DataLocality};
//! use presto_hwsim::fpga::IspModel;
//!
//! let profile = WorkloadProfile::from_config(&RmConfig::rm5());
//! let cpu = CpuWorkerModel::poc();
//! let isp = IspModel::smartssd();
//!
//! let cpu_latency = cpu.stage_breakdown(&profile, DataLocality::RemoteStorage).total();
//! let isp_latency = isp.latency(&profile);
//! assert!(isp_latency < cpu_latency); // the paper's headline result
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod breakdown;
pub mod cache;
pub mod calib;
pub mod cpu;
pub mod event;
pub mod fpga;
pub mod gpu;
pub mod net;
pub mod power;
pub mod ssd;
pub mod trace;
pub mod units;

pub use breakdown::{Stage, StageBreakdown};
pub use cache::{CacheConfig, CacheSim};
pub use cpu::{CpuWorkerModel, DataLocality};
pub use event::EventQueue;
pub use fpga::{FeedPath, IspModel, UnitResources};
pub use gpu::{GpuPreprocessModel, GpuTrainModel, ModelCost};
pub use net::{NetworkModel, RpcAccount};
pub use power::CpuNodePower;
pub use ssd::SsdModel;
pub use trace::{characterize_op, OpCharacterization, OpKind};
pub use units::{BytesPerSec, Secs, Watts};
