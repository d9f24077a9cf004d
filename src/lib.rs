//! # presto
//!
//! A full reproduction of **"PreSto: An In-Storage Data Preprocessing
//! System for Training Recommendation Models"** (ISCA 2024) as a Rust
//! workspace. This facade crate re-exports the public API of every
//! sub-crate:
//!
//! | Crate | What it provides |
//! |---|---|
//! | [`columnar`] | From-scratch columnar file format (Parquet substitute) |
//! | [`datagen`] | Table I model configs + synthetic RecSys data |
//! | [`ops`] | Real kernels, the plan IR, the executor and the streaming engine with its fleets |
//! | [`hwsim`] | Calibrated device models: CPU, SmartSSD ISP, GPU, network, LLC |
//! | [`core`] | The PreSto system: architectures, provisioning, placement, the multi-tenant service, the trainer |
//!
//! None of them reads the process environment: what a writer stores and
//! what a run computes depend on their arguments alone.
//!
//! ## Quick start
//!
//! ```
//! use presto::datagen::{generate_batch, RmConfig};
//! use presto::ops::{preprocess_batch_with, PreprocessPlan, ScratchSpace};
//!
//! // Build the public-Criteo-shaped model (Table I, RM1) at a small batch.
//! let mut config = RmConfig::rm1();
//! config.batch_size = 256;
//!
//! // Generate raw features and preprocess them into a train-ready batch.
//! let plan = PreprocessPlan::from_config(&config, 42)?;
//! let raw = generate_batch(&config, 256, 7);
//! let (mini_batch, _) = preprocess_batch_with(&plan, &raw, &mut ScratchSpace::new())?;
//! assert_eq!(mini_batch.rows(), 256);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```
//!
//! ## Reproducing the paper
//!
//! Every table, figure and ablation of the paper's evaluation is a
//! subcommand of one binary in `presto-bench`: `cargo run --release -p
//! presto-bench --bin repro-all` regenerates everything, and `repro-all
//! fig12` (any names) just those, printing each paper value next to the
//! model's. Its ablations also run the real engine: goodput under storage
//! faults, tenants sharing a pool, shuffle granularity and prefix
//! pushdown. [`hwsim::calib`] names the paper measurement behind every
//! device-model constant, and `presto-bench`'s `tests/paper_shape.rs` pins
//! each headline claim as a band.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub use presto_columnar as columnar;
pub use presto_core as core;
pub use presto_datagen as datagen;
pub use presto_hwsim as hwsim;
pub use presto_ops as ops;
