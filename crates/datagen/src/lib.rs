//! # presto-datagen
//!
//! Dataset configurations and synthetic data generation for the PreSto
//! reproduction (ISCA 2024).
//!
//! The paper evaluates five RecSys models (Table I): RM1 mirrors the public
//! Criteo click-logs dataset, RM2–RM5 scale it to production shape following
//! Meta's published characteristics. This crate provides:
//!
//! * [`RmConfig`] — the five Table I rows plus a builder-style API for
//!   custom configurations and the Fig. 17 feature-scaling knob.
//! * [`generate_batch`] / [`RowBatch`] — deterministic, seeded synthesis of
//!   raw feature tables (heavy-tailed dense values, Zipf-skewed categorical
//!   ids, variable-length sparse lists).
//! * [`Dataset`] — partitioning into device-placed columnar files, the
//!   storage layout of Figure 1.
//! * [`WorkloadProfile`] — the per-mini-batch counts that the hardware cost
//!   models in `presto-hwsim` consume.
//!
//! ## Example
//!
//! ```
//! use presto_datagen::{generate_batch, RmConfig};
//!
//! let mut config = RmConfig::rm1();
//! config.batch_size = 256;
//! let batch = generate_batch(&config, 256, 42);
//! assert_eq!(batch.rows(), 256);
//! assert_eq!(batch.schema().len(), 1 + 13 + 26);
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod config;
pub mod profile;
pub mod rng;
pub mod table;
pub mod writer;

pub use config::{RmConfig, DEFAULT_BATCH_SIZE, EMBEDDING_DIM};
pub use profile::WorkloadProfile;
pub use rng::DataRng;
pub use table::{generate_batch, generated_source_column, raw_schema, RowBatch};
pub use writer::{write_partition, write_partition_grouped, Dataset, Partition};
