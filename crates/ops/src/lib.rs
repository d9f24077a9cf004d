//! # presto-ops
//!
//! The RecSys preprocessing kernels of the PreSto reproduction (ISCA 2024) —
//! real, executable implementations of the operations the paper offloads to
//! in-storage accelerators:
//!
//! * [`Bucketizer`] — feature generation via a table-guided boundary search
//!   (Algorithm 1, TorchArrow `bucketize`).
//! * [`SigridHasher`] — sparse feature normalization via seeded hashing
//!   modulo the embedding-table size (Algorithm 2, TorchArrow `sigrid_hash`).
//! * [`lognorm`] — dense feature normalization (`ln(1 + x)`, by its own
//!   branch-free kernel rather than libm).
//! * [`op`] / [`graph`] — the typed operator vocabulary ([`Op`]: the
//!   paper's three ops plus `FirstX`, `NGram` feature crosses and `MapId`
//!   dictionary remaps) and the per-column chain graph IR ([`PlanGraph`])
//!   that describes a preprocessing scenario.
//! * [`MiniBatch`] / [`DenseMatrix`] / [`JaggedFeature`] — train-ready
//!   tensor assembly in TorchRec's `KeyedJaggedTensor` layout.
//! * [`PreprocessPlan`] + [`executor`] — graphs compiled into topologically
//!   ordered, fused execution stages and the full Extract → Transform →
//!   format-conversion pipeline over `presto-columnar` partitions. One
//!   stage runner serves the host CPU paths and the in-storage worker
//!   emulation, which counts its on-chip feature-buffer chunks
//!   ([`UnitStats`]) instead of copying through them.
//! * [`stream`] — the streaming engine: one claim → attempt → deliver
//!   core behind every fleet (host, ISP, split, shuffled), yielding
//!   [`BatchStream`] — run by its own threads, or driven one unit at a time
//!   by a caller's ([`stream::Driver`]).
//! * [`recovery`] — the retry / quarantine / failover policy and the
//!   nothing-dropped accounting every fleet runs under.
//! * [`shuffle`] — the seeded deterministic epoch permutation over every
//!   `PSTOCOL4` row group, and the serializable [`EpochCursor`] a shuffled
//!   stream resumes from.
//!
//! ## The zero-copy / allocation-free hot path
//!
//! Each worker owns a [`ScratchSpace`] and drives the one unit call,
//! [`UnitState::run`]: Extract stages chunk bytes in a
//! recycled buffer (or decodes straight from storage memory for in-memory
//! blobs), SigridHash and Log run **in place** on the uniquely owned decode
//! buffers, and labels/offsets move into the mini-batch without copying.
//! The borrowed-batch variant [`executor::transform_batch_into`] runs the
//! same stage runner into the scratch's slots and performs zero heap
//! allocation per batch once its scratch is warm — asserted by a
//! counting-allocator test (`tests/alloc_free.rs`); [`preprocess_batch_with`]
//! assembles its outputs into a mini-batch, which property tests bit-match
//! against the plain allocating kernels.
//!
//! ## Example
//!
//! ```
//! use presto_datagen::{generate_batch, RmConfig};
//! use presto_ops::{preprocess_batch_with, PreprocessPlan, ScratchSpace};
//!
//! let mut config = RmConfig::rm1();
//! config.batch_size = 128;
//! let plan = PreprocessPlan::from_config(&config, 42)?;
//! let raw = generate_batch(&config, 128, 7);
//! let (mini_batch, timings) = preprocess_batch_with(&plan, &raw, &mut ScratchSpace::new())?;
//! assert_eq!(mini_batch.rows(), 128);
//! assert_eq!(mini_batch.sparse().len(), 26 + 13); // raw + generated
//! let _ = timings.total();
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod bucketize;
pub mod executor;
pub mod graph;
pub mod lognorm;
pub mod minibatch;
pub mod op;
pub mod plan;
pub mod recovery;
pub mod shuffle;
pub mod sigridhash;
pub mod stream;

pub use bucketize::{BucketizeError, Bucketizer};
pub use executor::{
    extract_columns_for_plan, extract_columns_from_reader, preprocess_batch_with,
    preprocess_group_with, preprocess_partition, preprocess_partition_with, preprocess_split_host,
    preprocess_split_isp, transform_batch_into, BoundaryBatch, IspRunStats, OpBucket, OpTimings,
    PreprocessError, ScratchSpace, Side, StageTimings, StageValue, UnitState, UnitStats,
    FEATURE_BUFFER_ELEMS,
};
pub use graph::{ChainSpec, GraphError, PlanGraph};
pub use minibatch::{DenseMatrix, JaggedFeature, MiniBatch, ShapeError};
pub use op::{firstx_into, ngram_into, IdMap, Op, OpTag, ValueKind};
pub use plan::{
    BoundarySlot, ColumnRequirement, CompiledStage, Place, PreprocessPlan, SplitPlan, StageInput,
};
pub use recovery::{
    DeviceHealth, RecoveryEvent, RecoveryEventKind, RecoveryTracker, RetryPolicy, RunReport,
};
pub use shuffle::{epoch_order, epoch_units, EpochCursor, GroupRef, ShuffleSpec};
pub use sigridhash::{InvalidMaxValueError, SigridHasher};
pub use stream::{
    BatchSource, BatchStream, DeviceLoad, Fleet, FleetConfig, StreamItem, StreamStats,
    StreamedBatch,
};
