//! Graph-driven preprocessing executor: Extract → compiled-stage Transform
//! → format conversion, with per-op wall-clock timing.
//!
//! This is the *real* data path — every mini-batch it produces went through
//! the actual kernels. The timings it reports are host-CPU measurements used
//! by `presto-e2e`'s per-layer ledger and by the placement cost model
//! (`presto_core::placement`); the paper-scale performance projections that
//! `repro-all <name>` prints come from `presto-hwsim` instead.
//!
//! # One unit call, every fleet
//!
//! Stages run over stored data one way: [`UnitState::run`] Extracts one
//! [`Side`] of a unit — a column projection, a set of stage positions and a
//! chunk size — from an open file (every row group, or one), then runs
//! those stages of the compiled
//! [`PreprocessPlan::stages`](crate::PreprocessPlan::stages) in
//! topological order, writing into the unit's [`UnitState`]: labels, one
//! slot per stage, timings and [`UnitStats`]. The state then assembles the
//! mini-batch, or packs a [`BoundaryBatch`] that the other side seeds into
//! its own state. Every fleet of [`crate::stream`] is one or two sides of
//! that call:
//!
//! | caller | projection | stages | chunk | then |
//! |---|---|---|---|---|
//! | host (fused, row group, failover) | `required_columns` | all | ∞ | assemble |
//! | ISP | `required_columns` | all | [`FEATURE_BUFFER_ELEMS`] | assemble |
//! | split, device side | `isp_columns` | `isp_stages` | [`FEATURE_BUFFER_ELEMS`] | pack boundary |
//! | split host side / pair B | `host_columns` | `host_stages` | ∞ | seed + assemble |
//! | pair A | halves' `isp_columns` | `isp_stages` | ∞ | pack boundary |
//!
//! A finite chunk is the in-storage unit emulation: elementwise and
//! Bucketize ops stream through `chunk`-element on-chip feature buffers and
//! [`UnitStats`] counts the chunks per unit class — bit-identical output
//! for any chunk, since every op is pure and elementwise ops are
//! chunk-invariant. The public `preprocess_*` / `extract_*` functions are
//! wrappers of a few lines over this call, or over its Extract or Transform
//! half where the caller holds a [`RowBatch`].
//!
//! # The allocation-free hot path
//!
//! PreSto's motivating observation (Section II-B/II-D) is that host-side
//! preprocessing is dominated by memory traffic, so the executor avoids
//! per-batch copies and allocations in steady state:
//!
//! * [`ScratchSpace`] owns every reusable buffer — the Extract chunk buffer
//!   and one stage-value slot per compiled stage.
//! * The unit call consumes the decoded columns instead of copying them:
//!   stages whose chain is fully elementwise and whose raw column has no
//!   other reader ([`consumes_raw`](crate::plan::CompiledStage::consumes_raw))
//!   transform **in place** on the uniquely owned decode buffers, and
//!   labels/offsets move into the mini-batch without a copy.
//! * [`transform_batch_into`] is the one separate loop: it runs over a
//!   *borrowed* batch into the scratch's slots, which outlive the call, so
//!   a worker that keeps its scratch performs **zero heap allocation**
//!   inside it once the buffers are warm (asserted by the counting-allocator
//!   test in `tests/alloc_free.rs`). [`preprocess_batch_with`] formats from
//!   it.
//!
//! Both loops are bit-identical to the straightforward allocating kernels;
//! property tests in `tests/` pin that equivalence.

use crate::graph::LABEL_COLUMN;
use crate::lognorm;
use crate::minibatch::{DenseMatrix, JaggedFeature, MiniBatch, ShapeError};
use crate::op::{
    clamp_in_place, clamp_into, fill_missing_in_place, fill_missing_into, firstx_into, ngram_into,
    Op, OpTag, ValueKind,
};
use crate::plan::{PreprocessPlan, SplitPlan, StageInput};
use presto_columnar::{Array, BlobRead, ColumnarError, FileReader, ReadScratch};
use presto_datagen::RowBatch;
use std::fmt;
use std::time::{Duration, Instant};

/// Error from the preprocessing pipeline.
#[derive(Debug)]
#[non_exhaustive]
pub enum PreprocessError {
    /// Storage or decode failure during Extract.
    Extract(ColumnarError),
    /// A required column was missing or had the wrong type.
    BadColumn {
        /// The offending column name.
        column: String,
    },
    /// Mini-batch assembly failed.
    Shape(ShapeError),
    /// A compiled-plan invariant was violated at execution time (cannot
    /// happen for plans built by [`PreprocessPlan::compile`]; kept as an
    /// error instead of a panic so degenerate states stay recoverable).
    Plan {
        /// Human-readable description.
        detail: String,
    },
    /// An error annotated with where it happened: the failing partition and
    /// the device it lived on. The streaming executors wrap every surfaced
    /// error this way, so a Trainer draining a many-device fleet can tell
    /// *which* device failed without parsing error strings. Inspect with
    /// [`PreprocessError::partition`] / [`PreprocessError::device`] and
    /// unwrap with [`PreprocessError::root`].
    At {
        /// Index of the partition whose processing failed.
        partition: usize,
        /// Device id the partition was resident on.
        device: usize,
        /// The underlying error.
        source: Box<PreprocessError>,
    },
}

impl fmt::Display for PreprocessError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PreprocessError::Extract(e) => write!(f, "extract failed: {e}"),
            PreprocessError::BadColumn { column } => {
                write!(f, "column {column} missing or mistyped")
            }
            PreprocessError::Shape(e) => write!(f, "format conversion failed: {e}"),
            PreprocessError::Plan { detail } => write!(f, "compiled plan violated: {detail}"),
            PreprocessError::At { partition, device, source } => {
                write!(f, "partition {partition} (device {device}): {source}")
            }
        }
    }
}

impl std::error::Error for PreprocessError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            PreprocessError::Extract(e) => Some(e),
            PreprocessError::Shape(e) => Some(e),
            PreprocessError::At { source, .. } => Some(source),
            PreprocessError::BadColumn { .. } | PreprocessError::Plan { .. } => None,
        }
    }
}

impl PreprocessError {
    /// Annotates the error with its failure site. Re-annotating an already
    /// located error updates the location instead of nesting.
    #[must_use]
    pub fn with_location(self, partition: usize, device: usize) -> Self {
        match self {
            PreprocessError::At { source, .. } => PreprocessError::At { partition, device, source },
            other => PreprocessError::At { partition, device, source: Box::new(other) },
        }
    }

    /// The failing partition, when the error carries provenance.
    #[must_use]
    pub fn partition(&self) -> Option<usize> {
        match self {
            PreprocessError::At { partition, .. } => Some(*partition),
            _ => None,
        }
    }

    /// The failing device id, when the error carries provenance.
    #[must_use]
    pub fn device(&self) -> Option<usize> {
        match self {
            PreprocessError::At { device, .. } => Some(*device),
            _ => None,
        }
    }

    /// The underlying error with any location annotation stripped.
    #[must_use]
    pub fn root(&self) -> &PreprocessError {
        match self {
            PreprocessError::At { source, .. } => source.root(),
            other => other,
        }
    }

    /// Whether retrying the partition could plausibly succeed. Storage-side
    /// failures ([`PreprocessError::Extract`]: I/O errors, checksum
    /// mismatches from corrupt pages, truncated reads) are retryable —
    /// transient faults clear and corruption is re-read from pristine
    /// media. Plan/schema/shape errors are deterministic properties of the
    /// input and fail identically on every attempt.
    #[must_use]
    pub fn is_retryable(&self) -> bool {
        matches!(self.root(), PreprocessError::Extract(_))
    }
}

impl From<ColumnarError> for PreprocessError {
    fn from(e: ColumnarError) -> Self {
        PreprocessError::Extract(e)
    }
}

impl From<ShapeError> for PreprocessError {
    fn from(e: ShapeError) -> Self {
        PreprocessError::Shape(e)
    }
}

fn plan_violation(detail: impl Into<String>) -> PreprocessError {
    PreprocessError::Plan { detail: detail.into() }
}

/// Measured work of one operator class: wall-clock time and elements
/// processed (the per-element rate calibrates the placement cost model).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OpBucket {
    /// Wall-clock time spent in this op class.
    pub time: Duration,
    /// Input elements processed by this op class.
    pub elems: u64,
}

impl OpBucket {
    /// Measured nanoseconds per element, or `None` before any elements ran.
    #[must_use]
    pub fn ns_per_elem(&self) -> Option<f64> {
        #[allow(clippy::cast_precision_loss)]
        (self.elems > 0).then(|| self.time.as_secs_f64() * 1e9 / self.elems as f64)
    }
}

/// Per-op-class timing buckets, keyed by [`OpTag`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OpTimings {
    buckets: [OpBucket; OpTag::ALL.len()],
}

impl OpTimings {
    /// Accumulates one op application.
    pub fn add(&mut self, tag: OpTag, time: Duration, elems: u64) {
        let bucket = &mut self.buckets[tag as usize];
        bucket.time += time;
        bucket.elems += elems;
    }

    /// The bucket of one op class.
    #[must_use]
    pub fn get(&self, tag: OpTag) -> OpBucket {
        self.buckets[tag as usize]
    }

    /// Sum of all op times.
    #[must_use]
    pub fn total(&self) -> Duration {
        self.buckets.iter().map(|b| b.time).sum()
    }

    /// `(tag, bucket)` pairs in [`OpTag::ALL`] order.
    pub fn iter(&self) -> impl Iterator<Item = (OpTag, OpBucket)> + '_ {
        OpTag::ALL.into_iter().map(|tag| (tag, self.get(tag)))
    }
}

/// Wall-clock time per pipeline stage (the Fig. 5 / Fig. 12 stages, measured
/// on the host), with the Transform time broken down per operator class.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StageTimings {
    /// Reading + decoding the projected columns.
    pub extract: Duration,
    /// Mini-batch assembly (format conversion).
    pub format: Duration,
    /// Per-op Transform breakdown (and the element counts that calibrate
    /// the placement cost model).
    pub ops: OpTimings,
}

impl StageTimings {
    /// Sum of all stages.
    #[must_use]
    pub fn total(&self) -> Duration {
        self.extract + self.format + self.ops.total()
    }

    /// Feature-generation (Bucketize) time.
    #[must_use]
    pub fn bucketize(&self) -> Duration {
        self.ops.get(OpTag::Bucketize).time
    }

    /// Sparse-normalization (SigridHash) time.
    #[must_use]
    pub fn sigridhash(&self) -> Duration {
        self.ops.get(OpTag::SigridHash).time
    }

    /// Dense-normalization (LogNorm) time.
    #[must_use]
    pub fn log(&self) -> Duration {
        self.ops.get(OpTag::LogNorm).time
    }

    /// Accumulates another measurement into this one — extract, format and
    /// every op bucket summed. How a split run folds its ISP-side and
    /// host-side timings into one per-partition record.
    pub fn absorb(&mut self, other: &StageTimings) {
        self.extract += other.extract;
        self.format += other.format;
        for (tag, bucket) in other.ops.iter() {
            self.ops.add(tag, bucket.time, bucket.elems);
        }
    }
}

/// Chunk counters of one emulated in-storage run, bucketed by unit class
/// (generation = Bucketize, normalization = SigridHash/MapId/LogNorm,
/// restructure = FirstX/NGram), filled by [`UnitState::run`]: a
/// whole-column side counts one chunk per op application.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct UnitStats {
    /// Chunks through the feature-generation unit.
    pub generation_chunks: u64,
    /// Chunks through the normalization units.
    pub normalize_chunks: u64,
    /// Chunks through the list-restructuring unit. Unlike the other
    /// counters this one is *accounting-only*: FirstX/NGram execute over
    /// the whole column (their windows/prefixes span chunk boundaries) and
    /// the count is derived from the input length, modeling the traffic a
    /// streaming unit would see rather than bounding the emulation's
    /// working set.
    pub restructure_chunks: u64,
    /// Total input elements transformed.
    pub elements: u64,
}

impl UnitStats {
    fn record(&mut self, tag: OpTag, chunks: u64, elems: u64) {
        match tag {
            OpTag::Bucketize => self.generation_chunks += chunks,
            OpTag::SigridHash
            | OpTag::MapId
            | OpTag::LogNorm
            | OpTag::Clamp
            | OpTag::FillMissing => self.normalize_chunks += chunks,
            OpTag::FirstX | OpTag::NGram => self.restructure_chunks += chunks,
        }
        self.elements += elems;
    }
}

/// One stage's materialized output during plan execution — and the typed
/// payload of a split run's boundary hand-off (see [`BoundaryBatch`]).
#[derive(Debug, Clone, PartialEq)]
pub enum StageValue {
    /// One `f32` per row.
    Dense(Vec<f32>),
    /// A jagged list feature.
    List {
        /// Row offsets, `len == rows + 1`.
        offsets: Vec<u32>,
        /// Flattened ids.
        values: Vec<i64>,
    },
    /// One `i64` per row.
    Ids(Vec<i64>),
}

impl Default for StageValue {
    fn default() -> Self {
        StageValue::Ids(Vec::new())
    }
}

/// A borrowed view of a stage input (raw column or earlier stage output).
#[derive(Debug, Clone, Copy)]
enum ValueRef<'a> {
    Dense(&'a [f32]),
    List { offsets: &'a [u32], values: &'a [i64] },
    Ids(&'a [i64]),
}

impl ValueRef<'_> {
    /// Input elements an op over this value processes.
    fn elems(&self) -> u64 {
        (match self {
            ValueRef::Dense(v) => v.len(),
            ValueRef::List { values, .. } => values.len(),
            ValueRef::Ids(v) => v.len(),
        }) as u64
    }
}

impl StageValue {
    /// The [`ValueKind`] this value materializes.
    #[must_use]
    pub fn kind(&self) -> ValueKind {
        match self {
            StageValue::Dense(_) => ValueKind::Dense,
            StageValue::List { .. } => ValueKind::List,
            StageValue::Ids(_) => ValueKind::Ids,
        }
    }

    /// Serialized size in bytes — what this value costs to move across the
    /// fleet boundary (4 bytes per `f32`/offset, 8 per id). Matches the
    /// sizing model of [`PreprocessPlan::stage_output_bytes`].
    #[must_use]
    pub fn byte_len(&self) -> u64 {
        match self {
            StageValue::Dense(v) => 4 * v.len() as u64,
            StageValue::List { offsets, values } => {
                4 * offsets.len() as u64 + 8 * values.len() as u64
            }
            StageValue::Ids(v) => 8 * v.len() as u64,
        }
    }

    fn as_value_ref(&self) -> ValueRef<'_> {
        match self {
            StageValue::Dense(v) => ValueRef::Dense(v),
            StageValue::List { offsets, values } => ValueRef::List { offsets, values },
            StageValue::Ids(v) => ValueRef::Ids(v),
        }
    }

    /// The f32 buffer, re-initializing the variant if needed (allocates
    /// only when the slot changes kind — i.e. on a plan switch).
    fn dense_buf(&mut self) -> &mut Vec<f32> {
        if !matches!(self, StageValue::Dense(_)) {
            *self = StageValue::Dense(Vec::new());
        }
        let StageValue::Dense(v) = self else { unreachable!("just initialized") };
        v
    }

    fn ids_buf(&mut self) -> &mut Vec<i64> {
        if !matches!(self, StageValue::Ids(_)) {
            *self = StageValue::Ids(Vec::new());
        }
        let StageValue::Ids(v) = self else { unreachable!("just initialized") };
        v
    }

    fn list_bufs(&mut self) -> (&mut Vec<u32>, &mut Vec<i64>) {
        if !matches!(self, StageValue::List { .. }) {
            *self = StageValue::List { offsets: Vec::new(), values: Vec::new() };
        }
        let StageValue::List { offsets, values } = self else { unreachable!("just initialized") };
        (offsets, values)
    }
}

/// Reusable per-worker buffers for the preprocessing hot path.
///
/// One `ScratchSpace` per worker thread turns the whole
/// Extract → Transform loop into recycled-memory operation:
///
/// * `read` stages column-chunk bytes for backends that cannot expose their
///   storage directly (see [`presto_columnar::ReadScratch`]);
/// * `slots` holds one output buffer set per compiled stage, written
///   through the kernels' `*_into` variants.
///
/// Buffers grow to the high-water mark of the workload and are then reused
/// verbatim: processing the Nth same-shaped partition allocates nothing in
/// the transform loop.
#[derive(Debug, Default)]
pub struct ScratchSpace {
    read: ReadScratch,
    /// One output per compiled stage of the last plan run; slots only ever
    /// grow (high-water-mark reuse across plans).
    slots: Vec<StageValue>,
    /// `(kind, emit)` of each slot the *last* transform actually wrote, so
    /// the accessors never expose stale trailing stages after a plan
    /// switch.
    slot_meta: Vec<(ValueKind, bool)>,
    /// Ping-pong buffer for multi-op chains with a non-elementwise tail op.
    temp: StageValue,
}

impl ScratchSpace {
    /// Creates an empty scratch space; buffers are grown on first use.
    #[must_use]
    pub fn new() -> Self {
        ScratchSpace::default()
    }

    /// The Extract-stage chunk buffer.
    pub fn read_scratch(&mut self) -> &mut ReadScratch {
        &mut self.read
    }

    /// Emitted one-id-per-row (generated-feature) outputs of the last
    /// [`transform_batch_into`] call, in stage order.
    #[must_use]
    pub fn generated(&self) -> Vec<&[i64]> {
        self.emitted(ValueKind::Ids)
            .filter_map(|slot| match slot {
                StageValue::Ids(v) => Some(v.as_slice()),
                _ => None,
            })
            .collect()
    }

    /// Emitted jagged-feature value buffers of the last
    /// [`transform_batch_into`] call, in stage order.
    #[must_use]
    pub fn hashed(&self) -> Vec<&[i64]> {
        self.emitted(ValueKind::List)
            .filter_map(|slot| match slot {
                StageValue::List { values, .. } => Some(values.as_slice()),
                _ => None,
            })
            .collect()
    }

    /// Emitted dense outputs of the last [`transform_batch_into`] call, in
    /// stage order.
    #[must_use]
    pub fn dense(&self) -> Vec<&[f32]> {
        self.emitted(ValueKind::Dense)
            .filter_map(|slot| match slot {
                StageValue::Dense(v) => Some(v.as_slice()),
                _ => None,
            })
            .collect()
    }

    fn emitted(&self, kind: ValueKind) -> impl Iterator<Item = &StageValue> {
        self.slot_meta
            .iter()
            .zip(&self.slots)
            .filter(move |((k, emit), _)| *emit && *k == kind)
            .map(|(_, slot)| slot)
    }

    /// Ensures `slots` can hold `n` stages and resets the metadata.
    fn prepare(&mut self, n: usize) {
        if self.slots.len() < n {
            self.slots.resize_with(n, StageValue::default);
        }
        self.slot_meta.clear();
        self.slot_meta.reserve(n);
    }
}

/// Staging buffers for the chunked (in-storage) execution mode: the second
/// on-chip feature buffer of each unit, through which one chunk's results
/// drain while the next transforms. The host paths (`chunk = ∞`) never
/// touch them.
#[derive(Debug, Default)]
struct StagedBufs {
    ids: Vec<i64>,
    dense: Vec<f32>,
}

/// Applies one op to a borrowed input, writing the result into `out`
/// (variant re-initialized as needed, buffers recycled). Processes the
/// input in `chunk`-element pieces — pass `usize::MAX` for whole-column
/// host execution (no staging copy).
fn apply_op(
    op: &Op,
    input: ValueRef<'_>,
    out: &mut StageValue,
    chunk: usize,
    staged: &mut StagedBufs,
    stats: &mut UnitStats,
) -> Result<(), PreprocessError> {
    let tag = op.tag();
    let elems = input.elems();
    let chunks = match (op, input) {
        (Op::LogNorm, ValueRef::Dense(src)) => apply_dense_chunked(
            src,
            out.dense_buf(),
            chunk,
            &mut staged.dense,
            lognorm::log_normalize_into,
        ),
        (Op::Clamp { lo, hi }, ValueRef::Dense(src)) => {
            apply_dense_chunked(src, out.dense_buf(), chunk, &mut staged.dense, |piece, out| {
                clamp_into(piece, *lo, *hi, out);
            })
        }
        (Op::FillMissing(fill), ValueRef::Dense(src)) => {
            apply_dense_chunked(src, out.dense_buf(), chunk, &mut staged.dense, |piece, out| {
                fill_missing_into(piece, *fill, out);
            })
        }
        (Op::Bucketize(b), ValueRef::Dense(src)) => {
            let out = out.ids_buf();
            if chunk >= src.len() {
                b.apply_into(src, out);
                1
            } else {
                out.clear();
                out.reserve(src.len());
                let mut n = 0;
                for piece in src.chunks(chunk.max(1)) {
                    b.apply_into(piece, &mut staged.ids);
                    out.extend_from_slice(&staged.ids);
                    n += 1;
                }
                n
            }
        }
        (Op::SigridHash(_) | Op::MapId(_), ValueRef::List { offsets, values }) => {
            let (out_offsets, out_values) = out.list_bufs();
            out_offsets.clear();
            out_offsets.extend_from_slice(offsets);
            apply_ids_chunked(op, values, out_values, chunk, &mut staged.ids)
        }
        (Op::SigridHash(_) | Op::MapId(_), ValueRef::Ids(values)) => {
            apply_ids_chunked(op, values, out.ids_buf(), chunk, &mut staged.ids)
        }
        (Op::FirstX(x), ValueRef::List { offsets, values }) => {
            let (out_offsets, out_values) = out.list_bufs();
            firstx_into(offsets, values, *x, out_offsets, out_values);
            chunk_count(values.len(), chunk)
        }
        (Op::NGram { n, hasher }, ValueRef::List { offsets, values }) => {
            let (out_offsets, out_values) = out.list_bufs();
            ngram_into(offsets, values, *n, hasher, out_offsets, out_values);
            chunk_count(values.len(), chunk)
        }
        _ => {
            return Err(plan_violation(format!("op {op} applied to mismatched input kind")));
        }
    };
    stats.record(tag, chunks, elems);
    Ok(())
}

/// Chunked elementwise dense transform into a recycled output buffer.
fn apply_dense_chunked(
    src: &[f32],
    out: &mut Vec<f32>,
    chunk: usize,
    staged: &mut Vec<f32>,
    mut f: impl FnMut(&[f32], &mut Vec<f32>),
) -> u64 {
    if chunk >= src.len() {
        f(src, out);
        1
    } else {
        out.clear();
        out.reserve(src.len());
        let mut n = 0;
        for piece in src.chunks(chunk.max(1)) {
            f(piece, staged);
            out.extend_from_slice(staged);
            n += 1;
        }
        n
    }
}

/// Chunked elementwise id transform into a recycled output buffer.
fn apply_ids_chunked(
    op: &Op,
    src: &[i64],
    out: &mut Vec<i64>,
    chunk: usize,
    staged: &mut Vec<i64>,
) -> u64 {
    let apply = |piece: &[i64], out: &mut Vec<i64>| match op {
        Op::SigridHash(h) => h.apply_into(piece, out),
        Op::MapId(m) => m.apply_into(piece, out),
        _ => unreachable!("caller dispatched an elementwise id op"),
    };
    if chunk >= src.len() {
        apply(src, out);
        1
    } else {
        out.clear();
        out.reserve(src.len());
        let mut n = 0;
        for piece in src.chunks(chunk.max(1)) {
            apply(piece, staged);
            out.extend_from_slice(staged);
            n += 1;
        }
        n
    }
}

/// Chunks an already-whole op application would have streamed through a
/// `chunk`-element unit buffer.
fn chunk_count(len: usize, chunk: usize) -> u64 {
    if chunk >= len {
        1
    } else {
        (len.div_ceil(chunk.max(1))) as u64
    }
}

/// Applies one *elementwise* op in place on an owned stage value.
fn apply_op_in_place(
    op: &Op,
    value: &mut StageValue,
    chunk: usize,
    stats: &mut UnitStats,
) -> Result<(), PreprocessError> {
    let tag = op.tag();
    let (chunks, elems) = match (op, &mut *value) {
        (Op::LogNorm | Op::Clamp { .. } | Op::FillMissing(_), StageValue::Dense(v)) => {
            let mut n = 0;
            for piece in v.chunks_mut(chunk.max(1)) {
                match op {
                    Op::LogNorm => lognorm::log_normalize_in_place(piece),
                    Op::Clamp { lo, hi } => clamp_in_place(piece, *lo, *hi),
                    Op::FillMissing(fill) => fill_missing_in_place(piece, *fill),
                    _ => unreachable!("matched above"),
                }
                n += 1;
            }
            (n, v.len() as u64)
        }
        (
            Op::SigridHash(_) | Op::MapId(_),
            StageValue::List { values, .. } | StageValue::Ids(values),
        ) => {
            let mut n = 0;
            for piece in values.chunks_mut(chunk.max(1)) {
                match op {
                    Op::SigridHash(h) => h.apply_in_place(piece),
                    Op::MapId(m) => m.apply_in_place(piece),
                    _ => unreachable!("matched above"),
                }
                n += 1;
            }
            (n, values.len() as u64)
        }
        _ => {
            return Err(plan_violation(format!("op {op} applied in place to mismatched kind")));
        }
    };
    stats.record(tag, chunks, elems);
    Ok(())
}

/// Runs one stage's op chain from a borrowed input into `slot`.
///
/// The chain is fused through the slot: the first op writes the slot,
/// subsequent elementwise ops run in place on it, and non-elementwise ops
/// ping-pong through `temp` — no per-op intermediate allocation once the
/// buffers are warm.
#[allow(clippy::too_many_arguments)]
fn run_chain(
    ops: &[Op],
    input: ValueRef<'_>,
    slot: &mut StageValue,
    temp: &mut StageValue,
    chunk: usize,
    staged: &mut StagedBufs,
    timings: &mut StageTimings,
    stats: &mut UnitStats,
) -> Result<(), PreprocessError> {
    let (first, rest) = ops.split_first().ok_or_else(|| plan_violation("empty op chain"))?;
    let elems = input.elems();
    let t0 = Instant::now();
    apply_op(first, input, slot, chunk, staged, stats)?;
    timings.ops.add(first.tag(), t0.elapsed(), elems);
    for op in rest {
        let t0 = Instant::now();
        if op.is_elementwise() {
            let elems = slot.as_value_ref().elems();
            apply_op_in_place(op, slot, chunk, stats)?;
            timings.ops.add(op.tag(), t0.elapsed(), elems);
        } else {
            std::mem::swap(slot, temp);
            let elems = temp.as_value_ref().elems();
            apply_op(op, temp.as_value_ref(), slot, chunk, staged, stats)?;
            timings.ops.add(op.tag(), t0.elapsed(), elems);
        }
    }
    Ok(())
}

/// Borrows a raw column of `batch` as the kind the compiled stage expects.
fn raw_value_ref<'a>(
    batch: &'a RowBatch,
    name: &str,
    kind: ValueKind,
) -> Result<ValueRef<'a>, PreprocessError> {
    let column =
        batch.column(name).ok_or_else(|| PreprocessError::BadColumn { column: name.into() })?;
    array_value_ref(column, name, kind)
}

fn array_value_ref<'a>(
    column: &'a Array,
    name: &str,
    kind: ValueKind,
) -> Result<ValueRef<'a>, PreprocessError> {
    let bad = || PreprocessError::BadColumn { column: name.into() };
    match kind {
        ValueKind::Dense => column.as_float32().map(ValueRef::Dense).ok_or_else(bad),
        ValueKind::List => column
            .as_list_int64()
            .map(|(offsets, values)| ValueRef::List { offsets, values })
            .ok_or_else(bad),
        ValueKind::Ids => column.as_int64().map(ValueRef::Ids).ok_or_else(bad),
    }
}

/// Runs the compiled stages over a borrowed batch, writing every output
/// into `scratch` (no other side effects).
///
/// This is the allocation-free core: with a warm scratch, repeated calls on
/// same-shaped batches perform zero heap allocation. Results are read back
/// via [`ScratchSpace::generated`] / [`ScratchSpace::hashed`] /
/// [`ScratchSpace::dense`], laid out in stage order.
///
/// # Errors
///
/// Returns [`PreprocessError::BadColumn`] when the batch lacks a column the
/// plan requires.
pub fn transform_batch_into(
    plan: &PreprocessPlan,
    batch: &RowBatch,
    scratch: &mut ScratchSpace,
) -> Result<StageTimings, PreprocessError> {
    let mut timings = StageTimings::default();
    let mut stats = UnitStats::default();
    let mut staged = StagedBufs::default();
    let stages = plan.stages();
    scratch.prepare(stages.len());
    for (i, stage) in stages.iter().enumerate() {
        let (done, rest) = scratch.slots.split_at_mut(i);
        let slot = &mut rest[0];
        let input = match stage.input() {
            StageInput::Raw(name) => raw_value_ref(batch, name, stage.input_kind())?,
            StageInput::Stage(j) => done[*j].as_value_ref(),
        };
        run_chain(
            stage.ops(),
            input,
            slot,
            &mut scratch.temp,
            usize::MAX,
            &mut staged,
            &mut timings,
            &mut stats,
        )?;
        scratch.slot_meta.push((stage.output_kind(), stage.emit()));
    }
    Ok(timings)
}

/// Format conversion shared by every batch path: row-major dense matrix
/// from the emitted dense stages, jagged features from the emitted list
/// stages, then the emitted id stages with identity-ramp offsets (one id
/// per row) — all in graph declaration order.
fn assemble_mini_batch(
    plan: &PreprocessPlan,
    labels: Vec<i64>,
    mut fetch: impl FnMut(usize) -> StageValue,
) -> Result<MiniBatch, PreprocessError> {
    let rows = labels.len();
    let stages = plan.stages();
    let mut dense_columns = Vec::with_capacity(plan.emitted_dense().len());
    for &pos in plan.emitted_dense() {
        match fetch(pos) {
            StageValue::Dense(v) => dense_columns.push(v),
            _ => return Err(plan_violation(format!("stage {pos} is not dense"))),
        }
    }
    let dense = DenseMatrix::from_columns(&dense_columns, rows)?;
    drop(dense_columns);

    let mut sparse = Vec::with_capacity(plan.emitted_lists().len() + plan.emitted_ids().len());
    for &pos in plan.emitted_lists() {
        match fetch(pos) {
            StageValue::List { offsets, values } => sparse.push(JaggedFeature {
                name: stages[pos].output().to_owned(),
                offsets,
                values,
            }),
            _ => return Err(plan_violation(format!("stage {pos} is not a list"))),
        }
    }
    for &pos in plan.emitted_ids() {
        match fetch(pos) {
            StageValue::Ids(values) => {
                // One id per row: offsets are the identity ramp.
                let offsets: Vec<u32> = (0..=rows as u32).collect();
                sparse.push(JaggedFeature {
                    name: stages[pos].output().to_owned(),
                    offsets,
                    values,
                });
            }
            _ => return Err(plan_violation(format!("stage {pos} is not ids"))),
        }
    }
    Ok(MiniBatch::new(labels, dense, sparse)?)
}

/// Like [`transform_batch_into`], then format conversion: the scratch
/// outputs are copied into owned buffers (they must outlive the scratch)
/// and assembled. The transform loop itself allocates nothing once the
/// scratch is warm; only the returned mini-batch does.
///
/// # Errors
///
/// Returns [`PreprocessError::BadColumn`] when the batch lacks the label or
/// a column the plan requires.
pub fn preprocess_batch_with(
    plan: &PreprocessPlan,
    batch: &RowBatch,
    scratch: &mut ScratchSpace,
) -> Result<(MiniBatch, StageTimings), PreprocessError> {
    let labels = batch
        .column(LABEL_COLUMN)
        .and_then(Array::as_int64)
        .ok_or_else(|| PreprocessError::BadColumn { column: LABEL_COLUMN.into() })?
        .to_vec();
    let mut timings = transform_batch_into(plan, batch, scratch)?;
    let t0 = Instant::now();
    let slots = &scratch.slots;
    let mini_batch = assemble_mini_batch(plan, labels, |pos| slots[pos].clone())?;
    timings.format = t0.elapsed();
    Ok((mini_batch, timings))
}

/// Moves `columns[index_of(name)]` out of the batch, leaving an empty array.
fn take_column(
    schema: &presto_columnar::Schema,
    columns: &mut [Array],
    name: &str,
) -> Option<Array> {
    let idx = schema.index_of(name)?;
    let dt = columns[idx].data_type();
    Some(std::mem::replace(&mut columns[idx], Array::empty(dt)))
}

/// One *side* of a unit: the projection it Extracts, the stage positions it
/// runs and the chunk size it runs them at. Every fleet is one or two sides
/// of [`UnitState::run`] (see the [module docs](self)).
#[derive(Debug, Clone, Copy)]
pub struct Side<'a> {
    /// Raw columns to Extract, in projection order. The side whose
    /// projection holds the label carries the unit's labels.
    pub(crate) columns: &'a [String],
    /// Plan stage positions to run (dependency-closed, increasing), or
    /// `None` for every stage.
    pub(crate) stages: Option<&'a [usize]>,
    /// Elements per on-chip feature-buffer chunk; `usize::MAX` runs every
    /// op over the whole column.
    pub(crate) chunk: usize,
}

impl<'a> Side<'a> {
    /// The whole plan at `chunk`: the host fleet (`usize::MAX`) or an
    /// emulated ISP unit ([`FEATURE_BUFFER_ELEMS`]).
    #[must_use]
    pub fn whole(plan: &'a PreprocessPlan, chunk: usize) -> Self {
        Side { columns: plan.required_columns(), stages: None, chunk }
    }

    /// The ISP side of `split`: its projection (never the label) and stage
    /// prefix at `chunk`.
    #[must_use]
    pub(crate) fn isp(split: &'a SplitPlan, chunk: usize) -> Self {
        Side { columns: split.isp_columns(), stages: Some(split.isp_stages()), chunk }
    }

    /// The host side of `split`, whole-column: the label, the host
    /// projection and the host-resident stages.
    #[must_use]
    pub(crate) fn host(split: &'a SplitPlan) -> Self {
        Side { columns: split.host_columns(), stages: Some(split.host_stages()), chunk: usize::MAX }
    }
}

/// The output state of one unit: labels, one output slot per plan stage,
/// timings, unit counters and the bytes its Extract fetched. The one unit
/// call ([`UnitState::run`]) returns it; the caller then assembles the
/// mini-batch, or packs the boundary a [`SplitPlan`]'s other side seeds
/// into its own state.
#[derive(Debug)]
pub struct UnitState {
    labels: Vec<i64>,
    outputs: Vec<StageValue>,
    timings: StageTimings,
    stats: UnitStats,
    fetched: u64,
}

impl UnitState {
    /// An empty state for a unit of `plan`.
    #[must_use]
    pub(crate) fn new(plan: &PreprocessPlan) -> Self {
        let mut outputs: Vec<StageValue> = Vec::new();
        outputs.resize_with(plan.stages().len(), StageValue::default);
        UnitState {
            labels: Vec::new(),
            outputs,
            timings: StageTimings::default(),
            stats: UnitStats::default(),
            fetched: 0,
        }
    }

    /// The one unit call: Extracts `side`'s projection of every row group
    /// (or of `group` alone) under the plan's prefix requirements, then
    /// runs `side`'s stages at `side.chunk` over the decoded columns into a
    /// new state.
    ///
    /// # Errors
    ///
    /// [`PreprocessError::BadColumn`] when a projected column is not in the
    /// file or has the wrong type, [`PreprocessError::Extract`] on storage
    /// and decode failures, [`PreprocessError::Plan`] on kind violations.
    pub fn run<B: BlobRead>(
        plan: &PreprocessPlan,
        reader: &FileReader<B>,
        group: Option<usize>,
        side: Side<'_>,
        read: &mut ReadScratch,
    ) -> Result<Self, PreprocessError> {
        let t0 = Instant::now();
        let (batch, fetched) = extract(Some(plan), reader, side.columns, group, read)?;
        UnitState::transformed(plan, side, batch, fetched, t0.elapsed())
    }

    /// [`UnitState::run`] over a `blob` it opens, the open counted as
    /// Extract. The reader (the parsed footer) is dropped before Transform
    /// and the state is allocated after Extract, so neither sits in the
    /// worker's heap across the unit: holding them measurably raised
    /// `rm5_host_mem`'s peak RSS.
    ///
    /// # Errors
    ///
    /// Same as [`UnitState::run`], plus the open's storage errors.
    pub fn read<B: BlobRead>(
        plan: &PreprocessPlan,
        blob: B,
        group: Option<usize>,
        side: Side<'_>,
        read: &mut ReadScratch,
    ) -> Result<Self, PreprocessError> {
        let t0 = Instant::now();
        let (batch, fetched) =
            extract(Some(plan), &FileReader::open(blob)?, side.columns, group, read)?;
        UnitState::transformed(plan, side, batch, fetched, t0.elapsed())
    }

    /// A new state holding `side`'s Transform of an extracted `batch`.
    fn transformed(
        plan: &PreprocessPlan,
        side: Side<'_>,
        batch: RowBatch,
        fetched: u64,
        extract: Duration,
    ) -> Result<Self, PreprocessError> {
        let mut unit = UnitState::new(plan);
        unit.timings.extract = extract;
        unit.fetched = fetched;
        unit.transform(plan, side, batch)?;
        Ok(unit)
    }

    /// The Transform half of [`UnitState::run`], over an owned batch of
    /// `side`'s projection. Stage-to-stage inputs resolve through the
    /// state's slots, so seeded boundary values feed stages whose producers
    /// ran on the other side.
    fn transform(
        &mut self,
        plan: &PreprocessPlan,
        side: Side<'_>,
        batch: RowBatch,
    ) -> Result<(), PreprocessError> {
        let (schema, mut columns) = batch.into_parts();
        if side.columns.iter().any(|c| c == LABEL_COLUMN) {
            self.labels = take_column(&schema, &mut columns, LABEL_COLUMN)
                .and_then(|a| match a {
                    Array::Int64(buf) => Some(buf.into_vec()),
                    _ => None,
                })
                .ok_or_else(|| PreprocessError::BadColumn { column: LABEL_COLUMN.into() })?;
        }
        let chunk = side.chunk.max(1);
        let stages = plan.stages();
        let mut staged = StagedBufs::default();
        let mut temp = StageValue::default();
        for k in 0..side.stages.map_or(stages.len(), <[usize]>::len) {
            let i = side.stages.map_or(k, |positions| positions[k]);
            let stage = &stages[i];
            let mut slot = StageValue::default();
            if stage.consumes_raw() {
                let StageInput::Raw(name) = stage.input() else {
                    return Err(plan_violation(format!("stage {i} consumes a non-raw input")));
                };
                let column = take_column(&schema, &mut columns, name)
                    .ok_or_else(|| PreprocessError::BadColumn { column: name.clone() })?;
                run_stage_owned(
                    stage.ops(),
                    column,
                    name,
                    stage.input_kind(),
                    &mut slot,
                    &mut temp,
                    chunk,
                    &mut staged,
                    &mut self.timings,
                    &mut self.stats,
                )?;
            } else {
                let input = match stage.input() {
                    StageInput::Raw(name) => {
                        let idx = schema
                            .index_of(name)
                            .ok_or_else(|| PreprocessError::BadColumn { column: name.clone() })?;
                        array_value_ref(&columns[idx], name, stage.input_kind())?
                    }
                    StageInput::Stage(j) => self.outputs[*j].as_value_ref(),
                };
                // A leading `FirstX(x)` over lists already no longer than `x`
                // is the identity — the common case once prefix pushdown has
                // truncated the column at decode time (clamping still happens
                // here when the extracted prefix was a looser max). Skip the
                // op instead of copying the lists through it.
                let ops = match (stage.ops().first(), &input) {
                    (Some(Op::FirstX(x)), ValueRef::List { offsets, values })
                        if offsets.windows(2).all(|w| (w[1] - w[0]) as usize <= *x) =>
                    {
                        if stage.ops().len() == 1 {
                            // Identity chain: materialize the input directly
                            // (run_chain rejects empty op lists).
                            slot = StageValue::List {
                                offsets: offsets.to_vec(),
                                values: values.to_vec(),
                            };
                            self.outputs[i] = slot;
                            continue;
                        }
                        &stage.ops()[1..]
                    }
                    _ => stage.ops(),
                };
                run_chain(
                    ops,
                    input,
                    &mut slot,
                    &mut temp,
                    chunk,
                    &mut staged,
                    &mut self.timings,
                    &mut self.stats,
                )?;
            }
            self.outputs[i] = slot;
        }
        Ok(())
    }

    /// Validates the transferred boundary values against `split`'s boundary
    /// schema and moves them into their stages' slots.
    ///
    /// # Errors
    ///
    /// [`PreprocessError::Plan`] when the hand-off does not cover the
    /// boundary schema or a value's kind mismatches its stage.
    pub(crate) fn seed(
        &mut self,
        plan: &PreprocessPlan,
        split: &SplitPlan,
        boundary: BoundaryBatch,
    ) -> Result<(), PreprocessError> {
        let mut seeded = vec![false; plan.stages().len()];
        for (pos, value) in boundary.values {
            let stage = plan
                .stages()
                .get(pos)
                .ok_or_else(|| plan_violation(format!("boundary stage {pos} out of range")))?;
            if value.kind() != stage.output_kind() {
                return Err(plan_violation(format!(
                    "boundary stage {pos} ({}) carries {:?}, plan expects {:?}",
                    stage.output(),
                    value.kind(),
                    stage.output_kind()
                )));
            }
            seeded[pos] = true;
            self.outputs[pos] = value;
        }
        match split.boundary().iter().find(|slot| !seeded[slot.stage]) {
            Some(missing) => Err(plan_violation(format!(
                "boundary hand-off is missing stage {} ({})",
                missing.stage, missing.output
            ))),
            None => Ok(()),
        }
    }

    /// Moves `split`'s boundary-crossing outputs out into a hand-off.
    pub(crate) fn boundary(&mut self, split: &SplitPlan) -> BoundaryBatch {
        let outputs = &mut self.outputs;
        let values = split
            .boundary()
            .iter()
            .map(|slot| (slot.stage, std::mem::take(&mut outputs[slot.stage])));
        BoundaryBatch { values: values.collect() }
    }

    /// Timings so far (Extract includes the open under [`UnitState::read`]).
    #[must_use]
    pub(crate) fn timings(&self) -> StageTimings {
        self.timings
    }

    /// On-chip buffer chunk counters of the stages run so far.
    #[must_use]
    pub fn stats(&self) -> UnitStats {
        self.stats
    }

    /// Bytes the Extracts fetched ([`presto_columnar::ChunkMeta::read_len`]
    /// per projected chunk) — what a device side moves over its P2P link.
    #[must_use]
    pub fn fetched(&self) -> u64 {
        self.fetched
    }

    /// Format conversion over the seeded and computed slots.
    ///
    /// # Errors
    ///
    /// [`PreprocessError::Shape`] / [`PreprocessError::Plan`] when the slots
    /// do not make a mini-batch of the plan.
    pub fn assemble(
        mut self,
        plan: &PreprocessPlan,
    ) -> Result<(MiniBatch, StageTimings), PreprocessError> {
        let t0 = Instant::now();
        let outputs = &mut self.outputs;
        let mini_batch =
            assemble_mini_batch(plan, self.labels, |pos| std::mem::take(&mut outputs[pos]))?;
        self.timings.format = t0.elapsed();
        Ok((mini_batch, self.timings))
    }
}

/// The typed intermediate hand-off of one split batch: every boundary
/// stage's materialized output, keyed by parent-plan stage position. This —
/// and only this — is what crosses the ISP → host link in a split run;
/// on-device intermediates consumed by later ISP stages never leave the
/// drive.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct BoundaryBatch {
    /// `(stage position, value)` pairs in execution order.
    pub values: Vec<(usize, StageValue)>,
}

impl BoundaryBatch {
    /// Total serialized payload crossing the link, in bytes — the quantity
    /// the placement cost model prices against the device link rate.
    #[must_use]
    pub fn byte_len(&self) -> u64 {
        self.values.iter().map(|(_, v)| v.byte_len()).sum()
    }
}

/// Runs the ISP side of a split plan over an owned batch of its projection
/// and packs the boundary outputs for transfer.
///
/// # Errors
///
/// Returns [`PreprocessError::BadColumn`] when the batch is missing an
/// ISP-side raw input, [`PreprocessError::Plan`] on kind violations.
pub fn preprocess_split_isp(
    plan: &PreprocessPlan,
    split: &SplitPlan,
    batch: RowBatch,
    chunk_elems: usize,
) -> Result<(BoundaryBatch, StageTimings, UnitStats), PreprocessError> {
    let side = Side::isp(split, chunk_elems);
    let mut unit = UnitState::transformed(plan, side, batch, 0, Duration::ZERO)?;
    Ok((unit.boundary(split), unit.timings, unit.stats))
}

/// Runs the host side of a split plan: seeds the transferred boundary
/// values, runs the host-resident stages over an owned batch of the host
/// projection (label included) and assembles.
///
/// # Errors
///
/// Returns [`PreprocessError::Plan`] when the boundary hand-off does not
/// cover the split's boundary schema or a transferred value's kind
/// mismatches its stage, [`PreprocessError::BadColumn`] on missing host-side
/// raw inputs.
pub fn preprocess_split_host(
    plan: &PreprocessPlan,
    split: &SplitPlan,
    batch: RowBatch,
    boundary: BoundaryBatch,
) -> Result<(MiniBatch, StageTimings), PreprocessError> {
    let mut unit = UnitState::new(plan);
    unit.seed(plan, split, boundary)?;
    unit.transform(plan, Side::host(split), batch)?;
    unit.assemble(plan)
}

/// On-chip feature-buffer capacity in elements. The SmartSSD build's
/// per-unit buffers hold a few KiB; 2 KiB of 4-byte elements keeps chunks
/// realistic without dominating emulation time.
pub const FEATURE_BUFFER_ELEMS: usize = 512;

/// Statistics of one emulated device run, for cross-checking against the
/// analytic model.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IspRunStats {
    /// Bytes moved over the emulated P2P link.
    pub p2p_bytes: u64,
    /// Chunks through each unit class and elements transformed.
    pub units: UnitStats,
}

/// Runs a fully elementwise chain on an owned column: uniquely held buffers
/// transform in place and move into the stage output; shared buffers (a
/// multi-clone storage backend) fall back to the borrowed path.
#[allow(clippy::too_many_arguments)]
fn run_stage_owned(
    ops: &[Op],
    column: Array,
    name: &str,
    kind: ValueKind,
    slot: &mut StageValue,
    temp: &mut StageValue,
    chunk: usize,
    staged: &mut StagedBufs,
    timings: &mut StageTimings,
    stats: &mut UnitStats,
) -> Result<(), PreprocessError> {
    let bad = || PreprocessError::BadColumn { column: name.into() };
    let mut owned = match (kind, column) {
        (ValueKind::List, Array::ListInt64 { offsets, mut values }) => {
            if values.make_mut().is_none() {
                let input = ValueRef::List { offsets: &offsets, values: &values };
                return run_chain(ops, input, slot, temp, chunk, staged, timings, stats);
            }
            StageValue::List { offsets: offsets.into_vec(), values: values.into_vec() }
        }
        (ValueKind::Dense, Array::Float32(mut buf)) => {
            if buf.make_mut().is_none() {
                return run_chain(
                    ops,
                    ValueRef::Dense(&buf),
                    slot,
                    temp,
                    chunk,
                    staged,
                    timings,
                    stats,
                );
            }
            StageValue::Dense(buf.into_vec())
        }
        (ValueKind::Ids, Array::Int64(mut buf)) => {
            if buf.make_mut().is_none() {
                return run_chain(
                    ops,
                    ValueRef::Ids(&buf),
                    slot,
                    temp,
                    chunk,
                    staged,
                    timings,
                    stats,
                );
            }
            StageValue::Ids(buf.into_vec())
        }
        _ => return Err(bad()),
    };
    for op in ops {
        let t0 = Instant::now();
        let elems = owned.as_value_ref().elems();
        apply_op_in_place(op, &mut owned, chunk, stats)?;
        timings.ops.add(op.tag(), t0.elapsed(), elems);
    }
    *slot = owned;
    Ok(())
}

/// Full pipeline over a stored partition: Extract (projected read + decode),
/// Transform, format conversion.
///
/// # Errors
///
/// Propagates storage, decode and shape failures.
pub fn preprocess_partition<B: BlobRead>(
    plan: &PreprocessPlan,
    blob: B,
) -> Result<(MiniBatch, StageTimings), PreprocessError> {
    preprocess_partition_with(plan, blob, &mut ScratchSpace::new())
}

/// Like [`preprocess_partition`], staging Extract reads in the worker's
/// [`ScratchSpace`]: the host side ([`Side::whole`], whole-column) of one
/// whole partition.
///
/// # Errors
///
/// Same as [`preprocess_partition`].
pub fn preprocess_partition_with<B: BlobRead>(
    plan: &PreprocessPlan,
    blob: B,
    scratch: &mut ScratchSpace,
) -> Result<(MiniBatch, StageTimings), PreprocessError> {
    let side = Side::whole(plan, usize::MAX);
    UnitState::read(plan, blob, None, side, &mut scratch.read)?.assemble(plan)
}

/// Full pipeline over one row group of an already-open partition. Row-group
/// preprocessing is row-wise, so concatenating the mini-batches of a
/// partition's groups in file order is bit-identical to preprocessing the
/// whole partition at once — the invariant the shuffle determinism suite
/// pins.
///
/// # Errors
///
/// Same as [`preprocess_partition_with`].
pub fn preprocess_group_with<B: BlobRead>(
    plan: &PreprocessPlan,
    reader: &FileReader<B>,
    row_group: usize,
    scratch: &mut ScratchSpace,
) -> Result<(MiniBatch, StageTimings), PreprocessError> {
    let side = Side::whole(plan, usize::MAX);
    UnitState::run(plan, reader, Some(row_group), side, &mut scratch.read)?.assemble(plan)
}

/// Decodes `needed` (any subset of the plan's columns) from an open reader
/// into one owned [`RowBatch`], row groups merged, honoring the plan's
/// per-column [`crate::plan::ColumnRequirement`]s: a `Prefix(x)` column
/// decodes only the first `x` elements of each list. Requirements come from
/// *all* of a column's readers, not from the projection, so a split side's
/// projection reads what the whole plan would. The Extract of
/// [`UnitState::run`].
///
/// # Errors
///
/// Same as [`UnitState::run`]'s Extract.
pub fn extract_columns_for_plan<B: BlobRead>(
    plan: &PreprocessPlan,
    reader: &FileReader<B>,
    needed: &[String],
    read: &mut ReadScratch,
) -> Result<RowBatch, PreprocessError> {
    Ok(extract(Some(plan), reader, needed, None, read)?.0)
}

/// Decodes an arbitrary column projection from an open reader into one
/// owned [`RowBatch`], always in full — the plan-free Extract (and the
/// full-decode comparator the benches measure prefix pushdown against).
///
/// # Errors
///
/// Same as [`extract_columns_for_plan`].
pub fn extract_columns_from_reader<B: BlobRead>(
    reader: &FileReader<B>,
    needed: &[String],
    read: &mut ReadScratch,
) -> Result<RowBatch, PreprocessError> {
    Ok(extract(None, reader, needed, None, read)?.0)
}

/// The one Extract: resolves `needed` against the file schema (a missing
/// name is [`PreprocessError::BadColumn`] before anything is read), reads
/// the projection of every row group or of `group` alone — under `plan`'s
/// prefix limits when given — and merges groups column-major. A file with
/// no row groups yields a 0-row batch. Also returns the bytes fetched.
fn extract<B: BlobRead>(
    plan: Option<&PreprocessPlan>,
    reader: &FileReader<B>,
    needed: &[String],
    group: Option<usize>,
    read: &mut ReadScratch,
) -> Result<(RowBatch, u64), PreprocessError> {
    let meta = reader.meta();
    let fields = meta.schema.fields();
    let mut chunks = Vec::with_capacity(needed.len());
    for name in needed {
        let c = meta
            .schema
            .index_of(name)
            .ok_or_else(|| PreprocessError::BadColumn { column: name.clone() })?;
        chunks.push((c, plan.and_then(|p| p.column_limit(name))));
    }
    let groups = group.map_or(0..reader.row_group_count(), |g| g..g + 1);
    let read_group = |g: usize, read: &mut ReadScratch| -> Result<Vec<Array>, ColumnarError> {
        chunks.iter().map(|&(c, limit)| reader.read_column_limit_with(g, c, limit, read)).collect()
    };
    let columns = if groups.len() == 1 {
        read_group(groups.start, read)?
    } else {
        // Group-major reads, transposed by value into per-column parts.
        let mut parts: Vec<Vec<Array>> =
            chunks.iter().map(|_| Vec::with_capacity(groups.len())).collect();
        for g in groups.clone() {
            for (part, array) in parts.iter_mut().zip(read_group(g, read)?) {
                part.push(array);
            }
        }
        // Consumed column by column, so each column's parts are freed as
        // soon as it is merged.
        parts
            .into_iter()
            .zip(&chunks)
            .map(|(part, &(c, _))| match part.as_slice() {
                [] => Ok(Array::empty(fields[c].data_type())),
                part => presto_columnar::column::concat_arrays(part),
            })
            .collect::<Result<_, _>>()?
    };
    let schema =
        presto_columnar::Schema::new(chunks.iter().map(|&(c, _)| fields[c].clone()).collect())?;
    // Every group in `groups` was just read, so it indexes the footer.
    let fetched = groups
        .flat_map(|g| chunks.iter().map(move |&(c, limit)| (g, c, limit)))
        .map(|(g, c, limit)| meta.row_groups[g].columns[c].read_len(limit))
        .sum();
    Ok((RowBatch::new(schema, columns)?, fetched))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::{ChainSpec, PlanGraph};
    use crate::op::IdMap;
    use crate::SigridHasher;
    use presto_datagen::{generate_batch, write_partition, RmConfig};

    fn tiny_config() -> RmConfig {
        let mut c = RmConfig::rm1();
        c.batch_size = 64;
        c
    }

    /// The borrowed loop on a fresh scratch: the reference every other path
    /// is compared against.
    fn preprocess_batch(
        plan: &PreprocessPlan,
        batch: &RowBatch,
    ) -> Result<(MiniBatch, StageTimings), PreprocessError> {
        preprocess_batch_with(plan, batch, &mut ScratchSpace::new())
    }

    /// The unit call's Transform half over an owned in-memory batch: the
    /// host side of an everything-on-the-host split.
    fn preprocess_owned(
        plan: &PreprocessPlan,
        batch: RowBatch,
    ) -> Result<(MiniBatch, StageTimings), PreprocessError> {
        let split = plan.split(&vec![crate::plan::Place::Host; plan.stages().len()]).unwrap();
        preprocess_split_host(plan, &split, batch, BoundaryBatch::default())
    }

    #[test]
    fn end_to_end_shapes() {
        let c = tiny_config();
        let plan = PreprocessPlan::from_config(&c, 1).unwrap();
        let batch = generate_batch(&c, 64, 2);
        let (mb, t) = preprocess_batch(&plan, &batch).unwrap();
        assert_eq!(mb.rows(), 64);
        assert_eq!(mb.dense().cols(), 13);
        assert_eq!(mb.sparse().len(), 26 + 13);
        assert_eq!(t.extract, Duration::ZERO); // not measured on this path
    }

    #[test]
    fn normalized_ids_are_bounded_by_table_sizes() {
        let c = tiny_config();
        let plan = PreprocessPlan::from_config(&c, 1).unwrap();
        let batch = generate_batch(&c, 64, 2);
        let (mb, _) = preprocess_batch(&plan, &batch).unwrap();
        for feat in mb.sparse() {
            let bound = if feat.name.starts_with("gen_") {
                c.bucket_size as i64 + 1
            } else {
                c.avg_embeddings as i64
            };
            for &v in &feat.values {
                assert!((0..bound).contains(&v), "{}: id {v}", feat.name);
            }
        }
    }

    #[test]
    fn dense_outputs_are_log_normalized() {
        let c = tiny_config();
        let plan = PreprocessPlan::from_config(&c, 1).unwrap();
        let batch = generate_batch(&c, 64, 2);
        let (mb, _) = preprocess_batch(&plan, &batch).unwrap();
        let raw = batch.column("dense_0").unwrap().as_float32().unwrap();
        for (r, &x) in raw.iter().enumerate() {
            let y = mb.dense().row(r)[0];
            assert!((y - lognorm::log_normalize_one(x)).abs() < 1e-6);
        }
    }

    /// The P2P byte count is what the device ships: on a long-history
    /// partition (stored head/tail) under a `Prefix(8)` plan that is the
    /// head pages of every sparse chunk, and a counting backend must see
    /// exactly those bytes move, in one read per projected column per group
    /// — for a whole-partition and a grouped file, and for the subset of
    /// columns one side of a split run projects.
    #[test]
    fn p2p_bytes_are_the_bytes_the_reads_fetch() {
        use presto_columnar::{CountingBlob, FileWriter, MemBlob};
        let mut c = RmConfig::rm_longseq();
        c.batch_size = 96;
        let batch = generate_batch(&c, 96, 5);
        let history =
            |x| PreprocessPlan::compile(PlanGraph::long_history(&c, 3, x).unwrap(), &c).unwrap();
        let (prefix_plan, deep_plan) = (history(8), history(4000));
        let full_plan = PreprocessPlan::from_config(&c, 3).unwrap();
        let mut stored_bytes = Vec::new();
        for group_rows in [None, Some(40)] {
            let mut writer = FileWriter::new(batch.schema().clone());
            if let Some(group_rows) = group_rows {
                writer = writer.with_group_rows(group_rows);
            }
            writer.write_batch(batch.columns()).unwrap();
            let blob = CountingBlob::new(MemBlob::new(writer.finish()));
            let (groups, open) = {
                let reader = FileReader::open(&blob).unwrap();
                (reader.row_group_count() as u64, (blob.read_calls(), blob.bytes_read()))
            };
            for plan in [&prefix_plan, &deep_plan, &full_plan] {
                let columns = plan.required_columns().len() as u64;
                let mut read = ReadScratch::default();
                blob.reset();
                let side = Side::whole(plan, FEATURE_BUFFER_ELEMS);
                let unit = UnitState::read(plan, &blob, None, side, &mut read).unwrap();
                assert_eq!(blob.read_calls() - open.0, columns * groups);
                assert_eq!(blob.bytes_read() - open.1, unit.fetched());
                stored_bytes.push(unit.fetched());

                let sparse_only: Vec<String> =
                    (0..c.num_sparse).map(|i| format!("sparse_{i}")).collect();
                blob.reset();
                let side = Side { columns: &sparse_only, stages: Some(&[]), chunk: usize::MAX };
                let unit = UnitState::read(plan, &blob, None, side, &mut read).unwrap();
                assert_eq!(blob.read_calls() - open.0, c.num_sparse as u64 * groups);
                assert_eq!(blob.bytes_read() - open.1, unit.fetched());
            }
        }
        // Only the plan whose prefix the head pages cover is charged less.
        for file in stored_bytes.chunks(3) {
            assert!(file[0] * 4 < file[1], "prefix {} vs deep prefix {}", file[0], file[1]);
            assert_eq!(file[1], file[2], "a prefix past K costs the whole chunk");
        }
    }

    #[test]
    fn partition_path_matches_batch_path() {
        let c = tiny_config();
        let plan = PreprocessPlan::from_config(&c, 1).unwrap();
        let batch = generate_batch(&c, 64, 7);
        let blob = write_partition(&batch).unwrap();
        let (from_disk, t) = preprocess_partition(&plan, blob).unwrap();
        let (from_mem, _) = preprocess_batch(&plan, &batch).unwrap();
        assert_eq!(from_disk, from_mem);
        assert!(t.extract > Duration::ZERO);
    }

    #[test]
    fn owned_path_matches_borrowed_path() {
        let c = tiny_config();
        let plan = PreprocessPlan::from_config(&c, 1).unwrap();
        let batch = generate_batch(&c, 64, 9);
        let (borrowed, _) = preprocess_batch(&plan, &batch).unwrap();
        let (owned, _) = preprocess_owned(&plan, batch).unwrap();
        assert_eq!(owned, borrowed);
    }

    /// The columns of `batch` one side of a split projects, as their own
    /// batch.
    fn extract_split_side(batch: &RowBatch, columns: &[String]) -> RowBatch {
        let blob = write_partition(batch).unwrap();
        let reader = FileReader::open(blob).unwrap();
        extract_columns_from_reader(&reader, columns, &mut ReadScratch::default()).unwrap()
    }

    #[test]
    fn chunked_path_matches_whole_column_path_for_any_chunk() {
        let mut c = tiny_config();
        c.avg_sparse_len = 5;
        c.fixed_sparse_len = false;
        let plan =
            PreprocessPlan::compile(PlanGraph::truncated_cross(&c, 3, 3, 2).unwrap(), &c).unwrap();
        let batch = generate_batch(&c, 64, 9);
        let (whole, _) = preprocess_batch(&plan, &batch).unwrap();
        let split = plan.split(&vec![crate::plan::Place::Isp; plan.stages().len()]).unwrap();
        let isp = |b: &RowBatch| extract_split_side(b, split.isp_columns());
        let host = |b: &RowBatch| extract_split_side(b, split.host_columns());
        for chunk in [1usize, 7, 64, 4096] {
            let (boundary, _, stats) =
                preprocess_split_isp(&plan, &split, isp(&batch), chunk).unwrap();
            let (chunked, _) =
                preprocess_split_host(&plan, &split, host(&batch), boundary).unwrap();
            assert_eq!(chunked, whole, "chunk {chunk}");
            assert!(stats.elements > 0);
            assert!(stats.restructure_chunks > 0, "FirstX/NGram counted");
        }
    }

    #[test]
    fn split_partition_matches_single_fleet_paths() {
        use crate::plan::Place;
        let mut c = tiny_config();
        c.avg_sparse_len = 5;
        c.fixed_sparse_len = false;
        let graphs = [
            PlanGraph::canonical(&c, 3).unwrap(),
            PlanGraph::truncated_cross(&c, 3, 3, 2).unwrap(),
            PlanGraph::cleaned(&c, 3).unwrap(),
        ];
        for graph in graphs {
            let plan = PreprocessPlan::compile(graph, &c).unwrap();
            let batch = generate_batch(&c, 64, 11);
            let (reference, _) = preprocess_batch(&plan, &batch).unwrap();
            let blob = write_partition(&batch).unwrap();
            let n = plan.stages().len();
            // Host-only, ISP-only, and an alternating split.
            let assignments = [
                vec![Place::Host; n],
                vec![Place::Isp; n],
                (0..n).map(|i| if i % 2 == 0 { Place::Isp } else { Place::Host }).collect(),
            ];
            for assignment in assignments {
                let split = plan.split(&assignment).unwrap();
                let reader = FileReader::open(blob.clone()).unwrap();
                let mut read = ReadScratch::default();
                let (boundary, stats) = if split.isp_stages().is_empty() {
                    (BoundaryBatch::default(), UnitStats::default())
                } else {
                    let batch =
                        extract_columns_for_plan(&plan, &reader, split.isp_columns(), &mut read)
                            .unwrap();
                    let (boundary, _, stats) =
                        preprocess_split_isp(&plan, &split, batch, 512).unwrap();
                    (boundary, stats)
                };
                let boundary_bytes = boundary.byte_len();
                let host_batch =
                    extract_columns_for_plan(&plan, &reader, split.host_columns(), &mut read)
                        .unwrap();
                let (mb, _) = preprocess_split_host(&plan, &split, host_batch, boundary).unwrap();
                assert_eq!(mb, reference, "split {:?}", split.fleet());
                if split.isp_stages().is_empty() {
                    assert_eq!(boundary_bytes, 0);
                } else {
                    assert!(boundary_bytes > 0);
                    assert!(stats.elements > 0);
                }
            }
        }
    }

    #[test]
    fn split_host_rejects_missing_or_mistyped_boundary() {
        use crate::plan::Place;
        let c = tiny_config();
        let plan = PreprocessPlan::from_config(&c, 1).unwrap();
        let batch = generate_batch(&c, 16, 3);
        let split = plan.split(&vec![Place::Isp; plan.stages().len()]).unwrap();
        let blob = write_partition(&batch).unwrap();
        let reader = FileReader::open(blob).unwrap();
        let mut read = ReadScratch::default();
        let host_batch =
            extract_columns_from_reader(&reader, split.host_columns(), &mut read).unwrap();

        // Empty hand-off: every boundary slot is missing.
        let err =
            preprocess_split_host(&plan, &split, host_batch.clone(), BoundaryBatch::default())
                .unwrap_err();
        assert!(matches!(err, PreprocessError::Plan { .. }), "{err}");

        // Right stages, wrong kind.
        let mistyped = BoundaryBatch {
            values: split
                .boundary()
                .iter()
                .map(|slot| (slot.stage, StageValue::Dense(vec![0.0; 16])))
                .collect(),
        };
        let err = preprocess_split_host(&plan, &split, host_batch, mistyped).unwrap_err();
        assert!(matches!(err, PreprocessError::Plan { .. }), "{err}");
    }

    #[test]
    fn scratch_accessors_track_the_last_plan() {
        // Regression: after reuse with a smaller plan, the accessors must
        // not expose stale trailing stages from the earlier, larger plan.
        let big = tiny_config();
        let mut small = tiny_config();
        small.num_dense = 2;
        small.num_sparse = 3;
        small.num_generated = 2;
        small.num_tables = small.num_sparse + small.num_generated;
        let big_plan = PreprocessPlan::from_config(&big, 1).unwrap();
        let small_plan = PreprocessPlan::from_config(&small, 1).unwrap();
        let mut scratch = ScratchSpace::new();
        transform_batch_into(&big_plan, &generate_batch(&big, 16, 1), &mut scratch).unwrap();
        assert_eq!(scratch.generated().len(), 13);
        assert_eq!(scratch.hashed().len(), 26);
        assert_eq!(scratch.dense().len(), 13);
        transform_batch_into(&small_plan, &generate_batch(&small, 16, 1), &mut scratch).unwrap();
        assert_eq!(scratch.generated().len(), 2);
        assert_eq!(scratch.hashed().len(), 3);
        assert_eq!(scratch.dense().len(), 2);
    }

    #[test]
    fn scratch_reuse_across_batches_is_consistent() {
        let c = tiny_config();
        let plan = PreprocessPlan::from_config(&c, 1).unwrap();
        let mut scratch = ScratchSpace::new();
        for seed in 0..4 {
            let batch = generate_batch(&c, 64, seed);
            let (fresh, _) = preprocess_batch(&plan, &batch).unwrap();
            let (reused, _) = preprocess_batch_with(&plan, &batch, &mut scratch).unwrap();
            assert_eq!(fresh, reused, "seed {seed}");
        }
    }

    #[test]
    fn scratch_reuse_across_partitions_is_consistent() {
        let c = tiny_config();
        let plan = PreprocessPlan::from_config(&c, 1).unwrap();
        let mut scratch = ScratchSpace::new();
        for seed in 0..4 {
            let batch = generate_batch(&c, 64, 100 + seed);
            let blob = write_partition(&batch).unwrap();
            let (fresh, _) = preprocess_partition(&plan, blob.clone()).unwrap();
            let (reused, _) = preprocess_partition_with(&plan, blob, &mut scratch).unwrap();
            assert_eq!(fresh, reused, "seed {seed}");
        }
    }

    #[test]
    fn shared_blob_partitions_still_preprocess() {
        // Two clones of one blob processed back to back: the second decode
        // must not be affected by the first one's in-place transforms.
        let c = tiny_config();
        let plan = PreprocessPlan::from_config(&c, 1).unwrap();
        let batch = generate_batch(&c, 64, 21);
        let blob = write_partition(&batch).unwrap();
        let (a, _) = preprocess_partition(&plan, blob.clone()).unwrap();
        let (b, _) = preprocess_partition(&plan, blob).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn missing_column_is_reported() {
        let c = tiny_config();
        let mut big = c.clone();
        big.num_dense = 14; // plan expects a dense_13 the data lacks
        big.num_tables = big.num_sparse + big.num_generated;
        let plan = PreprocessPlan::from_config(&big, 1).unwrap();
        let batch = generate_batch(&c, 8, 1);
        let err = preprocess_batch(&plan, &batch).unwrap_err();
        assert!(matches!(err, PreprocessError::BadColumn { .. }));
        assert!(err.to_string().contains("dense_13"));
    }

    #[test]
    fn missing_column_is_reported_on_owned_path() {
        let c = tiny_config();
        let mut big = c.clone();
        big.num_dense = 14;
        big.num_tables = big.num_sparse + big.num_generated;
        let plan = PreprocessPlan::from_config(&big, 1).unwrap();
        let batch = generate_batch(&c, 8, 1);
        let blob = write_partition(&batch).unwrap();
        let err = preprocess_owned(&plan, batch).unwrap_err();
        assert!(matches!(err, PreprocessError::BadColumn { .. }));
        // Stored: resolved against the file schema before any read.
        let err = preprocess_partition(&plan, blob).unwrap_err();
        assert!(matches!(&err, PreprocessError::BadColumn { column } if column == "dense_13"));
    }

    /// A file of `c`'s schema with no row groups.
    fn zero_row_group_file(c: &RmConfig) -> presto_columnar::MemBlob {
        let schema = generate_batch(c, 4, 1).schema().clone();
        presto_columnar::MemBlob::new(presto_columnar::FileWriter::new(schema).finish())
    }

    /// No row groups to read: a missing name is still `BadColumn`, not a
    /// panic.
    #[test]
    fn zero_row_group_file_reports_a_missing_column() {
        let reader = FileReader::open(zero_row_group_file(&tiny_config())).unwrap();
        assert_eq!(reader.row_group_count(), 0);
        let mut read = ReadScratch::default();
        let err =
            extract_columns_from_reader(&reader, &["nope".to_owned()], &mut read).unwrap_err();
        assert!(matches!(&err, PreprocessError::BadColumn { column } if column == "nope"), "{err}");
    }

    /// No row groups to read: a present projection is a 0-row batch and the
    /// whole unit a 0-row mini-batch.
    #[test]
    fn zero_row_group_file_extracts_zero_rows() {
        let c = tiny_config();
        let plan = PreprocessPlan::from_config(&c, 1).unwrap();
        let blob = zero_row_group_file(&c);
        let reader = FileReader::open(blob.clone()).unwrap();
        let mut read = ReadScratch::default();
        let batch =
            extract_columns_from_reader(&reader, plan.required_columns(), &mut read).unwrap();
        assert_eq!((batch.rows(), batch.columns().len()), (0, plan.required_columns().len()));
        let (mb, _) = preprocess_partition(&plan, blob).unwrap();
        assert_eq!(mb.rows(), 0);
        assert_eq!(mb.sparse().len(), 26 + 13);
    }

    #[test]
    fn generated_features_have_unit_lengths() {
        let c = tiny_config();
        let plan = PreprocessPlan::from_config(&c, 1).unwrap();
        let batch = generate_batch(&c, 16, 3);
        let (mb, _) = preprocess_batch(&plan, &batch).unwrap();
        let gen = mb.sparse_by_name("gen_0").unwrap();
        assert_eq!(gen.rows(), 16);
        for r in 0..16 {
            assert_eq!(gen.row(r).len(), 1);
        }
    }

    #[test]
    fn multi_op_chains_execute_through_all_paths() {
        // MapId → SigridHash on sparse columns plus Bucketize → MapId on a
        // generated feature: every path agrees and ids stay bounded.
        let mut c = tiny_config();
        c.avg_sparse_len = 4;
        c.fixed_sparse_len = false;
        let plan = PreprocessPlan::compile(PlanGraph::remapped(&c, 5, 128).unwrap(), &c).unwrap();
        let batch = generate_batch(&c, 48, 11);
        let blob = write_partition(&batch).unwrap();
        let (reference, _) = preprocess_batch(&plan, &batch).unwrap();
        let (with_scratch, _) =
            preprocess_batch_with(&plan, &batch, &mut ScratchSpace::new()).unwrap();
        assert_eq!(with_scratch, reference);
        let (owned, _) = preprocess_owned(&plan, batch).unwrap();
        assert_eq!(owned, reference);
        let (from_disk, _) = preprocess_partition(&plan, blob).unwrap();
        assert_eq!(from_disk, reference);
        let gen = reference.sparse_by_name("gen_0").unwrap();
        for &v in &gen.values {
            assert!((0..=(c.bucket_size / 2) as i64).contains(&v), "remapped id {v}");
        }
    }

    #[test]
    fn per_op_timings_cover_the_plan_vocabulary() {
        let mut c = tiny_config();
        c.avg_sparse_len = 5;
        c.fixed_sparse_len = false;
        let plan =
            PreprocessPlan::compile(PlanGraph::truncated_cross(&c, 3, 2, 2).unwrap(), &c).unwrap();
        let batch = generate_batch(&c, 64, 3);
        let (_, t) = preprocess_batch(&plan, &batch).unwrap();
        for tag in [OpTag::SigridHash, OpTag::LogNorm, OpTag::Bucketize, OpTag::FirstX] {
            assert!(t.ops.get(tag).elems > 0, "{tag} saw no elements");
        }
        assert!(t.ops.get(OpTag::NGram).elems > 0);
        assert_eq!(t.ops.get(OpTag::MapId).elems, 0, "no MapId in this graph");
        assert_eq!(t.total(), t.extract + t.format + t.ops.total());
    }

    #[test]
    fn plan_violations_error_instead_of_panicking() {
        // A hand-built stage mismatch cannot arise from compile(), but the
        // executor must stay non-panicking: feed a batch whose column type
        // contradicts the plan kind.
        let c = tiny_config();
        let g = PlanGraph::new(vec![ChainSpec::feature(
            "x",
            "sparse_0",
            vec![Op::MapId(IdMap::shuffled(1, 8, 8))],
        )]);
        let plan = PreprocessPlan::compile(g, &c).unwrap();
        // Build a batch where sparse_0 is dense-typed.
        use presto_columnar::{DataType, Field, Schema};
        let schema = Schema::new(vec![
            Field::new("label", DataType::Int64),
            Field::new("sparse_0", DataType::Float32),
        ])
        .unwrap();
        let batch = RowBatch::new(
            schema,
            vec![Array::Int64(vec![0, 1].into()), Array::Float32(vec![1.0, 2.0].into())],
        )
        .unwrap();
        let err = preprocess_batch(&plan, &batch).unwrap_err();
        assert!(matches!(err, PreprocessError::BadColumn { .. }), "{err}");
        let err = preprocess_owned(&plan, batch).unwrap_err();
        assert!(matches!(err, PreprocessError::BadColumn { .. }), "{err}");
    }

    #[test]
    fn stage_timings_total_sums() {
        let mut t = StageTimings {
            extract: Duration::from_millis(1),
            format: Duration::from_millis(5),
            ops: OpTimings::default(),
        };
        t.ops.add(OpTag::Bucketize, Duration::from_millis(2), 10);
        t.ops.add(OpTag::SigridHash, Duration::from_millis(3), 10);
        t.ops.add(OpTag::LogNorm, Duration::from_millis(4), 10);
        assert_eq!(t.total(), Duration::from_millis(15));
        assert_eq!(t.bucketize(), Duration::from_millis(2));
        assert_eq!(t.sigridhash(), Duration::from_millis(3));
        assert_eq!(t.log(), Duration::from_millis(4));
        let hash = t.ops.get(OpTag::SigridHash);
        assert_eq!(hash.elems, 10);
        assert!(hash.ns_per_elem().unwrap() > 0.0);
        assert_eq!(OpBucket::default().ns_per_elem(), None);
    }

    #[test]
    fn sigrid_hasher_is_shared_across_graph_and_direct_use() {
        // The canonical seed recipe must keep matching direct kernel use.
        let c = tiny_config();
        let plan = PreprocessPlan::from_config(&c, 9).unwrap();
        let stage =
            plan.stages().iter().find(|s| s.output() == "sparse_3").expect("sparse_3 exists");
        let Op::SigridHash(h) = &stage.ops()[0] else { panic!("sparse stage hashes") };
        let expected =
            SigridHasher::new(9 ^ (0x5157_u64 << 32) ^ 3, c.avg_embeddings as u64).unwrap();
        assert_eq!(h, &expected);
    }
}
