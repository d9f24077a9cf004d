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
//! slot per stage, the mini-batch's dense matrix, timings and
//! [`UnitStats`]. The state then assembles the mini-batch (filling every
//! dense column not yet in the matrix through one tiled fill), or is handed
//! to the unit's other side, which seeds its boundary values
//! ([`BoundaryBatch`]) into its own state. Every fleet of
//! [`crate::stream`] is one or two sides of that call:
//!
//! | caller | projection | stages | chunk | then |
//! |---|---|---|---|---|
//! | host (fused, row group, failover) | `required_columns` | all | ∞ | assemble |
//! | ISP | `required_columns` | all | [`FEATURE_BUFFER_ELEMS`] | assemble |
//! | split side A | `isp_columns` | `isp_stages` | [`FEATURE_BUFFER_ELEMS`] | count boundary bytes, hand the state over |
//! | pair side A | halves' `isp_columns` | `isp_stages` | ∞ | fill its dense columns, hand the state over |
//! | side B (split or pair) | `host_columns` | `host_stages` that read no boundary value | ∞ | merge A's state (seed, then the rest of `host_stages`) + assemble |
//!
//! The chunk is the in-storage unit's counting granularity, not a copy
//! loop: every op runs over the whole column on every side, no op copies
//! through a staging buffer, and each op application counts ⌈elements /
//! chunk⌉ (at least 1) on-chip feature-buffer chunks per unit class into
//! [`UnitStats`] — so the output is the same for any chunk by construction.
//! The public `preprocess_*` / `extract_*` functions are wrappers of a few
//! lines over this call, or over its Extract or Transform half where the
//! caller holds a [`RowBatch`].
//!
//! # The allocation-free hot path
//!
//! PreSto's motivating observation (Section II-B/II-D) is that host-side
//! preprocessing is dominated by memory traffic, so the executor avoids
//! per-batch copies and allocations in steady state:
//!
//! * [`ScratchSpace`] owns every reusable buffer — the Extract chunk buffer
//!   and one stage-value slot per compiled stage.
//! * One stage runner serves every caller. A stage input is borrowed (a raw
//!   column or an earlier stage's slot) or owned: the unit call consumes
//!   the decoded columns instead of copying them, so a stage whose chain is
//!   fully elementwise and whose raw column has no other reader
//!   ([`consumes_raw`](crate::plan::CompiledStage::consumes_raw))
//!   transforms **in place** on the uniquely owned decode buffer, and
//!   labels/offsets move into the mini-batch without a copy. The head op on
//!   a borrowed input runs its fused `*_into` kernel into the slot; later
//!   elementwise ops run in place and a shape-changing op ping-pongs through
//!   one `temp` buffer.
//! * [`transform_batch_into`] runs the same runner over a *borrowed* batch
//!   into the scratch's slots, which outlive the call, so a worker that
//!   keeps its scratch performs **zero heap allocation** inside it once the
//!   buffers are warm (asserted by the counting-allocator test in
//!   `tests/alloc_free.rs`). [`preprocess_batch_with`] formats from it.
//!
//! Every route is bit-identical to the straightforward allocating kernels;
//! property tests in `tests/` pin that equivalence.

use crate::graph::LABEL_COLUMN;
use crate::lognorm;
use crate::minibatch::{DenseMatrix, JaggedFeature, MiniBatch, ShapeError};
use crate::op::{
    clamp_in_place, clamp_into, fill_missing_in_place, fill_missing_into, firstx_into, ngram_into,
    Op, OpTag, ValueKind,
};
use crate::plan::{CompiledStage, PreprocessPlan, SplitPlan, StageInput};
use presto_columnar::{Array, BlobRead, ColumnarError, FileReader, ReadScratch, Schema};
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
/// (generation = Bucketize, normalization = SigridHash/MapId/LogNorm/
/// Clamp/FillMissing, restructure = FirstX/NGram), filled by
/// [`UnitState::run`]. The chunk is a counting granularity: every op runs
/// over the whole column, and each application counts the ⌈elements /
/// chunk⌉ (at least 1) chunks a streaming unit of that buffer size would
/// see, so a whole-column side counts one chunk per op application.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct UnitStats {
    /// Chunks through the feature-generation unit.
    pub generation_chunks: u64,
    /// Chunks through the normalization units.
    pub normalize_chunks: u64,
    /// Chunks through the list-restructuring unit.
    pub restructure_chunks: u64,
    /// Total input elements transformed.
    pub elements: u64,
}

impl UnitStats {
    /// Records one application of a `tag` op over `elems` input elements
    /// at `chunk` elements per on-chip buffer.
    fn record(&mut self, tag: OpTag, elems: u64, chunk: usize) {
        let chunks = elems.div_ceil(chunk.max(1) as u64).max(1);
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

    /// The list value buffer, under a copy of `offsets` (the list structure
    /// an elementwise op keeps).
    fn list_values(&mut self, offsets: &[u32]) -> &mut Vec<i64> {
        let (out_offsets, values) = self.list_bufs();
        out_offsets.clear();
        out_offsets.extend_from_slice(offsets);
        values
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
    /// Ping-pong buffer for a shape-changing op after a stage's head op.
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
}

/// Runs `op` over a borrowed input through its fused `*_into` kernel,
/// writing `out` (variant re-initialized as needed, buffers recycled).
fn apply_into(op: &Op, input: ValueRef<'_>, out: &mut StageValue) -> Result<(), PreprocessError> {
    match (op, input) {
        (Op::LogNorm, ValueRef::Dense(src)) => lognorm::log_normalize_into(src, out.dense_buf()),
        (Op::Clamp { lo, hi }, ValueRef::Dense(src)) => clamp_into(src, *lo, *hi, out.dense_buf()),
        (Op::FillMissing(fill), ValueRef::Dense(src)) => {
            fill_missing_into(src, *fill, out.dense_buf());
        }
        (Op::Bucketize(b), ValueRef::Dense(src)) => b.apply_into(src, out.ids_buf()),
        (Op::SigridHash(h), ValueRef::Ids(src)) => h.apply_into(src, out.ids_buf()),
        (Op::MapId(m), ValueRef::Ids(src)) => m.apply_into(src, out.ids_buf()),
        (Op::SigridHash(h), ValueRef::List { offsets, values }) => {
            h.apply_into(values, out.list_values(offsets));
        }
        (Op::MapId(m), ValueRef::List { offsets, values }) => {
            m.apply_into(values, out.list_values(offsets));
        }
        (Op::FirstX(x), ValueRef::List { offsets, values }) => {
            let (out_offsets, out_values) = out.list_bufs();
            firstx_into(offsets, values, *x, out_offsets, out_values);
        }
        (Op::NGram { n, hasher }, ValueRef::List { offsets, values }) => {
            let (out_offsets, out_values) = out.list_bufs();
            ngram_into(offsets, values, *n, hasher, out_offsets, out_values);
        }
        _ => return Err(plan_violation(format!("op {op} applied to mismatched input kind"))),
    }
    Ok(())
}

/// Runs an elementwise `op` in place on an owned value.
fn apply_in_place(op: &Op, value: &mut StageValue) -> Result<(), PreprocessError> {
    match (op, value) {
        (Op::LogNorm, StageValue::Dense(v)) => lognorm::log_normalize_in_place(v),
        (Op::Clamp { lo, hi }, StageValue::Dense(v)) => clamp_in_place(v, *lo, *hi),
        (Op::FillMissing(fill), StageValue::Dense(v)) => fill_missing_in_place(v, *fill),
        (Op::SigridHash(h), StageValue::Ids(v) | StageValue::List { values: v, .. }) => {
            h.apply_in_place(v);
        }
        (Op::MapId(m), StageValue::Ids(v) | StageValue::List { values: v, .. }) => {
            m.apply_in_place(v);
        }
        _ => return Err(plan_violation(format!("op {op} applied in place to mismatched kind"))),
    }
    Ok(())
}

/// The raw columns a run reads: a borrowed batch, the owned columns of an
/// extracted one, whose `consumes_raw` columns move into their stages, or
/// none (stages that read only other stages).
enum Raw<'a> {
    Borrowed(&'a RowBatch),
    Owned(&'a Schema, &'a mut [Array]),
    Empty,
}

impl Raw<'_> {
    /// Column `name` as `stage`'s input: borrowed, or — when the stage
    /// consumes the column and its buffer is uniquely owned — moved into
    /// `slot` for the chain to run in place on (`None`).
    fn input(
        &mut self,
        stage: &CompiledStage,
        name: &str,
        slot: &mut StageValue,
    ) -> Result<Option<ValueRef<'_>>, PreprocessError> {
        let column = match self {
            Raw::Borrowed(batch) => batch.column(name),
            Raw::Owned(schema, columns) => match schema.index_of(name) {
                Some(i) if stage.consumes_raw() => {
                    if let Some(value) = take_unique(&mut columns[i], stage.input_kind()) {
                        *slot = value;
                        return Ok(None);
                    }
                    Some(&columns[i])
                }
                i => i.map(|i| &columns[i]),
            },
            Raw::Empty => None,
        };
        let value = column.and_then(|column| match stage.input_kind() {
            ValueKind::Dense => column.as_float32().map(ValueRef::Dense),
            ValueKind::List => {
                column.as_list_int64().map(|(offsets, values)| ValueRef::List { offsets, values })
            }
            ValueKind::Ids => column.as_int64().map(ValueRef::Ids),
        });
        value.map(Some).ok_or_else(|| PreprocessError::BadColumn { column: name.into() })
    }
}

/// Moves `column` out as a `kind` value when its buffer is uniquely owned
/// (no copy); `None` leaves a shared or mistyped column in place.
fn take_unique(column: &mut Array, kind: ValueKind) -> Option<StageValue> {
    let unique = match (kind, &mut *column) {
        (ValueKind::Dense, Array::Float32(buf)) => buf.make_mut().is_some(),
        (ValueKind::Ids, Array::Int64(buf)) => buf.make_mut().is_some(),
        (ValueKind::List, Array::ListInt64 { values, .. }) => values.make_mut().is_some(),
        _ => false,
    };
    if !unique {
        return None;
    }
    let empty = Array::empty(column.data_type());
    Some(match std::mem::replace(column, empty) {
        Array::Float32(buf) => StageValue::Dense(buf.into_vec()),
        Array::Int64(buf) => StageValue::Ids(buf.into_vec()),
        Array::ListInt64 { offsets, values } => {
            StageValue::List { offsets: offsets.into_vec(), values: values.into_vec() }
        }
        _ => unreachable!("matched above"),
    })
}

/// The one stage runner: runs `side`'s stages of `plan` over `raw` into
/// `slots` (one per plan stage), timing every op application into
/// `timings` and counting its `side.chunk`-element chunks into `stats`.
///
/// A stage's input is borrowed — a raw column or an earlier slot — or
/// owned: a `consumes_raw` column whose buffer is uniquely held becomes the
/// slot. The head op on a borrowed input runs its fused `*_into` kernel
/// into the slot; every later op runs in place when elementwise, or
/// ping-pongs through `temp` when it changes the shape (Bucketize, FirstX,
/// NGram) — no per-op intermediate allocation once the buffers are warm.
fn run_stages(
    plan: &PreprocessPlan,
    side: Side<'_>,
    mut raw: Raw<'_>,
    slots: &mut [StageValue],
    temp: &mut StageValue,
    timings: &mut StageTimings,
    stats: &mut UnitStats,
) -> Result<(), PreprocessError> {
    let stages = plan.stages();
    for k in 0..side.stages.map_or(stages.len(), <[usize]>::len) {
        let i = side.stages.map_or(k, |positions| positions[k]);
        let stage = &stages[i];
        let (done, rest) = slots.split_at_mut(i);
        let slot = &mut rest[0];
        let mut input = match stage.input() {
            StageInput::Stage(j) => Some(done[*j].as_value_ref()),
            StageInput::Raw(name) => raw.input(stage, name, slot)?,
        };
        // A leading `FirstX(x)` over lists already no longer than `x` is
        // the identity — the common case once prefix pushdown has truncated
        // the column at decode time (clamping still happens here when the
        // extracted prefix was a looser max). Skip the op instead of copying
        // the lists through it; a stage left with no op refills its slot.
        let mut ops = stage.ops();
        if let (Some(Op::FirstX(x)), Some(ValueRef::List { offsets, values })) =
            (ops.first(), input)
        {
            if offsets.windows(2).all(|w| (w[1] - w[0]) as usize <= *x) {
                ops = &ops[1..];
                if ops.is_empty() {
                    let out = slot.list_values(offsets);
                    out.clear();
                    out.extend_from_slice(values);
                }
            }
        }
        for op in ops {
            let t0 = Instant::now();
            let elems = match input.take() {
                Some(src) => {
                    apply_into(op, src, slot)?;
                    src.elems()
                }
                None if op.is_elementwise() => {
                    apply_in_place(op, slot)?;
                    slot.as_value_ref().elems()
                }
                None => {
                    std::mem::swap(slot, temp);
                    apply_into(op, temp.as_value_ref(), slot)?;
                    temp.as_value_ref().elems()
                }
            };
            timings.ops.add(op.tag(), t0.elapsed(), elems);
            stats.record(op.tag(), elems, side.chunk);
        }
    }
    Ok(())
}

/// Runs the compiled stages over a borrowed batch, writing every output
/// into `scratch` (no other side effects).
///
/// This is the allocation-free core: with a warm scratch, repeated calls on
/// same-shaped batches perform zero heap allocation. [`preprocess_batch_with`]
/// assembles the mini-batch from the outputs it leaves in the scratch.
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
    let n = plan.stages().len();
    if scratch.slots.len() < n {
        scratch.slots.resize_with(n, StageValue::default);
    }
    let mut timings = StageTimings::default();
    let (side, raw) = (Side::whole(plan, usize::MAX), Raw::Borrowed(batch));
    let (slots, temp) = (&mut scratch.slots, &mut scratch.temp);
    run_stages(plan, side, raw, slots, temp, &mut timings, &mut UnitStats::default())?;
    Ok(timings)
}

/// The emitted dense stages of `slots` that `pick` selects (by matrix
/// column and stage position), as the `(matrix column, values)` pairs of
/// [`DenseMatrix::fill_tiled`].
fn dense_columns<'a>(
    plan: &PreprocessPlan,
    slots: &'a [StageValue],
    pick: impl Fn(usize, usize) -> bool,
) -> Result<Vec<(usize, &'a [f32])>, PreprocessError> {
    let picked = plan.emitted_dense().iter().enumerate().filter(|&(c, &pos)| pick(c, pos));
    picked
        .map(|(c, &pos)| match &slots[pos] {
            StageValue::Dense(values) => Ok((c, values.as_slice())),
            _ => Err(plan_violation(format!("stage {pos} is not dense"))),
        })
        .collect()
}

/// Format conversion shared by every batch path: the filled `dense`
/// matrix, jagged features from the emitted list stages, then the emitted
/// id stages with identity-ramp offsets (one id per row) — all in graph
/// declaration order.
fn assemble_mini_batch(
    plan: &PreprocessPlan,
    labels: Vec<i64>,
    dense: DenseMatrix,
    mut fetch: impl FnMut(usize) -> StageValue,
) -> Result<MiniBatch, PreprocessError> {
    let rows = labels.len();
    let stages = plan.stages();
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

/// Like [`transform_batch_into`], then format conversion: the dense matrix
/// is filled from the scratch's slots in place, and the list and id outputs
/// are copied into owned buffers (they must outlive the scratch). The
/// transform loop itself allocates nothing once the scratch is warm; only
/// the returned mini-batch does.
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
    let mut dense = DenseMatrix::zeros(labels.len(), plan.emitted_dense().len());
    dense.fill_tiled(&dense_columns(plan, slots, |_, _| true)?)?;
    let mini_batch = assemble_mini_batch(plan, labels, dense, |pos| slots[pos].clone())?;
    timings.format = t0.elapsed();
    Ok((mini_batch, timings))
}

/// Moves `columns[index_of(name)]` out of the batch, leaving an empty array.
fn take_column(schema: &Schema, columns: &mut [Array], name: &str) -> Option<Array> {
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
    /// Decode limits parallel to `columns`, resolved once by the plan.
    pub(crate) limits: &'a [Option<usize>],
    /// Plan stage positions to run, each after its producer (or seeded
    /// before the run), or `None` for every stage.
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
        let (columns, limits) = (plan.required_columns(), &plan.required_limits[..]);
        Side { columns, limits, stages: None, chunk }
    }

    /// The ISP side of `split`: its projection (never the label) and stage
    /// prefix at `chunk`.
    #[must_use]
    pub(crate) fn isp(split: &'a SplitPlan, chunk: usize) -> Self {
        let (columns, limits) = (split.isp_columns(), &split.limits[..split.isp_columns().len()]);
        Side { columns, limits, stages: Some(split.isp_stages()), chunk }
    }

    /// The host side of `split`, whole-column: the label, the host
    /// projection and the host stages that read no boundary value.
    #[must_use]
    pub(crate) fn host(split: &'a SplitPlan) -> Self {
        let (columns, limits) = (split.host_columns(), &split.limits[split.isp_columns().len()..]);
        Side { columns, limits, stages: Some(split.host_groups().0), chunk: usize::MAX }
    }

    /// The host stages of `split` that read a boundary value, whole-column:
    /// no projection, run once the boundary is seeded.
    fn seeded(split: &'a SplitPlan) -> Self {
        Side { columns: &[], limits: &[], stages: Some(split.host_groups().1), chunk: usize::MAX }
    }
}

/// The output state of one unit: labels, one output slot per plan stage,
/// the mini-batch's dense matrix as far as it is filled, timings, unit
/// counters and the bytes its Extract fetched. The one unit call
/// ([`UnitState::run`]) returns it; the caller then assembles the
/// mini-batch. A two-sided unit's side A (a [`SplitPlan`]'s ISP side, or a
/// host pair's thread A, which also fills its own dense columns into the
/// matrix) hands its whole state to side B, which merges it into its own.
#[derive(Debug)]
pub struct UnitState {
    labels: Vec<i64>,
    /// Rows of the Transformed batch: the matrix's height.
    rows: usize,
    outputs: Vec<StageValue>,
    /// The row-major matrix, one column per emitted dense stage; 0 × 0
    /// until the first fill allocates it.
    dense: DenseMatrix,
    /// Which matrix columns hold their values (empty until the first fill).
    filled: Vec<bool>,
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
            rows: 0,
            outputs,
            dense: DenseMatrix::default(),
            filled: Vec::new(),
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
        let (batch, fetched) = extract(reader, side.columns, side.limits, group, read)?;
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
            extract(&FileReader::open(blob)?, side.columns, side.limits, group, read)?;
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
        self.rows = batch.rows();
        let (schema, mut columns) = batch.into_parts();
        if side.columns.iter().any(|c| c == LABEL_COLUMN) {
            self.labels = take_column(&schema, &mut columns, LABEL_COLUMN)
                .and_then(|a| match a {
                    Array::Int64(buf) => Some(buf.into_vec()),
                    _ => None,
                })
                .ok_or_else(|| PreprocessError::BadColumn { column: LABEL_COLUMN.into() })?;
        }
        let raw = Raw::Owned(&schema, &mut columns);
        let (slots, temp) = (&mut self.outputs, &mut StageValue::default());
        run_stages(plan, side, raw, slots, temp, &mut self.timings, &mut self.stats)
    }

    /// Validates the transferred boundary values against `split`'s boundary
    /// schema, moves them into their stages' slots, then runs the host
    /// stages that read them ([`SplitPlan::host_stages`]' second group).
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
        if let Some(missing) = split.boundary().iter().find(|slot| !seeded[slot.stage]) {
            return Err(plan_violation(format!(
                "boundary hand-off is missing stage {} ({})",
                missing.stage, missing.output
            )));
        }
        let (slots, temp) = (&mut self.outputs, &mut StageValue::default());
        let side = Side::seeded(split);
        run_stages(plan, side, Raw::Empty, slots, temp, &mut self.timings, &mut self.stats)
    }

    /// Takes over side A of a two-sided unit: adopts its matrix, whose
    /// filled columns `assemble` then leaves as they are, and seeds its
    /// boundary outputs ([`UnitState::seed`]). Runs before this state fills
    /// any column.
    ///
    /// # Errors
    ///
    /// Same as [`UnitState::seed`].
    pub(crate) fn merge(
        &mut self,
        plan: &PreprocessPlan,
        split: &SplitPlan,
        mut half: UnitState,
    ) -> Result<(), PreprocessError> {
        (self.dense, self.filled) =
            (std::mem::take(&mut half.dense), std::mem::take(&mut half.filled));
        self.seed(plan, split, half.boundary(split))
    }

    /// Fills the emitted dense slots among `stages` (every stage for
    /// `None`) that no fill has written yet into the unit's matrix, timed
    /// as format. The first fill allocates the matrix at this unit's rows;
    /// an adopted matrix of other rows is replaced the same way, so the
    /// adopted half's columns then fail the row check.
    ///
    /// # Errors
    ///
    /// [`PreprocessError::Shape`] when a slot does not hold the matrix's
    /// rows; [`PreprocessError::Plan`] when an emitted dense stage holds
    /// another kind.
    pub(crate) fn fill_dense(
        &mut self,
        plan: &PreprocessPlan,
        stages: Option<&[usize]>,
    ) -> Result<(), PreprocessError> {
        let t0 = Instant::now();
        let cols = plan.emitted_dense().len();
        if self.dense.rows() != self.rows || self.filled.len() != cols {
            (self.dense, self.filled) = (DenseMatrix::zeros(self.rows, cols), vec![false; cols]);
        }
        let columns = dense_columns(plan, &self.outputs, |c, pos| {
            !self.filled[c] && stages.is_none_or(|stages| stages.binary_search(&pos).is_ok())
        })?;
        self.dense.fill_tiled(&columns)?;
        for &(c, _) in &columns {
            self.filled[c] = true;
        }
        self.timings.format += t0.elapsed();
        Ok(())
    }

    /// Bytes of `split`'s boundary-crossing outputs: what side A hands over.
    pub(crate) fn boundary_bytes(&self, split: &SplitPlan) -> u64 {
        split.boundary().iter().map(|slot| self.outputs[slot.stage].byte_len()).sum()
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

    /// Format conversion over the seeded and computed slots: fills every
    /// dense column no earlier fill wrote, wraps the matrix, and moves the
    /// list and id outputs into the mini-batch. Format time adds to what
    /// earlier fills of this state measured.
    ///
    /// # Errors
    ///
    /// [`PreprocessError::Shape`] / [`PreprocessError::Plan`] when the slots
    /// do not make a mini-batch of the plan.
    pub fn assemble(
        mut self,
        plan: &PreprocessPlan,
    ) -> Result<(MiniBatch, StageTimings), PreprocessError> {
        self.fill_dense(plan, None)?;
        let t0 = Instant::now();
        let outputs = &mut self.outputs;
        let mini_batch = assemble_mini_batch(plan, self.labels, self.dense, |pos| {
            std::mem::take(&mut outputs[pos])
        })?;
        self.timings.format += t0.elapsed();
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

/// Runs the host side of a split plan: the host stages that read no
/// boundary value over an owned batch of the host projection (label
/// included), then the transferred boundary values seeded and the rest
/// run, then assembly.
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
    unit.transform(plan, Side::host(split), batch)?;
    unit.seed(plan, split, boundary)?;
    unit.assemble(plan)
}

/// On-chip feature-buffer capacity in elements: the ISP side's chunk, the
/// granularity [`UnitStats`] counts each op application's buffer traffic
/// in (no op copies through a buffer of this size; every op runs over the
/// whole column). The SmartSSD build's per-unit buffers hold a few KiB;
/// 2 KiB of 4-byte elements.
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
    let limits: Vec<_> = needed.iter().map(|name| plan.column_limit(name)).collect();
    Ok(extract(reader, needed, &limits, None, read)?.0)
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
    Ok(extract(reader, needed, &[], None, read)?.0)
}

/// The one Extract: resolves `needed` through the footer's name index (a
/// missing name is [`PreprocessError::BadColumn`] before anything is read),
/// reads the projection of every row group or of `group` alone — each
/// column under its entry of `limits`, whose missing entries (all of them,
/// for an empty slice) read in full — and merges groups column-major. A
/// file with no row groups yields a 0-row batch. Also returns the bytes
/// fetched.
fn extract<B: BlobRead>(
    reader: &FileReader<B>,
    needed: &[String],
    limits: &[Option<usize>],
    group: Option<usize>,
    read: &mut ReadScratch,
) -> Result<(RowBatch, u64), PreprocessError> {
    let meta = reader.meta();
    let fields = meta.schema.fields();
    let mut chunks = Vec::with_capacity(needed.len());
    for (k, name) in needed.iter().enumerate() {
        let c = meta
            .schema
            .index_of(name)
            .ok_or_else(|| PreprocessError::BadColumn { column: name.clone() })?;
        chunks.push((c, limits.get(k).copied().flatten()));
    }
    let groups = group.map_or(0..reader.row_group_count(), |g| g..g + 1);
    // One submission per group: its chunk reads reach the device together.
    let read_group = |g: usize, read: &mut ReadScratch| reader.read_columns_with(g, &chunks, read);
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
    let schema = Schema::new(chunks.iter().map(|&(c, _)| fields[c].clone()).collect())?;
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
                let limits: Vec<_> = sparse_only.iter().map(|n| plan.column_limit(n)).collect();
                let (columns, stages) = (&sparse_only, Some(&[][..]));
                let side = Side { columns, limits: &limits, stages, chunk: usize::MAX };
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

    /// The [`UnitStats`] a side must record running every stage of `plan`
    /// over `batch` at `chunk`, derived from stage input and output sizes:
    /// ⌈elements / chunk⌉ (at least 1) per op application into its unit
    /// class, where a leading `FirstX` over lists already within `x` is not
    /// applied and every later op is elementwise (so it sees the stage
    /// output's elements).
    fn expected_stats(plan: &PreprocessPlan, batch: &RowBatch, chunk: usize) -> UnitStats {
        let mut scratch = ScratchSpace::new();
        transform_batch_into(plan, batch, &mut scratch).unwrap();
        let mut want = UnitStats::default();
        for (i, stage) in plan.stages().iter().enumerate() {
            let input = match stage.input() {
                StageInput::Raw(name) => match batch.column(name).unwrap() {
                    Array::ListInt64 { values, .. } => values.len() as u64,
                    column => column.len() as u64,
                },
                StageInput::Stage(j) => scratch.slots[*j].as_value_ref().elems(),
            };
            let identity = match (&stage.ops()[0], stage.input()) {
                (Op::FirstX(x), StageInput::Raw(name)) => {
                    let (offsets, _) = batch.column(name).unwrap().as_list_int64().unwrap();
                    offsets.windows(2).all(|w| (w[1] - w[0]) as usize <= *x)
                }
                _ => false,
            };
            let output = scratch.slots[i].as_value_ref().elems();
            for (k, op) in stage.ops()[usize::from(identity)..].iter().enumerate() {
                assert!(k == 0 || op.is_elementwise(), "{op} after the head op");
                let elems = if k == 0 { input } else { output };
                let class = match op.tag() {
                    OpTag::Bucketize => &mut want.generation_chunks,
                    OpTag::FirstX | OpTag::NGram => &mut want.restructure_chunks,
                    _ => &mut want.normalize_chunks,
                };
                *class += elems.div_ceil(chunk as u64).max(1);
                want.elements += elems;
            }
        }
        want
    }

    /// The chunk is a count: over graphs covering every op class, an ISP
    /// side records Σ⌈elements / chunk⌉ per unit class (at least 1 per op
    /// application, empty columns included) — on the stored route (the ISP
    /// fleet's unit call; prefix pushdown makes long history's `FirstX` the
    /// identity) and on the owned route (uniquely held buffers transform in
    /// place; full lists make `FirstX` run). The non-empty counts are also
    /// pinned as numbers, so a change to the counting shows up here.
    #[test]
    fn unit_stats_count_chunks_of_every_op_application() {
        use crate::plan::Place;
        let mut c = tiny_config();
        c.avg_sparse_len = 5;
        c.fixed_sparse_len = false;
        let graphs = [
            PlanGraph::cleaned(&c, 3).unwrap(),
            PlanGraph::remapped(&c, 3, 128).unwrap(),
            PlanGraph::long_history(&c, 3, 4).unwrap(),
        ];
        let mut pinned = Vec::new();
        for graph in graphs {
            let plan = PreprocessPlan::compile(graph, &c).unwrap();
            let split = plan.split(&vec![Place::Isp; plan.stages().len()]).unwrap();
            for rows in [64, 0] {
                let stored = write_partition(&generate_batch(&c, rows, 13)).unwrap();
                let reader = FileReader::open(stored.clone()).unwrap();
                let required = plan.required_columns();
                let read = &mut ReadScratch::default();
                let extracted = extract_columns_for_plan(&plan, &reader, required, read).unwrap();
                for chunk in [1, 7, FEATURE_BUFFER_ELEMS, usize::MAX] {
                    let side = Side::whole(&plan, chunk);
                    let unit = UnitState::read(&plan, stored.clone(), None, side, read).unwrap();
                    let want = expected_stats(&plan, &extracted, chunk);
                    assert_eq!(unit.stats(), want, "stored, {rows} rows, chunk {chunk}");
                    let owned = generate_batch(&c, rows, 13);
                    let want = expected_stats(&plan, &owned, chunk);
                    let (_, _, stats) = preprocess_split_isp(&plan, &split, owned, chunk).unwrap();
                    assert_eq!(stats, want, "owned, {rows} rows, chunk {chunk}");
                    if rows > 0 {
                        for s in [unit.stats(), stats] {
                            let (g, n, r) =
                                (s.generation_chunks, s.normalize_chunks, s.restructure_chunks);
                            pinned.push([g, n, r, s.elements]);
                        }
                    }
                }
            }
        }
        // [generation, normalize, restructure, elements] of the stored and
        // owned routes at chunk 1, 7, FEATURE_BUFFER_ELEMS and ∞, per graph.
        let cleaned = [
            [832, 10353, 0, 11185],
            [832, 10353, 0, 11185],
            [130, 1523, 0, 11185],
            [130, 1523, 0, 11185],
            [13, 65, 0, 11185],
            [13, 65, 0, 11185],
            [13, 65, 0, 11185],
            [13, 65, 0, 11185],
        ];
        let remapped = [
            [832, 17378, 0, 18210],
            [832, 17378, 0, 18210],
            [130, 2526, 0, 18210],
            [130, 2526, 0, 18210],
            [13, 78, 0, 18210],
            [13, 78, 0, 18210],
            [13, 78, 0, 18210],
            [13, 78, 0, 18210],
        ];
        let long_history = [
            [832, 5360, 0, 6192],
            [832, 5360, 7857, 14049],
            [130, 787, 0, 6192],
            [130, 787, 1133, 14049],
            [13, 39, 0, 6192],
            [13, 39, 26, 14049],
            [13, 39, 0, 6192],
            [13, 39, 26, 14049],
        ];
        assert_eq!(pinned, [cleaned, remapped, long_history].concat());
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
    fn a_warm_scratch_switching_plans_matches_a_fresh_scratch() {
        // Slots only grow: after the big plan, the small plan's run must
        // not read stale trailing stages or stale slot kinds.
        let big = tiny_config();
        let mut small = tiny_config();
        small.num_dense = 2;
        small.num_sparse = 3;
        small.num_generated = 2;
        small.num_tables = small.num_sparse + small.num_generated;
        let big_plan = PreprocessPlan::from_config(&big, 1).unwrap();
        let small_plan = PreprocessPlan::from_config(&small, 1).unwrap();
        let small_batch = generate_batch(&small, 16, 1);
        let mut scratch = ScratchSpace::new();
        preprocess_batch_with(&big_plan, &generate_batch(&big, 16, 1), &mut scratch).unwrap();
        let (warm, _) = preprocess_batch_with(&small_plan, &small_batch, &mut scratch).unwrap();
        let (fresh, _) = preprocess_batch(&small_plan, &small_batch).unwrap();
        assert_eq!(warm, fresh);
        assert_eq!((warm.dense().cols(), warm.sparse().len()), (2, 3 + 2));
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
