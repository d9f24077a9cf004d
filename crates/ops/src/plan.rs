//! Compiled preprocessing plans: operator graphs lowered to execution
//! stages.
//!
//! A [`PreprocessPlan`] is the executable form of a
//! [`PlanGraph`]: the graph's per-column op chains
//! validated (names resolve, ops type-check, references are acyclic) and
//! ordered into a topological sequence of [`CompiledStage`]s that the
//! executor ([`crate::executor`]), the streaming pipelines
//! ([`crate::stream`]) and the in-storage worker emulation all drive with
//! the same code path. Compilation also precomputes everything the hot loop
//! would otherwise rebuild per batch:
//!
//! * [`PreprocessPlan::required_columns`] — the exact Extract projection
//!   (only raw columns some chain actually reads, plus the label);
//! * [`PreprocessPlan::requirement_for`] — per-column read depth for the
//!   prefix-pushdown contract (see below), held as decode limits parallel
//!   to the projection so Extract looks nothing up by name;
//! * per-stage *consume* flags — whether a stage is the last reader of its
//!   raw column and fully elementwise, so the owned executor path can
//!   transform the decoded buffer in place instead of copying;
//! * emitted-feature order — dense-matrix columns and jagged features in
//!   graph declaration order, list-kind features before generated id-kind
//!   features (the paper's mini-batch layout).
//!
//! [`PreprocessPlan::from_config`] compiles the canonical
//! SigridHash/Bucketize/LogNorm scenario and is bit-identical to the
//! historical hardcoded three-stage plan (pinned by `tests/graph_ir.rs` and
//! the v2 format-compat fingerprint); richer scenarios compile through
//! [`PreprocessPlan::compile`] from any valid graph.
//!
//! # Prefix pushdown (the plan → storage contract)
//!
//! Compilation derives a [`ColumnRequirement`] for every entry of
//! [`PreprocessPlan::required_columns`]. A list column gets `Prefix(x)`
//! **only** when every chain reading it is headed by `FirstX` — the one
//! shape that proves no consumer can observe an element past position
//! `x - 1` (taking the max `x` across readers, so a looser reader still
//! sees everything it needs and re-clamps itself). Any full-list reader,
//! an `NGram` head (which looks past position `x` of the raw list), or
//! raw emission into the mini-batch forces `Full`, as do non-list columns
//! and the label.
//!
//! The executor turns `Prefix(x)` into a decode limit for
//! `presto-columnar`'s group read (`FileReader::read_columns_with`), which
//! truncates the *value* stream at decode time while still decoding the
//! offsets/length stream in full — row alignment, budget validation and the
//! row-group `rows` invariant all hang off the lengths, and they are a tiny
//! fraction of a long-sequence column's bytes. Because the plan is the
//! only party allowed to request a prefix, and only under the
//! every-reader-truncates proof above, prefix-extracted execution is
//! bit-identical to full-decode execution by construction (pinned by the
//! pushdown proptests in `tests/`). [`PreprocessPlan::stage_op_elements`]
//! prices list inputs at the truncated length, so placement sees the
//! cheaper ISP extract and boundary traffic that pushdown buys.

use crate::graph::{resolve, ChainInput, GraphError, PlanGraph, LABEL_COLUMN};
use crate::op::{Op, OpTag, ValueKind};
use presto_columnar::DataType;
use presto_datagen::{raw_schema, RmConfig};
use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

/// How much of a raw column the Extract step must materialize — the
/// plan-side half of the prefix-pushdown contract with `presto-columnar`
/// (see the module docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ColumnRequirement {
    /// Every element is (or may be) needed: decode the column in full.
    Full,
    /// Only the first `x` elements of each list are ever observed — every
    /// reading chain is headed by `FirstX(x')` with `x' <= x` — so Extract
    /// may materialize just that prefix.
    Prefix(usize),
}

/// Which side of the split boundary a stage runs on — the per-stage
/// placement tag (the executor spec for a whole run is
/// `presto_core::Fleet`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Place {
    /// Host CPU worker.
    Host,
    /// In-storage (ISP) unit, next to the data.
    Isp,
}

impl fmt::Display for Place {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Place::Host => write!(f, "host"),
            Place::Isp => write!(f, "isp"),
        }
    }
}

/// One entry of a split plan's boundary schema: an ISP-side stage whose
/// output must cross the fleet boundary to the host — because a host-side
/// stage reads it, because the mini-batch assembly (always host-side)
/// emits it, or both.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BoundarySlot {
    /// Stage position in the parent plan.
    pub stage: usize,
    /// Output feature name (diagnostics / logs).
    pub output: String,
    /// The typed kind crossing the boundary.
    pub kind: ValueKind,
    /// At least one host-side stage reads this value.
    pub read_by_host: bool,
    /// The value is emitted into the mini-batch.
    pub emitted: bool,
}

/// A compiled plan partitioned at the placement boundary: the
/// dependency-closed ISP prefix (offloaded stages, executed through the
/// chunked on-chip-buffer runner next to the data), the host suffix
/// (remaining stages plus mini-batch assembly), and the validated boundary
/// schema between them — exactly the stage outputs that cross fleets.
///
/// Built by [`PreprocessPlan::split`]. The boundary is one-directional
/// (storage → host, the paper's data flow): an ISP-assigned stage that
/// reads a host-side producer is *demoted* to the host, transitively, so
/// the ISP side only ever reads raw columns or other ISP stages. Demotion
/// preserves semantics — execution stays bit-identical for any requested
/// assignment — and [`SplitPlan::demoted`] reports which stages moved.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SplitPlan {
    fleet: Vec<Place>,
    isp_stages: Vec<usize>,
    host_stages: Vec<usize>,
    boundary: Vec<BoundarySlot>,
    isp_columns: Vec<String>,
    host_columns: Vec<String>,
    /// Extract decode limits parallel to `isp_columns`, then to
    /// `host_columns`.
    pub(crate) limits: Vec<Option<usize>>,
    demoted: Vec<usize>,
}

impl SplitPlan {
    /// Effective fleet of every stage (after demotion), execution order.
    #[must_use]
    pub fn fleet(&self) -> &[Place] {
        &self.fleet
    }

    /// Parent-plan positions of ISP-side stages, execution order.
    #[must_use]
    pub fn isp_stages(&self) -> &[usize] {
        &self.isp_stages
    }

    /// Parent-plan positions of host-side stages, execution order.
    #[must_use]
    pub fn host_stages(&self) -> &[usize] {
        &self.host_stages
    }

    /// The boundary schema: ISP stage outputs that cross to the host, in
    /// execution order.
    #[must_use]
    pub fn boundary(&self) -> &[BoundarySlot] {
        &self.boundary
    }

    /// Raw columns the ISP-side extraction must project (never the label).
    #[must_use]
    pub fn isp_columns(&self) -> &[String] {
        &self.isp_columns
    }

    /// Raw columns the host-side extraction must project (label first —
    /// labels always assemble on the host).
    #[must_use]
    pub fn host_columns(&self) -> &[String] {
        &self.host_columns
    }

    /// Stages requested on the ISP but demoted to the host because they
    /// (transitively) read a host-side producer.
    #[must_use]
    pub fn demoted(&self) -> &[usize] {
        &self.demoted
    }

    /// True when every stage landed on one fleet (no boundary crossing).
    #[must_use]
    pub fn is_single_fleet(&self) -> bool {
        self.isp_stages.is_empty() || self.host_stages.is_empty()
    }
}

/// Where a compiled stage reads its input from.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StageInput {
    /// A raw column of the stored partition, by name.
    Raw(String),
    /// An earlier stage, by position in [`PreprocessPlan::stages`] (always
    /// strictly less than the reading stage's own position).
    Stage(usize),
}

/// One chain of the graph after validation and topological ordering: the
/// unit the executor runs and the placement planner prices.
#[derive(Debug, Clone)]
pub struct CompiledStage {
    /// Declaration index in the source graph (emission order).
    decl: usize,
    output: String,
    emit: bool,
    input: StageInput,
    input_kind: ValueKind,
    output_kind: ValueKind,
    ops: Vec<Op>,
    consume_raw: bool,
}

impl CompiledStage {
    /// Output feature name.
    #[must_use]
    pub fn output(&self) -> &str {
        &self.output
    }

    /// True when the output is emitted into the mini-batch.
    #[must_use]
    pub fn emit(&self) -> bool {
        self.emit
    }

    /// Where the stage reads from.
    #[must_use]
    pub fn input(&self) -> &StageInput {
        &self.input
    }

    /// Kind flowing into the first op.
    #[must_use]
    pub fn input_kind(&self) -> ValueKind {
        self.input_kind
    }

    /// Kind the last op produces.
    #[must_use]
    pub fn output_kind(&self) -> ValueKind {
        self.output_kind
    }

    /// The fused op chain, in application order (never empty).
    #[must_use]
    pub fn ops(&self) -> &[Op] {
        &self.ops
    }

    /// True when the stage is the final reader of its raw input column and
    /// every op is elementwise: the owned executor path may then claim the
    /// decoded buffer and transform it in place instead of copying.
    #[must_use]
    pub fn consumes_raw(&self) -> bool {
        self.consume_raw
    }
}

/// A validated, topologically ordered preprocessing plan — the
/// configuration the preprocess manager ships to each worker (step ❷ of
/// Figure 9), now carrying an arbitrary operator graph instead of the fixed
/// three-stage pipeline.
#[derive(Debug, Clone)]
pub struct PreprocessPlan {
    config: RmConfig,
    graph: PlanGraph,
    stages: Vec<CompiledStage>,
    required_columns: Vec<String>,
    /// Per-entry Extract decode limit, parallel to `required_columns`:
    /// `Some(x)` is [`ColumnRequirement::Prefix`]`(x)`.
    pub(crate) required_limits: Vec<Option<usize>>,
    /// Positions into `required_columns` in name order, for
    /// [`PreprocessPlan::column_limit`]'s binary search.
    required_by_name: Vec<usize>,
    /// Stage positions of emitted Dense stages, declaration order.
    emit_dense: Vec<usize>,
    /// Stage positions of emitted List stages, declaration order.
    emit_list: Vec<usize>,
    /// Stage positions of emitted Ids stages, declaration order.
    emit_ids: Vec<usize>,
    /// [`PreprocessPlan::feature_halves`], dealt once at compile time and
    /// shared by every clone.
    halves: Arc<SplitPlan>,
}

impl PreprocessPlan {
    /// Compiles a graph against the raw-column schema of `config`:
    /// validates names/types/acyclicity, orders the chains topologically
    /// and precomputes the Extract projection and in-place eligibility.
    ///
    /// The reserved `label` column is always extracted and never readable
    /// by a chain (it moves into the mini-batch untouched).
    ///
    /// # Errors
    ///
    /// Returns the first [`GraphError`] violated; degenerate graphs never
    /// panic.
    pub fn compile(graph: PlanGraph, config: &RmConfig) -> Result<Self, GraphError> {
        let schema = raw_schema(config);
        let mut raw_kinds: HashMap<&str, ValueKind> = HashMap::with_capacity(schema.len());
        for field in schema.fields() {
            if field.name() == LABEL_COLUMN {
                continue; // reserved: auto-extracted, not chain-readable
            }
            let kind = match field.data_type() {
                DataType::Float32 => ValueKind::Dense,
                DataType::ListInt64 => ValueKind::List,
                DataType::Int64 => ValueKind::Ids,
                // f64 (and any future) raw columns never appear in
                // generated schemas and the kernels are f32; leave them
                // unreadable.
                _ => continue,
            };
            raw_kinds.insert(field.name(), kind);
        }
        let order = resolve(&graph, |name| raw_kinds.get(name).copied())?;

        // Map declaration index -> topological position.
        let mut topo_of = vec![usize::MAX; graph.chains().len()];
        for (pos, resolved) in order.iter().enumerate() {
            topo_of[resolved.chain] = pos;
        }

        let mut stages: Vec<CompiledStage> = order
            .iter()
            .map(|resolved| {
                let chain = &graph.chains()[resolved.chain];
                let input = match &resolved.input {
                    ChainInput::Raw(name) => StageInput::Raw(name.clone()),
                    ChainInput::Chain(decl) => StageInput::Stage(topo_of[*decl]),
                };
                CompiledStage {
                    decl: resolved.chain,
                    output: chain.output.clone(),
                    emit: chain.emit,
                    input,
                    input_kind: resolved.input_kind,
                    output_kind: resolved.output_kind,
                    ops: chain.ops.clone(),
                    consume_raw: false,
                }
            })
            .collect();

        // A stage may claim its raw input buffer only if it is the *last*
        // stage (in execution order) reading that column and its whole
        // chain runs in place (all ops elementwise). The canonical graph's
        // dense columns are read twice (LogNorm + Bucketize), so neither
        // reader consumes; its sparse columns have one elementwise reader,
        // which does.
        let mut last_reader: HashMap<&str, usize> = HashMap::new();
        for (pos, stage) in stages.iter().enumerate() {
            if let StageInput::Raw(name) = &stage.input {
                // `pos` increases, so the entry ends at the last reader.
                let _ = last_reader.insert(name.as_str(), pos);
            }
        }
        let last_readers: Vec<usize> = last_reader.into_values().collect();
        for pos in last_readers {
            stages[pos].consume_raw = stages[pos].ops.iter().all(Op::is_elementwise);
        }

        // Extract projection: label first, then raw inputs in declaration
        // (first-reference) order — identical to the legacy projection for
        // the canonical graph.
        let mut required_columns = Vec::with_capacity(1 + raw_kinds.len());
        required_columns.push(LABEL_COLUMN.to_owned());
        let mut raw_by_decl: Vec<Option<&str>> = vec![None; graph.chains().len()];
        for stage in &stages {
            if let StageInput::Raw(name) = &stage.input {
                raw_by_decl[stage.decl] = Some(name.as_str());
            }
        }
        for name in raw_by_decl.into_iter().flatten() {
            if !required_columns.iter().any(|c| c == name) {
                required_columns.push(name.to_owned());
            }
        }

        // Read requirements: a list column may be prefix-extracted only
        // when *every* chain reading it truncates first (`FirstX` head);
        // the prefix is the loosest (max) `x` across readers. Anything
        // else — a full-list reader, an `NGram` head, raw emission with no
        // ops, a non-list column, the label — forces a full decode.
        let required_limits = required_columns
            .iter()
            .map(|name| {
                if name == LABEL_COLUMN || raw_kinds.get(name.as_str()) != Some(&ValueKind::List) {
                    return None;
                }
                let mut prefix: Option<usize> = None;
                for stage in &stages {
                    if !matches!(&stage.input, StageInput::Raw(n) if n == name) {
                        continue;
                    }
                    match stage.ops.first() {
                        Some(Op::FirstX(x)) => prefix = Some(prefix.map_or(*x, |p| p.max(*x))),
                        _ => return None,
                    }
                }
                prefix
            })
            .collect();
        let mut required_by_name: Vec<usize> = (0..required_columns.len()).collect();
        required_by_name.sort_unstable_by_key(|&i| &required_columns[i]);

        // Emission order: declaration order within each kind; assembly
        // emits List features before Ids features (raw jagged features,
        // then unit-length generated features — the legacy layout).
        let mut by_decl: Vec<usize> = (0..stages.len()).filter(|&pos| stages[pos].emit).collect();
        by_decl.sort_by_key(|&pos| stages[pos].decl);
        let emitted = |kind| -> Vec<usize> {
            by_decl.iter().copied().filter(|&pos| stages[pos].output_kind == kind).collect()
        };
        let (emit_dense, emit_list, emit_ids) =
            (emitted(ValueKind::Dense), emitted(ValueKind::List), emitted(ValueKind::Ids));

        let mut plan = PreprocessPlan {
            config: config.clone(),
            graph,
            stages,
            required_columns,
            required_limits,
            required_by_name,
            emit_dense,
            emit_list,
            emit_ids,
            halves: Arc::default(),
        };
        plan.halves = Arc::new(plan.deal_features());
        Ok(plan)
    }

    /// Compiles the canonical fixed scenario of the paper
    /// ([`PlanGraph::canonical`]): LogNorm every dense column, SigridHash
    /// every sparse column, Bucketize one generated feature per
    /// `config.num_generated`. Bit-identical to the historical hardcoded
    /// three-stage plan — same seeds, same feature order.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::BadParam`] if boundary construction fails
    /// (only possible for degenerate bucket sizes).
    pub fn from_config(config: &RmConfig, seed: u64) -> Result<Self, GraphError> {
        Self::compile(PlanGraph::canonical(config, seed)?, config)
    }

    /// The generating configuration.
    #[must_use]
    pub fn config(&self) -> &RmConfig {
        &self.config
    }

    /// The source graph this plan was compiled from.
    #[must_use]
    pub fn graph(&self) -> &PlanGraph {
        &self.graph
    }

    /// The compiled stages, in execution (topological) order.
    #[must_use]
    pub fn stages(&self) -> &[CompiledStage] {
        &self.stages
    }

    /// Stage positions of emitted dense-matrix columns, declaration order.
    #[must_use]
    pub fn emitted_dense(&self) -> &[usize] {
        &self.emit_dense
    }

    /// Stage positions of emitted jagged (list) features, declaration
    /// order; these precede [`PreprocessPlan::emitted_ids`] in the
    /// mini-batch.
    #[must_use]
    pub fn emitted_lists(&self) -> &[usize] {
        &self.emit_list
    }

    /// Stage positions of emitted one-id-per-row features, declaration
    /// order.
    #[must_use]
    pub fn emitted_ids(&self) -> &[usize] {
        &self.emit_ids
    }

    /// Every input column the plan needs (label + referenced raw columns),
    /// the projection the Extract step should fetch — and nothing else.
    ///
    /// Precomputed at compile time so the per-partition hot path does not
    /// rebuild (and re-allocate) the projection list.
    #[must_use]
    pub fn required_columns(&self) -> &[String] {
        &self.required_columns
    }

    /// The read requirement for one raw column; columns the plan does not
    /// extract report `Full` (a conservative default — nothing reads them,
    /// so nothing is lost by decoding more).
    #[must_use]
    pub fn requirement_for(&self, name: &str) -> ColumnRequirement {
        self.column_limit(name).map_or(ColumnRequirement::Full, ColumnRequirement::Prefix)
    }

    /// The Extract decode limit for one raw column: `Some(x)` iff its
    /// requirement is [`ColumnRequirement::Prefix`] — the value to hand to
    /// `FileReader::read_columns_with`. A binary search over the
    /// projection's names.
    #[must_use]
    pub fn column_limit(&self, name: &str) -> Option<usize> {
        let by_name = &self.required_by_name;
        let at = by_name.binary_search_by(|&i| self.required_columns[i].as_str().cmp(name)).ok()?;
        self.required_limits[by_name[at]]
    }

    /// Estimated elements flowing into each op of each stage for a
    /// `rows`-row batch, the element counts the placement cost model
    /// prices. List lengths use the configuration's average
    /// (`avg_sparse_len`); restructuring ops propagate their expected
    /// output lengths (`FirstX(x)` → `min(len, x)`, `NGram(n)` →
    /// `max(len − n + 1, 0)`).
    #[must_use]
    pub fn stage_op_elements(&self, rows: usize) -> Vec<Vec<(OpTag, u64)>> {
        self.stage_flow(rows).0
    }

    /// Estimated serialized size, in bytes, of each stage's output for a
    /// `rows`-row batch — the bytes that cross the fleet boundary when a
    /// consumer (or the mini-batch assembly) runs on the other side of a
    /// split placement. Dense outputs move 4 bytes per row, Ids 8 bytes
    /// per row, List outputs 8 bytes per value plus a 4-byte offset per
    /// row; list lengths use the same expected-length propagation as
    /// [`PreprocessPlan::stage_op_elements`].
    #[must_use]
    pub fn stage_output_bytes(&self, rows: usize) -> Vec<u64> {
        let (_, out_len) = self.stage_flow(rows);
        self.stages
            .iter()
            .zip(out_len)
            .map(|(stage, len)| {
                #[allow(clippy::cast_sign_loss, clippy::cast_possible_truncation)]
                let values = (rows as f64 * len).round() as u64;
                match stage.output_kind {
                    ValueKind::Dense => 4 * rows as u64,
                    ValueKind::Ids => 8 * rows as u64,
                    ValueKind::List => 8 * values + 4 * (rows as u64 + 1),
                }
            })
            .collect()
    }

    /// Expected per-op element counts and per-stage output lengths
    /// (elements per row) for a `rows`-row batch.
    fn stage_flow(&self, rows: usize) -> (Vec<Vec<(OpTag, u64)>>, Vec<f64>) {
        let mut per_row: Vec<f64> = Vec::with_capacity(self.stages.len());
        let mut out = Vec::with_capacity(self.stages.len());
        for stage in &self.stages {
            let mut len = match &stage.input {
                StageInput::Raw(name) => match stage.input_kind {
                    // Prefix pushdown shrinks what Extract hands the first
                    // op, so the cost model must price the truncated
                    // length — this is what lets placement see the reduced
                    // ISP extract/P2P bytes for long-sequence columns.
                    ValueKind::List => {
                        let full = self.config.avg_sparse_len as f64;
                        self.column_limit(name).map_or(full, |p| full.min(p as f64))
                    }
                    ValueKind::Dense | ValueKind::Ids => 1.0,
                },
                StageInput::Stage(pos) => per_row[*pos],
            };
            let mut ops = Vec::with_capacity(stage.ops.len());
            for op in &stage.ops {
                #[allow(clippy::cast_sign_loss, clippy::cast_possible_truncation)]
                ops.push((op.tag(), (rows as f64 * len).round() as u64));
                len = match op {
                    Op::FirstX(x) => len.min(*x as f64),
                    Op::NGram { n, .. } => (len - (*n as f64) + 1.0).max(0.0),
                    Op::Bucketize(_) => 1.0,
                    Op::SigridHash(_)
                    | Op::MapId(_)
                    | Op::LogNorm
                    | Op::Clamp { .. }
                    | Op::FillMissing(_) => len,
                };
            }
            per_row.push(len);
            out.push(ops);
        }
        (out, per_row)
    }

    /// Partition the plan at a placement boundary into an ISP prefix and a
    /// host suffix, returning the validated [`SplitPlan`] that the split
    /// executor and streaming workers run.
    ///
    /// `assignment[pos]` is the requested fleet for stage `pos`. Any
    /// assignment is accepted: because the boundary is one-directional
    /// (storage → host), an ISP-assigned stage whose producer landed on
    /// the host is demoted to the host as well, cascading in execution
    /// order — see [`SplitPlan::demoted`]. The boundary schema lists
    /// exactly the ISP outputs the host needs (read by a host stage,
    /// emitted into the mini-batch, or both); everything else stays on the
    /// device and never crosses the link.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::BadParam`] when `assignment.len()` does not
    /// match the stage count.
    pub fn split(&self, assignment: &[Place]) -> Result<SplitPlan, GraphError> {
        if assignment.len() != self.stages.len() {
            return Err(GraphError::BadParam {
                output: "split".to_owned(),
                detail: format!(
                    "fleet assignment covers {} stages, plan has {}",
                    assignment.len(),
                    self.stages.len()
                ),
            });
        }
        // Normalize: demote ISP stages whose producer is host-side. Stage
        // inputs point strictly backwards, so one forward pass cascades.
        let mut fleet = assignment.to_vec();
        let mut demoted = Vec::new();
        for (pos, stage) in self.stages.iter().enumerate() {
            if fleet[pos] == Place::Isp {
                if let StageInput::Stage(j) = &stage.input {
                    if fleet[*j] == Place::Host {
                        fleet[pos] = Place::Host;
                        demoted.push(pos);
                    }
                }
            }
        }

        let isp_stages: Vec<usize> = (0..fleet.len()).filter(|&p| fleet[p] == Place::Isp).collect();
        let host_stages: Vec<usize> =
            (0..fleet.len()).filter(|&p| fleet[p] == Place::Host).collect();

        // Boundary: ISP outputs the host reads or the assembly emits.
        let mut read_by_host = vec![false; self.stages.len()];
        for &pos in &host_stages {
            if let StageInput::Stage(j) = &self.stages[pos].input {
                read_by_host[*j] = true;
            }
        }
        let boundary = isp_stages
            .iter()
            .map(|&pos| &self.stages[pos])
            .zip(&isp_stages)
            .filter(|(stage, &pos)| stage.emit || read_by_host[pos])
            .map(|(stage, &pos)| BoundarySlot {
                stage: pos,
                output: stage.output.clone(),
                kind: stage.output_kind,
                read_by_host: read_by_host[pos],
                emitted: stage.emit,
            })
            .collect();

        // Per-side raw projections, and their decode limits resolved once.
        // The label always lands host-side — mini-batch assembly is a host
        // concern.
        let projection = |stages: &[usize], mut columns: Vec<String>| {
            for &pos in stages {
                if let StageInput::Raw(name) = &self.stages[pos].input {
                    if !columns.contains(name) {
                        columns.push(name.clone());
                    }
                }
            }
            columns
        };
        let isp_columns = projection(&isp_stages, Vec::new());
        let host_columns = projection(&host_stages, vec![LABEL_COLUMN.to_owned()]);
        let limits =
            isp_columns.iter().chain(&host_columns).map(|c| self.column_limit(c)).collect();

        Ok(SplitPlan {
            fleet,
            isp_stages,
            host_stages,
            boundary,
            isp_columns,
            host_columns,
            limits,
            demoted,
        })
    }

    /// The plan's *features* dealt to the two threads of a host-fleet
    /// worker pair ([`crate::stream`]): the [`Place::Isp`] side of the
    /// returned split is thread A's half, the [`Place::Host`] side — which
    /// also keeps the label and the mini-batch assembly — is thread B's.
    ///
    /// A feature is a connected component of the plan: stages linked by a
    /// [`StageInput::Stage`] edge **or by a shared raw column**, so each
    /// half is dependency-closed, no column is decoded twice and
    /// [`CompiledStage::consumes_raw`] stays valid per side. Features are
    /// dealt class by class (class = every member stage's input kind and
    /// op-tag sequence): a class's first ⌈n/2⌉ features in declaration
    /// order go to A and the rest to B, so each half gets half of every
    /// kind of work without a cost model, and each half's emitted columns
    /// form a few contiguous runs of the mini-batch (the two threads fill
    /// mostly disjoint cache lines of each dense row). No
    /// boundary slot of the result is `read_by_host` and nothing is
    /// demoted: the halves can run concurrently and only finished outputs
    /// cross. A plan with a single feature lands whole on B.
    ///
    /// Dealt once, when the plan is compiled: every clone of the plan
    /// shares the one split.
    #[must_use]
    pub fn feature_halves(&self) -> &Arc<SplitPlan> {
        &self.halves
    }

    /// The deal behind [`PreprocessPlan::feature_halves`].
    fn deal_features(&self) -> SplitPlan {
        // Every stage has one input, so the links form a forest whose
        // edges point backwards: a stage's root is its input's root, final
        // by the time the forward pass reaches it. `class[root]` collects
        // the feature's member stages in execution order.
        type Class = Vec<(ValueKind, Vec<OpTag>)>;
        let mut root: Vec<usize> = (0..self.stages.len()).collect();
        let mut class: Vec<Class> = vec![Vec::new(); self.stages.len()];
        let mut first_reader: HashMap<&str, usize> = HashMap::new();
        for (pos, stage) in self.stages.iter().enumerate() {
            let linked = match &stage.input {
                StageInput::Stage(j) => *j,
                StageInput::Raw(name) => *first_reader.entry(name.as_str()).or_insert(pos),
            };
            root[pos] = root[linked];
            class[root[pos]].push((stage.input_kind, stage.ops.iter().map(Op::tag).collect()));
        }
        let features: Vec<usize> = (0..root.len()).filter(|&pos| root[pos] == pos).collect();
        // Each class's features in declaration order; A takes the first half.
        let mut classes: Vec<(&Class, Vec<usize>)> = Vec::new();
        for &feature in &features {
            match classes.iter_mut().find(|(c, _)| **c == class[feature]) {
                Some((_, members)) => members.push(feature),
                None => classes.push((&class[feature], vec![feature])),
            }
        }
        let mut side = vec![Place::Host; self.stages.len()];
        for (_, members) in classes.iter().filter(|_| features.len() > 1) {
            for &feature in &members[..members.len().div_ceil(2)] {
                side[feature] = Place::Isp;
            }
        }
        let assignment: Vec<Place> = root.iter().map(|&feature| side[feature]).collect();
        self.split(&assignment).expect("the assignment covers every stage")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::ChainSpec;
    use crate::op::IdMap;

    #[test]
    fn canonical_plan_shapes_follow_config() {
        let plan = PreprocessPlan::from_config(&RmConfig::rm1(), 1).unwrap();
        assert_eq!(plan.stages().len(), 13 + 26 + 13);
        assert_eq!(plan.emitted_dense().len(), 13);
        assert_eq!(plan.emitted_lists().len(), 26);
        assert_eq!(plan.emitted_ids().len(), 13);
        let plan5 = PreprocessPlan::from_config(&RmConfig::rm5(), 1).unwrap();
        assert_eq!(plan5.emitted_ids().len(), 42);
    }

    #[test]
    fn required_columns_cover_label_dense_sparse() {
        let plan = PreprocessPlan::from_config(&RmConfig::rm1(), 1).unwrap();
        let cols = plan.required_columns();
        assert_eq!(cols.len(), 1 + 13 + 26);
        assert_eq!(cols[0], "label");
        assert_eq!(cols[1], "dense_0");
        assert!(cols.contains(&"sparse_25".to_owned()));
    }

    #[test]
    fn canonical_sparse_stages_consume_dense_stages_do_not() {
        // dense_i is read by both its LogNorm chain and a Bucketize chain,
        // so no dense reader may claim the buffer; sparse_i has exactly one
        // elementwise reader, which may.
        let plan = PreprocessPlan::from_config(&RmConfig::rm1(), 1).unwrap();
        for stage in plan.stages() {
            let expect = stage.output().starts_with("sparse_");
            assert_eq!(stage.consumes_raw(), expect, "{}", stage.output());
        }
    }

    #[test]
    fn plans_are_deterministic_per_seed() {
        let a = PreprocessPlan::from_config(&RmConfig::rm1(), 5).unwrap();
        let b = PreprocessPlan::from_config(&RmConfig::rm1(), 5).unwrap();
        assert_eq!(a.stages()[15].ops(), b.stages()[15].ops());
        let c = PreprocessPlan::from_config(&RmConfig::rm1(), 6).unwrap();
        assert_ne!(a.stages()[15].ops(), c.stages()[15].ops());
    }

    #[test]
    fn chain_inputs_point_backwards() {
        let mut c = RmConfig::rm1();
        c.avg_sparse_len = 4;
        c.fixed_sparse_len = false;
        let plan = PreprocessPlan::compile(PlanGraph::truncated_cross(&c, 7, 2, 2).unwrap(), &c)
            .expect("compiles");
        for (pos, stage) in plan.stages().iter().enumerate() {
            if let StageInput::Stage(src) = stage.input() {
                assert!(*src < pos, "stage {pos} reads forward from {src}");
            }
        }
        // Intermediates exist and are not emitted.
        assert!(plan.stages().iter().any(|s| !s.emit()));
    }

    #[test]
    fn label_is_not_chain_readable() {
        let g = PlanGraph::new(vec![ChainSpec::feature(
            "x",
            "label",
            vec![Op::MapId(IdMap::shuffled(1, 4, 4))],
        )]);
        let err = PreprocessPlan::compile(g, &RmConfig::rm1()).unwrap_err();
        assert!(matches!(err, GraphError::UnknownInput { .. }), "{err}");
    }

    #[test]
    fn unused_raw_columns_are_not_projected() {
        // A graph touching only sparse_0 must not extract dense columns.
        let g = PlanGraph::new(vec![ChainSpec::feature(
            "sparse_0",
            "sparse_0",
            vec![Op::SigridHash(crate::SigridHasher::new(1, 10).unwrap())],
        )]);
        let plan = PreprocessPlan::compile(g, &RmConfig::rm1()).unwrap();
        assert_eq!(plan.required_columns(), ["label", "sparse_0"]);
    }

    #[test]
    fn stage_op_elements_track_restructuring() {
        let mut c = RmConfig::rm1();
        c.num_dense = 1;
        c.num_sparse = 1;
        c.num_generated = 1;
        c.num_tables = 2;
        c.avg_sparse_len = 10;
        c.fixed_sparse_len = false;
        let plan = PreprocessPlan::compile(PlanGraph::truncated_cross(&c, 7, 4, 2).unwrap(), &c)
            .expect("compiles");
        let elems = plan.stage_op_elements(100);
        let by_output: HashMap<&str, &Vec<(OpTag, u64)>> =
            plan.stages().iter().zip(&elems).map(|(s, e)| (s.output(), e)).collect();
        // sparse_0's only reader is FirstX-headed, so the plan derives
        // Prefix(4) and the cost model prices the truncated extract: FirstX
        // sees min(avg 10, prefix 4) = 4 elements per row, and its
        // consumers see the same truncated lists.
        assert_eq!(plan.requirement_for("sparse_0"), ColumnRequirement::Prefix(4));
        assert_eq!(by_output["trunc_0"], &vec![(OpTag::FirstX, 400)]);
        assert_eq!(by_output["sparse_0"], &vec![(OpTag::SigridHash, 400)]);
        assert_eq!(by_output["cross_0"], &vec![(OpTag::NGram, 400)]);
        assert_eq!(by_output["gen_0"], &vec![(OpTag::Bucketize, 100)]);
    }

    #[test]
    fn column_requirements_follow_reader_shapes() {
        // Canonical graph: sparse chains are SigridHash-headed (full-list
        // readers), so nothing may be prefix-extracted.
        let c = RmConfig::rm1();
        let plan = PreprocessPlan::from_config(&c, 42).unwrap();
        assert!(plan.required_columns().iter().all(|c| plan.column_limit(c).is_none()));
        assert_eq!(plan.column_limit("sparse_0"), None);
        // Truncated-cross graph: every sparse reader is FirstX(4)-headed.
        let mut c = RmConfig::rm1();
        c.num_dense = 1;
        c.num_sparse = 1;
        c.num_generated = 1;
        c.num_tables = 2;
        c.avg_sparse_len = 10;
        c.fixed_sparse_len = false;
        let plan = PreprocessPlan::compile(PlanGraph::truncated_cross(&c, 7, 4, 2).unwrap(), &c)
            .expect("compiles");
        assert_eq!(plan.column_limit("sparse_0"), Some(4));
        // The label and dense columns are always Full.
        assert_eq!(plan.requirement_for("label"), ColumnRequirement::Full);
        assert_eq!(plan.requirement_for("dense_0"), ColumnRequirement::Full);
        // Unknown columns conservatively report Full.
        assert_eq!(plan.requirement_for("no_such"), ColumnRequirement::Full);
        assert_eq!(plan.required_limits.len(), plan.required_columns().len());
    }

    fn tiny_truncated_plan() -> PreprocessPlan {
        // Stages per sparse i: trunc_i (intermediate), sparse_i (reads
        // trunc_i, emitted), cross_i (reads trunc_i, emitted); per dense i:
        // dense_i (raw, emitted); per generated i: gen_i (raw, emitted).
        let mut c = RmConfig::rm1();
        c.num_dense = 1;
        c.num_sparse = 1;
        c.num_generated = 1;
        c.num_tables = 2;
        PreprocessPlan::compile(PlanGraph::truncated_cross(&c, 7, 4, 2).unwrap(), &c)
            .expect("compiles")
    }

    #[test]
    fn split_rejects_wrong_assignment_length() {
        let plan = tiny_truncated_plan();
        let err = plan.split(&[Place::Host]).unwrap_err();
        assert!(matches!(err, GraphError::BadParam { .. }), "{err}");
    }

    #[test]
    fn split_partitions_stages_and_schedules_boundary() {
        let plan = tiny_truncated_plan();
        let pos: HashMap<&str, usize> =
            plan.stages().iter().enumerate().map(|(i, s)| (s.output(), i)).collect();
        // Offload the truncation and the hash; keep the rest host-side.
        let mut assignment = vec![Place::Host; plan.stages().len()];
        assignment[pos["trunc_0"]] = Place::Isp;
        assignment[pos["sparse_0"]] = Place::Isp;
        let split = plan.split(&assignment).expect("valid assignment");

        assert!(split.demoted().is_empty());
        assert_eq!(split.isp_stages(), [pos["trunc_0"], pos["sparse_0"]]);
        assert!(!split.is_single_fleet());
        // Boundary: trunc_0 crosses because host-side cross_0 reads it;
        // sparse_0 crosses because it is emitted. Dense/gen stay host-raw.
        let by_stage: HashMap<usize, &BoundarySlot> =
            split.boundary().iter().map(|s| (s.stage, s)).collect();
        assert_eq!(split.boundary().len(), 2);
        let trunc = by_stage[&pos["trunc_0"]];
        assert!(trunc.read_by_host && !trunc.emitted);
        assert_eq!(trunc.kind, ValueKind::List);
        let sparse = by_stage[&pos["sparse_0"]];
        assert!(sparse.emitted && !sparse.read_by_host);
        // Raw projections: ISP pulls only the sparse column; host gets the
        // label first plus its own raw inputs.
        assert_eq!(split.isp_columns(), ["sparse_0"]);
        assert_eq!(split.host_columns()[0], LABEL_COLUMN);
        assert!(split.host_columns().iter().any(|c| c == "dense_0"));
        assert!(!split.host_columns().iter().any(|c| c == "sparse_0"));
    }

    #[test]
    fn split_demotes_isp_stages_with_host_producers() {
        let plan = tiny_truncated_plan();
        let pos: HashMap<&str, usize> =
            plan.stages().iter().enumerate().map(|(i, s)| (s.output(), i)).collect();
        // sparse_0 on ISP but its producer trunc_0 on host: must demote.
        let mut assignment = vec![Place::Host; plan.stages().len()];
        assignment[pos["sparse_0"]] = Place::Isp;
        let split = plan.split(&assignment).expect("valid assignment");
        assert_eq!(split.demoted(), [pos["sparse_0"]]);
        assert!(split.isp_stages().is_empty());
        assert!(split.boundary().is_empty());
        assert!(split.is_single_fleet());
        assert_eq!(split.fleet()[pos["sparse_0"]], Place::Host);
    }

    /// Scenario plans the halves must hold for, small enough to inspect.
    fn scenario_plans() -> Vec<PreprocessPlan> {
        let mut c = RmConfig::rm1();
        c.num_dense = 5;
        c.num_sparse = 4;
        c.num_generated = 3;
        c.num_tables = 7;
        c.avg_sparse_len = 6;
        c.fixed_sparse_len = false;
        [
            PlanGraph::canonical(&c, 7),
            PlanGraph::truncated_cross(&c, 7, 4, 2),
            PlanGraph::remapped(&c, 7, 50),
            PlanGraph::cleaned(&c, 7),
            PlanGraph::long_history(&c, 7, 3),
        ]
        .into_iter()
        .map(|graph| PreprocessPlan::compile(graph.unwrap(), &c).expect("compiles"))
        .chain([PreprocessPlan::from_config(&RmConfig::rm5(), 7).unwrap()])
        .collect()
    }

    #[test]
    fn a_cloned_plan_shares_its_feature_halves() {
        let plan = PreprocessPlan::from_config(&RmConfig::rm5(), 1).unwrap();
        let clone = plan.clone();
        assert!(Arc::ptr_eq(plan.feature_halves(), clone.feature_halves()));
        assert_eq!(**plan.feature_halves(), plan.deal_features());
    }

    #[test]
    fn feature_halves_are_closed_and_cover_every_stage_once() {
        for plan in scenario_plans() {
            let halves = plan.feature_halves();
            let mut covered: Vec<usize> =
                halves.isp_stages().iter().chain(halves.host_stages()).copied().collect();
            covered.sort_unstable();
            assert_eq!(covered, (0..plan.stages().len()).collect::<Vec<_>>());
            assert!(!halves.is_single_fleet(), "several features: both halves get work");
            assert!(halves.demoted().is_empty());
            // Closed: a stage and its producer, and every reader of a raw
            // column (the canonical `dense_j` feeds a LogNorm and a
            // Bucketize stage), sit on one side — so nothing crosses but
            // emitted outputs, and no column is decoded twice.
            for (pos, stage) in plan.stages().iter().enumerate() {
                if let StageInput::Stage(j) = stage.input() {
                    assert_eq!(halves.fleet()[pos], halves.fleet()[*j], "{}", stage.output());
                }
            }
            assert!(halves.boundary().iter().all(|slot| slot.emitted && !slot.read_by_host));
            assert!(halves.isp_columns().iter().all(|c| !halves.host_columns().contains(c)));
            assert_eq!(
                halves.isp_columns().len() + halves.host_columns().len(),
                plan.required_columns().len(),
                "label included, every column on exactly one side"
            );
        }
    }

    #[test]
    fn feature_halves_deal_every_class_of_work_evenly() {
        // RM5: 42 LogNorm + Bucketize features (a shared dense column), 462
        // LogNorm-only and 42 SigridHash features — each class splits in
        // two, so both halves do the same work.
        let plan = PreprocessPlan::from_config(&RmConfig::rm5(), 1).unwrap();
        let halves = plan.feature_halves();
        assert_eq!(halves.isp_columns().len(), 21 + 231 + 21);
        assert_eq!(halves.host_columns().len(), 1 + 21 + 231 + 21);
        for tag in [OpTag::LogNorm, OpTag::Bucketize, OpTag::SigridHash] {
            let count = |stages: &[usize]| {
                stages.iter().filter(|&&pos| plan.stages()[pos].ops()[0].tag() == tag).count()
            };
            assert_eq!(count(halves.isp_stages()), count(halves.host_stages()), "{tag:?}");
        }
        // RM1: 13 + 26 = 39 features; the odd class gives A the extra one
        // (B also carries the label and assembles the lists and ids).
        let plan = PreprocessPlan::from_config(&RmConfig::rm1(), 1).unwrap();
        let halves = plan.feature_halves();
        assert_eq!((halves.isp_columns().len(), halves.host_columns().len()), (7 + 13, 1 + 6 + 13));
    }

    #[test]
    fn feature_halves_give_each_thread_contiguous_runs_of_the_matrix() {
        // A takes each class's first ⌈n/2⌉ features in declaration order,
        // so a half's dense columns are a run per class, not every other
        // column: the pair's threads fill mostly disjoint lines of a row.
        let runs = |plan: &PreprocessPlan, place: Place| {
            let halves = plan.feature_halves();
            let mut runs: Vec<(usize, usize)> = Vec::new();
            for (c, &pos) in plan.emitted_dense().iter().enumerate() {
                if halves.fleet()[pos] != place {
                    continue;
                }
                match runs.last_mut() {
                    Some((_, end)) if *end == c => *end += 1,
                    _ => runs.push((c, c + 1)),
                }
            }
            runs
        };
        // RM5: 42 LogNorm + Bucketize features, then 462 LogNorm-only.
        let plan = PreprocessPlan::from_config(&RmConfig::rm5(), 1).unwrap();
        assert_eq!(runs(&plan, Place::Isp), [(0, 21), (42, 42 + 231)]);
        assert_eq!(runs(&plan, Place::Host), [(21, 42), (42 + 231, 504)]);
        let plan = PreprocessPlan::from_config(&RmConfig::rm1(), 1).unwrap();
        assert_eq!(
            (runs(&plan, Place::Isp), runs(&plan, Place::Host)),
            (vec![(0, 7)], vec![(7, 13)])
        );
    }

    #[test]
    fn a_one_feature_plan_lands_whole_on_b() {
        let plan = tiny_truncated_plan();
        let sparse_only: Vec<ChainSpec> = plan
            .graph()
            .chains()
            .iter()
            .filter(|c| ["trunc_0", "sparse_0", "cross_0"].contains(&c.output.as_str()))
            .cloned()
            .collect();
        let plan = PreprocessPlan::compile(PlanGraph::new(sparse_only), plan.config()).unwrap();
        assert_eq!(plan.stages().len(), 3, "one raw column, three chained stages");
        let halves = plan.feature_halves();
        assert!(halves.isp_stages().is_empty() && halves.boundary().is_empty());
        assert_eq!(halves.host_columns(), [LABEL_COLUMN, "sparse_0"]);
    }

    #[test]
    fn split_all_isp_keeps_label_host_side() {
        let plan = tiny_truncated_plan();
        let split = plan.split(&vec![Place::Isp; plan.stages().len()]).expect("valid");
        assert!(split.host_stages().is_empty());
        assert!(split.is_single_fleet());
        // Every emitted stage crosses the boundary; intermediates consumed
        // on-device do not.
        let emitted = plan.stages().iter().filter(|s| s.emit()).count();
        assert_eq!(split.boundary().len(), emitted);
        assert!(split.boundary().iter().all(|s| s.emitted && !s.read_by_host));
        // The host still extracts the label for assembly.
        assert_eq!(split.host_columns(), [LABEL_COLUMN]);
    }
}
