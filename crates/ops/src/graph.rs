//! The operator-graph plan IR: per-column chains of typed [`Op`]s.
//!
//! A [`PlanGraph`] describes a preprocessing scenario as a set of
//! [`ChainSpec`]s. Each chain reads one input column — a raw column of the
//! stored partition, or the output of another chain — runs its ops in
//! order, and produces one named output. Chains marked as *features*
//! ([`ChainSpec::feature`]) become mini-batch outputs; *intermediates*
//! ([`ChainSpec::intermediate`]) only feed other chains.
//!
//! The graph is validated when it is compiled into a
//! [`PreprocessPlan`](crate::PreprocessPlan):
//!
//! * every input must resolve (raw columns win over chain outputs, so the
//!   canonical graph's `dense_i → LogNorm → dense_i` shadowing reads the
//!   *raw* values, exactly like the legacy fixed pipeline);
//! * op chains must type-check ([`Op::output_kind`]);
//! * chain-to-chain references must be acyclic;
//! * output names must be unique, non-empty and not the reserved `label`.
//!
//! All violations surface as [`GraphError`] values — degenerate graphs
//! never panic (property-tested in `tests/graph_ir.rs`).
//!
//! [`PlanGraph::canonical`] builds the paper's fixed
//! SigridHash/Bucketize/LogNorm scenario and is bit-identical to the
//! historical hardcoded plan; [`PlanGraph::truncated_cross`] and
//! [`PlanGraph::remapped`] are the non-canonical scenarios (FirstX
//! truncation, NGram feature crossing, MapId dictionary remap) exercised
//! end to end on the host and ISP fleets by `tests/graph_ir.rs`.

use crate::bucketize::Bucketizer;
use crate::op::{IdMap, Op, ValueKind};
use crate::sigridhash::SigridHasher;
use presto_datagen::{generated_source_column, RmConfig};
use std::collections::HashMap;
use std::fmt;

/// Maximum dense value the log-spaced boundaries cover; matches the cap in
/// `presto-datagen`'s heavy-tailed dense generator.
pub const DENSE_VALUE_CEILING: f32 = 1.0e6;

/// The reserved label column: always extracted, never a chain output.
pub const LABEL_COLUMN: &str = "label";

/// Error constructing or validating a [`PlanGraph`].
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum GraphError {
    /// The graph has no chains.
    EmptyGraph,
    /// A chain has no ops.
    EmptyChain {
        /// The chain's output name.
        output: String,
    },
    /// A chain output uses the reserved label name or is empty.
    ReservedOutput {
        /// The offending output name.
        output: String,
    },
    /// Two chains declare the same output name.
    DuplicateOutput {
        /// The duplicated name.
        output: String,
    },
    /// A chain input names neither a raw column nor another chain.
    UnknownInput {
        /// The reading chain's output name.
        output: String,
        /// The unresolved input name.
        input: String,
    },
    /// An op cannot consume the kind flowing into it.
    TypeMismatch {
        /// The chain's output name.
        output: String,
        /// Display form of the offending op.
        op: String,
        /// The kind that reached the op.
        kind: ValueKind,
    },
    /// Chain-to-chain references form a cycle.
    Cycle {
        /// One chain on the cycle.
        output: String,
    },
    /// An intermediate chain is never read by another chain.
    UnusedIntermediate {
        /// The dangling chain's output name.
        output: String,
    },
    /// An op parameter was invalid (e.g. degenerate bucket boundaries).
    BadParam {
        /// The chain's output name (or builder context).
        output: String,
        /// Human-readable description.
        detail: String,
    },
}

impl fmt::Display for GraphError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GraphError::EmptyGraph => write!(f, "plan graph has no chains"),
            GraphError::EmptyChain { output } => {
                write!(f, "chain {output:?} has no ops")
            }
            GraphError::ReservedOutput { output } => {
                write!(f, "chain output {output:?} is reserved or empty")
            }
            GraphError::DuplicateOutput { output } => {
                write!(f, "duplicate chain output {output:?}")
            }
            GraphError::UnknownInput { output, input } => {
                write!(f, "chain {output:?} reads unknown input {input:?}")
            }
            GraphError::TypeMismatch { output, op, kind } => {
                write!(f, "chain {output:?}: op {op} cannot consume {kind} input")
            }
            GraphError::Cycle { output } => {
                write!(f, "chain {output:?} participates in a cycle")
            }
            GraphError::UnusedIntermediate { output } => {
                write!(f, "intermediate chain {output:?} is never read")
            }
            GraphError::BadParam { output, detail } => {
                write!(f, "chain {output:?}: {detail}")
            }
        }
    }
}

impl std::error::Error for GraphError {}

/// One chain of the IR: `input` → `ops[0]` → … → `ops[n-1]` → `output`.
#[derive(Debug, Clone, PartialEq)]
pub struct ChainSpec {
    /// Output name: a mini-batch feature name, or the handle other chains
    /// reference when this is an intermediate.
    pub output: String,
    /// Input name: a raw column of the partition, or another chain's
    /// output (raw columns win when both exist).
    pub input: String,
    /// The ops, applied in order.
    pub ops: Vec<Op>,
    /// True when the output is emitted into the mini-batch.
    pub emit: bool,
}

impl ChainSpec {
    /// A chain whose output becomes a mini-batch feature.
    #[must_use]
    pub fn feature(output: impl Into<String>, input: impl Into<String>, ops: Vec<Op>) -> Self {
        ChainSpec { output: output.into(), input: input.into(), ops, emit: true }
    }

    /// A chain that only feeds other chains (not emitted).
    #[must_use]
    pub fn intermediate(output: impl Into<String>, input: impl Into<String>, ops: Vec<Op>) -> Self {
        ChainSpec { output: output.into(), input: input.into(), ops, emit: false }
    }
}

/// A preprocessing scenario: the operator graph a
/// [`PreprocessPlan`](crate::PreprocessPlan) is compiled from.
#[derive(Debug, Clone, PartialEq)]
pub struct PlanGraph {
    chains: Vec<ChainSpec>,
}

impl PlanGraph {
    /// Wraps a chain list (validated at compile time).
    #[must_use]
    pub fn new(chains: Vec<ChainSpec>) -> Self {
        PlanGraph { chains }
    }

    /// The chains, in declaration (= output) order.
    #[must_use]
    pub fn chains(&self) -> &[ChainSpec] {
        &self.chains
    }

    /// The canonical fixed scenario of the paper: LogNorm every dense
    /// column, SigridHash every raw sparse column and Bucketize one
    /// generated feature per `config.num_generated` — bit-identical to the
    /// historical hardcoded three-stage plan (same seeds, same order).
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::BadParam`] if boundary construction fails
    /// (only possible for degenerate bucket sizes).
    pub fn canonical(config: &RmConfig, seed: u64) -> Result<Self, GraphError> {
        let mut chains = log_normalized_dense(config);
        for i in 0..config.num_sparse {
            let name = format!("sparse_{i}");
            chains.push(ChainSpec::feature(
                name.clone(),
                name,
                vec![Op::SigridHash(sparse_hasher(config, seed, i)?)],
            ));
        }
        chains.extend(bucketized_generated(config)?);
        Ok(PlanGraph::new(chains))
    }

    /// Non-canonical scenario "truncate + cross": every sparse list is
    /// truncated to its first `x` ids (an intermediate chain), then hashed
    /// into the usual normalized feature, and every consecutive pair of
    /// truncated lists additionally produces an `n`-gram feature-cross
    /// column (`cross_i`). Dense and generated features stay canonical.
    ///
    /// This is the RM-variant shape of Meta's ingestion study: bounded list
    /// lengths plus crossed sparse features, expressed purely as a graph —
    /// no executor changes needed.
    ///
    /// # Errors
    ///
    /// Same as [`PlanGraph::canonical`].
    pub fn truncated_cross(
        config: &RmConfig,
        seed: u64,
        x: usize,
        n: usize,
    ) -> Result<Self, GraphError> {
        let mut chains = log_normalized_dense(config);
        for i in 0..config.num_sparse {
            // One truncation, two consumers: the normalized feature and
            // (below) the feature cross — a real dag, not a chain list.
            chains.push(ChainSpec::intermediate(
                format!("trunc_{i}"),
                format!("sparse_{i}"),
                vec![Op::FirstX(x)],
            ));
            chains.push(ChainSpec::feature(
                format!("sparse_{i}"),
                format!("trunc_{i}"),
                vec![Op::SigridHash(sparse_hasher(config, seed, i)?)],
            ));
        }
        for i in 0..config.num_sparse {
            let hasher = SigridHasher::new(
                seed ^ (0xC105_u64 << 32) ^ i as u64,
                config.avg_embeddings as u64,
            )
            .map_err(|e| GraphError::BadParam {
                output: format!("cross_{i}"),
                detail: e.to_string(),
            })?;
            chains.push(ChainSpec::feature(
                format!("cross_{i}"),
                format!("trunc_{i}"),
                vec![Op::NGram { n, hasher }],
            ));
        }
        chains.extend(bucketized_generated(config)?);
        Ok(PlanGraph::new(chains))
    }

    /// Non-canonical scenario "dictionary remap": every sparse feature is
    /// remapped through a bounded [`IdMap`] before the usual SigridHash
    /// (the MapId-then-normalize shape of production id dictionaries), and
    /// every generated Bucketize output is itself remapped into a smaller
    /// table (`Ids → MapId` — the `Ids`-kind elementwise path).
    ///
    /// # Errors
    ///
    /// Same as [`PlanGraph::canonical`].
    pub fn remapped(config: &RmConfig, seed: u64, map_size: usize) -> Result<Self, GraphError> {
        let mut chains = log_normalized_dense(config);
        for i in 0..config.num_sparse {
            let name = format!("sparse_{i}");
            let map = IdMap::shuffled(seed ^ 0xA11D ^ i as u64, map_size, map_size as u64);
            chains.push(ChainSpec::feature(
                name.clone(),
                name,
                vec![Op::MapId(map), Op::SigridHash(sparse_hasher(config, seed, i)?)],
            ));
        }
        let bucketizer = log_bucketizer(config);
        for i in 0..config.num_generated {
            let map = IdMap::shuffled(
                seed ^ 0x9E4D ^ i as u64,
                config.bucket_size + 1,
                (config.bucket_size / 2).max(1) as u64,
            );
            chains.push(ChainSpec::feature(
                format!("gen_{i}"),
                generated_source_column(config, i),
                vec![Op::Bucketize(bucketizer(i)?), Op::MapId(map)],
            ));
        }
        Ok(PlanGraph::new(chains))
    }

    /// Non-canonical scenario "long history": every sparse column is an
    /// ultra-long user-history sequence consumed through a single
    /// `FirstX(x) → SigridHash` chain — the RecD request-history shape
    /// where only the most recent `x` events feed the model. Because every
    /// sparse reader truncates first, plan compilation derives
    /// `Prefix(x)` for all sparse columns and the Extract step decodes
    /// only `x / avg_sparse_len` of the list bytes (see the prefix-
    /// pushdown module docs in [`crate::plan`]). Pair with
    /// [`RmConfig::rm_longseq`] (average length 512) to make the decode
    /// savings measurable. Dense and generated features stay canonical.
    ///
    /// # Errors
    ///
    /// Same as [`PlanGraph::canonical`].
    pub fn long_history(config: &RmConfig, seed: u64, x: usize) -> Result<Self, GraphError> {
        let mut chains = log_normalized_dense(config);
        for i in 0..config.num_sparse {
            let name = format!("sparse_{i}");
            chains.push(ChainSpec::feature(
                name.clone(),
                name,
                vec![Op::FirstX(x), Op::SigridHash(sparse_hasher(config, seed, i)?)],
            ));
        }
        chains.extend(bucketized_generated(config)?);
        Ok(PlanGraph::new(chains))
    }

    /// Non-canonical scenario "dense cleanup": every dense column passes
    /// through a shared `FillMissing → Clamp` intermediate (`clean_i`)
    /// before its LogNorm feature, and each generated Bucketize reads the
    /// *cleaned* value instead of the raw column — the sanitize-first shape
    /// of production dense pipelines. Sparse features stay canonical.
    ///
    /// The cleanup intermediates give every dense feature a
    /// stage-to-stage edge, so this scenario also exercises Dense-kind
    /// boundary hand-offs under split placement.
    ///
    /// # Errors
    ///
    /// Same as [`PlanGraph::canonical`].
    pub fn cleaned(config: &RmConfig, seed: u64) -> Result<Self, GraphError> {
        let mut chains = Vec::new();
        for i in 0..config.num_dense {
            let name = format!("dense_{i}");
            chains.push(ChainSpec::intermediate(
                format!("clean_{i}"),
                name.clone(),
                vec![Op::FillMissing(0.0), Op::Clamp { lo: 0.0, hi: DENSE_VALUE_CEILING }],
            ));
            chains.push(ChainSpec::feature(name, format!("clean_{i}"), vec![Op::LogNorm]));
        }
        for i in 0..config.num_sparse {
            let name = format!("sparse_{i}");
            chains.push(ChainSpec::feature(
                name.clone(),
                name,
                vec![Op::SigridHash(sparse_hasher(config, seed, i)?)],
            ));
        }
        let bucketizer = log_bucketizer(config);
        for i in 0..config.num_generated {
            let source = generated_source_column(config, i);
            // Re-route through the cleanup intermediate when one exists for
            // the source column (it always does for dense sources).
            let input =
                source.strip_prefix("dense_").map_or(source.clone(), |idx| format!("clean_{idx}"));
            chains.push(ChainSpec::feature(
                format!("gen_{i}"),
                input,
                vec![Op::Bucketize(bucketizer(i)?)],
            ));
        }
        Ok(PlanGraph::new(chains))
    }
}

/// One `LogNorm` feature per dense column, each named after its column:
/// the dense part of every built-in graph but [`PlanGraph::cleaned`].
fn log_normalized_dense(config: &RmConfig) -> Vec<ChainSpec> {
    let name = |i| format!("dense_{i}");
    (0..config.num_dense).map(|i| ChainSpec::feature(name(i), name(i), vec![Op::LogNorm])).collect()
}

/// One `Bucketize` feature `gen_i` per generated column, over its source
/// dense column: the generated part of the canonical, truncated-cross and
/// long-history graphs.
fn bucketized_generated(config: &RmConfig) -> Result<Vec<ChainSpec>, GraphError> {
    let bucketizer = log_bucketizer(config);
    (0..config.num_generated)
        .map(|i| {
            let source = generated_source_column(config, i);
            Ok(ChainSpec::feature(format!("gen_{i}"), source, vec![Op::Bucketize(bucketizer(i)?)]))
        })
        .collect()
}

/// The canonical per-feature hasher (seed recipe fixed forever: the v2
/// format-compat fingerprint pins it).
fn sparse_hasher(config: &RmConfig, seed: u64, i: usize) -> Result<SigridHasher, GraphError> {
    SigridHasher::new(seed ^ (0x5157_u64 << 32) ^ i as u64, config.avg_embeddings as u64)
        .map_err(|e| GraphError::BadParam { output: format!("sparse_{i}"), detail: e.to_string() })
}

/// The canonical log-spaced bucketizer of generated feature `i`, built once
/// per graph: every generated feature shares its boundaries and table.
fn log_bucketizer(config: &RmConfig) -> impl Fn(usize) -> Result<Bucketizer, GraphError> {
    let built = Bucketizer::log_spaced(config.bucket_size, DENSE_VALUE_CEILING);
    move |i| {
        built
            .clone()
            .map_err(|e| GraphError::BadParam { output: format!("gen_{i}"), detail: e.to_string() })
    }
}

/// Where a resolved chain reads its input from.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum ChainInput {
    /// A raw column of the stored partition.
    Raw(String),
    /// Another chain, by index into [`PlanGraph::chains`].
    Chain(usize),
}

/// One chain after name resolution, type checking and topological sorting.
#[derive(Debug, Clone)]
pub(crate) struct ResolvedChain {
    /// Index into [`PlanGraph::chains`].
    pub chain: usize,
    pub input: ChainInput,
    pub input_kind: ValueKind,
    pub output_kind: ValueKind,
}

/// Validates the graph against the raw-column kinds and returns the chains
/// in a topological evaluation order.
pub(crate) fn resolve(
    graph: &PlanGraph,
    raw_kind: impl Fn(&str) -> Option<ValueKind>,
) -> Result<Vec<ResolvedChain>, GraphError> {
    let chains = graph.chains();
    if chains.is_empty() {
        return Err(GraphError::EmptyGraph);
    }
    let mut by_output: HashMap<&str, usize> = HashMap::with_capacity(chains.len());
    for (idx, chain) in chains.iter().enumerate() {
        if chain.output.is_empty() || chain.output == LABEL_COLUMN {
            return Err(GraphError::ReservedOutput { output: chain.output.clone() });
        }
        if chain.ops.is_empty() {
            return Err(GraphError::EmptyChain { output: chain.output.clone() });
        }
        if by_output.insert(chain.output.as_str(), idx).is_some() {
            return Err(GraphError::DuplicateOutput { output: chain.output.clone() });
        }
    }

    // Resolve inputs: raw columns shadow chain outputs (the canonical
    // graph's LogNorm chains re-use the raw dense names).
    let mut inputs: Vec<ChainInput> = Vec::with_capacity(chains.len());
    let mut referenced = vec![false; chains.len()];
    for chain in chains {
        if raw_kind(&chain.input).is_some() {
            inputs.push(ChainInput::Raw(chain.input.clone()));
        } else if let Some(&producer) = by_output.get(chain.input.as_str()) {
            referenced[producer] = true;
            inputs.push(ChainInput::Chain(producer));
        } else {
            return Err(GraphError::UnknownInput {
                output: chain.output.clone(),
                input: chain.input.clone(),
            });
        }
    }
    for (idx, chain) in chains.iter().enumerate() {
        if !chain.emit && !referenced[idx] {
            return Err(GraphError::UnusedIntermediate { output: chain.output.clone() });
        }
    }

    // Kahn fixpoint over chain-to-chain edges; declaration order is the
    // tie-break, so the canonical graph resolves in declaration order.
    let mut output_kinds: Vec<Option<ValueKind>> = vec![None; chains.len()];
    let mut order: Vec<ResolvedChain> = Vec::with_capacity(chains.len());
    let mut done = vec![false; chains.len()];
    loop {
        let mut progressed = false;
        for idx in 0..chains.len() {
            if done[idx] {
                continue;
            }
            let input_kind = match &inputs[idx] {
                ChainInput::Raw(name) => raw_kind(name).expect("raw input re-resolves"),
                ChainInput::Chain(producer) => match output_kinds[*producer] {
                    Some(kind) => kind,
                    None => continue, // producer not resolved yet
                },
            };
            let mut kind = input_kind;
            for op in &chains[idx].ops {
                kind = op.output_kind(kind).ok_or_else(|| GraphError::TypeMismatch {
                    output: chains[idx].output.clone(),
                    op: op.to_string(),
                    kind,
                })?;
            }
            output_kinds[idx] = Some(kind);
            order.push(ResolvedChain {
                chain: idx,
                input: inputs[idx].clone(),
                input_kind,
                output_kind: kind,
            });
            done[idx] = true;
            progressed = true;
        }
        if !progressed {
            break;
        }
    }
    if let Some(idx) = done.iter().position(|d| !d) {
        return Err(GraphError::Cycle { output: chains[idx].output.clone() });
    }
    Ok(order)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn raw(name: &str) -> Option<ValueKind> {
        match name {
            "d0" | "d1" => Some(ValueKind::Dense),
            "s0" | "s1" => Some(ValueKind::List),
            LABEL_COLUMN => Some(ValueKind::Ids),
            _ => None,
        }
    }

    fn hash() -> Op {
        Op::SigridHash(SigridHasher::new(1, 100).unwrap())
    }

    #[test]
    fn canonical_graph_shapes_follow_config() {
        let g = PlanGraph::canonical(&RmConfig::rm1(), 1).unwrap();
        assert_eq!(g.chains().len(), 13 + 26 + 13);
        assert!(g.chains().iter().all(|c| c.emit));
        assert_eq!(g.chains()[0].output, "dense_0");
        assert_eq!(g.chains()[13].output, "sparse_0");
        assert_eq!(g.chains()[39].output, "gen_0");
        assert_eq!(g.chains()[39].input, "dense_0");
    }

    #[test]
    fn chain_feeding_chain_resolves_in_topo_order() {
        // Declared consumer-first: resolution must still order producer
        // before consumer.
        let g = PlanGraph::new(vec![
            ChainSpec::feature("b", "a", vec![hash()]),
            ChainSpec::intermediate("a", "s0", vec![Op::FirstX(2)]),
        ]);
        let order = resolve(&g, raw).unwrap();
        assert_eq!(order.len(), 2);
        assert_eq!(order[0].chain, 1, "producer first");
        assert_eq!(order[1].input, ChainInput::Chain(1));
        assert_eq!(order[1].output_kind, ValueKind::List);
    }

    #[test]
    fn raw_columns_shadow_chain_outputs() {
        // A chain named after a raw column: readers of that name get the
        // raw data (the canonical LogNorm shadowing).
        let g = PlanGraph::new(vec![
            ChainSpec::feature("d0", "d0", vec![Op::LogNorm]),
            ChainSpec::feature(
                "g0",
                "d0",
                vec![Op::Bucketize(Bucketizer::new(vec![0.0]).unwrap())],
            ),
        ]);
        let order = resolve(&g, raw).unwrap();
        assert!(order.iter().all(|c| matches!(c.input, ChainInput::Raw(_))));
    }

    #[test]
    fn cycles_are_reported_not_looped() {
        let g = PlanGraph::new(vec![
            ChainSpec::feature("a", "b", vec![hash()]),
            ChainSpec::feature("b", "a", vec![hash()]),
        ]);
        assert!(matches!(resolve(&g, raw), Err(GraphError::Cycle { .. })));
    }

    #[test]
    fn type_mismatches_are_reported() {
        let g = PlanGraph::new(vec![ChainSpec::feature("x", "s0", vec![Op::LogNorm])]);
        let err = resolve(&g, raw).unwrap_err();
        assert!(matches!(err, GraphError::TypeMismatch { .. }), "{err}");
        // Mid-chain: Bucketize output (Ids) cannot feed FirstX.
        let g = PlanGraph::new(vec![ChainSpec::feature(
            "x",
            "d0",
            vec![Op::Bucketize(Bucketizer::new(vec![0.0]).unwrap()), Op::FirstX(1)],
        )]);
        assert!(matches!(resolve(&g, raw), Err(GraphError::TypeMismatch { .. })));
    }

    #[test]
    fn degenerate_graphs_error_without_panicking() {
        assert!(matches!(resolve(&PlanGraph::new(vec![]), raw), Err(GraphError::EmptyGraph)));
        let empty_chain = PlanGraph::new(vec![ChainSpec::feature("x", "s0", vec![])]);
        assert!(matches!(resolve(&empty_chain, raw), Err(GraphError::EmptyChain { .. })));
        let reserved = PlanGraph::new(vec![ChainSpec::feature(LABEL_COLUMN, "s0", vec![hash()])]);
        assert!(matches!(resolve(&reserved, raw), Err(GraphError::ReservedOutput { .. })));
        let dup = PlanGraph::new(vec![
            ChainSpec::feature("x", "s0", vec![hash()]),
            ChainSpec::feature("x", "s1", vec![hash()]),
        ]);
        assert!(matches!(resolve(&dup, raw), Err(GraphError::DuplicateOutput { .. })));
        let unknown = PlanGraph::new(vec![ChainSpec::feature("x", "nope", vec![hash()])]);
        assert!(matches!(resolve(&unknown, raw), Err(GraphError::UnknownInput { .. })));
        let dangling = PlanGraph::new(vec![
            ChainSpec::intermediate("i", "s0", vec![Op::FirstX(1)]),
            ChainSpec::feature("x", "s1", vec![hash()]),
        ]);
        assert!(matches!(resolve(&dangling, raw), Err(GraphError::UnusedIntermediate { .. })));
    }

    #[test]
    fn scenario_builders_validate() {
        let mut c = RmConfig::rm1();
        c.avg_sparse_len = 4;
        c.fixed_sparse_len = false;
        let cross = PlanGraph::truncated_cross(&c, 7, 3, 2).unwrap();
        // dense + (trunc + sparse per feature) + cross + generated
        assert_eq!(cross.chains().len(), 13 + 2 * 26 + 26 + 13);
        assert!(cross.chains().iter().any(|ch| !ch.emit), "has intermediates");
        let remap = PlanGraph::remapped(&c, 7, 64).unwrap();
        assert_eq!(remap.chains().len(), 13 + 26 + 13);
        let kinds = |name: &str| match name {
            LABEL_COLUMN => Some(ValueKind::Ids),
            n if n.starts_with("dense_") => Some(ValueKind::Dense),
            n if n.starts_with("sparse_") => Some(ValueKind::List),
            _ => None,
        };
        assert!(resolve(&cross, kinds).is_ok());
        assert!(resolve(&remap, kinds).is_ok());
    }

    #[test]
    fn errors_display_informatively() {
        let e = GraphError::TypeMismatch {
            output: "x".into(),
            op: "LogNorm".into(),
            kind: ValueKind::List,
        };
        assert!(e.to_string().contains("LogNorm"));
        assert!(GraphError::Cycle { output: "a".into() }.to_string().contains("cycle"));
    }
}
