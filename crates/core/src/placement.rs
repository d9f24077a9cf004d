//! Cost-model-driven host/ISP stage placement.
//!
//! PreSto's core argument is that preprocessing is a pipeline of
//! heterogeneous operators whose *placement* — host CPU or in-storage
//! accelerator — should follow their cost profiles (Sections III/IV). This
//! module makes that decision explicit for any compiled
//! [`PreprocessPlan`]: an [`OpCostModel`] prices every operator class on
//! both sides, and [`place_stages`] walks the plan's compiled stages,
//! prices each one from its per-op element counts
//! ([`PreprocessPlan::stage_op_elements`]) and assigns it to the cheaper
//! side.
//!
//! Two ways to build the cost model:
//!
//! * [`OpCostModel::analytic`] — host rates from the calibrated TorchArrow
//!   constants (`presto_hwsim::calib::cpu`), ISP rates from the
//!   [`IspModel`]'s unit throughputs. No measurement needed.
//! * [`OpCostModel::calibrated`] — host rates from a *measured*
//!   [`StageTimings`] (the executor's per-op time and element buckets), so
//!   the placement follows the machine it actually runs on; ops the
//!   measured run never executed fall back to the analytic rate.
//!
//! The ISP side additionally pays the per-stage kernel-dispatch overhead,
//! which is what keeps tiny stages (a FirstX over a few thousand ids) on
//! the host while the hash- and search-heavy stages offload — the shape of
//! the paper's Fig. 12 argument, now produced per stage instead of per
//! pipeline.

use presto_hwsim::calib;
use presto_hwsim::fpga::IspModel;
use presto_hwsim::trace::OpKind;
use presto_hwsim::units::Secs;
use presto_ops::{Op, OpTag, PreprocessPlan, StageTimings};

pub use presto_ops::plan::Place;

const N_OPS: usize = OpTag::ALL.len();

/// Per-op-class cost tables: host nanoseconds per element and ISP
/// elements per second, plus the ISP's per-stage dispatch overhead.
#[derive(Debug, Clone, PartialEq)]
pub struct OpCostModel {
    host_ns_per_elem: [f64; N_OPS],
    /// True where `host_ns_per_elem` came from a measurement (calibrated
    /// rates already reflect the measured plan's parameters, e.g. the
    /// Bucketize search depth, so no analytic depth scaling applies).
    host_measured: [bool; N_OPS],
    isp_elems_per_sec: [f64; N_OPS],
    isp_stage_overhead: Secs,
    /// Host ↔ ISP boundary-link rate intermediate hand-offs move at.
    link_bytes_per_sec: f64,
}

/// Search depth the analytic Bucketize entry is normalized to
/// (`⌈log₂ 1024⌉` for the canonical m = 1024 boundaries); [`place_stages`]
/// rescales analytic prices by each op's actual [`Op::search_depth`].
const ANALYTIC_BUCKETIZE_DEPTH: f64 = 10.0;

/// Analytic host cost of one op class, nanoseconds per element.
///
/// The three paper ops come straight from `calib::cpu`; the extended
/// vocabulary is priced from the same constants: `MapId` is one dependent
/// table load (a single search step), `FirstX` moves elements at
/// format-conversion speed, and `NGram` pays a hash plus window-fold
/// overhead per element.
fn analytic_host_ns(tag: OpTag) -> f64 {
    use calib::cpu as c;
    match tag {
        // Per-element cost at the reference search depth; place_stages
        // rescales by the stage's actual boundary count, while calibrated
        // models replace the entry with a measured rate outright.
        OpTag::Bucketize => c::BUCKET_NS_PER_CMP * ANALYTIC_BUCKETIZE_DEPTH,
        OpTag::SigridHash => c::HASH_NS_PER_ELEM,
        OpTag::LogNorm => c::LOG_NS_PER_ELEM,
        OpTag::MapId => c::BUCKET_NS_PER_CMP,
        OpTag::FirstX => c::FORMAT_NS_PER_ELEM,
        OpTag::NGram => 1.5 * c::HASH_NS_PER_ELEM,
        // Branch-free dense cleanup moves at format-conversion speed.
        OpTag::Clamp | OpTag::FillMissing => c::FORMAT_NS_PER_ELEM,
    }
}

/// ISP unit rate of one op class, elements per second, derived from the
/// build's synthesized unit throughputs: `NGram` runs on the hash
/// pipeline, `MapId` on the URAM search structure, and `FirstX` is a
/// DRAM-bandwidth copy (8-byte ids).
fn isp_elems_per_sec(isp: &IspModel, tag: OpTag) -> f64 {
    match tag {
        OpTag::Bucketize | OpTag::MapId => isp.unit_elems_per_sec(OpKind::Bucketize),
        OpTag::SigridHash | OpTag::NGram => isp.unit_elems_per_sec(OpKind::SigridHash),
        OpTag::LogNorm => isp.unit_elems_per_sec(OpKind::Log),
        OpTag::FirstX => isp.dram_bandwidth().raw() / 8.0,
        // Dense cleanup shares the elementwise normalization pipeline.
        OpTag::Clamp | OpTag::FillMissing => isp.unit_elems_per_sec(OpKind::Log),
    }
}

impl OpCostModel {
    /// Builds the table from the calibrated analytic constants on the host
    /// side and `isp`'s unit rates on the device side.
    #[must_use]
    pub fn analytic(isp: &IspModel) -> Self {
        let mut host = [0.0; N_OPS];
        let mut device = [0.0; N_OPS];
        for tag in OpTag::ALL {
            host[tag as usize] = analytic_host_ns(tag);
            device[tag as usize] = isp_elems_per_sec(isp, tag);
        }
        OpCostModel {
            host_ns_per_elem: host,
            host_measured: [false; N_OPS],
            isp_elems_per_sec: device,
            isp_stage_overhead: isp.stage_overhead(),
            link_bytes_per_sec: isp.link_bandwidth().raw(),
        }
    }

    /// Like [`OpCostModel::analytic`], but host rates come from a measured
    /// [`StageTimings`] (its per-op time/element buckets) — the closed
    /// calibration loop: run the executor once, price the plan with the
    /// rates of *this* machine. Ops the measurement never exercised keep
    /// the analytic rate.
    #[must_use]
    pub fn calibrated(measured: &StageTimings, isp: &IspModel) -> Self {
        let mut model = Self::analytic(isp);
        for tag in OpTag::ALL {
            if let Some(ns) = measured.ops.get(tag).ns_per_elem() {
                model.host_ns_per_elem[tag as usize] = ns;
                model.host_measured[tag as usize] = true;
            }
        }
        model
    }

    /// Host cost table entry, nanoseconds per element.
    #[must_use]
    pub fn host_ns_per_elem(&self, tag: OpTag) -> f64 {
        self.host_ns_per_elem[tag as usize]
    }

    /// ISP cost table entry, elements per second (0 = cannot run on ISP).
    #[must_use]
    pub fn isp_rate(&self, tag: OpTag) -> f64 {
        self.isp_elems_per_sec[tag as usize]
    }

    /// Boundary-link rate an intermediate hand-off crosses fleets at,
    /// bytes per second (from [`IspModel::link_bandwidth`]).
    #[must_use]
    pub fn link_bytes_per_sec(&self) -> f64 {
        self.link_bytes_per_sec
    }
}

/// One stage's placement decision with both priced alternatives.
#[derive(Debug, Clone, PartialEq)]
pub struct StagePlacement {
    /// Stage output name.
    pub output: String,
    /// Display form of the stage's op chain.
    pub ops: String,
    /// Elements the stage processes (summed over its ops).
    pub elements: u64,
    /// Estimated cost on a host worker.
    pub host: Secs,
    /// Estimated cost on an ISP unit (dispatch overhead included), or
    /// `None` when the model cannot run the stage in storage.
    pub isp: Option<Secs>,
    /// Boundary hand-off price the *chosen* side pays to import its input
    /// from the other fleet (zero for raw inputs or same-side producers).
    pub transfer: Secs,
    /// The cheaper side, hand-off included.
    pub place: Place,
}

impl StagePlacement {
    /// The cost of the chosen side, including its boundary hand-off.
    #[must_use]
    pub fn placed(&self) -> Secs {
        let compute = match self.place {
            Place::Host => self.host,
            Place::Isp => self.isp.unwrap_or(self.host),
        };
        compute + self.transfer
    }
}

/// A whole plan's placement: per-stage decisions plus the aggregate costs.
#[derive(Debug, Clone, PartialEq)]
pub struct PlacementPlan {
    /// Rows the costs were estimated for.
    pub rows: usize,
    /// Per-stage decisions, in execution order.
    pub stages: Vec<StagePlacement>,
}

impl PlacementPlan {
    /// Total cost with every stage on the host.
    #[must_use]
    pub fn host_total(&self) -> Secs {
        self.stages.iter().fold(Secs::ZERO, |a, s| a + s.host)
    }

    /// Total cost with every ISP-capable stage on the ISP (stages the
    /// model cannot offload are priced at their host cost).
    #[must_use]
    pub fn isp_total(&self) -> Secs {
        self.stages.iter().fold(Secs::ZERO, |a, s| a + s.isp.unwrap_or(s.host))
    }

    /// Total cost with each stage on its chosen side.
    #[must_use]
    pub fn placed_total(&self) -> Secs {
        self.stages.iter().fold(Secs::ZERO, |a, s| a + s.placed())
    }

    /// Stages assigned to the ISP.
    #[must_use]
    pub fn offloaded(&self) -> usize {
        self.stages.iter().filter(|s| s.place == Place::Isp).count()
    }

    /// The per-stage fleet assignment this placement chose, in the form
    /// [`PreprocessPlan::split`](presto_ops::PreprocessPlan::split)
    /// materializes into an actual split execution.
    #[must_use]
    pub fn fleet_assignment(&self) -> Vec<Place> {
        self.stages.iter().map(|s| s.place).collect()
    }

    /// `host_total / placed_total`: the speedup the placement buys over an
    /// all-host pipeline.
    #[must_use]
    pub fn speedup(&self) -> f64 {
        let placed = self.placed_total().seconds();
        if placed > 0.0 {
            self.host_total().seconds() / placed
        } else {
            1.0
        }
    }
}

/// Prices every compiled stage of `plan` for a `rows`-row batch on both
/// sides of `model` and assigns each to the cheaper one.
///
/// Per-op element counts come from
/// [`PreprocessPlan::stage_op_elements`]; Bucketize ops scale the host
/// rate by their actual boundary-search depth relative to the analytic
/// table's reference depth when the analytic table is in use (calibrated
/// tables already measured the real depth). The ISP side pays the
/// kernel-dispatch overhead once per stage — a stage offloads as a unit.
///
/// A stage whose input is another stage's output pays the boundary
/// hand-off when the producer was placed on the other fleet: the
/// producer's estimated output bytes ([`PreprocessPlan::stage_output_bytes`])
/// at the model's link rate are added to the side that must import them,
/// so a marginally-cheaper ISP stage correctly stays host-side once the
/// hand-off dominates. (Raw-column inputs live on storage and are priced
/// by the Extract path, not here; emitted outputs returning to the host
/// for mini-batch assembly are accounted at run time by the split
/// executor's P2P counters.)
#[must_use]
pub fn place_stages(plan: &PreprocessPlan, rows: usize, model: &OpCostModel) -> PlacementPlan {
    let per_stage = plan.stage_op_elements(rows);
    let output_bytes = plan.stage_output_bytes(rows);
    let mut places: Vec<Place> = Vec::with_capacity(plan.stages().len());
    let stages = plan
        .stages()
        .iter()
        .zip(&per_stage)
        .map(|(stage, op_elems)| {
            let mut host = 0.0f64;
            let mut isp = Some(0.0f64);
            let mut elements = 0u64;
            for ((tag, elems), op) in op_elems.iter().zip(stage.ops()) {
                #[allow(clippy::cast_precision_loss)]
                let n = *elems as f64;
                elements += elems;
                let mut ns = model.host_ns_per_elem(*tag);
                if *tag == OpTag::Bucketize && !model.host_measured[*tag as usize] {
                    ns *= f64::from(op.search_depth()) / ANALYTIC_BUCKETIZE_DEPTH;
                }
                host += n * ns * 1e-9;
                let rate = model.isp_rate(*tag);
                isp = match isp {
                    Some(acc) if rate > 0.0 => Some(acc + n / rate),
                    _ => None,
                };
            }
            // One kernel dispatch per offloaded stage.
            let isp = isp.map(|acc| acc + model.isp_stage_overhead.seconds());
            // Importing the input across the fleet boundary costs its
            // producer's output bytes at the link rate — charged to
            // whichever side the producer is *not* on.
            let producer = match stage.input() {
                presto_ops::StageInput::Stage(pos) => {
                    #[allow(clippy::cast_precision_loss)]
                    let secs = output_bytes[*pos] as f64 / model.link_bytes_per_sec.max(1.0);
                    Some((places[*pos], secs))
                }
                presto_ops::StageInput::Raw(_) => None,
            };
            let import_cost = |side: Place| match producer {
                Some((from, secs)) if from != side => secs,
                _ => 0.0,
            };
            let host_landed = host + import_cost(Place::Host);
            let isp_landed = isp.map(|c| c + import_cost(Place::Isp));
            let place = match isp_landed {
                Some(device) if device < host_landed => Place::Isp,
                _ => Place::Host,
            };
            places.push(place);
            StagePlacement {
                output: stage.output().to_owned(),
                ops: stage.ops().iter().map(Op::to_string).collect::<Vec<_>>().join(" → "),
                elements,
                host: Secs::new(host),
                isp: isp.map(Secs::new),
                transfer: Secs::new(import_cost(place)),
                place,
            }
        })
        .collect();
    PlacementPlan { rows, stages }
}

#[cfg(test)]
mod tests {
    use super::*;
    use presto_datagen::RmConfig;
    use presto_ops::{PlanGraph, PreprocessPlan};

    fn rm1_plan(rows: usize) -> (PreprocessPlan, usize) {
        let mut c = RmConfig::rm1();
        c.batch_size = rows;
        (PreprocessPlan::from_config(&c, 1).unwrap(), rows)
    }

    #[test]
    fn paper_scale_batches_offload_the_heavy_stages() {
        // At the paper's 8192-row batches the boundary-search stages beat
        // the host by enough to pay the dispatch overhead (Fig. 12's
        // argument); RM1's length-1 sparse lists stay host-side — exactly
        // the per-stage nuance a per-pipeline decision cannot express.
        let (plan, rows) = rm1_plan(8192);
        let placement = place_stages(&plan, rows, &OpCostModel::analytic(&IspModel::smartssd()));
        assert_eq!(placement.stages.len(), plan.stages().len());
        for s in &placement.stages {
            if s.output.starts_with("gen_") {
                assert_eq!(s.place, Place::Isp, "{}: host {} isp {:?}", s.output, s.host, s.isp);
            }
            if s.output.starts_with("sparse_") {
                assert_eq!(s.place, Place::Host, "8K length-1 lists cannot amortize dispatch");
            }
        }
        assert!(placement.speedup() > 1.0);
        assert_eq!(placement.offloaded(), 13);

        // Production-shaped sparse lists (RM3: average length 20) make the
        // hash stages win the offload too.
        let mut c = RmConfig::rm3();
        c.batch_size = 8192;
        let plan = PreprocessPlan::from_config(&c, 1).unwrap();
        let placement =
            place_stages(&plan, c.batch_size, &OpCostModel::analytic(&IspModel::smartssd()));
        for s in placement.stages.iter().filter(|s| s.output.starts_with("sparse_")) {
            assert_eq!(s.place, Place::Isp, "{}: host {} isp {:?}", s.output, s.host, s.isp);
        }
    }

    #[test]
    fn prefix_pushdown_moves_long_history_stages_to_the_host() {
        use presto_ops::{ChainSpec, ColumnRequirement, Op, SigridHasher};
        // `long_history` heads every sparse chain with FirstX(8), so each
        // 512-element history column is priced as an 8-element prefix. One
        // more consumer per column that hashes the *full* history forces
        // `Full` decode and restores the full-length pricing of the very
        // same FirstX-headed stages.
        let c = RmConfig::rm_longseq();
        let graph = || PlanGraph::long_history(&c, 7, 8).unwrap();
        let mut chains = graph().chains().to_vec();
        for i in 0..c.num_sparse {
            let hasher = SigridHasher::new(0xF011 ^ i as u64, c.avg_embeddings as u64).unwrap();
            let (output, input) = (format!("full_hist_{i}"), format!("sparse_{i}"));
            chains.push(ChainSpec::feature(output, input, vec![Op::SigridHash(hasher)]));
        }
        let prefix = PreprocessPlan::compile(graph(), &c).unwrap();
        let full = PreprocessPlan::compile(PlanGraph::new(chains), &c).unwrap();
        assert_eq!(prefix.requirement_for("sparse_0"), ColumnRequirement::Prefix(8));
        assert_eq!(full.requirement_for("sparse_0"), ColumnRequirement::Full);
        let model = OpCostModel::analytic(&IspModel::smartssd());
        let sparse_places = |plan: &PreprocessPlan, rows: usize| {
            let placement = place_stages(plan, rows, &model);
            let sparse = placement.stages.iter().filter(|s| s.output.starts_with("sparse_"));
            sparse.map(|s| s.place).collect::<Vec<_>>()
        };
        // At 512 rows full-decode pricing offloads every history stage and
        // the pushed-down prefix keeps every one on the host. (At 64 rows
        // none flips: the stages are host-side under both pricings, which
        // is why this pins 512.)
        assert_eq!(sparse_places(&full, 512), vec![Place::Isp; c.num_sparse]);
        assert_eq!(sparse_places(&prefix, 512), vec![Place::Host; c.num_sparse]);
        assert_eq!(sparse_places(&full, 64), sparse_places(&prefix, 64));
    }

    #[test]
    fn tiny_batches_stay_on_host() {
        // A 16-row batch cannot amortize the kernel dispatch overhead.
        let (plan, rows) = rm1_plan(16);
        let placement = place_stages(&plan, rows, &OpCostModel::analytic(&IspModel::smartssd()));
        assert_eq!(placement.offloaded(), 0);
        assert!((placement.speedup() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn calibration_overrides_measured_ops_only() {
        use presto_ops::{OpTag, StageTimings};
        use std::time::Duration;
        let mut measured = StageTimings::default();
        // 1 µs per element measured for SigridHash — much slower than the
        // analytic table.
        measured.ops.add(OpTag::SigridHash, Duration::from_millis(1), 1000);
        let isp = IspModel::smartssd();
        let analytic = OpCostModel::analytic(&isp);
        let calibrated = OpCostModel::calibrated(&measured, &isp);
        assert!((calibrated.host_ns_per_elem(OpTag::SigridHash) - 1000.0).abs() < 1.0);
        assert_eq!(
            calibrated.host_ns_per_elem(OpTag::Bucketize),
            analytic.host_ns_per_elem(OpTag::Bucketize),
            "unmeasured ops keep the analytic rate"
        );
    }

    #[test]
    fn richer_graphs_split_between_host_and_isp() {
        // The truncated-cross scenario mixes heavy (hash, ngram) and
        // trivial (firstx) stages: a paper-scale batch should offload the
        // former and keep the latter on the host.
        let mut c = RmConfig::rm1();
        c.avg_sparse_len = 8;
        c.fixed_sparse_len = false;
        c.batch_size = 8192;
        let plan =
            PreprocessPlan::compile(PlanGraph::truncated_cross(&c, 3, 4, 2).unwrap(), &c).unwrap();
        let placement =
            place_stages(&plan, c.batch_size, &OpCostModel::analytic(&IspModel::smartssd()));
        let by_name = |prefix: &str| {
            placement.stages.iter().filter(|s| s.output.starts_with(prefix)).collect::<Vec<_>>()
        };
        assert!(by_name("sparse_").iter().all(|s| s.place == Place::Isp));
        assert!(by_name("cross_").iter().all(|s| s.place == Place::Isp));
        assert!(by_name("trunc_").iter().all(|s| s.place == Place::Host), "copies stay host-side");
        assert!(placement.offloaded() > 0);
        assert!(placement.offloaded() < placement.stages.len());
    }

    #[test]
    fn handoff_cost_keeps_marginal_offloads_host_side() {
        use presto_hwsim::units::BytesPerSec;
        // truncated-cross: trunc_ stages stay host (DRAM copies), their
        // consumers (sparse_ hash, cross_ ngram) offload — so those
        // consumers import their input across the fleet boundary.
        let mut c = RmConfig::rm1();
        c.avg_sparse_len = 8;
        c.fixed_sparse_len = false;
        c.batch_size = 8192;
        let plan =
            PreprocessPlan::compile(PlanGraph::truncated_cross(&c, 3, 4, 2).unwrap(), &c).unwrap();
        let fast = place_stages(&plan, 8192, &OpCostModel::analytic(&IspModel::smartssd()));
        let sparse = fast.stages.iter().find(|s| s.output.starts_with("sparse_")).unwrap();
        assert_eq!(sparse.place, Place::Isp);
        assert!(sparse.transfer > Secs::ZERO, "cross-fleet input is priced");
        assert!(sparse.placed() > sparse.isp.unwrap(), "placed cost includes the hand-off");
        let trunc = fast.stages.iter().find(|s| s.output.starts_with("trunc_")).unwrap();
        assert_eq!(trunc.transfer, Secs::ZERO, "raw inputs never pay the link");

        // Starve the boundary link: the same stage's ISP *compute* price is
        // unchanged and still below host, but the import now dominates —
        // the planner must keep it host-side.
        let slow_link = IspModel::smartssd().with_link_bandwidth(BytesPerSec::new(64.0 * 1024.0));
        let slow = place_stages(&plan, 8192, &OpCostModel::analytic(&slow_link));
        let sparse_slow = slow.stages.iter().find(|s| s.output.starts_with("sparse_")).unwrap();
        assert!(sparse_slow.isp.unwrap() < sparse_slow.host, "ISP compute still marginally wins");
        assert_eq!(sparse_slow.place, Place::Host, "hand-off dominates the margin");
        assert_eq!(sparse_slow.transfer, Secs::ZERO, "no crossing once co-placed");
        assert!(slow.offloaded() < fast.offloaded());
    }

    #[test]
    fn dense_cleanup_ops_are_priced_on_both_sides() {
        use presto_ops::graph::ChainSpec;
        let mut c = RmConfig::rm1();
        c.batch_size = 8192;
        let g = PlanGraph::new(vec![ChainSpec::feature(
            "clean_0",
            "dense_0",
            vec![Op::FillMissing(0.0), Op::Clamp { lo: 0.0, hi: 1.0e6 }, Op::LogNorm],
        )]);
        let plan = PreprocessPlan::compile(g, &c).unwrap();
        let model = OpCostModel::analytic(&IspModel::smartssd());
        assert!(model.host_ns_per_elem(OpTag::Clamp) > 0.0);
        assert!(model.isp_rate(OpTag::FillMissing) > 0.0);
        let placement = place_stages(&plan, 8192, &model);
        let stage = &placement.stages[0];
        assert!(stage.isp.is_some(), "cleanup chains are ISP-capable");
        assert!(stage.host > Secs::ZERO);
    }

    #[test]
    fn analytic_bucketize_price_scales_with_search_depth() {
        // RM5's m = 4096 boundaries need 12 search steps vs RM3's 10: the
        // analytic host price of a generated stage must scale accordingly.
        let rows = 4096;
        let model = OpCostModel::analytic(&IspModel::smartssd());
        let gen_cost = |config: &RmConfig| {
            let plan = PreprocessPlan::from_config(config, 1).unwrap();
            let placement = place_stages(&plan, rows, &model);
            placement.stages.iter().find(|s| s.output == "gen_0").unwrap().host.seconds()
        };
        let ratio = gen_cost(&RmConfig::rm5()) / gen_cost(&RmConfig::rm3());
        assert!((ratio - 12.0 / 10.0).abs() < 1e-6, "depth scaling ratio {ratio}");
        // Calibrated models measured the real depth already: no rescale.
        let mut measured = presto_ops::StageTimings::default();
        measured.ops.add(OpTag::Bucketize, std::time::Duration::from_millis(1), 1000);
        let calibrated = OpCostModel::calibrated(&measured, &IspModel::smartssd());
        let plan5 = PreprocessPlan::from_config(&RmConfig::rm5(), 1).unwrap();
        let placed = place_stages(&plan5, rows, &calibrated);
        let gen0 = placed.stages.iter().find(|s| s.output == "gen_0").unwrap();
        let expect = rows as f64 * 1000.0 * 1e-9; // measured 1000 ns/elem, as-is
        assert!((gen0.host.seconds() - expect).abs() < 1e-9);
    }

    #[test]
    fn multi_op_stages_pay_dispatch_overhead_once() {
        // A MapId → SigridHash chain offloads as one unit: its ISP price
        // includes exactly one kernel dispatch, not one per op.
        let mut c = RmConfig::rm1();
        c.batch_size = 16;
        let plan = PreprocessPlan::compile(PlanGraph::remapped(&c, 1, 64).unwrap(), &c).unwrap();
        let isp = IspModel::smartssd();
        let placement = place_stages(&plan, 16, &OpCostModel::analytic(&isp));
        let stage = placement.stages.iter().find(|s| s.output == "sparse_0").unwrap();
        assert!(stage.ops.contains('→'), "two-op chain: {}", stage.ops);
        let priced = stage.isp.unwrap().seconds();
        let overhead = isp.stage_overhead().seconds();
        assert!(priced >= overhead, "dispatch is charged");
        assert!(priced < 1.5 * overhead, "charged once, not per op: {priced} vs {overhead}");
    }

    #[test]
    fn u280_offloads_no_less_than_smartssd() {
        let (plan, rows) = rm1_plan(4096);
        let ssd = place_stages(&plan, rows, &OpCostModel::analytic(&IspModel::smartssd()));
        let u280 = place_stages(&plan, rows, &OpCostModel::analytic(&IspModel::u280_in_storage()));
        assert!(u280.offloaded() >= ssd.offloaded());
        assert!(u280.isp_total() <= ssd.isp_total());
    }
}
