//! End-to-end mapping flows: the baselines of Table I, the DCH comparison and
//! the MCH-based ASIC/FPGA flows.

use crate::budget::{plan_degradation, shrink_cut_limit, DegradationReport, DegradationStep};
use crate::error::panic_message;
use crate::prepared::{flow_fingerprint, ChoiceKey, PreparedFlow, PreparedFlowCache};
use crate::{validate_library, validate_lut_library, validate_network, FlowBudget, FlowError};
use crate::MchConfig;
use mch_choice::{
    add_snapshot_views, build_mch, build_mch_with_stats_shared, dch_from_snapshots,
    ChoiceNetwork, MchParams, SharedNpnCache,
};
use mch_cut::CutCost;
use mch_logic::{Network, NetworkKind, cec};
use mch_mapper::{
    map_asic, map_lut, AsicMapParams, CellNetlist, FusionMode, LutMapParams, LutNetlist,
    MappingObjective, DEFAULT_CUT_LIMIT,
};
use mch_opt::{compress2rs_like, compress_round, graph_map_all};
use mch_techlib::{Library, LutLibrary};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::Instant;

/// Runs a flow phase with panic containment: any unwind — from the calling
/// thread or rethrown from a fan-out helper — becomes
/// [`FlowError::WorkerPanic`] carrying the original payload message. Helpers
/// are joined before their fan-out returns and poisoned locks are taken
/// over, so a contained flow leaves the process ready for the next one.
pub(crate) fn contain<T>(f: impl FnOnce() -> T) -> Result<T, FlowError> {
    catch_unwind(AssertUnwindSafe(f)).map_err(|payload| FlowError::WorkerPanic {
        message: panic_message(payload.as_ref()),
    })
}

/// Unwraps a fallible flow for the panicking convenience API.
fn unwrap_flow<T>(result: Result<T, FlowError>) -> T {
    match result {
        Ok(value) => value,
        Err(e) => panic!("{e}"),
    }
}

/// The service-owned shared state an MCH flow may read: the output-invisible
/// NPN resynthesis cache and the warm-start [`PreparedFlowCache`].
/// `MappingService::run_flow` hands its own to the two MCH target bodies;
/// the public `try_*` MCH entry points pass [`FlowShared::default()`] — no
/// sharing, byte-identical results either way.
#[derive(Clone, Copy, Default)]
pub(crate) struct FlowShared<'a> {
    /// Service-wide NPN resynthesis cache (see [`build_mch_with_stats_shared`]).
    pub(crate) npn: Option<&'a Arc<SharedNpnCache>>,
    /// Service-wide warm-start cache of prepared flows.
    pub(crate) prepared: Option<&'a PreparedFlowCache>,
}

/// Obtains the [`PreparedFlow`] for `(network, post-degradation config)` —
/// from the warm-start cache when one is attached and holds a verified match,
/// built cold otherwise (and offered to the cache for future jobs). Cache
/// faults (injected via the `cache::prepared_hit` / `cache::prepared_insert`
/// failpoints) are contained inside the cache wrappers: the flow silently
/// degrades to the cold path.
fn obtain_prepared(
    network: &Network,
    config: &MchConfig,
    shared: FlowShared<'_>,
) -> Arc<PreparedFlow> {
    let key = ChoiceKey::from_config(config);
    let fingerprint = flow_fingerprint(network, &key);
    let cache = shared.prepared;
    if let Some(flow) = cache.and_then(|c| c.lookup_contained(fingerprint, network, &key)) {
        return flow;
    }
    let flow = Arc::new(PreparedFlow::build(network, config, key, fingerprint, shared.npn));
    if let Some(cache) = cache {
        cache.insert_contained(Arc::clone(&flow));
    }
    flow
}

/// Builds the mixed choice network for an MCH flow: the per-node candidates of
/// Algorithm 2, optionally augmented with whole graph-mapped views of the
/// design (the input's own representation, then one per secondary
/// representation).
///
/// The views come from one 4-LUT cover of the input ([`graph_map_all`]) and
/// are linked in one sweep ([`add_snapshot_views`]). Like
/// [`build_mch_with_stats_shared`], both run serially on the calling thread:
/// nothing here reads `config.threads`.
pub(crate) fn build_flow_choices(
    network: &Network,
    config: &MchConfig,
    shared_npn: Option<&Arc<SharedNpnCache>>,
) -> ChoiceNetwork {
    let (mut choices, _) = build_mch_with_stats_shared(network, &config.mch, shared_npn);
    if config.mix_optimized_snapshots {
        // A restructured view in the input's own representation (this is still
        // "based solely on the input AIG" for the balanced flow), plus one
        // graph-mapped view per secondary representation.
        let kinds: Vec<NetworkKind> = std::iter::once(network.kind())
            .chain(config.mch.secondary.iter().copied())
            .collect();
        add_snapshot_views(&mut choices, &graph_map_all(network, &kinds, config.objective));
    }
    choices
}

/// Result of an ASIC mapping flow.
#[derive(Clone, Debug)]
pub struct AsicFlowResult {
    /// Name of the flow that produced this result.
    pub flow: String,
    /// The mapped standard-cell netlist.
    pub netlist: CellNetlist,
    /// Total cell area (µm²).
    pub area: f64,
    /// Critical-path delay (ps).
    pub delay: f64,
    /// Flow runtime in seconds (choice construction + mapping).
    pub seconds: f64,
    /// Whether the mapped netlist was verified equivalent to the input.
    pub verified: bool,
    /// What the budget supervisor shed to stay inside the [`FlowBudget`];
    /// empty (not degraded) for unbudgeted and unbreached flows.
    pub degradation: DegradationReport,
}

/// Result of an FPGA (K-LUT) mapping flow.
#[derive(Clone, Debug)]
pub struct LutFlowResult {
    /// Name of the flow that produced this result.
    pub flow: String,
    /// The mapped LUT netlist.
    pub netlist: LutNetlist,
    /// Number of LUTs.
    pub luts: usize,
    /// Number of LUT levels.
    pub levels: u32,
    /// Flow runtime in seconds.
    pub seconds: f64,
    /// Whether the mapped netlist was verified equivalent to the input.
    pub verified: bool,
    /// What the budget supervisor shed to stay inside the [`FlowBudget`];
    /// empty (not degraded) for unbudgeted and unbreached flows.
    pub degradation: DegradationReport,
}

fn finish_asic(
    flow: impl Into<String>,
    input: &Network,
    netlist: CellNetlist,
    library: &Library,
    start: Instant,
    degradation: DegradationReport,
) -> AsicFlowResult {
    let seconds = start.elapsed().as_secs_f64();
    let verified = cec(input, &netlist.to_network(library)).holds();
    AsicFlowResult {
        flow: flow.into(),
        area: netlist.area(library),
        delay: netlist.delay(library),
        netlist,
        seconds,
        verified,
        degradation,
    }
}

fn finish_lut(
    flow: impl Into<String>,
    input: &Network,
    netlist: LutNetlist,
    start: Instant,
    degradation: DegradationReport,
) -> LutFlowResult {
    let seconds = start.elapsed().as_secs_f64();
    let verified = cec(input, &netlist.to_network()).holds();
    LutFlowResult {
        flow: flow.into(),
        luts: netlist.lut_count(),
        levels: netlist.level_count(),
        netlist,
        seconds,
        verified,
        degradation,
    }
}

/// Baseline ASIC flow: map the input network directly (no structural choices),
/// the stand-in for ABC's `&nf` (balanced/delay) and `map -a` (area) columns.
///
/// Panics on invalid inputs; use [`try_asic_flow_baseline`] to get a
/// structured [`FlowError`] instead.
pub fn asic_flow_baseline(
    network: &Network,
    library: &Library,
    objective: MappingObjective,
) -> AsicFlowResult {
    unwrap_flow(try_asic_flow_baseline(network, library, objective))
}

/// Fallible [`asic_flow_baseline`]: validates the inputs up front and
/// contains any phase panic as [`FlowError::WorkerPanic`].
pub fn try_asic_flow_baseline(
    network: &Network,
    library: &Library,
    objective: MappingObjective,
) -> Result<AsicFlowResult, FlowError> {
    validate_network(network)?;
    validate_library(library)?;
    contain(|| {
        let start = Instant::now();
        let netlist = map_asic(
            &ChoiceNetwork::from_network(network),
            library,
            &AsicMapParams::new(objective),
        );
        let name = match objective {
            MappingObjective::Area => "baseline map -a",
            MappingObjective::Delay => "baseline &nf (delay)",
            MappingObjective::Balanced => "baseline &nf",
        };
        finish_asic(name, network, netlist, library, start, DegradationReport::default())
    })
}

/// DCH ASIC flow: structural choices from technology-independent optimization
/// snapshots (the `&dch -m; &nf` / `dch; map -a` columns of Table I).
///
/// Panics on invalid inputs; use [`try_asic_flow_dch`] to get a structured
/// [`FlowError`] instead.
pub fn asic_flow_dch(
    network: &Network,
    library: &Library,
    objective: MappingObjective,
) -> AsicFlowResult {
    unwrap_flow(try_asic_flow_dch(network, library, objective))
}

/// Fallible [`asic_flow_dch`]: validates the inputs up front and contains any
/// phase panic as [`FlowError::WorkerPanic`].
pub fn try_asic_flow_dch(
    network: &Network,
    library: &Library,
    objective: MappingObjective,
) -> Result<AsicFlowResult, FlowError> {
    validate_network(network)?;
    validate_library(library)?;
    contain(|| {
        let start = Instant::now();
        let snap1 = compress_round(network);
        let snap2 = compress2rs_like(&snap1, 2);
        let choices = dch_from_snapshots(network, &[snap1, snap2]);
        let netlist = map_asic(&choices, library, &AsicMapParams::new(objective));
        finish_asic("DCH", network, netlist, library, start, DegradationReport::default())
    })
}

/// An MCH flow after the degradation ladder: the post-degradation config
/// with every mapper knob the ladder shed applied, the cut limit the mapper
/// runs at, and the prepared choice network.
struct Degraded {
    start: Instant,
    config: MchConfig,
    cut_limit: usize,
    report: DegradationReport,
    prepared: Arc<PreparedFlow>,
}

/// The degradation ladder of every MCH flow, in its fixed order:
///
/// 1. the size-based rungs of `plan_degradation` on the input network;
/// 2. the prepared choice network (warm from `shared` or built cold);
/// 3. the mapper cut limit, halved against the choice network's size (it is
///    deterministically sized, so this re-check is as reproducible as the
///    first);
/// 4. guided flows only: fusion is dropped when the guide pass's second cut
///    arena, of the same predicted size as the LUT one, cannot fit the slot
///    cap — the unguided LUT cover is always a complete, valid result;
/// 5. the deadline: when choice construction alone used it up, a guided
///    flow drops fusion first (the guide pass is pure extra work), then the
///    mapper falls back to structural cut ranking with zero area-recovery
///    rounds and no exact-area pass — the cheapest valid mapping.
///
/// An unguided flow runs with fusion off whatever `config.fusion` says.
fn degrade(
    network: &Network,
    config: &MchConfig,
    budget: &FlowBudget,
    shared: FlowShared<'_>,
    guided: bool,
) -> Degraded {
    let start = Instant::now();
    let (mut config, mut report) =
        plan_degradation(network.len(), network.gate_count(), config, budget);
    let prepared = obtain_prepared(network, &config, shared);
    let nodes = prepared.choices().network().len();
    let cap = budget.max_cut_arena_slots;
    let cut_limit = shrink_cut_limit(nodes, DEFAULT_CUT_LIMIT, cap, &mut report);
    if !guided {
        config.fusion = FusionMode::Off;
    }
    let both_arenas = nodes.saturating_mul(cut_limit).saturating_mul(2);
    if config.fusion.is_enabled() && cap.is_some_and(|cap| both_arenas > cap) {
        config.fusion = FusionMode::Off;
        report.steps.push(DegradationStep::FusionDropped);
    }
    if budget.deadline.is_some_and(|deadline| start.elapsed() >= deadline) {
        report.deadline_breached = true;
        if config.fusion.is_enabled() {
            config.fusion = FusionMode::Off;
            report.steps.push(DegradationStep::FusionDropped);
        }
        report.steps.push(DegradationStep::DeadlineFallback);
        config.cut_ranking = CutCost::Structural;
        config.area_rounds = Some(0);
        config.exact_area = false;
    }
    Degraded {
        start,
        config,
        cut_limit,
        report,
        prepared,
    }
}

/// The MCH ASIC flow over the service-owned shared state ([`FlowShared`]):
/// the body of [`try_asic_flow_mch_with_budget`] and of every
/// [`JobKind::AsicMch`](crate::JobKind::AsicMch) service job.
pub(crate) fn asic_flow_mch_shared(
    network: &Network,
    library: &Library,
    config: &MchConfig,
    budget: &FlowBudget,
    shared: FlowShared<'_>,
) -> Result<AsicFlowResult, FlowError> {
    validate_network(network)?;
    validate_library(library)?;
    contain(|| {
        let run = degrade(network, config, budget, shared, false);
        let config = &run.config;
        let mut params = AsicMapParams::new(config.objective)
            .with_ranking(config.cut_ranking)
            .with_threads(config.threads)
            .with_exact_area(config.exact_area);
        if let Some(rounds) = config.area_rounds {
            params = params.with_area_rounds(rounds);
        }
        params.cut_limit = run.cut_limit;
        let netlist = run.prepared.map_asic(library, &params);
        finish_asic(config.name.clone(), network, netlist, library, run.start, run.report)
    })
}

/// The MCH K-LUT flow over the service-owned shared state: the body of
/// [`try_lut_flow_mch_with_budget`] (no `guide`), of [`try_lut_flow_mch_fused`]
/// (`guide` is the cell library of the ASIC guide cover) and of the LUT
/// service jobs.
pub(crate) fn lut_flow_mch_shared(
    network: &Network,
    lut: &LutLibrary,
    guide: Option<&Library>,
    config: &MchConfig,
    budget: &FlowBudget,
    shared: FlowShared<'_>,
) -> Result<LutFlowResult, FlowError> {
    validate_network(network)?;
    validate_lut_library(lut)?;
    if let Some(library) = guide {
        validate_library(library)?;
    }
    contain(|| {
        let run = degrade(network, config, budget, shared, guide.is_some());
        let config = &run.config;
        let mut params = LutMapParams::new(config.objective)
            .with_ranking(config.cut_ranking)
            .with_threads(config.threads)
            .with_exact_area(config.exact_area)
            .with_fusion(config.fusion);
        if let Some(rounds) = config.area_rounds {
            params = params.with_area_rounds(rounds);
        }
        params.cut_limit = run.cut_limit;
        let netlist = run.prepared.map_lut(lut, guide, &params);
        finish_lut(config.name.clone(), network, netlist, run.start, run.report)
    })
}

/// MCH ASIC flow: mixed structural choices evaluated by the choice-aware
/// mapper (the "MCH balanced / Delay-oriented / Area-oriented" columns).
///
/// The configured [`MchConfig::cut_ranking`] decides which cuts survive the
/// per-node cut limit before the mapper's dynamic programming runs.
///
/// Panics on invalid inputs; use [`try_asic_flow_mch`] to get a structured
/// [`FlowError`] instead.
pub fn asic_flow_mch(
    network: &Network,
    library: &Library,
    config: &MchConfig,
) -> AsicFlowResult {
    unwrap_flow(try_asic_flow_mch(network, library, config))
}

/// Fallible [`asic_flow_mch`]: validates the inputs up front and contains any
/// phase panic as [`FlowError::WorkerPanic`].
pub fn try_asic_flow_mch(
    network: &Network,
    library: &Library,
    config: &MchConfig,
) -> Result<AsicFlowResult, FlowError> {
    try_asic_flow_mch_with_budget(network, library, config, &FlowBudget::unlimited())
}

/// [`try_asic_flow_mch`] under a [`FlowBudget`]: on breach the flow degrades
/// down the deterministic ladder (recorded in the result's
/// [`DegradationReport`]) instead of exhausting the machine — the output is
/// still a complete, equivalence-checked netlist.
pub fn try_asic_flow_mch_with_budget(
    network: &Network,
    library: &Library,
    config: &MchConfig,
    budget: &FlowBudget,
) -> Result<AsicFlowResult, FlowError> {
    asic_flow_mch_shared(network, library, config, budget, FlowShared::default())
}

/// Baseline FPGA flow: plain K-LUT mapping of the input network.
///
/// Panics on invalid inputs; use [`try_lut_flow_baseline`] to get a
/// structured [`FlowError`] instead.
pub fn lut_flow_baseline(
    network: &Network,
    lut: &LutLibrary,
    objective: MappingObjective,
) -> LutFlowResult {
    unwrap_flow(try_lut_flow_baseline(network, lut, objective))
}

/// Fallible [`lut_flow_baseline`]: validates the inputs up front and contains
/// any phase panic as [`FlowError::WorkerPanic`].
pub fn try_lut_flow_baseline(
    network: &Network,
    lut: &LutLibrary,
    objective: MappingObjective,
) -> Result<LutFlowResult, FlowError> {
    validate_network(network)?;
    validate_lut_library(lut)?;
    contain(|| {
        let start = Instant::now();
        let netlist = map_lut(
            &ChoiceNetwork::from_network(network),
            lut,
            &LutMapParams::new(objective),
        );
        finish_lut("baseline if", network, netlist, start, DegradationReport::default())
    })
}

/// Fused MCH FPGA flow: [`lut_flow_mch`] with ASIC-guided cross-mapper fusion
/// (see [`mch_mapper::fusion`]) — `library` drives the ASIC guide cover, an
/// ordinary ASIC cover whose selected cones are injected into / bias the LUT
/// cover per [`MchConfig::fusion`]. With [`FusionMode::Off`] (every preset
/// except [`MchConfig::lut_fusion`]) the output is byte-identical to
/// [`lut_flow_mch`].
///
/// Validates all three inputs up front (network, LUT library, cell library)
/// and contains any phase panic as [`FlowError::WorkerPanic`]. A budgeted
/// fused flow runs as a service job, `Job::lut_fused(..).with_budget(..)`:
/// beyond the ladder of the other MCH flows, fusion itself is a rung
/// ([`DegradationStep::FusionDropped`]).
pub fn try_lut_flow_mch_fused(
    network: &Network,
    lut: &LutLibrary,
    library: &Library,
    config: &MchConfig,
) -> Result<LutFlowResult, FlowError> {
    let unlimited = FlowBudget::unlimited();
    lut_flow_mch_shared(network, lut, Some(library), config, &unlimited, FlowShared::default())
}

/// MCH FPGA flow: K-LUT mapping over a mixed choice network (the Table-II
/// configuration: AIG + XMG, area-focused, no other optimization).
///
/// The configured [`MchConfig::cut_ranking`] decides which cuts survive the
/// per-node cut limit before the mapper's dynamic programming runs.
///
/// Panics on invalid inputs; use [`try_lut_flow_mch`] to get a structured
/// [`FlowError`] instead.
pub fn lut_flow_mch(network: &Network, lut: &LutLibrary, config: &MchConfig) -> LutFlowResult {
    unwrap_flow(try_lut_flow_mch(network, lut, config))
}

/// Fallible [`lut_flow_mch`]: validates the inputs up front and contains any
/// phase panic as [`FlowError::WorkerPanic`].
pub fn try_lut_flow_mch(
    network: &Network,
    lut: &LutLibrary,
    config: &MchConfig,
) -> Result<LutFlowResult, FlowError> {
    try_lut_flow_mch_with_budget(network, lut, config, &FlowBudget::unlimited())
}

/// [`try_lut_flow_mch`] under a [`FlowBudget`] (see
/// [`try_asic_flow_mch_with_budget`]).
pub fn try_lut_flow_mch_with_budget(
    network: &Network,
    lut: &LutLibrary,
    config: &MchConfig,
    budget: &FlowBudget,
) -> Result<LutFlowResult, FlowError> {
    lut_flow_mch_shared(network, lut, None, config, budget, FlowShared::default())
}

/// Fallible [`build_mch`](mch_choice::build_mch): validates the network up
/// front and contains any panic from choice construction (which runs on the
/// calling thread) as [`FlowError::WorkerPanic`].
pub fn try_build_mch(
    network: &Network,
    params: &MchParams,
) -> Result<ChoiceNetwork, FlowError> {
    validate_network(network)?;
    contain(|| build_mch(network, params))
}

/// Applies the `compress2rs`-like pre-optimization the paper uses to prepare
/// the Table-I inputs.
pub fn prepare_input(network: &Network, rounds: usize) -> Network {
    if rounds == 0 {
        network.clone()
    } else {
        compress2rs_like(network, rounds)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mch_benchmarks::demo_adder_gt;
    use mch_logic::{Network, NetworkKind};
    use mch_techlib::asap7_lite;

    fn small_circuit() -> Network {
        let mut n = Network::with_name(NetworkKind::Aig, "flow-test");
        let a = n.add_inputs(3);
        let b = n.add_inputs(3);
        let zero = n.constant(false);
        let (sum, carry) = mch_benchmarks::words::ripple_add(&mut n, &a, &b, zero);
        for s in sum {
            n.add_output(s);
        }
        n.add_output(carry);
        n
    }

    #[test]
    fn all_asic_flows_verify() {
        let net = small_circuit();
        let lib = asap7_lite();
        let flows = [
            asic_flow_baseline(&net, &lib, MappingObjective::Balanced),
            asic_flow_baseline(&net, &lib, MappingObjective::Area),
            asic_flow_dch(&net, &lib, MappingObjective::Balanced),
            asic_flow_mch(&net, &lib, &MchConfig::balanced()),
            asic_flow_mch(&net, &lib, &MchConfig::delay_oriented()),
            asic_flow_mch(&net, &lib, &MchConfig::area_oriented()),
        ];
        for f in &flows {
            assert!(f.verified, "{} did not verify", f.flow);
            assert!(f.area > 0.0);
            assert!(f.delay > 0.0);
        }
    }

    #[test]
    fn lut_flows_verify_and_report_counts() {
        let net = demo_adder_gt();
        let lut = LutLibrary::k6();
        let base = lut_flow_baseline(&net, &lut, MappingObjective::Area);
        let mch = lut_flow_mch(&net, &lut, &MchConfig::lut_area());
        assert!(base.verified && mch.verified);
        assert!(base.luts >= 1 && mch.luts >= 1);
        assert!(mch.luts <= base.luts, "MCH should not need more LUTs on the demo");
    }

    #[test]
    fn area_rounds_and_exact_area_flow_through_the_config() {
        let net = small_circuit();
        let lib = asap7_lite();
        let lut = LutLibrary::k6();
        let cfg = MchConfig::area_oriented()
            .with_area_rounds(6)
            .with_exact_area(true);
        let asic = asic_flow_mch(&net, &lib, &cfg);
        assert!(asic.verified, "exact-area ASIC flow failed verification");
        let lut_cfg = MchConfig::lut_area().with_area_rounds(6).with_exact_area(true);
        let fpga = lut_flow_mch(&net, &lut, &lut_cfg);
        assert!(fpga.verified, "exact-area LUT flow failed verification");
        // More recovery rounds plus the exact pass must not grow the cover
        // beyond the default flow's.
        let default_fpga = lut_flow_mch(&net, &lut, &MchConfig::lut_area());
        assert!(fpga.luts <= default_fpga.luts);
    }

    #[test]
    fn fused_lut_flow_verifies_and_off_mode_matches_plain() {
        let net = small_circuit();
        let lut = LutLibrary::k6();
        let lib = asap7_lite();
        // Fusion off: the fused entry point is byte-identical to the plain
        // flow (the guide pass never runs).
        let plain = lut_flow_mch(&net, &lut, &MchConfig::lut_area());
        let off = unwrap_flow(try_lut_flow_mch_fused(&net, &lut, &lib, &MchConfig::lut_area()));
        assert_eq!(plain.netlist, off.netlist);
        // Fusion on: still a verified cover, whatever the mode.
        for mode in [FusionMode::Bias, FusionMode::Inject, FusionMode::Full] {
            let config = MchConfig::lut_fusion().with_fusion(mode);
            let fused = unwrap_flow(try_lut_flow_mch_fused(&net, &lut, &lib, &config));
            assert!(fused.verified, "{mode:?} flow failed verification");
            assert!(fused.luts >= 1);
            assert!(!fused.degradation.degraded());
        }
    }

    #[test]
    fn fusion_is_dropped_when_the_guide_arena_cannot_fit() {
        let net = small_circuit();
        let lut = LutLibrary::k6();
        let lib = asap7_lite();
        // A cap that admits the LUT arena at the cut-limit floor but not a
        // second guide arena: the FusionDropped rung fires, the flow still
        // completes and verifies, and the output matches the unfused flow
        // under the same budget.
        let budget = FlowBudget::unlimited().with_max_cut_arena_slots(400);
        let fused = unwrap_flow(lut_flow_mch_shared(
            &net,
            &lut,
            Some(&lib),
            &MchConfig::lut_fusion(),
            &budget,
            FlowShared::default(),
        ));
        assert!(fused.verified);
        assert!(
            fused
                .degradation
                .steps
                .contains(&DegradationStep::FusionDropped),
            "expected FusionDropped, got {:?}",
            fused.degradation.steps
        );
        let plain = unwrap_flow(try_lut_flow_mch_with_budget(
            &net,
            &lut,
            &MchConfig::lut_fusion(),
            &budget,
        ));
        assert_eq!(plain.netlist, fused.netlist);
    }

    #[test]
    fn prepare_input_respects_round_count() {
        let net = small_circuit();
        let unchanged = prepare_input(&net, 0);
        assert_eq!(unchanged.gate_count(), net.gate_count());
        let optimized = prepare_input(&net, 2);
        assert!(optimized.gate_count() <= net.gate_count());
        assert!(cec(&net, &optimized).holds());
    }
}
