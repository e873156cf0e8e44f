//! The flows rebuilt from their layer calls, in flow order.
//!
//! Each function mirrors one flow body of `mch_core` (`crates/core/src/flow.rs`
//! and the `PreparedFlow` it builds in `crates/core/src/prepared.rs`) for an
//! unbudgeted call: no degradation step applies and every cut limit stays as
//! configured. The traced run compares every netlist built here for equality
//! with the one the real flow returned, so a drift between this file and the
//! program aborts the run instead of timing a different program.

use crate::layers::{self, Recorder};
use mch_core::choice::{ChoiceNetwork, MchStats, SharedNpnCache};
use mch_core::logic::{Equivalence, Network, NetworkKind};
use mch_core::mapper::{
    AsicMapParams, CellNetlist, LutCandidate, LutMapParams, LutNetlist, MatchCandidate,
    PreparedCover,
};
use mch_core::techlib::{Library, LutLibrary};
use mch_core::MchConfig;
use std::sync::Arc;

/// The deterministic counters of one replayed flow.
#[derive(Clone, Copy, Default)]
pub struct Facts {
    pub stats: MchStats,
    pub links: usize,
    pub cuts: usize,
    pub cut_bytes: usize,
    pub candidate_bytes: usize,
    pub verdict: Option<Equivalence>,
}

impl Facts {
    fn add_cover<C>(&mut self, prep: &PreparedCover<C>, candidate_bytes: impl Fn(&C) -> usize) {
        let arena = prep.cuts().approx_bytes();
        self.cuts += prep.cuts().total_cuts();
        self.cut_bytes += arena;
        self.candidate_bytes += prep.approx_bytes(candidate_bytes) - arena;
    }
}

/// Choice construction as `build_flow_choices` does it: Algorithm 1, then
/// one graph-mapped view per representation linked in order.
fn choices(
    rec: &mut Recorder,
    net: &Network,
    config: &MchConfig,
    npn: Option<&Arc<SharedNpnCache>>,
    facts: &mut Facts,
) -> ChoiceNetwork {
    let mut params = config.mch.clone();
    params.threads = config.threads;
    let (mut choices, stats) = layers::build_choices(rec, net, &params, npn);
    facts.stats = stats;
    if config.mix_optimized_snapshots {
        let kinds: Vec<NetworkKind> = std::iter::once(net.kind())
            .chain(config.mch.secondary.iter().copied())
            .collect();
        for view in layers::graph_map_views(rec, net, &kinds, config.objective, config.threads) {
            facts.links += layers::link(rec, &mut choices, &view);
        }
    }
    choices
}

fn lut_params(config: &MchConfig) -> LutMapParams {
    let params = LutMapParams::new(config.objective)
        .with_ranking(config.cut_ranking)
        .with_threads(config.threads)
        .with_exact_area(config.exact_area)
        .with_fusion(config.fusion);
    match config.area_rounds {
        Some(rounds) => params.with_area_rounds(rounds),
        None => params,
    }
}

fn asic_params(config: &MchConfig) -> AsicMapParams {
    let params = AsicMapParams::new(config.objective)
        .with_ranking(config.cut_ranking)
        .with_threads(config.threads)
        .with_exact_area(config.exact_area);
    match config.area_rounds {
        Some(rounds) => params.with_area_rounds(rounds),
        None => params,
    }
}

/// `try_lut_flow_mch`, cold.
pub fn lut(
    rec: &mut Recorder,
    net: &Network,
    lut: &LutLibrary,
    config: &MchConfig,
) -> (LutNetlist, Facts) {
    let mut facts = Facts::default();
    layers::fingerprint(rec, net);
    let choices = choices(rec, net, config, None, &mut facts);
    let params = lut_params(config);
    let prep = layers::prepare_lut(rec, &choices, lut, &params);
    facts.add_cover(&prep, LutCandidate::approx_bytes);
    let netlist = layers::cover_lut(rec, &choices, lut, &prep, &params);
    facts.verdict = Some(layers::cec_lut(rec, net, &netlist));
    (netlist, facts)
}

/// `try_asic_flow_mch`, cold.
pub fn asic(
    rec: &mut Recorder,
    net: &Network,
    library: &Library,
    config: &MchConfig,
) -> (CellNetlist, Facts) {
    let mut facts = Facts::default();
    layers::fingerprint(rec, net);
    let choices = choices(rec, net, config, None, &mut facts);
    let params = asic_params(config);
    let prep = layers::prepare_asic(rec, &choices, library, &params);
    facts.add_cover(&prep, MatchCandidate::approx_bytes);
    let netlist = layers::cover_asic(rec, &choices, library, &prep, &params);
    facts.verdict = Some(layers::cec_asic(rec, net, &netlist, library));
    (netlist, facts)
}

/// What a warm fused LUT flow reuses: the choice network and the two
/// prepared covers its variants share.
pub struct Prepared {
    choices: ChoiceNetwork,
    lut: PreparedCover<LutCandidate>,
    guide: PreparedCover<MatchCandidate>,
}

/// The cold half of a fused LUT sweep over one circuit: what the first
/// plain and the first fused variant build into the service's cache, over
/// the service's shared NPN store `npn`. `config` is any fused variant
/// (they share cut limit and objective).
pub fn fused_setup(
    rec: &mut Recorder,
    net: &Network,
    lut: &LutLibrary,
    library: &Library,
    config: &MchConfig,
    npn: &Arc<SharedNpnCache>,
) -> (Prepared, Facts) {
    let mut facts = Facts::default();
    layers::fingerprint(rec, net);
    let choices = choices(rec, net, config, Some(npn), &mut facts);
    let params = lut_params(config);
    let lut_prep = layers::prepare_lut(rec, &choices, lut, &params);
    facts.add_cover(&lut_prep, LutCandidate::approx_bytes);
    let guide = layers::prepare_guide(rec, &choices, library, &params);
    facts.add_cover(&guide, MatchCandidate::approx_bytes);
    (
        Prepared {
            choices,
            lut: lut_prep,
            guide,
        },
        facts,
    )
}

/// One warm variant of `try_lut_flow_mch_fused` over prepared state: the
/// cache index, the cover and the closing check.
pub fn fused_warm(
    rec: &mut Recorder,
    net: &Network,
    prepared: &Prepared,
    lut: &LutLibrary,
    library: &Library,
    config: &MchConfig,
) -> (LutNetlist, Equivalence) {
    layers::fingerprint(rec, net);
    let params = lut_params(config);
    let netlist = if params.fusion.is_enabled() {
        layers::cover_fused(
            rec,
            &prepared.choices,
            lut,
            library,
            &params,
            &prepared.lut,
            &prepared.guide,
        )
    } else {
        layers::cover_lut(rec, &prepared.choices, lut, &prepared.lut, &params)
    };
    let verdict = layers::cec_lut(rec, net, &netlist);
    (netlist, verdict)
}
