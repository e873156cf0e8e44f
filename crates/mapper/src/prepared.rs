//! Prepared cover state: the params-independent half of a mapping run, built
//! once and solved under one or many parameter variants.
//!
//! Both mappers split into two phases with very different reuse profiles:
//!
//! 1. **Preparation** — cut enumeration + choice transfer + candidate
//!    enumeration (Boolean matching for ASIC targets). Expensive, and a pure
//!    function of `(choice network, cut configuration, library)` — no
//!    [`EngineParams`](crate::engine::EngineParams) knob reaches it.
//! 2. **Solving** — the covering dynamic program. Cheap by comparison, and
//!    the only phase that sees `area_rounds`, `exact_area`, objectives or
//!    memoisation.
//!
//! A [`PreparedCover`] captures phase 1 — the [`CoverSkeleton`] built from
//! the representatives' cut lists; the cut lists themselves are dropped once
//! the skeleton is built, since no solve, fusion harvest or emitter reads a
//! cut. [`prepare_lut_cover`] and [`prepare_asic_cover`] are the only places
//! cuts are prepared for a cover. A parameter sweep prepares once and solves
//! per variant via [`map_lut_prepared`] / [`map_asic_prepared`] (and
//! [`crate::fusion::map_lut_fused_prepared`]); the one-shot mappers are the
//! same calls over a cover they prepare themselves. Every solve borrows the
//! skeleton and never writes to it (see [`CoverProblem::new`]): the fusion
//! pipeline's injected candidates and bonuses live in the problem's own
//! overlay. Every prepared solve is therefore **byte-identical** to the
//! one-shot call; `tests/service_warm_start.rs` in `mch_core` pins this end
//! to end.

use crate::asic::{library_cost_model, AsicMapParams, AsicTarget, MatchCandidate};
use crate::engine::{CoverProblem, CoverSkeleton};
use crate::fusion::{AsicCone, ConeKey};
use crate::lut::{LutCandidate, LutMapParams, LutTarget};
use crate::mapping::prepare_cuts;
use crate::netlist::{CellNetlist, LutNetlist};
use mch_choice::ChoiceNetwork;
use mch_cut::{CutCostModel, NetworkCuts};
use mch_techlib::{Library, LutLibrary};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock, PoisonError};

/// The params-independent artifact of one mapper over one choice network:
/// the candidate skeleton enumerated from the representatives' cut lists.
///
/// No cut list is kept: [`CoverSkeleton::build`] reads the cuts of original
/// gates alone, and nothing reads a cut after it.
///
/// Build via [`prepare_lut_cover`] / [`prepare_asic_cover`] /
/// [`crate::fusion::prepare_fusion_guide`]; solve any number of times via the
/// matching `map_*_prepared` entry point. The skeleton depends on the cut
/// set, the library and nothing else, so one `PreparedCover` serves every
/// combination of objective, `area_rounds`, `exact_area` and `memoise`.
///
/// A cover used as a fusion guide also memoises the cones its guide solve
/// harvests, one entry per `(LUT K, guide engine parameters)` — everything
/// the harvest reads besides the cover itself — so every fused variant after
/// the first reuses them (see [`crate::fusion::map_lut_fused_prepared`]).
/// Every other cover's memo stays empty.
pub struct PreparedCover<C> {
    pub(crate) skeleton: CoverSkeleton<C>,
    /// Taken only by flow coordinators, never by fan-out helpers, so holding
    /// it across a harvest cannot deadlock. An entry is pushed only after
    /// its harvest returned: a panic inside one leaves the memo as it was.
    cones: Mutex<Vec<(ConeKey, Arc<[AsicCone]>)>>,
}

impl<C> PreparedCover<C> {
    fn new(skeleton: CoverSkeleton<C>) -> Self {
        PreparedCover {
            skeleton,
            cones: Mutex::default(),
        }
    }

    /// The harvested-cone memo, recovered if a panicking harvest poisoned
    /// it (it never holds a partial entry).
    pub(crate) fn cone_memo(&self) -> MutexGuard<'_, Vec<(ConeKey, Arc<[AsicCone]>)>> {
        self.cones.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// The cut lists the cover keeps: always the empty set, since a cover
    /// keeps none. Retained for callers that still count a cover's cuts
    /// (the repo benchmark's `mapper.cuts` / `mapper.cut_mb`, which read 0).
    pub fn cuts(&self) -> &NetworkCuts {
        static NONE: OnceLock<NetworkCuts> = OnceLock::new();
        NONE.get_or_init(NetworkCuts::default)
    }

    /// The candidate skeleton (see [`CoverSkeleton`]).
    pub fn skeleton(&self) -> &CoverSkeleton<C> {
        &self.skeleton
    }

    /// Approximate heap footprint in bytes; `candidate_bytes` supplies the
    /// per-candidate estimate (see [`LutCandidate::approx_bytes`] /
    /// [`MatchCandidate::approx_bytes`]). Used by the warm-start cache's
    /// byte accounting in `mch_core`. Counts the harvested-cone memo.
    pub fn approx_bytes(&self, candidate_bytes: impl Fn(&C) -> usize) -> usize {
        let cone_bytes: usize = self
            .cone_memo()
            .iter()
            .flat_map(|(_, cones)| cones.iter().map(AsicCone::approx_bytes))
            .sum();
        self.skeleton.approx_bytes(candidate_bytes) + cone_bytes
    }
}

/// Runs the preparation phase of [`map_lut`](crate::map_lut): cut enumeration
/// with the unit cost model (exact for LUTs: one level, one LUT per cut),
/// choice transfer, and K-LUT candidate enumeration from the
/// representatives' cut lists, which are dropped afterwards.
///
/// Of `params`, only `cut_limit`, `cut_ranking` and `threads` reach this
/// phase — and `threads` never changes the result (enumeration is
/// thread-invariant), so a cache key over the artifact needs only the first
/// two plus the LUT library.
pub fn prepare_lut_cover(
    choice: &ChoiceNetwork,
    lut: &LutLibrary,
    params: &LutMapParams,
) -> PreparedCover<LutCandidate> {
    let cuts = prepare_cuts(
        choice,
        lut.k(),
        params.cut_limit,
        params.cut_ranking,
        &CutCostModel::unit(),
        params.threads,
    );
    let target = LutTarget::new(lut);
    PreparedCover::new(CoverSkeleton::build(choice, &target, &cuts))
}

/// The solving phase of [`map_lut`](crate::map_lut) over a prepared cover.
///
/// Byte-identical to `map_lut(choice, lut, params)` whenever `prep` came from
/// [`prepare_lut_cover`] over the same choice network, LUT library and
/// cut configuration (`cut_limit`, `cut_ranking`).
pub fn map_lut_prepared(
    choice: &ChoiceNetwork,
    lut: &LutLibrary,
    prep: &PreparedCover<LutCandidate>,
    params: &LutMapParams,
) -> LutNetlist {
    let target = LutTarget::new(lut);
    let problem = CoverProblem::new(choice, &target, &prep.skeleton);
    problem.solve(&params.engine_params())
}

/// Runs the preparation phase of [`map_asic`](crate::map_asic): cut
/// enumeration with the [`library_cost_model`] ranking, choice transfer, and
/// Boolean matching of the representatives' cuts against the library; the
/// cut lists are dropped afterwards.
///
/// Of `params`, only `cut_limit`, `cut_ranking` and `threads` reach this
/// phase; `threads` never changes the result, so a cache key needs only the
/// first two plus the cell library.
pub fn prepare_asic_cover(
    choice: &ChoiceNetwork,
    library: &Library,
    params: &AsicMapParams,
) -> PreparedCover<MatchCandidate> {
    let cut_size = library.max_inputs().clamp(3, 6);
    let cuts = prepare_cuts(
        choice,
        cut_size,
        params.cut_limit,
        params.cut_ranking,
        &library_cost_model(library),
        params.threads,
    );
    let target = AsicTarget::new(library);
    PreparedCover::new(CoverSkeleton::build(choice, &target, &cuts))
}

/// The solving phase of [`map_asic`](crate::map_asic) over a prepared cover.
///
/// Byte-identical to `map_asic(choice, library, params)` whenever `prep` came
/// from [`prepare_asic_cover`] over the same choice network, library and cut
/// configuration.
pub fn map_asic_prepared(
    choice: &ChoiceNetwork,
    library: &Library,
    prep: &PreparedCover<MatchCandidate>,
    params: &AsicMapParams,
) -> CellNetlist {
    let target = AsicTarget::new(library);
    let problem = CoverProblem::new(choice, &target, &prep.skeleton);
    problem.solve(&params.engine_params())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::asic::map_asic;
    use crate::lut::map_lut;
    use crate::mapping::MappingObjective;
    use mch_choice::{build_mch, MchParams};
    use mch_logic::{Network, NetworkKind};
    use mch_techlib::asap7_lite;

    fn adder6() -> Network {
        let mut n = Network::with_name(NetworkKind::Aig, "adder6");
        let a = n.add_inputs(6);
        let b = n.add_inputs(6);
        let mut carry = n.constant(false);
        for i in 0..6 {
            let (s, c) = n.full_adder(a[i], b[i], carry);
            n.add_output(s);
            carry = c;
        }
        n.add_output(carry);
        n
    }

    #[test]
    fn prepared_lut_solves_match_one_shot_mapping_bytes() {
        let net = adder6();
        let choice = build_mch(&net, &MchParams::area_oriented());
        let lut = LutLibrary::k6();
        let base = LutMapParams::new(MappingObjective::Area);
        let prep = prepare_lut_cover(&choice, &lut, &base);
        // Every variant shares the preparation (same cut_limit/ranking);
        // solves over the shared artifact must equal one-shot runs.
        for params in [
            base,
            base.with_area_rounds(1),
            base.with_area_rounds(8),
            base.with_exact_area(true),
            base.with_memoise(false),
            LutMapParams {
                objective: MappingObjective::Delay,
                ..base
            },
        ] {
            assert_eq!(
                map_lut_prepared(&choice, &lut, &prep, &params),
                map_lut(&choice, &lut, &params),
                "{params:?} diverged from the one-shot mapper"
            );
        }
    }

    #[test]
    fn prepared_asic_solves_match_one_shot_mapping_bytes() {
        let net = adder6();
        let choice = build_mch(&net, &MchParams::area_oriented());
        let lib = asap7_lite();
        let base = AsicMapParams::new(MappingObjective::Balanced);
        let prep = prepare_asic_cover(&choice, &lib, &base);
        for params in [
            base,
            base.with_area_rounds(0),
            base.with_area_rounds(5),
            base.with_exact_area(true),
            base.with_memoise(false),
            AsicMapParams {
                objective: MappingObjective::Area,
                ..base
            },
        ] {
            assert_eq!(
                map_asic_prepared(&choice, &lib, &prep, &params),
                map_asic(&choice, &lib, &params),
                "{params:?} diverged from the one-shot mapper"
            );
        }
    }

    #[test]
    fn prepared_cover_reports_a_plausible_footprint() {
        let net = adder6();
        let choice = build_mch(&net, &MchParams::area_oriented());
        let lut = LutLibrary::k6();
        let prep = prepare_lut_cover(&choice, &lut, &LutMapParams::default());
        let bytes = prep.approx_bytes(LutCandidate::approx_bytes);
        // The candidate arena is thousands of bytes for this network; the
        // estimate must dominate it and stay finite-ish.
        let target = LutTarget::new(&lut);
        let problem = CoverProblem::new(&choice, &target, prep.skeleton());
        let arena: usize = problem
            .original_gates()
            .iter()
            .map(|&id| std::mem::size_of_val(problem.candidates_of(id)))
            .sum();
        assert!(arena > 1000, "candidate arena of {arena} bytes");
        assert!(bytes > arena, "{bytes} bytes under the {arena}-byte arena");
        assert!(bytes < 64 << 20, "absurd footprint estimate: {bytes}");
        assert_eq!(prep.cuts().total_cuts(), 0);
        assert_eq!(prep.cuts().approx_bytes(), 0);
    }
}
