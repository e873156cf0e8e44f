//! Cross-mapper fusion: ASIC-guided K-LUT mapping.
//!
//! "Mapping Fusion: Improving FPGA Technology Mapping with ASIC Mapper" shows
//! that the structure an ASIC mapper selects is itself a useful choice source
//! for LUT covering: standard-cell matching prefers cones with cheap Boolean
//! decompositions, and those cones are often exactly the ones a K-LUT cover
//! should commit to. Because both mappers here are
//! [`CoverTarget`](crate::engine::CoverTarget)s over the same
//! [`CoverProblem`] engine, the fusion pipeline is small:
//!
//! 1. run an ordinary ASIC cover over the choice network
//!    ([`prepare_fusion_guide`] is [`crate::prepare_asic_cover`] under the
//!    guide's parameters; [`CoverProblem::solve_selection`] — no netlist is
//!    emitted),
//! 2. harvest the winning cover as **cell clusters**: each selected cone
//!    greedily absorbs the selected cones of its fanin cells while the
//!    merged support fits `K` leaves, so a harvested cone is a whole
//!    subtree of the would-be cell netlist expressible as one LUT,
//! 3. feed the clusters into the LUT problem, per [`FusionMode`]: as
//!    **injected** extra candidates on their root nodes (cones the LUT cut
//!    ranking had truncated away compete again) and/or as a
//!    **selection-key bias** ([`CoverProblem::set_bonus`]) that breaks
//!    area-flow near-ties toward ASIC-chosen cones,
//! 4. solve the LUT cover twice — unguided and guided — and emit whichever
//!    maps better under the objective (ties keep the unguided cover). Area
//!    flow is a heuristic, so a locally attractive guide cone can globally
//!    reduce sharing; the guard makes the guide strictly one-sided: it can
//!    improve the mapping, never regress it.
//!
//! With [`FusionMode::Off`] (the default everywhere) the pipeline delegates
//! to [`map_lut`] unchanged, so existing flows stay byte-identical.
//!
//! The harvest and application are pure functions of the deterministic ASIC
//! selection, so fused output is byte-identical at every thread count — the
//! same invariant every other phase holds (`tests/choice_determinism.rs`).
//!
//! Steps 1 and 2 read only the guide cover, `K` and the guide's engine
//! parameters, none of which a fused sweep varies: the warm-start path
//! ([`map_lut_fused_prepared`]) harvests once per guide cover and key and
//! memoises the cones on it, so every later variant pays only for step 4.

use crate::asic::{AsicMapParams, AsicTarget, MatchCandidate};
use crate::engine::{CoverProblem, CoverSkeleton, EngineParams};
use crate::lut::{map_lut, LutCandidate, LutMapParams, LutTarget};
use crate::mapping::MappingObjective;
use crate::netlist::LutNetlist;
use crate::prepared::{map_lut_prepared, prepare_asic_cover, prepare_lut_cover, PreparedCover};
use mch_choice::ChoiceNetwork;
use mch_logic::{NodeId, TruthTable};
use mch_techlib::{Library, LutLibrary};
use std::sync::Arc;

/// How the ASIC guide pass feeds the LUT cover (see the module docs).
#[derive(Copy, Clone, PartialEq, Eq, Debug, Default)]
pub enum FusionMode {
    /// No fusion: [`map_lut_fused`] behaves exactly like [`map_lut`].
    #[default]
    Off,
    /// Bias only: LUT candidates that coincide with ASIC-selected cones get a
    /// selection-key bonus; no candidates are added.
    Bias,
    /// Injection only: ASIC-selected cones missing from the LUT candidate
    /// lists are injected as extra candidates; no bias is applied.
    Inject,
    /// Injection plus bias — the full fusion pipeline, and what the
    /// `lut_fusion` flow preset uses.
    Full,
}

impl FusionMode {
    /// Whether the ASIC guide pass runs at all.
    pub fn is_enabled(self) -> bool {
        self != FusionMode::Off
    }

    fn injects(self) -> bool {
        matches!(self, FusionMode::Inject | FusionMode::Full)
    }

    fn biases(self) -> bool {
        matches!(self, FusionMode::Bias | FusionMode::Full)
    }
}

/// Selection-key bonus granted to ASIC-coinciding LUT candidates, as a
/// fraction of one LUT area. Small enough that a cone only wins when it is
/// within a quarter LUT of the area-flow optimum — the bias breaks near-ties,
/// it does not override clearly better covers.
const FUSION_BONUS_LUTS: f64 = 0.25;

/// A cone harvested from the ASIC cover: the root it covers, its
/// support-reduced leaves (sorted, distinct) and the function they feed.
/// One cone may absorb several standard cells (see [`harvest_cones`]).
#[derive(PartialEq, Debug)]
pub(crate) struct AsicCone {
    root: NodeId,
    leaves: Vec<NodeId>,
    function: TruthTable,
}

impl AsicCone {
    /// Approximate heap footprint in bytes, for the guide cover's
    /// [`PreparedCover::approx_bytes`].
    pub(crate) fn approx_bytes(&self) -> usize {
        std::mem::size_of::<Self>()
            + self.leaves.capacity() * std::mem::size_of::<NodeId>()
            + self.function.heap_bytes()
    }
}

/// What a harvest reads besides the guide cover: the LUT size `K` and the
/// guide solve's engine parameters. The key of a guide's cone memo.
pub(crate) type ConeKey = (usize, EngineParams);

/// Maps a choice network onto K-LUTs with ASIC-guided fusion.
///
/// `library` drives the ASIC guide pass; `params.fusion` selects what the
/// harvested cones do ([`FusionMode`]). With [`FusionMode::Off`] this is
/// exactly [`map_lut`] — same bytes out — and `library` is untouched.
///
/// # Panics
///
/// As [`crate::map_asic`]: panics if the library cannot match some node
/// function (never the case for [`mch_techlib::asap7_lite`]).
pub fn map_lut_fused(
    choice: &ChoiceNetwork,
    lut: &LutLibrary,
    library: &Library,
    params: &LutMapParams,
) -> LutNetlist {
    if !params.fusion.is_enabled() {
        return map_lut(choice, lut, params);
    }
    let guide = prepare_fusion_guide(choice, library, params);
    let cones = harvest_cones(choice, library, &guide, &guide_key(params, lut));
    let prep = prepare_lut_cover(choice, lut, params);
    solve_guarded(choice, lut, &prep.skeleton, &cones, params)
}

/// The guarded double solve shared by the one-shot and warm-start pipelines,
/// over a LUT skeleton: solve the unguided cover first
/// (identical to [`map_lut`] — same cuts, same engine parameters), then the
/// guided one, and emit whichever maps better under the objective. Area flow
/// is a heuristic: an ASIC cone that looks locally cheap can globally reduce
/// sharing, so the guide's cover is accepted only when it wins — the guide
/// can help, never hurt. Ties keep the unguided cover, so a guide pass that
/// changes nothing still returns the plain mapper's bytes.
fn solve_guarded(
    choice: &ChoiceNetwork,
    lut: &LutLibrary,
    skeleton: &CoverSkeleton<LutCandidate>,
    cones: &[AsicCone],
    params: &LutMapParams,
) -> LutNetlist {
    let target = LutTarget::new(lut);
    let mut problem = CoverProblem::new(choice, &target, skeleton);
    let engine = params.engine_params();
    let plain = problem.emit(&problem.solve_selection(&engine));
    apply_cones(&mut problem, lut, cones, params.fusion);
    let guided = problem.emit(&problem.solve_selection(&engine));
    let key = |n: &LutNetlist| match params.objective {
        MappingObjective::Area => (n.lut_count(), n.level_count()),
        _ => (n.level_count() as usize, n.lut_count() as u32),
    };
    if key(&guided) < key(&plain) {
        guided
    } else {
        plain
    }
}

/// The ASIC parameters of the guide pass, derived from the LUT parameters:
/// objective, cut limit, threads and memoisation carry over, everything else
/// takes the ASIC defaults. The guide's cut ranking is the objective's
/// natural ASIC ranking, so its prepared cover is the ASIC cover of
/// `(objective.default_ranking(), cut_limit, library)`.
fn guide_asic_params(params: &LutMapParams) -> AsicMapParams {
    let mut asic = AsicMapParams::new(params.objective)
        .with_threads(params.threads)
        .with_memoise(params.memoise);
    asic.cut_limit = params.cut_limit;
    asic
}

/// The cone-memo key of a fused solve: the LUT size and the guide solve's
/// engine parameters (objective, the ASIC default rounds, no exact area,
/// memoisation). Fusion mode, `area_rounds` and `exact_area` never reach it.
fn guide_key(params: &LutMapParams, lut: &LutLibrary) -> ConeKey {
    (lut.k(), guide_asic_params(params).engine_params())
}

/// Runs the preparation phase of the fusion guide pass: an ordinary
/// [`prepare_asic_cover`] under the guide's derived ASIC parameters (the
/// objective's natural ranking, the LUT `cut_limit`).
///
/// Of `params`, only `objective`, `cut_limit` and `threads` reach this phase,
/// and `threads` never changes the result — the artifact is the ASIC cover
/// keyed by the objective's default ranking, `cut_limit` and the cell
/// library.
pub fn prepare_fusion_guide(
    choice: &ChoiceNetwork,
    library: &Library,
    params: &LutMapParams,
) -> PreparedCover<MatchCandidate> {
    prepare_asic_cover(choice, library, &guide_asic_params(params))
}

/// [`map_lut_fused`] over prepared covers — the warm-start path.
///
/// `lut_prep` must come from [`crate::prepare_lut_cover`] and `guide_prep`
/// from [`prepare_fusion_guide`], both over the same choice network and
/// parameters (`cut_limit`, `cut_ranking`, `objective`), and `library` must
/// be the guide's. Byte-identical to the one-shot [`map_lut_fused`]; with
/// [`FusionMode::Off`] the guide artifact is ignored entirely and this is
/// [`map_lut_prepared`].
///
/// Both skeletons are borrowed and only read: the cones injected by modes
/// [`FusionMode::Inject`] and [`FusionMode::Full`] and every bonus live in
/// the LUT problem's own overlay. The guide's harvested cones are memoised
/// on `guide_prep` per `(lut.k(), guide engine parameters)`, so only the
/// first fused call per key solves the guide.
pub fn map_lut_fused_prepared(
    choice: &ChoiceNetwork,
    lut: &LutLibrary,
    library: &Library,
    params: &LutMapParams,
    lut_prep: &PreparedCover<LutCandidate>,
    guide_prep: &PreparedCover<MatchCandidate>,
) -> LutNetlist {
    if !params.fusion.is_enabled() {
        return map_lut_prepared(choice, lut, lut_prep, params);
    }
    let cones = guide_cones(choice, library, guide_prep, guide_key(params, lut));
    solve_guarded(choice, lut, &lut_prep.skeleton, &cones, params)
}

/// The cones `guide` harvests under `key`: from its memo, or harvested now
/// and memoised. The entry is pushed only once [`harvest_cones`] returned.
fn guide_cones(
    choice: &ChoiceNetwork,
    library: &Library,
    guide: &PreparedCover<MatchCandidate>,
    key: ConeKey,
) -> Arc<[AsicCone]> {
    let mut memo = guide.cone_memo();
    if let Some((_, cones)) = memo.iter().find(|(k, _)| *k == key) {
        return Arc::clone(cones);
    }
    let cones: Arc<[AsicCone]> = harvest_cones(choice, library, guide, &key).into();
    memo.push((key, Arc::clone(&cones)));
    cones
}

/// Solves the ASIC guide cover over its borrowed skeleton and returns the
/// harvested cones in id order; `(k, engine)` is the LUT size and the guide
/// solve's parameters ([`guide_key`]).
///
/// The guide pass reuses the LUT parameters where they apply (objective,
/// cut limit, threads, memoisation) and the ASIC defaults elsewhere, and
/// solves the selection only — no cell netlist is ever emitted.
///
/// Standard cells are narrower than a `K`-LUT, so a bare cell cone makes a
/// poor LUT candidate: committing to it fragments the cover. The harvest
/// therefore **clusters** the winning cover: each selected cell cone greedily
/// absorbs the selected cones of its fanin cells while the merged support
/// still fits `k` leaves. The merged cone covers a whole subtree of the cell
/// netlist with one LUT — the structural alignment fusion is after — and the
/// cell boundaries inside it are exactly the ASIC mapper's choices.
fn harvest_cones(
    choice: &ChoiceNetwork,
    library: &Library,
    guide: &PreparedCover<MatchCandidate>,
    &(k, engine): &ConeKey,
) -> Vec<AsicCone> {
    let target = AsicTarget::new(library);
    let problem = CoverProblem::new(choice, &target, &guide.skeleton);
    let selection = problem.solve_selection(&engine);

    // The winning cover: the selected cell cone of every needed gate.
    let mut selected: Vec<Option<(&[NodeId], &TruthTable)>> = vec![None; choice.original_len()];
    for &id in problem.original_gates() {
        if selection.is_needed(id) {
            selected[id.index()] = Some(problem.selected(&selection, id).cone());
        }
    }

    let mut cones = Vec::new();
    for &id in problem.original_gates() {
        let Some((cell_leaves, _)) = selected[id.index()] else {
            continue;
        };
        // Greedy absorption, deterministic: repeatedly inline the lowest-id
        // leaf that is itself a selected cell root, as long as the merged
        // support still fits one LUT. Every inlined root moves to the
        // interior; its cone leaves join the support unless already interior.
        let mut interior: Vec<NodeId> = vec![id];
        let mut leaves: Vec<NodeId> = cell_leaves.to_vec();
        loop {
            let mut advanced = false;
            for (pos, &leaf) in leaves.iter().enumerate() {
                let Some((sub_leaves, _)) = selected[leaf.index()] else {
                    continue;
                };
                let mut merged = leaves.clone();
                merged.remove(pos);
                for &l in sub_leaves {
                    if interior.contains(&l) || l == leaf {
                        continue;
                    }
                    if let Err(p) = merged.binary_search(&l) {
                        merged.insert(p, l);
                    }
                }
                if merged.len() <= k {
                    interior.push(leaf);
                    leaves = merged;
                    advanced = true;
                    break;
                }
            }
            if !advanced {
                break;
            }
        }
        interior.sort_unstable();
        let function = evaluate_cluster(&selected, &interior, &leaves);
        let (reduced, support) = function.shrink_to_support();
        let reduced_leaves: Vec<NodeId> = support.iter().map(|&v| leaves[v]).collect();
        if reduced_leaves.is_empty() {
            continue;
        }
        cones.push(AsicCone {
            root: id,
            leaves: reduced_leaves,
            function: reduced,
        });
    }
    cones
}

/// Truth table of a cell cluster over its merged `leaves`.
///
/// `interior` is the ascending-id list of absorbed cell roots (the cluster's
/// root is its maximum); each interior cone leaf is either a merged leaf or a
/// smaller interior root, so one ascending pass per minterm evaluates the
/// whole cluster. At most `2^k = 64` minterms over a handful of cells.
fn evaluate_cluster(
    selected: &[Option<(&[NodeId], &TruthTable)>],
    interior: &[NodeId],
    leaves: &[NodeId],
) -> TruthTable {
    let mut out = TruthTable::zeros(leaves.len());
    let mut values = vec![false; interior.len()];
    for minterm in 0..out.num_bits() {
        for (i, &node) in interior.iter().enumerate() {
            let (cone_leaves, function) =
                selected[node.index()].expect("interior nodes are selected cell roots");
            let mut index = 0usize;
            for (var, &l) in cone_leaves.iter().enumerate() {
                let value = match leaves.binary_search(&l) {
                    Ok(v) => minterm >> v & 1 == 1,
                    Err(_) => {
                        values[interior
                            .binary_search(&l)
                            .expect("cluster leaves are merged leaves or interior roots")]
                    }
                };
                if value {
                    index |= 1 << var;
                }
            }
            values[i] = function.bit(index);
        }
        out.set_bit(minterm, values[interior.len() - 1]);
    }
    out
}

/// Applies harvested cones to the LUT problem per the fusion mode.
///
/// Cones wider than `K` cannot be a single LUT and are skipped. A cone that
/// already exists as an enumerated LUT candidate is biased in place (never
/// duplicated); a missing cone is injected — through
/// [`CoverProblem::inject_candidate`], which also wires the new candidate
/// into the dirty-bit `users` relation so memoisation stays exact.
fn apply_cones(
    problem: &mut CoverProblem<'_, LutTarget<'_>>,
    lut: &LutLibrary,
    cones: &[AsicCone],
    mode: FusionMode,
) {
    let bonus = FUSION_BONUS_LUTS * lut.area();
    for cone in cones {
        if cone.leaves.is_empty() || cone.leaves.len() > lut.k() {
            continue;
        }
        let existing = problem
            .candidates_of(cone.root)
            .iter()
            .position(|c| c.matches_cone(&cone.leaves, &cone.function));
        match existing {
            Some(i) => {
                if mode.biases() {
                    problem.set_bonus(cone.root, i, bonus);
                }
            }
            None => {
                if mode.injects() {
                    let cand = LutCandidate::from_cone(&cone.leaves, cone.function.clone());
                    let i = problem.inject_candidate(cone.root, cand);
                    if mode.biases() {
                        problem.set_bonus(cone.root, i, bonus);
                    }
                }
            }
        }
    }
}

/// Convenience: fused mapping of a plain network (no choices).
pub fn map_lut_fused_network(
    network: &mch_logic::Network,
    lut: &LutLibrary,
    library: &Library,
    params: &LutMapParams,
) -> LutNetlist {
    map_lut_fused(&ChoiceNetwork::from_network(network), lut, library, params)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mapping::MappingObjective;
    use mch_choice::{build_mch, MchParams};
    use mch_logic::{cec, Network, NetworkKind};
    use mch_techlib::asap7_lite;

    fn adder4() -> Network {
        let mut n = Network::with_name(NetworkKind::Aig, "adder4");
        let a = n.add_inputs(4);
        let b = n.add_inputs(4);
        let mut carry = n.constant(false);
        for i in 0..4 {
            let (s, c) = n.full_adder(a[i], b[i], carry);
            n.add_output(s);
            carry = c;
        }
        n.add_output(carry);
        n
    }

    #[test]
    fn fusion_off_is_byte_identical_to_plain_mapping() {
        let net = adder4();
        let choice = build_mch(&net, &MchParams::area_oriented());
        let params = LutMapParams::default();
        let plain = map_lut(&choice, &LutLibrary::k6(), &params);
        let fused = map_lut_fused(&choice, &LutLibrary::k6(), &asap7_lite(), &params);
        assert_eq!(plain, fused);
    }

    #[test]
    fn every_fusion_mode_stays_equivalent() {
        let net = adder4();
        let choice = build_mch(&net, &MchParams::area_oriented());
        for mode in [FusionMode::Bias, FusionMode::Inject, FusionMode::Full] {
            for objective in [
                MappingObjective::Delay,
                MappingObjective::Balanced,
                MappingObjective::Area,
            ] {
                let params = LutMapParams::new(objective).with_fusion(mode);
                let fused = map_lut_fused(&choice, &LutLibrary::k6(), &asap7_lite(), &params);
                assert!(
                    cec(&net, &fused.to_network()).holds(),
                    "{mode:?}/{objective:?} broke equivalence"
                );
            }
        }
    }

    #[test]
    fn prepared_fused_solves_match_one_shot_mapping_bytes() {
        let net = adder4();
        let choice = build_mch(&net, &MchParams::area_oriented());
        let lib = asap7_lite();
        let base = LutMapParams::new(MappingObjective::Area);
        // One guide for every LUT size, mode and engine knob: its cone memo
        // is keyed by what the harvest reads, and nothing else.
        let guide_prep = prepare_fusion_guide(&choice, &lib, &base);
        for lut in [LutLibrary::k6(), LutLibrary::k4()] {
            let lut_prep = crate::prepared::prepare_lut_cover(&choice, &lut, &base);
            for mode in [
                FusionMode::Off,
                FusionMode::Bias,
                FusionMode::Inject,
                FusionMode::Full,
            ] {
                let fused = base.with_fusion(mode);
                for params in [
                    fused,
                    fused.with_area_rounds(1),
                    fused.with_exact_area(true),
                    fused.with_memoise(false),
                ] {
                    assert_eq!(
                        map_lut_fused_prepared(
                            &choice,
                            &lut,
                            &lib,
                            &params,
                            &lut_prep,
                            &guide_prep
                        ),
                        map_lut_fused(&choice, &lut, &lib, &params),
                        "K {}: {mode:?}/{params:?} diverged from the one-shot fused mapper",
                        lut.k()
                    );
                }
            }
        }
        // One harvest per LUT size and guide memoisation setting, each equal
        // to a fresh harvest under its key.
        let memo = guide_prep.cone_memo();
        assert_eq!(memo.len(), 4);
        for (key, cones) in memo.iter() {
            assert_eq!(**cones, harvest_cones(&choice, &lib, &guide_prep, key)[..]);
        }
    }

    #[test]
    fn fused_memoisation_matches_full_recomputation() {
        let net = adder4();
        let choice = build_mch(&net, &MchParams::area_oriented());
        for mode in [FusionMode::Bias, FusionMode::Inject, FusionMode::Full] {
            let params = LutMapParams::default().with_fusion(mode);
            let memo = map_lut_fused(&choice, &LutLibrary::k6(), &asap7_lite(), &params);
            let full = map_lut_fused(
                &choice,
                &LutLibrary::k6(),
                &asap7_lite(),
                &params.with_memoise(false),
            );
            assert_eq!(memo, full, "{mode:?} diverged under memoisation");
        }
    }
}
