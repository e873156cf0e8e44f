//! Cut-based K-LUT (FPGA) technology mapping with choice-network support.
//!
//! The covering loop — delay pass, required-time propagation, area recovery —
//! lives in the shared [`crate::engine`]; this module supplies the K-LUT
//! [`CoverTarget`]: every cut of at most `K` leaves is implementable (the LUT
//! mask is the cut function), so candidates need no Boolean matching and the
//! cost model is the LUT library's uniform delay/area.

use crate::engine::{Cover, CoverTarget, EngineParams};
use crate::fusion::FusionMode;
use crate::mapping::{MappingObjective, DEFAULT_CUT_LIMIT};
use crate::netlist::{source_refs, LutNetlist, NetRef};
use crate::prepared::{map_lut_prepared, prepare_lut_cover};
use mch_choice::ChoiceNetwork;
use mch_cut::{CutCost, NetworkCuts};
use mch_logic::{FastMap, Network, NodeId, TruthTable};
use mch_techlib::LutLibrary;

/// Parameters of K-LUT mapping.
#[derive(Copy, Clone, PartialEq, Debug)]
pub struct LutMapParams {
    /// Mapping objective (delay / balanced / area).
    pub objective: MappingObjective,
    /// Maximum number of cuts per node.
    pub cut_limit: usize,
    /// Number of area-recovery passes after the delay-oriented pass.
    pub area_rounds: usize,
    /// Run the engine's exact-area re-selection pass after the area-flow
    /// rounds (see [`EngineParams::exact_area`]). Off by default — it changes
    /// covers, and the default flows pin their quality numbers.
    pub exact_area: bool,
    /// Memoise per-node selections across area rounds (see
    /// [`crate::engine`]). On by default; `false` is the recompute baseline
    /// the `mapping_rounds` bench measures against. Results are bit-identical
    /// either way.
    pub memoise: bool,
    /// How cuts are ranked before the per-node `cut_limit` truncates them
    /// (see [`CutCost`]); defaults to the objective's natural ranking.
    pub cut_ranking: CutCost,
    /// Worker threads for level-parallel cut enumeration and choice transfer
    /// (see [`mch_cut::enumerate_cuts_threaded`]); `1` selects the serial
    /// path, results are identical for every value. Defaults to
    /// [`mch_cut::default_threads`].
    pub threads: usize,
    /// Cross-mapper fusion mode (see [`crate::fusion`]). Off by default; only
    /// honoured by [`crate::fusion::map_lut_fused`], which has the cell
    /// library the ASIC guide pass needs — [`map_lut`] itself ignores it.
    pub fusion: FusionMode,
}

impl LutMapParams {
    /// Creates parameters for the given objective with default knobs.
    pub fn new(objective: MappingObjective) -> Self {
        LutMapParams {
            objective,
            cut_limit: DEFAULT_CUT_LIMIT,
            area_rounds: 3,
            exact_area: false,
            memoise: true,
            cut_ranking: objective.default_ranking(),
            threads: mch_cut::default_threads(),
            fusion: FusionMode::Off,
        }
    }

    /// Returns the same parameters with an explicit cut ranking.
    pub fn with_ranking(mut self, ranking: CutCost) -> Self {
        self.cut_ranking = ranking;
        self
    }

    /// Returns the same parameters with an explicit worker-thread count.
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads.max(1);
        self
    }

    /// Returns the same parameters with an explicit area-recovery round count.
    pub fn with_area_rounds(mut self, rounds: usize) -> Self {
        self.area_rounds = rounds;
        self
    }

    /// Returns the same parameters with the exact-area final pass toggled.
    pub fn with_exact_area(mut self, exact: bool) -> Self {
        self.exact_area = exact;
        self
    }

    /// Returns the same parameters with selection memoisation toggled.
    pub fn with_memoise(mut self, memoise: bool) -> Self {
        self.memoise = memoise;
        self
    }

    /// Returns the same parameters with an explicit fusion mode (see
    /// [`crate::fusion::map_lut_fused`]).
    pub fn with_fusion(mut self, fusion: FusionMode) -> Self {
        self.fusion = fusion;
        self
    }

    pub(crate) fn engine_params(&self) -> EngineParams {
        EngineParams {
            objective: self.objective,
            area_rounds: self.area_rounds,
            exact_area: self.exact_area,
            memoise: self.memoise,
        }
    }
}

impl Default for LutMapParams {
    fn default() -> Self {
        LutMapParams::new(MappingObjective::Area)
    }
}

/// One concrete way of covering a node with a single LUT: a support-reduced
/// cut and the LUT mask implementing its function.
///
/// Opaque outside this module; public only because it is [`LutTarget`]'s
/// [`CoverTarget::Candidate`] associated type.
#[derive(Clone, Debug)]
pub struct LutCandidate {
    leaves: Vec<NodeId>,
    function: TruthTable,
}

impl LutCandidate {
    /// Builds a candidate from a harvested ASIC cone (the fusion injection —
    /// see `fusion.rs`). `leaves` must be sorted, distinct, non-empty and
    /// `function` their support-reduced cone function.
    pub(crate) fn from_cone(leaves: Vec<NodeId>, function: TruthTable) -> Self {
        debug_assert!(!leaves.is_empty());
        debug_assert!(leaves.windows(2).all(|w| w[0] < w[1]));
        LutCandidate { leaves, function }
    }

    /// Whether this candidate covers exactly the given cone.
    pub(crate) fn matches_cone(&self, leaves: &[NodeId], function: &TruthTable) -> bool {
        self.leaves == leaves && self.function == *function
    }

    /// Approximate memory footprint in bytes (inline size plus owned heap).
    /// Feeds [`crate::PreparedCover::approx_bytes`] for the warm-start
    /// cache's byte accounting.
    pub fn approx_bytes(&self) -> usize {
        std::mem::size_of::<Self>()
            + self.leaves.capacity() * std::mem::size_of::<NodeId>()
            + self.function.heap_bytes()
    }
}

/// The K-LUT instantiation of the covering engine's [`CoverTarget`].
///
/// Public so callers can build a [`crate::engine::CoverProblem`] and solve it
/// repeatedly under different [`EngineParams`] (the `mapping_rounds` bench
/// does exactly that).
pub struct LutTarget<'a> {
    lut: &'a LutLibrary,
    cuts: &'a NetworkCuts,
}

impl<'a> LutTarget<'a> {
    /// Creates the target over pre-enumerated cuts (the cut set of a
    /// [`prepare_lut_cover`]).
    pub fn new(lut: &'a LutLibrary, cuts: &'a NetworkCuts) -> Self {
        LutTarget { lut, cuts }
    }
}

impl CoverTarget for LutTarget<'_> {
    type Candidate = LutCandidate;
    type Netlist = LutNetlist;

    fn candidates(&self, _net: &Network, id: NodeId) -> Vec<LutCandidate> {
        let mut cands = Vec::new();
        for cut in self.cuts.of(id).iter() {
            if cut.is_trivial() || cut.size() > self.lut.k() {
                continue;
            }
            let (reduced, support) = cut.function().shrink_to_support();
            let leaves: Vec<NodeId> = support.iter().map(|&i| cut.leaves()[i]).collect();
            if leaves.is_empty() {
                // The cone is functionally constant (redundant logic): cover
                // it with a one-input constant LUT anchored at the cut's
                // first leaf so the netlist stays structurally uniform.
                if let Some(&anchor) = cut.leaves().first() {
                    let function = TruthTable::constant(1, reduced.bit(0));
                    if !cands
                        .iter()
                        .any(|c: &LutCandidate| c.leaves == [anchor] && c.function == function)
                    {
                        cands.push(LutCandidate {
                            leaves: vec![anchor],
                            function,
                        });
                    }
                }
                continue;
            }
            if !cands
                .iter()
                .any(|c: &LutCandidate| c.leaves == leaves && c.function == reduced)
            {
                cands.push(LutCandidate {
                    leaves,
                    function: reduced,
                });
            }
        }
        assert!(!cands.is_empty(), "node {id} has no K-feasible cut");
        cands
    }

    fn leaves<'b>(&self, cand: &'b LutCandidate) -> &'b [NodeId] {
        &cand.leaves
    }

    fn arrival(&self, cand: &LutCandidate, arrivals: &[f64]) -> f64 {
        cand.leaves
            .iter()
            .map(|l| arrivals[l.index()])
            .fold(0.0, f64::max)
            + self.lut.delay()
    }

    fn area(&self, _cand: &LutCandidate) -> f64 {
        self.lut.area()
    }

    fn leaf_required(&self, _cand: &LutCandidate, _leaf_index: usize, root_required: f64) -> f64 {
        root_required - self.lut.delay()
    }

    fn emit(&self, net: &Network, cover: &Cover<'_, LutCandidate>) -> LutNetlist {
        let mut netlist = LutNetlist::new(net.name().to_string(), net.input_count());

        // Primary-output polarity is free in a LUT netlist as long as the
        // driver's positive value has no other consumer: in that case the
        // driver LUT's function is complemented in place. Otherwise a 1-input
        // inverter LUT is inserted (rare).
        let mut used_positive = vec![false; net.len()];
        for &id in cover.original_gates {
            if !cover.needed[id.index()] {
                continue;
            }
            for l in &cover.selected(id).leaves {
                used_positive[l.index()] = true;
            }
        }
        for o in net.outputs() {
            if !o.is_complement() {
                used_positive[o.node().index()] = true;
            }
        }
        let mut emit_complemented = vec![false; net.len()];
        for o in net.outputs() {
            let node = o.node();
            if o.is_complement()
                && net.is_gate(node)
                && cover.needed[node.index()]
                && !used_positive[node.index()]
            {
                emit_complemented[node.index()] = true;
            }
        }

        let mut node_ref = source_refs(net);
        let mut inverted: FastMap<NodeId, NetRef> = FastMap::default();

        for &id in cover.original_gates {
            if !cover.needed[id.index()] {
                continue;
            }
            let c = cover.selected(id);
            let fanins: Vec<NetRef> = c
                .leaves
                .iter()
                .map(|l| node_ref[l.index()].expect("leaf mapped before use"))
                .collect();
            let function = if emit_complemented[id.index()] {
                c.function.not()
            } else {
                c.function.clone()
            };
            node_ref[id.index()] = Some(netlist.push_lut(function, fanins));
        }

        for o in net.outputs() {
            let node = o.node();
            let mut r = node_ref[node.index()].expect("output driver mapped");
            if o.is_complement() != emit_complemented[node.index()] {
                r = match r {
                    NetRef::Const(v) => NetRef::Const(!v),
                    other => *inverted.entry(node).or_insert_with(|| {
                        netlist.push_lut(TruthTable::var(1, 0).not(), vec![other])
                    }),
                };
            }
            netlist.push_output(r);
        }
        netlist
    }
}

/// Maps a choice network onto K-input LUTs.
///
/// Runs the same shared covering engine as the ASIC mapper (see
/// [`crate::engine`]), except that every cut of at most `K` leaves is
/// implementable (the LUT mask is the cut function), so no Boolean matching
/// is needed. Choice-node cuts are transferred to their representatives
/// first, so candidate structures from other representations compete on equal
/// terms — this is the configuration that produced the EPFL best-results
/// entries in the paper (Table II).
pub fn map_lut(choice: &ChoiceNetwork, lut: &LutLibrary, params: &LutMapParams) -> LutNetlist {
    map_lut_prepared(choice, lut, &prepare_lut_cover(choice, lut, params), params)
}

/// Convenience: maps a plain network (no choices) onto K-LUTs.
pub fn map_lut_network(
    network: &mch_logic::Network,
    lut: &LutLibrary,
    params: &LutMapParams,
) -> LutNetlist {
    map_lut(&ChoiceNetwork::from_network(network), lut, params)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mch_choice::{build_mch, MchParams};
    use mch_logic::{cec, Network, NetworkKind};

    fn parity8() -> Network {
        let mut n = Network::with_name(NetworkKind::Aig, "parity8");
        let xs = n.add_inputs(8);
        let p = n.xor_reduce(&xs);
        n.add_output(p);
        n
    }

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
    fn lut_mapping_preserves_function() {
        for net in [parity8(), adder4()] {
            let mapped = map_lut_network(&net, &LutLibrary::k6(), &LutMapParams::default());
            assert!(mapped.lut_count() > 0);
            assert!(cec(&net, &mapped.to_network()).holds(), "{}", net.name());
        }
    }

    #[test]
    fn parity_maps_into_few_luts() {
        // An 8-input parity over 6-LUTs needs at most a handful of LUTs in two
        // to three levels (the AND-decomposed XOR tree has 21 nodes).
        let mapped = map_lut_network(&parity8(), &LutLibrary::k6(), &LutMapParams::default());
        assert!(mapped.lut_count() <= 4, "got {} LUTs", mapped.lut_count());
        assert!(mapped.level_count() <= 3);
    }

    #[test]
    fn smaller_k_needs_more_luts() {
        let net = adder4();
        let k6 = map_lut_network(&net, &LutLibrary::k6(), &LutMapParams::default());
        let k4 = map_lut_network(&net, &LutLibrary::k4(), &LutMapParams::default());
        assert!(k4.lut_count() >= k6.lut_count());
    }

    #[test]
    fn delay_objective_minimises_levels() {
        let net = adder4();
        let delay = map_lut_network(&net, &LutLibrary::k6(), &LutMapParams::new(MappingObjective::Delay));
        let area = map_lut_network(&net, &LutLibrary::k6(), &LutMapParams::new(MappingObjective::Area));
        assert!(delay.level_count() <= area.level_count());
    }

    #[test]
    fn choice_aware_lut_mapping_stays_equivalent_and_not_worse() {
        let net = adder4();
        let params = LutMapParams::default();
        let baseline = map_lut_network(&net, &LutLibrary::k6(), &params);
        let mch = build_mch(&net, &MchParams::area_oriented());
        let mapped = map_lut(&mch, &LutLibrary::k6(), &params);
        assert!(cec(&net, &mapped.to_network()).holds());
        assert!(mapped.lut_count() <= baseline.lut_count() + 1);
    }

    #[test]
    fn complemented_outputs_get_inverter_luts() {
        let mut n = Network::new(NetworkKind::Aig);
        let a = n.add_input();
        let b = n.add_input();
        let f = n.and2(a, b);
        n.add_output(!f);
        let mapped = map_lut_network(&n, &LutLibrary::k6(), &LutMapParams::default());
        assert!(cec(&n, &mapped.to_network()).holds());
    }

    #[test]
    fn memoised_selection_matches_full_recomputation() {
        for net in [parity8(), adder4()] {
            for objective in [
                MappingObjective::Delay,
                MappingObjective::Balanced,
                MappingObjective::Area,
            ] {
                for rounds in [0, 3, 8] {
                    let params = LutMapParams::new(objective).with_area_rounds(rounds);
                    let memo = map_lut_network(&net, &LutLibrary::k6(), &params);
                    let full =
                        map_lut_network(&net, &LutLibrary::k6(), &params.with_memoise(false));
                    assert_eq!(
                        memo, full,
                        "{}: {objective:?} with {rounds} rounds diverged",
                        net.name()
                    );
                }
            }
        }
    }

    #[test]
    fn exact_area_pass_stays_equivalent_and_not_larger() {
        let net = adder4();
        let params = LutMapParams::new(MappingObjective::Area);
        let flow_only = map_lut_network(&net, &LutLibrary::k6(), &params);
        let exact = map_lut_network(&net, &LutLibrary::k6(), &params.with_exact_area(true));
        assert!(cec(&net, &exact.to_network()).holds());
        assert!(
            exact.lut_count() <= flow_only.lut_count(),
            "exact-area pass grew the cover from {} to {} LUTs",
            flow_only.lut_count(),
            exact.lut_count()
        );
    }
}
