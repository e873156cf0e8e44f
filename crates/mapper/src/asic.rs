//! Cut-based ASIC technology mapping with Boolean matching and choice-network
//! support (Algorithm 3 instantiated for standard cells).
//!
//! The covering loop itself — delay pass, required-time propagation, area
//! recovery — lives in the shared [`crate::engine`]; this module supplies the
//! standard-cell [`CoverTarget`]: Boolean matching of cut functions against
//! the library, the per-candidate delay/area model (cell + inverters), and
//! emission of the selected cover as a [`CellNetlist`].

use crate::engine::{Cover, CoverTarget, EngineParams};
use crate::mapping::{MappingObjective, DEFAULT_CUT_LIMIT};
use crate::netlist::{source_refs, CellNetlist, NetRef};
use crate::prepared::{map_asic_prepared, prepare_asic_cover};
use mch_choice::ChoiceNetwork;
use mch_cut::{CutCost, CutCostModel, NetworkCuts, MAX_CUT_SIZE};
use mch_logic::{FastMap, GateKind, Network, NodeId, Signal, TruthTable};
use mch_techlib::{CellId, Library};

/// Derives the cut-ranking cost model from a cell library: the delay/area of
/// a `k`-leaf cut is estimated as the fastest/cheapest cell with exactly `k`
/// inputs (sizes no cell provides inherit the previous size's estimate plus
/// an inverter, approximating a decomposition). This is what lets the depth
/// ranking know that covering more leaves with one cell is *not* free in an
/// ASIC flow, unlike in LUT mapping. [`prepare_asic_cover`] ranks every ASIC
/// cut set with this model.
pub fn library_cost_model(library: &Library) -> CutCostModel {
    let mut min_delay = [f64::INFINITY; MAX_CUT_SIZE + 1];
    let mut min_area = [f64::INFINITY; MAX_CUT_SIZE + 1];
    for cell in library.cells() {
        let k = cell.num_inputs().min(MAX_CUT_SIZE);
        min_delay[k] = min_delay[k].min(cell.delay());
        min_area[k] = min_area[k].min(cell.area());
    }
    let mut model = CutCostModel::unit();
    let mut last_delay = library.inverter_delay().max(1.0);
    let mut last_area = library.inverter_area().max(f64::MIN_POSITIVE);
    for k in 0..=MAX_CUT_SIZE {
        if min_delay[k].is_finite() {
            last_delay = min_delay[k];
            last_area = min_area[k];
        } else if k > 0 {
            last_delay += library.inverter_delay();
            last_area += library.inverter_area();
        }
        model.delay[k] = last_delay.round().max(1.0) as u32;
        model.area[k] = last_area as f32;
    }
    model
}

/// Parameters of ASIC mapping.
#[derive(Copy, Clone, PartialEq, Debug)]
pub struct AsicMapParams {
    /// Mapping objective (delay / balanced / area).
    pub objective: MappingObjective,
    /// Maximum number of cuts per node considered for matching.
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
}

impl AsicMapParams {
    /// Creates parameters for the given objective with default knobs.
    pub fn new(objective: MappingObjective) -> Self {
        AsicMapParams {
            objective,
            cut_limit: DEFAULT_CUT_LIMIT,
            area_rounds: 2,
            exact_area: false,
            memoise: true,
            cut_ranking: objective.default_ranking(),
            threads: mch_cut::default_threads(),
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

    pub(crate) fn engine_params(&self) -> EngineParams {
        EngineParams {
            objective: self.objective,
            area_rounds: self.area_rounds,
            exact_area: self.exact_area,
            memoise: self.memoise,
        }
    }
}

impl Default for AsicMapParams {
    fn default() -> Self {
        AsicMapParams::new(MappingObjective::Balanced)
    }
}

/// One concrete way of covering a node: a cut reduced to its support, matched
/// onto a library cell, with the inverters the match requires.
///
/// Opaque outside this module; public only because it is [`AsicTarget`]'s
/// [`CoverTarget::Candidate`] associated type.
#[derive(Clone, Debug)]
pub struct MatchCandidate {
    leaves: Vec<NodeId>,
    /// The support-reduced cut function the matched cell implements, over
    /// `leaves` in order. Carried so the fusion pipeline can harvest a
    /// selected ASIC cone as a ready-made LUT candidate (`fusion.rs`).
    function: TruthTable,
    cell: CellId,
    pin_perm: Vec<usize>,
    input_neg: u32,
    output_neg: bool,
    area: f64,
    cell_delay: f64,
    output_extra: f64,
}

impl MatchCandidate {
    /// The candidate's cone: its leaves and the support-reduced function they
    /// feed (the fusion harvest — see `fusion.rs`).
    pub(crate) fn cone(&self) -> (&[NodeId], &TruthTable) {
        (&self.leaves, &self.function)
    }

    /// Approximate memory footprint in bytes (inline size plus owned heap).
    /// Feeds [`crate::PreparedCover::approx_bytes`] for the warm-start
    /// cache's byte accounting.
    pub fn approx_bytes(&self) -> usize {
        std::mem::size_of::<Self>()
            + self.leaves.capacity() * std::mem::size_of::<NodeId>()
            + self.function.heap_bytes()
            + self.pin_perm.capacity() * std::mem::size_of::<usize>()
    }
}

/// Builds the direct-fanin cut of a gate: leaves are the sorted distinct
/// non-constant fanin nodes, the function is the gate's primitive (AND / XOR /
/// majority) with fanin complements and constants folded in. Every usable
/// library matches these functions, so this cut makes ASIC matching total
/// regardless of which cuts survived the ranked truncation.
fn direct_fanin_cut(net: &Network, id: NodeId) -> (Vec<NodeId>, TruthTable) {
    let node = net.node(id);
    let fanins = node.fanins();
    let mut leaves: Vec<NodeId> = fanins
        .iter()
        .map(|s| s.node())
        .filter(|n| !n.is_const())
        .collect();
    leaves.sort();
    leaves.dedup();
    let lit = |s: Signal| -> TruthTable {
        if s.node().is_const() {
            TruthTable::constant(leaves.len(), s.is_complement())
        } else {
            let pos = leaves.binary_search(&s.node()).expect("fanin is a leaf");
            let v = TruthTable::var(leaves.len(), pos);
            if s.is_complement() {
                v.not()
            } else {
                v
            }
        }
    };
    let function = match node.kind() {
        GateKind::And2 => lit(fanins[0]).and(&lit(fanins[1])),
        GateKind::Xor2 => lit(fanins[0]).xor(&lit(fanins[1])),
        GateKind::Maj3 => TruthTable::maj(&lit(fanins[0]), &lit(fanins[1]), &lit(fanins[2])),
        _ => unreachable!("only gates are mapped"),
    };
    (leaves, function)
}

/// The standard-cell instantiation of the covering engine's [`CoverTarget`].
///
/// Public so callers can build a [`crate::engine::CoverProblem`] and solve it
/// repeatedly under different [`EngineParams`] (the `mapping_rounds` bench
/// does exactly that).
pub struct AsicTarget<'a> {
    library: &'a Library,
    cuts: &'a NetworkCuts,
    inv_delay: f64,
    inv_area: f64,
}

impl<'a> AsicTarget<'a> {
    /// Creates the target over pre-enumerated cuts (the cut set of a
    /// [`prepare_asic_cover`]).
    pub fn new(library: &'a Library, cuts: &'a NetworkCuts) -> Self {
        AsicTarget {
            library,
            cuts,
            inv_delay: library.inverter_delay(),
            inv_area: library.inverter_area(),
        }
    }
}

impl CoverTarget for AsicTarget<'_> {
    type Candidate = MatchCandidate;
    type Netlist = CellNetlist;

    fn candidates(&self, net: &Network, id: NodeId) -> Vec<MatchCandidate> {
        let library = self.library;
        let inv_delay = self.inv_delay;
        let inv_area = self.inv_area;
        let mut cands = Vec::new();
        // The direct-fanin cut carries the gate's own primitive function, the
        // one shape every usable library covers. Cost-aware rankings can
        // truncate it out of the enumerated set, so it is re-synthesised here
        // as a guaranteed-matchable candidate.
        let fallback = direct_fanin_cut(net, id);
        let enumerated = self.cuts.of(id).iter().map(|c| (c.leaves(), c.function()));
        let all = enumerated.chain(std::iter::once((
            fallback.0.as_slice(),
            &fallback.1,
        )));
        for (cut_leaves, function) in all {
            if cut_leaves.len() == 1 && cut_leaves[0] == id {
                continue; // trivial cut
            }
            let (reduced, support) = function.shrink_to_support();
            if reduced.num_vars() == 0 {
                continue;
            }
            // Keep the best-area and best-delay match of this cut's function
            // (chosen once per function by the library index).
            let Some((best_area, best_delay)) = library.best_matches(&reduced) else {
                continue;
            };
            let leaves: Vec<NodeId> = support.iter().map(|&i| cut_leaves[i]).collect();
            for m in [best_area, best_delay] {
                let cand = MatchCandidate {
                    leaves: leaves.clone(),
                    function: reduced.clone(),
                    cell: m.cell(),
                    pin_perm: m.perm().to_vec(),
                    input_neg: m.input_neg(),
                    output_neg: m.output_neg(),
                    area: library.cell(m.cell()).area()
                        + m.inverter_count() as f64 * inv_area,
                    cell_delay: library.cell(m.cell()).delay(),
                    output_extra: if m.output_neg() { inv_delay } else { 0.0 },
                };
                // Avoid exact duplicates.
                if !cands.iter().any(|c: &MatchCandidate| {
                    c.cell == cand.cell && c.leaves == cand.leaves && c.input_neg == cand.input_neg
                }) {
                    cands.push(cand);
                }
            }
        }
        assert!(
            !cands.is_empty(),
            "node {id} has no matchable cut; the library cannot cover this network"
        );
        cands
    }

    fn leaves<'b>(&self, cand: &'b MatchCandidate) -> &'b [NodeId] {
        &cand.leaves
    }

    fn arrival(&self, cand: &MatchCandidate, arrivals: &[f64]) -> f64 {
        let mut worst: f64 = 0.0;
        for (i, l) in cand.leaves.iter().enumerate() {
            let extra = if cand.input_neg & (1 << i) != 0 {
                self.inv_delay
            } else {
                0.0
            };
            worst = worst.max(arrivals[l.index()] + extra);
        }
        worst + cand.cell_delay + cand.output_extra
    }

    fn area(&self, cand: &MatchCandidate) -> f64 {
        cand.area
    }

    fn leaf_required(&self, cand: &MatchCandidate, leaf_index: usize, root_required: f64) -> f64 {
        let extra = if cand.input_neg & (1 << leaf_index) != 0 {
            self.inv_delay
        } else {
            0.0
        };
        root_required - cand.cell_delay - cand.output_extra - extra
    }

    fn emit(&self, net: &Network, cover: &Cover<'_, MatchCandidate>) -> CellNetlist {
        let mut netlist = CellNetlist::new(net.name().to_string(), net.input_count());
        let mut node_ref = source_refs(net);
        let mut inverted: FastMap<NodeId, NetRef> = FastMap::default();
        let inverter = self.library.inverter();

        for &id in cover.original_gates {
            if !cover.needed[id.index()] {
                continue;
            }
            let c = cover.selected(id);
            let mut pin_fanins = vec![NetRef::Const(false); c.leaves.len()];
            for (i, l) in c.leaves.iter().enumerate() {
                let mut r = node_ref[l.index()].expect("leaf mapped before use");
                if c.input_neg & (1 << i) != 0 {
                    r = match r {
                        NetRef::Const(v) => NetRef::Const(!v),
                        other => *inverted
                            .entry(*l)
                            .or_insert_with(|| netlist.push_gate(inverter, vec![other])),
                    };
                }
                pin_fanins[c.pin_perm[i]] = r;
            }
            let mut out = netlist.push_gate(c.cell, pin_fanins);
            if c.output_neg {
                out = netlist.push_gate(inverter, vec![out]);
            }
            node_ref[id.index()] = Some(out);
        }

        for o in net.outputs() {
            let node = o.node();
            let mut r = node_ref[node.index()].expect("output driver mapped");
            if o.is_complement() {
                r = match r {
                    NetRef::Const(v) => NetRef::Const(!v),
                    other => *inverted
                        .entry(node)
                        .or_insert_with(|| netlist.push_gate(inverter, vec![other])),
                };
            }
            netlist.push_output(r);
        }
        netlist
    }
}

/// Maps a choice network onto standard cells.
///
/// The mapper follows the classical priority-cut flow, delegated to the
/// shared [`crate::engine`]: a delay-oriented pass establishes arrival times,
/// `area_rounds` area-flow passes recover area under the required times
/// derived from the objective (memoised and incrementally re-evaluated — see
/// the engine docs), and the final cover is extracted from the primary
/// outputs. Choice-node cuts are transferred to their representatives
/// beforehand, so heterogeneous candidate structures are evaluated with the
/// same technology costs as the original structure.
///
/// # Panics
///
/// Panics if some node function cannot be matched by the library (the bundled
/// [`mch_techlib::asap7_lite`] library always matches the 2- and 3-input
/// primitive functions, so this only happens with deliberately crippled
/// libraries).
pub fn map_asic(choice: &ChoiceNetwork, library: &Library, params: &AsicMapParams) -> CellNetlist {
    map_asic_prepared(
        choice,
        library,
        &prepare_asic_cover(choice, library, params),
        params,
    )
}

/// Convenience: maps a plain network (no choices) onto standard cells.
pub fn map_asic_network(
    network: &mch_logic::Network,
    library: &Library,
    params: &AsicMapParams,
) -> CellNetlist {
    map_asic(&ChoiceNetwork::from_network(network), library, params)
}

#[cfg(test)]
mod tests {
    use super::*;
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
    fn mapping_preserves_function() {
        let net = adder4();
        let lib = asap7_lite();
        let mapped = map_asic_network(&net, &lib, &AsicMapParams::default());
        assert!(mapped.gate_count() > 0);
        let back = mapped.to_network(&lib);
        assert!(cec(&net, &back).holds(), "mapped netlist is not equivalent");
    }

    #[test]
    fn area_objective_is_not_larger_than_delay_objective_area() {
        let net = adder4();
        let lib = asap7_lite();
        let delay = map_asic_network(&net, &lib, &AsicMapParams::new(MappingObjective::Delay));
        let area = map_asic_network(&net, &lib, &AsicMapParams::new(MappingObjective::Area));
        assert!(area.area(&lib) <= delay.area(&lib) + 1e-9);
        assert!(delay.delay(&lib) <= area.delay(&lib) + 1e-9);
    }

    #[test]
    fn choices_do_not_hurt_and_stay_equivalent() {
        let net = adder4();
        let lib = asap7_lite();
        let params = AsicMapParams::default();
        let baseline = map_asic_network(&net, &lib, &params);
        let mch = build_mch(&net, &MchParams::area_oriented());
        let with_choices = map_asic(&mch, &lib, &params);
        let back = with_choices.to_network(&lib);
        assert!(cec(&net, &back).holds());
        // The choice-aware mapping should not be worse on both metrics at once.
        let worse_area = with_choices.area(&lib) > baseline.area(&lib) + 1e-9;
        let worse_delay = with_choices.delay(&lib) > baseline.delay(&lib) + 1e-9;
        assert!(
            !(worse_area && worse_delay),
            "choices made both area and delay worse"
        );
    }

    #[test]
    fn complemented_and_constant_outputs() {
        let mut n = Network::new(NetworkKind::Aig);
        let a = n.add_input();
        let b = n.add_input();
        let f = n.and2(a, b);
        n.add_output(!f);
        n.add_output(n.constant(true));
        n.add_output(!a);
        let lib = asap7_lite();
        let mapped = map_asic_network(&n, &lib, &AsicMapParams::default());
        assert!(cec(&n, &mapped.to_network(&lib)).holds());
    }

    #[test]
    fn xmg_network_maps_correctly() {
        let mut n = Network::new(NetworkKind::Xmg);
        let xs = n.add_inputs(5);
        let m = n.maj3(xs[0], xs[1], xs[2]);
        let x = n.xor2(m, xs[3]);
        let y = n.maj3(x, xs[4], !xs[0]);
        n.add_output(y);
        let lib = asap7_lite();
        let mapped = map_asic_network(&n, &lib, &AsicMapParams::default());
        assert!(cec(&n, &mapped.to_network(&lib)).holds());
    }

    #[test]
    fn memoised_selection_matches_full_recomputation() {
        let net = adder4();
        let lib = asap7_lite();
        for objective in [
            MappingObjective::Delay,
            MappingObjective::Balanced,
            MappingObjective::Area,
        ] {
            for rounds in [0, 2, 5] {
                let params = AsicMapParams::new(objective).with_area_rounds(rounds);
                let memo = map_asic_network(&net, &lib, &params);
                let full = map_asic_network(&net, &lib, &params.with_memoise(false));
                assert_eq!(memo, full, "{objective:?} with {rounds} rounds diverged");
            }
        }
    }

    #[test]
    fn exact_area_pass_stays_equivalent_and_not_larger() {
        let net = adder4();
        let lib = asap7_lite();
        for objective in [MappingObjective::Balanced, MappingObjective::Area] {
            let params = AsicMapParams::new(objective);
            let flow_only = map_asic_network(&net, &lib, &params);
            let exact = map_asic_network(&net, &lib, &params.with_exact_area(true));
            assert!(cec(&net, &exact.to_network(&lib)).holds(), "{objective:?}");
            assert!(
                exact.area(&lib) <= flow_only.area(&lib) + 1e-9,
                "{objective:?}: exact-area pass grew area from {} to {}",
                flow_only.area(&lib),
                exact.area(&lib)
            );
        }
    }
}
