//! Graph mapping: mapping-based conversion and optimization of logic networks
//! (Calvino et al., ASP-DAC'22), plus its MCH-based extension (Fig. 5 of the
//! paper).
//!
//! Graph mapping runs the cut-based mapper with a *graph* target instead of a
//! technology target: every selected cut is re-expressed in the desired
//! representation, so the result is an optimized logic network rather than a
//! netlist. With a mixed choice network as the subject graph, the mapper picks
//! the best structure among heterogeneous candidates — this is what lets the
//! MCH-based optimization escape the local optima of the single-representation
//! algorithm.

use mch_choice::{ChoiceNetwork, NpnDatabase, SynthesisStrategy};
use mch_logic::{FastMap, Network, NetworkKind, Signal, TruthTable};
use mch_mapper::{map_lut, LutMapParams, LutNetlist, MappingObjective, NetRef};
use mch_techlib::LutLibrary;

/// Cut size used when harvesting cones for graph mapping.
const GRAPH_MAP_CUT_SIZE: usize = 4;

/// Graph-maps a choice network into the `target` representation.
///
/// The subject graph is covered with 4-input cuts by the choice-aware LUT
/// mapper; each selected cut is then re-synthesised in the target
/// representation by both the level-oriented decomposition and SOP
/// factoring, keeping the better of the two per function (depth first for
/// the delay objective, gate count first otherwise).
pub fn graph_map_with_choices(
    choice: &ChoiceNetwork,
    target: NetworkKind,
    objective: MappingObjective,
) -> Network {
    emit(&cover(choice, objective), choice.network(), target, objective)
}

/// Graph-maps a plain network into every representation of `targets`, in
/// order: one 4-LUT cover, emitted once per target.
///
/// Entry `i` equals [`graph_map`]`(network, targets[i], objective)`, because
/// the cover depends on the objective alone, never on the target.
pub fn graph_map_all(
    network: &Network,
    targets: &[NetworkKind],
    objective: MappingObjective,
) -> Vec<Network> {
    if targets.is_empty() {
        return Vec::new();
    }
    let choice = ChoiceNetwork::from_network(network);
    let cover = cover(&choice, objective);
    targets
        .iter()
        .map(|&target| emit(&cover, choice.network(), target, objective))
        .collect()
}

/// The 4-LUT cover whose cones a graph mapping re-synthesises.
fn cover(choice: &ChoiceNetwork, objective: MappingObjective) -> LutNetlist {
    let lut = LutLibrary::new(GRAPH_MAP_CUT_SIZE, 1.0, 1.0);
    // Serial: at two threads on a 2-vCPU host, the level-parallel cut
    // enumeration of input-sized networks (inside `build_mch`, on the suite
    // circuits) ran at ×0.55–0.82 of its one-thread speed.
    let params = LutMapParams::new(objective).with_threads(1);
    map_lut(choice, &lut, &params)
}

/// Re-synthesises every LUT of `cover` in the `target` representation, over
/// the inputs of `source`, the network the cover was computed on.
fn emit(
    cover: &LutNetlist,
    source: &Network,
    target: NetworkKind,
    objective: MappingObjective,
) -> Network {
    // For each covered cone pick the better of the two resynthesis strategies:
    // the level-oriented decomposition (finds XOR/MUX/MAJ tops) and the
    // area-oriented SOP factoring. The delay objective weighs depth first.
    let rank = |n: &Network| {
        let (depth, gates) = (n.depth() as usize, n.gate_count());
        if objective == MappingObjective::Delay {
            (depth, gates)
        } else {
            (gates, depth)
        }
    };
    let mut strategies: FastMap<TruthTable, SynthesisStrategy> = FastMap::default();
    let mut db = NpnDatabase::new();
    let mut out = Network::with_name(target, source.name().to_string());
    let pis = out.add_inputs(source.input_count());
    let resolve = |r: &NetRef, lut_signal: &[Signal]| match r {
        NetRef::Const(v) => Signal::CONST0.xor_complement(*v),
        NetRef::Input(i) => pis[*i],
        NetRef::Gate(i) => lut_signal[*i],
    };
    let mut lut_signal: Vec<Signal> = Vec::with_capacity(cover.lut_count());
    for l in cover.luts() {
        let leaves: Vec<Signal> = l.fanins.iter().map(|f| resolve(f, &lut_signal)).collect();
        let strategy = *strategies.entry(l.function.clone()).or_insert_with(|| {
            let dec = mch_choice::synthesize(&l.function, target, SynthesisStrategy::Decompose);
            let sop = mch_choice::synthesize(&l.function, target, SynthesisStrategy::SopFactor);
            if rank(&dec) <= rank(&sop) {
                SynthesisStrategy::Decompose
            } else {
                SynthesisStrategy::SopFactor
            }
        });
        lut_signal.push(db.emit(&mut out, &l.function, &leaves, target, strategy));
    }
    for o in cover.outputs() {
        let s = resolve(o, &lut_signal);
        out.add_output(s);
    }
    out.cleanup()
}

/// Graph-maps a plain network (no choices) into the `target` representation.
///
/// # Example
///
/// ```
/// use mch_logic::{cec, Network, NetworkKind};
/// use mch_mapper::MappingObjective;
/// use mch_opt::graph_map;
///
/// let mut aig = Network::new(NetworkKind::Aig);
/// let xs = aig.add_inputs(3);
/// let s = aig.xor(xs[0], xs[1]);
/// let f = aig.maj(s, xs[2], xs[0]);
/// aig.add_output(f);
///
/// let xmg = graph_map(&aig, NetworkKind::Xmg, MappingObjective::Balanced);
/// assert_eq!(xmg.kind(), NetworkKind::Xmg);
/// assert!(cec(&aig, &xmg).holds());
/// ```
pub fn graph_map(
    network: &Network,
    target: NetworkKind,
    objective: MappingObjective,
) -> Network {
    graph_map_with_choices(&ChoiceNetwork::from_network(network), target, objective)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mch_choice::{build_mch, MchParams};
    use mch_logic::cec;

    fn sample() -> Network {
        let mut n = Network::with_name(NetworkKind::Aig, "gm-sample");
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
    fn graph_map_converts_and_preserves_function() {
        let net = sample();
        for target in NetworkKind::homogeneous() {
            for objective in [MappingObjective::Delay, MappingObjective::Area] {
                let mapped = graph_map(&net, target, objective);
                assert_eq!(mapped.kind(), target);
                assert!(cec(&net, &mapped).holds(), "{target} {objective:?}");
            }
        }
    }

    #[test]
    fn xmg_graph_map_uses_majorities_for_adders() {
        let net = sample();
        let xmg = graph_map(&net, NetworkKind::Xmg, MappingObjective::Area);
        let (_, xor, maj) = xmg.gate_profile();
        assert!(maj > 0, "carry chains should become majority gates");
        assert!(xor > 0, "sums should become XOR gates");
        // The XMG should be more compact than the AND-only original.
        assert!(xmg.gate_count() < net.gate_count());
    }

    #[test]
    fn choice_based_graph_map_preserves_function() {
        let net = sample();
        let mch = build_mch(&net, &MchParams::mixed(&[NetworkKind::Mig, NetworkKind::Xmg]));
        let mapped = graph_map_with_choices(&mch, NetworkKind::Xmg, MappingObjective::Area);
        assert!(cec(&net, &mapped).holds());
    }
}
