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
use mch_logic::{Network, NetworkKind, Signal, TruthTable};
use mch_mapper::{map_lut, LutMapParams, MappingObjective, NetRef};
use mch_techlib::LutLibrary;
use std::collections::HashMap;

/// Cut size used when harvesting cones for graph mapping.
const GRAPH_MAP_CUT_SIZE: usize = 4;

/// Graph-maps a choice network into the `target` representation.
///
/// The subject graph is covered with 4-input cuts by the choice-aware LUT
/// mapper; each selected cut is then re-synthesised in the target
/// representation (level-oriented decomposition for the delay objective,
/// SOP factoring otherwise).
pub fn graph_map_with_choices(
    choice: &ChoiceNetwork,
    target: NetworkKind,
    objective: MappingObjective,
) -> Network {
    let lut = LutLibrary::new(GRAPH_MAP_CUT_SIZE, 1.0, 1.0);
    // Serial: a flow already builds its views in parallel, and the default
    // thread count would parallelise only the view built on the calling
    // thread (one built inside a fan-out job runs serially anyway).
    let params = LutMapParams::new(objective).with_threads(1);
    let cover = map_lut(choice, &lut, &params);

    // For each covered cone pick the better of the two resynthesis strategies:
    // the level-oriented decomposition (finds XOR/MUX/MAJ tops) and the
    // area-oriented SOP factoring. The delay objective weighs depth first.
    let mut strategy_cache: HashMap<TruthTable, SynthesisStrategy> = HashMap::new();
    let mut choose_strategy = |f: &TruthTable| -> SynthesisStrategy {
        if let Some(&s) = strategy_cache.get(f) {
            return s;
        }
        let dec = mch_choice::synthesize(f, target, SynthesisStrategy::Decompose);
        let sop = mch_choice::synthesize(f, target, SynthesisStrategy::SopFactor);
        let key_dec = if objective == MappingObjective::Delay {
            (dec.depth() as usize, dec.gate_count())
        } else {
            (dec.gate_count(), dec.depth() as usize)
        };
        let key_sop = if objective == MappingObjective::Delay {
            (sop.depth() as usize, sop.gate_count())
        } else {
            (sop.gate_count(), sop.depth() as usize)
        };
        let s = if key_dec <= key_sop {
            SynthesisStrategy::Decompose
        } else {
            SynthesisStrategy::SopFactor
        };
        strategy_cache.insert(f.clone(), s);
        s
    };
    let mut db = NpnDatabase::new();
    let source = choice.network();
    let mut out = Network::with_name(target, source.name().to_string());
    let pis = out.add_inputs(source.input_count());
    let mut lut_signal: Vec<Signal> = Vec::with_capacity(cover.lut_count());
    for l in cover.luts() {
        let leaves: Vec<Signal> = l
            .fanins
            .iter()
            .map(|f| match f {
                NetRef::Const(v) => out.constant(*v),
                NetRef::Input(i) => pis[*i],
                NetRef::Gate(i) => lut_signal[*i],
            })
            .collect();
        let strategy = choose_strategy(&l.function);
        let s = db.emit(&mut out, &l.function, &leaves, target, strategy);
        lut_signal.push(s);
    }
    for o in cover.outputs() {
        let s = match o {
            NetRef::Const(v) => out.constant(*v),
            NetRef::Input(i) => pis[*i],
            NetRef::Gate(i) => lut_signal[*i],
        };
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
