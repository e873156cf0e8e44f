//! The synthesis-strategy library used by the multi-strategy structural
//! choice algorithm (Algorithm 2).
//!
//! A strategy is a way of re-synthesising a small Boolean function into a
//! candidate structure; paired with a target representation it produces a
//! structurally distinct but functionally equivalent cone that the choice
//! network can offer to the mapper.

use crate::dsd::emit_decomposed;
use crate::sop::{emit_factored, isop};
use mch_logic::{GateKind, Network, NetworkKind, Signal, TruthTable};

/// How a candidate function is re-synthesised.
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug)]
pub enum SynthesisStrategy {
    /// Top-down disjoint-support / Shannon decomposition. Exposes shallow XOR
    /// and MUX tops — the *level-oriented* strategy of the paper.
    Decompose,
    /// Irredundant SOP extraction followed by algebraic factoring. Minimises
    /// literals — the *area-oriented* strategy of the paper.
    SopFactor,
}

/// A (strategy, target representation) pair.
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug)]
pub struct StrategyEntry {
    /// The resynthesis method.
    pub strategy: SynthesisStrategy,
    /// The representation style the candidate is emitted in.
    pub kind: NetworkKind,
}

/// The synthesis-strategy library (`lib` in Algorithms 1 and 2).
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct StrategyLibrary {
    entries: Vec<StrategyEntry>,
}

impl StrategyLibrary {
    /// Creates a library from explicit entries.
    pub fn new(entries: Vec<StrategyEntry>) -> Self {
        StrategyLibrary { entries }
    }

    /// Level-oriented strategies (decomposition) in each requested style.
    pub fn level_oriented(kinds: &[NetworkKind]) -> Self {
        StrategyLibrary {
            entries: kinds
                .iter()
                .map(|&kind| StrategyEntry {
                    strategy: SynthesisStrategy::Decompose,
                    kind,
                })
                .collect(),
        }
    }

    /// Area-oriented strategies (SOP factoring) in each requested style.
    pub fn area_oriented(kinds: &[NetworkKind]) -> Self {
        StrategyLibrary {
            entries: kinds
                .iter()
                .map(|&kind| StrategyEntry {
                    strategy: SynthesisStrategy::SopFactor,
                    kind,
                })
                .collect(),
        }
    }

    /// The entries of the library.
    pub fn entries(&self) -> &[StrategyEntry] {
        &self.entries
    }

    /// Returns `true` if the library holds no strategies.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

/// Synthesises `function` as a standalone network of the given representation
/// using `strategy`. The network has one primary input per variable (in
/// order) and a single primary output.
pub fn synthesize(
    function: &TruthTable,
    kind: NetworkKind,
    strategy: SynthesisStrategy,
) -> Network {
    let mut net = Network::new(kind);
    let leaves = net.add_inputs(function.num_vars());
    let out = match strategy {
        SynthesisStrategy::Decompose => emit_decomposed(&mut net, function, &leaves),
        SynthesisStrategy::SopFactor => {
            let cubes = isop(function);
            emit_factored(&mut net, &cubes, &leaves)
        }
    };
    net.add_output(out);
    net
}

/// Copies a single-output sub-network into `target`, binding sub-network
/// input `i` to `leaves[i]`, and returns the signal of the sub-network's
/// output inside `target`.
///
/// The copy is structural (`and2`/`xor2`/`maj3` are re-emitted verbatim), so
/// `target` must allow every gate kind used by `sub` — in practice `target`
/// is the mixed choice network, which allows everything.
///
/// # Panics
///
/// Panics if `sub` does not have exactly one output or if the number of
/// leaves differs from its input count.
pub fn import_subnetwork(target: &mut Network, sub: &Network, leaves: &[Signal]) -> Signal {
    assert_eq!(sub.output_count(), 1, "candidate sub-networks have one output");
    assert_eq!(
        leaves.len(),
        sub.input_count(),
        "one leaf signal per sub-network input required"
    );
    let mut map: Vec<Signal> = vec![Signal::CONST0; sub.len()];
    for (i, &pi) in sub.inputs().iter().enumerate() {
        map[pi.index()] = leaves[i];
    }
    for id in sub.gate_ids() {
        let node = sub.node(id);
        let f: Vec<Signal> = node
            .fanins()
            .iter()
            .map(|s| map[s.node().index()].xor_complement(s.is_complement()))
            .collect();
        map[id.index()] = match node.kind() {
            GateKind::And2 => target.and2(f[0], f[1]),
            GateKind::Xor2 => target.xor2(f[0], f[1]),
            GateKind::Maj3 => target.maj3(f[0], f[1], f[2]),
            _ => unreachable!("gate_ids yields only gates"),
        };
    }
    let out = sub.output(0);
    map[out.node().index()].xor_complement(out.is_complement())
}

#[cfg(test)]
mod tests {
    use super::*;
    use mch_logic::output_truth_tables;

    fn sample_function() -> TruthTable {
        let a = TruthTable::var(4, 0);
        let b = TruthTable::var(4, 1);
        let c = TruthTable::var(4, 2);
        let d = TruthTable::var(4, 3);
        a.and(&b).or(&c.xor(&d))
    }

    #[test]
    fn synthesize_round_trips_for_all_strategies_and_kinds() {
        let f = sample_function();
        for strategy in [SynthesisStrategy::Decompose, SynthesisStrategy::SopFactor] {
            for kind in NetworkKind::homogeneous() {
                let net = synthesize(&f, kind, strategy);
                assert_eq!(net.kind(), kind);
                assert_eq!(output_truth_tables(&net)[0], f, "{strategy:?} {kind:?}");
            }
        }
    }

    #[test]
    fn strategies_produce_structurally_different_candidates() {
        let f = sample_function();
        let dec = synthesize(&f, NetworkKind::Xag, SynthesisStrategy::Decompose);
        let sop = synthesize(&f, NetworkKind::Aig, SynthesisStrategy::SopFactor);
        // The XAG decomposition finds the XOR top, the AIG SOP must expand it.
        let (_, xor_dec, _) = dec.gate_profile();
        let (_, xor_sop, _) = sop.gate_profile();
        assert!(xor_dec >= 1);
        assert_eq!(xor_sop, 0);
    }

    #[test]
    fn import_binds_leaves_and_preserves_function() {
        let f = sample_function();
        let sub = synthesize(&f, NetworkKind::Xmg, SynthesisStrategy::Decompose);

        let mut host = Network::new(NetworkKind::Mixed);
        let xs = host.add_inputs(4);
        // Bind leaves in reverse order with one complemented to exercise the mapping.
        let leaves = vec![!xs[3], xs[2], xs[1], xs[0]];
        let out = import_subnetwork(&mut host, &sub, &leaves);
        host.add_output(out);

        let expected = {
            // f(!x3, x2, x1, x0) over host inputs x0..x3.
            let x0 = TruthTable::var(4, 0);
            let x1 = TruthTable::var(4, 1);
            let x2 = TruthTable::var(4, 2);
            let x3 = TruthTable::var(4, 3);
            // original: a&b | (c^d) with a=!x3, b=x2, c=x1, d=x0
            x3.not().and(&x2).or(&x1.xor(&x0))
        };
        assert_eq!(output_truth_tables(&host)[0], expected);
    }

    #[test]
    fn strategy_library_constructors() {
        let level = StrategyLibrary::level_oriented(&[NetworkKind::Aig, NetworkKind::Xmg]);
        assert_eq!(level.entries().len(), 2);
        assert!(level
            .entries()
            .iter()
            .all(|e| e.strategy == SynthesisStrategy::Decompose));
        let area = StrategyLibrary::area_oriented(&[NetworkKind::Mig]);
        assert_eq!(area.entries().len(), 1);
        assert!(StrategyLibrary::default().is_empty());
    }
}
