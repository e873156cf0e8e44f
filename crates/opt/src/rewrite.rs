//! DAG-aware rewriting and MFFC refactoring — the node-count reducing steps of
//! the `compress2rs`-like script.

use mch_choice::{NpnDatabase, SynthesisStrategy};
use mch_cut::{enumerate_cuts, CutParams};
use mch_logic::{mffc, ConeEvaluator, FastSet, GateKind, Network, NodeId, Signal};

fn copy_gate(out: &mut Network, kind: GateKind, fanins: &[Signal]) -> Signal {
    match kind {
        GateKind::And2 => out.and(fanins[0], fanins[1]),
        GateKind::Xor2 => out.xor(fanins[0], fanins[1]),
        GateKind::Maj3 => out.maj(fanins[0], fanins[1], fanins[2]),
        _ => unreachable!("only gates are copied"),
    }
}

/// Number of gates in the cone of `root` above `leaves` whose fanout stays
/// inside the cone (a cheap proxy for the logic that would disappear if the
/// cone were replaced).
fn exclusive_cone_size(network: &Network, root: NodeId, leaves: &[NodeId]) -> usize {
    let leaf_set: FastSet<NodeId> = leaves.iter().copied().collect();
    let mut cone: FastSet<NodeId> = FastSet::default();
    let mut stack = vec![root];
    while let Some(n) = stack.pop() {
        if leaf_set.contains(&n) || !network.is_gate(n) || !cone.insert(n) {
            continue;
        }
        for f in network.node(n).fanins() {
            stack.push(f.node());
        }
    }
    cone.iter()
        .filter(|&&n| n == root || (network.fanout_count(n) as usize) <= 1)
        .count()
}

/// Cut-based rewriting: every node's best 4-input cut is re-synthesised via
/// the NPN database; the rewritten form replaces the original cone when its
/// standalone gate count is smaller than the cone logic it makes redundant.
///
/// Returns the rewritten (and swept) network; the function of every primary
/// output is preserved.
pub fn rewrite(network: &Network) -> Network {
    rewrite_with(network, SynthesisStrategy::Decompose, 4)
}

/// MFFC refactoring: the maximum fanout-free cone of every node is collapsed
/// and re-expressed as a factored SOP; the new form is kept when smaller.
pub fn refactor(network: &Network) -> Network {
    rewrite_with(network, SynthesisStrategy::SopFactor, 6)
}

fn rewrite_with(network: &Network, strategy: SynthesisStrategy, cut_size: usize) -> Network {
    let cuts = enumerate_cuts(network, &CutParams::new(cut_size, 6));
    let mut db = NpnDatabase::new();
    let mut cones = ConeEvaluator::new();
    let mut out = Network::with_name(network.kind(), network.name().to_string());
    let mut map: Vec<Signal> = vec![Signal::CONST0; network.len()];
    for &pi in network.inputs() {
        map[pi.index()] = out.add_input();
    }
    for id in network.gate_ids() {
        let node = network.node(id);
        let direct_fanins: Vec<Signal> = node
            .fanins()
            .iter()
            .map(|s| map[s.node().index()].xor_complement(s.is_complement()))
            .collect();

        // Find the most promising replacement candidate among the node's cuts.
        let mut best: Option<(usize, Vec<NodeId>, mch_logic::TruthTable)> = None;
        for cut in cuts.of(id).iter() {
            if cut.is_trivial() || cut.size() < 3 {
                continue;
            }
            let gain_bound = exclusive_cone_size(network, id, cut.leaves());
            if gain_bound < 2 {
                continue;
            }
            let candidate =
                mch_choice::synthesize(cut.function(), network.kind(), strategy);
            let cost = candidate.gate_count();
            if cost < gain_bound
                && best.as_ref().is_none_or(|(c, _, _)| cost < *c)
            {
                best = Some((cost, cut.leaves().to_vec(), cut.function().clone()));
            }
        }
        // Additionally consider the MFFC for the SOP strategy (refactoring).
        if strategy == SynthesisStrategy::SopFactor {
            let cone = mffc(network, id, 8);
            if cone.size() >= 3 && cone.leaves.len() >= 2 && cone.leaves.len() <= 8 {
                let mut leaves = cone.leaves.clone();
                leaves.sort();
                if let Some(f) = cones.function(network, &cone.nodes, id, &leaves) {
                    let candidate = mch_choice::synthesize(&f, network.kind(), strategy);
                    let cost = candidate.gate_count();
                    if cost < cone.size() && best.as_ref().is_none_or(|(c, _, _)| cost < *c) {
                        best = Some((cost, leaves, f));
                    }
                }
            }
        }

        map[id.index()] = match best {
            Some((_, leaves, function)) => {
                let leaf_sigs: Vec<Signal> =
                    leaves.iter().map(|l| map[l.index()]).collect();
                db.emit(&mut out, &function, &leaf_sigs, network.kind(), strategy)
            }
            None => copy_gate(&mut out, node.kind(), &direct_fanins),
        };
    }
    for &o in network.outputs() {
        out.add_output(map[o.node().index()].xor_complement(o.is_complement()));
    }
    let swept = out.cleanup();
    // Rewriting must never lose the original network's function; the gain
    // heuristic is local, so guard against global regressions in size.
    if swept.gate_count() <= network.gate_count() {
        swept
    } else {
        network.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mch_logic::{cec, NetworkKind};

    fn redundant_network() -> Network {
        // Builds a deliberately wasteful structure: XORs expanded by hand with
        // extra duplicated logic that rewriting should clean up.
        let mut n = Network::with_name(NetworkKind::Aig, "redundant");
        let xs = n.add_inputs(6);
        let mut parts = Vec::new();
        for i in 0..3 {
            let a = xs[2 * i];
            let b = xs[2 * i + 1];
            let t1 = n.and2(a, !b);
            let t2 = n.and2(!a, b);
            let x = n.or(t1, t2); // a ^ b expanded
            let redundant = n.and2(x, x);
            parts.push(redundant);
        }
        let o1 = n.and2(parts[0], parts[1]);
        let o2 = n.and2(o1, parts[2]);
        n.add_output(o2);
        n
    }

    #[test]
    fn rewrite_preserves_function_and_does_not_grow() {
        let n = redundant_network();
        let r = rewrite(&n);
        assert!(cec(&n, &r).holds());
        assert!(r.gate_count() <= n.gate_count());
    }

    #[test]
    fn refactor_preserves_function_and_does_not_grow() {
        let n = redundant_network();
        let r = refactor(&n);
        assert!(cec(&n, &r).holds());
        assert!(r.gate_count() <= n.gate_count());
    }

    #[test]
    fn refactor_shrinks_unfactored_sop() {
        // f = a&c | a&d | b&c | b&d should refactor to (a|b)&(c|d): 8 ANDs -> 3 gates.
        let mut n = Network::new(NetworkKind::Aig);
        let xs = n.add_inputs(4);
        let mut terms = Vec::new();
        for &x in &xs[0..2] {
            for &y in &xs[2..4] {
                terms.push(n.and2(x, y));
            }
        }
        let f = n.or_reduce(&terms);
        n.add_output(f);
        let before = n.gate_count();
        let r = refactor(&n);
        assert!(cec(&n, &r).holds());
        assert!(r.gate_count() < before, "{} !< {}", r.gate_count(), before);
    }

    #[test]
    fn rewrite_works_on_xmg() {
        let mut n = Network::new(NetworkKind::Xmg);
        let xs = n.add_inputs(5);
        let m = n.maj3(xs[0], xs[1], xs[2]);
        let x = n.xor2(m, xs[3]);
        let y = n.maj3(x, xs[4], m);
        n.add_output(y);
        let r = rewrite(&n);
        assert!(cec(&n, &r).holds());
    }
}
