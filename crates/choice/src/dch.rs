//! The DCH baseline: structural choices from technology-independent
//! optimization snapshots.
//!
//! ABC's `dch` command builds a choice network by combining the original
//! network with the results of running synthesis scripts on it, identifying
//! functionally equivalent nodes across the versions. This module reproduces
//! that behaviour: it takes the original network plus any number of optimized
//! snapshots and links nodes whose simulation signatures agree (up to
//! complement) once exhaustive simulation proves them equivalent. It is the
//! baseline MCH is compared against in Table I.

use crate::choice_network::ChoiceNetwork;
use mch_logic::{
    simulate_gates, simulate_nodes, FastMap, GateKind, Network, NodeId, NodeValues, Prng, Signal,
    TruthTable,
};

/// Number of 64-bit simulation words used for signature matching.
const SIGNATURE_WORDS: usize = 32;

/// Maximum primary-input support for the exact functional check of a tentative
/// link; pairs whose combined support exceeds this are not linked (signature
/// agreement alone is not a proof of equivalence).
const MAX_LINK_SUPPORT: usize = 14;

/// Simulation words per node in one block of the link prover: a proof domain
/// of `MAX_LINK_SUPPORT` inputs takes 16 blocks of 1024 patterns.
const BLOCK_WORDS: usize = 16;

/// A primary-input support of at most [`MAX_LINK_SUPPORT`] inputs: the first
/// `len` entries of `inputs`, sorted by node id, the rest `CONST0`.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
struct Support {
    len: usize,
    inputs: [NodeId; MAX_LINK_SUPPORT],
}

impl Support {
    const EMPTY: Support = Support {
        len: 0,
        inputs: [NodeId::CONST0; MAX_LINK_SUPPORT],
    };

    fn as_slice(&self) -> &[NodeId] {
        &self.inputs[..self.len]
    }

    /// Appends an input above every input held; `None` when already full.
    fn push(mut self, input: NodeId) -> Option<Support> {
        *self.inputs.get_mut(self.len)? = input;
        self.len += 1;
        Some(self)
    }

    /// The union of two supports, or `None` when it exceeds
    /// [`MAX_LINK_SUPPORT`] inputs.
    fn union(&self, other: &Support) -> Option<Support> {
        let (a, b) = (self.as_slice(), other.as_slice());
        let (mut i, mut j) = (0, 0);
        let mut out = Support::EMPTY;
        loop {
            let next = match (a.get(i), b.get(j)) {
                (None, None) => return Some(out),
                (Some(&x), Some(&y)) if x == y => {
                    i += 1;
                    j += 1;
                    x
                }
                (Some(&x), Some(&y)) if x < y => {
                    i += 1;
                    x
                }
                (Some(&x), None) => {
                    i += 1;
                    x
                }
                (_, Some(&y)) => {
                    j += 1;
                    y
                }
            };
            out = out.push(next)?;
        }
    }
}

/// The primary-input support of every node (indexed by node id) in one
/// topological pass; `None` for nodes depending on more than
/// [`MAX_LINK_SUPPORT`] inputs.
fn capped_supports(network: &Network) -> Vec<Option<Support>> {
    let mut supports: Vec<Option<Support>> = Vec::with_capacity(network.len());
    for id in network.node_ids() {
        let node = network.node(id);
        let support = if node.is_input() {
            Support::EMPTY.push(id)
        } else {
            node.fanins().iter().try_fold(Support::EMPTY, |acc, f| {
                acc.union(supports[f.node().index()].as_ref()?)
            })
        };
        supports.push(support);
    }
    supports
}

/// Proves tentative links: entry `k` of the result is `true` when node
/// `pairs[k].0` equals signal `pairs[k].1` on every input assignment.
///
/// A pair whose combined support exceeds [`MAX_LINK_SUPPORT`] inputs is
/// refused. The others are grouped by proof domain: every primary input when
/// the network has at most [`MAX_LINK_SUPPORT`] of them (one group), otherwise
/// the pair's own combined support. Each group's union cone is simulated
/// once, exhaustively over its domain, in blocks of at most [`BLOCK_WORDS`]
/// words per node; a pair is proven when it agrees in every block.
fn prove_links(network: &Network, pairs: &[(NodeId, Signal)]) -> Vec<bool> {
    let supports = capped_supports(network);
    let whole = (network.input_count() <= MAX_LINK_SUPPORT).then(|| {
        let mut inputs = network.inputs().to_vec();
        inputs.sort();
        inputs
            .into_iter()
            .try_fold(Support::EMPTY, Support::push)
            .expect("at most MAX_LINK_SUPPORT inputs")
    });
    let mut groups: Vec<(Support, Vec<usize>)> = Vec::new();
    let mut group_of: FastMap<Support, usize> = FastMap::default();
    for (k, &(repr, cand)) in pairs.iter().enumerate() {
        let (Some(a), Some(b)) = (&supports[repr.index()], &supports[cand.node().index()]) else {
            continue;
        };
        let Some(union) = a.union(b) else {
            continue;
        };
        let domain = whole.unwrap_or(union);
        let g = *group_of.entry(domain).or_insert_with(|| {
            groups.push((domain, Vec::new()));
            groups.len() - 1
        });
        groups[g].1.push(k);
    }

    let mut proven = vec![false; pairs.len()];
    // Node values of the current block, `words` per node at stride `words`.
    let mut values = vec![0u64; network.len() * BLOCK_WORDS];
    let mut visited = vec![usize::MAX; network.len()];
    let mut cone: Vec<NodeId> = Vec::new();
    let mut stack: Vec<NodeId> = Vec::new();
    for (g, (domain, mut open)) in groups.into_iter().enumerate() {
        // The gates of the group's union cone, in topological order.
        cone.clear();
        stack.extend(open.iter().flat_map(|&k| [pairs[k].0, pairs[k].1.node()]));
        while let Some(n) = stack.pop() {
            if std::mem::replace(&mut visited[n.index()], g) == g {
                continue;
            }
            let node = network.node(n);
            if node.is_gate() {
                cone.push(n);
                stack.extend(node.fanins().iter().map(|f| f.node()));
            }
        }
        cone.sort_unstable();

        let vars = domain.len;
        let total_words = 1usize << vars.saturating_sub(6);
        let words = total_words.min(BLOCK_WORDS);
        let patterns: Vec<TruthTable> =
            (0..vars).map(|v| TruthTable::var(vars.max(6), v)).collect();
        // The constant node's row: an earlier group's narrower stride may
        // have written into it.
        values[..words].fill(0);
        for block in 0..total_words / words {
            for (pattern, pi) in patterns.iter().zip(domain.as_slice()) {
                let at = pi.index() * words;
                values[at..at + words].copy_from_slice(&pattern.words()[block * words..][..words]);
            }
            simulate_gates(network, cone.iter().copied(), &mut values, words);
            open.retain(|&k| {
                let (repr, cand) = pairs[k];
                let mask = if cand.is_complement() { !0 } else { 0 };
                let row = |n: NodeId| &values[n.index() * words..][..words];
                row(repr)
                    .iter()
                    .zip(row(cand.node()))
                    .all(|(&x, &y)| x == y ^ mask)
            });
            if open.is_empty() {
                break;
            }
        }
        for k in open {
            proven[k] = true;
        }
    }
    proven
}

/// Builds a choice network from the original network and optimized snapshots.
///
/// Every snapshot must have the same primary-input and primary-output counts
/// as `original`. Snapshot gates are copied into the mixed network and linked
/// to original nodes whose randomized simulation signature matches (directly
/// or complemented). Signature matching only proposes a link, as in
/// SAT-sweeping-based choice construction; in place of the SAT proof, each
/// link is proven by exhaustive simulation over the pair's primary-input
/// support, which may hold at most 14 inputs. Wider pairs are not linked.
/// All snapshots are linked in one sweep (see [`add_snapshot_views`]).
///
/// # Panics
///
/// Panics if a snapshot's interface differs from the original's.
pub fn dch_from_snapshots(original: &Network, snapshots: &[Network]) -> ChoiceNetwork {
    let mut cn = ChoiceNetwork::from_network(original);
    add_snapshot_views(&mut cn, snapshots);
    cn
}

/// Copies one optimized `snapshot` of the same design into an existing
/// choice network and links its nodes to the originals they are proven
/// equivalent to: [`add_snapshot_views`] over a single view.
///
/// Returns the number of new choices recorded.
///
/// # Panics
///
/// Panics if the snapshot's interface differs from the choice network's.
pub fn add_snapshot_choices(cn: &mut ChoiceNetwork, snapshot: &Network) -> usize {
    add_snapshot_views(cn, std::slice::from_ref(snapshot))
}

/// Copies optimized `views` of the same design into an existing choice
/// network, in order, and then links every copied node to the original it is
/// proven equivalent to (see [`dch_from_snapshots`]) in one sweep: one
/// signature simulation, one support pass and one proof pass over all views.
///
/// This is the building block shared by the DCH baseline and the MCH flows
/// that mix whole restructured views (e.g. the XAG or MIG graph-mapped version
/// of the design) into the choice network, in addition to the per-node
/// candidates of Algorithm 2. The result equals [`add_snapshot_choices`] on
/// each view in turn: a node's signature, support and proof depend only on
/// its own cone, and linking never changes the network.
///
/// Returns the number of new choices recorded.
///
/// # Panics
///
/// Panics if a view's interface differs from the choice network's; the
/// choice network is left untouched then.
pub fn add_snapshot_views(cn: &mut ChoiceNetwork, views: &[Network]) -> usize {
    for view in views {
        assert_eq!(
            view.input_count(),
            cn.network().input_count(),
            "snapshot primary inputs must match the original"
        );
        assert_eq!(
            view.output_count(),
            cn.network().output_count(),
            "snapshot primary outputs must match the original"
        );
    }
    let mixed = cn.network_mut();
    let mut copied: Vec<NodeId> = Vec::new();
    for view in views {
        let mut map: Vec<Signal> = vec![Signal::CONST0; view.len()];
        for (i, &pi) in view.inputs().iter().enumerate() {
            map[pi.index()] = mixed.input(i);
        }
        for id in view.gate_ids() {
            let node = view.node(id);
            let f: Vec<Signal> = node
                .fanins()
                .iter()
                .map(|s| map[s.node().index()].xor_complement(s.is_complement()))
                .collect();
            let sig = match node.kind() {
                GateKind::And2 => mixed.and2(f[0], f[1]),
                GateKind::Xor2 => mixed.xor2(f[0], f[1]),
                GateKind::Maj3 => mixed.maj3(f[0], f[1], f[2]),
                _ => unreachable!("gate_ids yields only gates"),
            };
            map[id.index()] = sig;
            copied.push(sig.node());
        }
    }
    link_by_signature(cn, &copied)
}

/// Canonicalizes a signature for phase-insensitive lookup: the first bit is
/// forced to zero by complementing when necessary.
fn canonical_signature(words: &[u64]) -> (Vec<u64>, bool) {
    if words.first().is_some_and(|w| w & 1 == 1) {
        (words.iter().map(|w| !w).collect(), true)
    } else {
        (words.to_vec(), false)
    }
}

/// Randomized simulation signatures of every node.
fn signatures(network: &Network) -> NodeValues {
    let mut rng = Prng::seed_from_u64(0xD0C0_FFEE);
    let patterns: Vec<Vec<u64>> = (0..network.input_count())
        .map(|_| (0..SIGNATURE_WORDS).map(|_| rng.next_u64()).collect())
        .collect();
    simulate_nodes(network, &patterns)
}

/// Tentative links `(representative, candidate)`: every non-original
/// candidate paired with the first original gate whose signature equals its
/// own up to complement, in candidate order.
fn signature_matches(cn: &ChoiceNetwork, candidates: &[NodeId]) -> Vec<(NodeId, Signal)> {
    let network = cn.network();
    let values = signatures(network);

    // Index original gate nodes by canonical signature.
    let mut index: FastMap<Vec<u64>, (NodeId, bool)> = FastMap::default();
    for id in network.gate_ids() {
        if !cn.is_original(id) {
            continue;
        }
        let (key, phase) = canonical_signature(values.row(id));
        index.entry(key).or_insert((id, phase));
    }

    let mut links: Vec<(NodeId, Signal)> = Vec::new();
    for &cand in candidates {
        if cn.is_original(cand) {
            continue;
        }
        let (key, cand_phase) = canonical_signature(values.row(cand));
        if let Some(&(repr, repr_phase)) = index.get(&key) {
            links.push((repr, Signal::new(cand, repr_phase ^ cand_phase)));
        }
    }
    links
}

fn link_by_signature(cn: &mut ChoiceNetwork, candidates: &[NodeId]) -> usize {
    if candidates.is_empty() {
        return 0;
    }
    let links = signature_matches(cn, candidates);
    // A signature match is only a hypothesis; only proven pairs become
    // choices — an unproven choice could silently corrupt the mapped netlist.
    let proven = prove_links(cn.network(), &links);
    let mut added = 0;
    for ((repr, sig), proven) in links.into_iter().zip(proven) {
        if proven && cn.add_choice(repr, sig) {
            added += 1;
        }
    }
    added
}

#[cfg(test)]
mod tests {
    use super::*;
    use mch_logic::{cec, convert, FastSet, Network, NetworkKind};

    /// Reference check: the function of `node` over the primary inputs in
    /// `support` (PI node → variable index), built gate by gate as truth
    /// tables. `None` when the cone reaches a PI outside `support`.
    fn function_over_support(
        network: &Network,
        node: NodeId,
        support: &FastMap<NodeId, usize>,
    ) -> Option<TruthTable> {
        let nvars = support.len();
        let mut values: FastMap<NodeId, TruthTable> = FastMap::default();
        values.insert(NodeId::CONST0, TruthTable::zeros(nvars));
        let mut cone: Vec<NodeId> = Vec::new();
        let mut seen: FastSet<NodeId> = FastSet::default();
        let mut stack = vec![node];
        while let Some(n) = stack.pop() {
            if !seen.insert(n) {
                continue;
            }
            if network.is_input(n) {
                let var = *support.get(&n)?;
                values.insert(n, TruthTable::var(nvars, var));
                continue;
            }
            if n.is_const() {
                continue;
            }
            cone.push(n);
            for f in network.node(n).fanins() {
                stack.push(f.node());
            }
        }
        cone.sort();
        for id in cone {
            let gate = network.node(id);
            let mut fs = Vec::with_capacity(3);
            for s in gate.fanins() {
                let base = values.get(&s.node())?;
                fs.push(if s.is_complement() {
                    base.not()
                } else {
                    base.clone()
                });
            }
            let t = match gate.kind() {
                GateKind::And2 => fs[0].and(&fs[1]),
                GateKind::Xor2 => fs[0].xor(&fs[1]),
                GateKind::Maj3 => TruthTable::maj(&fs[0], &fs[1], &fs[2]),
                _ => return None,
            };
            values.insert(id, t);
        }
        values.get(&node).cloned()
    }

    /// Reference check: the primary-input support of `node`, or `None` when
    /// it exceeds `limit` inputs.
    fn pi_support(network: &Network, node: NodeId, limit: usize) -> Option<Vec<NodeId>> {
        let mut pis: Vec<NodeId> = Vec::new();
        let mut seen: FastSet<NodeId> = FastSet::default();
        let mut stack = vec![node];
        while let Some(n) = stack.pop() {
            if !seen.insert(n) {
                continue;
            }
            if network.is_input(n) {
                pis.push(n);
                if pis.len() > limit {
                    return None;
                }
                continue;
            }
            for f in network.node(n).fanins() {
                stack.push(f.node());
            }
        }
        pis.sort();
        Some(pis)
    }

    /// Reference check: `a` equals `b` (complemented when `phase`) over
    /// their combined support, built as two truth tables per pair; `false`
    /// when the support is too large to check exhaustively.
    fn nodes_equivalent(network: &Network, a: NodeId, b: NodeId, phase: bool) -> bool {
        let Some(sa) = pi_support(network, a, MAX_LINK_SUPPORT) else {
            return false;
        };
        let Some(sb) = pi_support(network, b, MAX_LINK_SUPPORT) else {
            return false;
        };
        let mut union: Vec<NodeId> = sa;
        union.extend(sb);
        union.sort();
        union.dedup();
        if union.len() > MAX_LINK_SUPPORT {
            return false;
        }
        let support: FastMap<NodeId, usize> =
            union.iter().enumerate().map(|(i, &n)| (n, i)).collect();
        let Some(fa) = function_over_support(network, a, &support) else {
            return false;
        };
        let Some(fb) = function_over_support(network, b, &support) else {
            return false;
        };
        if phase {
            fa == fb.not()
        } else {
            fa == fb
        }
    }

    /// A random network mixing And2, Xor2 and Maj3 gates over complemented
    /// and plain fanins drawn from the most recent signals.
    fn random_mixed(inputs: usize, gates: usize, seed: u64) -> Network {
        let mut rng = Prng::seed_from_u64(seed);
        let mut n = Network::with_name(NetworkKind::Mixed, "dch-random");
        let mut pool = n.add_inputs(inputs);
        for _ in 0..gates {
            let mut pick = |pool: &[Signal]| {
                let window = pool.len().min(inputs + 8);
                let s = pool[pool.len() - 1 - rng.gen_range(0..window)];
                s.xor_complement(rng.gen_bool(0.5))
            };
            let (a, b, c) = (pick(&pool), pick(&pool), pick(&pool));
            let g = match rng.gen_range(0..3) {
                0 => n.and2(a, b),
                1 => n.xor2(a, b),
                _ => n.maj3(a, b, c),
            };
            pool.push(g);
        }
        for &s in pool.iter().rev().take(4) {
            n.add_output(s);
        }
        n
    }

    /// The batched prover agrees with the per-pair reference on every
    /// signature-matched pair of AIG and MIG views mixed into random
    /// networks, and on random pairs in either phase (mostly refutations).
    #[test]
    fn prover_verdicts_match_the_per_pair_reference() {
        let mut rng = Prng::seed_from_u64(0xD0C4_0001);
        for inputs in [5, 12, 14, 15, 20] {
            let (mut proven, mut refused, mut complemented) = (0, 0, 0);
            for round in 0..3 {
                let orig = random_mixed(inputs, 60 + 40 * round, rng.next_u64());
                let mut cn = ChoiceNetwork::from_network(&orig);
                add_snapshot_choices(&mut cn, &convert(&orig, NetworkKind::Aig));
                add_snapshot_choices(&mut cn, &convert(&orig, NetworkKind::Mig));
                let network = cn.network();
                let originals: Vec<NodeId> = network
                    .gate_ids()
                    .filter(|&id| cn.is_original(id))
                    .collect();
                let candidates: Vec<NodeId> = network
                    .gate_ids()
                    .filter(|&id| !cn.is_original(id))
                    .collect();
                let mut pairs = signature_matches(&cn, &candidates);
                for _ in 0..candidates.len() / 2 {
                    let repr = originals[rng.gen_range(0..originals.len())];
                    let cand = candidates[rng.gen_range(0..candidates.len())];
                    pairs.push((repr, Signal::new(cand, rng.gen_bool(0.5))));
                }
                let verdicts = prove_links(network, &pairs);
                for (&(repr, sig), &verdict) in pairs.iter().zip(&verdicts) {
                    let expected = nodes_equivalent(network, repr, sig.node(), sig.is_complement());
                    assert_eq!(verdict, expected, "{inputs} PIs: {repr:?} vs {sig:?}");
                    proven += usize::from(verdict);
                    refused += usize::from(!verdict);
                    complemented += usize::from(verdict && sig.is_complement());
                }
            }
            assert!(
                proven > 0 && refused > 0,
                "{inputs} PIs: {proven} proven, {refused} refused"
            );
            assert!(
                complemented > 0,
                "{inputs} PIs: no complemented pair proven"
            );
        }
    }

    #[test]
    fn colliding_signatures_of_different_functions_are_refuted() {
        // The AND of 14 inputs, and the same AND with its last input
        // complemented: each is true on one of 16384 assignments.
        let and14 = |flip: bool| {
            let mut n = Network::new(NetworkKind::Aig);
            let mut x = n.add_inputs(14);
            x[13] = x[13].xor_complement(flip);
            let f = n.and_reduce(&x);
            n.add_output(f);
            n
        };
        let (orig, snap) = (and14(false), and14(true));
        let mut cn = ChoiceNetwork::from_network(&orig);
        let added = add_snapshot_choices(&mut cn, &snap);
        let network = cn.network();
        let f = orig.output(0).node();
        let g = network.gate_ids().last().expect("the snapshot root");
        assert!(!cn.is_original(g));
        let sigs = signatures(network);
        assert_eq!(sigs.row(f), sigs.row(g), "the 32-word signatures collide");
        assert!(!nodes_equivalent(network, f, g, false));
        assert_eq!(prove_links(network, &[(f, g.signal())]), [false]);
        assert_eq!(added, 0);
        assert_eq!(cn.repr_of(g), None);
        assert_eq!(cn.choice_count(), 0);
    }

    /// A network over `inputs` primary inputs with one output per entry of
    /// `widths`: the parity of the first `width` inputs, built as a balanced
    /// tree or as a chain (equivalent, structurally different).
    fn parities(inputs: usize, widths: &[usize], chain: bool) -> Network {
        let mut n = Network::new(NetworkKind::Xag);
        let x = n.add_inputs(inputs);
        for &width in widths {
            let p = if chain {
                x[1..width].iter().fold(x[0], |acc, &s| n.xor2(acc, s))
            } else {
                n.xor_reduce(&x[..width])
            };
            n.add_output(p);
        }
        n
    }

    /// The one gate copied into `cn` whose signature equals `node`'s.
    fn copy_of(cn: &ChoiceNetwork, node: NodeId) -> NodeId {
        let sigs = signatures(cn.network());
        let mut copies = cn
            .network()
            .gate_ids()
            .filter(|&id| !cn.is_original(id) && sigs.row(id) == sigs.row(node));
        let copy = copies.next().expect("a copy with the same signature");
        assert_eq!(copies.next(), None);
        copy
    }

    #[test]
    fn pairs_wider_than_fourteen_inputs_are_skipped() {
        let orig = parities(15, &[15], false);
        let mut cn = ChoiceNetwork::from_network(&orig);
        add_snapshot_choices(&mut cn, &parities(15, &[15], true));
        let f = orig.output(0).node();
        let g = copy_of(&cn, f);
        assert_eq!(pi_support(cn.network(), g, 64).map(|s| s.len()), Some(15));
        assert_eq!(prove_links(cn.network(), &[(f, g.signal())]), [false]);
        assert_eq!(cn.repr_of(g), None);
        // Chain prefixes with a tree counterpart are narrow enough to link.
        assert!(cn.choice_count() > 0);
    }

    #[test]
    fn wide_networks_link_pairs_with_narrow_support() {
        let orig = parities(20, &[12, 20], false);
        let mut cn = ChoiceNetwork::from_network(&orig);
        add_snapshot_choices(&mut cn, &parities(20, &[12, 20], true));
        let (narrow, wide) = (orig.output(0).node(), orig.output(1).node());
        assert_eq!(cn.repr_of(copy_of(&cn, narrow)), Some((narrow, false)));
        assert_eq!(cn.repr_of(copy_of(&cn, wide)), None);
        assert!(cn.verify(16, 5).is_empty());
    }

    #[test]
    fn zero_input_networks_link_nothing() {
        let mut orig = Network::new(NetworkKind::Aig);
        orig.add_output(orig.constant(true));
        orig.add_output(orig.constant(false));
        let mut cn = ChoiceNetwork::from_network(&orig);
        assert_eq!(add_snapshot_choices(&mut cn, &orig.clone()), 0);
        assert!(prove_links(cn.network(), &[]).is_empty());
        assert_eq!(dch_from_snapshots(&orig, &[orig.clone()]).choice_count(), 0);
    }

    fn original() -> Network {
        let mut n = Network::with_name(NetworkKind::Aig, "dch-test");
        let a = n.add_inputs(3);
        let x = n.xor(a[0], a[1]);
        let y = n.and(x, a[2]);
        let z = n.or(y, a[0]);
        n.add_output(z);
        n.add_output(y);
        n
    }

    /// A functionally identical network with a different structure.
    fn restructured() -> Network {
        let mut n = Network::new(NetworkKind::Xag);
        let a = n.add_inputs(3);
        let x = n.xor2(a[0], a[1]);
        let y = n.and2(x, a[2]);
        let z = n.or(y, a[0]);
        n.add_output(z);
        n.add_output(y);
        n
    }

    #[test]
    fn snapshots_contribute_choices() {
        let orig = original();
        let snap = restructured();
        assert!(cec(&orig, &snap).holds());
        let cn = dch_from_snapshots(&orig, &[snap]);
        assert!(
            cn.choice_count() > 0,
            "equivalent snapshot nodes should link"
        );
        assert!(cn.verify(16, 3).is_empty());
        assert!(cec(&orig, &cn.network().cleanup()).holds());
    }

    #[test]
    fn no_snapshots_means_no_choices() {
        let orig = original();
        let cn = dch_from_snapshots(&orig, &[]);
        assert_eq!(cn.choice_count(), 0);
    }

    #[test]
    fn representation_snapshot_links_across_kinds() {
        let orig = original();
        let mig = convert(&orig, NetworkKind::Mig);
        let cn = dch_from_snapshots(&orig, &[mig]);
        assert!(cn.choice_count() > 0);
        assert!(cn.verify(16, 9).is_empty());
    }

    #[test]
    #[should_panic(expected = "primary inputs must match")]
    fn mismatched_snapshot_is_rejected() {
        let orig = original();
        let mut other = Network::new(NetworkKind::Aig);
        let a = other.add_input();
        other.add_output(a);
        let _ = dch_from_snapshots(&orig, &[other]);
    }
}
