//! Choice networks: a mixed network plus equivalence classes between
//! *representative* nodes (the original structure) and *choice* nodes
//! (functionally equivalent candidate structures).

use mch_logic::{simulate_nodes, GateKind, Network, NetworkKind, NodeId, Prng, Signal};
use std::collections::BTreeMap;

/// A mixed network with structural choices.
///
/// The network always contains the original structure; candidate structures
/// added later share its primary inputs and are linked to original nodes
/// through equivalence classes. Representative nodes are the original nodes;
/// each may own any number of choice nodes, each with a phase flag (`true`
/// when the choice computes the complement of the representative).
///
/// # Determinism
///
/// Choice classes are stored in id-sorted structures ([`BTreeMap`]s), so
/// every iteration a consumer can observe —
/// [`representatives`](ChoiceNetwork::representatives),
/// [`verify`](ChoiceNetwork::verify), equality comparison — is in ascending
/// node-id order, independent of any hasher seed. (An earlier revision kept `HashMap`s here; the mapper's
/// choice transfer had to sort around it, and anything that forgot inherited
/// run-to-run nondeterminism from the source.) Two choice networks built the
/// same way therefore compare equal with `==`, down to the underlying
/// network's node vector.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct ChoiceNetwork {
    network: Network,
    original_len: usize,
    choices: BTreeMap<NodeId, Vec<(NodeId, bool)>>,
    repr: BTreeMap<NodeId, (NodeId, bool)>,
}

impl ChoiceNetwork {
    /// Creates a choice network containing only the original structure.
    ///
    /// The original network is copied verbatim into a [`NetworkKind::Mixed`]
    /// network; node ids are preserved, so ids of `network` remain valid in
    /// the choice network.
    pub fn from_network(network: &Network) -> Self {
        let mut mixed = Network::with_name(NetworkKind::Mixed, network.name().to_string());
        for _ in 0..network.input_count() {
            mixed.add_input();
        }
        for id in network.gate_ids() {
            let node = network.node(id);
            let f: Vec<Signal> = node.fanins().to_vec();
            let new = match node.kind() {
                GateKind::And2 => mixed.and2(f[0], f[1]),
                GateKind::Xor2 => mixed.xor2(f[0], f[1]),
                GateKind::Maj3 => mixed.maj3(f[0], f[1], f[2]),
                _ => unreachable!("gate_ids yields only gates"),
            };
            debug_assert_eq!(new.node(), id, "verbatim copy must preserve node ids");
            debug_assert!(!new.is_complement());
        }
        for &o in network.outputs() {
            mixed.add_output(o);
        }
        debug_assert_eq!(mixed.len(), network.len());
        ChoiceNetwork {
            original_len: network.len(),
            network: mixed,
            choices: BTreeMap::new(),
            repr: BTreeMap::new(),
        }
    }

    /// The underlying mixed network.
    pub fn network(&self) -> &Network {
        &self.network
    }

    /// Mutable access to the underlying mixed network, used by the MCH
    /// construction to emit candidate cones.
    pub fn network_mut(&mut self) -> &mut Network {
        &mut self.network
    }

    /// Number of nodes belonging to the original structure.
    pub fn original_len(&self) -> usize {
        self.original_len
    }

    /// Returns `true` if `node` belongs to the original structure (and is
    /// therefore a representative or a primary input/constant).
    pub fn is_original(&self, node: NodeId) -> bool {
        node.index() < self.original_len
    }

    /// Records that `candidate` computes the same function as representative
    /// `repr` (up to the complement encoded in the candidate signal).
    ///
    /// Requests are ignored when the candidate *is* the representative, when
    /// the candidate is part of the original structure, or when the candidate
    /// already belongs to another equivalence class.
    ///
    /// Returns `true` if the choice was recorded.
    pub fn add_choice(&mut self, repr: NodeId, candidate: Signal) -> bool {
        let cand_node = candidate.node();
        if cand_node == repr || cand_node.is_const() {
            return false;
        }
        if self.is_original(cand_node) {
            // Structural hashing resolved the candidate onto existing original
            // logic — nothing new to offer the mapper.
            return false;
        }
        if self.repr.contains_key(&cand_node) {
            return false;
        }
        let phase = candidate.is_complement();
        self.repr.insert(cand_node, (repr, phase));
        let entry = self.choices.entry(repr).or_default();
        if entry.iter().any(|&(n, _)| n == cand_node) {
            return false;
        }
        entry.push((cand_node, phase));
        true
    }

    /// The choices recorded for representative `repr`.
    pub fn choices_of(&self, repr: NodeId) -> &[(NodeId, bool)] {
        self.choices.get(&repr).map(Vec::as_slice).unwrap_or(&[])
    }

    /// The representative (and phase) of a choice node, if any.
    pub fn repr_of(&self, node: NodeId) -> Option<(NodeId, bool)> {
        self.repr.get(&node).copied()
    }

    /// Representatives that own at least one choice, in ascending id order
    /// (guaranteed — consumers may rely on it for deterministic scheduling).
    pub fn representatives(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.choices.keys().copied()
    }

    /// Total number of choice nodes in the network.
    pub fn choice_count(&self) -> usize {
        self.choices.values().map(Vec::len).sum()
    }

    /// Verifies every recorded equivalence by randomized simulation.
    ///
    /// Returns the list of `(representative, choice)` pairs whose simulated
    /// values differ — an empty vector means no discrepancy was observed.
    /// Pairs are reported in ascending representative-id order.
    pub fn verify(&self, words: usize, seed: u64) -> Vec<(NodeId, NodeId)> {
        if self.choices.is_empty() {
            return Vec::new();
        }
        let mut rng = Prng::seed_from_u64(seed);
        let patterns: Vec<Vec<u64>> = (0..self.network.input_count())
            .map(|_| (0..words).map(|_| rng.next_u64()).collect())
            .collect();
        let values = simulate_nodes(&self.network, &patterns);
        let mut bad = Vec::new();
        for (&repr, list) in &self.choices {
            for &(choice, phase) in list {
                let mask = if phase { !0 } else { 0 };
                let equal = values
                    .row(repr)
                    .iter()
                    .zip(values.row(choice))
                    .all(|(&a, &b)| a == b ^ mask);
                if !equal {
                    bad.push((repr, choice));
                }
            }
        }
        bad
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mch_logic::{Network, NetworkKind};

    fn base() -> (Network, Signal, Signal, Signal) {
        let mut n = Network::new(NetworkKind::Aig);
        let a = n.add_input();
        let b = n.add_input();
        let f = n.and2(a, b);
        n.add_output(f);
        (n, a, b, f)
    }

    #[test]
    fn from_network_preserves_ids_and_outputs() {
        let (n, _, _, f) = base();
        let cn = ChoiceNetwork::from_network(&n);
        assert_eq!(cn.network().len(), n.len());
        assert_eq!(cn.network().outputs(), n.outputs());
        assert!(cn.is_original(f.node()));
        assert_eq!(cn.choice_count(), 0);
    }

    #[test]
    fn add_choice_links_candidate() {
        let (n, a, b, f) = base();
        let mut cn = ChoiceNetwork::from_network(&n);
        // Candidate: !(!a | !b) == a & b built as an OR-of-inverters (NOR form).
        let cand = {
            let net = cn.network_mut();
            let o = net.maj3(!a, !b, Signal::CONST1); // !a | !b as a majority
            !o
        };
        assert!(cn.add_choice(f.node(), cand));
        assert_eq!(cn.choice_count(), 1);
        assert_eq!(cn.repr_of(cand.node()), Some((f.node(), cand.is_complement())));
        assert_eq!(cn.choices_of(f.node()).len(), 1);
        assert!(cn.verify(8, 7).is_empty());
    }

    #[test]
    fn add_choice_rejects_self_and_duplicates() {
        let (n, a, b, f) = base();
        let mut cn = ChoiceNetwork::from_network(&n);
        assert!(!cn.add_choice(f.node(), f));
        let cand = {
            let net = cn.network_mut();
            net.maj3(a, b, Signal::CONST0)
        };
        assert!(cn.add_choice(f.node(), cand));
        assert!(!cn.add_choice(f.node(), cand));
        // A second representative cannot claim the same candidate node.
        assert!(!cn.add_choice(a.node(), cand));
    }

    #[test]
    fn add_choice_rejects_original_nodes() {
        let mut n = Network::new(NetworkKind::Aig);
        let a = n.add_input();
        let b = n.add_input();
        let f = n.and2(a, b);
        let g = n.and2(a, !b);
        n.add_output(f);
        n.add_output(g);
        let mut cn = ChoiceNetwork::from_network(&n);
        // g is part of the original structure; it cannot become a choice of f.
        assert!(!cn.add_choice(f.node(), g));
    }

    #[test]
    fn verify_detects_wrong_choices() {
        let (n, a, b, f) = base();
        let mut cn = ChoiceNetwork::from_network(&n);
        let wrong = {
            let net = cn.network_mut();
            net.maj3(a, !b, Signal::CONST0) // a & !b, NOT equivalent to a & b
        };
        assert!(cn.add_choice(f.node(), wrong));
        assert_eq!(cn.verify(8, 3).len(), 1);
    }

    #[test]
    fn representatives_iterate_in_ascending_id_order() {
        // Insert choices against representatives in scrambled order; the
        // iteration (and everything derived from it: scheduling, arena
        // layouts, verification reports) must come back id-sorted.
        let mut n = Network::new(NetworkKind::Aig);
        let xs = n.add_inputs(4);
        let g1 = n.and2(xs[0], xs[1]);
        let g2 = n.and2(xs[2], xs[3]);
        let g3 = n.and2(g1, g2);
        n.add_output(g3);
        let mut cn = ChoiceNetwork::from_network(&n);
        for &repr in [g3, g1, g2].iter() {
            let cand = {
                let net = cn.network_mut();
                let inner = net.node(repr.node()).fanins().to_vec();
                let o = net.maj3(!inner[0], !inner[1], Signal::CONST1);
                !o
            };
            assert!(cn.add_choice(repr.node(), cand), "candidate for {repr}");
        }
        let reprs: Vec<NodeId> = cn.representatives().collect();
        let mut sorted = reprs.clone();
        sorted.sort_unstable();
        assert_eq!(reprs, sorted, "representatives must iterate id-sorted");
        assert_eq!(reprs.len(), 3);
        assert!(cn.verify(16, 1).is_empty());
    }

    #[test]
    fn equal_construction_sequences_compare_equal() {
        let (n, a, b, f) = base();
        let build = || {
            let mut cn = ChoiceNetwork::from_network(&n);
            let cand = {
                let net = cn.network_mut();
                net.maj3(a, b, Signal::CONST0)
            };
            cn.add_choice(f.node(), cand);
            cn
        };
        assert_eq!(build(), build());
    }
}
