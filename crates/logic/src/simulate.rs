//! Bit-parallel simulation and combinational equivalence checking.
//!
//! One kernel, [`simulate_gates`], evaluates AND/XOR/MAJ gates over a flat
//! arena of `u64` words, `words` per node at stride `words`, with complemented
//! edges applied as XOR masks. Whole-network simulation ([`simulate_nodes`],
//! [`simulate`], [`output_truth_tables`]), the equivalence checks built on it
//! ([`cec`]) and cone functions ([`ConeEvaluator`]) all run on it. [`cec`] is
//! the reproduction's stand-in for ABC's `cec` command: small networks are
//! checked exhaustively, larger ones with randomized simulation (see the
//! README, "Substitutions").

use crate::rng::Prng;
use crate::{GateKind, Network, NodeId, Signal, TruthTable};

/// Outcome of an equivalence check.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum Equivalence {
    /// The networks were proven equivalent by exhaustive simulation.
    Equivalent,
    /// No mismatch was found by randomized simulation (not a proof).
    ProbablyEquivalent,
    /// A counterexample distinguishing the networks was found.
    NotEquivalent,
    /// The interfaces differ (input or output counts do not match).
    InterfaceMismatch,
}

impl Equivalence {
    /// `true` for [`Equivalence::Equivalent`] and
    /// [`Equivalence::ProbablyEquivalent`].
    pub fn holds(self) -> bool {
        matches!(self, Equivalence::Equivalent | Equivalence::ProbablyEquivalent)
    }
}

/// Evaluates `gates` in the order given, which must be ascending id order,
/// over a flat arena: the row of node `id` is `values[id * words..][..words]`.
///
/// Every row a gate reads that `gates` does not write (primary inputs, the
/// constant node, the leaves of a cone) must be filled in already.
/// Complemented fanin edges are applied as XOR masks; each gate's own row is
/// written in positive polarity.
///
/// # Panics
///
/// Panics if an entry of `gates` is not a gate, or if `values` holds no row
/// for it.
pub fn simulate_gates(
    network: &Network,
    gates: impl IntoIterator<Item = NodeId>,
    values: &mut [u64],
    words: usize,
) {
    for id in gates {
        // Fanins precede their gate, so their rows sit in `done`.
        let (done, rest) = values.split_at_mut(id.index() * words);
        let out = &mut rest[..words];
        let arg = |s: Signal| {
            let at = s.node().index() * words;
            (
                &done[at..at + words],
                if s.is_complement() { !0 } else { 0 },
            )
        };
        let node = network.node(id);
        let f = node.fanins();
        let (a, ma) = arg(f[0]);
        let (b, mb) = arg(f[1]);
        match node.kind() {
            GateKind::And2 => {
                for ((o, &x), &y) in out.iter_mut().zip(a).zip(b) {
                    *o = (x ^ ma) & (y ^ mb);
                }
            }
            GateKind::Xor2 => {
                for ((o, &x), &y) in out.iter_mut().zip(a).zip(b) {
                    *o = x ^ y ^ ma ^ mb;
                }
            }
            GateKind::Maj3 => {
                let (c, mc) = arg(f[2]);
                for (((o, &x), &y), &z) in out.iter_mut().zip(a).zip(b).zip(c) {
                    let (x, y, z) = (x ^ ma, y ^ mb, z ^ mc);
                    *o = (x & y) | (x & z) | (y & z);
                }
            }
            _ => panic!("simulate_gates evaluates only gates"),
        }
    }
}

/// The value words of every node of a simulated network, in positive
/// polarity: one flat arena of [`words`](NodeValues::words) words per node,
/// indexed by node id.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct NodeValues {
    words: usize,
    values: Vec<u64>,
}

impl NodeValues {
    /// Simulation words per node.
    pub fn words(&self) -> usize {
        self.words
    }

    /// The value words of `node`.
    ///
    /// # Panics
    ///
    /// Panics if `node` is not a node of the simulated network.
    pub fn row(&self, node: NodeId) -> &[u64] {
        &self.values[node.index() * self.words..][..self.words]
    }
}

/// Simulates the network on word-parallel input patterns and returns the
/// value words of **every node**.
///
/// `patterns[i]` holds the stimulus words of primary input `i`; all inputs
/// must have the same number of words. A zero-input network is simulated on
/// one word, so that its constants still have values to read. Node values
/// are in positive polarity; complemented output edges are *not* applied
/// (use [`simulate`] for that).
///
/// # Panics
///
/// Panics if the number of pattern rows differs from the input count or the
/// rows have inconsistent lengths.
pub fn simulate_nodes(network: &Network, patterns: &[Vec<u64>]) -> NodeValues {
    assert_eq!(
        patterns.len(),
        network.input_count(),
        "one pattern row per primary input required"
    );
    let words = patterns.first().map_or(1, Vec::len);
    let mut values = vec![0; network.len() * words];
    for (row, &pi) in patterns.iter().zip(network.inputs()) {
        assert_eq!(row.len(), words, "inconsistent pattern widths");
        values[pi.index() * words..][..words].copy_from_slice(row);
    }
    simulate_gates(network, network.gate_ids(), &mut values, words);
    NodeValues { words, values }
}

/// Simulates the network on word-parallel input patterns.
///
/// `patterns[i]` holds the stimulus words of primary input `i`; all inputs
/// must have the same number of words. Returns one vector of words per
/// primary output (complemented output edges are applied).
///
/// # Panics
///
/// Panics if the number of pattern rows differs from the input count or the
/// rows have inconsistent lengths.
pub fn simulate(network: &Network, patterns: &[Vec<u64>]) -> Vec<Vec<u64>> {
    let values = simulate_nodes(network, patterns);
    network
        .outputs()
        .iter()
        .map(|out| {
            let mask = if out.is_complement() { !0 } else { 0 };
            values.row(out.node()).iter().map(|w| w ^ mask).collect()
        })
        .collect()
}

/// Computes the complete truth table of every primary output.
///
/// # Panics
///
/// Panics if the network has more than 16 primary inputs.
pub fn output_truth_tables(network: &Network) -> Vec<TruthTable> {
    let n = network.input_count();
    assert!(n <= 16, "exhaustive truth tables limited to 16 inputs");
    let patterns: Vec<Vec<u64>> = (0..n)
        .map(|i| TruthTable::var(n, i).words().to_vec())
        .collect();
    simulate(network, &patterns)
        .into_iter()
        .map(|words| TruthTable::from_words(n, words))
        .collect()
}

/// Computes cone functions on [`simulate_gates`], reusing one arena across
/// calls.
#[derive(Clone, Default, Debug)]
pub struct ConeEvaluator {
    sorted: Vec<NodeId>,
    values: Vec<u64>,
}

impl ConeEvaluator {
    /// An evaluator with an empty arena.
    pub fn new() -> ConeEvaluator {
        ConeEvaluator::default()
    }

    /// The function of `root` over the gates of `cone`, with variable `i`
    /// reading `leaves[i]`; `None` without leaves or with more than eight.
    ///
    /// `cone` must hold `root` and be complete, as an untruncated
    /// [`mffc`](crate::mffc) is: every fanin of a cone gate is a cone gate, a
    /// leaf or the constant node. A constant leaf reads as the constant.
    pub fn function(
        &mut self,
        network: &Network,
        cone: &[NodeId],
        root: NodeId,
        leaves: &[NodeId],
    ) -> Option<TruthTable> {
        let n = leaves.len();
        if n == 0 || n > 8 {
            return None;
        }
        let words = 1 << n.saturating_sub(6);
        self.sorted.clear();
        self.sorted.extend_from_slice(cone);
        self.sorted.sort_unstable();
        let top = self.sorted.iter().chain(leaves).max()?.index();
        if self.values.len() < (top + 1) * words {
            self.values.resize((top + 1) * words, 0);
        }
        for (i, leaf) in leaves.iter().enumerate() {
            self.values[leaf.index() * words..][..words]
                .copy_from_slice(TruthTable::var(n, i).words());
        }
        self.values[..words].fill(0);
        simulate_gates(
            network,
            self.sorted.iter().copied(),
            &mut self.values,
            words,
        );
        let row = &self.values[root.index() * words..][..words];
        Some(TruthTable::from_words(n, row.to_vec()))
    }
}

/// Checks equivalence by exhaustive simulation (up to 16 inputs).
pub fn equivalent_exhaustive(a: &Network, b: &Network) -> Equivalence {
    if a.input_count() != b.input_count() || a.output_count() != b.output_count() {
        return Equivalence::InterfaceMismatch;
    }
    if output_truth_tables(a) == output_truth_tables(b) {
        Equivalence::Equivalent
    } else {
        Equivalence::NotEquivalent
    }
}

/// Checks equivalence with `words * 64` random input patterns.
pub fn equivalent_random(a: &Network, b: &Network, words: usize, seed: u64) -> Equivalence {
    if a.input_count() != b.input_count() || a.output_count() != b.output_count() {
        return Equivalence::InterfaceMismatch;
    }
    let mut rng = Prng::seed_from_u64(seed);
    let patterns: Vec<Vec<u64>> = (0..a.input_count())
        .map(|_| (0..words).map(|_| rng.next_u64()).collect())
        .collect();
    let ra = simulate(a, &patterns);
    let rb = simulate(b, &patterns);
    if ra == rb {
        Equivalence::ProbablyEquivalent
    } else {
        Equivalence::NotEquivalent
    }
}

/// Combinational equivalence check: exhaustive when the interface is small
/// enough, randomized otherwise.
///
/// This is the check applied after every transformation in the experiment
/// harness (the paper uses ABC's `cec`).
pub fn cec(a: &Network, b: &Network) -> Equivalence {
    if a.input_count() != b.input_count() || a.output_count() != b.output_count() {
        return Equivalence::InterfaceMismatch;
    }
    if a.input_count() <= 14 {
        equivalent_exhaustive(a, b)
    } else {
        equivalent_random(a, b, 64, 0xC0FFEE)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Network, NetworkKind};

    /// The per-node simulation loop the flat kernel replaced: one heap row
    /// per node, every gate read through its fanins one word at a time.
    fn simulate_nodes_reference(network: &Network, patterns: &[Vec<u64>]) -> Vec<Vec<u64>> {
        let words = patterns.first().map_or(1, Vec::len);
        let mut values: Vec<Vec<u64>> = vec![vec![0; words]; network.len()];
        for (i, &pi) in network.inputs().iter().enumerate() {
            values[pi.index()] = patterns[i].clone();
        }
        for id in network.gate_ids() {
            let node = network.node(id);
            let read = |sig: Signal, w: usize, values: &Vec<Vec<u64>>| -> u64 {
                let v = values[sig.node().index()][w];
                if sig.is_complement() {
                    !v
                } else {
                    v
                }
            };
            let fanins = node.fanins().to_vec();
            let mut out = vec![0u64; words];
            for (w, slot) in out.iter_mut().enumerate() {
                *slot = match node.kind() {
                    GateKind::And2 => read(fanins[0], w, &values) & read(fanins[1], w, &values),
                    GateKind::Xor2 => read(fanins[0], w, &values) ^ read(fanins[1], w, &values),
                    GateKind::Maj3 => {
                        let a = read(fanins[0], w, &values);
                        let b = read(fanins[1], w, &values);
                        let c = read(fanins[2], w, &values);
                        (a & b) | (a & c) | (b & c)
                    }
                    _ => unreachable!("gate_ids yields only gates"),
                };
            }
            values[id.index()] = out;
        }
        values
    }

    /// A seeded random network of `kind` over `inputs` inputs: gates read
    /// recent signals in either polarity, and majority-capable kinds also
    /// get constant fanins (the MIG-style AND and OR).
    fn random_network(kind: NetworkKind, inputs: usize, gates: usize, seed: u64) -> Network {
        let mut rng = Prng::seed_from_u64(seed);
        let mut n = Network::new(kind);
        let mut pool = n.add_inputs(inputs);
        pool.push(Signal::CONST1);
        for _ in 0..gates {
            let mut pick = |pool: &[Signal]| {
                let window = pool.len().min(inputs + 8);
                let s = pool[pool.len() - 1 - rng.gen_range(0..window)];
                s.xor_complement(rng.gen_bool(0.5))
            };
            let (a, b, c) = (pick(&pool), pick(&pool), pick(&pool));
            let g = match (kind, rng.gen_range(0..4)) {
                (NetworkKind::Mixed, 0) => n.and2(a, b),
                (NetworkKind::Mixed, 1) => n.xor2(a, b),
                (NetworkKind::Mixed, 2) => {
                    n.maj3(a, b, Signal::CONST0.xor_complement(c.is_complement()))
                }
                (NetworkKind::Mixed, _) => n.maj3(a, b, c),
                (_, 0) => n.and(a, b),
                (_, 1) => n.or(a, b),
                (_, 2) => n.xor(a, b),
                _ => n.maj(a, b, c),
            };
            pool.push(g);
        }
        for &s in pool.iter().rev().take(4) {
            n.add_output(s);
        }
        n
    }

    #[test]
    fn flat_kernel_matches_the_per_node_reference() {
        let mut rng = Prng::seed_from_u64(0x5EED_F1A7);
        let kinds = [
            NetworkKind::Aig,
            NetworkKind::Xag,
            NetworkKind::Mig,
            NetworkKind::Xmg,
            NetworkKind::Mixed,
        ];
        let mut constant_fanins = 0;
        for kind in kinds {
            for words in [1, 32, 64, 256] {
                let net = random_network(kind, 9, 120, rng.next_u64());
                constant_fanins += net
                    .gate_ids()
                    .filter(|&id| net.node(id).fanins().iter().any(|f| f.node().is_const()))
                    .count();
                let patterns: Vec<Vec<u64>> = (0..net.input_count())
                    .map(|_| (0..words).map(|_| rng.next_u64()).collect())
                    .collect();
                let flat = simulate_nodes(&net, &patterns);
                let reference = simulate_nodes_reference(&net, &patterns);
                assert_eq!(flat.words(), words);
                for id in net.node_ids() {
                    assert_eq!(
                        flat.row(id),
                        reference[id.index()],
                        "{kind} at {words} words: {id}"
                    );
                }
            }
        }
        assert!(constant_fanins > 0, "no gate read a constant");

        let mut constants = Network::new(NetworkKind::Mig);
        constants.add_output(Signal::CONST1);
        let flat = simulate_nodes(&constants, &[]);
        assert_eq!(flat.words(), 1);
        assert_eq!(
            flat.row(NodeId::CONST0),
            simulate_nodes_reference(&constants, &[])[0]
        );
    }

    #[test]
    fn cone_function_matches_direct_evaluation() {
        let mut n = Network::new(NetworkKind::Aig);
        let xs = n.add_inputs(3);
        let ab = n.and2(xs[0], xs[1]);
        let f = n.and2(ab, !xs[2]);
        n.add_output(f);
        let cone = vec![ab.node(), f.node()];
        let leaves: Vec<NodeId> = xs.iter().map(|s| s.node()).collect();
        let t = ConeEvaluator::new()
            .function(&n, &cone, f.node(), &leaves)
            .unwrap();
        let a = TruthTable::var(3, 0);
        let b = TruthTable::var(3, 1);
        let c = TruthTable::var(3, 2);
        assert_eq!(t, a.and(&b).and(&c.not()));
    }

    fn xor_aig() -> Network {
        let mut n = Network::new(NetworkKind::Aig);
        let a = n.add_input();
        let b = n.add_input();
        let x = n.xor(a, b);
        n.add_output(x);
        n
    }

    fn xor_xag() -> Network {
        let mut n = Network::new(NetworkKind::Xag);
        let a = n.add_input();
        let b = n.add_input();
        let x = n.xor2(a, b);
        n.add_output(x);
        n
    }

    #[test]
    fn simulation_computes_xor() {
        let n = xor_aig();
        let out = simulate(&n, &[vec![0b1100], vec![0b1010]]);
        assert_eq!(out[0][0] & 0xF, 0b0110);
    }

    #[test]
    fn truth_tables_of_outputs() {
        let n = xor_aig();
        let tts = output_truth_tables(&n);
        assert_eq!(tts.len(), 1);
        assert_eq!(tts[0].as_u64(), 0x6);
    }

    #[test]
    fn equivalent_across_representations() {
        assert_eq!(equivalent_exhaustive(&xor_aig(), &xor_xag()), Equivalence::Equivalent);
        assert!(cec(&xor_aig(), &xor_xag()).holds());
    }

    #[test]
    fn detects_non_equivalence() {
        let mut n = Network::new(NetworkKind::Aig);
        let a = n.add_input();
        let b = n.add_input();
        let x = n.and2(a, b);
        n.add_output(x);
        assert_eq!(cec(&xor_aig(), &n), Equivalence::NotEquivalent);
        assert_eq!(
            equivalent_random(&xor_aig(), &n, 4, 1),
            Equivalence::NotEquivalent
        );
    }

    #[test]
    fn interface_mismatch_is_reported() {
        let mut n = Network::new(NetworkKind::Aig);
        let a = n.add_input();
        n.add_output(a);
        assert_eq!(cec(&xor_aig(), &n), Equivalence::InterfaceMismatch);
    }

    #[test]
    fn majority_network_simulates_correctly() {
        let mut n = Network::new(NetworkKind::Mig);
        let a = n.add_input();
        let b = n.add_input();
        let c = n.add_input();
        let m = n.maj3(a, b, c);
        n.add_output(m);
        let tts = output_truth_tables(&n);
        assert_eq!(tts[0].as_u64(), 0xE8);
    }

    #[test]
    fn zero_input_networks_simulate_their_constants() {
        let mut n = Network::new(NetworkKind::Aig);
        n.add_output(n.constant(true));
        n.add_output(n.constant(false));
        let tts = output_truth_tables(&n);
        assert_eq!(tts.len(), 2);
        assert_eq!(tts[0], TruthTable::constant(0, true));
        assert_eq!(tts[1], TruthTable::constant(0, false));
        assert_eq!(cec(&n, &n.clone()), Equivalence::Equivalent);

        let mut flipped = Network::new(NetworkKind::Aig);
        flipped.add_output(flipped.constant(false));
        flipped.add_output(flipped.constant(true));
        assert_eq!(cec(&n, &flipped), Equivalence::NotEquivalent);
    }

    #[test]
    fn complemented_outputs_are_honoured() {
        let mut n = Network::new(NetworkKind::Aig);
        let a = n.add_input();
        let b = n.add_input();
        let x = n.and2(a, b);
        n.add_output(!x);
        let tts = output_truth_tables(&n);
        assert_eq!(tts[0].as_u64(), 0x7);
    }
}
