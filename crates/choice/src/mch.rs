//! Construction of mixed structural choice networks (Algorithms 1 and 2).
//!
//! The construction is one serial pass over the original network in node-id
//! order, as in the paper:
//!
//! * Algorithm 1 (one-to-one mapping) re-emits every gate in the style of
//!   each secondary representation and records the result as a choice of the
//!   original gate.
//! * Algorithm 2 (multi-strategy resynthesis) visits every gate once: it
//!   classifies the gate as critical or not, canonicalises each qualifying
//!   cut function (and, off the critical path, the MFFC function) to its NPN
//!   class, and emits one candidate per strategy entry through the
//!   [`NpnDatabase`], until the per-node candidate cap is reached.
//!
//! Only the cut enumeration that Algorithm 2 reads fans out over threads
//! ([`enumerate_cuts_threaded`], byte-identical to the serial enumeration),
//! so the choice network and the deterministic [`MchStats`] counters are the
//! same at every [`MchParams::threads`].

use crate::choice_network::ChoiceNetwork;
use crate::npn_db::{NpnDatabase, SharedNpnCache};
use crate::strategies::{StrategyEntry, StrategyLibrary};
use mch_cut::{enumerate_cuts_threaded, Cut, CutCostModel, CutParams, NetworkCuts};
use mch_logic::{
    critical_path_nodes, mffc, ConeEvaluator, FastSet, GateKind, Network, NetworkKind, NodeId,
    NpnCanonical, Signal, TruthTable,
};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Parameters of the MCH construction (the inputs of Algorithm 1).
///
/// `PartialEq` compares every field (including `threads`); callers that key
/// caches on the choice-relevant subset normalise `threads` first — choice
/// construction is thread-invariant.
#[derive(Clone, PartialEq, Debug)]
pub struct MchParams {
    /// Representations mixed in through one-to-one mapping (Alg. 1, line 1).
    pub secondary: Vec<NetworkKind>,
    /// Maximum cut size used to harvest candidate functions (`k`).
    pub cut_size: usize,
    /// Maximum number of cuts per node (`l`).
    pub cut_limit: usize,
    /// Maximum number of MFFC leaves considered (`K`).
    pub mffc_max_inputs: usize,
    /// Fraction of the depth above which outputs are considered critical (`r`).
    pub critical_ratio: f64,
    /// Strategies applied to critical-path nodes (level-oriented).
    pub level_strategies: StrategyLibrary,
    /// Strategies applied to non-critical nodes (area-oriented).
    pub area_strategies: StrategyLibrary,
    /// Cap on the number of choices recorded per representative.
    pub max_candidates_per_node: usize,
    /// Worker threads for the level-parallel cut enumeration inside the
    /// construction ([`mch_cut::enumerate_cuts_threaded`]); the rest of the
    /// construction is one serial pass. Results are identical for every
    /// value. Defaults to [`mch_cut::default_threads`].
    pub threads: usize,
}

impl MchParams {
    /// The balanced configuration of the paper: choices are derived from the
    /// input AIG alone, with path classification selecting the strategy.
    pub fn balanced() -> Self {
        MchParams {
            secondary: vec![],
            cut_size: 4,
            cut_limit: 8,
            mffc_max_inputs: 6,
            critical_ratio: 0.8,
            level_strategies: StrategyLibrary::level_oriented(&[NetworkKind::Aig, NetworkKind::Xag]),
            area_strategies: StrategyLibrary::area_oriented(&[NetworkKind::Aig]),
            max_candidates_per_node: 3,
            threads: mch_cut::default_threads(),
        }
    }

    /// The delay-oriented configuration: the input is additionally mapped
    /// one-to-one into an XAG and the critical region is widened.
    pub fn delay_oriented() -> Self {
        MchParams {
            secondary: vec![NetworkKind::Xag],
            cut_size: 4,
            cut_limit: 8,
            mffc_max_inputs: 6,
            critical_ratio: 0.5,
            level_strategies: StrategyLibrary::level_oriented(&[NetworkKind::Xag, NetworkKind::Aig]),
            area_strategies: StrategyLibrary::area_oriented(&[NetworkKind::Aig]),
            max_candidates_per_node: 3,
            threads: mch_cut::default_threads(),
        }
    }

    /// The area-oriented configuration: the input is additionally mapped
    /// one-to-one into an XMG and SOP-factored candidates dominate.
    pub fn area_oriented() -> Self {
        MchParams {
            secondary: vec![NetworkKind::Xmg],
            cut_size: 4,
            cut_limit: 8,
            mffc_max_inputs: 8,
            critical_ratio: 0.9,
            level_strategies: StrategyLibrary::level_oriented(&[NetworkKind::Xmg]),
            area_strategies: StrategyLibrary::area_oriented(&[NetworkKind::Xmg, NetworkKind::Aig]),
            max_candidates_per_node: 3,
            threads: mch_cut::default_threads(),
        }
    }

    /// A generic mixed configuration over the given representations, used by
    /// the graph-mapping experiments (e.g. MIG + XMG).
    pub fn mixed(kinds: &[NetworkKind]) -> Self {
        MchParams {
            secondary: kinds.to_vec(),
            cut_size: 4,
            cut_limit: 8,
            mffc_max_inputs: 6,
            critical_ratio: 0.7,
            level_strategies: StrategyLibrary::level_oriented(kinds),
            area_strategies: StrategyLibrary::area_oriented(kinds),
            max_candidates_per_node: 3,
            threads: mch_cut::default_threads(),
        }
    }

    /// Returns the same parameters with an explicit worker-thread count for
    /// the construction's cut enumeration. Every value produces an identical
    /// choice network.
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads.max(1);
        self
    }
}

impl Default for MchParams {
    fn default() -> Self {
        MchParams::balanced()
    }
}

/// Statistics reported by [`build_mch`].
///
/// The choice counts and NPN-cache counters are deterministic — identical
/// for every thread count. The per-phase wall times are measurements and
/// vary run to run; compare [`timeless`](MchStats::timeless) views when
/// asserting determinism.
#[derive(Copy, Clone, PartialEq, Eq, Debug, Default)]
pub struct MchStats {
    /// Choices contributed by one-to-one mapping of secondary representations.
    pub representation_choices: usize,
    /// Choices contributed by level-oriented resynthesis.
    pub level_choices: usize,
    /// Choices contributed by area-oriented resynthesis.
    pub area_choices: usize,
    /// Number of nodes classified as critical.
    pub critical_nodes: usize,
    /// Distinct NPN (class, strategy, representation) entries synthesised.
    pub npn_classes: usize,
    /// Emissions served from the NPN cache instead of fresh synthesis.
    pub npn_cache_hits: usize,
    /// Wall time of the one-to-one mapping phase (Algorithm 1, line 1).
    pub one_to_one_time: Duration,
    /// Wall time of critical-path classification plus cut enumeration.
    pub cut_enum_time: Duration,
    /// Wall time of resynthesis outside the commits (cut filtering, MFFC
    /// evaluation, NPN canonicalisation).
    pub resynthesis_time: Duration,
    /// Wall time of committing candidates into the choice network: class
    /// synthesis on an NPN cache miss, class imports, structural hashing and
    /// class linking.
    pub commit_time: Duration,
}

impl MchStats {
    /// Total number of recorded choices.
    pub fn total(&self) -> usize {
        self.representation_choices + self.level_choices + self.area_choices
    }

    /// This statistics record with the wall-time fields zeroed: everything
    /// left is deterministic, so two builds of the same network at any two
    /// thread counts satisfy `a.timeless() == b.timeless()`.
    pub fn timeless(&self) -> MchStats {
        MchStats {
            one_to_one_time: Duration::ZERO,
            cut_enum_time: Duration::ZERO,
            resynthesis_time: Duration::ZERO,
            commit_time: Duration::ZERO,
            ..*self
        }
    }
}

/// Re-emits one `gate` of the original network over its mapped `fanins` in
/// the style of representation `kind`, using raw primitives (the target is
/// the mixed choice network, which allows every gate kind).
fn emit_styled(net: &mut Network, kind: NetworkKind, gate: GateKind, fanins: &[Signal]) -> Signal {
    fn s_and(net: &mut Network, kind: NetworkKind, a: Signal, b: Signal) -> Signal {
        match kind {
            NetworkKind::Mig | NetworkKind::Xmg => net.maj3(a, b, Signal::CONST0),
            _ => net.and2(a, b),
        }
    }
    fn s_or(net: &mut Network, kind: NetworkKind, a: Signal, b: Signal) -> Signal {
        match kind {
            NetworkKind::Mig | NetworkKind::Xmg => net.maj3(a, b, Signal::CONST1),
            _ => !net.and2(!a, !b),
        }
    }
    fn s_xor(net: &mut Network, kind: NetworkKind, a: Signal, b: Signal) -> Signal {
        match kind {
            NetworkKind::Xag | NetworkKind::Xmg | NetworkKind::Mixed => net.xor2(a, b),
            _ => {
                let t = s_and(net, kind, a, !b);
                let e = s_and(net, kind, !a, b);
                s_or(net, kind, t, e)
            }
        }
    }
    fn s_maj(net: &mut Network, kind: NetworkKind, a: Signal, b: Signal, c: Signal) -> Signal {
        match kind {
            NetworkKind::Mig | NetworkKind::Xmg | NetworkKind::Mixed => net.maj3(a, b, c),
            _ => {
                let ab = s_and(net, kind, a, b);
                let aob = s_or(net, kind, a, b);
                let cc = s_and(net, kind, c, aob);
                s_or(net, kind, ab, cc)
            }
        }
    }
    match gate {
        GateKind::And2 => s_and(net, kind, fanins[0], fanins[1]),
        GateKind::Xor2 => s_xor(net, kind, fanins[0], fanins[1]),
        GateKind::Maj3 => s_maj(net, kind, fanins[0], fanins[1], fanins[2]),
        _ => unreachable!("only gates are emitted"),
    }
}

/// Scratch reused across the nodes of one resynthesis pass: the cone
/// evaluator and a leaf-signal buffer.
struct NodeScratch {
    cone: ConeEvaluator,
    leaf_sigs: Vec<Signal>,
}

/// A cut worth resynthesising: non-trivial, at least three leaves, and a
/// non-constant function (Algorithm 2's candidate filter).
fn cut_qualifies(cut: &Cut) -> bool {
    !cut.is_trivial()
        && cut.size() >= 3
        && !cut.function().is_const0()
        && !cut.function().is_const1()
}

/// The MFFC resynthesis candidate of a non-critical node: its cone function
/// over the sorted leaves (Algorithm 2, lines 8 and 11), or `None` when the
/// cone is too small, too wide or degenerate.
fn mffc_candidate(
    network: &Network,
    params: &MchParams,
    id: NodeId,
    cone: &mut ConeEvaluator,
) -> Option<(TruthTable, Vec<Signal>)> {
    let mffc_cone = mffc(network, id, params.mffc_max_inputs);
    if mffc_cone.size() < 2
        || mffc_cone.leaves.len() < 2
        || mffc_cone.leaves.len() > params.mffc_max_inputs
    {
        return None;
    }
    let mut leaves = mffc_cone.leaves.clone();
    leaves.sort();
    let function = cone.function(network, &mffc_cone.nodes, id, &leaves)?;
    if function.is_const0() || function.is_const1() {
        return None;
    }
    let leaf_sigs = leaves.iter().map(|l| l.signal()).collect();
    Some((function, leaf_sigs))
}

/// Emits one candidate of `id` and links it; returns whether it became a new
/// choice. The emission (with the class synthesis on a cache miss) and the
/// choice link count as [`MchStats::commit_time`].
fn emit_candidate(
    cn: &mut ChoiceNetwork,
    db: &mut NpnDatabase,
    stats: &mut MchStats,
    id: NodeId,
    canon: &NpnCanonical,
    leaves: &[Signal],
    entry: &StrategyEntry,
) -> bool {
    let commit_start = Instant::now();
    let sig = db.emit_with_canon(cn.network_mut(), canon, leaves, entry.kind, entry.strategy);
    let added = cn.add_choice(id, sig);
    stats.commit_time += commit_start.elapsed();
    added
}

/// Algorithm 2 for one gate: cut candidates first (cut-major,
/// strategy-minor), then — off the critical path — the MFFC candidate, each
/// emitted in turn until the per-node candidate cap is reached, so the cap
/// also caps the resynthesis work.
#[allow(clippy::too_many_arguments)]
fn emit_node(
    network: &Network,
    params: &MchParams,
    cuts: &NetworkCuts,
    id: NodeId,
    critical: bool,
    cn: &mut ChoiceNetwork,
    db: &mut NpnDatabase,
    stats: &mut MchStats,
    scratch: &mut NodeScratch,
) {
    let strategies = if critical {
        &params.level_strategies
    } else {
        &params.area_strategies
    };
    if strategies.is_empty() {
        return;
    }
    let max = params.max_candidates_per_node;
    let mut added = 0usize;
    for cut in cuts.of(id) {
        if added >= max {
            break;
        }
        if !cut_qualifies(cut) {
            continue;
        }
        scratch.leaf_sigs.clear();
        scratch
            .leaf_sigs
            .extend(cut.leaves().iter().map(|l| l.signal()));
        let canon = NpnDatabase::canonicalize(cut.function());
        for entry in strategies.entries() {
            if added >= max {
                break;
            }
            if emit_candidate(cn, db, stats, id, &canon, &scratch.leaf_sigs, entry) {
                added += 1;
                if critical {
                    stats.level_choices += 1;
                } else {
                    stats.area_choices += 1;
                }
            }
        }
    }
    if !critical && added < max {
        if let Some((function, leaf_sigs)) = mffc_candidate(network, params, id, &mut scratch.cone)
        {
            let canon = NpnDatabase::canonicalize(&function);
            for entry in params.area_strategies.entries() {
                if added >= max {
                    break;
                }
                if emit_candidate(cn, db, stats, id, &canon, &leaf_sigs, entry) {
                    added += 1;
                    stats.area_choices += 1;
                }
            }
        }
    }
}

/// Builds a mixed structural choice network (Algorithm 1).
///
/// The returned [`ChoiceNetwork`] contains the original structure as
/// representatives; every secondary representation is mixed in node-by-node
/// through one-to-one mapping, and the multi-strategy structural choice
/// algorithm (Algorithm 2) adds level-oriented candidates on critical paths
/// and area-oriented candidates elsewhere.
///
/// Cut enumeration shards across [`MchParams::threads`] threads; the rest
/// is one serial pass, and the result is
/// byte-identical for every thread count (see the module docs).
pub fn build_mch(network: &Network, params: &MchParams) -> ChoiceNetwork {
    let (cn, _) = build_mch_with_stats(network, params);
    cn
}

/// Same as [`build_mch`] but also reports how many choices each source
/// contributed and where the construction time went (see [`MchStats`]).
pub fn build_mch_with_stats(network: &Network, params: &MchParams) -> (ChoiceNetwork, MchStats) {
    build_mch_with_stats_shared(network, params, None)
}

/// [`build_mch_with_stats`] over an optional service-wide
/// [`SharedNpnCache`]: with `Some(shared)` the per-build NPN database routes
/// every class synthesis through the shared store, so concurrent builds (the
/// batched mapping service) synthesise each class once per process instead
/// of once per job.
///
/// Sharing is invisible in the output: [`synthesize`](crate::synthesize) is a
/// pure function of the class key, so the choice network **and** the
/// deterministic [`MchStats`] counters are byte-identical to a private-cache
/// build at every thread count and under any concurrent workload.
pub fn build_mch_with_stats_shared(
    network: &Network,
    params: &MchParams,
    shared: Option<&Arc<SharedNpnCache>>,
) -> (ChoiceNetwork, MchStats) {
    let mut cn = ChoiceNetwork::from_network(network);
    let mut stats = MchStats::default();

    // ------------------------------------------------------------------
    // Line 1: one-to-one mapping into each secondary representation.
    // ------------------------------------------------------------------
    let phase_start = Instant::now();
    for &kind in &params.secondary {
        let mut map: Vec<Signal> = vec![Signal::CONST0; network.len()];
        for &pi in network.inputs() {
            map[pi.index()] = pi.signal();
        }
        let mut fanins = [Signal::CONST0; 3];
        for id in network.gate_ids() {
            let node = network.node(id);
            let arity = node.fanins().len();
            for (slot, s) in fanins.iter_mut().zip(node.fanins()) {
                *slot = map[s.node().index()].xor_complement(s.is_complement());
            }
            let sig = emit_styled(cn.network_mut(), kind, node.kind(), &fanins[..arity]);
            map[id.index()] = sig;
            if cn.add_choice(id, sig) {
                stats.representation_choices += 1;
            }
        }
    }
    stats.one_to_one_time = phase_start.elapsed();

    // ------------------------------------------------------------------
    // Line 2: critical-path collection.  Line 3: cut enumeration.
    // ------------------------------------------------------------------
    let phase_start = Instant::now();
    let critical: FastSet<NodeId> = critical_path_nodes(network, params.critical_ratio);
    stats.critical_nodes = critical.len();
    let cuts = enumerate_cuts_threaded(
        network,
        &CutParams::new(params.cut_size, params.cut_limit),
        &CutCostModel::unit(),
        params.threads,
        None,
    );
    stats.cut_enum_time = phase_start.elapsed();

    // ------------------------------------------------------------------
    // Line 4 / Algorithm 2: multi-strategy structural choices.
    // ------------------------------------------------------------------
    let phase_start = Instant::now();
    let mut db = match shared {
        Some(shared) => NpnDatabase::with_shared(Arc::clone(shared)),
        None => NpnDatabase::new(),
    };
    let mut scratch = NodeScratch {
        cone: ConeEvaluator::new(),
        leaf_sigs: Vec::new(),
    };
    for id in network.gate_ids() {
        mch_logic::failpoint!("npn::commit");
        emit_node(
            network,
            params,
            &cuts,
            id,
            critical.contains(&id),
            &mut cn,
            &mut db,
            &mut stats,
            &mut scratch,
        );
    }
    stats.npn_classes = db.len();
    stats.npn_cache_hits = db.hits();
    stats.resynthesis_time = phase_start.elapsed().saturating_sub(stats.commit_time);
    (cn, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mch_logic::{cec, levelize, Network, NetworkKind};

    fn sample_network() -> Network {
        // A small arithmetic-flavoured network: 4-bit ripple adder MSB plus
        // some control logic, deep enough for critical-path classification.
        let mut n = Network::with_name(NetworkKind::Aig, "sample");
        let a = n.add_inputs(4);
        let b = n.add_inputs(4);
        let mut carry = n.constant(false);
        let mut sums = Vec::new();
        for i in 0..4 {
            let (s, c) = n.full_adder(a[i], b[i], carry);
            sums.push(s);
            carry = c;
        }
        let any = n.or_reduce(&sums);
        n.add_output(any);
        n.add_output(carry);
        n
    }

    /// A wider network whose widest level is wide enough to shard the
    /// construction's cut enumeration.
    fn wide_network() -> Network {
        let mut n = Network::with_name(NetworkKind::Aig, "wide");
        let a = n.add_inputs(8);
        let b = n.add_inputs(8);
        let mut carry = n.constant(false);
        let mut bits = Vec::new();
        for i in 0..8 {
            let (s, c) = n.full_adder(a[i], b[i], carry);
            bits.push(s);
            carry = c;
        }
        for i in 0..8 {
            let x = n.xor(bits[i], a[(i + 3) % 8]);
            let y = n.and(x, b[(i + 5) % 8]);
            bits.push(y);
        }
        let any = n.or_reduce(&bits);
        n.add_output(any);
        n.add_output(carry);
        n
    }

    #[test]
    fn build_mch_balanced_produces_choices() {
        let net = sample_network();
        let (cn, stats) = build_mch_with_stats(&net, &MchParams::balanced());
        assert!(stats.total() > 0, "no choices were created");
        assert_eq!(cn.choice_count(), stats.total());
        // The mixed network is strictly larger than the original.
        assert!(cn.network().len() > net.len());
        // Every recorded choice is functionally consistent.
        assert!(cn.verify(16, 11).is_empty());
        // Outputs unchanged.
        assert_eq!(cn.network().outputs(), net.outputs());
    }

    #[test]
    fn secondary_representation_adds_representation_choices() {
        let net = sample_network();
        let (cn, stats) = build_mch_with_stats(&net, &MchParams::area_oriented());
        assert!(stats.representation_choices > 0);
        assert!(cn.verify(16, 5).is_empty());
        // XMG candidates exist: the mixed network must contain majority gates.
        let (_, _, maj) = cn.network().gate_profile();
        assert!(maj > 0);
    }

    #[test]
    fn delay_oriented_marks_more_critical_nodes_than_balanced() {
        let net = sample_network();
        let (_, balanced) = build_mch_with_stats(&net, &MchParams::balanced());
        let (_, delay) = build_mch_with_stats(&net, &MchParams::delay_oriented());
        assert!(delay.critical_nodes >= balanced.critical_nodes);
    }

    #[test]
    fn choice_network_preserves_output_functions() {
        let net = sample_network();
        for params in [
            MchParams::balanced(),
            MchParams::delay_oriented(),
            MchParams::area_oriented(),
            MchParams::mixed(&[NetworkKind::Mig, NetworkKind::Xmg]),
        ] {
            let cn = build_mch(&net, &params);
            // The mixed network read as a plain network still computes the
            // same primary outputs (choices only *add* nodes).
            assert!(cec(&net, &cn.network().cleanup()).holds());
        }
    }

    #[test]
    fn mch_stats_total_is_sum() {
        let s = MchStats {
            representation_choices: 2,
            level_choices: 3,
            area_choices: 4,
            critical_nodes: 7,
            ..MchStats::default()
        };
        assert_eq!(s.total(), 9);
    }

    #[test]
    fn timeless_drops_only_the_wall_times() {
        let s = MchStats {
            representation_choices: 1,
            npn_classes: 5,
            npn_cache_hits: 9,
            one_to_one_time: Duration::from_millis(3),
            resynthesis_time: Duration::from_millis(5),
            ..MchStats::default()
        };
        let t = s.timeless();
        assert_eq!(t.representation_choices, 1);
        assert_eq!(t.npn_classes, 5);
        assert_eq!(t.npn_cache_hits, 9);
        assert_eq!(t.one_to_one_time, Duration::ZERO);
        assert_eq!(t.resynthesis_time, Duration::ZERO);
    }

    #[test]
    fn threaded_construction_is_identical_to_serial() {
        // The wide network has a level of at least 16 gates, the narrowest
        // level `enumerate_cuts_threaded` shards, so threads > 1 genuinely
        // runs the level-parallel cut enumeration; every thread count must
        // produce the same choice network and the same deterministic
        // statistics.
        let net = wide_network();
        let widest = levelize(&net).as_slices().iter().map(|l| l.len()).max();
        assert!(
            widest >= Some(16),
            "test network too narrow to shard its cut enumeration"
        );
        for base in [
            MchParams::balanced(),
            MchParams::delay_oriented(),
            MchParams::area_oriented(),
        ] {
            let (serial_cn, serial_stats) =
                build_mch_with_stats(&net, &base.clone().with_threads(1));
            for threads in [2, 4, 8] {
                let (cn, stats) =
                    build_mch_with_stats(&net, &base.clone().with_threads(threads));
                assert_eq!(serial_cn, cn, "{threads} threads diverged");
                assert_eq!(
                    serial_stats.timeless(),
                    stats.timeless(),
                    "{threads}-thread stats diverged"
                );
            }
        }
    }

    #[test]
    fn cone_scratch_matches_map_based_reference() {
        // Kernel-based cone evaluation vs the original map-based evaluation,
        // over every MFFC the construction would look at.
        fn cone_function_reference(
            network: &Network,
            cone: &[NodeId],
            root: NodeId,
            leaves: &[NodeId],
        ) -> Option<TruthTable> {
            if leaves.len() > 8 || leaves.is_empty() {
                return None;
            }
            let n = leaves.len();
            let mut values: mch_logic::FastMap<NodeId, TruthTable> =
                mch_logic::FastMap::default();
            for (i, &l) in leaves.iter().enumerate() {
                values.insert(l, TruthTable::var(n, i));
            }
            values.insert(NodeId::CONST0, TruthTable::zeros(n));
            let mut sorted: Vec<NodeId> = cone.to_vec();
            sorted.sort();
            for id in sorted {
                if values.contains_key(&id) {
                    continue;
                }
                let node = network.node(id);
                let mut fs = Vec::with_capacity(3);
                for s in node.fanins() {
                    let base = values.get(&s.node())?;
                    fs.push(if s.is_complement() { base.not() } else { base.clone() });
                }
                let t = match node.kind() {
                    GateKind::And2 => fs[0].and(&fs[1]),
                    GateKind::Xor2 => fs[0].xor(&fs[1]),
                    GateKind::Maj3 => TruthTable::maj(&fs[0], &fs[1], &fs[2]),
                    _ => return None,
                };
                values.insert(id, t);
            }
            values.get(&root).cloned()
        }

        // The XMG copy's AND and OR gates read the constant node, so its
        // MFFCs have constant leaves.
        let xmg = mch_logic::convert(&wide_network(), NetworkKind::Xmg);
        for net in [sample_network(), wide_network(), xmg] {
            let mut scratch = ConeEvaluator::new();
            let mut checked = 0usize;
            for id in net.gate_ids() {
                let cone = mffc(&net, id, 8);
                if cone.size() < 2 || cone.leaves.is_empty() {
                    continue;
                }
                let mut leaves = cone.leaves.clone();
                leaves.sort();
                let fast = scratch.function(&net, &cone.nodes, id, &leaves);
                let slow = cone_function_reference(&net, &cone.nodes, id, &leaves);
                assert_eq!(fast, slow, "cone of {id} diverged");
                checked += usize::from(fast.is_some());
            }
            assert!(checked > 0, "no cone was actually evaluated");
        }
    }
}
