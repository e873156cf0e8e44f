//! Shared machinery of the cut-based mappers: mapping objectives and
//! choice-aware cut preparation (Algorithm 3, lines 1–8).
//!
//! The other half of what the mappers share — the covering dynamic program
//! itself (delay pass, required times, memoised area recovery) — lives in
//! [`crate::engine`]; this module ends where prepared cut sets are handed to
//! a [`crate::engine::CoverProblem`].

use mch_choice::ChoiceNetwork;
use mch_cut::{
    enumerate_cuts_threaded, Cut, CutCost, CutCostModel, CutParams, NetworkCuts, MAX_CUT_SIZE,
};
use mch_logic::{NodeId, TruthTable};

/// The per-node cut limit [`AsicMapParams::new`](crate::AsicMapParams::new)
/// and [`LutMapParams::new`](crate::LutMapParams::new) start from.
pub const DEFAULT_CUT_LIMIT: usize = 8;

/// What the mapper optimises for.
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug, Default)]
pub enum MappingObjective {
    /// Minimise the critical-path delay; recover area only where slack-free.
    Delay,
    /// Meet the best achievable delay, then minimise area within it.
    #[default]
    Balanced,
    /// Minimise area, ignoring timing.
    Area,
}

impl MappingObjective {
    /// The cut ranking that matches this objective: depth-first for
    /// [`Delay`](MappingObjective::Delay), area-first for
    /// [`Area`](MappingObjective::Area) and the hybrid blend for
    /// [`Balanced`](MappingObjective::Balanced).
    pub fn default_ranking(self) -> CutCost {
        match self {
            MappingObjective::Delay => CutCost::Depth,
            MappingObjective::Balanced => CutCost::Hybrid,
            MappingObjective::Area => CutCost::Area,
        }
    }
}

/// Every mixed-network node's leaf resolution for choice transfer: an
/// original node resolves to itself in positive phase, a choice node to its
/// representative and phase, and any other node to `None`. Built once per
/// [`prepare_cuts`] call, so resolving a leaf of an inherited cut is one
/// indexed load rather than a `BTreeMap` lookup
/// ([`ChoiceNetwork::repr_of`]).
pub(crate) fn leaf_representatives(choice: &ChoiceNetwork) -> Vec<Option<(NodeId, bool)>> {
    let mut table: Vec<Option<(NodeId, bool)>> = (0..choice.network().len())
        .map(|i| {
            let id = NodeId::from_index(i);
            choice.is_original(id).then_some((id, false))
        })
        .collect();
    for repr in choice.representatives() {
        for &(node, phase) in choice.choices_of(repr) {
            table[node.index()] = Some((repr, phase));
        }
    }
    table
}

/// The mixed-network nodes whose cuts can reach a cover: the original nodes,
/// every choice node and their transitive fan-in. Fanins precede their gates
/// in id order, so one reverse sweep over the added nodes marks the fan-in.
/// Every other node is a snapshot-view node that no representative reaches,
/// and [`prepare_cuts`] gives it an empty cut list. Indexed by node id.
pub fn live_nodes(choice: &ChoiceNetwork) -> Vec<bool> {
    let net = choice.network();
    let originals = choice.original_len();
    let mut live = vec![false; net.len()];
    live[..originals].fill(true);
    for repr in choice.representatives() {
        for &(node, _) in choice.choices_of(repr) {
            live[node.index()] = true;
        }
    }
    for i in (originals..net.len()).rev() {
        if live[i] {
            for f in net.node(NodeId::from_index(i)).fanins() {
                live[f.node().index()] = true;
            }
        }
    }
    live
}

/// Remaps a cut inherited from a choice node onto representative-level leaves.
///
/// Every leaf is replaced by its representative (flipping the corresponding
/// truth-table variable when the choice phase is complemented), read from
/// the [`leaf_representatives`] table of the choice network; leaves without
/// a representative that are not part of the original structure make the
/// cut unusable and `None` is returned. Duplicate leaves after remapping are
/// merged by identifying the corresponding variables.
///
/// The whole remap runs on stack buffers: leaves resolve into fixed
/// `[NodeId; 8]` arrays and the common no-duplicates case rebuilds the
/// function with [`TruthTable::remap_vars`] (the single-word mask-doubling
/// stretch for `<= 6` leaves) plus one [`TruthTable::flip_var`] per
/// complemented leaf — no per-cut heap allocation, unlike the original
/// `Vec`-collecting implementation this replaced.
pub(crate) fn remap_choice_cut(
    cut: &Cut,
    leaf_reprs: &[Option<(NodeId, bool)>],
    repr: NodeId,
    phase: bool,
) -> Option<Cut> {
    let size = cut.size();
    // Resolve each leaf to (representative node, leaf phase); every resolved
    // leaf must precede the representative topologically.
    let mut nodes = [NodeId::CONST0; MAX_CUT_SIZE];
    let mut phases = [false; MAX_CUT_SIZE];
    for (i, &leaf) in cut.leaves().iter().enumerate() {
        (nodes[i], phases[i]) = leaf_reprs[leaf.index()]?;
        if nodes[i].index() >= repr.index() {
            return None;
        }
    }
    // Unique, sorted leaf list built by insertion into a stack array.
    let mut unique = [NodeId::CONST0; MAX_CUT_SIZE];
    let mut ulen = 0usize;
    for &l in &nodes[..size] {
        let mut pos = 0;
        while pos < ulen && unique[pos] < l {
            pos += 1;
        }
        if pos < ulen && unique[pos] == l {
            continue;
        }
        for j in (pos..ulen).rev() {
            unique[j + 1] = unique[j];
        }
        unique[pos] = l;
        ulen += 1;
    }
    // Rebuild the function over the unique leaves.
    let mut placement = [0usize; MAX_CUT_SIZE];
    for i in 0..size {
        placement[i] = unique[..ulen]
            .binary_search(&nodes[i])
            .expect("leaf present");
    }
    let mut function = if ulen == size {
        // No duplicates: the placement is a plain variable re-placement, so
        // the stretch fast path applies; complemented leaves are single
        // variable flips afterwards.
        let mut f = cut.function().remap_vars(ulen, &placement[..size]);
        for i in 0..size {
            if phases[i] {
                f = f.flip_var(placement[i]);
            }
        }
        f
    } else {
        // Two original leaves resolved to the same representative: identify
        // the corresponding variables minterm by minterm (rare slow path).
        let mut f = TruthTable::zeros(ulen);
        for m in 0..f.num_bits() {
            let mut old_index = 0usize;
            for i in 0..size {
                let mut v = (m >> placement[i]) & 1 == 1;
                if phases[i] {
                    v = !v;
                }
                if v {
                    old_index |= 1 << i;
                }
            }
            f.set_bit(m, cut.function().bit(old_index));
        }
        f
    };
    if phase {
        function = function.not();
    }
    Some(Cut::new(repr, &unique[..ulen], function))
}

/// Enumerates cuts over the mixed network and transfers every choice node's
/// cuts to its representative (Algorithm 3, lines 1–8).
///
/// Only the [`live_nodes`] are enumerated: a node outside the originals, the
/// choice nodes and their fan-in can neither be mapped nor lend a cut to a
/// representative, so it keeps an empty list. Every other list is bit for
/// bit the one a whole-network enumeration gives.
///
/// Cuts are ranked by `cost` — both inside enumeration (which cuts survive
/// the per-node `cut_limit`) and when the inherited choice cuts are merged
/// into a representative's set. Inherited cuts get fresh [`mch_cut::CutCosts`]
/// computed over representative-level leaves so they compete with structural
/// cuts on equal terms.
///
/// Only the enumeration fans out: it shards by topological level across
/// `threads` workers ([`mch_cut::enumerate_cuts_threaded`]), and its result
/// is bit-identical for every thread count. The transfer runs serially, one
/// level of representatives at a time: every representative of a level is
/// ranked against the costs committed by the lower levels
/// ([`NetworkCuts::ranked_extension`]), then the level is committed in id
/// order ([`NetworkCuts::commit_extension`]). At two threads a level-parallel
/// transfer ran no faster than this loop (see `docs/PERFORMANCE.md`,
/// "Picking `threads`").
///
/// The returned cut sets are indexed by node id of the mixed network; only
/// original (representative) nodes are intended to be mapped.
pub fn prepare_cuts(
    choice: &ChoiceNetwork,
    cut_size: usize,
    cut_limit: usize,
    cost: CutCost,
    model: &CutCostModel,
    threads: usize,
) -> NetworkCuts {
    let params = CutParams::new(cut_size, cut_limit).with_cost(cost);
    let net = choice.network();
    let live = live_nodes(choice);
    let mut cuts = enumerate_cuts_threaded(net, &params, model, threads, Some(&live));

    // Representatives that actually have choices, grouped by their level in
    // the mixed network. An inherited cut's costs read its leaves' node
    // costs, and a level reads only what the levels below it committed: a
    // leaf on the same or a higher level keeps its pre-transfer costs, even
    // when its id is lower. Transferring in plain id order would change them.
    let mut repr_levels: Vec<Vec<NodeId>> = Vec::new();
    for repr in choice.representatives() {
        if choice.choices_of(repr).is_empty() {
            continue;
        }
        let level = net.level(repr) as usize;
        if repr_levels.len() <= level {
            repr_levels.resize_with(level + 1, Vec::new);
        }
        repr_levels[level].push(repr);
    }
    // `representatives()` iterates in ascending id order (the choice network
    // stores classes in id-sorted structures precisely so no consumer
    // depends on a hasher seed), so each level commits in id order and the
    // arena layout the commits produce is reproducible run to run.
    debug_assert!(repr_levels
        .iter()
        .all(|bucket| bucket.windows(2).all(|w| w[0] < w[1])));

    let leaf_reprs = leaf_representatives(choice);
    let mut inherited: Vec<Cut> = Vec::new();
    for level in &repr_levels {
        let mut extensions: Vec<(NodeId, Vec<Cut>)> = Vec::with_capacity(level.len());
        for &repr in level {
            inherited.clear();
            for &(choice_node, phase) in choice.choices_of(repr) {
                for cut in cuts.of(choice_node) {
                    if cut.size() > cut_size {
                        continue;
                    }
                    if let Some(mut remapped) = remap_choice_cut(cut, &leaf_reprs, repr, phase) {
                        if remapped.size() <= cut_size && !remapped.is_trivial() {
                            remapped.set_costs(cuts.leaf_costs(remapped.leaves()));
                            inherited.push(remapped);
                        }
                    }
                }
            }
            // Keep the set bounded (the paper's line 8) while retaining room
            // for both structural and inherited cuts.
            if let Some(ranked) = cuts.ranked_extension(repr, &inherited, cut_limit * 2, cost) {
                extensions.push((repr, ranked));
            }
        }
        for (repr, ranked) in extensions {
            cuts.commit_extension(repr, ranked);
        }
    }
    cuts
}

#[cfg(test)]
mod tests {
    use super::*;
    use mch_choice::{build_mch, MchParams};
    use mch_cut::enumerate_cuts_with_model;
    use mch_logic::{Network, NetworkKind};

    fn sample() -> Network {
        let mut n = Network::new(NetworkKind::Aig);
        let xs = n.add_inputs(6);
        let a = n.xor(xs[0], xs[1]);
        let b = n.xor(xs[2], xs[3]);
        let c = n.and(a, b);
        let d = n.or(c, xs[4]);
        let e = n.and(d, xs[5]);
        n.add_output(e);
        n
    }

    /// The original `Vec`-based remap implementation, kept verbatim as the
    /// reference semantics for the stack-buffer port.
    fn remap_choice_cut_reference(
        cut: &Cut,
        choice: &ChoiceNetwork,
        repr: NodeId,
        phase: bool,
    ) -> Option<Cut> {
        let mut resolved: Vec<(NodeId, bool)> = Vec::with_capacity(cut.size());
        for &leaf in cut.leaves() {
            if choice.is_original(leaf) {
                resolved.push((leaf, false));
            } else if let Some((r, p)) = choice.repr_of(leaf) {
                resolved.push((r, p));
            } else {
                return None;
            }
        }
        if resolved.iter().any(|&(l, _)| l.index() >= repr.index()) {
            return None;
        }
        let mut unique: Vec<NodeId> = resolved.iter().map(|&(l, _)| l).collect();
        unique.sort();
        unique.dedup();
        if unique.len() > 8 {
            return None;
        }
        let mut function = TruthTable::zeros(unique.len());
        for m in 0..function.num_bits() {
            let mut old_index = 0usize;
            for (i, &(l, p)) in resolved.iter().enumerate() {
                let pos = unique.binary_search(&l).expect("leaf present");
                let mut v = (m >> pos) & 1 == 1;
                if p {
                    v = !v;
                }
                if v {
                    old_index |= 1 << i;
                }
            }
            function.set_bit(m, cut.function().bit(old_index));
        }
        if phase {
            function = function.not();
        }
        Some(Cut::new(repr, &unique, function))
    }

    #[test]
    fn compaction_after_transfer_preserves_cut_lists_and_netlists() {
        // Regression (PR 9): choice transfer leaves `commit_extension` waste
        // in the arena, and no flow reclaimed it before covering. `compact`
        // must preserve every node's cut list byte-for-byte — and therefore
        // the mapped netlists — while dropping the waste to zero.
        let mut net = Network::with_name(NetworkKind::Aig, "adder8");
        let a = net.add_inputs(8);
        let b = net.add_inputs(8);
        let mut carry = net.constant(false);
        for i in 0..8 {
            let (s, c) = net.full_adder(a[i], b[i], carry);
            net.add_output(s);
            carry = c;
        }
        net.add_output(carry);
        let mch = build_mch(&net, &MchParams::area_oriented());
        let wasteful = prepare_cuts(&mch, 4, 8, CutCost::Hybrid, &CutCostModel::unit(), 1);
        assert!(
            wasteful.wasted_slots() > 0,
            "adder8 no longer produces transfer waste; pick a choicier network"
        );
        let mut compacted = wasteful.clone();
        let reclaimed = compacted.compact();
        assert_eq!(reclaimed, wasteful.wasted_slots());
        assert_eq!(compacted.wasted_slots(), 0);
        for id in mch.network().node_ids() {
            let (a, b) = (wasteful.of(id), compacted.of(id));
            assert_eq!(a.len(), b.len(), "cut count changed at {id}");
            for (x, y) in a.iter().zip(b.iter()) {
                assert_eq!(x.leaves(), y.leaves(), "leaves changed at {id}");
                assert_eq!(x.function(), y.function(), "function changed at {id}");
                assert_eq!(
                    x.costs().arrival,
                    y.costs().arrival,
                    "arrival changed at {id}"
                );
                assert_eq!(
                    x.costs().flow.to_bits(),
                    y.costs().flow.to_bits(),
                    "flow changed at {id}"
                );
            }
        }
        let lut = mch_techlib::LutLibrary::k4();
        let engine = crate::lut::LutMapParams::default().engine_params();
        let target = crate::lut::LutTarget::new(&lut);
        let map = |cuts: &NetworkCuts| {
            let skeleton = crate::engine::CoverSkeleton::build(&mch, &target, cuts);
            crate::engine::CoverProblem::new(&mch, &target, &skeleton).solve(&engine)
        };
        assert_eq!(
            map(&wasteful),
            map(&compacted),
            "compaction changed the mapped netlist"
        );
    }

    #[test]
    fn objective_default_is_balanced() {
        assert_eq!(MappingObjective::default(), MappingObjective::Balanced);
    }

    #[test]
    fn objective_rankings() {
        assert_eq!(MappingObjective::Delay.default_ranking(), CutCost::Depth);
        assert_eq!(MappingObjective::Balanced.default_ranking(), CutCost::Hybrid);
        assert_eq!(MappingObjective::Area.default_ranking(), CutCost::Area);
    }

    #[test]
    fn prepared_cuts_contain_inherited_cuts() {
        let net = sample();
        let mch = build_mch(&net, &MchParams::area_oriented());
        let plain = prepare_cuts(&ChoiceNetwork::from_network(&net), 4, 8, CutCost::Structural, &CutCostModel::unit(), 1);
        let with_choices = prepare_cuts(&mch, 4, 8, CutCost::Structural, &CutCostModel::unit(), 1);
        // Total cuts on representative nodes should not shrink when choices
        // are transferred.
        let plain_total: usize = net.gate_ids().map(|id| plain.of(id).len()).sum();
        let choice_total: usize = net.gate_ids().map(|id| with_choices.of(id).len()).sum();
        assert!(choice_total >= plain_total);
    }

    #[test]
    fn inherited_cut_functions_are_correct() {
        let net = sample();
        let mch = build_mch(&net, &MchParams::area_oriented());
        let cuts = prepare_cuts(&mch, 4, 8, CutCost::Hybrid, &CutCostModel::unit(), 1);
        // For every representative cut rooted at an output driver, check the
        // function against a direct cone evaluation through simulation of the
        // original network restricted to the cut leaves: here we simply verify
        // that cuts over identical leaf sets agree on their function.
        for id in net.gate_ids() {
            let set = cuts.of(id);
            for a in set.iter() {
                for b in set.iter() {
                    if a.leaves() == b.leaves() {
                        assert_eq!(
                            a.function(),
                            b.function(),
                            "conflicting cut functions at node {id}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn leafbuf_remap_matches_vec_reference() {
        // Every (choice cut, representative, phase) combination the transfer
        // path would attempt must produce exactly the old Vec-based result.
        for params in [MchParams::area_oriented(), MchParams::delay_oriented()] {
            let net = sample();
            let mch = build_mch(&net, &params);
            let cuts = enumerate_cuts_with_model(mch.network(), &CutParams::new(4, 8), &CutCostModel::unit(), None);
            let leaf_reprs = leaf_representatives(&mch);
            let mut checked = 0usize;
            for repr in mch.representatives() {
                for &(choice_node, phase) in mch.choices_of(repr) {
                    for cut in cuts.of(choice_node).iter() {
                        let fast = remap_choice_cut(cut, &leaf_reprs, repr, phase);
                        let slow = remap_choice_cut_reference(cut, &mch, repr, phase);
                        match (&fast, &slow) {
                            (None, None) => {}
                            (Some(f), Some(s)) => {
                                assert_eq!(f.root(), s.root(), "root for {cut}");
                                assert_eq!(f.leaves(), s.leaves(), "leaves for {cut}");
                                assert_eq!(f.function(), s.function(), "function for {cut}");
                                checked += 1;
                            }
                            _ => panic!("fast/slow disagree on feasibility of {cut}"),
                        }
                    }
                }
            }
            assert!(checked > 0, "no choice cut was actually remapped");
        }
    }

    #[test]
    fn remap_identifies_duplicate_leaves() {
        // Force the duplicate-leaf slow path: a cut whose two leaves resolve
        // to the same representative must collapse onto one variable, exactly
        // as the Vec-based reference did.
        let mut net = Network::new(NetworkKind::Aig);
        let a = net.add_input();
        let b = net.add_input();
        let c = net.add_input();
        let g1 = net.and2(a, b);
        let h = net.and2(g1, c);
        net.add_output(h);
        let mut choice = ChoiceNetwork::from_network(&net);
        // d1 duplicates g1 structurally (a & (a & b)); e's cut {g1, d1}
        // resolves both leaves onto g1.
        let (d1, e) = {
            let n = choice.network_mut();
            let ab = n.and2(a, b); // structural hash resolves onto g1
            let d1 = n.and2(a, ab);
            let e = n.and2(g1, d1);
            (d1, e)
        };
        assert!(choice.add_choice(g1.node(), d1));
        assert!(choice.add_choice(h.node(), e));
        let cuts = enumerate_cuts_with_model(choice.network(), &CutParams::new(4, 8), &CutCostModel::unit(), None);
        let leaf_reprs = leaf_representatives(&choice);
        let mut duplicate_seen = false;
        for repr in choice.representatives() {
            for &(choice_node, phase) in choice.choices_of(repr) {
                for cut in cuts.of(choice_node).iter() {
                    let fast = remap_choice_cut(cut, &leaf_reprs, repr, phase);
                    let slow = remap_choice_cut_reference(cut, &choice, repr, phase);
                    if let Some(f) = &fast {
                        duplicate_seen |= f.size() < cut.size();
                    }
                    assert_eq!(
                        fast.as_ref().map(|c| (c.leaves().to_vec(), c.function().clone())),
                        slow.as_ref().map(|c| (c.leaves().to_vec(), c.function().clone())),
                        "mismatch for {cut}"
                    );
                }
            }
        }
        assert!(duplicate_seen, "no cut exercised the duplicate-leaf path");
    }
}
