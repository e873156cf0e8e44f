//! The priority-cut enumeration algorithm.
//!
//! This is the inner loop of every mapping flow, so it is written to stay off
//! the heap: merged leaf sets live in stack [`LeafBuf`]s, truth tables of
//! `<= 6` variables are single inline words, the proto-cut and final-cut
//! scratch vectors are reused across all nodes, and signature popcounts
//! reject oversized merges before any leaf is touched. All cuts of all nodes
//! live in **one arena** (`Vec<Cut>`) addressed through per-node spans, so a
//! node costs two `u32`s of bookkeeping instead of its own heap vector —
//! deep, narrow circuits (long chains with tiny cut sets) no longer pay a
//! per-node allocation.
//!
//! # Cut costs and ranking
//!
//! Alongside its leaves and function, every enumerated cut carries two
//! mapping-oriented estimates (see [`CutCosts`]): an *arrival* time
//! (`delay(k) + max(leaf arrivals)`) and an ABC-style *area flow*
//! (`area(k) + Σ flow(leaf) / fanout(leaf)`), where `delay`/`area` come from
//! a per-cut-size [`CutCostModel`] (the unit model unless a technology-aware
//! one is supplied via [`enumerate_cuts_with_model`]). Both are computed
//! incrementally while the cross product is built — the leaves' costs are
//! already final when a node is processed because the traversal is
//! topological.
//!
//! [`CutParams::cost`] selects how candidate cuts are ranked before the
//! per-node `cut_limit` truncates them: the static structural order, the
//! depth-first or area-first cost orders, or the hybrid blend. Ranking
//! happens on *proto* cuts, before any truth table is composed, so a better
//! ranking costs nothing on the hot path.

use crate::cut::{hybrid_select, LeafBuf, MAX_CUT_SIZE};
use crate::{Cut, CutCost, CutCostModel, CutCosts, CutSet};
use mch_logic::{GateKind, Network, NodeId, Signal, TruthTable};
use std::cmp::Ordering;

/// Parameters of cut enumeration.
///
/// `cut_size` is the paper's `k` (maximum number of leaves), `cut_limit` the
/// paper's `l` (maximum number of cuts stored per node), and `cost` the
/// ranking that decides which cuts survive the `cut_limit` truncation.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub struct CutParams {
    /// Maximum number of leaves per cut (`k`).
    pub cut_size: usize,
    /// Maximum number of cuts kept per node (`l`).
    pub cut_limit: usize,
    /// Ranking applied before truncating each node's cut set to `cut_limit`.
    pub cost: CutCost,
}

impl CutParams {
    /// Creates parameters with the given cut size and per-node cut limit,
    /// using the static [`CutCost::Structural`] ranking.
    ///
    /// # Panics
    ///
    /// Panics if `cut_size` is 0 or greater than 8, or `cut_limit` is 0.
    pub fn new(cut_size: usize, cut_limit: usize) -> Self {
        assert!(
            (1..=MAX_CUT_SIZE).contains(&cut_size),
            "cut size must be in 1..={MAX_CUT_SIZE}"
        );
        assert!(cut_limit >= 1, "at least one cut per node is required");
        // Fanin-cut indices are stored as u16 during enumeration.
        assert!(cut_limit < u16::MAX as usize, "cut limit must fit in 16 bits");
        CutParams {
            cut_size,
            cut_limit,
            cost: CutCost::Structural,
        }
    }

    /// Returns the same parameters with the given cut ranking.
    pub fn with_cost(mut self, cost: CutCost) -> Self {
        self.cost = cost;
        self
    }
}

impl Default for CutParams {
    fn default() -> Self {
        CutParams::new(6, 8)
    }
}

/// All cut sets of a network: one shared cut arena plus a `(start, len)` span
/// per node, with the per-node best arrival/area-flow estimates and the
/// fanout counts the area-flow recurrence divides by. The default is the
/// empty set: no node, no cut, no allocation.
#[derive(Clone, Debug, Default)]
pub struct NetworkCuts {
    pub(crate) params: CutParams,
    pub(crate) model: CutCostModel,
    pub(crate) arena: Vec<Cut>,
    pub(crate) spans: Vec<(u32, u32)>,
    pub(crate) node_costs: Vec<CutCosts>,
    pub(crate) fanout_est: Vec<f32>,
    pub(crate) wasted: usize,
}

impl NetworkCuts {
    /// The cut set of `node`, best-ranked first.
    pub fn of(&self, node: NodeId) -> &[Cut] {
        let (start, len) = self.spans[node.index()];
        &self.arena[start as usize..(start + len) as usize]
    }

    /// The enumeration parameters used.
    pub fn params(&self) -> CutParams {
        self.params
    }

    /// Total number of cuts over all nodes.
    pub fn total_cuts(&self) -> usize {
        self.spans.iter().map(|&(_, len)| len as usize).sum()
    }

    /// The best (minimum) arrival/area-flow estimates of `node` over its
    /// stored cuts; zero for primary inputs and the constant node.
    pub fn node_costs(&self, node: NodeId) -> CutCosts {
        self.node_costs[node.index()]
    }

    /// Computes the [`CutCosts`] a cut with the given leaves would have when
    /// rooted anywhere above them:
    /// `arrival = delay(k) + max(leaf arrivals)`,
    /// `flow = area(k) + Σ flow(leaf) / fanout(leaf)`,
    /// with `delay`/`area` taken from the enumeration's [`CutCostModel`].
    ///
    /// Used to attach costs to cuts created *outside* enumeration, e.g. the
    /// choice-node cuts the mapper transfers onto representatives.
    pub fn leaf_costs(&self, leaves: &[NodeId]) -> CutCosts {
        proto_costs(leaves, &self.node_costs, &self.fanout_est, &self.model)
    }

    /// Computes — without mutating anything — the extended cut list of
    /// `node`: its current cuts plus `extra`, deduplicated, ranked by `cost`
    /// and truncated to `limit` (the trivial cut is always retained). Returns
    /// `None` when `extra` is empty (nothing to do).
    ///
    /// This is the ranking half of the choice transfer (Algorithm 3, lines
    /// 2–8); hand the result to
    /// [`commit_extension`](NetworkCuts::commit_extension) to install it. The
    /// mapper ranks a whole level of representatives before it commits any
    /// of them, so the two halves stay separate.
    pub fn ranked_extension(
        &self,
        node: NodeId,
        extra: &[Cut],
        limit: usize,
        cost: CutCost,
    ) -> Option<Vec<Cut>> {
        if extra.is_empty() {
            return None;
        }
        let mut set = CutSet::from_cuts(self.of(node));
        for cut in extra {
            set.push_unchecked(cut.clone());
        }
        set.prioritize_by(limit, cost);
        Some(set.into_vec())
    }

    /// Installs a cut list produced by
    /// [`ranked_extension`](NetworkCuts::ranked_extension) for the same
    /// `node`, replacing the node's span and refreshing its best cost
    /// estimates.
    ///
    /// When the new list fits inside the node's existing arena span it is
    /// written in place; only the surplus slots are abandoned. A longer list
    /// is appended at the arena tail and the whole old span becomes waste.
    /// Abandoned slots are tracked in
    /// [`wasted_slots`](NetworkCuts::wasted_slots).
    pub fn commit_extension(&mut self, node: NodeId, cuts: Vec<Cut>) {
        let idx = node.index();
        let (start, old_len) = self.spans[idx];
        let new_len = cuts.len() as u32;
        if new_len <= old_len {
            // Reuse the abandoned span: the new list overwrites its prefix.
            let dst = &mut self.arena[start as usize..(start + new_len) as usize];
            for (slot, cut) in dst.iter_mut().zip(cuts) {
                *slot = cut;
            }
            self.spans[idx] = (start, new_len);
            self.wasted += (old_len - new_len) as usize;
        } else {
            let new_start = self.arena.len() as u32;
            self.arena.extend(cuts);
            self.spans[idx] = (new_start, new_len);
            self.wasted += old_len as usize;
        }
        // Inherited cuts may improve the node's best estimates.
        let mut best = self.node_costs[idx];
        for cut in self.of(node) {
            if cut.is_trivial() {
                continue;
            }
            best.arrival = best.arrival.min(cut.arrival());
            best.flow = best.flow.min(cut.area_flow());
        }
        self.node_costs[idx] = best;
    }

    /// Number of arena slots abandoned by
    /// [`commit_extension`](NetworkCuts::commit_extension): slots no node's
    /// span covers any more. Plain enumeration never wastes a slot; only
    /// representative nodes whose cut sets grow past their original span
    /// leave waste behind. The `cut_enum_parallel` bench reports this so
    /// choice-heavy regressions are visible.
    pub fn wasted_slots(&self) -> usize {
        self.wasted
    }

    /// Approximate heap footprint of this cut set in bytes: the arena
    /// (plus the heap words of cut functions over more than six leaves —
    /// an inline function lives inside its [`Cut`]), spans, per-node costs
    /// and fanout estimates. Used by the warm-start cache's byte accounting —
    /// an estimate for capacity decisions, not an allocator-exact count.
    pub fn approx_bytes(&self) -> usize {
        let cut_heap: usize = self.arena.iter().map(|c| c.function().heap_bytes()).sum();
        self.arena.capacity() * std::mem::size_of::<Cut>()
            + cut_heap
            + self.spans.capacity() * std::mem::size_of::<(u32, u32)>()
            + self.node_costs.capacity() * std::mem::size_of::<CutCosts>()
            + self.fanout_est.capacity() * std::mem::size_of::<f32>()
    }

    /// Rebuilds the arena densely in node-index order, reclaiming every slot
    /// abandoned by [`commit_extension`](NetworkCuts::commit_extension) and
    /// resetting [`wasted_slots`](NetworkCuts::wasted_slots) to zero.
    ///
    /// Only the internal layout changes: every node's
    /// [`of`](NetworkCuts::of) slice — leaves, functions, ranking and costs —
    /// is byte-identical before and after. Returns the number of slots
    /// reclaimed (zero when the arena is already dense, in which case nothing
    /// is copied). Worth calling after a choice transfer on very
    /// choice-heavy, memory-bound runs; plain enumeration never needs it.
    pub fn compact(&mut self) -> usize {
        let live = self.total_cuts();
        let reclaimed = self.arena.len() - live;
        self.wasted = 0;
        if reclaimed == 0 {
            return 0;
        }
        let mut arena: Vec<Cut> = Vec::with_capacity(live);
        for span in &mut self.spans {
            let (start, len) = *span;
            *span = (arena.len() as u32, len);
            arena.extend_from_slice(&self.arena[start as usize..(start + len) as usize]);
        }
        self.arena = arena;
        reclaimed
    }

    /// Returns `true` when `self` and `other` are identical down to the
    /// internal representation: same parameters, cost model, arena layout,
    /// spans, per-cut leaves/functions/costs (floats compared bit-for-bit),
    /// node cost estimates, fanout estimates and waste counter.
    ///
    /// This is deliberately stricter than observational equality over
    /// [`of`](NetworkCuts::of) — the parallel enumeration determinism tests
    /// assert that serial and multi-threaded runs agree byte for byte.
    pub fn identical(&self, other: &NetworkCuts) -> bool {
        fn costs_identical(a: CutCosts, b: CutCosts) -> bool {
            a.arrival == b.arrival && a.flow.to_bits() == b.flow.to_bits()
        }
        fn cut_identical(a: &Cut, b: &Cut) -> bool {
            a == b && a.signature() == b.signature() && costs_identical(a.costs(), b.costs())
        }
        self.params == other.params
            && self.model == other.model
            && self.wasted == other.wasted
            && self.spans == other.spans
            && self.node_costs.len() == other.node_costs.len()
            && self
                .node_costs
                .iter()
                .zip(&other.node_costs)
                .all(|(a, b)| costs_identical(*a, *b))
            && self.fanout_est.len() == other.fanout_est.len()
            && self
                .fanout_est
                .iter()
                .zip(&other.fanout_est)
                .all(|(a, b)| a.to_bits() == b.to_bits())
            && self.arena.len() == other.arena.len()
            && self
                .arena
                .iter()
                .zip(&other.arena)
                .all(|(a, b)| cut_identical(a, b))
    }
}

/// Merged cuts of at most this many leaves are composed on one inline
/// `u64` (the width of an inline [`TruthTable`]).
const WORD_LEAVES: usize = 6;

/// Where each leaf of a fanin cut sits in the merged leaf ordering: a linear
/// two-pointer scan (both leaf lists are sorted) into a stack array. The
/// bounds-checked scan is the release guard against a leaf missing from the
/// merge.
#[inline]
fn placement(cut: &Cut, leaves: &[NodeId]) -> [usize; MAX_CUT_SIZE] {
    let mut placement = [0usize; MAX_CUT_SIZE];
    let mut j = 0;
    for (i, l) in cut.leaves().iter().enumerate() {
        while leaves[j] != *l {
            j += 1;
        }
        placement[i] = j;
    }
    debug_assert!(placement[..cut.size()].windows(2).all(|w| w[0] < w[1]));
    placement
}

/// The word of one fanin's table over a merged ordering of at most six
/// leaves, negated when the fanin edge is complemented. High bits past the
/// merged table are don't-cares: [`TruthTable::from_u64`] masks them once
/// the fanins are combined. The constant cut's empty table stretches to the
/// all-zero word, so it needs no special case.
#[inline]
fn fanin_word(sig: Signal, cut: &Cut, leaves: &[NodeId]) -> u64 {
    let placement = placement(cut, leaves);
    let word = cut
        .function()
        .remap_word(leaves.len(), &placement[..cut.size()]);
    if sig.is_complement() {
        !word
    } else {
        word
    }
}

/// The table of one fanin over a merged ordering of seven or eight leaves,
/// negated when the fanin edge is complemented.
fn fanin_table(sig: Signal, cut: &Cut, leaves: &[NodeId]) -> TruthTable {
    let nvars = leaves.len();
    if cut.size() == 0 {
        // Constant cut: the fanin is the constant-false node (possibly seen
        // through a complemented edge).
        return TruthTable::constant(nvars, sig.is_complement());
    }
    let placement = placement(cut, leaves);
    let t = cut.function().remap_vars(nvars, &placement[..cut.size()]);
    if sig.is_complement() {
        t.not()
    } else {
        t
    }
}

/// Computes the function of `root` over the merged `leaves`, given the cut
/// functions of its fanins. Up to six leaves the two or three fanin words
/// are combined with `&`, `^` or majority and the table is built once;
/// wider merges compose heap tables.
fn compose_function(
    kind: GateKind,
    fanins: &[Signal],
    fanin_cuts: &[&Cut],
    leaves: &[NodeId],
) -> TruthTable {
    if leaves.len() <= WORD_LEAVES {
        let w = |i: usize| fanin_word(fanins[i], fanin_cuts[i], leaves);
        let word = match kind {
            GateKind::And2 => w(0) & w(1),
            GateKind::Xor2 => w(0) ^ w(1),
            GateKind::Maj3 => {
                let (a, b, c) = (w(0), w(1), w(2));
                (a & b) | (a & c) | (b & c)
            }
            _ => unreachable!("only gates are composed"),
        };
        return TruthTable::from_u64(leaves.len(), word);
    }
    let t = |i: usize| fanin_table(fanins[i], fanin_cuts[i], leaves);
    match kind {
        GateKind::And2 => t(0).and(&t(1)),
        GateKind::Xor2 => t(0).xor(&t(1)),
        GateKind::Maj3 => TruthTable::maj(&t(0), &t(1), &t(2)),
        _ => unreachable!("only gates are composed"),
    }
}

/// A cut candidate before its function is computed: the merged leaves, the
/// signature, the cost estimates, and the indices of the fanin cuts that
/// produced it. Keeping the cross product in this form defers truth-table
/// composition — the expensive step — until after dominance filtering and
/// priority truncation, so only the `cut_limit` surviving cuts per node ever
/// get a function.
#[derive(Copy, Clone)]
struct ProtoCut {
    leaves: LeafBuf,
    signature: u64,
    costs: CutCosts,
    src: [u16; 3],
}

impl ProtoCut {
    #[inline]
    fn cmp_structural(&self, other: &ProtoCut) -> Ordering {
        self.leaves
            .len()
            .cmp(&other.leaves.len())
            .then_with(|| self.leaves.as_slice().cmp(other.leaves.as_slice()))
    }

    #[inline]
    fn cmp_depth(&self, other: &ProtoCut) -> Ordering {
        self.costs
            .cmp_depth(&other.costs)
            .then_with(|| self.cmp_structural(other))
    }

    #[inline]
    fn cmp_area(&self, other: &ProtoCut) -> Ordering {
        self.costs
            .cmp_area(&other.costs)
            .then_with(|| self.cmp_structural(other))
    }
}

/// `true` when leaves of `a` are a subset of (or equal to) leaves of `b`.
#[inline]
fn leaf_subset(a: &ProtoCut, b: &ProtoCut) -> bool {
    crate::cut::sorted_leaf_subset(
        a.leaves.as_slice(),
        a.signature,
        b.leaves.as_slice(),
        b.signature,
    )
}

/// Dominance-filtered insertion into the proto scratch list, mirroring
/// [`CutSet::insert`] semantics on the leaf sets alone. Cost estimates are
/// computed only once a candidate survives the dominance filter, so rejected
/// merges never pay the per-leaf cost loop.
#[allow(clippy::too_many_arguments)]
fn proto_insert(
    protos: &mut Vec<ProtoCut>,
    leaves: LeafBuf,
    signature: u64,
    src: [u16; 3],
    node_costs: &[CutCosts],
    fanout_est: &[f32],
    model: &CutCostModel,
) {
    let cand = ProtoCut {
        leaves,
        signature,
        costs: CutCosts::ZERO,
        src,
    };
    if protos.iter().any(|p| leaf_subset(p, &cand)) {
        return;
    }
    protos.retain(|p| !leaf_subset(&cand, p));
    protos.push(ProtoCut {
        costs: proto_costs(&leaves, node_costs, fanout_est, model),
        ..cand
    });
}

/// Computes a proto cut's cost estimates from its merged leaves: model
/// arrival and area flow over the (final, already-computed) leaf costs.
#[inline]
fn proto_costs(
    leaves: &[NodeId],
    node_costs: &[CutCosts],
    fanout_est: &[f32],
    model: &CutCostModel,
) -> CutCosts {
    let mut arrival = 0u32;
    let mut flow = model.area[leaves.len()];
    for &l in leaves {
        let c = node_costs[l.index()];
        arrival = arrival.max(c.arrival);
        flow += c.flow / fanout_est[l.index()];
    }
    CutCosts {
        arrival: arrival + model.delay[leaves.len()],
        flow,
    }
}

/// Fanout estimates over the subject graph: gate fanins plus output uses,
/// floored at one so the area-flow division never blows up on dead nodes.
pub(crate) fn fanout_estimates(network: &Network) -> Vec<f32> {
    let mut fanout_est = vec![0.0f32; network.len()];
    for id in network.gate_ids() {
        for f in network.node(id).fanins() {
            fanout_est[f.node().index()] += 1.0;
        }
    }
    for o in network.outputs() {
        fanout_est[o.node().index()] += 1.0;
    }
    for v in &mut fanout_est {
        *v = v.max(1.0);
    }
    fanout_est
}

/// Whether `id` is in the `live` node set of an enumeration (`None`: every
/// node is).
#[inline]
pub(crate) fn is_live(live: Option<&[bool]>, id: NodeId) -> bool {
    live.is_none_or(|live| live[id.index()])
}

/// Seeds the cut arena and spans with the constant node's cut and the trivial
/// cuts of the primary inputs — the state both the serial and the parallel
/// drivers start from before any gate is processed.
pub(crate) fn seed_arena(network: &Network) -> (Vec<Cut>, Vec<(u32, u32)>) {
    let mut spans = vec![(0u32, 0u32); network.len()];
    let mut arena: Vec<Cut> = Vec::new();
    arena.push(Cut::constant(NodeId::CONST0));
    spans[0] = (0, 1);
    for &pi in network.inputs() {
        spans[pi.index()] = (arena.len() as u32, 1);
        arena.push(Cut::trivial(pi));
    }
    (arena, spans)
}

/// Per-worker scratch of the enumeration kernel: the proto-cut cross-product
/// buffer and the composed final cuts of the node being processed. The
/// backing vectors reach the high-water cross-product size once and are then
/// recycled across all nodes a worker handles.
#[derive(Default)]
pub(crate) struct NodeScratch {
    protos: Vec<ProtoCut>,
    pub(crate) final_cuts: Vec<Cut>,
}

impl NodeScratch {
    pub(crate) fn new() -> Self {
        NodeScratch::default()
    }
}

/// Read-only view of the enumeration state a node's kernel needs: the cut
/// arena, the per-node spans into it and the per-node best cost estimates.
/// Every access the kernel performs through this view is to *fanin* data,
/// i.e. to nodes of strictly smaller topological level — which is what makes
/// processing all nodes of one level in parallel safe.
#[derive(Copy, Clone)]
pub(crate) struct EnumView<'a> {
    pub(crate) arena: &'a [Cut],
    pub(crate) spans: &'a [(u32, u32)],
    pub(crate) node_costs: &'a [CutCosts],
}

/// Enumerates the cut set of one gate: cross product of the fanins' cuts,
/// dominance filter, cost ranking, `cut_limit` truncation, function
/// composition for the survivors and the always-present trivial cut.
///
/// The resulting cuts are left in `scratch.final_cuts` (cleared on entry) and
/// the node's best arrival/area-flow estimates are returned; the caller owns
/// writing both into its arena/spans/costs tables. Shared verbatim by the
/// serial driver ([`enumerate_cuts_with_model`]) and the level-parallel
/// driver ([`crate::enumerate_cuts_threaded`]), so the two cannot drift
/// apart.
pub(crate) fn enumerate_node(
    network: &Network,
    id: NodeId,
    params: &CutParams,
    model: &CutCostModel,
    fanout_est: &[f32],
    view: EnumView<'_>,
    scratch: &mut NodeScratch,
) -> CutCosts {
    let node = network.node(id);
    let fanins = node.fanins();
    let protos = &mut scratch.protos;
    let final_cuts = &mut scratch.final_cuts;
    let arena = view.arena;
    let node_costs = view.node_costs;
    protos.clear();
    final_cuts.clear();
    let span_of = |f: Signal, spans: &[(u32, u32)]| {
        let (s, l) = spans[f.node().index()];
        (s as usize, l as usize)
    };
    match fanins.len() {
        2 => {
            let (sa, la) = span_of(fanins[0], view.spans);
            let (sb, lb) = span_of(fanins[1], view.spans);
            for ia in 0..la {
                let ca = &arena[sa + ia];
                for ib in 0..lb {
                    let cb = &arena[sb + ib];
                    let signature = ca.signature() | cb.signature();
                    if signature.count_ones() as usize > params.cut_size {
                        continue;
                    }
                    let Some(leaves) = LeafBuf::merge(ca.leaves(), cb.leaves(), params.cut_size)
                    else {
                        continue;
                    };
                    proto_insert(
                        protos,
                        leaves,
                        signature,
                        [ia as u16, ib as u16, 0],
                        node_costs,
                        fanout_est,
                        model,
                    );
                }
            }
        }
        3 => {
            let (sa, la) = span_of(fanins[0], view.spans);
            let (sb, lb) = span_of(fanins[1], view.spans);
            let (sc, lc) = span_of(fanins[2], view.spans);
            for ia in 0..la {
                let ca = &arena[sa + ia];
                for ib in 0..lb {
                    let cb = &arena[sb + ib];
                    // O(1) popcount pre-check on the pair before the
                    // linear merge; the partial union is then merged with
                    // each third cut without any dummy-cut clone.
                    let sig_ab = ca.signature() | cb.signature();
                    if sig_ab.count_ones() as usize > params.cut_size {
                        continue;
                    }
                    let Some(ab) = LeafBuf::merge(ca.leaves(), cb.leaves(), params.cut_size)
                    else {
                        continue;
                    };
                    for ic in 0..lc {
                        let cc = &arena[sc + ic];
                        let signature = sig_ab | cc.signature();
                        if signature.count_ones() as usize > params.cut_size {
                            continue;
                        }
                        let Some(leaves) = LeafBuf::merge(&ab, cc.leaves(), params.cut_size)
                        else {
                            continue;
                        };
                        proto_insert(
                            protos,
                            leaves,
                            signature,
                            [ia as u16, ib as u16, ic as u16],
                            node_costs,
                            fanout_est,
                            model,
                        );
                    }
                }
            }
        }
        _ => unreachable!("gates have 2 or 3 fanins"),
    }
    // Rank by the configured cost, then truncate to the per-node limit
    // before any function is composed.
    match params.cost {
        CutCost::Structural => protos.sort_unstable_by(ProtoCut::cmp_structural),
        CutCost::Depth => protos.sort_unstable_by(ProtoCut::cmp_depth),
        CutCost::Area => protos.sort_unstable_by(ProtoCut::cmp_area),
        CutCost::Hybrid => hybrid_select(
            protos,
            params.cut_limit,
            ProtoCut::cmp_depth,
            ProtoCut::cmp_area,
            ProtoCut::cmp_structural,
        ),
    }
    protos.truncate(params.cut_limit);
    // The node's best estimates over the survivors; if the cut size was
    // too tight for any structural cut, fall back to the fanin costs.
    let mut best = CutCosts {
        arrival: u32::MAX,
        flow: f32::INFINITY,
    };
    for p in protos.iter() {
        best.arrival = best.arrival.min(p.costs.arrival);
        best.flow = best.flow.min(p.costs.flow);
    }
    if protos.is_empty() {
        let mut arrival = 0u32;
        let mut flow = model.area[fanins.len()];
        for f in fanins {
            let c = node_costs[f.node().index()];
            arrival = arrival.max(c.arrival);
            flow += c.flow / fanout_est[f.node().index()];
        }
        best = CutCosts {
            arrival: arrival + model.delay[fanins.len()],
            flow,
        };
    }
    // Compose functions for the survivors only.
    for p in protos.iter() {
        let fanin_cut = |i: usize| {
            let (s, _) = span_of(fanins[i], view.spans);
            &arena[s + p.src[i] as usize]
        };
        let f = match fanins.len() {
            2 => compose_function(
                node.kind(),
                fanins,
                &[fanin_cut(0), fanin_cut(1)],
                &p.leaves,
            ),
            _ => compose_function(
                node.kind(),
                fanins,
                &[fanin_cut(0), fanin_cut(1), fanin_cut(2)],
                &p.leaves,
            ),
        };
        final_cuts.push(Cut::from_merge(id, &p.leaves, p.signature, f, p.costs));
    }
    // The trivial cut is always available as a fallback; it carries the
    // node's best estimates (using it does not change depth or flow).
    let mut trivial = Cut::trivial(id);
    trivial.set_costs(best);
    final_cuts.push(trivial);
    best
}

/// Enumerates priority cuts for every node of `network`.
///
/// Each gate's cut set is built from the cross product of its fanins' cut
/// sets, filtered by dominance, ranked by [`CutParams::cost`], capped at
/// `params.cut_limit` cuts of at most `params.cut_size` leaves, and always
/// contains the node's trivial cut. Truth tables are computed for every
/// stored cut (and only for stored cuts: candidates rejected by dominance or
/// the priority truncation never pay for function composition).
///
/// This is the single-threaded driver; see [`crate::enumerate_cuts_threaded`]
/// for the level-parallel one (which produces identical results).
pub fn enumerate_cuts(network: &Network, params: &CutParams) -> NetworkCuts {
    enumerate_cuts_with_model(network, params, &CutCostModel::unit(), None)
}

/// [`enumerate_cuts`] with an explicit technology cost model for the
/// arrival/area-flow estimates (see [`CutCostModel`]), over the gates `live`
/// marks. The ASIC mapper feeds a library-derived model through this entry
/// point so the depth ranking accounts for wide cells being slower than
/// narrow ones.
///
/// `live`, when given, is indexed by node id and must be closed under
/// fan-in. Every gate it leaves unmarked keeps an empty cut list and zero
/// cost estimates; the marked gates' lists are bit for bit those of a
/// whole-network enumeration, because a gate's cuts read only its fan-in
/// and the fanout estimates still count every gate's fanins. `None`
/// enumerates every gate.
pub fn enumerate_cuts_with_model(
    network: &Network,
    params: &CutParams,
    model: &CutCostModel,
    live: Option<&[bool]>,
) -> NetworkCuts {
    let fanout_est = fanout_estimates(network);
    let (mut arena, mut spans) = seed_arena(network);
    let mut node_costs = vec![CutCosts::ZERO; network.len()];
    // One scratch reused across every gate (the parallel driver holds one per
    // worker instead).
    let mut scratch = NodeScratch::new();
    for id in network.gate_ids().filter(|&id| is_live(live, id)) {
        debug_assert!(
            network.node(id).fanins().iter().all(|f| is_live(live, f.node())),
            "the live set must be closed under fan-in"
        );
        let best = enumerate_node(
            network,
            id,
            params,
            model,
            &fanout_est,
            EnumView {
                arena: &arena,
                spans: &spans,
                node_costs: &node_costs,
            },
            &mut scratch,
        );
        node_costs[id.index()] = best;
        spans[id.index()] = (arena.len() as u32, scratch.final_cuts.len() as u32);
        // Same site name as the parallel driver's per-level merge, so chaos
        // schedules targeting arena growth cover the serial path too.
        mch_logic::failpoint!("cut::arena_grow");
        arena.append(&mut scratch.final_cuts);
    }
    NetworkCuts {
        params: *params,
        model: *model,
        arena,
        spans,
        node_costs,
        fanout_est,
        wasted: 0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mch_logic::{output_truth_tables, Network, NetworkKind};

    fn adder_bit() -> (Network, Signal, Signal) {
        let mut n = Network::new(NetworkKind::Xag);
        let a = n.add_input();
        let b = n.add_input();
        let c = n.add_input();
        let (s, co) = n.full_adder(a, b, c);
        n.add_output(s);
        n.add_output(co);
        (n, s, co)
    }

    #[test]
    fn every_gate_has_cuts_and_trivial_fallback() {
        let (n, _, _) = adder_bit();
        let cuts = enumerate_cuts(&n, &CutParams::default());
        for id in n.gate_ids() {
            let set = cuts.of(id);
            assert!(!set.is_empty());
            assert!(set.iter().any(|c| c.is_trivial()));
            for c in set.iter() {
                assert!(c.size() <= 6);
            }
        }
    }

    #[test]
    fn cut_functions_match_simulation() {
        let (n, s, co) = adder_bit();
        let cuts = enumerate_cuts(&n, &CutParams::new(3, 16));
        let tts = output_truth_tables(&n);
        // Find cuts of the output drivers whose leaves are exactly the PIs.
        let pis: Vec<NodeId> = n.inputs().to_vec();
        for (driver, expected) in [(s, &tts[0]), (co, &tts[1])] {
            let set = cuts.of(driver.node());
            let full = set
                .iter()
                .find(|c| c.leaves() == pis.as_slice())
                .expect("PI cut must exist for a 3-input cone");
            let mut f = full.function().clone();
            if driver.is_complement() {
                f = f.not();
            }
            assert_eq!(&f, expected);
        }
    }

    #[test]
    fn cut_limit_is_respected() {
        let mut n = Network::new(NetworkKind::Aig);
        let xs = n.add_inputs(6);
        let f = n.and_reduce(&xs);
        n.add_output(f);
        let params = CutParams::new(4, 3);
        let cuts = enumerate_cuts(&n, &params);
        for id in n.gate_ids() {
            // limit + the always-present trivial cut
            assert!(cuts.of(id).len() <= params.cut_limit + 1);
        }
    }

    #[test]
    fn majority_cut_function() {
        let mut n = Network::new(NetworkKind::Mig);
        let a = n.add_input();
        let b = n.add_input();
        let c = n.add_input();
        let m = n.maj3(a, b, !c);
        n.add_output(m);
        let cuts = enumerate_cuts(&n, &CutParams::default());
        let set = cuts.of(m.node());
        let pi_cut = set
            .iter()
            .find(|cut| cut.size() == 3)
            .expect("three-leaf cut exists");
        let tts = output_truth_tables(&n);
        assert_eq!(pi_cut.function(), &tts[0]);
    }

    #[test]
    fn total_cuts_is_consistent() {
        let (n, _, _) = adder_bit();
        let cuts = enumerate_cuts(&n, &CutParams::default());
        let sum: usize = n.node_ids().map(|id| cuts.of(id).len()).sum();
        assert_eq!(sum, cuts.total_cuts());
    }

    #[test]
    fn stored_functions_are_inline_for_small_cuts() {
        let (n, _, _) = adder_bit();
        let cuts = enumerate_cuts(&n, &CutParams::default());
        for id in n.gate_ids() {
            for c in cuts.of(id).iter() {
                assert!(
                    c.function().is_inline(),
                    "k ≤ 6 cut functions must be single-word"
                );
            }
        }
    }

    #[test]
    fn arrivals_match_unit_delay_levels_on_a_chain() {
        // A chain of ANDs: node i has depth i + 1; with a wide-open cut size
        // the best arrival is always 1 (one cut covering the whole cone up to
        // the PIs) once the cone fits in k leaves.
        let mut n = Network::new(NetworkKind::Aig);
        let xs = n.add_inputs(4);
        let g1 = n.and2(xs[0], xs[1]);
        let g2 = n.and2(g1, xs[2]);
        let g3 = n.and2(g2, xs[3]);
        n.add_output(g3);
        let cuts = enumerate_cuts(&n, &CutParams::new(4, 8));
        // All cones fit in 4 leaves, so every gate reaches arrival 1.
        for id in [g1.node(), g2.node(), g3.node()] {
            assert_eq!(cuts.node_costs(id).arrival, 1, "node {id}");
        }
        // With k = 2 the chain cannot be compressed: arrivals grow linearly.
        let cuts = enumerate_cuts(&n, &CutParams::new(2, 8));
        assert_eq!(cuts.node_costs(g1.node()).arrival, 1);
        assert_eq!(cuts.node_costs(g2.node()).arrival, 2);
        assert_eq!(cuts.node_costs(g3.node()).arrival, 3);
    }

    #[test]
    fn per_cut_costs_are_consistent_with_leaf_costs() {
        let (n, _, _) = adder_bit();
        let cuts = enumerate_cuts(&n, &CutParams::default());
        for id in n.gate_ids() {
            for c in cuts.of(id).iter() {
                if c.is_trivial() {
                    assert_eq!(c.costs(), cuts.node_costs(id));
                    continue;
                }
                let expect = cuts.leaf_costs(c.leaves());
                assert_eq!(c.arrival(), expect.arrival, "arrival of {c}");
                assert!((c.area_flow() - expect.flow).abs() < 1e-6, "flow of {c}");
            }
        }
    }

    #[test]
    fn depth_ranking_keeps_min_arrival_cut_first() {
        let mut n = Network::new(NetworkKind::Aig);
        let xs = n.add_inputs(6);
        let f = n.and_reduce(&xs);
        n.add_output(f);
        let params = CutParams::new(4, 2).with_cost(CutCost::Depth);
        let cuts = enumerate_cuts(&n, &params);
        for id in n.gate_ids() {
            let set = cuts.of(id);
            let first = &set[0];
            assert!(
                set.iter().all(|c| first.arrival() <= c.arrival()),
                "first cut of {id} is not arrival-minimal"
            );
        }
    }

    #[test]
    fn hybrid_ranking_keeps_both_depth_and_area_champions() {
        // Build a network wide enough that the cross product exceeds the cut
        // limit, then check that the kept set contains a cut achieving the
        // pre-truncation minimum arrival AND one achieving the minimum flow.
        let mut n = Network::new(NetworkKind::Aig);
        let xs = n.add_inputs(8);
        let mut layer: Vec<_> = xs.clone();
        while layer.len() > 1 {
            let mut next = Vec::new();
            for pair in layer.chunks(2) {
                if pair.len() == 2 {
                    next.push(n.and2(pair[0], pair[1]));
                } else {
                    next.push(pair[0]);
                }
            }
            layer = next;
        }
        n.add_output(layer[0]);
        let limited = CutParams::new(4, 3).with_cost(CutCost::Hybrid);
        let unlimited = CutParams::new(4, 1000).with_cost(CutCost::Hybrid);
        let kept = enumerate_cuts(&n, &limited);
        let all = enumerate_cuts(&n, &unlimited);
        // The roots of both enumerations agree on the reachable optimum.
        let root = layer[0].node();
        let best_arrival = all.of(root).iter().map(Cut::arrival).min().unwrap();
        assert_eq!(
            kept.of(root).iter().map(Cut::arrival).min().unwrap(),
            best_arrival,
            "hybrid truncation lost the depth-best cut"
        );
        let min_flow = |cuts: &[Cut]| {
            cuts.iter()
                .filter(|c| !c.is_trivial())
                .map(Cut::area_flow)
                .fold(f32::INFINITY, f32::min)
        };
        assert_eq!(
            min_flow(kept.of(root)),
            min_flow(all.of(root)),
            "hybrid truncation lost the area-flow-best cut"
        );
    }

    /// The choice transfer's two halves back to back on one node.
    fn extend(cuts: &mut NetworkCuts, node: NodeId, extra: &[Cut], limit: usize, cost: CutCost) {
        if let Some(ranked) = cuts.ranked_extension(node, extra, limit, cost) {
            cuts.commit_extension(node, ranked);
        }
    }

    #[test]
    fn commit_extension_reuses_span_and_tracks_waste() {
        let (n, s, _) = adder_bit();
        let mut cuts = enumerate_cuts(&n, &CutParams::default());
        assert_eq!(cuts.wasted_slots(), 0, "plain enumeration wastes nothing");
        let root = s.node();
        let before = cuts.of(root).len();
        assert!(before >= 3, "test needs a few cuts to shrink");
        let pis: Vec<NodeId> = n.inputs().to_vec();
        let pi_cut = Cut::with_costs(root, &pis, TruthTable::zeros(3), cuts.leaf_costs(&pis));

        // Shrink: a tighter limit makes the new list fit inside the existing
        // span, so it is rewritten in place and only the surplus is waste.
        let limit = before - 2;
        extend(&mut cuts, root, &[pi_cut], limit, CutCost::Structural);
        let after = cuts.of(root).len();
        assert!(after <= limit);
        assert_eq!(cuts.wasted_slots(), before - after);

        // Same length: extending with an already-present cut rewrites the
        // span in place without any new waste.
        let wasted = cuts.wasted_slots();
        let dup = cuts.of(root)[0].clone();
        let len = cuts.of(root).len();
        extend(&mut cuts, root, &[dup], 16, CutCost::Structural);
        assert_eq!(cuts.of(root).len(), len);
        assert_eq!(cuts.wasted_slots(), wasted);

        // Grow: a genuinely new cut pushes the list past the current span,
        // which moves it to the arena tail and abandons the whole old span.
        let single = Cut::with_costs(
            root,
            &pis[..1],
            TruthTable::var(1, 0),
            cuts.leaf_costs(&pis[..1]),
        );
        let cur = cuts.of(root).len();
        extend(&mut cuts, root, &[single], 16, CutCost::Structural);
        assert_eq!(cuts.of(root).len(), cur + 1);
        assert_eq!(cuts.wasted_slots(), wasted + cur);
    }

    #[test]
    fn compact_reclaims_waste_and_preserves_cuts() {
        let (n, s, _) = adder_bit();
        let mut cuts = enumerate_cuts(&n, &CutParams::default());
        // A dense arena compacts to itself without copying.
        assert_eq!(cuts.compact(), 0);

        // Create waste: shrink one span in place, then grow it past its slot.
        let root = s.node();
        let pis: Vec<NodeId> = n.inputs().to_vec();
        let pi_cut = Cut::with_costs(root, &pis, TruthTable::zeros(3), cuts.leaf_costs(&pis));
        let limit = cuts.of(root).len() - 2;
        extend(&mut cuts, root, &[pi_cut], limit, CutCost::Structural);
        let single = Cut::with_costs(
            root,
            &pis[..1],
            TruthTable::var(1, 0),
            cuts.leaf_costs(&pis[..1]),
        );
        extend(&mut cuts, root, &[single], 16, CutCost::Structural);
        let wasted = cuts.wasted_slots();
        assert!(wasted > 0, "the extensions must leave abandoned slots");

        // Snapshot every node's observable cut list, compact, compare.
        let before: Vec<Vec<Cut>> = (0..n.len())
            .map(|i| cuts.of(NodeId::from_index(i)).to_vec())
            .collect();
        let arena_before = cuts.total_cuts() + wasted;
        assert_eq!(cuts.compact(), wasted);
        assert_eq!(cuts.wasted_slots(), 0);
        assert_eq!(cuts.total_cuts() + wasted, arena_before);
        for (i, old) in before.iter().enumerate() {
            let new = cuts.of(NodeId::from_index(i));
            assert_eq!(old.len(), new.len(), "node {i} changed cut count");
            for (a, b) in old.iter().zip(new) {
                assert_eq!(a, b, "node {i} changed a cut");
                assert_eq!(a.costs().arrival, b.costs().arrival);
                assert_eq!(a.costs().flow.to_bits(), b.costs().flow.to_bits());
            }
        }
        // Compacting twice is a no-op.
        assert_eq!(cuts.compact(), 0);
    }

    #[test]
    fn approx_bytes_counts_no_heap_for_inline_functions() {
        let (n, _, _) = adder_bit();
        let cuts = enumerate_cuts(&n, &CutParams::default());
        assert!(cuts.arena.iter().all(|c| c.function().is_inline()));
        assert_eq!(
            cuts.approx_bytes(),
            cuts.arena.capacity() * std::mem::size_of::<Cut>()
                + cuts.spans.capacity() * std::mem::size_of::<(u32, u32)>()
                + cuts.node_costs.capacity() * std::mem::size_of::<CutCosts>()
                + cuts.fanout_est.capacity() * std::mem::size_of::<f32>()
        );
    }

    #[test]
    fn extension_reranks_and_respects_limit() {
        let (n, s, _) = adder_bit();
        let mut cuts = enumerate_cuts(&n, &CutParams::default());
        let root = s.node();
        let before = cuts.of(root).len();
        // Fabricate an inherited cut over the PIs.
        let pis: Vec<NodeId> = n.inputs().to_vec();
        let extra = Cut::with_costs(
            root,
            &pis,
            TruthTable::zeros(3),
            cuts.leaf_costs(&pis),
        );
        extend(&mut cuts, root, &[extra], 16, CutCost::Structural);
        assert!(cuts.of(root).len() <= 16);
        assert!(cuts.of(root).len() >= before.min(16));
        assert!(cuts.of(root).iter().any(|c| c.is_trivial()));
        // Deduplication: extending with an existing cut is a no-op.
        let dup = cuts.of(root)[0].clone();
        let len = cuts.of(root).len();
        extend(&mut cuts, root, &[dup], 16, CutCost::Structural);
        assert_eq!(cuts.of(root).len(), len);
    }
}
