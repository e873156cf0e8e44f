//! Cut and cut-set data structures.
//!
//! # Memory layout
//!
//! [`Cut`] stores its leaves *inline* as a fixed `[NodeId; 8]` array plus a
//! length byte — [`CutParams`](crate::CutParams) guarantees `k <= 8`, so the
//! array never overflows and no heap allocation is performed per cut. The
//! cut function is a [`TruthTable`], which is itself inline (a single `u64`)
//! whenever the cut has at most six leaves. A 64-bit leaf *signature*
//! (bit `leaf.index() % 64` set per leaf) rides along for O(1) subset and
//! merge-overflow pre-checks.
//!
//! The upshot: for the default `k = 6` mapping configuration, creating,
//! cloning, merging, comparing and storing cuts allocates nothing; the only
//! heap traffic in the cut layer is the one `Vec<Cut>` backing each node's
//! [`CutSet`].
//!
//! [`LeafBuf`] is the stack buffer used while merging leaf sets; it is also
//! the return type of [`Cut::merge_leaves`].

use mch_logic::{NodeId, TruthTable};
use std::cmp::Ordering;
use std::fmt;

/// Hard upper bound on cut size; `CutParams::new` asserts `k <= 8`.
pub const MAX_CUT_SIZE: usize = 8;

/// Mapping-oriented cost estimates of one cut, computed incrementally during
/// enumeration (see [`enumerate_cuts`](crate::enumerate_cuts)).
///
/// * `arrival` — unit-delay arrival time of the cut root through this cut:
///   `1 + max(leaf arrivals)`, with primary inputs and the constant node at 0.
///   This is the depth the LUT mapper would realise if it covered the root
///   with this cut.
/// * `flow` — ABC-style *area flow*: `1 + Σ flow(leaf) / fanout(leaf)`, a
///   sharing-aware estimate of the area charged to this cut. Fanout counts
///   are estimated over the subject graph before mapping.
///
/// Costs are estimates used for *ranking* cuts when the per-node `cut_limit`
/// truncates the set; the mappers still run their own exact arrival/area-flow
/// dynamic programming over the surviving cuts.
#[derive(Copy, Clone, PartialEq, Debug, Default)]
pub struct CutCosts {
    /// Unit-delay arrival of the root through this cut.
    pub arrival: u32,
    /// Area flow (sharing-aware area estimate) of this cut.
    pub flow: f32,
}

impl CutCosts {
    /// Zero cost: used for primary inputs, the constant node and as the
    /// placeholder before enumeration fills in real estimates.
    pub const ZERO: CutCosts = CutCosts {
        arrival: 0,
        flow: 0.0,
    };

    /// The depth-first cost key: arrival, ties broken by area flow. Shared by
    /// the [`Cut`] and enumeration-time proto-cut comparators so the two
    /// ranking paths can never drift apart.
    #[inline]
    pub(crate) fn cmp_depth(&self, other: &CutCosts) -> Ordering {
        self.arrival
            .cmp(&other.arrival)
            .then_with(|| self.flow.total_cmp(&other.flow))
    }

    /// The area-first cost key: area flow, ties broken by arrival.
    #[inline]
    pub(crate) fn cmp_area(&self, other: &CutCosts) -> Ordering {
        self.flow
            .total_cmp(&other.flow)
            .then_with(|| self.arrival.cmp(&other.arrival))
    }
}

/// Per-cut-size implementation cost estimates used by the cost-aware cut
/// rankings: `delay[k]` / `area[k]` approximate the delay and area of
/// covering a `k`-leaf cut with one technology element.
///
/// For K-LUT mapping the [`unit`](CutCostModel::unit) model is *exact*
/// (every cut is one LUT level of one LUT). For ASIC mapping the model is
/// derived from the cell library (cheapest cell per input count), so the
/// depth ranking reflects that wide cells are slower than narrow ones.
/// Index 0 covers degenerate constant cuts.
#[derive(Copy, Clone, PartialEq, Debug)]
pub struct CutCostModel {
    /// Estimated delay of implementing a `k`-leaf cut, indexed by `k`.
    pub delay: [u32; MAX_CUT_SIZE + 1],
    /// Estimated area of implementing a `k`-leaf cut, indexed by `k`.
    pub area: [f32; MAX_CUT_SIZE + 1],
}

impl CutCostModel {
    /// The unit model: every cut costs one delay unit and one area unit.
    /// Exact for K-LUT mapping; the default for plain enumeration.
    pub fn unit() -> Self {
        CutCostModel {
            delay: [1; MAX_CUT_SIZE + 1],
            area: [1.0; MAX_CUT_SIZE + 1],
        }
    }
}

impl Default for CutCostModel {
    fn default() -> Self {
        CutCostModel::unit()
    }
}

/// How a cut set is ranked before truncation to the per-node cut limit.
///
/// The ranking decides *which* cuts a mapper ever sees: once `cut_limit`
/// truncates a node's cut set, cuts ranked below the limit are gone for good.
/// The static [`Structural`](CutCost::Structural) order keeps the smallest
/// cuts; the cost-aware orders use the [`CutCosts`] estimates so the
/// delay-best and area-best cuts survive truncation.
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug, Default)]
pub enum CutCost {
    /// The legacy static key `(size, leaves)`: smaller cuts first, ties broken
    /// lexicographically. Matches the pre-cost-aware behaviour bit for bit.
    #[default]
    Structural,
    /// Depth-first: `(arrival, flow, size, leaves)` — the unit-delay best cut
    /// is always ranked (and therefore kept) first.
    Depth,
    /// Area-first: `(flow, arrival, size, leaves)` — minimum-area-flow cuts
    /// survive truncation first.
    Area,
    /// Mixed ranking: half of the kept cuts are the depth-best, a quarter are
    /// the best area-flow cuts among the rest, and the remaining slots go to
    /// the structurally smallest cuts — so the mapper's delay pass, its
    /// area-recovery passes, and Boolean matching (which prefers small
    /// support) each see their preferred candidates at the same `cut_limit`.
    Hybrid,
}

/// Orders the first `limit` elements of `items` by the hybrid policy: a
/// depth-sorted prefix (`ceil(limit / 2)` slots), then the best remaining
/// elements under the area order (`ceil(limit / 4)` slots), then the
/// structurally smallest of the rest. Elements past `limit` are left in
/// arbitrary order — callers truncate anyway.
pub(crate) fn hybrid_select<T>(
    items: &mut [T],
    limit: usize,
    mut depth_cmp: impl FnMut(&T, &T) -> Ordering,
    mut area_cmp: impl FnMut(&T, &T) -> Ordering,
    mut structural_cmp: impl FnMut(&T, &T) -> Ordering,
) {
    items.sort_unstable_by(&mut depth_cmp);
    if items.len() <= limit {
        return;
    }
    let depth_slots = limit.div_ceil(2);
    let area_slots = limit.div_ceil(4).min(limit - depth_slots);
    let mut select = |slot: usize, cmp: &mut dyn FnMut(&T, &T) -> Ordering| {
        let mut best = slot;
        for i in slot + 1..items.len() {
            if cmp(&items[i], &items[best]) == Ordering::Less {
                best = i;
            }
        }
        items.swap(slot, best);
    };
    for slot in depth_slots..depth_slots + area_slots {
        select(slot, &mut area_cmp);
    }
    for slot in depth_slots + area_slots..limit {
        select(slot, &mut structural_cmp);
    }
}

/// A fixed-capacity, stack-allocated sorted leaf buffer.
///
/// Used as the merge scratch in cut enumeration and as the leaf view handed
/// to [`Cut::new`]. Dereferences to a `&[NodeId]` of its current length.
#[derive(Copy, Clone, PartialEq, Eq, Debug, Default)]
pub struct LeafBuf {
    len: u8,
    items: [NodeId; MAX_CUT_SIZE],
}

impl LeafBuf {
    /// Creates an empty buffer.
    #[inline]
    pub fn new() -> Self {
        LeafBuf::default()
    }

    /// Creates a buffer holding the given (sorted) leaves.
    ///
    /// # Panics
    ///
    /// Panics if more than [`MAX_CUT_SIZE`] leaves are given.
    pub fn from_slice(leaves: &[NodeId]) -> Self {
        assert!(leaves.len() <= MAX_CUT_SIZE, "too many leaves");
        let mut buf = LeafBuf::new();
        buf.items[..leaves.len()].copy_from_slice(leaves);
        buf.len = leaves.len() as u8;
        buf
    }

    /// The filled prefix as a slice.
    #[inline]
    pub fn as_slice(&self) -> &[NodeId] {
        &self.items[..self.len as usize]
    }

    /// Number of leaves currently held.
    #[inline]
    pub fn len(&self) -> usize {
        self.len as usize
    }

    /// Returns `true` if no leaf is held.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Appends a leaf without bounds checking beyond a debug assertion.
    #[inline]
    fn push(&mut self, leaf: NodeId) {
        debug_assert!((self.len as usize) < MAX_CUT_SIZE);
        self.items[self.len as usize] = leaf;
        self.len += 1;
    }

    /// Merges two sorted leaf slices, returning `None` when the union exceeds
    /// `max_size` leaves.
    #[inline]
    pub fn merge(a: &[NodeId], b: &[NodeId], max_size: usize) -> Option<LeafBuf> {
        debug_assert!(max_size <= MAX_CUT_SIZE);
        let mut out = LeafBuf::new();
        let (mut i, mut j) = (0, 0);
        while i < a.len() && j < b.len() {
            if out.len() >= max_size {
                return None;
            }
            let (x, y) = (a[i], b[j]);
            let next = match x.cmp(&y) {
                std::cmp::Ordering::Equal => {
                    i += 1;
                    j += 1;
                    x
                }
                std::cmp::Ordering::Less => {
                    i += 1;
                    x
                }
                std::cmp::Ordering::Greater => {
                    j += 1;
                    y
                }
            };
            out.push(next);
        }
        let (rest, k) = if i < a.len() { (a, i) } else { (b, j) };
        let remaining = rest.len() - k;
        if out.len() + remaining > max_size {
            return None;
        }
        for &l in &rest[k..] {
            out.push(l);
        }
        Some(out)
    }
}

impl FromIterator<NodeId> for LeafBuf {
    /// Collects the leaves in iteration order.
    ///
    /// # Panics
    ///
    /// Panics if more than [`MAX_CUT_SIZE`] leaves are given.
    fn from_iter<I: IntoIterator<Item = NodeId>>(iter: I) -> Self {
        let mut buf = LeafBuf::new();
        for leaf in iter {
            assert!(buf.len() < MAX_CUT_SIZE, "too many leaves");
            buf.push(leaf);
        }
        buf
    }
}

impl std::ops::Deref for LeafBuf {
    type Target = [NodeId];

    #[inline]
    fn deref(&self) -> &[NodeId] {
        self.as_slice()
    }
}

/// A single cut: a set of leaves, the root it belongs to, and the root's
/// function expressed over the leaves.
///
/// The truth table is always given for the *positive polarity* of the root
/// node, with leaf `i` of [`Cut::leaves`] bound to truth-table variable `i`.
/// Leaves are stored inline (`[NodeId; 8]` + length), so a `Cut` with at most
/// six leaves performs no heap allocation at all — see the module docs.
#[derive(Clone, Debug)]
pub struct Cut {
    root: NodeId,
    len: u8,
    leaves: [NodeId; MAX_CUT_SIZE],
    signature: u64,
    function: TruthTable,
    costs: CutCosts,
}

/// 64-bit leaf-set signature: bit `l.index() % 64` per leaf.
#[inline]
fn signature_of(leaves: &[NodeId]) -> u64 {
    leaves.iter().fold(0u64, |acc, l| acc | 1 << (l.index() % 64))
}

/// `true` when the sorted leaf list `a` is a subset of (or equal to) the
/// sorted leaf list `b`, given both lists' signatures.
///
/// The signature subset test rejects most non-subsets in O(1); the exact
/// confirmation is a linear two-pointer scan (cheaper than repeated binary
/// searches at these sizes). Shared by [`Cut::dominates`] and the proto-cut
/// filtering inside `enumerate_cuts`.
#[inline]
pub(crate) fn sorted_leaf_subset(a: &[NodeId], a_sig: u64, b: &[NodeId], b_sig: u64) -> bool {
    if a.len() > b.len() || a_sig & !b_sig != 0 {
        return false;
    }
    let mut j = 0;
    'outer: for &l in a {
        while j < b.len() {
            match b[j].cmp(&l) {
                std::cmp::Ordering::Less => j += 1,
                std::cmp::Ordering::Equal => {
                    j += 1;
                    continue 'outer;
                }
                std::cmp::Ordering::Greater => return false,
            }
        }
        return false;
    }
    true
}

impl Cut {
    /// Creates a cut from its parts. Leaves must already be sorted.
    ///
    /// # Panics
    ///
    /// Panics if more than [`MAX_CUT_SIZE`] leaves are given.
    pub fn new(root: NodeId, leaves: &[NodeId], function: TruthTable) -> Self {
        assert!(leaves.len() <= MAX_CUT_SIZE, "too many leaves");
        debug_assert!(leaves.windows(2).all(|w| w[0] < w[1]), "leaves must be sorted");
        debug_assert_eq!(function.num_vars(), leaves.len());
        let mut inline = [NodeId::CONST0; MAX_CUT_SIZE];
        inline[..leaves.len()].copy_from_slice(leaves);
        Cut {
            root,
            len: leaves.len() as u8,
            leaves: inline,
            signature: signature_of(leaves),
            function,
            costs: CutCosts::ZERO,
        }
    }

    /// Creates a cut with explicit mapping-cost estimates attached.
    pub fn with_costs(root: NodeId, leaves: &[NodeId], function: TruthTable, costs: CutCosts) -> Self {
        let mut cut = Cut::new(root, leaves, function);
        cut.costs = costs;
        cut
    }

    /// Creates an enumerated cut from a merged leaf buffer and the signature
    /// the merge already computed (the OR of the merged cuts' signatures,
    /// which is the merged leaves' signature).
    #[inline]
    pub(crate) fn from_merge(
        root: NodeId,
        leaves: &LeafBuf,
        signature: u64,
        function: TruthTable,
        costs: CutCosts,
    ) -> Self {
        debug_assert_eq!(signature, signature_of(leaves));
        debug_assert_eq!(function.num_vars(), leaves.len());
        Cut {
            root,
            len: leaves.len,
            leaves: leaves.items,
            signature,
            function,
            costs,
        }
    }

    /// The trivial cut `{node}` whose function is the projection of its leaf.
    pub fn trivial(node: NodeId) -> Self {
        Cut::new(node, &[node], TruthTable::var(1, 0))
    }

    /// The constant cut (no leaves) rooted at the constant node.
    pub fn constant(node: NodeId) -> Self {
        Cut::new(node, &[], TruthTable::zeros(0))
    }

    /// The node this cut is a cut *of*. For cuts inherited from choice nodes
    /// this is the choice node, not the representative.
    #[inline]
    pub fn root(&self) -> NodeId {
        self.root
    }

    /// The sorted leaf nodes.
    #[inline]
    pub fn leaves(&self) -> &[NodeId] {
        &self.leaves[..self.len as usize]
    }

    /// Number of leaves.
    #[inline]
    pub fn size(&self) -> usize {
        self.len as usize
    }

    /// The 64-bit leaf-set signature (bit `leaf.index() % 64` per leaf).
    #[inline]
    pub fn signature(&self) -> u64 {
        self.signature
    }

    /// The root function over the leaves (positive polarity).
    #[inline]
    pub fn function(&self) -> &TruthTable {
        &self.function
    }

    /// The mapping-cost estimates of this cut (see [`CutCosts`]).
    #[inline]
    pub fn costs(&self) -> CutCosts {
        self.costs
    }

    /// Unit-delay arrival of the root through this cut.
    #[inline]
    pub fn arrival(&self) -> u32 {
        self.costs.arrival
    }

    /// Area flow (sharing-aware area estimate) of this cut.
    #[inline]
    pub fn area_flow(&self) -> f32 {
        self.costs.flow
    }

    /// Overwrites the mapping-cost estimates (used when a cut is transferred
    /// onto another node and its costs must be recomputed in that context).
    #[inline]
    pub fn set_costs(&mut self, costs: CutCosts) {
        self.costs = costs;
    }

    /// Returns a copy of this cut re-rooted at `root` with the function
    /// optionally complemented (used when transferring cuts from choice nodes
    /// to their representatives).
    pub fn reroot(&self, root: NodeId, complement: bool) -> Cut {
        Cut {
            root,
            len: self.len,
            leaves: self.leaves,
            signature: self.signature,
            function: if complement {
                self.function.not()
            } else {
                self.function.clone()
            },
            costs: self.costs,
        }
    }

    /// Compares two cuts by the `(arrival, flow, size, leaves)` depth-first
    /// key.
    #[inline]
    pub(crate) fn cmp_depth(&self, other: &Cut) -> Ordering {
        self.costs
            .cmp_depth(&other.costs)
            .then_with(|| self.cmp_structural(other))
    }

    /// Compares two cuts by the `(flow, arrival, size, leaves)` area-first
    /// key.
    #[inline]
    pub(crate) fn cmp_area(&self, other: &Cut) -> Ordering {
        self.costs
            .cmp_area(&other.costs)
            .then_with(|| self.cmp_structural(other))
    }

    /// Compares two cuts by the static `(size, leaves)` key.
    #[inline]
    pub(crate) fn cmp_structural(&self, other: &Cut) -> Ordering {
        self.size()
            .cmp(&other.size())
            .then_with(|| self.leaves().cmp(other.leaves()))
    }

    /// Returns `true` if this cut is the trivial cut of its root.
    #[inline]
    pub fn is_trivial(&self) -> bool {
        self.len == 1 && self.leaves[0] == self.root
    }

    /// Returns `true` when every leaf of `self` is also a leaf of `other`
    /// (signature-gated subset test: the O(1) signature check rejects most
    /// non-subsets before the exact two-pointer scan).
    #[inline]
    pub fn dominates(&self, other: &Cut) -> bool {
        sorted_leaf_subset(
            self.leaves(),
            self.signature,
            other.leaves(),
            other.signature,
        )
    }

    /// Merges the leaf sets of two cuts into a stack buffer, returning `None`
    /// if the union has more than `max_size` leaves.
    ///
    /// The popcount of the combined signatures lower-bounds the union size,
    /// so clearly oversized merges are rejected in O(1) before the scan.
    #[inline]
    pub fn merge_leaves(a: &Cut, b: &Cut, max_size: usize) -> Option<LeafBuf> {
        if (a.signature | b.signature).count_ones() as usize > max_size {
            return None;
        }
        LeafBuf::merge(a.leaves(), b.leaves(), max_size)
    }
}

impl PartialEq for Cut {
    fn eq(&self, other: &Self) -> bool {
        self.root == other.root
            && self.leaves() == other.leaves()
            && self.function == other.function
    }
}

impl Eq for Cut {}

impl fmt::Display for Cut {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{{", self.root)?;
        for (i, l) in self.leaves().iter().enumerate() {
            if i > 0 {
                write!(f, ",")?;
            }
            write!(f, "{l}")?;
        }
        write!(f, "}}")
    }
}

/// A bounded, dominance-filtered collection of cuts of one node.
#[derive(Clone, Debug, Default)]
pub struct CutSet {
    cuts: Vec<Cut>,
}

impl CutSet {
    /// Creates an empty cut set.
    pub fn new() -> Self {
        CutSet { cuts: Vec::new() }
    }

    /// The cuts, best first (insertion order after filtering and truncation).
    pub fn iter(&self) -> impl Iterator<Item = &Cut> {
        self.cuts.iter()
    }

    /// Number of cuts stored.
    pub fn len(&self) -> usize {
        self.cuts.len()
    }

    /// Returns `true` if no cut is stored.
    pub fn is_empty(&self) -> bool {
        self.cuts.is_empty()
    }

    /// Returns the cut at `index`.
    pub fn get(&self, index: usize) -> Option<&Cut> {
        self.cuts.get(index)
    }

    /// Builds a set from already-filtered cuts with an exactly-sized backing
    /// vector (the choice-transfer path rebuilds arena spans through this).
    pub fn from_cuts(cuts: &[Cut]) -> CutSet {
        let mut owned = Vec::with_capacity(cuts.len());
        owned.extend(cuts.iter().cloned());
        CutSet { cuts: owned }
    }

    /// Consumes the set, returning the backing vector (best-ranked first).
    pub fn into_vec(self) -> Vec<Cut> {
        self.cuts
    }

    /// Adds a cut unless it is dominated by (or equal to) an existing cut;
    /// removes cuts the new one strictly dominates. Returns `true` if the cut
    /// was inserted.
    ///
    /// A single signature-gated pass decides rejection: `c.dominates(&cut)`
    /// covers both the strict-domination and the duplicate-leaves case, so the
    /// two scans the naive formulation needs are fused into one.
    pub fn insert(&mut self, cut: Cut) -> bool {
        if self.cuts.iter().any(|c| c.dominates(&cut)) {
            return false;
        }
        // No existing cut dominates (or equals) the new one, so any cut the
        // new one dominates is strictly larger and must go.
        self.cuts.retain(|c| !cut.dominates(c));
        self.cuts.push(cut);
        true
    }

    /// Appends a cut without any dominance filtering (used when inheriting
    /// choice-node cuts, which must survive even if structurally larger).
    /// Exact duplicates (same root and leaves) are still rejected, with the
    /// signature comparison screening out non-candidates cheaply.
    pub fn push_unchecked(&mut self, cut: Cut) {
        if self.cuts.iter().any(|c| {
            c.signature == cut.signature && c.root == cut.root && c.leaves() == cut.leaves()
        }) {
            return;
        }
        self.cuts.push(cut);
    }

    /// Sorts the cuts by `key` (ascending) and truncates to `limit`, always
    /// keeping the trivial cut of `root` if present.
    pub fn prioritize<K: Ord>(&mut self, limit: usize, mut key: impl FnMut(&Cut) -> K) {
        self.cuts.sort_by_key(|c| key(c));
        self.truncate_keeping_trivial(limit);
    }

    /// The default static priority order — smaller cuts first, ties broken by
    /// the lexicographic leaf order — implemented without the per-comparison
    /// key allocation a `(size, leaves.to_vec())` sort key would incur.
    pub fn prioritize_default(&mut self, limit: usize) {
        self.prioritize_by(limit, CutCost::Structural);
    }

    /// Sorts the cuts by the given [`CutCost`] ranking and truncates to
    /// `limit`, always keeping the trivial cut of the root if present.
    ///
    /// For [`CutCost::Hybrid`] the kept set is a blend: the depth-best half
    /// plus the best area-flow cuts among the rest (see [`CutCost`]).
    pub fn prioritize_by(&mut self, limit: usize, cost: CutCost) {
        match cost {
            CutCost::Structural => self.cuts.sort_unstable_by(Cut::cmp_structural),
            CutCost::Depth => self.cuts.sort_unstable_by(Cut::cmp_depth),
            CutCost::Area => self.cuts.sort_unstable_by(Cut::cmp_area),
            CutCost::Hybrid => hybrid_select(
                &mut self.cuts,
                limit,
                Cut::cmp_depth,
                Cut::cmp_area,
                Cut::cmp_structural,
            ),
        }
        self.truncate_keeping_trivial(limit);
    }

    fn truncate_keeping_trivial(&mut self, limit: usize) {
        if self.cuts.len() > limit {
            let trivial = self.cuts.iter().position(|c| c.is_trivial());
            if let Some(pos) = trivial {
                if pos >= limit {
                    let t = self.cuts.remove(pos);
                    self.cuts.truncate(limit.saturating_sub(1));
                    self.cuts.push(t);
                    return;
                }
            }
            self.cuts.truncate(limit);
        }
    }
}

impl<'a> IntoIterator for &'a CutSet {
    type Item = &'a Cut;
    type IntoIter = std::slice::Iter<'a, Cut>;

    fn into_iter(self) -> Self::IntoIter {
        self.cuts.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn node(i: usize) -> NodeId {
        NodeId::from_index(i)
    }

    #[test]
    fn trivial_cut_shape() {
        let c = Cut::trivial(node(5));
        assert!(c.is_trivial());
        assert_eq!(c.size(), 1);
        assert_eq!(c.function().num_vars(), 1);
        assert!(c.function().is_inline());
    }

    #[test]
    fn domination() {
        let small = Cut::new(node(9), &[node(1), node(2)], TruthTable::zeros(2));
        let big = Cut::new(node(9), &[node(1), node(2), node(3)], TruthTable::zeros(3));
        assert!(small.dominates(&big));
        assert!(!big.dominates(&small));
        // A cut dominates itself (subset-or-equal semantics).
        assert!(small.dominates(&small));
    }

    #[test]
    fn domination_with_signature_collision() {
        // Leaves 1 and 65 collide in the 64-bit signature; the exact scan
        // must still reject the false subset.
        let a = Cut::new(node(99), &[node(65)], TruthTable::zeros(1));
        let b = Cut::new(node(99), &[node(1), node(2)], TruthTable::zeros(2));
        assert!(!a.dominates(&b));
    }

    #[test]
    fn merge_respects_size_limit() {
        let a = Cut::new(node(9), &[node(1), node(2)], TruthTable::zeros(2));
        let b = Cut::new(node(9), &[node(2), node(3)], TruthTable::zeros(2));
        let merged = Cut::merge_leaves(&a, &b, 4).expect("fits");
        assert_eq!(merged.as_slice(), &[node(1), node(2), node(3)]);
        assert_eq!(Cut::merge_leaves(&a, &b, 2), None);
    }

    #[test]
    fn merge_buf_handles_disjoint_and_contained() {
        let a = [node(1), node(4)];
        let b = [node(2), node(3), node(5)];
        let m = LeafBuf::merge(&a, &b, 8).expect("fits");
        assert_eq!(m.as_slice(), &[node(1), node(2), node(3), node(4), node(5)]);
        let m = LeafBuf::merge(&a, &a, 2).expect("identical sets fit");
        assert_eq!(m.as_slice(), &a);
        assert_eq!(LeafBuf::merge(&a, &b, 4), None);
    }

    #[test]
    fn cut_set_filters_dominated() {
        let mut set = CutSet::new();
        let big = Cut::new(node(9), &[node(1), node(2), node(3)], TruthTable::zeros(3));
        let small = Cut::new(node(9), &[node(1), node(2)], TruthTable::zeros(2));
        assert!(set.insert(big.clone()));
        assert!(set.insert(small.clone()));
        // The dominated bigger cut is removed.
        assert_eq!(set.len(), 1);
        assert_eq!(set.get(0).unwrap().leaves(), small.leaves());
        // Re-inserting the dominated cut is rejected.
        assert!(!set.insert(big));
        // Duplicate leaves are rejected too.
        assert!(!set.insert(small));
    }

    #[test]
    fn prioritize_keeps_trivial_cut() {
        let mut set = CutSet::new();
        set.push_unchecked(Cut::new(node(4), &[node(1), node(2)], TruthTable::zeros(2)));
        set.push_unchecked(Cut::new(node(4), &[node(1), node(3)], TruthTable::zeros(2)));
        set.push_unchecked(Cut::trivial(node(4)));
        set.prioritize_default(2);
        assert_eq!(set.len(), 2);
        assert!(set.iter().any(|c| c.is_trivial()));
    }

    #[test]
    fn prioritize_default_matches_keyed_sort() {
        let cuts = [
            Cut::new(node(9), &[node(2), node(3)], TruthTable::zeros(2)),
            Cut::new(node(9), &[node(1), node(2), node(3)], TruthTable::zeros(3)),
            Cut::new(node(9), &[node(1), node(4)], TruthTable::zeros(2)),
            Cut::trivial(node(9)),
        ];
        let mut a = CutSet::new();
        let mut b = CutSet::new();
        for c in &cuts {
            a.push_unchecked(c.clone());
            b.push_unchecked(c.clone());
        }
        a.prioritize(8, |c| (c.size(), c.leaves().to_vec()));
        b.prioritize_default(8);
        let ka: Vec<_> = a.iter().map(|c| c.leaves().to_vec()).collect();
        let kb: Vec<_> = b.iter().map(|c| c.leaves().to_vec()).collect();
        assert_eq!(ka, kb);
    }

    #[test]
    fn push_unchecked_deduplicates_by_root_and_leaves() {
        let mut set = CutSet::new();
        let c = Cut::new(node(4), &[node(1), node(2)], TruthTable::zeros(2));
        set.push_unchecked(c.clone());
        set.push_unchecked(c.clone());
        assert_eq!(set.len(), 1);
        // Same leaves, different root: kept.
        set.push_unchecked(c.reroot(node(5), false));
        assert_eq!(set.len(), 2);
    }

    #[test]
    fn reroot_complements_function() {
        let a = TruthTable::var(2, 0);
        let b = TruthTable::var(2, 1);
        let cut = Cut::new(node(7), &[node(1), node(2)], a.and(&b));
        let r = cut.reroot(node(9), true);
        assert_eq!(r.root(), node(9));
        assert_eq!(*r.function(), a.and(&b).not());
    }

    #[test]
    fn from_cuts_is_exactly_sized() {
        let cuts: Vec<Cut> = (1..6).map(|i| Cut::trivial(node(i))).collect();
        let set = CutSet::from_cuts(&cuts);
        assert_eq!(set.len(), 5);
        assert!(set.iter().all(|c| c.is_trivial()));
    }
}
