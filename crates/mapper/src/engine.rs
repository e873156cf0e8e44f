//! The shared covering engine both technology mappers run on.
//!
//! ASIC and LUT covering are the same dynamic program with different cost
//! models (cf. "Mapping Fusion: Improving FPGA Technology Mapping with ASIC
//! Mapper"): a delay-oriented forward pass establishes arrival times, a
//! number of area-recovery rounds re-select candidates under required times
//! propagated backward from the outputs, and the final cover is extracted
//! from the primary outputs. [`CoverProblem::solve`] implements that loop
//! once, generically over a [`CoverTarget`] — the trait that supplies what
//! actually differs between targets: how candidates are enumerated, what a
//! candidate's arrival and area are, how required time propagates onto a
//! candidate's leaves, and how the selected cover is emitted as a netlist.
//!
//! # Incremental re-selection (`CandidateCache`)
//!
//! Re-selecting a node is a pure function of
//!
//! 1. the `(arrival, flow)` pair of every leaf of every candidate,
//! 2. the node's own required time, and
//! 3. the node's previous selection (the fallback when no candidate is
//!    feasible).
//!
//! The engine memoises per-node results in a `CandidateCache` and skips a
//! node in an area round when none of those inputs changed — bit-for-bit —
//! since the node was last evaluated. Changes propagate as dirty bits over
//! the candidate-leaf fanout relation: whenever a node's selection, arrival
//! or area flow changes, every node that lists it as a candidate leaf is
//! marked dirty (such nodes are always processed later in the same round
//! because candidate leaves precede their root topologically). Because the
//! skip condition is exact, memoised runs produce **bit-identical** covers to
//! full recomputation (`memoise: false`), which the `mapping_rounds` bench
//! asserts; the speedup at `area_rounds > 2` comes from selections
//! stabilising after the first rounds, after which most nodes are clean.
//!
//! # Exact-area final pass
//!
//! With [`EngineParams::exact_area`] set, a final pass re-selects each
//! covered node by *exact* area — the cells/LUTs the candidate's cone really
//! adds under the current reference counts, computed by the classical
//! ref/deref walk — instead of the area-flow estimate, still honouring the
//! required times established by the preceding `area_rounds` flow rounds.
//! The pass is off by default: it changes covers, and the default flows pin
//! their quality numbers.

use crate::mapping::MappingObjective;
use mch_choice::ChoiceNetwork;
use mch_cut::{Cut, NetworkCuts};
use mch_logic::{Network, NodeId};

/// Slack tolerance of every required-time / arrival comparison in the engine.
///
/// A candidate is considered to meet a timing bound when its arrival exceeds
/// the bound by at most this epsilon, absorbing the float noise that
/// accumulates through arrival/required propagation. Formerly this constant
/// was copy-pasted at four comparison sites across the two mappers.
pub const SLACK_EPS: f64 = 1e-9;

/// Returns `true` when `arrival` meets `bound` within [`SLACK_EPS`].
///
/// This is the single tie-break predicate used by every feasibility check in
/// the engine (strict-delay checks against the minimum achievable arrival,
/// balanced checks against the node's required time).
#[inline]
pub fn meets_bound(arrival: f64, bound: f64) -> bool {
    arrival <= bound + SLACK_EPS
}

/// What a technology target must provide for the engine to cover a network.
///
/// Implementations exist for standard-cell mapping (`asic.rs`) and K-LUT
/// mapping (`lut.rs`); the trait is public so further targets (e.g. hybrid
/// LUT-structures or coarse-grained blocks) can reuse the engine.
pub trait CoverTarget {
    /// One concrete way of covering a node (a matched cell, a LUT, …).
    /// `Clone`, so a problem's first injection on a node can start the
    /// node's own list from the skeleton's.
    type Candidate: Clone;
    /// The netlist type the selected cover is emitted into.
    type Netlist;

    /// Appends the candidates of `id`, enumerated from `cuts` (the node's
    /// cut list), to `out`, in a deterministic order.
    ///
    /// Must append at least one — every mappable node needs an
    /// implementation (targets assert this with a target-specific message).
    /// `out` already holds the candidates of earlier nodes: the node's own
    /// list starts at the length `out` had on entry.
    fn candidates(&self, net: &Network, id: NodeId, cuts: &[Cut], out: &mut Vec<Self::Candidate>);

    /// The candidate's leaves (sorted, distinct, topologically before the
    /// root).
    fn leaves<'a>(&self, cand: &'a Self::Candidate) -> &'a [NodeId];

    /// Arrival time at the root if `cand` is selected, given the current
    /// per-node arrival times.
    fn arrival(&self, cand: &Self::Candidate, arrivals: &[f64]) -> f64;

    /// The candidate's own area cost (no leaf contribution).
    fn area(&self, cand: &Self::Candidate) -> f64;

    /// Required time imposed on leaf `leaf_index` when the root must be ready
    /// by `root_required`.
    fn leaf_required(
        &self,
        cand: &Self::Candidate,
        leaf_index: usize,
        root_required: f64,
    ) -> f64;

    /// Emits the selected cover as a netlist.
    fn emit(&self, net: &Network, cover: &Cover<'_, Self::Candidate>) -> Self::Netlist;
}

/// The selected cover handed to [`CoverTarget::emit`]: a selection over the
/// problem's candidate lists (its skeleton's, plus its own injections).
pub struct Cover<'a, C> {
    skeleton: &'a CoverSkeleton<C>,
    overlay: &'a Overlay<C>,
    selection: &'a CoverSelection,
}

impl<'a, C> Cover<'a, C> {
    /// The original (representative) gates, in topological order.
    pub fn original_gates(&self) -> &'a [NodeId] {
        &self.skeleton.original_gates
    }

    /// Whether `id` is part of the cover (reachable from the outputs through
    /// selected candidates).
    pub fn is_needed(&self, id: NodeId) -> bool {
        self.selection.is_needed(id)
    }

    /// The selected candidate of `id`.
    pub fn selected(&self, id: NodeId) -> &'a C {
        &self.overlay.list(self.skeleton, id.index()).0[self.selection.best[id.index()]]
    }
}

/// The outcome of the covering dynamic program, before netlist emission.
///
/// [`CoverProblem::solve_selection`] returns the winning candidate index and
/// cover membership per node; [`CoverProblem::emit`] turns a selection into
/// the target netlist. The split exists for cross-mapper fusion: the fusion
/// pipeline solves an ASIC problem, *reads* the selection to harvest the
/// chosen cones, and never emits an ASIC netlist at all.
pub struct CoverSelection {
    /// Both tables cover the original prefix of the mixed network only.
    best: Vec<usize>,
    needed: Vec<bool>,
}

impl CoverSelection {
    /// Index of the winning candidate of `id` (into the problem's candidate
    /// list for that node). `usize::MAX` for nodes that are not original
    /// gates of the problem.
    pub fn best_index(&self, id: NodeId) -> usize {
        self.best.get(id.index()).copied().unwrap_or(usize::MAX)
    }

    /// Whether `id` is part of the cover (reachable from the outputs through
    /// selected candidates).
    pub fn is_needed(&self, id: NodeId) -> bool {
        self.needed.get(id.index()).copied().unwrap_or(false)
    }
}

/// Knobs of the covering engine, shared by both mappers.
#[derive(Copy, Clone, PartialEq, Debug)]
pub struct EngineParams {
    /// Mapping objective (delay / balanced / area).
    pub objective: MappingObjective,
    /// Number of area-recovery rounds after the delay-oriented pass.
    pub area_rounds: usize,
    /// Run an exact-area re-selection pass (ref/deref walk under the final
    /// required times) after the area-flow rounds. Off by default.
    pub exact_area: bool,
    /// Memoise per-node selections across rounds (see the
    /// `CandidateCache` notes in the module docs).
    /// `false` re-evaluates every node every round — the recompute baseline
    /// the `mapping_rounds` bench measures against. Results are bit-identical
    /// either way.
    pub memoise: bool,
}

/// Variable-length rows stored back to back in one vector: row `i` is
/// `items[start[i]..start[i + 1]]`.
#[derive(Debug)]
struct Rows<T> {
    start: Vec<u32>,
    items: Vec<T>,
}

impl<T> Rows<T> {
    fn row(&self, i: usize) -> &[T] {
        &self.items[self.start[i] as usize..self.start[i + 1] as usize]
    }

    fn len(&self) -> usize {
        self.start.len() - 1
    }
}

/// A row offset; the tables index rows with `u32`s.
fn offset(len: usize) -> u32 {
    u32::try_from(len).expect("a cover table outgrew u32 offsets")
}

/// The parameter-independent skeleton of a covering problem: the target's
/// enumerated candidates, the fanout reference estimates and the
/// candidate-leaf fanout relation, over the choice network's original nodes.
///
/// Building a skeleton is the expensive part of preparing a cover (candidate
/// enumeration — Boolean matching for ASIC targets — dominates it), and the
/// result depends only on the choice network, the target and the cut lists
/// it was built from, never on [`EngineParams`]. A skeleton therefore
/// outlives any single solve and its cut lists: the warm-start layer of
/// `mch_core` caches one per `(choice network, cut set, library)` and every
/// parameter variant borrows it through [`CoverProblem::new`]. Nothing
/// writes to a built skeleton: a problem keeps its injected candidates,
/// their `users` edges and its bonuses in an overlay of its own.
///
/// Every table is flat and covers the original prefix `0..original_len()`
/// of the mixed network, the only nodes a cover maps or reads: candidate
/// leaves are original nodes, since choice transfer resolves every inherited
/// leaf to its representative.
#[derive(Debug)]
pub struct CoverSkeleton<C> {
    original_gates: Vec<NodeId>,
    /// The candidate arena: every original gate's candidates, in node order,
    /// exactly sized; other nodes' rows are empty.
    candidates: Rows<C>,
    refs: Vec<f64>,
    /// The candidate-leaf fanout relation: row `l` lists, ascending, every
    /// original gate with `l` as a leaf of *some* candidate — the edges
    /// dirty bits propagate along (see `CandidateCache`).
    users: Rows<u32>,
}

impl<C> CoverSkeleton<C> {
    /// Builds the skeleton: enumerates every original gate's candidates from
    /// its list in `cuts`, derives fanout reference estimates and the
    /// candidate-leaf fanout relation. Deterministic — a pure function of
    /// `(choice, target, cuts)`. No cut is read after this returns.
    pub fn build<T: CoverTarget<Candidate = C>>(
        choice: &ChoiceNetwork,
        target: &T,
        cuts: &NetworkCuts,
    ) -> Self {
        let net = choice.network();
        let n = choice.original_len();
        let original_gates: Vec<NodeId> = net.gate_ids().take_while(|id| id.index() < n).collect();

        let mut start = Vec::with_capacity(n + 1);
        start.push(0);
        let mut items = Vec::new();
        for i in 0..n {
            let id = NodeId::from_index(i);
            if net.is_gate(id) {
                let before = items.len();
                target.candidates(net, id, cuts.of(id), &mut items);
                assert!(items.len() > before, "node {id} has no cover candidate");
            }
            start.push(offset(items.len()));
        }
        items.shrink_to_fit();
        let candidates = Rows { start, items };

        // Fanout reference estimates over the original structure.
        let mut refs = vec![0.0f64; n];
        for &id in &original_gates {
            for f in net.node(id).fanins() {
                refs[f.node().index()] += 1.0;
            }
        }
        for o in net.outputs() {
            refs[o.node().index()] += 1.0;
        }

        let users = user_rows(&original_gates, &candidates, |c| target.leaves(c));
        CoverSkeleton {
            original_gates,
            candidates,
            refs,
            users,
        }
    }

    /// Number of nodes the skeleton covers: the choice network's
    /// `original_len()`.
    fn len(&self) -> usize {
        self.candidates.len()
    }

    /// Approximate heap footprint in bytes; `candidate_bytes` supplies the
    /// per-candidate estimate, its arena slot included (candidates are
    /// opaque here). Used by the warm-start cache's byte accounting.
    pub fn approx_bytes(&self, candidate_bytes: impl Fn(&C) -> usize) -> usize {
        // The arena is exactly sized: its slots are the candidates' bytes.
        let cand_bytes: usize = self.candidates.items.iter().map(candidate_bytes).sum();
        self.original_gates.capacity() * std::mem::size_of::<NodeId>()
            + cand_bytes
            + self.refs.capacity() * 8
            + (self.candidates.start.capacity()
                + self.users.start.capacity()
                + self.users.items.capacity())
                * 4
    }
}

/// The candidate-leaf fanout relation of `candidates`: row `l` lists,
/// ascending and without repeats, every gate with `l` as a leaf of some
/// candidate. Two passes over the edges (count, then fill) build one
/// exactly-sized table; gates are visited in ascending order, so every row
/// comes out sorted and a repeated edge always repeats the row's last entry.
fn user_rows<C>(
    gates: &[NodeId],
    candidates: &Rows<C>,
    leaves: impl Fn(&C) -> &[NodeId],
) -> Rows<u32> {
    let n = candidates.len();
    let each_edge = |f: &mut dyn FnMut(usize, u32)| {
        let mut last = vec![u32::MAX; n];
        for &g in gates {
            let g32 = g.index() as u32;
            for cand in candidates.row(g.index()) {
                for &l in leaves(cand) {
                    if last[l.index()] != g32 {
                        last[l.index()] = g32;
                        f(l.index(), g32);
                    }
                }
            }
        }
    };
    let mut start = vec![0u32; n + 1];
    each_edge(&mut |l, _| start[l + 1] += 1);
    for i in 0..n {
        start[i + 1] += start[i];
    }
    let mut fill = start[..n].to_vec();
    let mut items = vec![0u32; start[n] as usize];
    each_edge(&mut |l, g| {
        items[fill[l] as usize] = g;
        fill[l] += 1;
    });
    Rows { start, items }
}

/// What a problem writes over its borrowed skeleton, node by node: the
/// node's own candidate list once an injection extends it, the `users`
/// edges injections add from it, and its candidates' selection bonuses.
struct Overlay<C> {
    /// Per original node, one plus the index of its entry in `nodes`, or
    /// zero. Empty until the problem's first write, so a problem that only
    /// solves allocates nothing here.
    slot: Vec<u32>,
    nodes: Vec<NodeOverlay<C>>,
}

struct NodeOverlay<C> {
    /// The skeleton's list followed by the node's injected candidates;
    /// empty while none was injected.
    candidates: Vec<C>,
    /// Users gained through candidates injected on later nodes, beyond the
    /// skeleton's row.
    users: Vec<u32>,
    /// Selection bonus per candidate index; missing entries are zero.
    bonus: Vec<f64>,
}

impl<C> Overlay<C> {
    fn get(&self, idx: usize) -> Option<&NodeOverlay<C>> {
        match self.slot.get(idx) {
            Some(&s) if s != 0 => Some(&self.nodes[s as usize - 1]),
            _ => None,
        }
    }

    /// The entry of node `idx` of a skeleton over `len` nodes, created empty
    /// on first use.
    fn entry(&mut self, idx: usize, len: usize) -> &mut NodeOverlay<C> {
        if self.slot.is_empty() {
            self.slot = vec![0; len];
        }
        if self.slot[idx] == 0 {
            self.nodes.push(NodeOverlay {
                candidates: Vec::new(),
                users: Vec::new(),
                bonus: Vec::new(),
            });
            self.slot[idx] = offset(self.nodes.len());
        }
        &mut self.nodes[self.slot[idx] as usize - 1]
    }

    /// The candidate list and bonuses of node `idx`, read through the
    /// overlay.
    fn list<'s>(&'s self, skeleton: &'s CoverSkeleton<C>, idx: usize) -> (&'s [C], &'s [f64]) {
        match self.get(idx) {
            Some(node) if !node.candidates.is_empty() => (&node.candidates, &node.bonus),
            Some(node) => (skeleton.candidates.row(idx), &node.bonus),
            None => (skeleton.candidates.row(idx), &[]),
        }
    }

    fn users(&self, idx: usize) -> &[u32] {
        self.get(idx).map_or(&[], |node| &node.users)
    }
}

/// A covering problem prepared for (repeated) solving: a borrowed
/// [`CoverSkeleton`] bound to its choice network and target, plus the
/// problem's own injected candidates and selection bonuses.
///
/// Preparing is the expensive, parameter-independent part of covering
/// (candidate enumeration dominates it); [`CoverProblem::solve`] runs the
/// actual dynamic program and can be called any number of times with
/// different [`EngineParams`] — different `area_rounds`, objectives or the
/// exact-area pass — without re-enumerating candidates. The `mapping_rounds`
/// bench times `solve` in isolation this way. Solving never mutates the
/// problem: all per-solve state (arrivals, flows, selections, the
/// memoisation cache) is allocated fresh inside each call, so repeated
/// solves of one problem are independent and bit-reproducible — the fusion
/// pipeline relies on this when it solves the same problem before and after
/// injecting guide cones.
pub struct CoverProblem<'a, T: CoverTarget> {
    choice: &'a ChoiceNetwork,
    target: &'a T,
    skeleton: &'a CoverSkeleton<T::Candidate>,
    overlay: Overlay<T::Candidate>,
}

/// Per-solve memoisation state of the area-recovery rounds.
///
/// A node is skipped in an area round when it is clean (no leaf of any of its
/// candidates changed `(arrival, flow)` since the node was last evaluated)
/// and its required time is bit-identical to the previous round's. When a
/// node's `(best, arrival, flow)` does change, its users — the skeleton's
/// `users` row plus the problem's injected edges — are marked dirty; they
/// always sit later in the same round's topological sweep.
struct CandidateCache {
    dirty: Vec<bool>,
    prev_required: Vec<f64>,
}

impl<'a, T: CoverTarget> CoverProblem<'a, T> {
    /// Binds a skeleton to its choice network and target.
    ///
    /// `skeleton` must have been built by [`CoverSkeleton::build`] over the
    /// same choice network and an identically-configured target (same cut
    /// set, same library); the size is asserted, the contents are the
    /// caller's contract. The skeleton is only read: any number of problems
    /// share one, and each keeps its injections and bonuses to itself.
    pub fn new(
        choice: &'a ChoiceNetwork,
        target: &'a T,
        skeleton: &'a CoverSkeleton<T::Candidate>,
    ) -> Self {
        assert_eq!(
            skeleton.len(),
            choice.original_len(),
            "skeleton was built over a different choice network"
        );
        CoverProblem {
            choice,
            target,
            skeleton,
            overlay: Overlay {
                slot: Vec::new(),
                nodes: Vec::new(),
            },
        }
    }

    /// The original (representative) gates of the problem, in topological
    /// order.
    pub fn original_gates(&self) -> &[NodeId] {
        &self.skeleton.original_gates
    }

    /// The candidate list of `id`: the skeleton's, followed by the
    /// candidates this problem injected on it (empty for non-original
    /// nodes).
    pub fn candidates_of(&self, id: NodeId) -> &[T::Candidate] {
        if id.index() < self.skeleton.len() {
            self.lists(id.index()).0
        } else {
            &[]
        }
    }

    /// The selected candidate of `id` under `sel`.
    ///
    /// Panics when `id` is not an original gate of the problem.
    pub fn selected<'s>(&'s self, sel: &CoverSelection, id: NodeId) -> &'s T::Candidate {
        self.chosen(&sel.best, id)
    }

    /// The candidate list and bonuses of original node `idx`.
    fn lists(&self, idx: usize) -> (&[T::Candidate], &[f64]) {
        self.overlay.list(self.skeleton, idx)
    }

    /// The selected candidate of `id` under the per-node selection `best`.
    fn chosen(&self, best: &[usize], id: NodeId) -> &T::Candidate {
        &self.lists(id.index()).0[best[id.index()]]
    }

    /// Injects an extra candidate on `root` and returns its index in the
    /// node's candidate list.
    ///
    /// This is the fusion hook: cones selected by one mapper become
    /// additional candidates of another mapper's problem. The candidate's
    /// leaves must be distinct nodes that topologically precede `root`
    /// (asserted), exactly as for enumerated candidates.
    ///
    /// Injection keeps `CandidateCache` incrementality sound: every leaf of
    /// the new candidate gains a `users` edge to `root` (unless the
    /// skeleton's row already has it), so dirty-bit invalidation reaches the
    /// injected cone exactly like an enumerated one.
    ///
    /// Only this problem's overlay is written: `root`'s list is copied from
    /// the skeleton at the node's first injection, and the shared skeleton
    /// is never touched.
    pub fn inject_candidate(&mut self, root: NodeId, cand: T::Candidate) -> usize {
        let idx = root.index();
        let skeleton = self.skeleton;
        let len = skeleton.len();
        assert!(
            idx < len && !skeleton.candidates.row(idx).is_empty(),
            "injection root {root} is not an original gate of the problem"
        );
        let user = idx as u32;
        for &l in self.target.leaves(&cand) {
            assert!(
                l.index() < idx,
                "injected leaf {l} does not precede root {root}"
            );
            if skeleton.users.row(l.index()).binary_search(&user).is_err() {
                let users = &mut self.overlay.entry(l.index(), len).users;
                if !users.contains(&user) {
                    users.push(user);
                }
            }
        }
        let list = &mut self.overlay.entry(idx, len).candidates;
        if list.is_empty() {
            list.extend_from_slice(skeleton.candidates.row(idx));
        }
        list.push(cand);
        list.len() - 1
    }

    /// Grants candidate `cand_index` of `root` a selection bonus.
    ///
    /// The bonus is subtracted from the candidate's **area-flow comparison
    /// key** in the delay pass and the area-recovery rounds — it biases which
    /// candidate wins ties (and near-ties) without touching the arrival times
    /// or area flows that are stored and propagated, so a problem with no
    /// bonuses set is bit-identical to one where this method was never
    /// called. A bonus is a pure function of `(root, cand_index)` and
    /// constant across rounds, so `CandidateCache` memoisation stays exact.
    pub fn set_bonus(&mut self, root: NodeId, cand_index: usize, bonus: f64) {
        let count = self.candidates_of(root).len();
        assert!(
            cand_index < count,
            "bonus for nonexistent candidate {cand_index} of {root}"
        );
        let bonuses = &mut self.overlay.entry(root.index(), self.skeleton.len()).bonus;
        if bonuses.len() < count {
            bonuses.resize(count, 0.0);
        }
        bonuses[cand_index] = bonus;
    }

    /// Runs the covering dynamic program and emits the target netlist.
    ///
    /// The flow is exactly the classical priority-cut dynamic program both
    /// mappers previously hand-rolled:
    ///
    /// 1. **Delay pass** — pick, per node in topological order, the candidate
    ///    minimising `(arrival, area_flow)`; the worst output arrival becomes
    ///    the delay target.
    /// 2. **Area rounds** — `area_rounds` times: propagate required times
    ///    backward from the outputs (skipped entirely for the
    ///    [`Area`](MappingObjective::Area) objective, where timing is
    ///    unconstrained), then re-select per node the candidate minimising
    ///    `(area_flow, arrival)` among those meeting the node's timing bound.
    ///    With [`EngineParams::memoise`], clean nodes are skipped (see
    ///    `CandidateCache`), and a round in which nothing changed is a
    ///    fixed point — every later round would be a no-op, so the loop ends
    ///    early.
    /// 3. **Exact-area pass** (optional) — re-select covered nodes by exact
    ///    area under the final required times.
    /// 4. **Extraction** — walk the selected candidates from the outputs and
    ///    emit the needed nodes through [`CoverTarget::emit`].
    pub fn solve(&self, params: &EngineParams) -> T::Netlist {
        self.emit(&self.solve_selection(params))
    }

    /// Runs the covering dynamic program and returns the winning selection
    /// without emitting a netlist (steps 1–4 of [`CoverProblem::solve`] minus
    /// the final [`CoverTarget::emit`]).
    ///
    /// The fusion pipeline uses this to harvest the cones an ASIC cover
    /// selects; plain mapping goes through [`CoverProblem::solve`]. Every
    /// per-node table is sized to the original nodes.
    pub fn solve_selection(&self, params: &EngineParams) -> CoverSelection {
        let net = self.choice.network();
        let target = self.target;
        let original_gates = &self.skeleton.original_gates;
        let refs = &self.skeleton.refs;
        let n = self.skeleton.len();

        let area_flow = |cand: &T::Candidate, flow: &[f64]| -> f64 {
            let mut acc = target.area(cand);
            for l in target.leaves(cand) {
                acc += flow[l.index()] / refs[l.index()].max(1.0);
            }
            acc
        };
        // Selection-key bias (see `set_bonus`); a node's bonuses are empty
        // unless one was granted, and a missing entry is zero.
        let bonus_at = |bonus: &[f64], i: usize| -> f64 { bonus.get(i).copied().unwrap_or(0.0) };

        // --------------------------------------------------------------
        // Pass 1: delay-oriented selection.
        // --------------------------------------------------------------
        let mut arrival = vec![0.0f64; n];
        let mut flow = vec![0.0f64; n];
        let mut best: Vec<usize> = vec![usize::MAX; n];
        for &id in original_gates {
            let (cands, bonus) = self.lists(id.index());
            let mut chosen = 0;
            let mut chosen_key = (f64::INFINITY, f64::INFINITY);
            for (i, c) in cands.iter().enumerate() {
                let arr = target.arrival(c, &arrival);
                let af = area_flow(c, &flow) - bonus_at(bonus, i);
                if (arr, af) < chosen_key {
                    chosen_key = (arr, af);
                    chosen = i;
                }
            }
            best[id.index()] = chosen;
            arrival[id.index()] = chosen_key.0;
            flow[id.index()] = area_flow(&cands[chosen], &flow) / refs[id.index()].max(1.0);
        }
        let delay_target = net
            .outputs()
            .iter()
            .map(|o| arrival[o.node().index()])
            .fold(0.0, f64::max);

        // --------------------------------------------------------------
        // Passes 2..: area recovery under required times.
        // --------------------------------------------------------------
        // Every node is dirty going into the first area round: the selection
        // criterion flips from (arrival, flow) to (flow, arrival) there, so
        // the delay-pass results never carry over unexamined.
        let mut cache = CandidateCache {
            dirty: vec![true; n],
            prev_required: vec![f64::NAN; n],
        };
        let strict_delay = params.objective == MappingObjective::Delay;
        for _round in 0..params.area_rounds {
            mch_logic::failpoint!("engine::round");
            let required = self.required(&best, params.objective, delay_target);
            let mut round_changes = 0usize;
            for &id in original_gates {
                let idx = id.index();
                if params.memoise
                    && !cache.dirty[idx]
                    && required[idx].to_bits() == cache.prev_required[idx].to_bits()
                {
                    continue;
                }
                let (cands, bonus) = self.lists(idx);
                let node_required = required[idx];
                // Only the strict-delay objective compares against the best
                // achievable arrival; skip the extra candidate scan otherwise.
                let min_arrival = if strict_delay {
                    cands
                        .iter()
                        .map(|c| target.arrival(c, &arrival))
                        .fold(f64::INFINITY, f64::min)
                } else {
                    f64::INFINITY
                };
                let mut chosen = best[idx];
                let mut chosen_key = (f64::INFINITY, f64::INFINITY);
                for (i, c) in cands.iter().enumerate() {
                    let arr = target.arrival(c, &arrival);
                    let feasible = if strict_delay {
                        meets_bound(arr, min_arrival)
                    } else {
                        !node_required.is_finite() || meets_bound(arr, node_required)
                    };
                    if !feasible {
                        continue;
                    }
                    let af = area_flow(c, &flow) - bonus_at(bonus, i);
                    if (af, arr) < chosen_key {
                        chosen_key = (af, arr);
                        chosen = i;
                    }
                }
                let c = &cands[chosen];
                let new_arrival = target.arrival(c, &arrival);
                let new_flow = area_flow(c, &flow) / refs[idx].max(1.0);
                let changed = chosen != best[idx]
                    || new_arrival.to_bits() != arrival[idx].to_bits()
                    || new_flow.to_bits() != flow[idx].to_bits();
                best[idx] = chosen;
                arrival[idx] = new_arrival;
                flow[idx] = new_flow;
                if params.memoise {
                    cache.dirty[idx] = false;
                    if changed {
                        // Dirty every node that reads this one through a
                        // candidate leaf; all of them sit later in this
                        // round's topological sweep.
                        let users = self.skeleton.users.row(idx);
                        for &u in users.iter().chain(self.overlay.users(idx)) {
                            cache.dirty[u as usize] = true;
                        }
                    }
                }
                round_changes += usize::from(changed);
            }
            cache.prev_required = required;
            // A change-free round is a fixed point: selections, arrivals,
            // flows and therefore the next round's required times are all
            // bit-identical, so every further round is a no-op. (The
            // recompute baseline keeps grinding through them — that cost is
            // exactly what the `mapping_rounds` bench measures.)
            if params.memoise && round_changes == 0 {
                break;
            }
        }

        // --------------------------------------------------------------
        // Optional exact-area final pass.
        // --------------------------------------------------------------
        if params.exact_area && !original_gates.is_empty() {
            self.exact_area_pass(&mut best, &mut arrival, params.objective, delay_target);
        }

        // --------------------------------------------------------------
        // Cover extraction.
        // --------------------------------------------------------------
        let needed = self.needed(&best);
        CoverSelection { best, needed }
    }

    /// Emits a selection (from [`CoverProblem::solve_selection`]) as the
    /// target netlist.
    pub fn emit(&self, sel: &CoverSelection) -> T::Netlist {
        let cover = Cover {
            skeleton: self.skeleton,
            overlay: &self.overlay,
            selection: sel,
        };
        self.target.emit(self.choice.network(), &cover)
    }

    /// Backward required-time propagation over the current selections.
    ///
    /// Outputs are required at the delay target established by the delay
    /// pass; every selected candidate propagates its root's requirement onto
    /// its leaves through [`CoverTarget::leaf_required`]. For the pure-area
    /// objective the whole vector stays `+inf` (no timing constraint).
    fn required(&self, best: &[usize], objective: MappingObjective, delay_target: f64) -> Vec<f64> {
        let mut required = vec![f64::INFINITY; self.skeleton.len()];
        if objective == MappingObjective::Area {
            return required;
        }
        for o in self.choice.network().outputs() {
            let idx = o.node().index();
            required[idx] = required[idx].min(delay_target);
        }
        for &id in self.skeleton.original_gates.iter().rev() {
            let r = required[id.index()];
            if !r.is_finite() {
                continue;
            }
            let c = self.chosen(best, id);
            for (i, l) in self.target.leaves(c).iter().enumerate() {
                let slack = self.target.leaf_required(c, i, r);
                required[l.index()] = required[l.index()].min(slack);
            }
        }
        required
    }

    /// Marks the nodes reachable from the outputs through selected
    /// candidates.
    fn needed(&self, best: &[usize]) -> Vec<bool> {
        let net = self.choice.network();
        let mut needed = vec![false; self.skeleton.len()];
        let mut stack: Vec<NodeId> = Vec::new();
        for o in net.outputs() {
            if net.is_gate(o.node()) {
                stack.push(o.node());
            }
        }
        while let Some(id) = stack.pop() {
            if needed[id.index()] {
                continue;
            }
            needed[id.index()] = true;
            for l in self.target.leaves(self.chosen(best, id)) {
                if net.is_gate(*l) && !needed[l.index()] {
                    stack.push(*l);
                }
            }
        }
        needed
    }

    /// Exact-area re-selection under the final required times.
    ///
    /// Maintains reference counts over the current cover and, for each
    /// referenced node in topological order, de-references its selected
    /// cone, evaluates every timing-feasible candidate by the exact area its
    /// cone would add (classical ref/deref walk), commits the best and
    /// re-references it. Arrival times are refreshed along the way so
    /// downstream feasibility checks see the updated cone.
    fn exact_area_pass(
        &self,
        best: &mut [usize],
        arrival: &mut [f64],
        objective: MappingObjective,
        delay_target: f64,
    ) {
        let net = self.choice.network();
        let target = self.target;
        let required = self.required(best, objective, delay_target);
        // Reference counts of the current cover: selected-candidate leaves
        // plus primary outputs.
        let needed = self.needed(best);
        let mut nrefs = vec![0u32; self.skeleton.len()];
        for &id in &self.skeleton.original_gates {
            if !needed[id.index()] {
                continue;
            }
            for &l in target.leaves(self.chosen(best, id)) {
                if net.is_gate(l) {
                    nrefs[l.index()] += 1;
                }
            }
        }
        for o in net.outputs() {
            if net.is_gate(o.node()) {
                nrefs[o.node().index()] += 1;
            }
        }

        let strict_delay = objective == MappingObjective::Delay;
        let mut walk: Vec<NodeId> = Vec::new();
        for &id in &self.skeleton.original_gates {
            let idx = id.index();
            if nrefs[idx] == 0 {
                continue;
            }
            // Take the node's current cone out of the cover.
            self.deref_cand(best, &mut nrefs, &mut walk, self.chosen(best, id));
            let cands = self.lists(idx).0;
            let node_required = required[idx];
            // Only the strict-delay objective compares against the best
            // achievable arrival; skip the extra candidate scan otherwise.
            let min_arrival = if strict_delay {
                cands
                    .iter()
                    .map(|c| target.arrival(c, arrival))
                    .fold(f64::INFINITY, f64::min)
            } else {
                f64::INFINITY
            };
            let mut chosen = best[idx];
            let mut chosen_key = (f64::INFINITY, f64::INFINITY);
            for (i, c) in cands.iter().enumerate() {
                let arr = target.arrival(c, arrival);
                let feasible = if strict_delay {
                    meets_bound(arr, min_arrival)
                } else {
                    !node_required.is_finite() || meets_bound(arr, node_required)
                };
                if !feasible {
                    continue;
                }
                let ea = self.ref_cone_area(best, &mut nrefs, &mut walk, c);
                self.deref_cand(best, &mut nrefs, &mut walk, c);
                if (ea, arr) < chosen_key {
                    chosen_key = (ea, arr);
                    chosen = i;
                }
            }
            best[idx] = chosen;
            arrival[idx] = target.arrival(&cands[chosen], arrival);
            // Put the (possibly new) cone back.
            self.ref_cone_area(best, &mut nrefs, &mut walk, &cands[chosen]);
        }
    }

    /// References `cand`'s leaves and returns the exact area its cone adds:
    /// the candidate's own area plus the cones of leaves newly pulled into
    /// the cover (iterative, no recursion).
    fn ref_cone_area(
        &self,
        best: &[usize],
        nrefs: &mut [u32],
        walk: &mut Vec<NodeId>,
        cand: &T::Candidate,
    ) -> f64 {
        let net = self.choice.network();
        let mut total = self.target.area(cand);
        walk.clear();
        for &l in self.target.leaves(cand) {
            if net.is_gate(l) {
                nrefs[l.index()] += 1;
                if nrefs[l.index()] == 1 {
                    walk.push(l);
                }
            }
        }
        while let Some(n) = walk.pop() {
            let c = self.chosen(best, n);
            total += self.target.area(c);
            for &l in self.target.leaves(c) {
                if net.is_gate(l) {
                    nrefs[l.index()] += 1;
                    if nrefs[l.index()] == 1 {
                        walk.push(l);
                    }
                }
            }
        }
        total
    }

    /// Undoes [`ref_cone_area`](Self::ref_cone_area) for `cand` (leaves
    /// only, not the root).
    fn deref_cand(
        &self,
        best: &[usize],
        nrefs: &mut [u32],
        walk: &mut Vec<NodeId>,
        cand: &T::Candidate,
    ) {
        let net = self.choice.network();
        walk.clear();
        for &l in self.target.leaves(cand) {
            if net.is_gate(l) {
                nrefs[l.index()] -= 1;
                if nrefs[l.index()] == 0 {
                    walk.push(l);
                }
            }
        }
        while let Some(n) = walk.pop() {
            for &l in self.target.leaves(self.chosen(best, n)) {
                if net.is_gate(l) {
                    nrefs[l.index()] -= 1;
                    if nrefs[l.index()] == 0 {
                        walk.push(l);
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lut::{LutCandidate, LutTarget};
    use crate::mapping::prepare_cuts;
    use mch_choice::{build_mch, MchParams};
    use mch_cut::{CutCost, CutCostModel};
    use mch_logic::{NetworkKind, TruthTable};
    use mch_techlib::LutLibrary;

    #[test]
    fn slack_epsilon_tie_break_at_the_boundary() {
        // Exactly at the bound and exactly at bound + eps are feasible…
        assert!(meets_bound(1.0, 1.0));
        assert!(meets_bound(1.0 + SLACK_EPS, 1.0));
        assert!(meets_bound(100.0 + SLACK_EPS, 100.0));
        // …one representable step past bound + eps is not.
        assert!(!meets_bound(1.0 + 2.1 * SLACK_EPS, 1.0));
        assert!(!meets_bound(f64::INFINITY, 1.0));
        // Infinite bounds accept everything finite (unconstrained nodes).
        assert!(meets_bound(1e300, f64::INFINITY));
    }

    #[test]
    fn slack_epsilon_is_the_engine_wide_constant() {
        // Pin the value: quality numbers and tie-breaks depend on it.
        assert_eq!(SLACK_EPS, 1e-9);
    }

    /// Regression (PR 9): injected candidates must take part in dirty-bit
    /// invalidation. `inject_candidate` adds `users`-list entries for the new
    /// cone's leaves; without them, a leaf whose `(arrival, flow)` changes in
    /// an area round would leave the injected cone's root marked clean, and
    /// the memoised solve would diverge from full recomputation exactly where
    /// fusion had intervened.
    #[test]
    fn injected_candidates_keep_memoised_selection_bit_identical() {
        let mut net = Network::with_name(NetworkKind::Aig, "inject-memo");
        let a = net.add_inputs(4);
        let b = net.add_inputs(4);
        let mut carry = net.constant(false);
        for i in 0..4 {
            let (s, c) = net.full_adder(a[i], b[i], carry);
            net.add_output(s);
            carry = c;
        }
        net.add_output(carry);
        let choice = build_mch(&net, &MchParams::area_oriented());
        let lut = LutLibrary::k6();
        // Aggressively truncated base cut set: plenty of cones are missing,
        // so injection adds real structure, and selections keep shifting
        // across area rounds (the invalidation traffic the test needs).
        let mut narrow = prepare_cuts(&choice, 4, 2, CutCost::Hybrid, &CutCostModel::unit(), 1);
        narrow.compact();
        // A wider enumeration supplies the cones the narrow set lost.
        let mut wide = prepare_cuts(&choice, 6, 8, CutCost::Hybrid, &CutCostModel::unit(), 1);
        wide.compact();
        let target = LutTarget::new(&lut);
        let skeleton = CoverSkeleton::build(&choice, &target, &narrow);

        let build_injected = || {
            let mut problem = CoverProblem::new(&choice, &target, &skeleton);
            let roots: Vec<NodeId> = problem.original_gates().to_vec();
            let mut injected = 0usize;
            for id in roots {
                for cut in wide.of(id).iter() {
                    if cut.is_trivial() || cut.size() > lut.k() {
                        continue;
                    }
                    let (reduced, support) = cut.function().shrink_to_support();
                    let leaves: Vec<NodeId> =
                        support.iter().map(|&i| cut.leaves()[i]).collect();
                    if leaves.is_empty()
                        || problem
                            .candidates_of(id)
                            .iter()
                            .any(|c| c.matches_cone(&leaves, &reduced))
                    {
                        continue;
                    }
                    let i = problem.inject_candidate(id, LutCandidate::from_cone(&leaves, reduced));
                    problem.set_bonus(id, i, 0.25 * lut.area());
                    injected += 1;
                }
            }
            assert!(injected > 0, "no cone was injected; the test proves nothing");
            problem
        };

        for objective in [
            MappingObjective::Delay,
            MappingObjective::Balanced,
            MappingObjective::Area,
        ] {
            for rounds in [1, 3, 8] {
                let problem = build_injected();
                let memo = EngineParams {
                    objective,
                    area_rounds: rounds,
                    exact_area: false,
                    memoise: true,
                };
                let full = EngineParams {
                    memoise: false,
                    ..memo
                };
                assert_eq!(
                    problem.emit(&problem.solve_selection(&memo)),
                    problem.emit(&problem.solve_selection(&full)),
                    "{objective:?} with {rounds} rounds diverged under memoisation"
                );
            }
        }
    }

    /// Repeated solves of one problem must be independent: every per-solve
    /// structure (arrivals, flows, selections, the `CandidateCache`) is
    /// allocated fresh inside `solve_selection`, so a second solve — with the
    /// same or different parameters, in any order — is bit-identical to a
    /// first solve on a fresh problem. The warm-start sweep path leans on
    /// this directly (one prepared problem, many parameter variants), as does
    /// fusion (two solves of the guided problem).
    #[test]
    fn repeated_solves_of_one_problem_are_bit_identical() {
        let mut net = Network::with_name(NetworkKind::Aig, "resolve-idem");
        let a = net.add_inputs(3);
        let b = net.add_inputs(3);
        let mut carry = net.constant(false);
        for i in 0..3 {
            let (s, c) = net.full_adder(a[i], b[i], carry);
            net.add_output(s);
            carry = c;
        }
        net.add_output(carry);
        let choice = build_mch(&net, &MchParams::area_oriented());
        let lut = LutLibrary::k4();
        let mut cuts = prepare_cuts(&choice, 4, 8, CutCost::Hybrid, &CutCostModel::unit(), 1);
        cuts.compact();
        let target = LutTarget::new(&lut);
        let skeleton = CoverSkeleton::build(&choice, &target, &cuts);

        let variants: Vec<EngineParams> = [
            (MappingObjective::Delay, 1, false),
            (MappingObjective::Balanced, 3, false),
            (MappingObjective::Area, 3, true),
            (MappingObjective::Area, 8, false),
        ]
        .into_iter()
        .map(|(objective, area_rounds, exact_area)| EngineParams {
            objective,
            area_rounds,
            exact_area,
            memoise: true,
        })
        .collect();

        // Reference: one fresh problem per (variant, repetition).
        let reference: Vec<_> = variants
            .iter()
            .map(|p| {
                let fresh = CoverSkeleton::build(&choice, &target, &cuts);
                CoverProblem::new(&choice, &target, &fresh).solve(p)
            })
            .collect();

        // One shared problem, solved under every variant, forwards then
        // backwards, twice — 4× per variant, interleaved with the others.
        let shared = CoverProblem::new(&choice, &target, &skeleton);
        for _ in 0..2 {
            for (p, expect) in variants.iter().zip(&reference) {
                assert_eq!(&shared.solve(p), expect, "forward re-solve diverged");
            }
            for (p, expect) in variants.iter().zip(&reference).rev() {
                assert_eq!(&shared.solve(p), expect, "backward re-solve diverged");
            }
        }

        // The split form (`solve_selection` + `emit`) is just as repeatable,
        // including emitting one selection twice.
        let sel = shared.solve_selection(&variants[0]);
        assert_eq!(shared.emit(&sel), reference[0]);
        assert_eq!(shared.emit(&sel), reference[0]);
    }

    /// A problem writes only its own overlay: injections and bonuses leave
    /// the shared skeleton's bytes unchanged, the injecting problem reads
    /// the root's skeleton list followed by the injected candidate, and a
    /// sibling over the same skeleton still solves exactly like one over a
    /// skeleton no problem ever touched.
    #[test]
    fn injections_and_bonuses_stay_in_the_problems_overlay() {
        let mut net = Network::with_name(NetworkKind::Aig, "skeleton-share");
        let a = net.add_inputs(4);
        let b = net.add_inputs(4);
        let mut carry = net.constant(false);
        for i in 0..4 {
            let (s, c) = net.full_adder(a[i], b[i], carry);
            net.add_output(s);
            carry = c;
        }
        net.add_output(carry);
        let choice = build_mch(&net, &MchParams::area_oriented());
        let lut = LutLibrary::k6();
        let cuts = prepare_cuts(&choice, 6, 8, CutCost::Hybrid, &CutCostModel::unit(), 1);
        let target = LutTarget::new(&lut);
        let params = EngineParams {
            objective: MappingObjective::Balanced,
            area_rounds: 3,
            exact_area: false,
            memoise: true,
        };

        let untouched = CoverSkeleton::build(&choice, &target, &cuts);
        let fresh = CoverProblem::new(&choice, &target, &untouched).solve(&params);
        let skeleton = CoverSkeleton::build(&choice, &target, &cuts);
        let bytes = format!("{skeleton:?}");

        // A reader solves and takes a bonus over the shared lists in place.
        let mut reader = CoverProblem::new(&choice, &target, &skeleton);
        let root = *reader.original_gates().last().unwrap();
        let shared = skeleton.candidates.row(root.index());
        reader.set_bonus(root, 0, 0.0);
        assert_eq!(reader.solve(&params), fresh);
        assert_eq!(reader.candidates_of(root).as_ptr(), shared.as_ptr());

        // An injecting problem extends its own copy of the root's list, and
        // the new leaf edge lands in its overlay unless the skeleton has it.
        let mut poked = CoverProblem::new(&choice, &target, &skeleton);
        let leaf = choice.network().inputs()[0];
        let cand = LutCandidate::from_cone(&[leaf], TruthTable::var(1, 0));
        let i = poked.inject_candidate(root, cand.clone());
        assert_eq!(i, shared.len());
        poked.set_bonus(root, i, 1.0);
        let expected: Vec<LutCandidate> = shared.iter().cloned().chain([cand]).collect();
        assert_eq!(
            format!("{:?}", poked.candidates_of(root)),
            format!("{expected:?}")
        );
        let edge = root.index() as u32;
        assert_eq!(
            poked.overlay.users(leaf.index()).contains(&edge),
            !skeleton.users.row(leaf.index()).contains(&edge)
        );
        let selection = poked.solve_selection(&params);
        assert_eq!(
            format!("{skeleton:?}"),
            bytes,
            "a problem wrote to the shared skeleton"
        );

        // Selections answer for every id: only original gates have a winner.
        for id in choice.network().node_ids() {
            if !choice.is_original(id) || !choice.network().is_gate(id) {
                assert_eq!(selection.best_index(id), usize::MAX, "{id}");
            }
            if !choice.is_original(id) {
                assert!(!selection.is_needed(id), "{id}");
            }
        }

        // A sibling over the same skeleton still matches the untouched one.
        let sibling = CoverProblem::new(&choice, &target, &skeleton);
        assert_eq!(sibling.solve(&params), fresh);
        assert_eq!(sibling.candidates_of(root).as_ptr(), shared.as_ptr());
    }
}
