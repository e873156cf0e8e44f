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
use mch_logic::{Network, NodeId};
use std::borrow::Cow;

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
    /// `Clone`, so a problem that injects a candidate into a borrowed
    /// [`CoverSkeleton`] can copy it first.
    type Candidate: Clone;
    /// The netlist type the selected cover is emitted into.
    type Netlist;

    /// Enumerates the candidates of `id`, in a deterministic order.
    ///
    /// Must never return an empty list — every mappable node needs at least
    /// one implementation (targets assert this with a target-specific
    /// message).
    fn candidates(&self, net: &Network, id: NodeId) -> Vec<Self::Candidate>;

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

/// The selected cover handed to [`CoverTarget::emit`].
pub struct Cover<'a, C> {
    /// The original (representative) gates, in topological order.
    pub original_gates: &'a [NodeId],
    /// Candidate lists indexed by node id.
    pub candidates: &'a [Vec<C>],
    /// Index of the selected candidate per node id.
    pub best: &'a [usize],
    /// Whether the node is part of the cover (reachable from the outputs
    /// through selected candidates).
    pub needed: &'a [bool],
}

impl<C> Cover<'_, C> {
    /// The selected candidate of `id`.
    pub fn selected(&self, id: NodeId) -> &C {
        &self.candidates[id.index()][self.best[id.index()]]
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
    best: Vec<usize>,
    needed: Vec<bool>,
}

impl CoverSelection {
    /// Index of the winning candidate of `id` (into the problem's candidate
    /// list for that node). `usize::MAX` for nodes that are not original
    /// gates of the problem.
    pub fn best_index(&self, id: NodeId) -> usize {
        self.best[id.index()]
    }

    /// Whether `id` is part of the cover (reachable from the outputs through
    /// selected candidates).
    pub fn is_needed(&self, id: NodeId) -> bool {
        self.needed[id.index()]
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

/// The parameter-independent skeleton of a covering problem: the target's
/// enumerated candidates, the fanout reference estimates and the
/// candidate-leaf fanout relation.
///
/// Building a skeleton is the expensive part of preparing a cover (candidate
/// enumeration — Boolean matching for ASIC targets — dominates it), and the
/// result depends only on the choice network and the target's cut set, never
/// on [`EngineParams`]. A skeleton therefore outlives any single solve: the
/// warm-start layer of `mch_core` caches one per `(choice network, cut set,
/// library)` and every parameter variant borrows it through
/// [`CoverProblem::with_skeleton`]. The borrow is copy-on-write: only
/// [`CoverProblem::inject_candidate`] writes to a skeleton, and it copies a
/// borrowed one first, so a problem never touches the cached copy and a
/// problem that injects nothing copies nothing.
#[derive(Clone, Debug)]
pub struct CoverSkeleton<C> {
    original_gates: Vec<NodeId>,
    candidates: Vec<Vec<C>>,
    refs: Vec<f64>,
    /// The candidate-leaf fanout relation: `users[l]` lists every original
    /// gate with `l` as a leaf of *some* candidate — the edges dirty bits
    /// propagate along (see `CandidateCache`).
    users: Vec<Vec<u32>>,
}

impl<C> CoverSkeleton<C> {
    /// Builds the skeleton: enumerates every original gate's candidates,
    /// derives fanout reference estimates and the candidate-leaf fanout
    /// relation. Deterministic — a pure function of `(choice, target)`.
    pub fn build<T: CoverTarget<Candidate = C>>(choice: &ChoiceNetwork, target: &T) -> Self {
        let net = choice.network();
        let original_gates: Vec<NodeId> = net
            .gate_ids()
            .filter(|id| choice.is_original(*id))
            .collect();

        let mut candidates: Vec<Vec<C>> =
            std::iter::repeat_with(Vec::new).take(net.len()).collect();
        for &id in &original_gates {
            candidates[id.index()] = target.candidates(net, id);
            assert!(
                !candidates[id.index()].is_empty(),
                "node {id} has no cover candidate"
            );
        }

        // Fanout reference estimates over the original structure.
        let mut refs = vec![0.0f64; net.len()];
        for &id in &original_gates {
            for f in net.node(id).fanins() {
                refs[f.node().index()] += 1.0;
            }
        }
        for o in net.outputs() {
            refs[o.node().index()] += 1.0;
        }

        let mut users: Vec<Vec<u32>> = vec![Vec::new(); net.len()];
        for &id in &original_gates {
            for cand in &candidates[id.index()] {
                for &l in target.leaves(cand) {
                    users[l.index()].push(id.index() as u32);
                }
            }
        }
        for list in &mut users {
            list.sort_unstable();
            list.dedup();
        }

        CoverSkeleton {
            original_gates,
            candidates,
            refs,
            users,
        }
    }

    /// Approximate heap footprint in bytes; `candidate_bytes` supplies the
    /// per-candidate estimate (candidates are opaque here). Used by the
    /// warm-start cache's byte accounting.
    pub fn approx_bytes(&self, candidate_bytes: impl Fn(&C) -> usize) -> usize {
        let cand_heap: usize = self
            .candidates
            .iter()
            .flat_map(|list| list.iter().map(&candidate_bytes))
            .sum();
        self.original_gates.capacity() * std::mem::size_of::<NodeId>()
            + self.candidates.capacity() * std::mem::size_of::<Vec<C>>()
            + cand_heap
            + self.refs.capacity() * 8
            + self.users.capacity() * std::mem::size_of::<Vec<u32>>()
            + self.users.iter().map(|u| u.capacity() * 4).sum::<usize>()
    }
}

/// A covering problem prepared for (repeated) solving: a
/// [`CoverSkeleton`] bound to its choice network and target, plus the
/// per-problem selection bonuses.
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
    /// Borrowed from a prepared cover until the first injection copies it.
    skeleton: Cow<'a, CoverSkeleton<T::Candidate>>,
    /// Sparse per-candidate selection bonus (see [`CoverProblem::set_bonus`]).
    /// Empty (length 0) unless a bonus was ever set, so the unfused path pays
    /// nothing.
    bonus: Vec<Vec<f64>>,
}

/// Per-solve memoisation state of the area-recovery rounds.
///
/// A node is skipped in an area round when it is clean (no leaf of any of its
/// candidates changed `(arrival, flow)` since the node was last evaluated)
/// and its required time is bit-identical to the previous round's. When a
/// node's `(best, arrival, flow)` does change, its users — via
/// [`CoverProblem::users`] — are marked dirty; they always sit later in the
/// same round's topological sweep.
struct CandidateCache {
    dirty: Vec<bool>,
    prev_required: Vec<f64>,
}

impl<'a, T: CoverTarget> CoverProblem<'a, T> {
    /// Builds the problem: enumerates every original gate's candidates,
    /// derives fanout reference estimates and the candidate-leaf fanout
    /// relation ([`CoverSkeleton::build`]).
    pub fn new(choice: &'a ChoiceNetwork, target: &'a T) -> Self {
        let skeleton = CoverSkeleton::build(choice, target);
        Self::with_skeleton(choice, target, Cow::Owned(skeleton))
    }

    /// Builds the problem around a pre-built skeleton, skipping candidate
    /// enumeration entirely — the warm-start path.
    ///
    /// `skeleton` must have been built by [`CoverSkeleton::build`] over the
    /// same choice network and an identically-configured target (same cut
    /// set, same library); the sizes are asserted, the contents are the
    /// caller's contract. A cached skeleton is passed as
    /// [`Cow::Borrowed`]: solving and bonuses only read it, and
    /// [`inject_candidate`](Self::inject_candidate) copies it before its
    /// first write, so no mutation of this problem reaches the cache. A
    /// freshly built skeleton that will be injected into is best passed as
    /// [`Cow::Owned`], which is never copied.
    pub fn with_skeleton(
        choice: &'a ChoiceNetwork,
        target: &'a T,
        skeleton: Cow<'a, CoverSkeleton<T::Candidate>>,
    ) -> Self {
        assert_eq!(
            skeleton.candidates.len(),
            choice.network().len(),
            "skeleton was built over a differently-sized network"
        );
        CoverProblem {
            choice,
            target,
            skeleton,
            bonus: Vec::new(),
        }
    }

    /// The original (representative) gates of the problem, in topological
    /// order.
    pub fn original_gates(&self) -> &[NodeId] {
        &self.skeleton.original_gates
    }

    /// The candidate list of `id` (empty for non-original nodes).
    pub fn candidates_of(&self, id: NodeId) -> &[T::Candidate] {
        &self.skeleton.candidates[id.index()]
    }

    /// The selected candidate of `id` under `sel`.
    ///
    /// Panics when `id` is not an original gate of the problem.
    pub fn selected<'s>(&'s self, sel: &CoverSelection, id: NodeId) -> &'s T::Candidate {
        &self.skeleton.candidates[id.index()][sel.best_index(id)]
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
    /// the new candidate gains a `users`-list entry for `root`, so dirty-bit
    /// invalidation reaches the injected cone exactly like an enumerated one.
    /// The `users` lists stay sorted and deduplicated, preserving the
    /// deterministic propagation order.
    ///
    /// This is the only write to the skeleton: a borrowed skeleton is copied
    /// here, at the problem's first injection, and never otherwise.
    pub fn inject_candidate(&mut self, root: NodeId, cand: T::Candidate) -> usize {
        let idx = root.index();
        assert!(
            !self.skeleton.candidates[idx].is_empty(),
            "injection root {root} is not an original gate of the problem"
        );
        let skeleton = self.skeleton.to_mut();
        for &l in self.target.leaves(&cand) {
            assert!(
                l.index() < idx,
                "injected leaf {l} does not precede root {root}"
            );
            let list = &mut skeleton.users[l.index()];
            match list.binary_search(&(idx as u32)) {
                Ok(_) => {}
                Err(pos) => list.insert(pos, idx as u32),
            }
        }
        let list = &mut skeleton.candidates[idx];
        list.push(cand);
        if !self.bonus.is_empty() && self.bonus[idx].len() < list.len() {
            self.bonus[idx].resize(list.len(), 0.0);
        }
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
        let idx = root.index();
        assert!(
            cand_index < self.skeleton.candidates[idx].len(),
            "bonus for nonexistent candidate {cand_index} of {root}"
        );
        if self.bonus.is_empty() {
            self.bonus = vec![Vec::new(); self.skeleton.candidates.len()];
        }
        if self.bonus[idx].len() < self.skeleton.candidates[idx].len() {
            self.bonus[idx].resize(self.skeleton.candidates[idx].len(), 0.0);
        }
        self.bonus[idx][cand_index] = bonus;
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
    /// selects; plain mapping goes through [`CoverProblem::solve`].
    pub fn solve_selection(&self, params: &EngineParams) -> CoverSelection {
        let net = self.choice.network();
        let target = self.target;
        let original_gates = &self.skeleton.original_gates;
        let candidates = &self.skeleton.candidates;
        let refs = &self.skeleton.refs;

        let area_flow = |cand: &T::Candidate, flow: &[f64]| -> f64 {
            let mut acc = target.area(cand);
            for l in target.leaves(cand) {
                acc += flow[l.index()] / refs[l.index()].max(1.0);
            }
            acc
        };
        // Selection-key bias (see `set_bonus`); `bonus` stays empty unless a
        // bonus was ever granted, in which case the lookup is free.
        let bonus_of = |idx: usize, cand_i: usize| -> f64 {
            self.bonus
                .get(idx)
                .and_then(|b| b.get(cand_i))
                .copied()
                .unwrap_or(0.0)
        };

        // --------------------------------------------------------------
        // Pass 1: delay-oriented selection.
        // --------------------------------------------------------------
        let mut arrival = vec![0.0f64; net.len()];
        let mut flow = vec![0.0f64; net.len()];
        let mut best: Vec<usize> = vec![usize::MAX; net.len()];
        for &id in original_gates {
            let cands = &candidates[id.index()];
            let mut chosen = 0;
            let mut chosen_key = (f64::INFINITY, f64::INFINITY);
            for (i, c) in cands.iter().enumerate() {
                let arr = target.arrival(c, &arrival);
                let af = area_flow(c, &flow) - bonus_of(id.index(), i);
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
            dirty: vec![true; net.len()],
            prev_required: vec![f64::NAN; net.len()],
        };
        let strict_delay = params.objective == MappingObjective::Delay;
        for _round in 0..params.area_rounds {
            mch_logic::failpoint!("engine::round");
            let required = compute_required(
                net,
                target,
                original_gates,
                candidates,
                &best,
                params.objective,
                delay_target,
            );
            let mut round_changes = 0usize;
            for &id in original_gates {
                let idx = id.index();
                if params.memoise
                    && !cache.dirty[idx]
                    && required[idx].to_bits() == cache.prev_required[idx].to_bits()
                {
                    continue;
                }
                let cands = &candidates[idx];
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
                    let af = area_flow(c, &flow) - bonus_of(idx, i);
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
                        for &u in &self.skeleton.users[idx] {
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
            exact_area_pass(
                net,
                target,
                original_gates,
                candidates,
                &mut best,
                &mut arrival,
                params.objective,
                delay_target,
            );
        }

        // --------------------------------------------------------------
        // Cover extraction.
        // --------------------------------------------------------------
        let needed = extract_needed(net, target, candidates, &best);
        CoverSelection { best, needed }
    }

    /// Emits a selection (from [`CoverProblem::solve_selection`]) as the
    /// target netlist.
    pub fn emit(&self, sel: &CoverSelection) -> T::Netlist {
        let cover = Cover {
            original_gates: &self.skeleton.original_gates,
            candidates: &self.skeleton.candidates,
            best: &sel.best,
            needed: &sel.needed,
        };
        self.target.emit(self.choice.network(), &cover)
    }
}

/// Backward required-time propagation over the current selections.
///
/// Outputs are required at the delay target established by the delay pass;
/// every selected candidate propagates its root's requirement onto its leaves
/// through [`CoverTarget::leaf_required`]. For the pure-area objective the
/// whole vector stays `+inf` (no timing constraint).
fn compute_required<T: CoverTarget>(
    net: &Network,
    target: &T,
    original_gates: &[NodeId],
    candidates: &[Vec<T::Candidate>],
    best: &[usize],
    objective: MappingObjective,
    delay_target: f64,
) -> Vec<f64> {
    let mut required = vec![f64::INFINITY; net.len()];
    if objective == MappingObjective::Area {
        return required;
    }
    for o in net.outputs() {
        let idx = o.node().index();
        required[idx] = required[idx].min(delay_target);
    }
    for &id in original_gates.iter().rev() {
        let r = required[id.index()];
        if !r.is_finite() {
            continue;
        }
        let c = &candidates[id.index()][best[id.index()]];
        for (i, l) in target.leaves(c).iter().enumerate() {
            let slack = target.leaf_required(c, i, r);
            required[l.index()] = required[l.index()].min(slack);
        }
    }
    required
}

/// Marks the nodes reachable from the outputs through selected candidates.
fn extract_needed<T: CoverTarget>(
    net: &Network,
    target: &T,
    candidates: &[Vec<T::Candidate>],
    best: &[usize],
) -> Vec<bool> {
    let mut needed = vec![false; net.len()];
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
        let c = &candidates[id.index()][best[id.index()]];
        for l in target.leaves(c) {
            if net.is_gate(*l) && !needed[l.index()] {
                stack.push(*l);
            }
        }
    }
    needed
}

/// Exact-area re-selection under the final required times.
///
/// Maintains reference counts over the current cover and, for each referenced
/// node in topological order, de-references its selected cone, evaluates
/// every timing-feasible candidate by the exact area its cone would add
/// (classical ref/deref walk), commits the best and re-references it.
/// Arrival times are refreshed along the way so downstream feasibility checks
/// see the updated cone.
#[allow(clippy::too_many_arguments)]
fn exact_area_pass<T: CoverTarget>(
    net: &Network,
    target: &T,
    original_gates: &[NodeId],
    candidates: &[Vec<T::Candidate>],
    best: &mut [usize],
    arrival: &mut [f64],
    objective: MappingObjective,
    delay_target: f64,
) {
    let required = compute_required(
        net,
        target,
        original_gates,
        candidates,
        best,
        objective,
        delay_target,
    );
    // Reference counts of the current cover: selected-candidate leaves plus
    // primary outputs.
    let needed = extract_needed(net, target, candidates, best);
    let mut nrefs = vec![0u32; net.len()];
    for &id in original_gates {
        if !needed[id.index()] {
            continue;
        }
        for &l in target.leaves(&candidates[id.index()][best[id.index()]]) {
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
    for &id in original_gates {
        let idx = id.index();
        if nrefs[idx] == 0 {
            continue;
        }
        // Take the node's current cone out of the cover.
        deref_cone(net, target, candidates, best, &mut nrefs, &mut walk, id);
        let cands = &candidates[idx];
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
            let ea = ref_cone_area(net, target, candidates, best, &mut nrefs, &mut walk, c);
            deref_cand(net, target, candidates, best, &mut nrefs, &mut walk, c);
            if (ea, arr) < chosen_key {
                chosen_key = (ea, arr);
                chosen = i;
            }
        }
        best[idx] = chosen;
        arrival[idx] = target.arrival(&cands[chosen], arrival);
        // Put the (possibly new) cone back.
        let c = &cands[chosen];
        ref_cone_area(net, target, candidates, best, &mut nrefs, &mut walk, c);
    }
}

/// References `cand`'s leaves and returns the exact area its cone adds:
/// the candidate's own area plus the cones of leaves newly pulled into the
/// cover (iterative, no recursion).
fn ref_cone_area<T: CoverTarget>(
    net: &Network,
    target: &T,
    candidates: &[Vec<T::Candidate>],
    best: &[usize],
    nrefs: &mut [u32],
    walk: &mut Vec<NodeId>,
    cand: &T::Candidate,
) -> f64 {
    let mut total = target.area(cand);
    walk.clear();
    for &l in target.leaves(cand) {
        if net.is_gate(l) {
            nrefs[l.index()] += 1;
            if nrefs[l.index()] == 1 {
                walk.push(l);
            }
        }
    }
    while let Some(n) = walk.pop() {
        let c = &candidates[n.index()][best[n.index()]];
        total += target.area(c);
        for &l in target.leaves(c) {
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

/// Undoes [`ref_cone_area`] for `cand` (leaves only, not the root).
fn deref_cand<T: CoverTarget>(
    net: &Network,
    target: &T,
    candidates: &[Vec<T::Candidate>],
    best: &[usize],
    nrefs: &mut [u32],
    walk: &mut Vec<NodeId>,
    cand: &T::Candidate,
) {
    walk.clear();
    for &l in target.leaves(cand) {
        if net.is_gate(l) {
            nrefs[l.index()] -= 1;
            if nrefs[l.index()] == 0 {
                walk.push(l);
            }
        }
    }
    while let Some(n) = walk.pop() {
        let c = &candidates[n.index()][best[n.index()]];
        for &l in target.leaves(c) {
            if net.is_gate(l) {
                nrefs[l.index()] -= 1;
                if nrefs[l.index()] == 0 {
                    walk.push(l);
                }
            }
        }
    }
}

/// De-references the selected cone of `id` (its current candidate's leaves).
fn deref_cone<T: CoverTarget>(
    net: &Network,
    target: &T,
    candidates: &[Vec<T::Candidate>],
    best: &[usize],
    nrefs: &mut [u32],
    walk: &mut Vec<NodeId>,
    id: NodeId,
) {
    let c = &candidates[id.index()][best[id.index()]];
    deref_cand(net, target, candidates, best, nrefs, walk, c);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lut::{LutCandidate, LutTarget};
    use crate::mapping::prepare_cuts;
    use mch_choice::{build_mch, MchParams};
    use mch_cut::{CutCost, CutCostModel};
    use mch_logic::NetworkKind;
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
        let target = LutTarget::new(&lut, &narrow);

        let build_injected = || {
            let mut problem = CoverProblem::new(&choice, &target);
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
                    let i = problem.inject_candidate(id, LutCandidate::from_cone(leaves, reduced));
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
        let target = LutTarget::new(&lut, &cuts);

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
            .map(|p| CoverProblem::new(&choice, &target).solve(p))
            .collect();

        // One shared problem, solved under every variant, forwards then
        // backwards, twice — 4× per variant, interleaved with the others.
        let shared = CoverProblem::new(&choice, &target);
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

    /// A borrowed skeleton is never written: a problem that only solves and
    /// sets bonuses reads the shared candidate lists in place, an injecting
    /// problem copies them at its first injection and leaves the shared
    /// skeleton's bytes unchanged, and a sibling over the same borrow still
    /// solves exactly like a from-scratch problem.
    #[test]
    fn borrowed_skeletons_are_copied_only_by_injection() {
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
        let mut cuts = prepare_cuts(&choice, 6, 8, CutCost::Hybrid, &CutCostModel::unit(), 1);
        cuts.compact();
        let target = LutTarget::new(&lut, &cuts);
        let params = EngineParams {
            objective: MappingObjective::Balanced,
            area_rounds: 3,
            exact_area: false,
            memoise: true,
        };

        let fresh = CoverProblem::new(&choice, &target).solve(&params);
        let skeleton = CoverSkeleton::build(&choice, &target);
        let bytes = format!("{skeleton:?}");

        // A reader solves and takes a bonus over the shared lists in place.
        let mut reader = CoverProblem::with_skeleton(&choice, &target, Cow::Borrowed(&skeleton));
        let root = *reader.original_gates().last().unwrap();
        let shared = skeleton.candidates[root.index()].as_ptr();
        reader.set_bonus(root, 0, 0.0);
        assert_eq!(reader.solve(&params), fresh);
        assert_eq!(reader.candidates_of(root).as_ptr(), shared);

        // An injecting problem writes to its own copy only.
        let mut poked = CoverProblem::with_skeleton(&choice, &target, Cow::Borrowed(&skeleton));
        let cand = poked.candidates_of(root)[0].clone();
        let i = poked.inject_candidate(root, cand);
        poked.set_bonus(root, i, 1.0);
        let _ = poked.solve(&params);
        assert_ne!(poked.candidates_of(root).as_ptr(), shared);
        assert_eq!(
            format!("{skeleton:?}"),
            bytes,
            "injection wrote to the borrow"
        );

        // A sibling over the same borrow still matches the from-scratch build.
        let sibling = CoverProblem::with_skeleton(&choice, &target, Cow::Borrowed(&skeleton));
        assert_eq!(sibling.solve(&params), fresh);
        assert_eq!(sibling.candidates_of(root).as_ptr(), shared);
    }
}
