//! Level-parallel cut enumeration and the fan-out helper behind it.
//!
//! Priority-cut enumeration is embarrassingly parallel *within* a topological
//! level: a gate's cut set depends only on its fanins' cut sets, and every
//! fanin sits at a strictly smaller level. This module exploits exactly that
//! structure:
//!
//! 1. [`mch_logic::levelize`] groups the gates by level;
//! 2. [`WorkerPool::run_with`] fans the shard loops out onto scoped helper
//!    threads ([`std::thread::scope`], no external dependencies), at most
//!    [`WorkerPool::workers`] of them per call — the process-wide thread
//!    budget that also bounds the other fan-outs (choice transfer in
//!    `mch_mapper`, the batched mapping service in `mch_core`);
//! 3. each helper runs the same per-node kernel as the serial driver
//!    (`enumerate_node`) over contiguous, id-ordered shards pulled from a
//!    per-call task queue, with its own `ProtoCut`/`LeafBuf` scratch, reading
//!    the already-complete lower levels through a shared [`RwLock`];
//! 4. the coordinator drains shards too, and merges each level back in chunk
//!    order (which is node-id order within the level) before releasing the
//!    next level.
//!
//! [`level_parallel`] is the generic level-synchronized harness; it is public
//! precisely so other crates can shard their own per-level (or single-batch)
//! work the same way.
//!
//! # Determinism
//!
//! Worker output order is fixed by node id: shards are contiguous id-ordered
//! slices and results are committed in shard order, so the cuts of every node
//! are exactly the ones the serial driver computes, ranked identically. After
//! the last level the arena is canonicalized into the serial driver's layout
//! (constant node, then primary inputs, then gates in id order), which makes
//! a parallel [`NetworkCuts`] **byte-identical** to a serial one — see
//! [`NetworkCuts::identical`] and the determinism tests. Thread count, core
//! count and scheduling cannot change the result.
//!
//! # When to use `threads = 1`
//!
//! `threads = 1` (or a network whose widest level of enumerated gates is
//! below the sharding threshold) selects the serial driver unchanged — no
//! helper threads, no locks, no extra allocation. Prefer it for small
//! networks, for latency-sensitive single-circuit calls where the per-call
//! coordination cost (a few thread spawns plus one task-queue round-trip per
//! level) is comparable to the enumeration itself, and when an outer loop
//! already parallelizes across circuits.

use crate::enumeration::{
    enumerate_node, fanout_estimates, seed_arena, EnumView, NodeScratch,
};
use crate::{enumerate_cuts_with_model, Cut, CutCostModel, CutCosts, CutParams, NetworkCuts};
use mch_logic::{levelize, Network, NodeId};
use std::cell::Cell;
use std::collections::VecDeque;
use std::num::NonZeroUsize;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::{mpsc, Condvar, Mutex, OnceLock, PoisonError, RwLock};

/// Recovers a mutex/rwlock guard from a poisoned lock.
///
/// Every lock in this module protects state that is either always consistent
/// (the job and task queues: panicking jobs are caught, so a queue operation
/// itself never unwinds mid-update) or discarded wholesale when a phase
/// unwinds (the enumeration arena), so the poison flag carries no information
/// here beyond "some other thread panicked once" — which fault containment
/// explicitly must survive.
macro_rules! recover {
    ($lock:expr) => {
        $lock.unwrap_or_else(PoisonError::into_inner)
    };
}

/// Smallest level (or representative batch) worth sharding across helper
/// threads; anything narrower runs inline on the coordinating thread, which
/// keeps deep, narrow circuits from paying one task-queue round-trip per tiny
/// level.
pub(crate) const MIN_PARALLEL_LEVEL: usize = 16;

/// Chunks handed out per thread and level when a level is sharded. Chunks
/// are pushed to the shared task queue in order and pulled by whichever
/// thread is free, so a contiguous id region of expensive nodes (wide cross
/// products cluster that way) is spread across the threads instead of
/// serializing on one.
const CHUNKS_PER_WORKER: usize = 4;

/// The default worker count for parallel cut enumeration: the `MCH_THREADS`
/// environment variable when set to a positive integer (this is how CI runs
/// the whole test suite serially and multi-threaded), otherwise
/// [`std::thread::available_parallelism`], floored at 1.
pub fn default_threads() -> usize {
    if let Ok(v) = std::env::var("MCH_THREADS") {
        if let Ok(n) = v.trim().parse::<usize>() {
            return n.max(1);
        }
    }
    std::thread::available_parallelism()
        .map(NonZeroUsize::get)
        .unwrap_or(1)
}

// ---------------------------------------------------------------------------
// The fan-out helper
// ---------------------------------------------------------------------------

/// A borrowed unit of work for [`WorkerPool::run_with`].
type Job<'env> = Box<dyn FnOnce() + Send + 'env>;

thread_local! {
    static IS_POOL_WORKER: Cell<bool> = const { Cell::new(false) };
}

static GLOBAL_POOL: OnceLock<WorkerPool> = OnceLock::new();

/// A thread budget for fan-out: [`run_with`](WorkerPool::run_with) runs a
/// coordinating closure on the calling thread while at most
/// [`workers`](WorkerPool::workers) scoped helper threads take the jobs.
///
/// The [`global`](WorkerPool::global) budget is sized once, at first use, by
/// [`default_threads`]. Helpers live for one call: they are spawned on a
/// [`std::thread::scope`] and joined before `run_with` returns, so nothing
/// outlives a phase and no thread idles between phases. Higher level
/// schedules ([`level_parallel`]) are built on top of `run_with`.
pub struct WorkerPool {
    workers: usize,
}

impl WorkerPool {
    /// The process-wide budget: [`default_threads`] helpers, read once at
    /// first use.
    pub fn global() -> &'static WorkerPool {
        GLOBAL_POOL.get_or_init(|| WorkerPool {
            workers: default_threads(),
        })
    }

    /// The most helper threads one [`run_with`](WorkerPool::run_with) call
    /// spawns.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Returns `true` when the calling thread is running a
    /// [`run_with`](WorkerPool::run_with) job.
    ///
    /// Used as a recursion guard: parallel phases invoked *from* a job (e.g.
    /// a service job whose flow enumerates cuts) run serially instead of
    /// fanning out again, so nested phases never multiply the thread budget.
    pub fn is_worker() -> bool {
        IS_POOL_WORKER.with(Cell::get)
    }

    /// Runs `main` on the calling thread while `jobs` run on at most
    /// [`workers`](WorkerPool::workers) scoped helper threads; returns only
    /// after `main` *and every job* completed.
    ///
    /// Helpers take jobs in order off a shared queue, so jobs may outnumber
    /// helpers. Jobs may borrow data from the caller's stack: the scope joins
    /// every helper before the call returns, even when `main` or a job
    /// panics. A panic in `main` is re-raised once every helper has joined;
    /// otherwise the first job panic is, with its original payload.
    ///
    /// Jobs must not block waiting for `main` to make progress after `main`
    /// unwinds — a coordinating `main` that feeds jobs through a queue must
    /// close that queue on unwind (see the close-on-drop guard in
    /// [`level_parallel`]). Any job no helper took — after a failed spawn,
    /// say — runs on the calling thread once `main` returns. When called
    /// *from* a job no helper is spawned: `main`, then every job, runs inline.
    pub fn run_with<'env>(&self, jobs: Vec<Job<'env>>, main: impl FnOnce()) {
        let helpers = if Self::is_worker() {
            0
        } else {
            self.workers.min(jobs.len())
        };
        let queue = Mutex::new(jobs.into_iter());
        let job_panic = Mutex::new(None);
        let drain = || {
            let was_worker = IS_POOL_WORKER.replace(true);
            loop {
                let Some(job) = recover!(queue.lock()).next() else {
                    break;
                };
                if let Err(payload) = catch_unwind(AssertUnwindSafe(|| {
                    mch_logic::failpoint!("pool::dispatch");
                    job()
                })) {
                    recover!(job_panic.lock()).get_or_insert(payload);
                }
            }
            IS_POOL_WORKER.set(was_worker);
        };
        let main_result = std::thread::scope(|scope| {
            for _ in 0..helpers {
                if std::thread::Builder::new()
                    .spawn_scoped(scope, drain)
                    .is_err()
                {
                    break;
                }
            }
            let main_result = catch_unwind(AssertUnwindSafe(main));
            drain();
            main_result
        });
        if let Err(payload) = main_result {
            resume_unwind(payload);
        }
        if let Some(payload) = recover!(job_panic.into_inner()) {
            resume_unwind(payload);
        }
    }
}

// ---------------------------------------------------------------------------
// The level-synchronized harness
// ---------------------------------------------------------------------------

/// One unit of work pulled by a shard loop: chunk `chunk` of level `level`,
/// covering `items[start..end]` of that level's slice.
struct Task {
    chunk: usize,
    level: usize,
    start: usize,
    end: usize,
}

/// A closeable FIFO feeding level shards to the coordinator and the shard
/// loops of one [`level_parallel`] call. Shared pulling (instead of a static
/// thread → chunk assignment) keeps every schedule deadlock-free even when
/// fewer helpers run than the requested thread count: whichever loops
/// actually run drain all tasks.
struct TaskQueue {
    state: Mutex<TaskQueueState>,
    ready: Condvar,
}

struct TaskQueueState {
    tasks: VecDeque<Task>,
    closed: bool,
}

impl TaskQueue {
    fn new() -> TaskQueue {
        TaskQueue {
            state: Mutex::new(TaskQueueState {
                tasks: VecDeque::new(),
                closed: false,
            }),
            ready: Condvar::new(),
        }
    }

    fn push_all(&self, tasks: impl Iterator<Item = Task>) {
        let mut state = recover!(self.state.lock());
        state.tasks.extend(tasks);
        self.ready.notify_all();
    }

    /// Blocks until a task is available or the queue is closed. A closed
    /// queue returns `None` immediately, discarding any leftover tasks (which
    /// only exist when the coordinator unwound mid-level).
    fn pop(&self) -> Option<Task> {
        let mut state = recover!(self.state.lock());
        loop {
            if state.closed {
                return None;
            }
            if let Some(task) = state.tasks.pop_front() {
                return Some(task);
            }
            state = recover!(self.ready.wait(state));
        }
    }

    /// Non-blocking pop, used by the coordinator to execute shards of its
    /// own level alongside the helpers (or all of them, when none spawned).
    fn try_pop(&self) -> Option<Task> {
        let mut state = recover!(self.state.lock());
        if state.closed {
            return None;
        }
        state.tasks.pop_front()
    }

    fn close(&self) {
        recover!(self.state.lock()).closed = true;
        self.ready.notify_all();
    }
}

/// Closes the task queue when dropped, releasing the shard loops — on the
/// normal path after the last level, and on the unwind path when the
/// coordinator re-raises a forwarded shard panic.
struct CloseOnDrop<'a>(&'a TaskQueue);

impl Drop for CloseOnDrop<'_> {
    fn drop(&mut self) {
        self.0.close();
    }
}

/// Runs `work` over every item of every level, levels strictly in order,
/// items of one level sharded across `threads` loops: the coordinating
/// thread plus `threads - 1` shard loops run as [`WorkerPool::run_with`]
/// jobs on the global budget — the level-synchronized harness behind
/// [`enumerate_cuts_threaded`] and the choice transfer in `mch_mapper`. A
/// single flat batch is simply one level (`&[items]`).
///
/// * `init` builds one scratch value per shard loop (called once per loop
///   that runs, plus once on the coordinator);
/// * `work` maps a contiguous, order-preserving shard of a level to one
///   result (it runs concurrently with other shards of the *same* level, so
///   it must only read state written by earlier levels — wrap shared state in
///   a [`RwLock`] and take a read lock per shard);
/// * `commit` receives each level's results **in shard order** (which
///   preserves item order) after all of that level's shards finished, and is
///   the only place that may write shared state.
///
/// Levels shorter than `min_shard` — and everything, when `threads <= 1`, no
/// level reaches `min_shard`, or the caller already *is* a fan-out job (see
/// [`WorkerPool::is_worker`]) — run inline on the coordinating thread in the
/// very same order, so the observable commit sequence is independent of the
/// thread count. Empty levels are skipped.
///
/// # Panics
///
/// A panic inside `work` is caught on the helper, forwarded to the
/// coordinator and re-raised there with its original payload, so callers
/// observe it like a plain serial panic.
pub fn level_parallel<T, S, R>(
    levels: &[Vec<T>],
    threads: usize,
    min_shard: usize,
    init: impl Fn() -> S + Sync,
    work: impl Fn(&mut S, &[T]) -> R + Sync,
    mut commit: impl FnMut(Vec<R>),
) where
    T: Sync,
    R: Send,
{
    let min_shard = min_shard.max(2);
    let widest = levels.iter().map(Vec::len).max().unwrap_or(0);
    if threads <= 1 || widest < min_shard || WorkerPool::is_worker() {
        let mut scratch = init();
        for level in levels {
            if level.is_empty() {
                continue;
            }
            let result = work(&mut scratch, level);
            commit(vec![result]);
        }
        return;
    }

    let init = &init;
    let work = &work;
    let queue = TaskQueue::new();
    let queue = &queue;
    // Results travel as `thread::Result` so a panicking shard loop reports
    // its payload through the channel instead of leaving the coordinator
    // blocked; the coordinator resumes the panic with its original payload.
    let (result_tx, result_rx) = mpsc::channel::<(usize, std::thread::Result<R>)>();
    // The coordinator drains shards itself, so it asks for one loop fewer.
    let jobs: Vec<Box<dyn FnOnce() + Send + '_>> = (1..threads)
        .map(|_| {
            let result_tx = result_tx.clone();
            Box::new(move || {
                let mut scratch = init();
                while let Some(task) = queue.pop() {
                    let shard = &levels[task.level][task.start..task.end];
                    let result =
                        catch_unwind(AssertUnwindSafe(|| work(&mut scratch, shard)));
                    let died = result.is_err();
                    if result_tx.send((task.chunk, result)).is_err() || died {
                        break;
                    }
                }
            }) as Box<dyn FnOnce() + Send + '_>
        })
        .collect();
    drop(result_tx);

    WorkerPool::global().run_with(jobs, move || {
        let _close = CloseOnDrop(queue);
        // The coordinator's own scratch, for levels too narrow to shard.
        let mut inline_scratch: Option<S> = None;
        for (level_index, level) in levels.iter().enumerate() {
            if level.is_empty() {
                continue;
            }
            if level.len() < min_shard {
                let scratch = inline_scratch.get_or_insert_with(init);
                let result = work(scratch, level);
                commit(vec![result]);
                continue;
            }
            let chunk_size = level
                .len()
                .div_ceil(threads * CHUNKS_PER_WORKER)
                .max(min_shard / 2);
            let chunk_count = level.len().div_ceil(chunk_size);
            queue.push_all((0..chunk_count).map(|chunk| {
                let start = chunk * chunk_size;
                Task {
                    chunk,
                    level: level_index,
                    start,
                    end: (start + chunk_size).min(level.len()),
                }
            }));
            let mut results: Vec<Option<R>> = (0..chunk_count).map(|_| None).collect();
            let mut collected = 0;
            // The coordinator executes its own level too: it competes with
            // the shard loops for queued shards and runs them inline. This
            // makes the level's completion unconditional — even if no helper
            // spawned, the coordinator drains all shards itself. Shard
            // results are identical regardless of which thread computed
            // them, so commit order (chunk index) still fixes the output.
            while let Some(task) = queue.try_pop() {
                let scratch = inline_scratch.get_or_insert_with(init);
                results[task.chunk] =
                    Some(work(scratch, &levels[task.level][task.start..task.end]));
                collected += 1;
            }
            while collected < chunk_count {
                // Every shard not executed above was popped by a running
                // shard loop, whose panic-catching body always reports — a
                // panic inside `work` is caught and forwarded (buffered
                // payloads are delivered before a disconnect error), so a
                // plain blocking recv cannot hang.
                let (chunk, result) = result_rx
                    .recv()
                    .expect("every shard loop exited without reporting a shard");
                match result {
                    Ok(r) => {
                        results[chunk] = Some(r);
                        collected += 1;
                    }
                    // Re-raise the shard loop's panic on the coordinator with
                    // its original payload; the close-on-drop guard releases
                    // the remaining shard loops.
                    Err(payload) => resume_unwind(payload),
                }
            }
            commit(
                results
                    .into_iter()
                    .map(|r| r.expect("every chunk index reports exactly once"))
                    .collect(),
            );
        }
        // `_close` drops here, closing the task queue so the shard loops
        // exit before `run_with` joins its helpers.
    });
}

// ---------------------------------------------------------------------------
// Parallel cut enumeration on the harness
// ---------------------------------------------------------------------------

/// Mutable enumeration state shared between the coordinator and the helpers:
/// shard loops take read locks while processing a level, the coordinator
/// takes the write lock to merge each finished level.
struct EnumState {
    arena: Vec<Cut>,
    spans: Vec<(u32, u32)>,
    node_costs: Vec<CutCosts>,
}

/// One shard loop's result for one shard: per node the id, how many cuts it
/// stored and its best cost estimates, plus all those cuts concatenated in
/// node order.
struct ShardCuts {
    nodes: Vec<(NodeId, u32, CutCosts)>,
    cuts: Vec<Cut>,
}

/// [`enumerate_cuts_with_model`] sharded over `threads` threads, one
/// topological level at a time, over the same `live` gates.
///
/// The result is byte-identical to the serial driver's — same cuts, same
/// ranking, same costs, same arena layout (see the module docs on
/// determinism). `threads = 1` (and any network whose widest level of live
/// gates is too narrow to shard) *is* the serial driver; `threads = 0` is
/// treated as 1. Use [`default_threads`] to follow the host's core count.
pub fn enumerate_cuts_threaded(
    network: &Network,
    params: &CutParams,
    model: &CutCostModel,
    threads: usize,
    live: Option<&[bool]>,
) -> NetworkCuts {
    if threads <= 1 || WorkerPool::is_worker() {
        return enumerate_cuts_with_model(network, params, model, live);
    }
    let mut levels = levelize(network);
    if let Some(live) = live {
        levels.retain(|id| live[id.index()]);
    }
    if levels.max_width() < MIN_PARALLEL_LEVEL {
        return enumerate_cuts_with_model(network, params, model, live);
    }
    let fanout_est = fanout_estimates(network);
    let (arena, spans) = seed_arena(network);
    let shared = RwLock::new(EnumState {
        arena,
        spans,
        node_costs: vec![CutCosts::ZERO; network.len()],
    });
    level_parallel(
        levels.as_slices(),
        threads,
        MIN_PARALLEL_LEVEL,
        NodeScratch::new,
        |scratch: &mut NodeScratch, shard: &[NodeId]| {
            let state = recover!(shared.read());
            let mut out = ShardCuts {
                nodes: Vec::with_capacity(shard.len()),
                cuts: Vec::new(),
            };
            for &id in shard {
                let best = enumerate_node(
                    network,
                    id,
                    params,
                    model,
                    &fanout_est,
                    EnumView {
                        arena: &state.arena,
                        spans: &state.spans,
                        node_costs: &state.node_costs,
                    },
                    scratch,
                );
                out.nodes.push((id, scratch.final_cuts.len() as u32, best));
                out.cuts.append(&mut scratch.final_cuts);
            }
            out
        },
        |shards: Vec<ShardCuts>| {
            mch_logic::failpoint!("cut::arena_grow");
            let mut state = recover!(shared.write());
            for mut shard in shards {
                let mut start = state.arena.len() as u32;
                state.arena.append(&mut shard.cuts);
                for (id, len, best) in shard.nodes {
                    state.spans[id.index()] = (start, len);
                    state.node_costs[id.index()] = best;
                    start += len;
                }
            }
        },
    );
    let state = shared.into_inner().unwrap_or_else(PoisonError::into_inner);
    canonicalize(network, params, model, state, fanout_est)
}

/// Rewrites the level-major arena the parallel driver builds into the serial
/// driver's layout — constant node, primary inputs, then gates in ascending
/// id order — so serial and parallel enumerations are indistinguishable even
/// through the internal representation. One O(total cuts) copy, a small
/// constant fraction of enumeration time.
fn canonicalize(
    network: &Network,
    params: &CutParams,
    model: &CutCostModel,
    state: EnumState,
    fanout_est: Vec<f32>,
) -> NetworkCuts {
    let EnumState {
        arena: level_arena,
        spans: level_spans,
        node_costs,
    } = state;
    let mut arena: Vec<Cut> = Vec::with_capacity(level_arena.len());
    let mut spans = vec![(0u32, 0u32); network.len()];
    let ids = std::iter::once(NodeId::CONST0)
        .chain(network.inputs().iter().copied())
        .chain(network.gate_ids());
    for id in ids {
        let (start, len) = level_spans[id.index()];
        if len == 0 {
            // A gate outside the live set keeps the serial driver's empty
            // span; every enumerated node holds at least its trivial cut.
            continue;
        }
        spans[id.index()] = (arena.len() as u32, len);
        arena.extend_from_slice(&level_arena[start as usize..(start + len) as usize]);
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
    use mch_logic::{Network, NetworkKind, Prng, Signal};

    /// A wide, layered random network (every level far above the sharding
    /// threshold) — small enough for tests, wide enough that the enumeration
    /// genuinely shards.
    fn wide_network(seed: u64, kind: NetworkKind) -> Network {
        let mut rng = Prng::seed_from_u64(seed);
        let mut net = Network::new(kind);
        let mut layer: Vec<Signal> = net.add_inputs(48);
        for _ in 0..6 {
            let mut next = Vec::new();
            for _ in 0..48 {
                let a = layer[rng.gen_range(0..layer.len())];
                let b = layer[rng.gen_range(0..layer.len())];
                let a = a.xor_complement(rng.gen_bool(0.4));
                let b = b.xor_complement(rng.gen_bool(0.4));
                let s = match rng.gen_range(0..3) {
                    0 => net.and(a, b),
                    1 => net.or(a, b),
                    _ => net.xor(a, b),
                };
                next.push(s);
            }
            layer = next;
        }
        for &s in layer.iter().take(16) {
            net.add_output(s);
        }
        net
    }

    #[test]
    fn parallel_is_byte_identical_to_serial() {
        for kind in [NetworkKind::Aig, NetworkKind::Xag, NetworkKind::Mig] {
            let net = wide_network(0xD5, kind);
            let params = CutParams::new(6, 8);
            let serial = enumerate_cuts_with_model(&net, &params, &CutCostModel::unit(), None);
            for threads in [2, 3, 4, 8] {
                let parallel =
                    enumerate_cuts_threaded(&net, &params, &CutCostModel::unit(), threads, None);
                assert!(
                    serial.identical(&parallel),
                    "{kind:?} with {threads} threads diverged from serial"
                );
            }
        }
    }

    #[test]
    fn one_thread_is_the_serial_path() {
        let net = wide_network(0x11, NetworkKind::Aig);
        let params = CutParams::default();
        let serial = enumerate_cuts_with_model(&net, &params, &CutCostModel::unit(), None);
        for threads in [0, 1] {
            let same = enumerate_cuts_threaded(&net, &params, &CutCostModel::unit(), threads, None);
            assert!(serial.identical(&same));
        }
    }

    #[test]
    fn narrow_networks_fall_back_to_serial() {
        // A chain: every level has one node, far below the shard threshold.
        let mut net = Network::new(NetworkKind::Aig);
        let xs = net.add_inputs(4);
        let mut acc = xs[0];
        for &x in &xs[1..] {
            acc = net.and(acc, x);
        }
        net.add_output(acc);
        let params = CutParams::default();
        let serial = enumerate_cuts_with_model(&net, &params, &CutCostModel::unit(), None);
        let parallel = enumerate_cuts_threaded(&net, &params, &CutCostModel::unit(), 8, None);
        assert!(serial.identical(&parallel));
    }

    #[test]
    fn level_parallel_commits_in_item_order() {
        // Four levels of unequal width; the concatenated commit order must be
        // exactly the level-major item order regardless of thread count.
        let levels: Vec<Vec<u32>> = vec![
            (0..40).collect(),
            (40..41).collect(),
            vec![],
            (41..120).collect(),
        ];
        let expect: Vec<u32> = levels.iter().flatten().copied().collect();
        for threads in [1, 2, 4, 7] {
            let seen = std::sync::Mutex::new(Vec::new());
            level_parallel(
                &levels,
                threads,
                8,
                || (),
                |_, shard: &[u32]| shard.to_vec(),
                |results| {
                    let mut seen = seen.lock().unwrap();
                    for r in results {
                        seen.extend(r);
                    }
                },
            );
            assert_eq!(*seen.lock().unwrap(), expect, "threads = {threads}");
        }
    }

    #[test]
    fn level_parallel_runs_back_to_back_phases() {
        // Two back-to-back phases on the global budget: the second phase must
        // behave exactly like the first.
        let levels: Vec<Vec<u32>> = vec![(0..64).collect()];
        for _phase in 0..2 {
            let sum = std::sync::Mutex::new(0u64);
            level_parallel(
                &levels,
                4,
                8,
                || (),
                |_, shard: &[u32]| shard.iter().map(|&x| x as u64).sum::<u64>(),
                |results: Vec<u64>| *sum.lock().unwrap() += results.iter().sum::<u64>(),
            );
            assert_eq!(*sum.lock().unwrap(), (0..64).sum::<u64>());
        }
    }

    #[test]
    fn default_threads_is_positive() {
        assert!(default_threads() >= 1);
    }

    #[test]
    fn worker_panic_propagates_with_its_payload() {
        let levels: Vec<Vec<u32>> = vec![(0..64).collect()];
        let caught = std::panic::catch_unwind(|| {
            level_parallel(
                &levels,
                4,
                8,
                || (),
                |_, shard: &[u32]| {
                    if shard.contains(&63) {
                        panic!("worker exploded on purpose");
                    }
                    shard.len()
                },
                |_| {},
            );
        });
        let payload = caught.expect_err("the worker panic must reach the caller");
        let msg = payload
            .downcast_ref::<&str>()
            .copied()
            .unwrap_or_default();
        assert_eq!(msg, "worker exploded on purpose");
    }

    #[test]
    fn run_with_executes_borrowed_jobs_and_main() {
        let pool = WorkerPool::global();
        let mut slots = [0u32; 4];
        let mut main_ran = false;
        {
            let (head, tail) = slots.split_at_mut(1);
            let jobs: Vec<Box<dyn FnOnce() + Send + '_>> = tail
                .iter_mut()
                .enumerate()
                .map(|(i, slot)| {
                    Box::new(move || *slot = i as u32 + 2) as Box<dyn FnOnce() + Send + '_>
                })
                .collect();
            pool.run_with(jobs, || {
                head[0] = 1;
                main_ran = true;
            });
        }
        assert!(main_ran);
        assert_eq!(slots, [1, 2, 3, 4]);
    }

    #[test]
    fn run_with_propagates_job_panics_after_the_barrier() {
        let pool = WorkerPool::global();
        let done = std::sync::Mutex::new(0usize);
        let caught = std::panic::catch_unwind(AssertUnwindSafe(|| {
            let jobs: Vec<Box<dyn FnOnce() + Send + '_>> = (0..3)
                .map(|i| {
                    let done = &done;
                    Box::new(move || {
                        if i == 1 {
                            panic!("job exploded on purpose");
                        }
                        *done.lock().unwrap() += 1;
                    }) as Box<dyn FnOnce() + Send + '_>
                })
                .collect();
            pool.run_with(jobs, || {});
        }));
        let payload = caught.expect_err("the job panic must reach the caller");
        let msg = payload.downcast_ref::<&str>().copied().unwrap_or_default();
        assert_eq!(msg, "job exploded on purpose");
        // The barrier ran: the surviving jobs completed before the panic
        // surfaced.
        assert_eq!(*done.lock().unwrap(), 2);
    }

    #[test]
    fn run_with_from_a_worker_runs_inline() {
        let pool = WorkerPool::global();
        let nested_ok = std::sync::Mutex::new(false);
        {
            let nested_ok = &nested_ok;
            let jobs: Vec<Box<dyn FnOnce() + Send + '_>> = vec![Box::new(move || {
                assert!(WorkerPool::is_worker());
                // A nested run_with from inside a job runs inline instead of
                // spawning helpers of its own.
                let mut inner = [0u8; 2];
                let (a, b) = inner.split_at_mut(1);
                WorkerPool::global().run_with(
                    vec![Box::new(|| b[0] = 2) as Box<dyn FnOnce() + Send + '_>],
                    || a[0] = 1,
                );
                assert_eq!(inner, [1, 2]);
                *nested_ok.lock().unwrap() = true;
            })];
            pool.run_with(jobs, || assert!(!WorkerPool::is_worker()));
        }
        assert!(*nested_ok.lock().unwrap());
    }

    #[test]
    fn global_pool_is_shared_and_sized() {
        let a = WorkerPool::global();
        let b = WorkerPool::global();
        assert!(std::ptr::eq(a, b));
        assert!(a.workers() >= 1);
    }

    #[test]
    fn global_pool_survives_a_panicked_job() {
        // A panicking job on the global budget must fail only its own run:
        // the next fan-out works, immediately, for ordinary work.
        let caught = std::panic::catch_unwind(AssertUnwindSafe(|| {
            WorkerPool::global().run_with(
                vec![Box::new(|| panic!("poison attempt")) as Box<dyn FnOnce() + Send + '_>],
                || {},
            );
        }));
        assert!(caught.is_err(), "the job panic must surface to the caller");
        let levels: Vec<Vec<u32>> = vec![(0..64).collect()];
        let sum = std::sync::Mutex::new(0u64);
        level_parallel(
            &levels,
            4,
            8,
            || (),
            |_, shard: &[u32]| shard.iter().map(|&x| x as u64).sum::<u64>(),
            |results: Vec<u64>| *sum.lock().unwrap() += results.iter().sum::<u64>(),
        );
        assert_eq!(*sum.lock().unwrap(), (0..64).sum::<u64>());
    }

    #[test]
    fn repeated_job_panics_do_not_degrade_the_pool() {
        let pool = WorkerPool::global();
        for round in 0..8 {
            let caught = std::panic::catch_unwind(AssertUnwindSafe(|| {
                pool.run_with(
                    vec![
                        Box::new(move || panic!("round {round}")) as Box<dyn FnOnce() + Send + '_>
                    ],
                    || {},
                );
            }));
            assert!(caught.is_err());
            // Between panics the pool still completes normal work.
            let mut slot = 0u32;
            {
                let slot = &mut slot;
                pool.run_with(
                    vec![Box::new(move || *slot = round + 1) as Box<dyn FnOnce() + Send + '_>],
                    || {},
                );
            }
            assert_eq!(slot, round + 1);
        }
    }

    #[test]
    fn main_panic_wins_over_job_panics() {
        let caught = std::panic::catch_unwind(AssertUnwindSafe(|| {
            WorkerPool::global().run_with(
                vec![Box::new(|| panic!("job exploded")) as Box<dyn FnOnce() + Send + '_>],
                || panic!("main exploded"),
            );
        }));
        let payload = caught.expect_err("a panic must reach the caller");
        let msg = payload.downcast_ref::<&str>().copied().unwrap_or_default();
        assert_eq!(msg, "main exploded");
    }

    #[test]
    fn fan_out_stays_within_the_global_budget() {
        use mch_logic::FastSet;
        use std::sync::atomic::{AtomicUsize, Ordering};
        let budget = WorkerPool::global().workers() + 1;
        let current = || std::thread::current().id();

        // `level_parallel` far above the budget: every shard item exactly
        // once, on the coordinator plus at most `workers()` helpers.
        let levels: Vec<Vec<usize>> = vec![(0..2048).collect(), (2048..4096).collect()];
        let seen: Vec<AtomicUsize> = (0..4096).map(|_| AtomicUsize::new(0)).collect();
        let threads = Mutex::new(FastSet::default());
        level_parallel(
            &levels,
            64,
            8,
            || (),
            |_, shard: &[usize]| {
                threads.lock().unwrap().insert(current());
                for &i in shard {
                    seen[i].fetch_add(1, Ordering::Relaxed);
                }
            },
            |_| {},
        );
        assert!(seen.iter().all(|n| n.load(Ordering::Relaxed) == 1));
        let used = threads.lock().unwrap().len();
        assert!(
            used <= budget,
            "level_parallel used {used} threads, budget {budget}"
        );

        // `run_with` with 64 jobs: each exactly once, within the same bound
        // (the caller, which runs `main`, included).
        let ran: Vec<AtomicUsize> = (0..64).map(|_| AtomicUsize::new(0)).collect();
        let threads = Mutex::new(FastSet::default());
        let jobs: Vec<Box<dyn FnOnce() + Send + '_>> = ran
            .iter()
            .map(|count| {
                let threads = &threads;
                Box::new(move || {
                    threads.lock().unwrap().insert(current());
                    count.fetch_add(1, Ordering::Relaxed);
                }) as Box<dyn FnOnce() + Send + '_>
            })
            .collect();
        WorkerPool::global().run_with(jobs, || {
            threads.lock().unwrap().insert(current());
        });
        assert!(ran.iter().all(|n| n.load(Ordering::Relaxed) == 1));
        let used = threads.lock().unwrap().len();
        assert!(
            used <= budget,
            "run_with used {used} threads, budget {budget}"
        );
    }
}
