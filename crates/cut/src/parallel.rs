//! Level-parallel cut enumeration and the process-wide worker pool behind it.
//!
//! Priority-cut enumeration is embarrassingly parallel *within* a topological
//! level: a gate's cut set depends only on its fanins' cut sets, and every
//! fanin sits at a strictly smaller level. This module exploits exactly that
//! structure:
//!
//! 1. [`mch_logic::levelize`] groups the gates by level;
//! 2. shard work is executed on the lazily-spawned, process-wide
//!    [`WorkerPool`] — plain [`std::thread`] workers fed through a shared
//!    injector queue, no external dependencies — so repeated enumeration
//!    calls (and the other phases that reuse the pool: choice transfer in
//!    `mch_mapper`, snapshot graph-mapping and the batched mapping service
//!    in `mch_core`) pay the thread-spawn cost once per process instead of
//!    once per call;
//! 3. each worker runs the same per-node kernel as the serial driver
//!    (`enumerate_node`) over contiguous, id-ordered shards pulled from a
//!    per-call task queue, with its own `ProtoCut`/`LeafBuf` scratch, reading
//!    the already-complete lower levels through a shared [`RwLock`];
//! 4. the coordinator merges the shards back in chunk order (which is node-id
//!    order within the level) before releasing the next level.
//!
//! [`level_parallel`] is the generic level-synchronized harness; it is public
//! precisely so other crates can shard their own per-level (or single-batch)
//! work on the same pool.
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
//! `threads = 1` (or a network whose widest level is below the sharding
//! threshold) selects the serial driver unchanged — no pool, no locks, no
//! extra allocation. Prefer it for small networks, for latency-sensitive
//! single-circuit calls where the per-call coordination cost (one task-queue
//! round-trip per level) is comparable to the enumeration itself, and when an
//! outer loop already parallelizes across circuits.

use crate::enumeration::{
    enumerate_node, fanout_estimates, seed_arena, EnumView, NodeScratch,
};
use crate::{enumerate_cuts_with_model, Cut, CutCostModel, CutCosts, CutParams, NetworkCuts};
use mch_logic::{levelize, Network, NodeId};
use std::cell::Cell;
use std::collections::VecDeque;
use std::num::NonZeroUsize;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex, OnceLock, PoisonError, RwLock};

/// Recovers a mutex/rwlock guard from a poisoned lock.
///
/// Every lock in this module protects state that is either always consistent
/// (the job queue: panicking jobs are wrapped, so a queue operation itself
/// never unwinds mid-update) or discarded wholesale when a phase unwinds (the
/// enumeration arena), so the poison flag carries no information here beyond
/// "some other thread panicked once" — which fault containment explicitly
/// must survive.
macro_rules! recover {
    ($lock:expr) => {
        $lock.unwrap_or_else(PoisonError::into_inner)
    };
}

/// Smallest level (or representative batch) worth sharding across the pool;
/// anything narrower runs inline on the coordinating thread, which keeps
/// deep, narrow circuits from paying one task-queue round-trip per tiny
/// level.
pub(crate) const MIN_PARALLEL_LEVEL: usize = 16;

/// Chunks handed out per worker and level when a level is sharded. Chunks are
/// pushed to the shared task queue in order and pulled by whichever worker is
/// free, so a contiguous id region of expensive nodes (wide cross products
/// cluster that way) is spread across the pool instead of serializing on one
/// worker.
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
// The process-wide worker pool
// ---------------------------------------------------------------------------

/// A boxed unit of work queued on the pool (already lifetime-erased; see the
/// safety comment in [`WorkerPool::run_with`]).
type Job = Box<dyn FnOnce() + Send + 'static>;

struct PoolQueue {
    jobs: VecDeque<Job>,
    shutdown: bool,
}

struct PoolShared {
    queue: Mutex<PoolQueue>,
    ready: Condvar,
    /// Live worker threads — decremented by [`WorkerToken`] when a worker
    /// exits for any reason (shutdown, or an injected death), consulted by
    /// [`WorkerPool::ensure_workers`] to respawn lazily.
    live: AtomicUsize,
    /// Monotonic id source for worker thread names.
    next_name: AtomicUsize,
}

/// Held for a worker thread's whole life; the `Drop` impl keeps the live
/// count honest even when the worker dies by unwinding (e.g. through the
/// `pool::worker` failpoint), so the next `run_with` knows to respawn.
struct WorkerToken(Arc<PoolShared>);

impl Drop for WorkerToken {
    fn drop(&mut self) {
        self.0.live.fetch_sub(1, Ordering::AcqRel);
    }
}

/// Completion latch shared between one [`WorkerPool::run_with`] call and the
/// jobs it submitted: counts outstanding jobs and stores the first panic
/// payload observed on a worker.
struct RunState {
    remaining: Mutex<usize>,
    done: Condvar,
    panic: Mutex<Option<Box<dyn std::any::Any + Send>>>,
}

thread_local! {
    static IS_POOL_WORKER: Cell<bool> = const { Cell::new(false) };
}

static GLOBAL_POOL: OnceLock<WorkerPool> = OnceLock::new();

/// A dependency-free pool of long-lived worker threads fed through a shared
/// injector queue.
///
/// The [`global`](WorkerPool::global) pool is spawned lazily, sized by
/// [`default_threads`] (read once, at first use), and lives for the rest of
/// the process — this is the ROADMAP's "process-wide pool": every
/// level-parallel phase of every flow reuses the same threads instead of
/// spawning a fresh scope per enumeration call. Dedicated pools from
/// [`with_workers`](WorkerPool::with_workers) shut their threads down on
/// drop.
///
/// The only execution primitive is [`run_with`](WorkerPool::run_with): borrow
/// jobs onto the workers while a coordinating closure runs on the calling
/// thread, with a hard completion barrier before the call returns. Higher
/// level schedules ([`level_parallel`]) are built on top of it.
pub struct WorkerPool {
    shared: Arc<PoolShared>,
    workers: usize,
}

impl WorkerPool {
    /// Spawns a dedicated pool with `workers` threads (floored at 1). The
    /// threads exit when the pool is dropped. Prefer
    /// [`global`](WorkerPool::global) unless you need an isolated pool (e.g.
    /// in tests).
    pub fn with_workers(workers: usize) -> WorkerPool {
        let workers = workers.max(1);
        let shared = Arc::new(PoolShared {
            queue: Mutex::new(PoolQueue {
                jobs: VecDeque::new(),
                shutdown: false,
            }),
            ready: Condvar::new(),
            live: AtomicUsize::new(0),
            next_name: AtomicUsize::new(0),
        });
        let pool = WorkerPool { shared, workers };
        pool.ensure_workers();
        pool
    }

    /// Respawns worker threads up to the pool's configured size. Called at
    /// the start of every coordinated run so a worker killed by an injected
    /// fault is replaced lazily, on the next phase that needs it. Spawn
    /// failures are tolerated: the coordinator help-drains the job queue
    /// itself (see [`run_with`](WorkerPool::run_with)), so forward progress
    /// never depends on a successful spawn.
    fn ensure_workers(&self) {
        loop {
            let live = self.shared.live.load(Ordering::Acquire);
            if live >= self.workers {
                return;
            }
            if self
                .shared
                .live
                .compare_exchange(live, live + 1, Ordering::AcqRel, Ordering::Acquire)
                .is_err()
            {
                continue;
            }
            let shared = Arc::clone(&self.shared);
            let id = self.shared.next_name.fetch_add(1, Ordering::Relaxed);
            let spawned = std::thread::Builder::new()
                .name(format!("mch-pool-{id}"))
                .spawn(move || {
                    let token = WorkerToken(Arc::clone(&shared));
                    worker_main(&shared, token);
                })
                .is_ok();
            if !spawned {
                self.shared.live.fetch_sub(1, Ordering::AcqRel);
                return;
            }
        }
    }

    /// The process-wide pool, spawned on first use with
    /// [`default_threads`] workers. Its threads idle on a condvar between
    /// phases and are never joined.
    pub fn global() -> &'static WorkerPool {
        GLOBAL_POOL.get_or_init(|| WorkerPool::with_workers(default_threads()))
    }

    /// Number of worker threads in this pool.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Returns `true` when the calling thread is a pool worker.
    ///
    /// Used as a recursion guard: parallel phases invoked *from* a pool
    /// worker (e.g. a graph-mapping job that internally enumerates cuts) must
    /// run serially instead of submitting nested jobs and blocking a worker
    /// on work the exhausted pool can never schedule.
    pub fn is_worker() -> bool {
        IS_POOL_WORKER.with(Cell::get)
    }

    /// Runs `main` on the calling thread while `jobs` run on the pool
    /// workers; returns only after `main` *and every job* completed.
    ///
    /// Jobs may borrow data from the caller's stack (anything outliving the
    /// `run_with` call): the completion barrier guarantees the borrows end
    /// before the call returns, even when `main` or a job panics. A panic in
    /// `main` is re-raised after the barrier; otherwise the first job panic
    /// is re-raised, with its original payload.
    ///
    /// Jobs must not block waiting for `main` to make progress after `main`
    /// unwinds — a coordinating `main` that feeds jobs through a queue must
    /// close that queue on unwind (see the close-on-drop guard in
    /// [`level_parallel`]). When called *from* a pool worker everything runs
    /// inline on the calling thread (jobs first, then `main`) to keep an
    /// exhausted pool from deadlocking on nested phases.
    pub fn run_with<'env>(
        &self,
        jobs: Vec<Box<dyn FnOnce() + Send + 'env>>,
        main: impl FnOnce(),
    ) {
        if jobs.is_empty() {
            main();
            return;
        }
        if Self::is_worker() {
            let mut first_panic: Option<Box<dyn std::any::Any + Send>> = None;
            for job in jobs {
                if let Err(payload) = catch_unwind(AssertUnwindSafe(|| {
                    mch_logic::failpoint!("pool::dispatch");
                    job()
                })) {
                    first_panic.get_or_insert(payload);
                }
            }
            let main_result = catch_unwind(AssertUnwindSafe(main));
            if let Err(payload) = main_result {
                resume_unwind(payload);
            }
            if let Some(payload) = first_panic {
                resume_unwind(payload);
            }
            return;
        }
        self.ensure_workers();
        let state = Arc::new(RunState {
            remaining: Mutex::new(jobs.len()),
            done: Condvar::new(),
            panic: Mutex::new(None),
        });
        {
            let mut queue = recover!(self.shared.queue.lock());
            for job in jobs {
                let state = Arc::clone(&state);
                let wrapped: Box<dyn FnOnce() + Send + 'env> = Box::new(move || {
                    if let Err(payload) = catch_unwind(AssertUnwindSafe(|| {
                        mch_logic::failpoint!("pool::dispatch");
                        job()
                    })) {
                        let mut slot = recover!(state.panic.lock());
                        slot.get_or_insert(payload);
                    }
                    let mut remaining = recover!(state.remaining.lock());
                    *remaining -= 1;
                    if *remaining == 0 {
                        state.done.notify_all();
                    }
                });
                // SAFETY: the job borrows data living at least `'env` (the
                // duration of this call). The barrier below waits for every
                // job to finish — on the success path and on every unwind
                // path — before `run_with` returns, so the erased borrows
                // can never outlive the data they point into. The wrapper
                // catches job panics, so a worker always reaches the latch
                // decrement.
                let wrapped: Job = unsafe {
                    std::mem::transmute::<Box<dyn FnOnce() + Send + 'env>, Job>(wrapped)
                };
                queue.jobs.push_back(wrapped);
            }
            self.shared.ready.notify_all();
        }
        let main_result = catch_unwind(AssertUnwindSafe(main));
        self.help_drain(&state);
        if let Err(payload) = main_result {
            resume_unwind(payload);
        }
        let job_panic = recover!(state.panic.lock()).take();
        if let Some(payload) = job_panic {
            resume_unwind(payload);
        }
    }

    /// The completion barrier of [`run_with`](WorkerPool::run_with): blocks
    /// until every submitted job finished, *helping* — the coordinator keeps
    /// pulling queued jobs and running them inline whenever its own latch is
    /// still open. Every job popped from the queue reaches its latch
    /// decrement (the panic-catching wrapper guarantees it), so this loop
    /// terminates even if every worker thread is dead: whatever is still
    /// queued, the coordinator executes itself. Stolen jobs may belong to a
    /// *different* concurrent run; running them here is harmless (they
    /// decrement their own latch) and can only speed that run up.
    fn help_drain(&self, state: &RunState) {
        loop {
            if *recover!(state.remaining.lock()) == 0 {
                return;
            }
            let job = recover!(self.shared.queue.lock()).jobs.pop_front();
            match job {
                Some(job) => {
                    // The coordinator acts as a pool worker for the duration
                    // of a stolen job: jobs may assert `is_worker()`, and the
                    // recursion guard must steer any nested phase inside the
                    // job onto the serial path exactly as on a real worker.
                    // (Stolen jobs are panic-wrapped, so no unwind can leak
                    // the flag.)
                    IS_POOL_WORKER.with(|flag| flag.set(true));
                    job();
                    IS_POOL_WORKER.with(|flag| flag.set(false));
                }
                None => {
                    // Nothing left to steal: every outstanding job is being
                    // executed by someone who will decrement the latch.
                    let mut remaining = recover!(state.remaining.lock());
                    while *remaining > 0 {
                        remaining = recover!(state.done.wait(remaining));
                    }
                    return;
                }
            }
        }
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        // Every `run_with` waits for its jobs, so the queue is empty here;
        // raising the flag wakes the idle workers and they exit.
        recover!(self.shared.queue.lock()).shutdown = true;
        self.shared.ready.notify_all();
    }
}

fn worker_main(shared: &PoolShared, _token: WorkerToken) {
    IS_POOL_WORKER.with(|flag| flag.set(true));
    loop {
        // Injected worker death happens strictly *between* jobs: a popped
        // job always reaches its latch decrement, so killing a worker here
        // can delay a run (until the coordinator steals the queued jobs or a
        // replacement spawns) but can never strand one.
        mch_logic::failpoint!("pool::worker");
        let job = {
            let mut queue = recover!(shared.queue.lock());
            loop {
                if let Some(job) = queue.jobs.pop_front() {
                    break Some(job);
                }
                if queue.shutdown {
                    break None;
                }
                queue = recover!(shared.ready.wait(queue));
            }
        };
        match job {
            // Submitted jobs are panic-wrapped by `run_with`, so this call
            // cannot unwind and the worker survives any job.
            Some(job) => job(),
            None => return,
        }
    }
}

// ---------------------------------------------------------------------------
// The level-synchronized harness
// ---------------------------------------------------------------------------

/// One unit of work pulled by a pool worker: chunk `chunk` of level `level`,
/// covering `items[start..end]` of that level's slice.
struct Task {
    chunk: usize,
    level: usize,
    start: usize,
    end: usize,
}

/// A closeable FIFO feeding level shards to the worker loops of one
/// [`level_parallel`] call. Shared pulling (instead of a static worker →
/// chunk assignment) keeps every schedule deadlock-free even when the pool
/// has fewer free workers than the requested thread count: whichever loops
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

    /// Non-blocking pop, used by the coordinator to help execute its own
    /// level when some (or all) pool workers are dead or busy elsewhere.
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

/// Closes the task queue when dropped, releasing the worker loops — on the
/// normal path after the last level, and on the unwind path when the
/// coordinator re-raises a forwarded worker panic.
struct CloseOnDrop<'a>(&'a TaskQueue);

impl Drop for CloseOnDrop<'_> {
    fn drop(&mut self) {
        self.0.close();
    }
}

/// Runs `work` over every item of every level, levels strictly in order,
/// items of one level sharded across `threads` worker loops scheduled on the
/// process-wide [`WorkerPool`] — the level-synchronized harness behind
/// [`enumerate_cuts_threaded`] and the choice transfer in `mch_mapper`. A
/// single flat batch is simply one level (`&[items]`).
///
/// * `init` builds one per-worker scratch value (called once per worker loop,
///   plus once on the coordinator for inline levels);
/// * `work` maps a contiguous, order-preserving shard of a level to one
///   result (it runs concurrently with other shards of the *same* level, so
///   it must only read state written by earlier levels — wrap shared state in
///   a [`RwLock`] and take a read lock per shard);
/// * `commit` receives each level's results **in shard order** (which
///   preserves item order) after all of that level's shards finished, and is
///   the only place that may write shared state.
///
/// Levels shorter than `min_shard` — and everything, when `threads <= 1`, no
/// level reaches `min_shard`, or the caller already *is* a pool worker (see
/// [`WorkerPool::is_worker`]) — run inline on the coordinating thread in the
/// very same order, so the observable commit sequence is independent of the
/// thread count. Empty levels are skipped.
///
/// # Panics
///
/// A panic inside `work` is caught on the worker, forwarded to the
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
    // Results travel as `thread::Result` so a panicking worker reports its
    // payload through the channel instead of leaving the coordinator blocked;
    // the coordinator resumes the panic with its original payload.
    let (result_tx, result_rx) = mpsc::channel::<(usize, std::thread::Result<R>)>();
    let jobs: Vec<Box<dyn FnOnce() + Send + '_>> = (0..threads)
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
            // The coordinator helps execute its own level: it competes with
            // the worker loops for queued shards and runs them inline. This
            // makes the level's completion unconditional — even if every
            // pool worker is dead (injected faults) and the worker-loop jobs
            // never run, the coordinator drains all shards itself. Shard
            // results are identical regardless of which thread computed
            // them, so commit order (chunk index) still fixes the output.
            while let Some(task) = queue.try_pop() {
                let scratch = inline_scratch.get_or_insert_with(init);
                let shard = &levels[task.level][task.start..task.end];
                match catch_unwind(AssertUnwindSafe(|| work(scratch, shard))) {
                    Ok(r) => {
                        results[task.chunk] = Some(r);
                        collected += 1;
                    }
                    Err(payload) => resume_unwind(payload),
                }
            }
            while collected < chunk_count {
                // Every shard not executed above was popped by a live worker
                // loop, whose panic-catching body always reports — a panic
                // inside `work` is caught and forwarded (buffered payloads
                // are delivered before a disconnect error), so a plain
                // blocking recv cannot hang.
                let (chunk, result) = result_rx
                    .recv()
                    .expect("every pool worker exited without reporting a shard");
                match result {
                    Ok(r) => {
                        results[chunk] = Some(r);
                        collected += 1;
                    }
                    // Re-raise the worker's panic on the coordinator with its
                    // original payload; the close-on-drop guard releases the
                    // remaining worker loops.
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
        // `_close` drops here, closing the task queue so the worker loops
        // drain and exit before `run_with`'s completion barrier.
    });
}

// ---------------------------------------------------------------------------
// Parallel cut enumeration on the harness
// ---------------------------------------------------------------------------

/// Mutable enumeration state shared between the coordinator and the pool:
/// workers take read locks while processing a level, the coordinator takes
/// the write lock to merge each finished level.
struct EnumState {
    arena: Vec<Cut>,
    spans: Vec<(u32, u32)>,
    node_costs: Vec<CutCosts>,
}

/// One worker's result for one shard: per node the id, how many cuts it
/// stored and its best cost estimates, plus all those cuts concatenated in
/// node order.
struct ShardCuts {
    nodes: Vec<(NodeId, u32, CutCosts)>,
    cuts: Vec<Cut>,
}

/// [`enumerate_cuts_with_model`] sharded over `threads` workers, one
/// topological level at a time.
///
/// The result is byte-identical to the serial driver's — same cuts, same
/// ranking, same costs, same arena layout (see the module docs on
/// determinism). `threads = 1` (and any network whose widest level is too
/// narrow to shard) *is* the serial driver; `threads = 0` is treated as 1.
/// Use [`default_threads`] to follow the host's core count.
pub fn enumerate_cuts_threaded(
    network: &Network,
    params: &CutParams,
    model: &CutCostModel,
    threads: usize,
) -> NetworkCuts {
    if threads <= 1 || WorkerPool::is_worker() {
        return enumerate_cuts_with_model(network, params, model);
    }
    let levels = levelize(network);
    if levels.max_width() < MIN_PARALLEL_LEVEL {
        return enumerate_cuts_with_model(network, params, model);
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
    /// threshold) — small enough for tests, wide enough that the pool
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
            let serial = enumerate_cuts_with_model(&net, &params, &CutCostModel::unit());
            for threads in [2, 3, 4, 8] {
                let parallel =
                    enumerate_cuts_threaded(&net, &params, &CutCostModel::unit(), threads);
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
        let serial = enumerate_cuts_with_model(&net, &params, &CutCostModel::unit());
        for threads in [0, 1] {
            let same = enumerate_cuts_threaded(&net, &params, &CutCostModel::unit(), threads);
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
        let serial = enumerate_cuts_with_model(&net, &params, &CutCostModel::unit());
        let parallel = enumerate_cuts_threaded(&net, &params, &CutCostModel::unit(), 8);
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
    fn level_parallel_reuses_the_pool_across_phases() {
        // Two back-to-back phases on the same (global) pool: the second phase
        // must behave exactly like the first — the pool survives a phase.
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
        let pool = WorkerPool::with_workers(2);
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
        let pool = WorkerPool::with_workers(2);
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
        let pool = WorkerPool::with_workers(1);
        let nested_ok = std::sync::Mutex::new(false);
        {
            let nested_ok = &nested_ok;
            let jobs: Vec<Box<dyn FnOnce() + Send + '_>> = vec![Box::new(move || {
                assert!(WorkerPool::is_worker());
                // A nested run_with from inside a pool worker must not
                // deadlock the single-threaded pool.
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
        // A panicking job on the process-wide pool must fail only its own
        // run: the pool stays usable, immediately, for ordinary work.
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
        let pool = WorkerPool::with_workers(2);
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

    #[cfg(feature = "fault-injection")]
    #[test]
    fn coordinator_completes_runs_with_dead_workers_and_respawns() {
        use mch_logic::failpoint;
        // Serialize against other fault-injection tests in this binary.
        static GATE: Mutex<()> = Mutex::new(());
        let _gate = recover!(GATE.lock());
        let pool = WorkerPool::with_workers(2);
        // Silence the expected worker-death panics for the duration.
        let prev_hook = std::panic::take_hook();
        std::panic::set_hook(Box::new(|info| {
            let injected = info
                .payload()
                .downcast_ref::<String>()
                .is_some_and(|m| m.starts_with(failpoint::PANIC_PREFIX));
            if !injected {
                eprintln!("{info}");
            }
        }));
        // Kill both workers at their next between-jobs check, then give them
        // a reason to wake up: the run's jobs. The coordinator must finish
        // the run by help-draining even with zero live workers.
        failpoint::arm_exact("pool::worker", &[0, 1]);
        let mut slots = [0u32; 3];
        {
            let jobs: Vec<Box<dyn FnOnce() + Send + '_>> = slots
                .iter_mut()
                .map(|slot| Box::new(move || *slot = 7) as Box<dyn FnOnce() + Send + '_>)
                .collect();
            pool.run_with(jobs, || {});
        }
        failpoint::disarm();
        std::panic::set_hook(prev_hook);
        assert_eq!(slots, [7, 7, 7]);
        // Wait for the dying workers' tokens to drop, then a fresh run must
        // respawn workers lazily and still work.
        for _ in 0..100 {
            if pool.shared.live.load(Ordering::Acquire) == 0 {
                break;
            }
            std::thread::sleep(std::time::Duration::from_millis(5));
        }
        let mut after = 0u32;
        {
            let after = &mut after;
            pool.run_with(
                vec![Box::new(move || *after = 9) as Box<dyn FnOnce() + Send + '_>],
                || {},
            );
        }
        assert_eq!(after, 9);
        assert!(pool.shared.live.load(Ordering::Acquire) >= 1);
    }
}
