//! Adaptive chunked work-stealing scheduler (DESIGN.md §14).
//!
//! The wavefront driver ([`crate::parallel`]) used to hand workers one
//! tree at a time through a shared cursor and spawn fresh threads per
//! wavefront. Both costs dominate on real forests, where most trees are
//! a handful of nodes: claiming a tree costs about as much as mapping
//! it, and a 1-core host still paid for two threads. This module
//! replaces that with three pieces:
//!
//! 1. **Chunks.** Trees of one wavefront are grouped, in tree order,
//!    into contiguous chunks carrying at least [`AUTO_CHUNK_WORK`]
//!    units of *estimated* DP work each (`ChunkPolicy::Auto`, roughly
//!    64µs per chunk), or exactly N trees each (`ChunkPolicy::Fixed`).
//!    The estimate is the closed-form kernel cost below — available
//!    before mapping, unlike the exact `dp.tree_work` histogram it is
//!    calibrated against.
//! 2. **A process-wide pool.** One lazily-spawned set of worker
//!    threads, sized from [`std::thread::available_parallelism`] and
//!    capped at [`MAX_AUTO_JOBS`], owns one deque of chunks each. A
//!    submitting thread distributes a wavefront's chunks round-robin
//!    over the deques and then *helps*: it repeatedly pulls back
//!    not-yet-started chunks of its own wavefront and runs them
//!    inline. Idle workers steal from the **tail** of other deques
//!    (owners pop the head), so contention concentrates on opposite
//!    ends. Every wavefront carries an [`ExecutorBudget`] of `jobs`
//!    slots (the submitter pre-joined): a worker may take — or steal —
//!    a wave's chunk only while it holds or can claim a slot, so an
//!    explicit `--jobs N` bounds the executors that actually map the
//!    wave, not just its initial placement. Because the pool is
//!    process-wide, chunks of concurrent [`crate::map_network`] calls —
//!    e.g. in-flight daemon requests — interleave on the same threads
//!    instead of oversubscribing the host.
//! 3. **An inline fall-through.** A wavefront whose total estimated
//!    work would not amortize a hand-off (fewer than two chunks, fewer
//!    than two effective executors, or less than
//!    [`MIN_POOLED_WAVE_WORK`] units overall) runs as a single chunk
//!    on the submitting thread — no hand-off, no wake-ups. At `jobs = 1`
//!    every wavefront takes this path, so single-threaded mapping is
//!    the same driver with the pool never touched.
//!
//! Determinism is unchanged from the per-tree scheduler: every chunk
//! writes solutions into a slot-per-tree buffer and the driver
//! publishes root depths in tree order between wavefronts, so the
//! produced circuit, every telemetry counter, and the trace identity
//! are bit-identical across `jobs × chunk × cache-mode`. The only
//! exception is the `sched.*` counter family, which echoes the schedule
//! rather than the work and is excluded from that contract.
//!
//! Failure handling: the first chunk to observe a fired cancel token
//! or a mapping error records it in the wavefront's error slot and
//! raises a flag; sibling chunks observe the flag at the next tree
//! boundary and stop, so no tree span is left open. A latch counted
//! down by a drop guard (even on unwind) releases the driver, which
//! discards all partial results and returns the recorded error. Pool
//! workers additionally run each chunk under `catch_unwind`: a
//! panicking chunk records [`MapError::WorkerPanicked`] *before* its
//! latch arrival — so the driver returns that error instead of
//! tripping over a missing result slot — and the worker thread
//! survives to serve later chunks.
//!
//! Besides wavefront chunks the pool carries a second, coarser work
//! axis: *indexed items* ([`run_indexed`]). An item is an opaque
//! `Fn(usize)` closure — the design pipeline uses one item per
//! combinational cloud — queued on the same deques, gated by the same
//! [`ExecutorBudget`], and help-drained by its submitter exactly like
//! a wavefront. Items nest freely over chunks: a pool worker running
//! an item may itself submit chunk wavefronts (a cloud mapped with
//! `jobs > 1`) and drain them with [`Pool::grab_wave`], so clouds and
//! tree chunks of concurrent runs interleave on one thread set without
//! oversubscription or deadlock.

use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, Once, OnceLock};
use std::time::Instant;

use chortle_netlist::NodeId;
use chortle_telemetry::{Histogram, Telemetry, TraceScope};

use crate::cache::{CacheKey, FnKey, SharedCache, SharedFnCache};
use crate::cancel::CancelToken;
use crate::dp::{map_tree_solution, DpScratch, Objective, ShapeSolution};
use crate::map::{stats, FnMeta, MapError};
use crate::tree::{Fingerprint, Tree};

/// How the wavefront driver groups trees into scheduler chunks.
///
/// Every policy produces the identical circuit, report, counters, and
/// trace identity — chunking only moves work between threads. See
/// [`crate::MapOptionsBuilder::chunk`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum ChunkPolicy {
    /// Size chunks from the static per-tree work estimate so each
    /// carries at least ~64µs of DP work ([`AUTO_CHUNK_WORK`] units).
    #[default]
    Auto,
    /// Exactly N trees per chunk (the last chunk of a wavefront may be
    /// smaller). `Fixed(1)` reproduces the historical tree-at-a-time
    /// dispatch; a huge N degenerates to one chunk per wavefront. The
    /// builder rejects `Fixed(0)`.
    Fixed(usize),
}

/// Cap on auto-resolved parallelism (`jobs = 0`) and on the pool size:
/// past ~16 workers the per-wavefront hand-off cost outgrows the tree
/// sizes Chortle sees.
pub(crate) const MAX_AUTO_JOBS: usize = 16;

/// Target estimated work per `ChunkPolicy::Auto` chunk. Units are the
/// estimator's (see [`estimate_tree_work`]); calibrated at ~30ns per
/// unit on the seed bench host, 2048 units ≈ 64µs — comfortably above
/// the cost of one deque hand-off plus a worker wake-up.
pub(crate) const AUTO_CHUNK_WORK: u64 = 2048;

/// Inline fall-through threshold: a wavefront estimated below four
/// auto-chunks of total work (~256µs) runs on the submitting thread.
/// At that size even a warm pool loses more to synchronization than
/// it gains in overlap — this is what keeps a 1-core host from paying
/// for threads it does not have.
pub(crate) const MIN_POOLED_WAVE_WORK: u64 = 4 * AUTO_CHUNK_WORK;

/// Pool worker count for this host: `available_parallelism`, capped.
pub(crate) fn pool_size() -> usize {
    std::thread::available_parallelism()
        .map_or(1, usize::from)
        .min(MAX_AUTO_JOBS)
}

/// Static estimate of one tree's DP cost, in abstract kernel units.
///
/// Mirrors the kernel's dominant terms: a node of fanin `f` tries
/// `2^f` utilization subsets at each of up to `k-1` block heights
/// (`dp.divisions`) and walks `3^f / 2` subset-over-submask block
/// combinations (`dp.group_blocks`). The absolute scale is arbitrary —
/// only ratios against [`AUTO_CHUNK_WORK`] matter — and fanin is
/// clamped at 20 so a pathological unsplit node saturates instead of
/// overflowing.
pub(crate) fn estimate_tree_work(tree: &Tree, k: usize) -> u64 {
    let k = k as u64;
    let mut work: u64 = 16; // fixed per-tree overhead: key, bookkeeping
    for node in &tree.nodes {
        let f = node.children.len().min(20) as u32;
        let divisions = (1u64 << f).saturating_mul(k + 1) / 2;
        let walks = 3u64.saturating_pow(f) / 2;
        work = work.saturating_add((k - 1).saturating_mul(divisions.saturating_add(walks)) / 4);
    }
    work
}

/// Groups one wavefront (tree indices, in tree order) into contiguous
/// `(start, end)` chunk ranges over the wavefront slice. Pure function
/// of the forest and the policy — chunk boundaries never depend on the
/// schedule.
pub(crate) fn build_chunks(
    wave: &[usize],
    est: &[u64],
    policy: ChunkPolicy,
) -> Vec<(usize, usize)> {
    let n = wave.len();
    let mut chunks = Vec::new();
    match policy {
        ChunkPolicy::Fixed(size) => {
            let size = size.max(1);
            let mut start = 0;
            while start < n {
                let end = (start + size).min(n);
                chunks.push((start, end));
                start = end;
            }
        }
        ChunkPolicy::Auto => {
            let mut start = 0;
            let mut acc = 0u64;
            for (i, &ti) in wave.iter().enumerate() {
                acc = acc.saturating_add(est[ti]);
                if acc >= AUTO_CHUNK_WORK {
                    chunks.push((start, i + 1));
                    start = i + 1;
                    acc = 0;
                }
            }
            if start < n {
                chunks.push((start, n));
            }
        }
    }
    chunks
}

/// Per-executor occupancy of one wavefront, aggregated across the
/// chunks that executor ran.
pub(crate) struct Occupancy {
    /// Trace worker id (0 = the submitting thread, i+1 = pool worker i).
    pub worker: u32,
    /// Trees this executor mapped in the wavefront.
    pub claimed: u64,
    /// Wall time this executor spent inside the wavefront's chunks.
    pub busy_s: f64,
}

/// One tree's mapped solution plus the structural and functional cache
/// keys it was (re)computed under, if the run is keyed.
pub(crate) type TreeResult = (Arc<ShapeSolution>, Option<CacheKey>, Option<FnKey>);

/// Locks a mutex, proceeding through poison: the protected state here
/// (latch counts, error slots, budgets) must stay reachable even after
/// a sibling panicked, or the driver hangs — exactly when it most
/// needs to observe the failure.
fn lock_unpoisoned<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// Caps how many *distinct* executors (the submitting thread plus pool
/// workers) may map chunks of one wavefront. Placement only seeds
/// deques; any pool worker can see any deque, so without this cap
/// stealing would let the whole pool pile onto a `--jobs 2` run. The
/// submitting thread (executor 0) is pre-joined — it always helps
/// drain its own wave.
pub(crate) struct ExecutorBudget {
    width: usize,
    /// Bit per executor id (0 = submitter, i+1 = pool worker i);
    /// [`MAX_AUTO_JOBS`] keeps ids below the `u32` width.
    joined: AtomicU32,
}

impl ExecutorBudget {
    pub(crate) fn new(width: usize) -> ExecutorBudget {
        ExecutorBudget {
            width: width.max(1),
            joined: AtomicU32::new(1),
        }
    }

    /// True if `executor` already holds one of this wavefront's slots,
    /// or a slot is free and it claims one now. Claims are permanent
    /// for the wavefront's lifetime: the cap is on distinct executors,
    /// not on how many chunks each runs.
    pub(crate) fn try_join(&self, executor: u32) -> bool {
        let bit = 1u32 << executor;
        self.joined
            .fetch_update(Ordering::AcqRel, Ordering::Acquire, |mask| {
                if mask & bit != 0 {
                    Some(mask)
                } else if (mask.count_ones() as usize) < self.width {
                    Some(mask | bit)
                } else {
                    None
                }
            })
            .is_ok()
    }
}

/// Everything a chunk needs to map its slice of one wavefront. Shared
/// by `Arc` between the submitting thread and the pool; all mutation
/// funnels through the interior locks.
pub(crate) struct WaveCtx {
    /// The whole forest, canonicalized, in tree order.
    pub trees: Arc<Vec<Tree>>,
    /// Canonical shape fingerprints, indexed like `trees`.
    pub shapes: Arc<Vec<Fingerprint>>,
    /// Leaf arrival depths indexed by [`NodeId`]: 0 for primary inputs
    /// and constants, the mapped root depth for earlier trees' roots.
    /// Snapshotted per wavefront — within a wavefront it is immutable.
    pub arrivals: Arc<Vec<u32>>,
    /// The wavefront: tree indices in tree order.
    pub indices: Vec<usize>,
    /// Wavefront number (trace span index).
    pub wave_index: usize,
    /// LUT input count.
    pub k: usize,
    /// Mapping objective.
    pub objective: Objective,
    /// The run- (or warm-) scoped structural cache; `None` under
    /// [`crate::CacheMode::Off`], when trees are not keyed at all.
    pub cache: Option<Arc<SharedCache>>,
    /// Per-tree functional metadata (truth-table canon, blind shape),
    /// indexed like `trees`; empty unless the run's mode has a
    /// functional tier.
    pub fn_metas: Arc<Vec<Option<FnMeta>>>,
    /// The run-shared functional tier, present under
    /// [`crate::CacheMode::Fn`].
    pub fn_cache: Option<Arc<SharedFnCache>>,
    /// Cooperative cancellation, polled at every tree boundary.
    pub cancel: CancelToken,
    /// Executor slots: `jobs` distinct executors at most, stealing
    /// included.
    pub budget: ExecutorBudget,
    /// The run's telemetry sink.
    pub telemetry: Telemetry,
    /// Slot-per-tree results, indexed by wavefront position. Buffered
    /// here and drained by the driver in tree order — the determinism
    /// safety rail.
    pub results: Mutex<Vec<Option<TreeResult>>>,
    /// First error observed by any chunk; partial results are
    /// discarded with the wavefront.
    pub error: Mutex<Option<MapError>>,
    /// Raised with `error`; sibling chunks stop at the next tree.
    pub failed: AtomicBool,
    /// Chunks of this wavefront taken from a foreign deque.
    pub steals: AtomicU64,
    /// Per-executor occupancy (only written when telemetry is on).
    pub occupancy: Mutex<Vec<Occupancy>>,
}

impl WaveCtx {
    /// Records the first error and raises the stop flag. Proceeds
    /// through a poisoned slot: failure must be recordable precisely
    /// when a sibling chunk panicked.
    pub(crate) fn fail(&self, e: MapError) {
        let mut slot = lock_unpoisoned(&self.error);
        if slot.is_none() {
            *slot = Some(e);
        }
        drop(slot);
        self.failed.store(true, Ordering::Release);
    }
}

/// One schedulable unit: a chunk of one wavefront. The latch lives
/// outside the [`WaveCtx`] so an executor can drop its context `Arc`
/// *before* arriving — after the driver's latch wait, it holds the
/// only remaining references and can reclaim the trees without a copy.
pub(crate) struct Task {
    /// The wavefront this chunk belongs to.
    pub wave: Arc<WaveCtx>,
    latch: Arc<Latch>,
    /// `(start, end)` positions within `wave.indices`.
    pub range: (usize, usize),
}

/// The coarse work axis: one indexed-item job submitted through
/// [`run_indexed`]. The closure is shared by every item and invoked
/// with the item's index; results flow through captured state (the
/// driver owns a slot-per-index buffer). Budget semantics match a
/// wavefront: at most `jobs` distinct executors, the submitter
/// pre-joined.
pub(crate) struct ItemJob {
    /// The item body. Boxed `Fn` rather than a generic: the job lives
    /// in the process-wide deques next to chunk tasks.
    run: Box<dyn Fn(usize) + Send + Sync>,
    /// Executor slots, shared across all items of the job.
    budget: ExecutorBudget,
    /// Raised when any item's body panicked on a pool worker.
    panicked: AtomicBool,
}

/// One schedulable item of an [`ItemJob`].
pub(crate) struct ItemTask {
    job: Arc<ItemJob>,
    latch: Arc<Latch>,
    index: usize,
}

/// What a pool deque holds: either a wavefront chunk or an indexed
/// item. Both are budget-gated the same way; [`Work::budget`] is what
/// [`Pool::grab`] consults before taking either kind.
pub(crate) enum Work {
    Chunk(Task),
    Item(ItemTask),
}

impl Work {
    fn budget(&self) -> &ExecutorBudget {
        match self {
            Work::Chunk(task) => &task.wave.budget,
            Work::Item(task) => &task.job.budget,
        }
    }
}

/// Counts outstanding chunks of one wavefront; the driver blocks on it.
pub(crate) struct Latch {
    remaining: Mutex<usize>,
    done: Condvar,
}

impl Latch {
    pub(crate) fn new(count: usize) -> Latch {
        Latch {
            remaining: Mutex::new(count),
            done: Condvar::new(),
        }
    }

    // Arrival and wait proceed through poison (`lock_unpoisoned`): the
    // latch is the only thing standing between the driver and a hang,
    // so a chunk panicking while a sibling holds the lock must not
    // turn the guard's arrival into a double panic (process abort).
    fn arrive(&self) {
        let mut left = lock_unpoisoned(&self.remaining);
        *left -= 1;
        if *left == 0 {
            self.done.notify_all();
        }
    }

    /// Blocks until every chunk has arrived.
    pub(crate) fn wait(&self) {
        let mut left = lock_unpoisoned(&self.remaining);
        while *left > 0 {
            left = self
                .done
                .wait(left)
                .unwrap_or_else(|poisoned| poisoned.into_inner());
        }
    }
}

/// Arrives at the latch on drop — even if the chunk body unwinds, the
/// driver is released. Pool workers record the panic into the wave
/// before this runs ([`run_task_caught`]), so the released driver
/// finds an error, not a missing result slot.
struct ArriveGuard<'a>(&'a Latch);

impl Drop for ArriveGuard<'_> {
    fn drop(&mut self) {
        self.0.arrive();
    }
}

/// The process-wide chunk pool: one deque per worker plus a submission
/// epoch under the wake-up mutex. Tasks become visible deque-by-deque
/// (each deque has its own lock), so no counter tries to describe how
/// many are waiting — a worker instead snapshots the epoch, scans the
/// deques, and sleeps only if the epoch is still unchanged under the
/// lock. A submit bumps the epoch after its pushes land and notifies,
/// so a wake-up can never be lost; a stale scan merely loops once more.
pub(crate) struct Pool {
    deques: Vec<Mutex<VecDeque<Work>>>,
    epoch: Mutex<u64>,
    available: Condvar,
    /// Rotates the distribution origin so consecutive wavefronts do not
    /// all pile onto deque 0.
    rr: AtomicUsize,
}

static POOL: OnceLock<Pool> = OnceLock::new();
static SPAWN: Once = Once::new();

impl Pool {
    /// The lazily-initialized process-wide pool. First call spawns the
    /// worker threads; they park on the condvar when idle and live for
    /// the process (detached — the process exits through them freely).
    pub(crate) fn global() -> &'static Pool {
        let pool = POOL.get_or_init(|| {
            let size = pool_size();
            Pool {
                deques: (0..size).map(|_| Mutex::new(VecDeque::new())).collect(),
                epoch: Mutex::new(0),
                available: Condvar::new(),
                rr: AtomicUsize::new(0),
            }
        });
        SPAWN.call_once(|| {
            for i in 0..pool.deques.len() {
                std::thread::Builder::new()
                    .name(format!("chortle-sched-{i}"))
                    .spawn(move || pool.worker_loop(i))
                    .expect("spawn scheduler worker");
            }
        });
        pool
    }

    /// Worker count (== deque count).
    pub(crate) fn size(&self) -> usize {
        self.deques.len()
    }

    /// Distributes a wavefront's chunks round-robin over `width`
    /// consecutive deques, then bumps the submission epoch and wakes
    /// every parked worker. Pushed tasks are visible (and takeable)
    /// before the bump — that is harmless, because nothing counts them:
    /// the epoch only tells sleepy workers "the deques changed since
    /// your last empty scan, look again".
    pub(crate) fn submit(
        &self,
        wave: &Arc<WaveCtx>,
        latch: &Arc<Latch>,
        chunks: &[(usize, usize)],
        width: usize,
    ) {
        let n = self.deques.len();
        let width = width.clamp(1, n);
        let base = self.rr.fetch_add(1, Ordering::Relaxed);
        for (i, &range) in chunks.iter().enumerate() {
            let task = Task {
                wave: Arc::clone(wave),
                latch: Arc::clone(latch),
                range,
            };
            let deque = &self.deques[(base + i % width) % n];
            deque
                .lock()
                .expect("scheduler deque poisoned")
                .push_back(Work::Chunk(task));
        }
        *lock_unpoisoned(&self.epoch) += 1;
        self.available.notify_all();
    }

    /// Distributes an indexed job's items round-robin over `width`
    /// consecutive deques, exactly like [`Pool::submit`] does for
    /// chunks.
    fn submit_items(&self, job: &Arc<ItemJob>, latch: &Arc<Latch>, count: usize, width: usize) {
        let n = self.deques.len();
        let width = width.clamp(1, n);
        let base = self.rr.fetch_add(1, Ordering::Relaxed);
        for index in 0..count {
            let task = ItemTask {
                job: Arc::clone(job),
                latch: Arc::clone(latch),
                index,
            };
            let deque = &self.deques[(base + index % width) % n];
            deque
                .lock()
                .expect("scheduler deque poisoned")
                .push_back(Work::Item(task));
        }
        *lock_unpoisoned(&self.epoch) += 1;
        self.available.notify_all();
    }

    /// Takes the next task worker `me` may execute: own deque from the
    /// head, then every other deque from the tail (a steal). A task is
    /// taken only if the worker holds — or can claim — one of its
    /// wavefront's executor slots, so `--jobs` binds stealing too;
    /// over-budget tasks are skipped in place for a joined executor
    /// (the submitter included) to drain.
    fn grab(&self, me: usize) -> Option<Work> {
        let executor = (me + 1) as u32; // 0 is the submitting thread
        let n = self.deques.len();
        for i in 0..n {
            let idx = (me + i) % n;
            let work = {
                let mut deque = self.deques[idx].lock().expect("scheduler deque poisoned");
                let pos = if idx == me {
                    deque.iter().position(|w| w.budget().try_join(executor))
                } else {
                    deque.iter().rposition(|w| w.budget().try_join(executor))
                };
                pos.and_then(|pos| deque.remove(pos))
            };
            if let Some(work) = work {
                if idx != me {
                    if let Work::Chunk(task) = &work {
                        task.wave.steals.fetch_add(1, Ordering::Relaxed);
                    }
                }
                return Some(work);
            }
        }
        None
    }

    /// Pulls back a not-yet-started chunk of the caller's own wavefront
    /// (newest first, like a thief) so the submitting thread can help
    /// drain it. Not counted as a steal (the work never left home) and
    /// not budget-gated: the submitter holds its wave's slot 0 from
    /// construction.
    pub(crate) fn grab_wave(&self, wave: &Arc<WaveCtx>) -> Option<Task> {
        for deque in &self.deques {
            let task = {
                let mut deque = deque.lock().expect("scheduler deque poisoned");
                deque
                    .iter()
                    .rposition(|w| matches!(w, Work::Chunk(t) if Arc::ptr_eq(&t.wave, wave)))
                    .and_then(|pos| deque.remove(pos))
            };
            if let Some(Work::Chunk(task)) = task {
                return Some(task);
            }
        }
        None
    }

    /// Pulls back a not-yet-started item of the caller's own indexed
    /// job — the item analogue of [`Pool::grab_wave`], used by the
    /// [`run_indexed`] submitter to help drain. Not budget-gated: the
    /// submitter holds slot 0 from construction.
    fn grab_item(&self, job: &Arc<ItemJob>) -> Option<ItemTask> {
        for deque in &self.deques {
            let task = {
                let mut deque = deque.lock().expect("scheduler deque poisoned");
                deque
                    .iter()
                    .rposition(|w| matches!(w, Work::Item(t) if Arc::ptr_eq(&t.job, job)))
                    .and_then(|pos| deque.remove(pos))
            };
            if let Some(Work::Item(task)) = task {
                return Some(task);
            }
        }
        None
    }

    fn worker_loop(&'static self, me: usize) {
        let mut scratch = DpScratch::new();
        let worker = (me + 1) as u32; // 0 is the submitting thread
        loop {
            // Snapshot before scanning: a submit that lands after this
            // read bumps the epoch, so the sleep check below fails and
            // the scan reruns.
            let seen = *lock_unpoisoned(&self.epoch);
            if let Some(work) = self.grab(me) {
                let ok = match work {
                    Work::Chunk(task) => run_task_caught(task, &mut scratch, worker),
                    Work::Item(task) => run_item_caught(task),
                };
                if !ok {
                    // The chunk panicked: its scratch arenas may be
                    // mid-rewrite, so the next chunk starts from fresh
                    // ones. The worker itself lives on.
                    scratch = DpScratch::new();
                }
                continue;
            }
            let epoch = lock_unpoisoned(&self.epoch);
            if *epoch == seen {
                // Unchanged since the empty scan — sleep. Tasks may
                // still be queued (their waves' budgets were full);
                // those drain through their joined executors, and
                // anything new arrives with its own bump + notify, so
                // no wake-up is lost.
                drop(
                    self.available
                        .wait(epoch)
                        .unwrap_or_else(|poisoned| poisoned.into_inner()),
                );
            }
        }
    }
}

/// Runs one task and releases the wavefront bookkeeping in the order
/// the driver's memory reclamation relies on: results published by
/// [`run_chunk`], context `Arc` dropped, latch arrived.
pub(crate) fn run_task(task: Task, scratch: &mut DpScratch, worker: u32) {
    let Task { wave, latch, range } = task;
    let guard = ArriveGuard(&latch);
    run_chunk(&wave, range, scratch, worker);
    drop(wave); // before the latch: the waiting driver owns the last refs
    drop(guard);
}

/// Pool-worker variant of [`run_task`]: the chunk runs under
/// `catch_unwind`, and a panic is recorded as
/// [`MapError::WorkerPanicked`] *before* the latch arrival — the order
/// matters, because the driver checks the error slot right after its
/// latch wait, and an arrival without a recorded error would send it
/// on to a result slot the dead chunk never filled. Returns `false` on
/// a panic so the caller discards its scratch arenas (`AssertUnwindSafe`
/// is sound only because they are rebuilt, never reused). The driver's
/// own helping path keeps plain [`run_task`]: its panics propagate to
/// the thread that would otherwise wait.
fn run_task_caught(task: Task, scratch: &mut DpScratch, worker: u32) -> bool {
    let Task { wave, latch, range } = task;
    let guard = ArriveGuard(&latch);
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        run_chunk(&wave, range, scratch, worker)
    }));
    if outcome.is_err() {
        log_worker_panic("chunk", worker);
        wave.fail(MapError::WorkerPanicked);
    }
    drop(wave); // before the latch: the waiting driver owns the last refs
    drop(guard);
    outcome.is_ok()
}

/// Emits the structured-log record of a recovered worker panic (the
/// process-level panic hook already saw the unwind itself; this is the
/// recovery side — the pool survived and the request will be answered
/// `WorkerPanicked`). A no-op while logging is off.
fn log_worker_panic(kind: &str, index: u32) {
    use chortle_telemetry::log::{self, FieldValue, Level};
    if log::enabled(Level::Error) {
        log::event(
            Level::Error,
            "sched.pool",
            "worker recovered from a panicking task",
            &[
                ("kind", FieldValue::Str(kind)),
                ("index", FieldValue::U64(u64::from(index))),
            ],
        );
    }
}

/// Runs one indexed item on the submitting thread (the help-drain
/// path). Panics propagate to the submitter, like [`run_task`].
fn run_item(task: ItemTask) {
    let ItemTask { job, latch, index } = task;
    let guard = ArriveGuard(&latch);
    (job.run)(index);
    drop(job); // before the latch: the waiting driver owns the last refs
    drop(guard);
}

/// Pool-worker variant of [`run_item`]: the body runs under
/// `catch_unwind` and a panic raises the job's flag *before* the latch
/// arrival, so the released driver reports
/// [`MapError::WorkerPanicked`] instead of finding an empty result
/// slot. Returns `false` on a panic so the worker discards its scratch
/// arenas (an item may have been mid-mapping when it unwound).
fn run_item_caught(task: ItemTask) -> bool {
    let ItemTask { job, latch, index } = task;
    let guard = ArriveGuard(&latch);
    let outcome = catch_unwind(AssertUnwindSafe(|| (job.run)(index)));
    if outcome.is_err() {
        log_worker_panic("item", index as u32);
        job.panicked.store(true, Ordering::Release);
    }
    drop(job); // before the latch: the waiting driver owns the last refs
    drop(guard);
    outcome.is_ok()
}

/// Runs `f(0..count)` on the process-wide pool with at most `jobs`
/// distinct executors (the calling thread included) and returns the
/// results in index order. This is the coarse work axis the design
/// pipeline maps clouds on: each item may itself call
/// [`crate::map_network`] — nested wavefronts are drained by their own
/// submitter, so items never deadlock the pool.
///
/// `jobs <= 1` or `count <= 1` runs inline with no pool traffic. The
/// closure must be `'static` because items live in the process-wide
/// deques; share state with the caller through `Arc`s captured by `f`.
///
/// # Errors
///
/// Returns [`MapError::WorkerPanicked`] if any item's body panicked on
/// a pool worker. A panic on the calling thread's own help-drain path
/// propagates instead, like [`run_task`].
pub(crate) fn run_indexed<T, F>(count: usize, jobs: usize, f: F) -> Result<Vec<T>, MapError>
where
    T: Send + 'static,
    F: Fn(usize) -> T + Send + Sync + 'static,
{
    if count == 0 {
        return Ok(Vec::new());
    }
    if jobs <= 1 || count == 1 {
        return Ok((0..count).map(f).collect());
    }
    let results: Arc<Mutex<Vec<Option<T>>>> =
        Arc::new(Mutex::new((0..count).map(|_| None).collect()));
    let slots = Arc::clone(&results);
    let job = Arc::new(ItemJob {
        run: Box::new(move |index| {
            let value = f(index);
            lock_unpoisoned(&slots)[index] = Some(value);
        }),
        budget: ExecutorBudget::new(jobs),
        panicked: AtomicBool::new(false),
    });
    let latch = Arc::new(Latch::new(count));
    let pool = Pool::global();
    pool.submit_items(&job, &latch, count, jobs);
    // Help drain our own items; workers steal the rest concurrently.
    while let Some(task) = pool.grab_item(&job) {
        run_item(task);
    }
    latch.wait();
    if job.panicked.load(Ordering::Acquire) {
        return Err(MapError::WorkerPanicked);
    }
    let mut slots = lock_unpoisoned(&results);
    let mut out = Vec::with_capacity(count);
    for slot in slots.iter_mut() {
        match slot.take() {
            Some(value) => out.push(value),
            None => return Err(MapError::WorkerPanicked),
        }
    }
    Ok(out)
}

/// Maps one chunk: the trees at `wave.indices[start..end]`, in order,
/// publishing solutions into the wavefront's slot-per-tree buffer.
/// Per tree: cache lookup by canonical key, subset-DP solve on miss,
/// first-writer-wins insert — so the buffered results do not depend on
/// which executor ran the chunk, or when.
pub(crate) fn run_chunk(
    wave: &WaveCtx,
    (start, end): (usize, usize),
    scratch: &mut DpScratch,
    worker: u32,
) {
    let telemetry = &wave.telemetry;
    let enabled = telemetry.is_enabled();
    scratch.counting = enabled;
    let busy_start = enabled.then(Instant::now);
    let mut buf = telemetry.trace_buffer(worker);
    let mut hist = Histogram::new();
    let shared = wave.cache.as_deref();
    let arrivals: &[u32] = &wave.arrivals;
    let leaf_depth = |id: NodeId| arrivals[id.index()];
    let fn_cache = wave.fn_cache.as_deref();
    // One buffered result per tree: slot index, the (shared) solution,
    // and the structural/functional keys it was stored under.
    type ChunkResult = (usize, Arc<ShapeSolution>, Option<CacheKey>, Option<FnKey>);
    let mut out: Vec<ChunkResult> = Vec::with_capacity(end - start);
    if buf.is_enabled() {
        buf.begin(
            TraceScope::Sched,
            wave.wave_index as u64,
            stats::TRACE_WORKER,
            0,
        );
    }
    for pos in start..end {
        // Cancellation and sibling failures land between tree
        // boundaries: no tree span is open when this chunk stops.
        if wave.cancel.is_cancelled() {
            wave.fail(MapError::Cancelled);
        }
        if wave.failed.load(Ordering::Acquire) {
            break;
        }
        let ti = wave.indices[pos];
        let tree = &wave.trees[ti];
        let t0 = enabled.then(Instant::now);
        if buf.is_enabled() {
            buf.begin(
                TraceScope::Tree,
                ti as u64,
                stats::TRACE_TREE,
                tree.nodes.len() as u64,
            );
        }
        let key = shared.map(|_| CacheKey::of(tree, wave.shapes[ti], &leaf_depth));
        // Functional first, then structural, then solve; a structural
        // hit back-fills the functional tier; a solve inserts into
        // both. `fn_metas` is indexed by the *global* tree index, like
        // `shapes`.
        let fn_key = match (wave.fn_metas.get(ti).and_then(Option::as_ref), &key) {
            (Some(meta), Some(k)) => Some(meta.key(k)),
            _ => None,
        };
        let cached_fn = match (fn_key, fn_cache) {
            (Some(fk), Some(f)) => f.get(&fk),
            _ => None,
        };
        let via_fn = cached_fn.is_some();
        let cached = cached_fn.or_else(|| shared.zip(key).and_then(|(s, k)| s.get(&k)));
        let sol = match cached {
            Some(sol) => {
                // A structural hit back-fills the functional tier (a
                // functional hit implies the key is already present).
                if !via_fn {
                    if let (Some(fk), Some(f)) = (fn_key, fn_cache) {
                        f.insert(fk, sol.clone());
                    }
                }
                sol
            }
            None => {
                let sol =
                    match map_tree_solution(tree, wave.k, wave.objective, &leaf_depth, scratch) {
                        Ok(sol) => Arc::new(sol),
                        Err(e) => {
                            // A mid-tree error leaves the span open; close
                            // it explicitly so every begin stays matched.
                            buf.cancelled(TraceScope::Tree, ti as u64, stats::TRACE_TREE, 0);
                            wave.fail(e);
                            break;
                        }
                    };
                let sol = match shared.zip(key) {
                    // First writer wins; adopt whatever landed so
                    // racing duplicates share one allocation.
                    Some((s, k)) => s.insert(k, sol),
                    None => sol,
                };
                if let (Some(fk), Some(f)) = (fn_key, fn_cache) {
                    f.insert(fk, sol.clone());
                }
                sol
            }
        };
        if buf.is_enabled() {
            buf.end(
                TraceScope::Tree,
                ti as u64,
                stats::TRACE_TREE,
                u64::from(sol.dp.tree_cost(tree)),
            );
        }
        if let Some(t0) = t0 {
            hist.record_duration(t0.elapsed());
        }
        out.push((pos, sol, key, fn_key));
    }
    let claimed = out.len() as u64;
    if buf.is_enabled() {
        buf.end(
            TraceScope::Sched,
            wave.wave_index as u64,
            stats::TRACE_WORKER,
            claimed,
        );
    }
    // Flush even on error — a stopped chunk's events are all matched.
    telemetry.trace_flush(&mut buf);
    if !hist.is_empty() {
        telemetry.merge_histogram(stats::HIST_TREE_NS, &hist);
    }
    {
        let mut results = wave.results.lock().expect("wave results poisoned");
        for (pos, sol, key, fn_key) in out {
            results[pos] = Some((sol, key, fn_key));
        }
    }
    if let Some(t0) = busy_start {
        let busy_s = t0.elapsed().as_secs_f64();
        let mut occ = wave.occupancy.lock().expect("wave occupancy poisoned");
        match occ.iter_mut().find(|o| o.worker == worker) {
            Some(o) => {
                o.claimed += claimed;
                o.busy_s += busy_s;
            }
            None => occ.push(Occupancy {
                worker,
                claimed,
                busy_s,
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tree::Forest;
    use chortle_netlist::{Network, NodeOp, Signal};

    fn one_tree(fanins: usize) -> Tree {
        let mut net = Network::new();
        let inputs: Vec<Signal> = (0..fanins)
            .map(|i| Signal::new(net.add_input(format!("i{i}"))))
            .collect();
        let g = Signal::new(net.add_gate(NodeOp::And, inputs));
        net.add_output("z", g);
        Forest::of(&net).trees.remove(0)
    }

    #[test]
    fn work_estimate_grows_with_fanin_and_k() {
        let narrow = estimate_tree_work(&one_tree(2), 4);
        let wide = estimate_tree_work(&one_tree(8), 4);
        assert!(wide > narrow, "{wide} vs {narrow}");
        assert!(estimate_tree_work(&one_tree(8), 6) > wide);
        // Saturates rather than overflows on absurd fanin.
        let _ = estimate_tree_work(&one_tree(40), 8);
    }

    #[test]
    fn fixed_chunks_partition_the_wave() {
        let wave: Vec<usize> = (0..10).collect();
        let est = vec![1u64; 10];
        for size in [1, 3, 10, 99] {
            let chunks = build_chunks(&wave, &est, ChunkPolicy::Fixed(size));
            assert_eq!(chunks.first().map(|c| c.0), Some(0));
            assert_eq!(chunks.last().map(|c| c.1), Some(10));
            for pair in chunks.windows(2) {
                assert_eq!(pair[0].1, pair[1].0, "contiguous");
            }
            for &(s, e) in &chunks {
                assert!(e - s <= size);
            }
        }
    }

    #[test]
    fn auto_chunks_accumulate_to_the_work_target() {
        let wave: Vec<usize> = (0..100).collect();
        // Each tree well under the target: chunks group many trees.
        let est = vec![AUTO_CHUNK_WORK / 10; 100];
        let chunks = build_chunks(&wave, &est, ChunkPolicy::Auto);
        assert!(chunks.len() <= 10, "{}", chunks.len());
        assert_eq!(chunks.last().unwrap().1, 100);
        // Each tree over the target: one chunk per tree.
        let est = vec![AUTO_CHUNK_WORK + 1; 100];
        let chunks = build_chunks(&wave, &est, ChunkPolicy::Auto);
        assert_eq!(chunks.len(), 100);
    }

    #[test]
    fn executor_budget_caps_distinct_executors() {
        let budget = ExecutorBudget::new(3); // submitter + two more
        assert!(budget.try_join(0), "the submitter is pre-joined");
        assert!(budget.try_join(5));
        assert!(budget.try_join(2));
        assert!(!budget.try_join(7), "fourth executor must be refused");
        assert!(budget.try_join(5), "joins are sticky");
        assert!(budget.try_join(0));
        assert!(!budget.try_join(16), "highest worker id also refused");
    }

    #[test]
    fn panicking_chunk_fails_the_wave_and_releases_the_latch() {
        let net = {
            let mut net = Network::new();
            let a = Signal::new(net.add_input("a"));
            let b = Signal::new(net.add_input("b"));
            let g = Signal::new(net.add_gate(NodeOp::And, vec![a, b]));
            net.add_output("z", g);
            net
        };
        let arrivals = vec![0u32; net.len()];
        let trees = Forest::of(&net).trees;
        let wave = Arc::new(WaveCtx {
            trees: Arc::new(trees),
            shapes: Arc::new(Vec::new()),
            arrivals: Arc::new(arrivals),
            indices: vec![0],
            wave_index: 0,
            k: 4,
            objective: Objective::Area,
            cache: None,
            fn_metas: Arc::new(Vec::new()),
            fn_cache: None,
            cancel: crate::cancel::CancelToken::armed(),
            budget: ExecutorBudget::new(2),
            telemetry: chortle_telemetry::Telemetry::disabled(),
            results: Mutex::new(vec![None]),
            error: Mutex::new(None),
            failed: AtomicBool::new(false),
            steals: AtomicU64::new(0),
            occupancy: Mutex::new(Vec::new()),
        });
        let latch = Arc::new(Latch::new(1));
        // A range past the wavefront's end makes `run_chunk` index out
        // of bounds — standing in for any internal panic. Silence the
        // expected panic message for the duration.
        let task = Task {
            wave: Arc::clone(&wave),
            latch: Arc::clone(&latch),
            range: (3, 4),
        };
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let ok = run_task_caught(task, &mut DpScratch::new(), 1);
        std::panic::set_hook(prev);
        assert!(!ok, "the chunk must report the panic");
        latch.wait(); // released despite the panic — must not hang
        let err = lock_unpoisoned(&wave.error).take();
        assert_eq!(err, Some(MapError::WorkerPanicked));
        assert!(wave.failed.load(Ordering::Acquire));
    }

    #[test]
    fn run_indexed_returns_results_in_index_order() {
        for jobs in [1, 2, 8] {
            let out = run_indexed(17, jobs, |i| i * i).unwrap();
            assert_eq!(
                out,
                (0..17).map(|i| i * i).collect::<Vec<_>>(),
                "jobs={jobs}"
            );
        }
        assert!(run_indexed(0, 4, |i| i).unwrap().is_empty());
    }

    #[test]
    fn run_indexed_items_nest_over_chunk_wavefronts() {
        // Each item maps a network with inner parallelism: nested
        // wavefronts must drain through their own submitters even when
        // every pool worker is busy with an item.
        let out = run_indexed(6, 4, |i| {
            let mut net = Network::new();
            let sigs: Vec<Signal> = (0..6)
                .map(|j| Signal::new(net.add_input(format!("i{j}"))))
                .collect();
            let g = Signal::new(net.add_gate(NodeOp::And, sigs));
            net.add_output("z", g);
            let opts = crate::MapOptions::builder(4).jobs(2).build().unwrap();
            let mapped = crate::map_network(&net, &opts).unwrap();
            (i, mapped.circuit.luts().len())
        })
        .unwrap();
        for (i, (idx, luts)) in out.iter().enumerate() {
            assert_eq!(*idx, i);
            assert!(*luts >= 1);
        }
    }

    #[test]
    fn run_indexed_reports_worker_panics() {
        // With jobs=2 some items land on pool workers; whichever side
        // runs the poisoned index, the call must return an error (a
        // submitter-side panic would propagate, which the harness
        // treats as failure too — so gate on the Err path only after
        // catching).
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            run_indexed(8, 2, |i| {
                if i == 5 {
                    panic!("poisoned item");
                }
                i
            })
        }));
        std::panic::set_hook(prev);
        // An Err outcome means the submitter drained index 5 itself and
        // the panic propagated straight through catch_unwind — also fine.
        if let Ok(result) = outcome {
            assert_eq!(result.unwrap_err(), MapError::WorkerPanicked);
        }
    }

    #[test]
    fn latch_releases_after_all_arrivals() {
        let latch = Arc::new(Latch::new(3));
        let threads: Vec<_> = (0..3)
            .map(|_| {
                let latch = Arc::clone(&latch);
                std::thread::spawn(move || {
                    let guard = ArriveGuard(&latch);
                    drop(guard);
                })
            })
            .collect();
        latch.wait(); // must not hang
        for t in threads {
            t.join().unwrap();
        }
    }
}
