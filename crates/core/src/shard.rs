//! Deterministic epoch-sharded machine execution on a persistent
//! worker pool.
//!
//! PR 1 parallelized experiments *across* machines; this module
//! parallelizes the reference walk *within* one machine, with results
//! that are **bit-identical** to the serial walk. The design follows the
//! structure of the problem rather than fighting it:
//!
//! 1. **Traces.** A run is replayed from a [`TraceOp`] stream (recorded
//!    with [`Machine::start_tracing`] or synthesized directly). The
//!    trace fixes the global reference order; `seq` — an op's position
//!    in the trace — is the canonical serialization every execution mode
//!    must reproduce.
//! 2. **Shards.** The machine's nodes are block-partitioned into
//!    contiguous shards; a CPU belongs to its node's shard. R-NUMA is
//!    per-node-reactive, so all per-node protocol state (L1s, bus, RAD,
//!    page table, caches, directory, refetch counters) splits cleanly
//!    along node boundaries.
//! 3. **Epochs (contained windows).** The executor scans the trace
//!    forward, classifying each op against the monotone per-page *shard
//!    footprint* (which shards have ever referenced the page, and
//!    which shards have ever stored to it) and the page's home. An
//!    access is **contained** when its page's home lies in the
//!    issuer's shard and either its footprint is exactly the issuer's
//!    shard, or it is a load of a page every writer of which is the
//!    issuer's own shard
//!    (the ownership relaxation — such a page has no dirty copy, and
//!    no owner, outside the issuing shard, and loads never touch
//!    foreign sharers): the entire walk — coherence actions included —
//!    then provably touches only shard-local state, so ops of
//!    different shards commute and each shard may execute its
//!    subsequence, in order, on its own thread. The maximal contained
//!    prefix forms one epoch; the first non-contained op ends it and
//!    executes serially between epochs.
//! 4. **Ordered cross-shard effects.** The one way a contained walk can
//!    reach another shard is the posted write-back of an eviction victim
//!    homed elsewhere. Its network cost is sender-side by construction
//!    ([`NetWindow::post`](rnuma_net::net::NetWindow::post)); the
//!    remote directory transition is buffered as an [`EffectMsg`]
//!    and applied at the
//!    epoch barrier in canonical `(epoch, home, seq)` order. No
//!    contained op can observe that directory state before the barrier
//!    (any op that could is, by the footprint rule, not contained), so
//!    deferral is exact.
//! 5. **One engine.** Windows run strictly in sequence: scan the
//!    maximal contained window, execute it (inline below the fan-out
//!    threshold, on the pool above it), close it at the epoch barrier,
//!    execute the blocking op serially, repeat. `docs/DETERMINISM.md`
//!    records why the executor has no second engine.
//!
//! # The worker pool
//!
//! Parallel windows execute on a [`ShardPool`]: a set of long-lived,
//! parked worker threads shared by every [`ShardedMachine`] in the
//! process (or owned explicitly, for tests and embedding). Instead of
//! spawning scoped threads per window — the previous design, whose
//! spawn cost dominated short windows — the coordinator *moves* each
//! shard's state out of the machine as an owned chunk
//! (`Machine::detach_shards`), ships chunk + op bucket through a
//! channel to a parked worker, and moves everything back at the epoch
//! barrier. Ownership handoff means no borrowed state ever crosses a
//! thread boundary (the pool is safe Rust all the way down), and a
//! chunk move is a few hundred bytes of `memcpy` — noise next to the
//! window's simulation work. When the pool has no workers (explicitly,
//! or because the host has a single core), windows run inline on the
//! coordinator, which measures within noise of the plain serial walk.
//!
//! No batch driver builds a sharded machine: the executor runs only
//! where code constructs a [`ShardedMachine`] explicitly — the
//! differential and fault suites, the benches and the benchmark probe.
//!
//! The full argument for why this reproduces the serial execution
//! bit-for-bit is spelled out in `docs/DETERMINISM.md`; the workspace
//! determinism tests enforce it across the paper's whole figure grid.
//! How trace capture and sharded replay combine into parameter sweeps
//! is described in `docs/SWEEP.md`.

use crate::config::{ConfigError, MachineConfig};
use crate::machine::{Machine, ShardChunk};
use crate::metrics::Metrics;
use rnuma_mem::addr::{CpuId, NodeId, VPage, Va};
use rnuma_mem::fxmap::FxMap;
use rnuma_proto::effect::EffectMsg;
use rnuma_sim::fault::{FaultKind, FaultLog, FaultPlan};
use rnuma_sim::{Cycles, EpochClock};
use std::ops::Range;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Mutex, OnceLock};
use std::time::Duration;

/// One replayable machine-level operation.
///
/// A trace of these is a complete record of a run: replaying it on a
/// fresh machine of the same configuration reproduces the run exactly,
/// serially or sharded.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TraceOp {
    /// One memory reference.
    Access {
        /// The issuing CPU.
        cpu: CpuId,
        /// The virtual address referenced.
        va: Va,
        /// `true` for a store.
        write: bool,
    },
    /// Compute time on one CPU.
    Think {
        /// The computing CPU.
        cpu: CpuId,
        /// The duration charged.
        dur: Cycles,
    },
    /// A global barrier across all CPUs.
    Barrier,
    /// Arms first-touch page placement.
    ArmFirstTouch,
}

impl TraceOp {
    /// The issuing CPU of a per-CPU op (`Access`/`Think`), or `None`
    /// for a global op (`Barrier`/`ArmFirstTouch`). This is the key the
    /// batched replay loop groups contiguous runs by.
    #[must_use]
    pub fn issuer(&self) -> Option<CpuId> {
        match *self {
            TraceOp::Access { cpu, .. } | TraceOp::Think { cpu, .. } => Some(cpu),
            TraceOp::Barrier | TraceOp::ArmFirstTouch => None,
        }
    }
}

/// One entry of a segment's *run table*: the batched replay loop's unit
/// of work. A run table tiles its segment exactly, in order; each entry
/// is either a maximal run of consecutive per-CPU ops all issued by the
/// same CPU, or a single global op.
///
/// `TraceStore` computes run tables once per interned segment at
/// capture time ([`split_cpu_runs`]), so every replay of the segment —
/// on any configuration — consumes the pre-split form directly.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CpuRun {
    /// `len` consecutive `Access`/`Think` ops, all issued by `cpu`.
    Cpu {
        /// The run's issuing CPU.
        cpu: CpuId,
        /// Number of consecutive ops in the run (always at least 1).
        /// A maximal same-CPU run longer than [`MAX_RUN_LEN`] ops is
        /// emitted as several consecutive entries, so gigabyte-class
        /// traces never overflow the field.
        len: u32,
    },
    /// One global op (`Barrier` or `ArmFirstTouch`).
    Global,
}

/// Largest op count one [`CpuRun::Cpu`] (or window-bucket `BucketRun`)
/// entry can carry. Longer runs split into several consecutive entries — the
/// batched kernels execute each entry separately, and the metric
/// page-touch coalescing is idempotent, so the split is invisible to
/// results.
pub const MAX_RUN_LEN: usize = u32::MAX as usize;

/// Appends one same-CPU run of `len` ops to `runs`, splitting it into
/// [`MAX_RUN_LEN`]-sized entries instead of overflowing (the
/// `--scale paper` regime holds multi-gigabyte traces; a panic here
/// would cap trace length by accident).
fn push_cpu_run(runs: &mut Vec<CpuRun>, cpu: CpuId, mut len: usize) {
    while len > 0 {
        let chunk = len.min(MAX_RUN_LEN);
        runs.push(CpuRun::Cpu {
            cpu,
            len: chunk as u32,
        });
        len -= chunk;
    }
}

/// Walks `ops` as its maximal runs, calling `f` once per run with the
/// run's issuer (`None` for a single global op) and its index range.
/// The one place the grouping rule lives: [`split_cpu_runs`] records
/// the runs as a table, the batched replay loop
/// (`Machine::apply_batch`) streams them directly.
pub(crate) fn scan_runs(ops: &[TraceOp], mut f: impl FnMut(Option<CpuId>, Range<usize>)) {
    let mut i = 0usize;
    while i < ops.len() {
        match ops[i].issuer() {
            None => {
                f(None, i..i + 1);
                i += 1;
            }
            Some(cpu) => {
                let start = i;
                i += 1;
                while i < ops.len() && ops[i].issuer() == Some(cpu) {
                    i += 1;
                }
                f(Some(cpu), start..i);
            }
        }
    }
}

/// Splits `ops` into its run table: maximal contiguous same-CPU runs,
/// with each global op as its own entry. The returned entries tile
/// `ops` exactly, in order (an empty slice yields an empty table).
#[must_use]
pub fn split_cpu_runs(ops: &[TraceOp]) -> Vec<CpuRun> {
    let mut runs = Vec::new();
    scan_runs(ops, |issuer, range| match issuer {
        Some(cpu) => push_cpu_run(&mut runs, cpu, range.len()),
        None => runs.push(CpuRun::Global),
    });
    runs
}

/// One entry of a pooled window bucket's run table: `len` consecutive
/// bucket ops, all issued by `cpu`, occupying the contiguous global
/// trace positions `seq_base .. seq_base + len`.
///
/// Built incrementally while `exec_window` buckets a window per shard.
/// A run breaks on a CPU change *or* a `seq` discontinuity (ops of
/// other shards interleaved in the global order), so the batched
/// window kernel (`Lanes::run_batch`) can advance `seq` per op from
/// `seq_base` — reproducing exactly the per-op `seq` dispatch the
/// retired `run_bucket` loop paid for every op.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct BucketRun {
    /// Global trace position of the run's first op (cross-shard effect
    /// ordering).
    pub(crate) seq_base: u64,
    /// The run's issuing CPU.
    pub(crate) cpu: CpuId,
    /// Number of consecutive ops in the run (at least 1, at most
    /// [`MAX_RUN_LEN`]).
    pub(crate) len: u32,
}

/// Extends a bucket's run table with the op at global trace position
/// `seq`, growing the last run when contiguous in both CPU and `seq`.
fn extend_bucket_runs(runs: &mut Vec<BucketRun>, seq: u64, cpu: CpuId) {
    if let Some(last) = runs.last_mut() {
        if last.cpu == cpu
            && last.seq_base + u64::from(last.len) == seq
            && (last.len as usize) < MAX_RUN_LEN
        {
            last.len += 1;
            return;
        }
    }
    runs.push(BucketRun {
        seq_base: seq,
        cpu,
        len: 1,
    });
}

/// One shard's slice of a parallel window: its ops in canonical order
/// plus the run table the batched window kernel executes them through.
/// Buckets persist across windows (cleared, not reallocated) and
/// travel to pool workers inside [`Job`]s as plain owned values.
/// `Clone` exists for the pre-dispatch recovery snapshots taken under
/// an armed fault plan or watchdog deadline.
#[derive(Clone, Debug, Default)]
struct Bucket {
    ops: Vec<TraceOp>,
    runs: Vec<BucketRun>,
}

impl Bucket {
    fn clear(&mut self) {
        self.ops.clear();
        self.runs.clear();
    }

    fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// Appends the per-CPU op at global trace position `seq`.
    fn push(&mut self, seq: u64, cpu: CpuId, op: TraceOp) {
        extend_bucket_runs(&mut self.runs, seq, cpu);
        self.ops.push(op);
    }
}

/// Execution statistics of a sharded run (scheduling diagnostics; these
/// are about the *executor*, not the simulated machine).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ShardStats {
    /// Contained windows executed (serial-inline or parallel).
    pub windows: u64,
    /// Windows large enough to fan out across pool workers.
    pub parallel_windows: u64,
    /// Shard buckets shipped to pool workers (the coordinator always
    /// keeps one bucket per parallel window for itself).
    pub pool_jobs: u64,
    /// Run-table entries executed by the batched window kernel across
    /// all parallel-window buckets. `bucket_runs == contained_ops`
    /// means every run degenerated to length 1 (heavily interleaved
    /// CPUs); small values mean long hoisted runs.
    pub bucket_runs: u64,
    /// Ops executed inside contained windows.
    pub contained_ops: u64,
    /// Ops executed serially on the whole machine: between windows
    /// (cross-shard accesses, barriers, first-touch arming) — or the
    /// entire trace when the single-shard/worker-less bypass skips
    /// window formation altogether.
    pub serialized_ops: u64,
    /// Cross-shard directory effects replayed at epoch barriers.
    pub effects_applied: u64,
    /// Window jobs recovered after a worker panic or watchdog timeout:
    /// re-executed inline from the pre-dispatch snapshot, bit-identical
    /// to an undisturbed execution.
    pub recovered_jobs: u64,
    /// Buckets executed inline on the coordinator because submission
    /// failed (closed or poisoned job queue).
    pub inline_fallbacks: u64,
    /// Late replies from already-recovered (timed-out) jobs, discarded
    /// by job id at a later barrier.
    pub stale_replies: u64,
}

/// Footprint record of one page: which shards ever referenced it, which
/// shards ever stored to it, and its (immutable once fixed) home.
#[derive(Clone, Copy, Debug)]
pub(crate) struct PageInfo {
    shard_mask: u32,
    /// Monotone: the set of shards that have ever stored to the page.
    /// While empty, the page provably has no owner in any directory
    /// (ownership requires a store) and no dirty copy anywhere; while
    /// it is a subset of one shard's bit, every owner and every dirty
    /// copy lives inside that shard. Both facts license the ownership
    /// containment relaxation in [`classify`].
    writer_mask: u32,
    home: NodeId,
}

impl PageInfo {
    /// Folds one scanned reference by shard-bit `bit` into the entry:
    /// the shard joins the footprint, and a store joins the writer set.
    fn touch(&mut self, bit: u32, write: bool) {
        self.shard_mask |= bit;
        if write {
            self.writer_mask |= bit;
        }
    }
}

/// The monotone per-page footprint/home directory the window scan
/// maintains.
///
/// During a parallel window every worker holds a shared (`Arc`) view:
/// homes are pre-resolved in trace order by the coordinator before the
/// window starts, so lanes never race on the home table. Between
/// windows the coordinator is the sole owner and updates it in place.
#[derive(Clone, Debug, Default)]
pub(crate) struct Footprints(FxMap<VPage, PageInfo>);

impl Footprints {
    /// The pre-resolved home of `page`, if it was ever referenced.
    pub(crate) fn home_of(&self, page: VPage) -> Option<NodeId> {
        self.0.get(page).map(|info| info.home)
    }
}

/// Upper bound on shards (the footprint mask is a `u32`).
pub const MAX_SHARDS: usize = 32;

/// Contained windows shorter than this run inline on the coordinator —
/// pool handoff only pays off once a window amortizes the barrier cost.
const DEFAULT_PARALLEL_THRESHOLD: usize = 256;

/// How the scanner classified one op.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Class {
    /// Provably shard-contained: may run inside the current window.
    Contained,
    /// Needs the whole machine (cross-shard access or global op): ends
    /// the window and runs serially.
    Blocking,
}

/// A typed worker-pool failure, as observed by the coordinator.
///
/// Channel sends, joins, and window outcomes surface as these instead
/// of opaque `unwrap` panics, so the coordinator can decide between
/// inline fallback, snapshot recovery, and (only when recovery is
/// impossible) a diagnostic panic.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum PoolError {
    /// The pool has no workers: nothing can be submitted, windows run
    /// inline on the coordinator.
    NoWorkers,
    /// The job queue is closed — the pool was poisoned
    /// ([`ShardPool::poison`]) or is tearing down.
    QueueClosed,
    /// A worker panicked executing a window; the captured panic payload
    /// is attached.
    WorkerPanicked(String),
    /// No reply arrived within the watchdog deadline (milliseconds).
    DeadlineElapsed(u64),
}

impl std::fmt::Display for PoolError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PoolError::NoWorkers => write!(f, "shard pool has no workers"),
            PoolError::QueueClosed => write!(f, "shard pool job queue is closed"),
            PoolError::WorkerPanicked(payload) => {
                write!(f, "shard worker panicked executing a window: {payload}")
            }
            PoolError::DeadlineElapsed(ms) => {
                write!(f, "no worker reply within the {ms} ms window deadline")
            }
        }
    }
}

impl std::error::Error for PoolError {}

/// A fault the coordinator asks a worker to exhibit on one job
/// (decided coordinator-side from the [`FaultPlan`], so schedules stay
/// deterministic regardless of worker interleaving).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Inject {
    /// Panic before touching the chunk.
    PanicBefore,
    /// Panic after executing the window (chunk mutated, reply lost).
    PanicAfter,
    /// Execute, then sleep `ms` before replying (a hang past any
    /// watchdog deadline).
    Hang(u64),
}

/// One parallel-window assignment for a pool worker: a shard's owned
/// state chunk, its op bucket (ops + run table), and the shared frozen
/// home table. Everything is owned or `Arc`-shared, so the job crosses
/// threads without borrowing from the coordinator.
struct Job {
    cfg: MachineConfig,
    epoch: u64,
    homes: Arc<Footprints>,
    chunk: ShardChunk,
    bucket: Bucket,
    /// Coordinator-unique id; the barrier matches replies by it and
    /// discards stale replies of already-recovered (timed-out) jobs.
    job_id: u64,
    /// Injected fault for this job, if the coordinator's plan fired.
    inject: Option<Inject>,
    reply: mpsc::Sender<Done>,
}

/// A worker's reply: the chunk and bucket come home at the epoch
/// barrier. `outcome` carries the captured panic payload when the
/// worker panicked mid-window; the coordinator recovers from its
/// pre-dispatch snapshot (armed) or panics with a typed diagnostic.
struct Done {
    job_id: u64,
    outcome: Result<(ShardChunk, Bucket), String>,
}

/// A persistent pool of parked shard workers.
///
/// Workers are spawned once and live until the pool drops; between
/// windows they park on the job queue. One pool serves any number of
/// [`ShardedMachine`]s concurrently — jobs are self-contained, so a
/// whole differential suite can share a single process-wide pool
/// ([`ShardPool::shared`]).
///
/// A pool with zero workers is valid and means *inline execution*: no
/// fan-out is possible, so the executor bypasses the window scan and
/// replays serially (bit-identical, by the determinism contract). That
/// is what [`ShardPool::shared`] produces on a single-core host, where
/// thread handoff and scan cost could only add overhead — the sharded
/// bench lane measures within noise of serial there.
///
/// # Example
///
/// ```
/// use rnuma::shard::{ShardPool, ShardedMachine, TraceOp};
/// use rnuma::config::{MachineConfig, Protocol};
/// use rnuma_mem::addr::{CpuId, Va};
/// use std::sync::Arc;
///
/// // An explicit two-worker pool (tests force the threaded path this
/// // way even on single-core hosts; production code uses
/// // `ShardedMachine::new`, which shares the process-wide pool).
/// let pool = Arc::new(ShardPool::new(2));
/// let config = MachineConfig::paper_base(Protocol::paper_rnuma());
/// let mut sm = ShardedMachine::with_pool(config, 4, pool).unwrap();
/// sm.run_trace(&[TraceOp::Access { cpu: CpuId(0), va: Va(0x1000), write: true }]);
/// assert_eq!(sm.metrics().references(), 1);
/// ```
#[derive(Debug)]
pub struct ShardPool {
    /// `None` inside means the queue is closed: constructed worker-less,
    /// poisoned, or tearing down. Submissions then fail with a typed
    /// [`PoolError`] and the coordinator degrades to inline execution.
    queue: Mutex<Option<mpsc::Sender<Job>>>,
    /// The shared dequeue end, kept so dead workers can be respawned.
    intake: Option<Arc<Mutex<mpsc::Receiver<Job>>>>,
    workers: Mutex<Vec<std::thread::JoinHandle<()>>>,
    /// Monotone worker-name counter (respawned workers get fresh names).
    spawned: AtomicU64,
    jobs_executed: Arc<AtomicU64>,
}

impl ShardPool {
    /// Spawns a pool with `workers` parked worker threads (0 = inline
    /// execution).
    #[must_use]
    pub fn new(workers: usize) -> ShardPool {
        let jobs_executed = Arc::new(AtomicU64::new(0));
        if workers == 0 {
            return ShardPool {
                queue: Mutex::new(None),
                intake: None,
                workers: Mutex::new(Vec::new()),
                spawned: AtomicU64::new(0),
                jobs_executed,
            };
        }
        let (tx, rx) = mpsc::channel::<Job>();
        let pool = ShardPool {
            queue: Mutex::new(Some(tx)),
            intake: Some(Arc::new(Mutex::new(rx))),
            workers: Mutex::new(Vec::new()),
            spawned: AtomicU64::new(0),
            jobs_executed,
        };
        let mut live = 0usize;
        for _ in 0..workers {
            if pool.spawn_worker() {
                live += 1;
            }
        }
        if live == 0 {
            // Every spawn failed: close the queue so submissions get a
            // typed QueueClosed instead of parking jobs nobody will
            // ever run, and coordinators degrade to inline execution.
            pool.poison();
        }
        pool
    }

    /// Spawns one more parked worker on the shared queue, reaping any
    /// workers that already exited (a worker dies after a panicked
    /// job). Returns `false` on an inline (zero-worker) pool, which has
    /// no queue to park on. The coordinator uses this to replace a
    /// worker that died executing a window.
    pub fn respawn_worker(&self) -> bool {
        {
            let mut workers = self.lock_workers();
            let mut i = 0;
            while i < workers.len() {
                if workers[i].is_finished() {
                    let _ = workers.swap_remove(i).join();
                } else {
                    i += 1;
                }
            }
        }
        self.spawn_worker()
    }

    fn spawn_worker(&self) -> bool {
        let Some(intake) = &self.intake else {
            return false;
        };
        let rx = Arc::clone(intake);
        let counter = Arc::clone(&self.jobs_executed);
        let i = self.spawned.fetch_add(1, Ordering::Relaxed);
        let spawned = std::thread::Builder::new()
            .name(format!("rnuma-shard-{i}"))
            .spawn(move || worker_loop(&rx, &counter));
        match spawned {
            Ok(handle) => {
                self.lock_workers().push(handle);
                true
            }
            Err(err) => {
                // Thread exhaustion is an environment fault, not a bug:
                // report failure and let callers degrade (a window that
                // cannot re-fan-out re-executes inline; a pool whose
                // spawns all failed closes its queue in `new`).
                static WARN: std::sync::Once = std::sync::Once::new();
                WARN.call_once(|| {
                    eprintln!("rnuma: cannot spawn shard worker: {err}; degrading");
                });
                false
            }
        }
    }

    fn lock_workers(&self) -> std::sync::MutexGuard<'_, Vec<std::thread::JoinHandle<()>>> {
        self.workers
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// Closes the job queue: every subsequent dispatch
    /// fails with [`PoolError::QueueClosed`] and workers exit once the
    /// queue drains. A chaos hook (the [`FaultKind::Poison`] injection
    /// point) that doubles as an orderly shutdown; coordinators degrade
    /// to inline execution, so runs complete either way.
    pub fn poison(&self) {
        *self
            .queue
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner) = None;
    }

    /// The process-wide pool every [`ShardedMachine::new`] shares: one
    /// worker per available core, zero (inline execution) on a
    /// single-core host.
    #[must_use]
    pub fn shared() -> Arc<ShardPool> {
        static SHARED: OnceLock<Arc<ShardPool>> = OnceLock::new();
        Arc::clone(SHARED.get_or_init(|| {
            let cores = std::thread::available_parallelism().map_or(1, std::num::NonZero::get);
            let workers = if cores <= 1 { 0 } else { cores.min(MAX_SHARDS) };
            Arc::new(ShardPool::new(workers))
        }))
    }

    /// Number of worker threads (0 = every window runs inline). Dead
    /// workers are counted until [`respawn_worker`](Self::respawn_worker)
    /// reaps them alongside spawning the replacement.
    #[must_use]
    pub fn workers(&self) -> usize {
        self.lock_workers().len()
    }

    /// Total jobs executed by pool workers since the pool was created
    /// (diagnostics; excludes the coordinator's inline buckets).
    #[must_use]
    pub fn jobs_executed(&self) -> u64 {
        self.jobs_executed.load(Ordering::Relaxed)
    }

    /// Ships a job to a parked worker, or hands it back with the typed
    /// reason it cannot be shipped (no workers, or the queue is closed /
    /// poisoned) so the coordinator can run the bucket inline instead.
    ///
    /// The `Err` variant intentionally carries the whole job (like
    /// `mpsc::SendError`): the coordinator must get its chunk and
    /// bucket back to fall back inline, and boxing the rejection path
    /// would put an allocation on every dispatch for the sake of the
    /// cold one.
    #[allow(clippy::result_large_err)]
    fn submit(&self, job: Job) -> Result<(), (PoolError, Job)> {
        let queue = self
            .queue
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        match queue.as_ref() {
            None if self.intake.is_none() => Err((PoolError::NoWorkers, job)),
            None => Err((PoolError::QueueClosed, job)),
            Some(tx) => tx
                .send(job)
                .map_err(|mpsc::SendError(job)| (PoolError::QueueClosed, job)),
        }
    }
}

impl Drop for ShardPool {
    fn drop(&mut self) {
        // Closing the queue wakes every parked worker with a recv error.
        *self
            .queue
            .get_mut()
            .unwrap_or_else(std::sync::PoisonError::into_inner) = None;
        let workers = self
            .workers
            .get_mut()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        for handle in workers.drain(..) {
            let _ = handle.join();
        }
    }
}

/// Renders a captured panic payload for the coordinator's fault log.
fn panic_payload(err: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = err.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = err.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// The parked-worker loop: receive a job, run its bucket over its owned
/// chunk, send everything home. A panic mid-window (real, or injected
/// by the job's fault plan decision) is captured and reported, and the
/// worker thread *exits* — modelling a crashed component — leaving the
/// coordinator to respawn a replacement and recover the window.
fn worker_loop(queue: &Mutex<mpsc::Receiver<Job>>, jobs_executed: &AtomicU64) {
    loop {
        // Hold the lock only while dequeuing, not while executing.
        let job = {
            let rx = match queue.lock() {
                Ok(rx) => rx,
                // A poisoned queue means another worker panicked while
                // *dequeuing* (execution happens outside the lock);
                // the receiver itself is still sound.
                Err(poisoned) => poisoned.into_inner(),
            };
            match rx.recv() {
                Ok(job) => job,
                Err(_) => return, // pool dropped: all senders gone
            }
        };
        let Job {
            cfg,
            epoch,
            homes,
            mut chunk,
            bucket,
            job_id,
            inject,
            reply,
        } = job;
        let run = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            if inject == Some(Inject::PanicBefore) {
                panic!("injected: worker panic before window (epoch {epoch})");
            }
            let mut lane = chunk.lanes(&cfg, &homes, epoch);
            lane.run_batch(&bucket.ops, &bucket.runs);
            if inject == Some(Inject::PanicAfter) {
                panic!("injected: worker panic after window (epoch {epoch})");
            }
        }));
        // Drop the shared home view *before* replying: once the
        // coordinator has collected every reply, it is again the sole
        // owner and may extend the table in place.
        drop(homes);
        jobs_executed.fetch_add(1, Ordering::Relaxed);
        if let Some(Inject::Hang(ms)) = inject {
            // An injected hang: the window is done but the reply is
            // late. The coordinator's watchdog recovers the window and
            // discards this reply as stale by job id.
            std::thread::sleep(Duration::from_millis(ms));
        }
        match run {
            Ok(()) => {
                let _ = reply.send(Done {
                    job_id,
                    outcome: Ok((chunk, bucket)),
                });
            }
            Err(err) => {
                // The chunk may be mid-window; report the payload and
                // die. Recovery happens coordinator-side from the
                // pre-dispatch snapshot.
                let _ = reply.send(Done {
                    job_id,
                    outcome: Err(panic_payload(err.as_ref())),
                });
                return;
            }
        }
    }
}

/// A [`Machine`] executed in deterministic node shards on a
/// [`ShardPool`].
///
/// # Example
///
/// ```
/// use rnuma::config::{MachineConfig, Protocol};
/// use rnuma::machine::Machine;
/// use rnuma::shard::ShardedMachine;
/// use rnuma_mem::addr::{CpuId, Va};
///
/// let config = MachineConfig::paper_base(Protocol::paper_rnuma());
/// // Record a run...
/// let mut serial = Machine::new(config).unwrap();
/// serial.start_tracing();
/// serial.access(CpuId(0), Va(0x1000), true);
/// serial.access(CpuId(17), Va(0x9000), false);
/// let trace = serial.take_trace();
/// // ...and replay it across 4 shards: the metrics are bit-identical.
/// let mut sharded = ShardedMachine::new(config, 4).unwrap();
/// sharded.run_trace(&trace);
/// assert!(serial.metrics().replay_eq(&sharded.metrics()));
/// ```
#[derive(Debug)]
pub struct ShardedMachine {
    machine: Machine,
    /// Contiguous node range of each shard.
    ranges: Vec<Range<usize>>,
    /// Node index → owning shard.
    shard_of_node: Vec<u8>,
    /// Monotone per-page footprint + resolved home, maintained by the
    /// window scan; shared read-only with workers during windows.
    footprints: Arc<Footprints>,
    epochs: EpochClock,
    parallel_threshold: usize,
    pool: Arc<ShardPool>,
    /// Per-shard chunks: accumulators persist here between windows;
    /// machine state moves in and out per parallel window.
    chunks: Vec<ShardChunk>,
    op_buckets: Vec<Bucket>,
    effect_scratch: Vec<EffectMsg>,
    reply_tx: mpsc::Sender<Done>,
    reply_rx: mpsc::Receiver<Done>,
    stats: ShardStats,
    /// Deterministic fault schedule (`RNUMA_FAULTS`, or
    /// [`set_fault_plan`](Self::set_fault_plan)); `None` = no injection.
    fault_plan: Option<FaultPlan>,
    /// Watchdog: max milliseconds to wait for any worker reply at a
    /// window barrier ([`set_window_deadline_ms`](Self::set_window_deadline_ms),
    /// default off).
    deadline_ms: Option<u64>,
    /// Faults this machine absorbed (panics recovered, hangs timed out,
    /// submissions degraded to inline).
    fault_log: FaultLog,
    /// Monotone job-id source for stale-reply discrimination.
    next_job_id: u64,
}

/// A dispatched-but-unresolved window job the barrier is waiting on:
/// its id, its shard slot, what was injected, and — when the executor
/// is armed — the pre-dispatch snapshot exact recovery re-executes.
struct Pending {
    job_id: u64,
    slot: usize,
    inject: Option<Inject>,
    snapshot: Option<(ShardChunk, Bucket)>,
}

impl ShardedMachine {
    /// Builds a fresh machine from `config`, partitioned into `shards`
    /// contiguous node shards (clamped to `1..=min(nodes, MAX_SHARDS)`),
    /// executing parallel windows on the process-wide
    /// [`ShardPool::shared`] pool.
    ///
    /// # Errors
    ///
    /// Returns the configuration's validation error, if any.
    pub fn new(config: MachineConfig, shards: usize) -> Result<ShardedMachine, ConfigError> {
        ShardedMachine::with_pool(config, shards, ShardPool::shared())
    }

    /// Like [`ShardedMachine::new`], but on an explicit pool. Tests use
    /// this to force the threaded path regardless of host core count;
    /// embedders use it to bound worker threads.
    ///
    /// # Errors
    ///
    /// Returns the configuration's validation error, if any.
    pub fn with_pool(
        config: MachineConfig,
        shards: usize,
        pool: Arc<ShardPool>,
    ) -> Result<ShardedMachine, ConfigError> {
        let machine = Machine::new(config)?;
        let nodes = config.nodes as usize;
        let shards = shards.clamp(1, nodes.min(MAX_SHARDS));
        // Block-partition the nodes (same scheme as Runner::block_partition).
        let ranges: Vec<Range<usize>> = (0..shards)
            .map(|s| (nodes * s / shards)..(nodes * (s + 1) / shards))
            .collect();
        let mut shard_of_node = vec![0u8; nodes];
        for (s, r) in ranges.iter().enumerate() {
            for n in r.clone() {
                shard_of_node[n] = s as u8;
            }
        }
        let (reply_tx, reply_rx) = mpsc::channel();
        Ok(ShardedMachine {
            machine,
            shard_of_node,
            footprints: Arc::default(),
            epochs: EpochClock::new(),
            parallel_threshold: DEFAULT_PARALLEL_THRESHOLD,
            pool,
            chunks: (0..shards).map(|_| ShardChunk::default()).collect(),
            op_buckets: (0..shards).map(|_| Bucket::default()).collect(),
            effect_scratch: Vec::new(),
            reply_tx,
            reply_rx,
            stats: ShardStats::default(),
            fault_plan: FaultPlan::from_env(),
            deadline_ms: None,
            fault_log: FaultLog::new(),
            next_job_id: 0,
            ranges,
        })
    }

    /// Installs (or clears) a deterministic fault schedule for this
    /// machine's windows, replacing whatever `RNUMA_FAULTS` configured.
    /// A non-`None` plan arms pre-dispatch snapshots, so every injected
    /// (or real) worker fault recovers to bit-identical metrics.
    pub fn set_fault_plan(&mut self, plan: Option<FaultPlan>) {
        self.fault_plan = plan;
    }

    /// Sets (or clears) the per-window watchdog deadline in
    /// milliseconds (off by default). A deadline arms pre-dispatch
    /// snapshots; a window whose workers do not reply in time is
    /// re-executed inline from the snapshot, and late replies are
    /// discarded.
    pub fn set_window_deadline_ms(&mut self, ms: Option<u64>) {
        self.deadline_ms = ms.filter(|&ms| ms > 0);
    }

    /// The faults this machine has absorbed so far: recovered worker
    /// panics, timed-out windows, and submissions that degraded to
    /// inline execution. Empty on an undisturbed run.
    #[must_use]
    pub fn fault_log(&self) -> &FaultLog {
        &self.fault_log
    }

    /// True when window dispatch must take recovery snapshots: some
    /// fault source is armed (an injection plan or a watchdog
    /// deadline). Un-armed runs skip the clone entirely, so the hooks
    /// cost nothing in production.
    fn armed(&self) -> bool {
        self.fault_plan.is_some() || self.deadline_ms.is_some()
    }

    /// Number of shards the node space is partitioned into.
    #[must_use]
    pub fn shards(&self) -> usize {
        self.ranges.len()
    }

    /// Executor scheduling statistics accumulated so far.
    #[must_use]
    pub fn stats(&self) -> ShardStats {
        self.stats
    }

    /// Overrides the minimum window size for pool fan-out (benchmarks
    /// and tests; the default suits production runs).
    pub fn set_parallel_threshold(&mut self, ops: usize) {
        self.parallel_threshold = ops.max(1);
    }

    /// The underlying machine (read-only; diagnostics).
    #[must_use]
    pub fn machine(&self) -> &Machine {
        &self.machine
    }

    /// A snapshot of the run metrics so far.
    ///
    /// Valid between [`ShardedMachine::run_trace`] /
    /// [`ShardedMachine::run_segments`] calls (shard-local metrics are
    /// folded in at the end of each call).
    #[must_use]
    pub fn metrics(&self) -> Metrics {
        self.machine.metrics()
    }

    /// Replays `ops` deterministically across the shards.
    ///
    /// The resulting machine state and metrics are bit-identical to a
    /// serial [`Machine`] executing the same trace, for any shard count
    /// and any pool size.
    ///
    /// # Panics
    ///
    /// Panics if an op references a CPU outside the machine, or
    /// (indicating an executor bug) if a contained window touches
    /// out-of-shard state.
    pub fn run_trace(&mut self, ops: &[TraceOp]) {
        self.run_segments(std::iter::once(ops));
    }

    /// Replays a segmented trace — the form streams take inside an
    /// interned `TraceStore` arena — deterministically across the
    /// shards, bit-identical to a serial batched
    /// [`Machine::apply_batch`] of the same segments, in order.
    ///
    /// Window formation restarts at segment boundaries (a window never
    /// spans two segments); since *any* partition into contained windows
    /// replays exactly, segmentation affects scheduling statistics but
    /// not results.
    ///
    /// # Panics
    ///
    /// As [`ShardedMachine::run_trace`].
    pub fn run_segments<'a, I>(&mut self, segments: I)
    where
        I: IntoIterator<Item = &'a [TraceOp]>,
    {
        for seg in segments {
            self.run_ops(seg);
        }
        self.fold_shard_metrics();
    }

    /// Scans a window, executes it, fences at the blocking op, repeats.
    fn run_ops(&mut self, ops: &[TraceOp]) {
        // With one shard or a worker-less pool no window can ever fan
        // out, so the window scan would be pure overhead: replay
        // serially (identical results, by the determinism contract).
        // This is what keeps the sharded path within noise of serial on
        // single-core hosts.
        if self.ranges.len() == 1 || self.pool.workers() == 0 {
            self.stats.serialized_ops += ops.len() as u64;
            self.machine.apply_batch(ops);
            return;
        }
        let cpus_per_node = self.machine.config().cpus_per_node;
        let mut cursor = 0usize;
        while cursor < ops.len() {
            let end = self.scan_window(ops, cursor, cpus_per_node);
            self.exec_window(ops, cursor, end);
            // Execute the blocking op (if any) serially on the whole
            // machine, then start the next epoch.
            if end < ops.len() {
                self.exec_blocking(&ops[end]);
                cursor = end + 1;
            } else {
                cursor = end;
            }
            self.epochs.advance();
        }
    }

    /// Scans the maximal contained window starting at `cursor`,
    /// updating the footprint directory in place. The coordinator is
    /// the sole owner of the table between windows (workers dropped
    /// their views at the last barrier), so one make_mut per window —
    /// not per op — yields the in-place borrow the whole scan
    /// classifies against.
    fn scan_window(&mut self, ops: &[TraceOp], cursor: usize, cpus_per_node: u16) -> usize {
        let footprints = Arc::make_mut(&mut self.footprints);
        let mut end = cursor;
        while end < ops.len()
            && classify(
                &ops[end],
                footprints,
                &mut self.machine,
                &self.shard_of_node,
                cpus_per_node,
            ) == Class::Contained
        {
            end += 1;
        }
        end
    }

    /// Shard of the node `cpu` lives on.
    fn shard_of_cpu(&self, cpu: CpuId) -> usize {
        let node = (cpu.0 / self.machine.config().cpus_per_node) as usize;
        self.shard_of_node[node] as usize
    }

    /// Executes a contained window: inline when smaller than the
    /// fan-out threshold, otherwise fanned out over the pool with
    /// cross-shard effects replayed in canonical order at the closing
    /// barrier. (Single-shard and worker-less executions never reach
    /// here — `run_ops` bypasses the scan entirely.)
    fn exec_window(&mut self, ops: &[TraceOp], start: usize, end: usize) {
        if start == end {
            return;
        }
        self.stats.windows += 1;
        self.stats.contained_ops += (end - start) as u64;
        if end - start < self.parallel_threshold {
            self.machine.apply_batch(&ops[start..end]);
            return;
        }
        self.stats.parallel_windows += 1;

        // Bucket the window per shard, building each bucket's run
        // table as it fills: each op lands under its global sequence
        // number (the canonical serialization order), and a run grows
        // while both the CPU and the sequence stay contiguous.
        for bucket in &mut self.op_buckets {
            bucket.clear();
        }
        for (i, op) in ops[start..end].iter().enumerate() {
            let cpu = match *op {
                TraceOp::Access { cpu, .. } | TraceOp::Think { cpu, .. } => cpu,
                TraceOp::Barrier | TraceOp::ArmFirstTouch => {
                    unreachable!("global ops never enter a contained window")
                }
            };
            let shard = self.shard_of_cpu(cpu);
            self.op_buckets[shard].push((start + i) as u64, cpu, *op);
        }
        for bucket in &self.op_buckets {
            self.stats.bucket_runs += bucket.runs.len() as u64;
        }

        // Hand each shard its owned state chunk. The first non-empty
        // bucket stays on the coordinator; the rest ship to parked
        // workers. Empty-bucket chunks never leave the coordinator.
        let epoch = self.epochs.current().0;
        let cfg = *self.machine.config();
        let armed = self.armed();
        self.machine.detach_shards(&self.ranges, &mut self.chunks);
        let mut inline_shard = None;
        let mut pending: Vec<Pending> = Vec::new();
        for s in 0..self.ranges.len() {
            if self.op_buckets[s].is_empty() {
                continue;
            }
            if inline_shard.is_none() {
                inline_shard = Some(s);
                continue;
            }
            self.dispatch_shard(s, &cfg, epoch, armed, &mut pending);
        }
        if let Some(s) = inline_shard {
            let bucket = &self.op_buckets[s];
            let mut lane = self.chunks[s].lanes(&cfg, &self.footprints, epoch);
            lane.run_batch(&bucket.ops, &bucket.runs);
        }

        // Epoch barrier: every chunk comes home — from its worker, or
        // re-executed from its pre-dispatch snapshot when the worker
        // panicked or the watchdog fired — then buffered cross-shard
        // directory effects replay in canonical (epoch, home, seq)
        // order.
        self.collect_pending(&mut pending, &cfg, epoch);
        self.machine.attach_shards(&mut self.chunks);
        self.apply_effects(epoch);
    }

    /// Dispatches shard `s`'s filled bucket to the pool, appending to
    /// `pending` on success. Fault decisions are made here,
    /// coordinator-side, in dispatch order, so the schedule is a pure
    /// function of the plan — workers just obey the job's inject flag.
    /// A typed submission failure (no workers, poisoned or closed
    /// queue) runs the bucket inline on the coordinator — degraded,
    /// never aborted, results unchanged.
    fn dispatch_shard(
        &mut self,
        s: usize,
        cfg: &MachineConfig,
        epoch: u64,
        armed: bool,
        pending: &mut Vec<Pending>,
    ) {
        if let Some(plan) = &mut self.fault_plan {
            if plan.should_fire(FaultKind::Poison) {
                self.pool.poison();
            }
        }
        let inject = self.fault_plan.as_mut().and_then(|plan| {
            if plan.should_fire(FaultKind::PanicBefore) {
                Some(Inject::PanicBefore)
            } else if plan.should_fire(FaultKind::PanicAfter) {
                Some(Inject::PanicAfter)
            } else if plan.should_fire(FaultKind::Hang) {
                Some(Inject::Hang(plan.hang_ms()))
            } else {
                None
            }
        });
        let chunk = std::mem::take(&mut self.chunks[s]);
        let bucket = std::mem::take(&mut self.op_buckets[s]);
        // Armed executions snapshot (chunk, bucket) before dispatch:
        // a window is self-contained given (cfg, homes, epoch), so
        // re-executing the snapshot inline reproduces the worker's
        // result exactly. Un-armed runs skip the clone.
        let snapshot = armed.then(|| (chunk.clone(), bucket.clone()));
        let job_id = self.next_job_id;
        self.next_job_id += 1;
        match self.pool.submit(Job {
            cfg: *cfg,
            epoch,
            homes: Arc::clone(&self.footprints),
            chunk,
            bucket,
            job_id,
            inject,
            reply: self.reply_tx.clone(),
        }) {
            Ok(()) => {
                pending.push(Pending {
                    job_id,
                    slot: s,
                    inject,
                    snapshot,
                });
                self.stats.pool_jobs += 1;
            }
            Err((err, job)) => {
                let Job {
                    mut chunk, bucket, ..
                } = job;
                {
                    let mut lane = chunk.lanes(cfg, &self.footprints, epoch);
                    lane.run_batch(&bucket.ops, &bucket.runs);
                }
                self.chunks[s] = chunk;
                self.op_buckets[s] = bucket;
                self.stats.inline_fallbacks += 1;
                self.fault_log
                    .record(FaultKind::Poison, job_id, err.to_string());
            }
        }
    }

    /// Collects every still-pending job at a window barrier: each
    /// chunk comes home from its worker, or is re-executed from its
    /// pre-dispatch snapshot when the worker panicked or the watchdog
    /// fired.
    fn collect_pending(&mut self, pending: &mut Vec<Pending>, cfg: &MachineConfig, epoch: u64) {
        while !pending.is_empty() {
            let done = match self.deadline_ms {
                None => match self.reply_rx.recv() {
                    Ok(done) => done,
                    Err(_) => unreachable!("coordinator holds a reply sender"),
                },
                Some(ms) => match self.reply_rx.recv_timeout(Duration::from_millis(ms)) {
                    Ok(done) => done,
                    Err(mpsc::RecvTimeoutError::Timeout) => {
                        // Watchdog: every still-pending job is presumed
                        // hung. Recover them all from their snapshots;
                        // late replies are discarded by job id.
                        for p in std::mem::take(pending) {
                            self.recover_window(p, cfg, epoch, &PoolError::DeadlineElapsed(ms));
                        }
                        break;
                    }
                    Err(mpsc::RecvTimeoutError::Disconnected) => {
                        unreachable!("coordinator holds a reply sender")
                    }
                },
            };
            let Some(at) = pending.iter().position(|p| p.job_id == done.job_id) else {
                // A late reply from a job the watchdog already
                // recovered (possibly in an earlier window): drop it.
                self.stats.stale_replies += 1;
                continue;
            };
            let p = pending.swap_remove(at);
            match done.outcome {
                Ok((chunk, bucket)) => {
                    self.chunks[p.slot] = chunk;
                    self.op_buckets[p.slot] = bucket;
                }
                Err(payload) => {
                    // The worker died on this job: replace it, then
                    // recover the window exactly.
                    self.pool.respawn_worker();
                    self.recover_window(p, cfg, epoch, &PoolError::WorkerPanicked(payload));
                }
            }
        }
    }

    /// Replays the buffered cross-shard directory effects of the window
    /// that just closed, in canonical `(epoch, home, seq)`
    /// order.
    fn apply_effects(&mut self, epoch: u64) {
        let effects = &mut self.effect_scratch;
        effects.clear();
        for chunk in &mut self.chunks {
            effects.append(&mut chunk.effects);
        }
        // Buffers drain at their own window's barrier, so a batch holds
        // exactly one epoch; the key's epoch component documents the
        // model rather than discriminating here.
        debug_assert!(effects.iter().all(|msg| msg.key.epoch == epoch));
        effects.sort_unstable_by_key(|msg| msg.key);
        self.stats.effects_applied += effects.len() as u64;
        for msg in effects.drain(..) {
            self.machine.dir_mut(msg.key.home).apply(msg.effect);
        }
    }

    /// Exact recovery of one dispatched window job: re-executes its
    /// bucket from the pre-dispatch snapshot on the coordinator — the
    /// same batched kernel, same frozen homes, same epoch — so the
    /// recovered chunk is bit-identical to what an undisturbed worker
    /// would have returned. The faulty worker's copy of the state (mid-
    /// window, or merely late) is discarded wholesale.
    ///
    /// # Panics
    ///
    /// Panics with the typed [`PoolError`] when the executor was not
    /// armed: a real worker panic without a snapshot cannot be
    /// recovered exactly, so surfacing the bug beats silently
    /// diverging.
    fn recover_window(&mut self, p: Pending, cfg: &MachineConfig, epoch: u64, err: &PoolError) {
        let Some((mut chunk, bucket)) = p.snapshot else {
            panic!(
                "{err}; no recovery snapshot was armed (set RNUMA_FAULTS, or call \
                 set_fault_plan or set_window_deadline_ms, to enable exact self-healing)"
            );
        };
        {
            let mut lane = chunk.lanes(cfg, &self.footprints, epoch);
            lane.run_batch(&bucket.ops, &bucket.runs);
        }
        self.chunks[p.slot] = chunk;
        self.op_buckets[p.slot] = bucket;
        self.stats.recovered_jobs += 1;
        let kind = match (err, p.inject) {
            (PoolError::DeadlineElapsed(_), _) => FaultKind::Hang,
            (_, Some(Inject::PanicBefore)) => FaultKind::PanicBefore,
            _ => FaultKind::PanicAfter,
        };
        self.fault_log.record(kind, p.job_id, err.to_string());
    }

    fn exec_blocking(&mut self, op: &TraceOp) {
        self.stats.serialized_ops += 1;
        self.machine.apply_op(op);
    }

    /// Folds the shards' metric deltas into the machine's metrics, in
    /// canonical shard order.
    fn fold_shard_metrics(&mut self) {
        for chunk in &mut self.chunks {
            self.machine.metrics_mut().absorb(&mut chunk.metrics);
        }
    }
}

/// Classifies one op, updating the page footprint and pre-resolving
/// the page's home exactly as the serial fault would. A free function
/// over the executor's split-borrowed fields so the scan loop holds
/// one footprint borrow for the whole window.
///
/// The home resolution is sound to run at scan time: a page's first
/// trace reference is necessarily its first machine-wide fault (an
/// unhomed page cannot be mapped — or cached — anywhere), the scan
/// visits references in trace order, and a scan never runs past a
/// blocking op before that op has executed (so first-touch arming is
/// always in effect when a later reference resolves its home).
///
/// An access is contained when its page's home lies in the issuer's
/// shard **and** either
///
/// * the page's footprint is exactly the issuer's shard (the strict
///   rule: the walk owns every copy of the page), or
/// * the access is a load of a page whose writer set is contained in
///   the issuer's shard (the ownership relaxation). With no writers
///   the page has no owner in any directory and no dirty copy
///   anywhere; with writers all in the issuing shard, every owner and
///   every dirty copy lives inside that shard too (each past foreign
///   access was blocking — the home is here — and executed serially,
///   leaving foreign copies at most clean-shared). Either way the
///   load's walk touches only the issuer's own caches and the in-shard
///   home's state: a hit or an owner fetch stays in-shard, and adding
///   a sharer bit charges the in-shard home — loads never invalidate
///   or downgrade foreign clean sharers, so foreign shards' contained
///   ops can observe nothing. Stores get no such relaxation: a store
///   must invalidate every foreign copy, so it is contained only under
///   the strict rule.
///
fn classify(
    op: &TraceOp,
    footprints: &mut Footprints,
    machine: &mut Machine,
    shard_of_node: &[u8],
    cpus_per_node: u16,
) -> Class {
    match *op {
        TraceOp::Think { .. } => Class::Contained,
        TraceOp::Barrier | TraceOp::ArmFirstTouch => Class::Blocking,
        TraceOp::Access { cpu, va, write } => {
            let node = (cpu.0 / cpus_per_node) as usize;
            let shard = shard_of_node[node] as usize;
            let bit = 1u32 << shard;
            let page = va.vpage();
            let info = if let Some(info) = footprints.0.get_mut(page) {
                info.touch(bit, write);
                *info
            } else {
                let info = PageInfo {
                    shard_mask: bit,
                    writer_mask: if write { bit } else { 0 },
                    home: machine.pages_mut().home_on_touch(page, NodeId(node as u8)),
                };
                footprints.0.insert(page, info);
                info
            };
            let home_shard = shard_of_node[info.home.0 as usize] as usize;
            let exclusive = info.shard_mask == bit;
            let own_writers = !write && info.writer_mask & !bit == 0;
            if home_shard == shard && (exclusive || own_writers) {
                Class::Contained
            } else {
                Class::Blocking
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Protocol;

    fn config() -> MachineConfig {
        MachineConfig::paper_base(Protocol::paper_rnuma())
    }

    /// A pool that always has workers, so tests exercise the threaded
    /// path even on single-core CI hosts.
    fn test_pool() -> Arc<ShardPool> {
        Arc::new(ShardPool::new(2))
    }

    /// A partitioned stream: each CPU walks pages in its own node's
    /// region (fully contained), with a few shared-page accesses mixed
    /// in (blocking).
    fn mixed_trace(refs_per_cpu: u64, shared_every: u64) -> Vec<TraceOp> {
        let mut ops = Vec::new();
        ops.push(TraceOp::ArmFirstTouch);
        for i in 0..refs_per_cpu {
            for cpu in 0..32u16 {
                let node = u64::from(cpu / 4);
                let va = Va(((1 + node) << 20) + (i / 128) * 65536 + (i * 32) % 4096);
                ops.push(TraceOp::Access {
                    cpu: CpuId(cpu),
                    va,
                    write: i % 7 == 0,
                });
                if shared_every != 0 && i % shared_every == 3 && cpu % 9 == 0 {
                    // A page everyone touches: permanently cross-shard.
                    ops.push(TraceOp::Access {
                        cpu: CpuId(cpu),
                        va: Va(0xF00_0000 + (i % 8) * 32),
                        write: false,
                    });
                }
            }
            if i % 64 == 63 {
                ops.push(TraceOp::Barrier);
            }
        }
        ops
    }

    fn serial_replay_on(config: MachineConfig, ops: &[TraceOp]) -> Metrics {
        let mut m = Machine::new(config).unwrap();
        m.apply_batch(ops);
        m.metrics()
    }

    #[test]
    fn sharded_replay_is_bit_identical_to_serial() {
        let ops = mixed_trace(192, 16);
        let serial = serial_replay_on(config(), &ops);
        for shards in [1usize, 2, 4, 8] {
            let mut sm = ShardedMachine::with_pool(config(), shards, test_pool()).unwrap();
            sm.set_parallel_threshold(32); // exercise the threaded path
            sm.run_trace(&ops);
            assert!(
                serial.replay_eq(&sm.metrics()),
                "{shards} shards diverged from serial:\nserial: {serial}\nsharded: {}",
                sm.metrics()
            );
            if shards > 1 {
                assert!(
                    sm.stats().pool_jobs > 0,
                    "pool never engaged at {shards} shards: {:?}",
                    sm.stats()
                );
            }
        }
    }

    #[test]
    fn segmented_replay_matches_flat_replay() {
        let ops = mixed_trace(96, 8);
        let serial = serial_replay_on(config(), &ops);
        // Segment the stream at an awkward boundary: windows must close
        // early without changing results.
        for seg_len in [37usize, 256, 5000] {
            let mut sm = ShardedMachine::with_pool(config(), 4, test_pool()).unwrap();
            sm.set_parallel_threshold(16);
            sm.run_segments(ops.chunks(seg_len));
            assert!(
                serial.replay_eq(&sm.metrics()),
                "segmented replay (len {seg_len}) diverged from serial"
            );
        }
    }

    #[test]
    fn worker_less_pool_runs_inline() {
        let ops = mixed_trace(64, 0);
        let serial = serial_replay_on(config(), &ops);
        let pool = Arc::new(ShardPool::new(0));
        assert_eq!(pool.workers(), 0);
        let mut sm = ShardedMachine::with_pool(config(), 4, Arc::clone(&pool)).unwrap();
        sm.set_parallel_threshold(1);
        sm.run_trace(&ops);
        assert!(serial.replay_eq(&sm.metrics()));
        let stats = sm.stats();
        assert_eq!(
            (stats.windows, stats.parallel_windows),
            (0, 0),
            "zero workers must bypass the window scan entirely: {stats:?}"
        );
        assert_eq!(stats.serialized_ops, ops.len() as u64);
        assert_eq!(pool.jobs_executed(), 0);
    }

    #[test]
    fn one_pool_serves_many_machines() {
        let pool = test_pool();
        let ops = mixed_trace(64, 0);
        let serial = serial_replay_on(config(), &ops);
        for _ in 0..3 {
            let mut sm = ShardedMachine::with_pool(config(), 4, Arc::clone(&pool)).unwrap();
            sm.set_parallel_threshold(16);
            sm.run_trace(&ops);
            assert!(serial.replay_eq(&sm.metrics()));
        }
        assert!(
            pool.jobs_executed() > 0,
            "persistent pool should have executed jobs across machines"
        );
    }

    #[test]
    fn single_shard_never_fans_out() {
        let ops = mixed_trace(64, 0);
        let serial = serial_replay_on(config(), &ops);
        let mut sm = ShardedMachine::with_pool(config(), 1, test_pool()).unwrap();
        sm.set_parallel_threshold(1);
        sm.run_trace(&ops);
        assert_eq!(sm.shards(), 1);
        assert!(serial.replay_eq(&sm.metrics()));
        assert_eq!(
            sm.stats().parallel_windows,
            0,
            "one shard must stay on the coordinator thread"
        );
        assert_eq!(sm.stats().serialized_ops, ops.len() as u64);
    }

    #[test]
    fn partitioned_trace_forms_large_windows() {
        let ops = mixed_trace(128, 0);
        let mut sm = ShardedMachine::with_pool(config(), 4, test_pool()).unwrap();
        sm.set_parallel_threshold(64);
        sm.run_trace(&ops);
        let stats = sm.stats();
        assert!(stats.parallel_windows > 0, "expected fan-out: {stats:?}");
        // Fully partitioned references are all contained; only barriers
        // and the arm op serialize.
        assert!(
            stats.contained_ops > 30 * stats.serialized_ops,
            "partitioned trace should be almost entirely contained: {stats:?}"
        );
    }

    #[test]
    fn cross_shard_eviction_writebacks_are_deferred_and_exact() {
        // A 4-line block cache guarantees conflict evictions; a huge
        // threshold keeps relocation out of the picture.
        let config = MachineConfig::paper_base(Protocol::RNuma {
            block_cache_bytes: 128,
            page_cache_bytes: 320 * 1024,
            threshold: 1_000_000,
        });
        let mut ops = vec![TraceOp::ArmFirstTouch];
        let p = 0x80_0000u64; // page homed at node 5 (shard 2 of 4)
        ops.push(TraceOp::Access {
            cpu: CpuId(20),
            va: Va(p),
            write: true,
        });
        // Node 0 dirties blocks of the shard-2-homed page: cross-shard
        // accesses, leaving dirty lines in node 0's block cache.
        for b in 0..4u64 {
            ops.push(TraceOp::Access {
                cpu: CpuId(0),
                va: Va(p + b * 32),
                write: true,
            });
        }
        // Node 1 homes pages Q; node 0 then streams over them: a fully
        // contained window (home and footprint in shard 0) whose
        // block-cache fills evict the dirty shard-2 blocks — the posted
        // write-backs must cross the shard boundary as ordered effects.
        for q in 0..4u64 {
            ops.push(TraceOp::Access {
                cpu: CpuId(4),
                va: Va(0x10_0000 + q * 4096),
                write: true,
            });
        }
        for i in 0..64u64 {
            ops.push(TraceOp::Access {
                cpu: CpuId(0),
                va: Va(0x10_0000 + (i % 4) * 4096 + (i / 4) * 32),
                write: false,
            });
        }
        // Node 5 reads its page back: the deferred write-backs must have
        // landed (owner cleared, was-owner set) exactly as in serial.
        for b in 0..4u64 {
            ops.push(TraceOp::Access {
                cpu: CpuId(21),
                va: Va(p + b * 32),
                write: false,
            });
        }
        let serial = serial_replay_on(config, &ops);
        let mut sm = ShardedMachine::with_pool(config, 4, test_pool()).unwrap();
        sm.set_parallel_threshold(8);
        sm.run_trace(&ops);
        assert!(
            sm.stats().effects_applied > 0,
            "expected deferred cross-shard write-backs: {:?}",
            sm.stats()
        );
        assert!(
            serial.replay_eq(&sm.metrics()),
            "deferred effects diverged:\nserial: {serial}\nsharded: {}",
            sm.metrics()
        );
    }

    #[test]
    fn shard_count_is_clamped_to_nodes() {
        let sm = ShardedMachine::new(config(), 64).unwrap();
        assert_eq!(sm.shards(), 8);
        let sm = ShardedMachine::new(config(), 0).unwrap();
        assert_eq!(sm.shards(), 1);
    }

    fn access(cpu: u16, va: u64) -> TraceOp {
        TraceOp::Access {
            cpu: CpuId(cpu),
            va: Va(va),
            write: false,
        }
    }

    #[test]
    fn split_cpu_runs_empty_trace_is_empty() {
        assert!(split_cpu_runs(&[]).is_empty());
    }

    #[test]
    fn split_cpu_runs_single_op_forms_one_run() {
        assert_eq!(
            split_cpu_runs(&[access(3, 0x1000)]),
            vec![CpuRun::Cpu {
                cpu: CpuId(3),
                len: 1
            }]
        );
        assert_eq!(split_cpu_runs(&[TraceOp::Barrier]), vec![CpuRun::Global]);
    }

    #[test]
    fn split_cpu_runs_alternating_cpus_yield_unit_runs() {
        let ops: Vec<TraceOp> = (0..6).map(|i| access(i % 2, 0x1000)).collect();
        let runs = split_cpu_runs(&ops);
        assert_eq!(runs.len(), 6);
        for (i, run) in runs.iter().enumerate() {
            assert_eq!(
                *run,
                CpuRun::Cpu {
                    cpu: CpuId((i % 2) as u16),
                    len: 1
                }
            );
        }
    }

    #[test]
    fn split_cpu_runs_groups_maximal_same_cpu_spans() {
        let ops = [
            access(0, 0x1000),
            access(0, 0x1020),
            TraceOp::Think {
                cpu: CpuId(0),
                dur: Cycles(5),
            },
            access(4, 0x2000),
            TraceOp::Barrier,
            TraceOp::ArmFirstTouch,
            access(4, 0x2020),
        ];
        assert_eq!(
            split_cpu_runs(&ops),
            vec![
                CpuRun::Cpu {
                    cpu: CpuId(0),
                    len: 3
                },
                CpuRun::Cpu {
                    cpu: CpuId(4),
                    len: 1
                },
                CpuRun::Global,
                CpuRun::Global,
                CpuRun::Cpu {
                    cpu: CpuId(4),
                    len: 1
                },
            ]
        );
    }

    #[test]
    fn oversized_runs_chunk_instead_of_overflowing() {
        // Synthetic lengths only — a real 2^32-op slice would need
        // ~100 GB. The splitter's chunker is a pure function of the
        // run length, so this covers the gigabyte-trace regime the
        // paper-scale sweeps hit.
        let mut runs = Vec::new();
        push_cpu_run(&mut runs, CpuId(7), MAX_RUN_LEN + 5);
        assert_eq!(
            runs,
            vec![
                CpuRun::Cpu {
                    cpu: CpuId(7),
                    len: u32::MAX
                },
                CpuRun::Cpu {
                    cpu: CpuId(7),
                    len: 5
                },
            ]
        );
        runs.clear();
        push_cpu_run(&mut runs, CpuId(1), 3 * MAX_RUN_LEN);
        assert_eq!(runs.len(), 3);
        let total: u64 = runs
            .iter()
            .map(|r| match r {
                CpuRun::Cpu { len, .. } => u64::from(*len),
                CpuRun::Global => 1,
            })
            .sum();
        assert_eq!(total, 3 * MAX_RUN_LEN as u64);
        // Zero-length runs are never emitted.
        runs.clear();
        push_cpu_run(&mut runs, CpuId(0), 0);
        assert!(runs.is_empty());
    }

    #[test]
    fn bucket_runs_break_on_cpu_change_and_seq_gap() {
        let op = |cpu: u16| TraceOp::Access {
            cpu: CpuId(cpu),
            va: Va(0x1000),
            write: false,
        };
        let mut b = Bucket::default();
        // Contiguous in CPU and seq: one growing run.
        b.push(10, CpuId(0), op(0));
        b.push(11, CpuId(0), op(0));
        // Seq gap (another shard's op sat at seq 12): new run.
        b.push(13, CpuId(0), op(0));
        // CPU change at a contiguous seq: new run.
        b.push(14, CpuId(1), op(1));
        assert_eq!(
            b.runs,
            vec![
                BucketRun {
                    seq_base: 10,
                    cpu: CpuId(0),
                    len: 2
                },
                BucketRun {
                    seq_base: 13,
                    cpu: CpuId(0),
                    len: 1
                },
                BucketRun {
                    seq_base: 14,
                    cpu: CpuId(1),
                    len: 1
                },
            ]
        );
        assert_eq!(b.ops.len(), 4);
    }

    /// A parallel window where exactly one bucket is non-empty runs on
    /// the coordinator's inline-shard path: no pool jobs, bit-identical
    /// metrics.
    #[test]
    fn single_populated_bucket_runs_inline_without_pool_jobs() {
        let mut ops = vec![TraceOp::ArmFirstTouch];
        // All references from node 0's CPUs into node-0-homed pages:
        // contained in shard 0, invisible to every other shard.
        for i in 0..512u64 {
            ops.push(TraceOp::Access {
                cpu: CpuId((i % 4) as u16),
                va: Va((1 << 20) + (i % 8) * 4096 + (i % 128) * 32),
                write: i % 5 == 0,
            });
        }
        let serial = serial_replay_on(config(), &ops);
        let mut sm = ShardedMachine::with_pool(config(), 4, test_pool()).unwrap();
        sm.set_parallel_threshold(64);
        sm.run_trace(&ops);
        assert!(serial.replay_eq(&sm.metrics()));
        let stats = sm.stats();
        assert!(stats.parallel_windows >= 1, "expected fan-out: {stats:?}");
        assert_eq!(
            stats.pool_jobs, 0,
            "one populated bucket must stay on the coordinator: {stats:?}"
        );
        assert_eq!(stats.contained_ops, 512);
        assert!(stats.bucket_runs >= 1);
    }

    /// A contained window of exactly `parallel_threshold` ops takes
    /// the parallel path (the threshold is inclusive); one op fewer
    /// stays inline.
    #[test]
    fn window_exactly_at_threshold_goes_parallel() {
        let threshold = 96usize;
        let window = |n: usize| {
            let mut ops = vec![TraceOp::ArmFirstTouch];
            for i in 0..n {
                ops.push(TraceOp::Access {
                    cpu: CpuId((i % 4) as u16),
                    va: Va((1 << 20) + (i as u64 % 128) * 32),
                    write: false,
                });
            }
            ops.push(TraceOp::Barrier);
            ops
        };
        for (n, parallel) in [(threshold, 1u64), (threshold - 1, 0u64)] {
            let ops = window(n);
            let serial = serial_replay_on(config(), &ops);
            let mut sm = ShardedMachine::with_pool(config(), 4, test_pool()).unwrap();
            sm.set_parallel_threshold(threshold);
            sm.run_trace(&ops);
            assert!(serial.replay_eq(&sm.metrics()), "diverged at {n} ops");
            let stats = sm.stats();
            assert_eq!(stats.windows, 1, "{n} ops: {stats:?}");
            assert_eq!(
                stats.parallel_windows, parallel,
                "threshold must be inclusive at {n} ops: {stats:?}"
            );
            assert_eq!(stats.contained_ops, n as u64);
            // ArmFirstTouch + Barrier serialize between windows.
            assert_eq!(stats.serialized_ops, 2, "{stats:?}");
        }
    }

    /// CPU-alternating windows degenerate every bucket run to length
    /// 1 — across shards (seq gaps) and within a node (CPU changes) —
    /// and still replay bit-identically.
    #[test]
    fn alternating_cpus_degenerate_to_unit_runs() {
        // Across shards: CPUs 0 (node 0, shard 0) and 16 (node 4,
        // shard 2) alternate; each bucket sees seq gaps every op.
        let mut ops = vec![TraceOp::ArmFirstTouch];
        for i in 0..256u64 {
            let (cpu, region) = if i % 2 == 0 {
                (0u16, 1u64)
            } else {
                (16u16, 5u64)
            };
            ops.push(TraceOp::Access {
                cpu: CpuId(cpu),
                va: Va((region << 20) + (i / 2 % 128) * 32),
                write: false,
            });
        }
        let serial = serial_replay_on(config(), &ops);
        let mut sm = ShardedMachine::with_pool(config(), 4, test_pool()).unwrap();
        sm.set_parallel_threshold(32);
        sm.run_trace(&ops);
        assert!(serial.replay_eq(&sm.metrics()));
        let stats = sm.stats();
        assert!(stats.pool_jobs > 0, "two shards must fan out: {stats:?}");
        assert_eq!(
            stats.bucket_runs, stats.contained_ops,
            "alternating shards must produce unit runs: {stats:?}"
        );

        // Within one node: CPUs 0 and 1 share a bucket; runs break on
        // the CPU change even though seqs are contiguous.
        let mut ops = vec![TraceOp::ArmFirstTouch];
        for i in 0..256u64 {
            ops.push(TraceOp::Access {
                cpu: CpuId((i % 2) as u16),
                va: Va((1 << 20) + (i / 2 % 128) * 32),
                write: false,
            });
        }
        let serial = serial_replay_on(config(), &ops);
        let mut sm = ShardedMachine::with_pool(config(), 4, test_pool()).unwrap();
        sm.set_parallel_threshold(32);
        sm.run_trace(&ops);
        assert!(serial.replay_eq(&sm.metrics()));
        let stats = sm.stats();
        assert_eq!(
            stats.bucket_runs, stats.contained_ops,
            "alternating CPUs in one bucket must produce unit runs: {stats:?}"
        );
    }

    #[test]
    fn split_cpu_runs_tables_tile_their_input() {
        let ops = mixed_trace(16, 4);
        let runs = split_cpu_runs(&ops);
        let total: u64 = runs
            .iter()
            .map(|r| match r {
                CpuRun::Cpu { len, .. } => u64::from(*len),
                CpuRun::Global => 1,
            })
            .sum();
        assert_eq!(total, ops.len() as u64);
    }

    #[test]
    fn traced_machine_records_every_op_kind() {
        let mut m = Machine::new(config()).unwrap();
        m.start_tracing();
        m.arm_first_touch();
        m.access(CpuId(0), Va(0x1000), true);
        m.advance(CpuId(0), Cycles(10));
        m.barrier_all();
        let trace = m.take_trace();
        assert_eq!(
            trace,
            vec![
                TraceOp::ArmFirstTouch,
                TraceOp::Access {
                    cpu: CpuId(0),
                    va: Va(0x1000),
                    write: true
                },
                TraceOp::Think {
                    cpu: CpuId(0),
                    dur: Cycles(10)
                },
                TraceOp::Barrier,
            ]
        );
        // Tracing is off after take_trace.
        m.access(CpuId(0), Va(0x1000), false);
        assert!(m.take_trace().is_empty());
    }

    /// The ownership relaxation: loads of a page stay contained for the
    /// home shard as long as every writer of the page is that shard —
    /// through foreign reads *and* through the home shard's own stores
    /// — and revert to blocking the moment a foreign shard stores to
    /// it. Exact op-by-op accounting, plus bit-identity to serial.
    #[test]
    fn ownership_relaxes_home_loads_until_a_foreign_store() {
        let p = Va(1 << 20); // first-touched by CPU 0 -> homed in shard 0
        let read = |cpu: u16| TraceOp::Access {
            cpu: CpuId(cpu),
            va: p,
            write: false,
        };
        let write = |cpu: u16| TraceOp::Access {
            cpu: CpuId(cpu),
            va: p,
            write: true,
        };
        let mut ops = vec![TraceOp::ArmFirstTouch];
        ops.push(read(0)); // exclusive: contained
        ops.push(read(28)); // shard 3 reads a shard-0 page: blocking
        for i in 0..100u16 {
            ops.push(read(i % 8)); // shard 0 re-reads (no writers): contained
        }
        ops.push(write(0)); // store: blocking (footprint spans shards)
        for _ in 0..10 {
            ops.push(read(0)); // writers ⊆ {shard 0}: still contained
        }
        ops.push(write(28)); // foreign store: blocking; ownership moves
        for _ in 0..10 {
            ops.push(read(0)); // foreign writer now: blocking
        }
        let serial = serial_replay_on(config(), &ops);
        let mut sm = ShardedMachine::with_pool(config(), 4, test_pool()).unwrap();
        sm.set_parallel_threshold(1);
        sm.run_trace(&ops);
        assert!(serial.replay_eq(&sm.metrics()));
        let stats = sm.stats();
        assert_eq!(
            stats.contained_ops, 111,
            "first touch + 100 no-writer re-reads + 10 own-writer \
             re-reads must be contained: {stats:?}"
        );
        assert_eq!(
            stats.serialized_ops, 14,
            "arm + foreign read + 2 stores + 10 foreign-owned reads \
             serialize: {stats:?}"
        );
    }
}
