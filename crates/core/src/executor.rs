//! Supervised work-stealing job executor for sweep matrices.
//!
//! [`execute`] replaces static whole-run chunking for the deduplicated
//! job graph of [`crate::sweep::run_many_resilient`]: sweep cells vary
//! more than 2× in cost (see `BENCH_simwall.json`), so a static split
//! leaves healthy workers idle behind one unlucky chunk, and a single
//! wedged worker used to stall a figure run forever. Just as the
//! refresh-access parallelization literature hides per-bank refresh
//! stalls behind useful work instead of serializing on them, this
//! executor hides per-cell stragglers behind stealing and supervision.
//!
//! The moving pieces:
//!
//! * **Per-worker deques, LIFO-local / FIFO-steal.** Initial dispatch is
//!   cost-model-ordered — longest expected first, using cached
//!   `wall_nanos` from [`crate::runcache`] as the estimator, with the
//!   original submission order as the deterministic fallback when no
//!   estimate exists — and round-robined across workers. An owner pops
//!   its most expensive remaining item from the back; thieves steal the
//!   cheapest from the front, nibbling tail work without disturbing the
//!   victim's critical path.
//! * **A supervisor thread** watches every worker's running slot. Each
//!   dispatch gets a soft deadline (`deadline_factor` × its cost
//!   estimate, floor-clamped; when no estimate exists, an adaptive
//!   fallback derived from the median completed cell). Crossing the
//!   deadline first logs a structured warning; crossing
//!   `escalate_factor` beyond it triggers *cooperative cancellation*
//!   through the simulator's forward-progress watchdog hook
//!   ([`crate::system::System::set_cancel_hook`]), which returns the
//!   attempt as retryable [`crate::error::RefsimError::Cancelled`]. A
//!   cancelled item is requeued with a doubled deadline; after
//!   `max_cancel_requeues` cancellations it runs warn-only, so a
//!   genuinely slow healthy cell always completes.
//! * **Requeue-based backoff.** A retrying item never sleeps on a
//!   worker: the callback returns [`Verdict::Requeue`] with a backoff
//!   and the item parks in a time-ordered overflow queue until its
//!   `ready_at`, while the worker moves on to healthy work.
//! * **Panic and poison isolation.** Worker-level faults (a panic
//!   escaping the callback, an injected hang, a poisoned verdict) count
//!   *strikes* against the worker; at `max_worker_strikes` the worker is
//!   quarantined — its deque drains to the overflow queue for survivors
//!   — unless it is the last active worker, which must keep going. A
//!   crash-looping job class therefore degrades throughput instead of
//!   killing the sweep.
//!
//! **Determinism argument.** The executor decides only *where and when*
//! an item runs, never *what it computes*: each item's result lands in
//! its own pre-assigned output slot, the simulator is deterministic per
//! attempt, and a cancelled or faulted attempt re-runs from scratch (or
//! its checkpoint, which is bit-identical by the replay contract). So
//! results are bit-identical across any thread count and any fault
//! plan — pinned by the thread-matrix proptest in
//! `crates/core/tests/executor.rs`.
//!
//! **Limits.** Cancellation is cooperative: it reclaims any attempt
//! that keeps reaching the step-loop gate (including simulator-level
//! stragglers and the injected hangs of [`WorkerFaultPlan`], which
//! poll the flag). A thread wedged in a non-polling syscall cannot be
//! reclaimed under `std::thread::scope`; the quarantine ladder bounds
//! the damage to `max_worker_strikes` dispatches on that worker.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use crate::codec::fnv64;

/// Environment variable overriding [`default_threads`].
pub const THREADS_ENV: &str = "REFSIM_THREADS";

/// The default worker-thread count every sweep surface shares: the
/// `REFSIM_THREADS` environment variable when set to a positive
/// integer, else the host's available parallelism, else 4.
pub fn default_threads() -> usize {
    std::env::var(THREADS_ENV)
        .ok()
        .and_then(|v| v.trim().parse::<usize>().ok())
        .filter(|&n| n > 0)
        .unwrap_or_else(|| {
            std::thread::available_parallelism()
                .map(std::num::NonZeroUsize::get)
                .unwrap_or(4)
        })
}

/// Seeded worker-level chaos for soaking the executor: the plan injects
/// hanging, slow, and panicking *workers* (the job-class crash knob is
/// applied by the sweep layer, which owns job identity). Worker faults
/// never consume a job's retry budget — they model harness trouble, not
/// simulation trouble, and the item simply re-runs on a healthy worker.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WorkerFaultPlan {
    /// Seed for the transient-panic draws.
    pub seed: u64,
    /// The first `hung_workers` worker indices hang on their early
    /// claims: the claim spins on the cancellation flag (the same flag
    /// real attempts poll) until the supervisor escalates.
    pub hung_workers: usize,
    /// Claims each hung worker hangs on before behaving (models a
    /// worker that recovers, and bounds the injection so a sweep always
    /// terminates even when every worker is hung).
    pub hang_claims: u32,
    /// The next `slow_workers` indices sleep `slow_delay` per claim.
    pub slow_workers: usize,
    /// Per-claim delay for slow workers.
    pub slow_delay: Duration,
    /// Parts-per-million chance — drawn per `(seed, item, epoch)`, so a
    /// redispatch redraws — that a claim panics inside the executor
    /// before the callback runs (a transient worker crash).
    pub panic_ppm: u32,
    /// Every `crash_job_period`-th job index (0, p, 2p, …) is a
    /// crash-looping job *class*; 0 disables. Applied by the sweep
    /// layer via [`WorkerFaultPlan::crashes_job`], so the panic flows
    /// the normal retry/quarantine path and burns real attempt budget.
    pub crash_job_period: u32,
}

impl WorkerFaultPlan {
    /// A plan that injects nothing (useful as an edit base).
    pub fn quiet(seed: u64) -> Self {
        WorkerFaultPlan {
            seed,
            hung_workers: 0,
            hang_claims: 2,
            slow_workers: 0,
            slow_delay: Duration::ZERO,
            panic_ppm: 0,
            crash_job_period: 0,
        }
    }

    /// Whether job index `job` belongs to the crash-looping class.
    pub fn crashes_job(&self, job: usize) -> bool {
        self.crash_job_period != 0 && (job as u64).is_multiple_of(u64::from(self.crash_job_period))
    }

    fn hangs(&self, worker: usize, claims: u32) -> bool {
        worker < self.hung_workers && claims < self.hang_claims
    }

    fn slows(&self, worker: usize) -> bool {
        worker >= self.hung_workers && worker < self.hung_workers + self.slow_workers
    }

    fn panics(&self, item: usize, epoch: u32) -> bool {
        if self.panic_ppm == 0 {
            return false;
        }
        let mut bytes = [0u8; 20];
        bytes[..8].copy_from_slice(&self.seed.to_le_bytes());
        bytes[8..16].copy_from_slice(&(item as u64).to_le_bytes());
        bytes[16..].copy_from_slice(&epoch.to_le_bytes());
        fnv64(&bytes) % 1_000_000 < u64::from(self.panic_ppm)
    }
}

/// Supervision and isolation policy for one [`execute`] run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExecutorOptions {
    /// Soft deadline = `deadline_factor` × the item's cost estimate.
    pub deadline_factor: u32,
    /// Fallback deadline base for items with no estimate:
    /// `adaptive_factor` × the median completed cell wall so far.
    pub adaptive_factor: u32,
    /// Every soft deadline is clamped up to at least this, so cheap
    /// cells on a noisy host are not spuriously flagged.
    pub deadline_floor: Duration,
    /// Cooperative cancellation fires at `escalate_factor` × the soft
    /// deadline (the warning fires at 1×).
    pub escalate_factor: u32,
    /// Last-resort stall bound: with no estimate *and* no completions
    /// yet (nothing to derive a deadline from), a dispatch running this
    /// long is escalated anyway. Keeps a hang on the very first claim
    /// from stalling the sweep before the cost model can boot.
    pub stall_cap: Duration,
    /// Supervisor sampling period.
    pub supervisor_tick: Duration,
    /// Cancellations an item absorbs (deadline doubling each time)
    /// before it becomes uncancellable and runs warn-only.
    pub max_cancel_requeues: u32,
    /// Worker-level faults (escaped panics, injected hangs, poisoned
    /// verdicts) a worker absorbs before quarantine.
    pub max_worker_strikes: u32,
    /// Seeded worker chaos; `None` injects nothing.
    pub fault_plan: Option<WorkerFaultPlan>,
}

impl Default for ExecutorOptions {
    fn default() -> Self {
        ExecutorOptions {
            deadline_factor: 8,
            adaptive_factor: 8,
            deadline_floor: Duration::from_millis(200),
            escalate_factor: 2,
            stall_cap: Duration::from_secs(30),
            supervisor_tick: Duration::from_millis(10),
            max_cancel_requeues: 3,
            max_worker_strikes: 3,
            fault_plan: None,
        }
    }
}

/// One schedulable item: an opaque id (the sweep maps it to a leader
/// cell) plus an optional cost estimate in wall-clock nanoseconds.
#[derive(Debug, Clone, Copy)]
pub struct ExecItem {
    /// Caller-meaningful identity, also the determinism anchor: results
    /// keyed by `id` are independent of scheduling.
    pub id: usize,
    /// Expected wall nanoseconds (cached `wall_nanos` from
    /// [`crate::runcache`]); `None` schedules ahead of every estimated
    /// item, in submission order.
    pub estimate_nanos: Option<u64>,
}

/// Context handed to the run callback for one dispatch.
#[derive(Debug)]
pub struct ExecCtx<'a> {
    /// Worker index executing this dispatch.
    pub worker: usize,
    /// Times this item has been dispatched before (any reason:
    /// requeues, cancellations, worker faults).
    pub epoch: u32,
    /// Cooperative-cancellation flag for this dispatch; install it via
    /// [`crate::system::System::set_cancel_hook`]. The supervisor sets
    /// it on deadline escalation.
    pub cancel: &'a Arc<AtomicBool>,
}

/// What one dispatch of the callback decided.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// The item is finished (result or terminal error already recorded
    /// by the callback). `poisoned` marks a panic-class failure for the
    /// worker strike counter.
    Done {
        /// Count a strike against the executing worker.
        poisoned: bool,
    },
    /// Run the item again no sooner than `backoff` from now. The worker
    /// moves on immediately — backoff parks the item, not the thread.
    Requeue {
        /// Minimum delay before redispatch.
        backoff: Duration,
        /// Count a strike against the executing worker.
        poisoned: bool,
        /// This requeue answers a supervisor cancellation (doubles the
        /// item's deadline and counts toward `max_cancel_requeues`
        /// instead of the caller's retry budget).
        cancelled: bool,
    },
}

/// Scheduling telemetry for one [`execute`] run (or, merged, for every
/// sweep a figure pipeline drove). Diagnostic only — excluded from
/// results, checkpoints, and replay hashes.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct ExecutorStats {
    /// Worker threads spawned (summed across merged runs).
    pub workers: u64,
    /// Items submitted.
    pub items: u64,
    /// Dispatches served from the worker's own deque.
    pub local_pops: u64,
    /// Dispatches stolen from another worker's deque.
    pub steals: u64,
    /// Dispatches claimed from the requeue/overflow queue.
    pub overflow_claims: u64,
    /// Items requeued by callback verdict (retry backoff and
    /// cancellations).
    pub requeues: u64,
    /// The subset of requeues answering a supervisor cancellation.
    pub cancel_requeues: u64,
    /// Soft-deadline crossings (structured warning logged).
    pub deadline_warnings: u64,
    /// Escalations to cooperative cancellation.
    pub deadline_escalations: u64,
    /// Worker faults injected by the [`WorkerFaultPlan`] (hangs, slow
    /// claims, transient panics).
    pub injected_faults: u64,
    /// Panics that escaped the callback and were absorbed by the
    /// executor's own `catch_unwind` (each requeues the item and
    /// strikes the worker).
    pub worker_panics: u64,
    /// Worker strikes accumulated (panics, hangs, poisoned verdicts).
    pub worker_strikes: u64,
    /// Workers quarantined after `max_worker_strikes`.
    pub quarantined_workers: u64,
    /// Completed-dispatch wall-time histogram; bucket upper bounds are
    /// 1, 4, 16, 64, 256, 1024, 4096, 16384 ms, then open-ended.
    pub tail_ms: [u64; 9],
    /// Structured straggler log (deadline warnings/escalations,
    /// quarantines), capped at [`ExecutorStats::MAX_WARNINGS`] lines.
    pub warnings: Vec<String>,
}

impl ExecutorStats {
    /// Cap on retained [`ExecutorStats::warnings`] lines.
    pub const MAX_WARNINGS: usize = 64;

    /// Folds `other` into `self`.
    pub fn merge(&mut self, other: &ExecutorStats) {
        // Counters sum across sweeps; `workers` is a width, not a count,
        // so the merged value is the widest sweep seen.
        self.workers = self.workers.max(other.workers);
        self.items += other.items;
        self.local_pops += other.local_pops;
        self.steals += other.steals;
        self.overflow_claims += other.overflow_claims;
        self.requeues += other.requeues;
        self.cancel_requeues += other.cancel_requeues;
        self.deadline_warnings += other.deadline_warnings;
        self.deadline_escalations += other.deadline_escalations;
        self.injected_faults += other.injected_faults;
        self.worker_panics += other.worker_panics;
        self.worker_strikes += other.worker_strikes;
        self.quarantined_workers += other.quarantined_workers;
        for (a, b) in self.tail_ms.iter_mut().zip(&other.tail_ms) {
            *a += b;
        }
        for w in &other.warnings {
            if self.warnings.len() >= Self::MAX_WARNINGS {
                break;
            }
            self.warnings.push(w.clone());
        }
    }

    /// One-line human summary; degradation classes appear only when
    /// nonzero, keeping the healthy-path line short.
    pub fn summary(&self) -> String {
        let mut s = format!(
            "workers {} | items {} | {} local / {} stolen / {} overflow | requeues {} \
             ({} cancel) | deadlines {} warned / {} escalated",
            self.workers,
            self.items,
            self.local_pops,
            self.steals,
            self.overflow_claims,
            self.requeues,
            self.cancel_requeues,
            self.deadline_warnings,
            self.deadline_escalations,
        );
        if self.worker_panics > 0 || self.quarantined_workers > 0 || self.injected_faults > 0 {
            s.push_str(&format!(
                " | FAULTS: {} worker panics, {} strikes, {} quarantined, {} injected",
                self.worker_panics,
                self.worker_strikes,
                self.quarantined_workers,
                self.injected_faults
            ));
        }
        s
    }

    /// Hand-formatted JSON object (the workspace deliberately has no
    /// JSON dependency); `indent` prefixes every inner line so callers
    /// can splice it into a larger document.
    pub fn to_json(&self, indent: &str) -> String {
        let tail = self
            .tail_ms
            .iter()
            .map(u64::to_string)
            .collect::<Vec<_>>()
            .join(", ");
        let warnings = self
            .warnings
            .iter()
            .map(|w| format!("\"{}\"", w.replace('\\', "\\\\").replace('"', "\\\"")))
            .collect::<Vec<_>>()
            .join(", ");
        format!(
            "{{\n{i}  \"workers\": {},\n{i}  \"items\": {},\n{i}  \"local_pops\": {},\n\
             {i}  \"steals\": {},\n{i}  \"overflow_claims\": {},\n{i}  \"requeues\": {},\n\
             {i}  \"cancel_requeues\": {},\n{i}  \"deadline_warnings\": {},\n\
             {i}  \"deadline_escalations\": {},\n{i}  \"injected_faults\": {},\n\
             {i}  \"worker_panics\": {},\n{i}  \"worker_strikes\": {},\n\
             {i}  \"quarantined_workers\": {},\n{i}  \"tail_ms\": [{tail}],\n\
             {i}  \"warnings\": [{warnings}]\n{i}}}",
            self.workers,
            self.items,
            self.local_pops,
            self.steals,
            self.overflow_claims,
            self.requeues,
            self.cancel_requeues,
            self.deadline_warnings,
            self.deadline_escalations,
            self.injected_faults,
            self.worker_panics,
            self.worker_strikes,
            self.quarantined_workers,
            i = indent,
        )
    }
}

// ---- internals -----------------------------------------------------------

/// A dispatchable unit flowing through deques and the overflow queue.
#[derive(Debug, Clone, Copy)]
struct Task {
    id: usize,
    /// Total prior dispatches (drives transient-fault redraws and the
    /// runaway-requeue cap).
    epoch: u32,
    /// Supervisor cancellations absorbed so far (doubles the deadline).
    cancels: u32,
    estimate: Option<u64>,
}

/// The running-slot record the supervisor samples.
#[derive(Debug)]
struct Running {
    item: usize,
    started: Instant,
    estimate: Option<u64>,
    cancels: u32,
    uncancellable: bool,
    cancel: Arc<AtomicBool>,
    warned: bool,
    escalated: bool,
}

#[derive(Default)]
struct AtomicStats {
    local_pops: AtomicU64,
    steals: AtomicU64,
    overflow_claims: AtomicU64,
    requeues: AtomicU64,
    cancel_requeues: AtomicU64,
    deadline_warnings: AtomicU64,
    deadline_escalations: AtomicU64,
    injected_faults: AtomicU64,
    worker_panics: AtomicU64,
    worker_strikes: AtomicU64,
    quarantined_workers: AtomicU64,
    tail_ms: [AtomicU64; 9],
}

struct Shared {
    opts: ExecutorOptions,
    deques: Vec<Mutex<VecDeque<Task>>>,
    /// Requeued items waiting out their backoff: `(ready_at, task)`.
    overflow: Mutex<Vec<(Instant, Task)>>,
    slots: Vec<Mutex<Option<Running>>>,
    /// Completed items (also the exit condition).
    done: AtomicUsize,
    total: usize,
    /// Workers neither exited nor quarantined — the "never quarantine
    /// the last worker" guard.
    active_workers: AtomicUsize,
    /// A worker hit the runaway-requeue cap and is propagating its
    /// panic; everyone else should wind down instead of waiting for
    /// items that will never finish.
    abort: AtomicBool,
    /// Parking lot for idle workers.
    idle: (Mutex<()>, Condvar),
    stats: AtomicStats,
    warnings: Mutex<Vec<String>>,
    /// Wall nanos of completed dispatches, for the adaptive deadline.
    completed_walls: Mutex<Vec<u64>>,
}

impl Shared {
    fn finished(&self) -> bool {
        self.done.load(Ordering::Acquire) >= self.total || self.abort.load(Ordering::Acquire)
    }

    fn warn(&self, line: String) {
        let mut w = self.warnings.lock().expect("poisoned");
        if w.len() < ExecutorStats::MAX_WARNINGS {
            w.push(line);
        }
    }

    fn requeue(&self, task: Task, backoff: Duration) {
        self.overflow
            .lock()
            .expect("poisoned")
            .push((Instant::now() + backoff, task));
        self.wake_all();
    }

    /// Wakes every thread parked on `idle`. Taking the lock first means
    /// a thread that checked its wake condition under the lock is
    /// already waiting, so the notification cannot fall between its
    /// check and its wait.
    fn wake_all(&self) {
        drop(self.idle.0.lock().expect("poisoned"));
        self.idle.1.notify_all();
    }
}

/// Dispatches worker-fault injections resolved at claim time.
enum ClaimFault {
    None,
    Hang,
    Slow(Duration),
    Panic,
}

fn claim_fault(shared: &Shared, worker: usize, claims: u32, task: &Task) -> ClaimFault {
    let Some(plan) = &shared.opts.fault_plan else {
        return ClaimFault::None;
    };
    if plan.hangs(worker, claims) {
        ClaimFault::Hang
    } else if plan.panics(task.id, task.epoch) {
        ClaimFault::Panic
    } else if plan.slows(worker) {
        ClaimFault::Slow(plan.slow_delay)
    } else {
        ClaimFault::None
    }
}

/// Runs `items` to completion across `threads` supervised work-stealing
/// workers. The callback is invoked once per dispatch with the item's
/// id and a per-dispatch [`ExecCtx`]; it owns result recording and
/// returns a [`Verdict`]. Returns when every item reports
/// [`Verdict::Done`].
///
/// # Panics
///
/// Re-raises a callback panic only after the same item has escaped
/// `catch_unwind` an implausible number of times (the runaway cap) —
/// the signature of a harness bug, not a flaky cell. Sweep callbacks
/// catch their own panics, so in practice this propagates nothing.
pub fn execute<F>(
    items: &[ExecItem],
    threads: usize,
    opts: &ExecutorOptions,
    run: F,
) -> ExecutorStats
where
    F: Fn(usize, &ExecCtx<'_>) -> Verdict + Sync,
{
    let total = items.len();
    let mut stats = ExecutorStats {
        items: total as u64,
        ..ExecutorStats::default()
    };
    if total == 0 {
        return stats;
    }
    let workers = threads.clamp(1, total);
    stats.workers = workers as u64;

    // Cost-model dispatch order: longest expected first; items with no
    // estimate lead in submission order (an unknown could be anything —
    // schedule it early so a surprise long cell starts early).
    let mut order: Vec<&ExecItem> = items.iter().collect();
    order.sort_by_key(|it| {
        (
            std::cmp::Reverse(it.estimate_nanos.unwrap_or(u64::MAX)),
            it.id,
        )
    });

    // Round-robin the ordered items across workers, then fill each
    // deque cheapest-at-front: the owner's LIFO pop takes its most
    // expensive remaining item, thieves' FIFO steals take the cheapest.
    let mut assignment: Vec<Vec<Task>> = (0..workers).map(|_| Vec::new()).collect();
    for (j, it) in order.iter().enumerate() {
        assignment[j % workers].push(Task {
            id: it.id,
            epoch: 0,
            cancels: 0,
            estimate: it.estimate_nanos,
        });
    }
    let shared = Shared {
        opts: opts.clone(),
        deques: assignment
            .into_iter()
            .map(|mut v| {
                v.reverse();
                Mutex::new(VecDeque::from(v))
            })
            .collect(),
        overflow: Mutex::new(Vec::new()),
        slots: (0..workers).map(|_| Mutex::new(None)).collect(),
        done: AtomicUsize::new(0),
        total,
        active_workers: AtomicUsize::new(workers),
        abort: AtomicBool::new(false),
        idle: (Mutex::new(()), Condvar::new()),
        stats: AtomicStats::default(),
        warnings: Mutex::new(Vec::new()),
        completed_walls: Mutex::new(Vec::new()),
    };

    std::thread::scope(|s| {
        s.spawn(|| supervise(&shared));
        for w in 0..workers {
            let shared = &shared;
            let run = &run;
            s.spawn(move || worker_loop(w, shared, run));
        }
    });

    let a = &shared.stats;
    stats.local_pops = a.local_pops.load(Ordering::Relaxed);
    stats.steals = a.steals.load(Ordering::Relaxed);
    stats.overflow_claims = a.overflow_claims.load(Ordering::Relaxed);
    stats.requeues = a.requeues.load(Ordering::Relaxed);
    stats.cancel_requeues = a.cancel_requeues.load(Ordering::Relaxed);
    stats.deadline_warnings = a.deadline_warnings.load(Ordering::Relaxed);
    stats.deadline_escalations = a.deadline_escalations.load(Ordering::Relaxed);
    stats.injected_faults = a.injected_faults.load(Ordering::Relaxed);
    stats.worker_panics = a.worker_panics.load(Ordering::Relaxed);
    stats.worker_strikes = a.worker_strikes.load(Ordering::Relaxed);
    stats.quarantined_workers = a.quarantined_workers.load(Ordering::Relaxed);
    for (dst, src) in stats.tail_ms.iter_mut().zip(&a.tail_ms) {
        *dst = src.load(Ordering::Relaxed);
    }
    stats.warnings = shared.warnings.into_inner().expect("poisoned");
    stats
}

/// An item that keeps escaping `catch_unwind` is a harness bug, not a
/// flaky cell; past this many dispatches its panic propagates.
const RUNAWAY_EPOCHS: u32 = 64;

/// What the guarded section of one dispatch produced.
enum DispatchOutcome {
    Verdict(Verdict),
    /// An injected hang was reclaimed by supervisor cancellation.
    HangReclaimed,
}

fn worker_loop<F>(w: usize, shared: &Shared, run: &F)
where
    F: Fn(usize, &ExecCtx<'_>) -> Verdict + Sync,
{
    let mut strikes = 0u32;
    let mut claims = 0u32;
    loop {
        if shared.finished() {
            break;
        }
        let Some(task) = next_task(w, shared) else {
            // Nothing claimable anywhere: park until new work is
            // requeued, the earliest overflow item ripens, or the tick
            // forces a re-scan (also the finished()-wakeup fallback).
            let wait = {
                let overflow = shared.overflow.lock().expect("poisoned");
                overflow
                    .iter()
                    .map(|(ready, _)| ready.saturating_duration_since(Instant::now()))
                    .min()
                    .unwrap_or(shared.opts.supervisor_tick)
                    .min(Duration::from_millis(50))
                    .max(Duration::from_micros(100))
            };
            let guard = shared.idle.0.lock().expect("poisoned");
            if !shared.finished() {
                let _ = shared.idle.1.wait_timeout(guard, wait).expect("poisoned");
            }
            continue;
        };

        claims += 1;
        let cancel = Arc::new(AtomicBool::new(false));
        let fault = claim_fault(shared, w, claims - 1, &task);
        *shared.slots[w].lock().expect("poisoned") = Some(Running {
            item: task.id,
            started: Instant::now(),
            estimate: task.estimate,
            cancels: task.cancels,
            uncancellable: task.cancels >= shared.opts.max_cancel_requeues,
            cancel: Arc::clone(&cancel),
            warned: false,
            escalated: false,
        });
        let t0 = Instant::now();
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            match fault {
                ClaimFault::None => {}
                ClaimFault::Hang => {
                    shared.stats.injected_faults.fetch_add(1, Ordering::Relaxed);
                    // Models a wedged cell that still reaches the
                    // watchdog gate: spin on the same flag a real
                    // attempt polls, until the supervisor reclaims us.
                    while !cancel.load(Ordering::Relaxed) && !shared.finished() {
                        std::thread::sleep(Duration::from_millis(1));
                    }
                    return DispatchOutcome::HangReclaimed;
                }
                ClaimFault::Slow(d) => {
                    shared.stats.injected_faults.fetch_add(1, Ordering::Relaxed);
                    std::thread::sleep(d);
                }
                ClaimFault::Panic => {
                    shared.stats.injected_faults.fetch_add(1, Ordering::Relaxed);
                    panic!(
                        "injected transient worker panic (worker {w}, item {})",
                        task.id
                    );
                }
            }
            let ctx = ExecCtx {
                worker: w,
                epoch: task.epoch,
                cancel: &cancel,
            };
            DispatchOutcome::Verdict(run(task.id, &ctx))
        }));
        *shared.slots[w].lock().expect("poisoned") = None;

        let struck;
        match outcome {
            Ok(DispatchOutcome::Verdict(Verdict::Done { poisoned })) => {
                let wall = t0.elapsed();
                record_completion(shared, wall);
                struck = poisoned;
                if shared.done.fetch_add(1, Ordering::AcqRel) + 1 >= shared.total {
                    shared.wake_all();
                }
            }
            Ok(DispatchOutcome::Verdict(Verdict::Requeue {
                backoff,
                poisoned,
                cancelled,
            })) => {
                shared.stats.requeues.fetch_add(1, Ordering::Relaxed);
                struck = poisoned;
                let mut next = task;
                next.epoch += 1;
                if cancelled {
                    shared.stats.cancel_requeues.fetch_add(1, Ordering::Relaxed);
                    next.cancels += 1;
                }
                shared.requeue(next, backoff);
            }
            Ok(DispatchOutcome::HangReclaimed) => {
                struck = true;
                let mut next = task;
                next.epoch += 1;
                shared.requeue(next, Duration::ZERO);
            }
            Err(payload) => {
                shared.stats.worker_panics.fetch_add(1, Ordering::Relaxed);
                struck = true;
                if task.epoch >= RUNAWAY_EPOCHS {
                    shared.abort.store(true, Ordering::Release);
                    shared.wake_all();
                    std::panic::resume_unwind(payload);
                }
                let mut next = task;
                next.epoch += 1;
                shared.requeue(next, Duration::ZERO);
            }
        }
        if struck {
            strikes += 1;
            shared.stats.worker_strikes.fetch_add(1, Ordering::Relaxed);
            if strikes >= shared.opts.max_worker_strikes
                && shared.active_workers.load(Ordering::Acquire) > 1
            {
                quarantine_worker(w, shared);
                break;
            }
        }
    }
}

/// Quarantines worker `w`: its deque drains to the overflow queue
/// (ready immediately) for the surviving workers, and the worker exits.
fn quarantine_worker(w: usize, shared: &Shared) {
    let drained: Vec<Task> = shared.deques[w]
        .lock()
        .expect("poisoned")
        .drain(..)
        .collect();
    let n = drained.len();
    {
        let mut overflow = shared.overflow.lock().expect("poisoned");
        let now = Instant::now();
        for t in drained {
            overflow.push((now, t));
        }
    }
    shared.active_workers.fetch_sub(1, Ordering::AcqRel);
    shared
        .stats
        .quarantined_workers
        .fetch_add(1, Ordering::Relaxed);
    shared.warn(format!(
        "worker {w}: quarantined after {} strikes; {n} queued item(s) drained to survivors",
        shared.opts.max_worker_strikes
    ));
    shared.wake_all();
}

fn record_completion(shared: &Shared, wall: Duration) {
    let ms = wall.as_millis() as u64;
    let bucket = [1u64, 4, 16, 64, 256, 1024, 4096, 16384]
        .iter()
        .position(|&ub| ms <= ub)
        .unwrap_or(8);
    shared.stats.tail_ms[bucket].fetch_add(1, Ordering::Relaxed);
    shared
        .completed_walls
        .lock()
        .expect("poisoned")
        .push(wall.as_nanos() as u64);
}

/// Claim priority: own deque (LIFO — most expensive remaining), then
/// the overflow queue (earliest ready item), then a steal sweep (FIFO —
/// the victim's cheapest).
fn next_task(w: usize, shared: &Shared) -> Option<Task> {
    if let Some(t) = shared.deques[w].lock().expect("poisoned").pop_back() {
        shared.stats.local_pops.fetch_add(1, Ordering::Relaxed);
        return Some(t);
    }
    {
        let mut overflow = shared.overflow.lock().expect("poisoned");
        let now = Instant::now();
        let ready = overflow
            .iter()
            .enumerate()
            .filter(|(_, (ready_at, _))| *ready_at <= now)
            .min_by_key(|(_, (ready_at, t))| (*ready_at, t.id))
            .map(|(idx, _)| idx);
        if let Some(idx) = ready {
            let (_, t) = overflow.swap_remove(idx);
            shared.stats.overflow_claims.fetch_add(1, Ordering::Relaxed);
            return Some(t);
        }
    }
    let n = shared.deques.len();
    for off in 1..n {
        let v = (w + off) % n;
        if let Some(t) = shared.deques[v].lock().expect("poisoned").pop_front() {
            shared.stats.steals.fetch_add(1, Ordering::Relaxed);
            return Some(t);
        }
    }
    None
}

/// The supervisor: samples every running slot each tick, derives the
/// effective deadline (estimate-based, adaptive-median fallback, or the
/// last-resort stall cap), logs a structured warning at 1× and issues
/// cooperative cancellation at `escalate_factor`×.
fn supervise(shared: &Shared) {
    let opts = &shared.opts;
    loop {
        // Sleep one tick on the parking lot rather than the clock: the
        // last completion wakes it, so joining the sweep never waits out
        // the rest of a tick.
        {
            let guard = shared.idle.0.lock().expect("poisoned");
            if shared.finished() {
                break;
            }
            let _ = shared
                .idle
                .1
                .wait_timeout(guard, opts.supervisor_tick)
                .expect("poisoned");
        }
        if shared.finished() {
            break;
        }
        let median = {
            let walls = shared.completed_walls.lock().expect("poisoned");
            if walls.is_empty() {
                None
            } else {
                let mut sorted = walls.clone();
                sorted.sort_unstable();
                Some(sorted[sorted.len() / 2])
            }
        };
        for (w, slot) in shared.slots.iter().enumerate() {
            let mut guard = slot.lock().expect("poisoned");
            let Some(r) = guard.as_mut() else { continue };
            let elapsed = r.started.elapsed();
            let base = r
                .estimate
                .map(|n| Duration::from_nanos(n).saturating_mul(opts.deadline_factor))
                .or_else(|| {
                    median.map(|m| Duration::from_nanos(m).saturating_mul(opts.adaptive_factor))
                })
                .map(|d| d.max(opts.deadline_floor));
            // A cancelled-and-requeued item earns a doubled deadline per
            // absorbed cancellation.
            let scale = 1u32 << r.cancels.min(16);
            let (warn_at, cancel_at) = match base {
                Some(b) => {
                    let eff = b.saturating_mul(scale);
                    (eff, eff.saturating_mul(opts.escalate_factor.max(1)))
                }
                // No cost model yet: only the last-resort stall cap.
                None => (opts.stall_cap, opts.stall_cap),
            };
            let (warn_at, cancel_at) = (warn_at.min(opts.stall_cap), cancel_at.min(opts.stall_cap));
            if !r.warned && elapsed >= warn_at {
                r.warned = true;
                shared
                    .stats
                    .deadline_warnings
                    .fetch_add(1, Ordering::Relaxed);
                shared.warn(format!(
                    "worker {w}: item {} exceeded its {warn_at:?} soft deadline ({} prior \
                     cancellation(s))",
                    r.item, r.cancels
                ));
            }
            if !r.escalated && !r.uncancellable && elapsed >= cancel_at {
                r.escalated = true;
                r.cancel.store(true, Ordering::Release);
                shared
                    .stats
                    .deadline_escalations
                    .fetch_add(1, Ordering::Relaxed);
                shared.warn(format!(
                    "worker {w}: item {} straggling past {cancel_at:?}; cooperative \
                     cancellation issued",
                    r.item
                ));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_opts() -> ExecutorOptions {
        ExecutorOptions {
            deadline_floor: Duration::from_millis(40),
            stall_cap: Duration::from_millis(200),
            supervisor_tick: Duration::from_millis(2),
            ..ExecutorOptions::default()
        }
    }

    #[test]
    fn threads_env_overrides_detection() {
        // Serialized with itself only; nothing else in this binary
        // reads the variable.
        std::env::set_var(THREADS_ENV, "3");
        assert_eq!(default_threads(), 3);
        std::env::set_var(THREADS_ENV, "not a number");
        assert!(default_threads() >= 1);
        std::env::remove_var(THREADS_ENV);
        assert!(default_threads() >= 1);
    }

    #[test]
    fn single_worker_dispatch_is_longest_estimate_first() {
        let items = [
            ExecItem {
                id: 0,
                estimate_nanos: Some(10),
            },
            ExecItem {
                id: 1,
                estimate_nanos: Some(30),
            },
            ExecItem {
                id: 2,
                estimate_nanos: None,
            },
            ExecItem {
                id: 3,
                estimate_nanos: Some(20),
            },
        ];
        let order = Mutex::new(Vec::new());
        let stats = execute(&items, 1, &quick_opts(), |id, _| {
            order.lock().expect("poisoned").push(id);
            Verdict::Done { poisoned: false }
        });
        // No-estimate items lead (in submission order), then descending
        // estimate.
        assert_eq!(*order.lock().expect("poisoned"), vec![2, 1, 3, 0]);
        assert_eq!(stats.items, 4);
        assert_eq!(stats.local_pops, 4);
        assert_eq!(stats.steals, 0);
    }

    #[test]
    fn execute_returns_without_waiting_out_a_supervisor_tick() {
        // The last completion wakes the supervisor, so a batch that
        // finishes at once returns long before one tick has passed.
        let opts = ExecutorOptions {
            supervisor_tick: Duration::from_secs(5),
            ..ExecutorOptions::default()
        };
        let items: Vec<ExecItem> = (0..4)
            .map(|id| ExecItem {
                id,
                estimate_nanos: None,
            })
            .collect();
        for threads in [1, 2] {
            let t = Instant::now();
            let stats = execute(&items, threads, &opts, |_, _| Verdict::Done {
                poisoned: false,
            });
            assert_eq!(stats.items, 4);
            assert!(
                t.elapsed() < Duration::from_secs(1),
                "{threads} worker(s): took {:?}",
                t.elapsed()
            );
        }
    }

    #[test]
    fn idle_workers_steal_from_the_loaded_deque() {
        // Worker 0 owns the one big item (plus half the small ones);
        // worker 1 drains its own small items and then must steal.
        let items: Vec<ExecItem> = (0..10)
            .map(|id| ExecItem {
                id,
                estimate_nanos: Some(if id == 0 { 1_000_000_000 } else { 1_000 }),
            })
            .collect();
        let stats = execute(&items, 2, &quick_opts(), |id, _| {
            std::thread::sleep(Duration::from_millis(if id == 0 { 60 } else { 1 }));
            Verdict::Done { poisoned: false }
        });
        assert_eq!(stats.tail_ms.iter().sum::<u64>(), 10, "all items complete");
        assert!(stats.steals >= 1, "expected steals, got {stats:?}");
    }

    #[test]
    fn requeue_backoff_parks_the_item_not_the_worker() {
        // One item retries with a long backoff; the healthy items fill
        // the wait. Were the worker sleeping the backoff inline (the old
        // sweep behavior), total wall would be ≥ backoff + total work.
        let items: Vec<ExecItem> = (0..5)
            .map(|id| ExecItem {
                id,
                estimate_nanos: None,
            })
            .collect();
        let t0 = Instant::now();
        let stats = execute(&items, 1, &quick_opts(), |id, ctx| {
            if id == 0 && ctx.epoch == 0 {
                return Verdict::Requeue {
                    backoff: Duration::from_millis(120),
                    poisoned: false,
                    cancelled: false,
                };
            }
            std::thread::sleep(Duration::from_millis(40));
            Verdict::Done { poisoned: false }
        });
        let wall = t0.elapsed();
        assert_eq!(stats.requeues, 1);
        assert_eq!(stats.overflow_claims, 1);
        // 5 × 40 ms of work alone covers the 120 ms backoff; inline
        // sleeping would push past 320 ms. Generous margin for CI noise.
        assert!(
            wall < Duration::from_millis(310),
            "requeue backoff appears to have blocked the worker: {wall:?}"
        );
    }

    #[test]
    fn striking_worker_is_quarantined_and_items_survive() {
        // Worker 0 panics on every claim; worker 1 is healthy but holds
        // its first item until worker 0 has panicked twice, so worker 0
        // keeps claiming until quarantined however long a panic takes
        // (printing a backtrace can outlast the whole batch).
        let items: Vec<ExecItem> = (0..12)
            .map(|id| ExecItem {
                id,
                estimate_nanos: None,
            })
            .collect();
        let opts = ExecutorOptions {
            max_worker_strikes: 2,
            ..quick_opts()
        };
        let panics = AtomicUsize::new(0);
        let completed = Mutex::new(Vec::new());
        let stats = execute(&items, 2, &opts, |id, ctx| {
            if ctx.worker == 0 {
                panics.fetch_add(1, Ordering::SeqCst);
                panic!("poisoned worker");
            }
            let t = Instant::now();
            while panics.load(Ordering::SeqCst) < 2 && t.elapsed() < Duration::from_secs(10) {
                std::thread::sleep(Duration::from_millis(1));
            }
            std::thread::sleep(Duration::from_millis(3));
            completed.lock().expect("poisoned").push(id);
            Verdict::Done { poisoned: false }
        });
        let mut done = completed.into_inner().expect("poisoned");
        done.sort_unstable();
        assert_eq!(done, (0..12).collect::<Vec<_>>(), "no item may be lost");
        assert_eq!(stats.quarantined_workers, 1, "{stats:?}");
        assert!(stats.worker_panics >= 2, "{stats:?}");
    }

    #[test]
    fn straggler_is_warned_then_cancelled_then_completes() {
        let items: Vec<ExecItem> = (0..4)
            .map(|id| ExecItem {
                id,
                estimate_nanos: None,
            })
            .collect();
        let opts = ExecutorOptions {
            stall_cap: Duration::from_millis(80),
            supervisor_tick: Duration::from_millis(2),
            ..quick_opts()
        };
        let stats = execute(&items, 2, &opts, |id, ctx| {
            if id == 0 && ctx.epoch == 0 {
                // A cell that honors the watchdog hook but never ends on
                // its own — reclaimable only by cancellation.
                while !ctx.cancel.load(Ordering::Relaxed) {
                    std::thread::sleep(Duration::from_millis(1));
                }
                return Verdict::Requeue {
                    backoff: Duration::ZERO,
                    poisoned: false,
                    cancelled: true,
                };
            }
            Verdict::Done { poisoned: false }
        });
        assert!(stats.deadline_warnings >= 1, "{stats:?}");
        assert_eq!(stats.deadline_escalations, 1, "{stats:?}");
        assert_eq!(stats.cancel_requeues, 1, "{stats:?}");
        assert_eq!(stats.tail_ms.iter().sum::<u64>(), 4);
        assert!(!stats.warnings.is_empty());
    }

    #[test]
    fn fault_plan_draws_are_deterministic_and_bounded() {
        let plan = WorkerFaultPlan {
            panic_ppm: 300_000,
            crash_job_period: 3,
            ..WorkerFaultPlan::quiet(0xFA17)
        };
        for item in 0..32 {
            for epoch in 0..4 {
                assert_eq!(plan.panics(item, epoch), plan.panics(item, epoch));
            }
        }
        assert!(plan.crashes_job(0));
        assert!(!plan.crashes_job(1));
        assert!(plan.crashes_job(6));
        assert!(!WorkerFaultPlan::quiet(1).crashes_job(0));
        // A transient draw must redraw per epoch: with 30% ppm, some
        // (item, epoch) pair differs from epoch 0 over 32 items.
        assert!((0..32).any(|i| plan.panics(i, 0) != plan.panics(i, 1)));
    }

    #[test]
    fn hung_worker_is_reclaimed_and_sweep_completes() {
        let items: Vec<ExecItem> = (0..8)
            .map(|id| ExecItem {
                id,
                estimate_nanos: None,
            })
            .collect();
        let opts = ExecutorOptions {
            stall_cap: Duration::from_millis(60),
            supervisor_tick: Duration::from_millis(2),
            max_worker_strikes: 2,
            fault_plan: Some(WorkerFaultPlan {
                hung_workers: 1,
                hang_claims: 2,
                ..WorkerFaultPlan::quiet(7)
            }),
            ..ExecutorOptions::default()
        };
        let stats = execute(&items, 3, &opts, |_, _| {
            std::thread::sleep(Duration::from_millis(2));
            Verdict::Done { poisoned: false }
        });
        assert_eq!(stats.tail_ms.iter().sum::<u64>(), 8, "all items complete");
        assert!(stats.deadline_escalations >= 1, "{stats:?}");
        assert!(stats.worker_strikes >= 1, "{stats:?}");
        assert!(stats.injected_faults >= 1, "{stats:?}");
    }

    #[test]
    fn stats_merge_and_render() {
        let mut a = ExecutorStats {
            workers: 2,
            items: 10,
            steals: 3,
            requeues: 1,
            warnings: vec!["w".into()],
            ..ExecutorStats::default()
        };
        let b = ExecutorStats {
            workers: 4,
            items: 6,
            deadline_escalations: 2,
            tail_ms: [1, 0, 0, 0, 0, 0, 0, 0, 1],
            ..ExecutorStats::default()
        };
        a.merge(&b);
        assert_eq!(a.workers, 4, "workers merge as max, not sum");
        assert_eq!(a.items, 16);
        assert_eq!(a.deadline_escalations, 2);
        assert_eq!(a.tail_ms[0], 1);
        let json = a.to_json("  ");
        assert!(json.contains("\"steals\": 3"), "{json}");
        assert!(json.contains("\"deadline_escalations\": 2"), "{json}");
        assert!(a.summary().contains("escalated"));
    }
}
