//! Scoped-thread pool for sweep matrices.
//!
//! [`execute`] runs the deduplicated leader cells of
//! [`crate::sweep::run_many_resilient`]. Sweep cells are independent and
//! deterministic, and they vary more than 2× in cost (see
//! `BENCH_simwall.json`), so the pool only has to keep every worker busy
//! until the longest cells are done: it sorts the items longest cached
//! estimate first and lets `threads` workers claim the next index from
//! one atomic cursor. A retry runs in place, inside the callback, on the
//! worker that saw the failure.
//!
//! **Determinism argument.** The pool decides only *where and when* an
//! item runs, never *what it computes*: each item's result lands in its
//! own pre-assigned output slot and the simulator is deterministic per
//! attempt, so results are bit-identical across any thread count —
//! pinned by the thread-matrix proptests in
//! `crates/core/tests/executor.rs`.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

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

/// Scheduling telemetry for one [`execute`] run (or, merged, for every
/// sweep a figure pipeline drove). Diagnostic only — excluded from
/// results, checkpoints, and replay hashes.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct ExecutorStats {
    /// Worker threads spawned (the widest sweep when merged).
    pub workers: u64,
    /// Items submitted.
    pub items: u64,
    /// Always 0: the pool has no per-worker queues to steal from. Kept
    /// so existing readers of the telemetry keep parsing.
    pub steals: u64,
    /// Attempts re-run in place after a retryable failure. Filled in by
    /// the sweep, which owns the retry budget.
    pub requeues: u64,
    /// Item wall-time histogram; bucket upper bounds are 1, 4, 16, 64,
    /// 256, 1024, 4096, 16384 ms, then open-ended.
    pub tail_ms: [u64; 9],
}

impl ExecutorStats {
    /// Folds `other` into `self`.
    pub fn merge(&mut self, other: &ExecutorStats) {
        // `workers` is a width, not a count: the merged value is the
        // widest sweep seen.
        self.workers = self.workers.max(other.workers);
        self.items += other.items;
        self.steals += other.steals;
        self.requeues += other.requeues;
        for (a, b) in self.tail_ms.iter_mut().zip(&other.tail_ms) {
            *a += b;
        }
    }

    /// One-line human summary.
    pub fn summary(&self) -> String {
        format!(
            "workers {} | items {} | requeues {}",
            self.workers, self.items, self.requeues
        )
    }

    /// Hand-formatted JSON object (the workspace deliberately has no
    /// JSON dependency); `indent` prefixes every inner line so callers
    /// can splice it into a larger document.
    pub fn to_json(&self, indent: &str) -> String {
        let tail = self.tail_ms.map(|n| n.to_string()).join(", ");
        format!(
            "{{\n{i}  \"workers\": {},\n{i}  \"items\": {},\n{i}  \"steals\": {},\n\
             {i}  \"requeues\": {},\n{i}  \"tail_ms\": [{tail}]\n{i}}}",
            self.workers,
            self.items,
            self.steals,
            self.requeues,
            i = indent,
        )
    }
}

/// Runs `run(id)` once for every item on `threads` scoped workers
/// (clamped to `1..=items.len()`), longest estimate first; items with no
/// estimate lead in submission order, since an unknown could be anything
/// and a surprise long cell should start early. The callback owns result
/// recording and retries.
///
/// # Panics
///
/// Re-raises the first panic that escapes the callback, after every
/// worker has stopped; the other workers claim no further items once it
/// happens. Sweep callbacks catch their own panics, so in practice this
/// propagates nothing.
pub fn execute<F>(items: &[ExecItem], threads: usize, run: F) -> ExecutorStats
where
    F: Fn(usize) + Sync,
{
    let n = items.len();
    let mut stats = ExecutorStats {
        items: n as u64,
        ..ExecutorStats::default()
    };
    if n == 0 {
        return stats;
    }
    let workers = threads.clamp(1, n);
    stats.workers = workers as u64;
    let mut order: Vec<&ExecItem> = items.iter().collect();
    order.sort_by_key(|it| {
        (
            std::cmp::Reverse(it.estimate_nanos.unwrap_or(u64::MAX)),
            it.id,
        )
    });
    // `Relaxed` suffices: the cursor only hands out distinct indices
    // into `order`, which every worker reads but none writes.
    let next = AtomicUsize::new(0);
    let worker = || {
        let mut tail = [0u64; 9];
        while let Some(item) = order.get(next.fetch_add(1, Ordering::Relaxed)) {
            let t0 = Instant::now();
            if let Err(payload) =
                std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| run(item.id)))
            {
                next.store(n, Ordering::Relaxed);
                std::panic::resume_unwind(payload);
            }
            let ms = t0.elapsed().as_millis();
            let bucket = [1, 4, 16, 64, 256, 1024, 4096, 16384].partition_point(|&ub| ms > ub);
            tail[bucket] += 1;
        }
        tail
    };
    let joined: Vec<_> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..workers).map(|_| s.spawn(worker)).collect();
        handles.into_iter().map(|h| h.join()).collect()
    });
    for tail in joined {
        let tail = tail.unwrap_or_else(|payload| std::panic::resume_unwind(payload));
        for (a, b) in stats.tail_ms.iter_mut().zip(tail) {
            *a += b;
        }
    }
    stats
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU32;
    use std::sync::Mutex;

    fn unestimated(n: usize) -> Vec<ExecItem> {
        (0..n)
            .map(|id| ExecItem {
                id,
                estimate_nanos: None,
            })
            .collect()
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
        let stats = execute(&items, 1, |id| order.lock().expect("poisoned").push(id));
        // No-estimate items lead (in submission order), then descending
        // estimate.
        assert_eq!(*order.lock().expect("poisoned"), vec![2, 1, 3, 0]);
        assert_eq!(stats.items, 4);
        assert_eq!(stats.steals, 0);
    }

    #[test]
    fn every_item_runs_exactly_once_at_any_worker_count() {
        for n in [0usize, 1, 5, 40] {
            for threads in [1usize, 2, 7, 16] {
                let runs: Vec<AtomicU32> = (0..n).map(|_| AtomicU32::new(0)).collect();
                let stats = execute(&unestimated(n), threads, |id| {
                    runs[id].fetch_add(1, Ordering::Relaxed);
                });
                let counts: Vec<u32> = runs.iter().map(|r| r.load(Ordering::Relaxed)).collect();
                assert_eq!(counts, vec![1; n], "n={n} threads={threads}");
                assert_eq!(stats.items, n as u64);
                assert_eq!(
                    stats.workers,
                    threads.min(n) as u64,
                    "n={n} threads={threads}"
                );
                assert_eq!(stats.tail_ms.iter().sum::<u64>(), n as u64);
            }
        }
    }

    #[test]
    fn a_panic_escaping_the_callback_propagates() {
        let items = unestimated(32);
        let payload = std::panic::catch_unwind(|| {
            execute(&items, 4, |id| {
                if id == 3 {
                    panic!("cell 3 escaped");
                }
            })
        })
        .expect_err("the panic must reach the caller");
        assert_eq!(payload.downcast_ref::<&str>(), Some(&"cell 3 escaped"));
    }

    #[test]
    fn stats_merge_and_render() {
        let mut a = ExecutorStats {
            workers: 2,
            items: 10,
            requeues: 1,
            ..ExecutorStats::default()
        };
        let b = ExecutorStats {
            workers: 4,
            items: 6,
            requeues: 2,
            tail_ms: [1, 0, 0, 0, 0, 0, 0, 0, 1],
            ..ExecutorStats::default()
        };
        a.merge(&b);
        assert_eq!(a.workers, 4, "workers merge as max, not sum");
        assert_eq!(a.items, 16);
        assert_eq!(a.requeues, 3);
        assert_eq!(a.tail_ms[0], 1);
        let json = a.to_json("  ");
        assert!(json.contains("\"steals\": 0"), "{json}");
        assert!(
            json.contains("\"tail_ms\": [1, 0, 0, 0, 0, 0, 0, 0, 1]"),
            "{json}"
        );
        assert_eq!(a.summary(), "workers 4 | items 16 | requeues 3");
    }
}
