//! The four benchmark workloads, driven through the public API of
//! `refsim-core`, `refsim-os` and `refsim-dram`.
//!
//! Each workload is a closed batch: a pass submits its cells and waits
//! for all of them. A pass returns the end-to-end figures ([`Pass`]) and
//! what the traced run needs to attribute them to layers ([`Detail`]).

use std::collections::{BTreeMap, HashMap};
use std::panic::AssertUnwindSafe;
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use refsim_core::config::SystemConfig;
use refsim_core::error::RefsimError;
use refsim_core::executor::ExecutorStats;
use refsim_core::experiment::{self as exp, ExpOptions, Job, RunPool, Scheme, Telemetry};
use refsim_core::metrics::{gmean, RunMetrics};
use refsim_core::report::Table;
use refsim_core::runcache::{job_fingerprint, CacheEntry, CacheStats, RunCache};
use refsim_core::sanitize::AuditLevel;
use refsim_core::system::{EngineStats, System};
use refsim_dram::timing::{Density, Retention};
use refsim_os::bank_alloc::{BankAllocStats, PAGE_BYTES};
use refsim_workloads::profiles::Benchmark;

use crate::measure::{self, median, quantile};
use crate::trace::{SpanId, Tracer};

/// Per-layer metric values by name.
pub type Layers = BTreeMap<String, f64>;

/// The paper's co-design gain over all-bank refresh at 32 Gb, in
/// percent: Figure 10 (64 ms retention) and Figure 13 (32 ms).
const PAPER_GAIN_64MS_PCT: f64 = 16.2;
const PAPER_GAIN_32MS_PCT: f64 = 34.1;

/// Time-scale divisor of the figure pipeline workloads.
const FIGURES_SCALE: u32 = 512;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// What a user pays for every figure after any model change; the
    /// only workload that writes the run cache.
    FiguresCold,
    /// The same pipeline served from a filled cache: moves with Figure 5
    /// and cache reads, and must not move with engine speed.
    FiguresWarm,
    /// The paper's headline panel: nearly all of its time is the step
    /// loop, CPU model, controller and refresh policies.
    Fig10,
    /// DRAM-clock pitch with the sanitizer and retention oracle on: the
    /// only workload where event-skip elides most steps and the
    /// sanitizer runs.
    AuditHifi,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::FiguresCold,
        Workload::FiguresWarm,
        Workload::Fig10,
        Workload::AuditHifi,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::FiguresCold => "figures_cold",
            Workload::FiguresWarm => "figures_warm",
            Workload::Fig10 => "fig10_32gb",
            Workload::AuditHifi => "audit_hifi",
        }
    }

    pub fn parse(s: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == s)
    }

    /// Time-scale divisor of the workload's cells.
    pub fn time_scale(self) -> u32 {
        options(self, 0, 1).time_scale
    }
}

/// The experiment options of a workload; the seed reaches the program
/// only through [`ExpOptions::seed`].
fn options(w: Workload, seed: u64, workers: usize) -> ExpOptions {
    let mut o = match w {
        Workload::FiguresCold | Workload::FiguresWarm => {
            let mut o = ExpOptions::quick();
            o.time_scale = FIGURES_SCALE;
            o
        }
        Workload::Fig10 => ExpOptions::full(),
        Workload::AuditHifi => ExpOptions::quick(),
    };
    o.seed = seed;
    o.threads = workers;
    o
}

/// The cells of the simulation workloads, scheme-major: all mixes under
/// the first scheme, then all under the next.
fn jobs(w: Workload, o: &ExpOptions) -> Vec<Job> {
    let (base, schemes): (SystemConfig, &[Scheme]) = match w {
        Workload::Fig10 => (
            o.base_config().with_density(Density::Gb32),
            &[Scheme::AllBank, Scheme::PerBank, Scheme::CoDesign],
        ),
        Workload::AuditHifi => {
            let base = o
                .base_config()
                .with_density(Density::Gb32)
                .with_retention(Retention::Ms32);
            let tck = base.timing_params().tck;
            (
                base.with_step(tck)
                    .with_audit(AuditLevel::Full)
                    .with_retention_tracking(),
                &[Scheme::AllBank, Scheme::CoDesign],
            )
        }
        Workload::FiguresCold | Workload::FiguresWarm => return Vec::new(),
    };
    schemes
        .iter()
        .flat_map(|s| {
            o.workloads.iter().map(|m| Job {
                cfg: s.apply(&base),
                mix: m.clone(),
            })
        })
        .collect()
}

/// A workload's inputs, built during set-up.
#[derive(Debug)]
pub struct Prepared {
    pub workload: Workload,
    pub opts: ExpOptions,
    pub jobs: Vec<Job>,
    /// `figures_warm`: the filled cache and the cold pass that filled it.
    pub warm: Option<(RunCache, Pass)>,
}

/// Set-up: options, jobs and, for `figures_warm`, a cache filled by one
/// cold pass of the pipeline into `cache_dir`.
pub fn prepare(w: Workload, seed: u64, workers: usize, cache_dir: &Path) -> Prepared {
    let opts = options(w, seed, workers);
    let jobs = jobs(w, &opts);
    let warm = (w == Workload::FiguresWarm).then(|| {
        let cache = fresh_cache(cache_dir);
        let (pass, _) = figures_pass(&opts, &cache, &Tracer::new(false), None);
        (cache, pass)
    });
    Prepared {
        workload: w,
        opts,
        jobs,
        warm,
    }
}

/// An empty run-cache directory at `dir`.
pub fn fresh_cache(dir: &Path) -> RunCache {
    let _ = std::fs::remove_dir_all(dir);
    std::fs::create_dir_all(dir).expect("create run-cache directory in the work area");
    RunCache::new(dir)
}

/// End-to-end figures of one pass.
#[derive(Debug, Clone, Default)]
pub struct Pass {
    pub wall_s: f64,
    pub cpu_s: f64,
    /// Result cells delivered to the builders (executed or cached).
    pub cells: u64,
    /// Distinct cells attempted.
    pub attempted: u64,
    /// Attempted cells that returned `Err` (error or violation).
    pub failed: u64,
    /// Simulated measured-phase instructions of the attempted cells.
    pub sim_instr: u64,
    /// Simulated warm-up plus measured milliseconds of those cells.
    pub sim_ms: f64,
    /// Digest of the cells' `RunMetrics` in job order (fingerprint
    /// order for the figure pipeline, whose job order is internal).
    pub digest: u64,
    /// Rendered markdown of the figure pipeline (empty otherwise).
    pub markdown: String,
    /// Geometric-mean speedups over all-bank on the 32 Gb cells:
    /// per-bank (`NaN` where the workload has none) and co-design.
    pub per_bank: f64,
    pub co_design: f64,
    /// Sanitizer findings of every cell.
    pub violations: u64,
}

impl Pass {
    /// Distance in percentage points between the measured co-design
    /// gain on the 32 Gb cells and the paper's figure for the same
    /// retention (Figure 10 at 64 ms, Figure 13 at 32 ms).
    pub fn paper_gap_pp(&self, w: Workload) -> f64 {
        let paper = if w == Workload::AuditHifi {
            PAPER_GAIN_32MS_PCT
        } else {
            PAPER_GAIN_64MS_PCT
        };
        (paper - (self.co_design - 1.0) * 100.0).abs()
    }
}

/// One cell run by the benchmark itself, with each System call timed.
#[derive(Debug)]
pub struct CellRun {
    pub result: Result<RunMetrics, RefsimError>,
    pub wall_s: f64,
    pub new_s: f64,
    pub warm_s: f64,
    pub measure_s: f64,
    pub finish_s: f64,
    pub collect_s: f64,
    pub engine: EngineStats,
    pub alloc: BankAllocStats,
    pub violations: u64,
}

/// What a pass leaves for layer attribution.
#[derive(Debug, Default)]
pub struct Detail {
    pub collect_s: f64,
    pub execute_s: f64,
    pub render_s: f64,
    /// Per section: (name, collect seconds, render seconds).
    pub sections: Vec<(&'static str, f64, f64)>,
    pub requested: u64,
    pub unique: u64,
    pub cache: CacheStats,
    pub exec: ExecutorStats,
    /// Results in job order (simulation workloads).
    pub results: Vec<Result<RunMetrics, RefsimError>>,
    /// Cells run by the benchmark itself (`audit_hifi`).
    pub cells: Vec<CellRun>,
    /// Cache entries after the pass (figure pipeline), by fingerprint.
    pub entries: Vec<(u64, CacheEntry, u64)>,
}

type Builder = fn(&ExpOptions) -> Vec<Table>;

/// The `all_figures` sections, in its order, under their metric names.
const SECTIONS: [(&str, Builder); 12] = [
    ("table01", |o| vec![exp::table01(o)]),
    ("table02", |o| vec![exp::table02(o)]),
    ("fig03", |o| vec![exp::figure03(o)]),
    ("fig04", |o| vec![exp::figure04(o)]),
    ("fig05", |_| vec![exp::figure05()]),
    ("fig10", exp::figure10),
    ("fig11", |o| vec![exp::figure11(o)]),
    ("fig12", |o| vec![exp::figure12(o)]),
    ("fig13", exp::figure13),
    ("fig14", |o| vec![exp::figure14(o)]),
    ("fig15", |o| vec![exp::figure15(o)]),
    ("ablation", |o| vec![exp::ablation(o)]),
];

/// One timed pass of the prepared workload. `cache` is the empty cache
/// directory a `figures_cold` pass writes.
pub fn run_pass(
    p: &Prepared,
    cache: Option<&RunCache>,
    tr: &Tracer,
    parent: Option<SpanId>,
) -> (Pass, Detail) {
    match p.workload {
        Workload::FiguresCold => figures_pass(
            &p.opts,
            cache.expect("a figures_cold pass needs an empty cache"),
            tr,
            parent,
        ),
        Workload::FiguresWarm => {
            let (cache, _) = p.warm.as_ref().expect("prepared with a filled cache");
            figures_pass(&p.opts, cache, tr, parent)
        }
        Workload::Fig10 | Workload::AuditHifi => simulation_pass(p, tr, parent),
    }
}

/// The `all_figures` pipeline: collect pass over every section, one
/// shared [`RunPool::execute`], render pass.
fn figures_pass(
    opts: &ExpOptions,
    cache: &RunCache,
    tr: &Tracer,
    parent: Option<SpanId>,
) -> (Pass, Detail) {
    let mut o = opts.clone();
    o.cache = Some(cache.clone());
    o.telemetry = Telemetry::default();
    let pool = Arc::new(RunPool::new());
    o.pool = Some(Arc::clone(&pool));
    let mut d = Detail::default();
    let cpu0 = measure::cpu_seconds();
    let (markdown, wall_s) = tr.time("pass", parent, |p| {
        std::panic::catch_unwind(AssertUnwindSafe(|| {
            let mut collect = Vec::new();
            d.collect_s = tr
                .time("experiment.collect", p, |p| {
                    for (name, build) in SECTIONS {
                        let span = format!("experiment.{name}.collect");
                        collect.push(tr.time(&span, p, |_| drop(build(&o))).1);
                    }
                })
                .1;
            d.unique = pool.unique_jobs() as u64;
            d.execute_s = tr.time("experiment.execute", p, |_| pool.execute(&o)).1;
            // The header of the `all_figures` binary, so the markdown is
            // byte-identical to its standard output.
            let mut md = format!(
                "# refsim — full evaluation run\n\n\
                 time-scale 1/{}, {} workloads, {} measured window(s), seed {:#x}\n\n",
                o.time_scale,
                o.workloads.len(),
                o.measure_windows,
                o.seed
            );
            d.render_s = tr
                .time("experiment.render", p, |p| {
                    for ((name, build), c) in SECTIONS.into_iter().zip(collect) {
                        let span = format!("experiment.{name}.render");
                        let (tables, r) = tr.time(&span, p, |_| build(&o));
                        d.sections.push((name, c, r));
                        for t in &tables {
                            md.push_str(&t.to_markdown());
                            md.push('\n');
                        }
                    }
                })
                .1;
            md
        }))
    });
    let cpu_s = measure::cpu_seconds() - cpu0;
    d.cache = o.telemetry.snapshot();
    d.exec = o.telemetry.exec_snapshot();
    d.requested = d.cache.requested;
    d.entries = scan_cache(cache.dir());

    let by_fp: HashMap<u64, &RunMetrics> = d
        .entries
        .iter()
        .map(|(fp, e, _)| (*fp, &e.metrics))
        .collect();
    let results: Vec<Result<RunMetrics, RefsimError>> = d
        .entries
        .iter()
        .map(|(_, e, _)| Ok(e.metrics.clone()))
        .collect();
    let windows = f64::from(o.warm_windows + o.measure_windows) / f64::from(o.measure_windows);
    let base = o.base_config().with_density(Density::Gb32);
    let panel = |s: Scheme| -> Vec<Option<&RunMetrics>> {
        o.workloads
            .iter()
            .map(|m| by_fp.get(&job_fingerprint(&s.apply(&base), m)).copied())
            .collect()
    };
    let all_bank = panel(Scheme::AllBank);
    let pass = Pass {
        wall_s,
        cpu_s,
        cells: d.requested,
        attempted: d.unique,
        // Every cell of the pipeline is cacheable, so a cell without a
        // valid entry after the pass is a cell that failed; a builder
        // that panicked on a failed cell fails the whole pass.
        failed: match markdown {
            Ok(_) => d.unique.saturating_sub(d.entries.len() as u64),
            Err(_) => d.unique.max(1),
        },
        sim_instr: d
            .entries
            .iter()
            .map(|(_, e, _)| measure::instructions(&e.metrics))
            .sum(),
        sim_ms: d
            .entries
            .iter()
            .map(|(_, e, _)| e.metrics.sim_time.as_ps() as f64 * windows / 1e9)
            .sum(),
        digest: measure::digest(&results),
        markdown: markdown.unwrap_or_default(),
        per_bank: gain(&panel(Scheme::PerBank), &all_bank),
        co_design: gain(&panel(Scheme::CoDesign), &all_bank),
        violations: 0,
    };
    (pass, d)
}

/// Every valid entry in a cache directory, sorted by fingerprint, with
/// its size on disk.
fn scan_cache(dir: &Path) -> Vec<(u64, CacheEntry, u64)> {
    let mut out: Vec<(u64, CacheEntry, u64)> = std::fs::read_dir(dir)
        .into_iter()
        .flatten()
        .flatten()
        .filter_map(|de| {
            let name = de.file_name().into_string().ok()?;
            let fp = u64::from_str_radix(name.strip_suffix(".run")?, 16).ok()?;
            let bytes = std::fs::read(de.path()).ok()?;
            let entry = CacheEntry::from_bytes(&bytes).filter(|e| e.fingerprint == fp)?;
            Some((fp, entry, bytes.len() as u64))
        })
        .collect();
    out.sort_by_key(|(fp, _, _)| *fp);
    out
}

/// Geometric-mean speedup of `runs` over `base`, cell by cell; `NaN`
/// when any cell is missing.
fn gain(runs: &[Option<&RunMetrics>], base: &[Option<&RunMetrics>]) -> f64 {
    let speedups: Option<Vec<f64>> = runs
        .iter()
        .zip(base)
        .map(|(r, b)| Some(r.as_ref()?.speedup_over(b.as_ref()?)))
        .collect();
    speedups.map_or(f64::NAN, gmean)
}

/// `fig10_32gb` runs its cells through [`exp::run_jobs`] on the
/// executor; `audit_hifi` runs them one after another on this thread.
fn simulation_pass(p: &Prepared, tr: &Tracer, parent: Option<SpanId>) -> (Pass, Detail) {
    let mut o = p.opts.clone();
    o.telemetry = Telemetry::default();
    let mut d = Detail::default();
    let cpu0 = measure::cpu_seconds();
    let ((), wall_s) = tr.time("pass", parent, |sp| {
        d.execute_s = tr
            .time("experiment.execute", sp, |sp| {
                if p.workload == Workload::Fig10 {
                    d.results = exp::run_jobs(&o, &p.jobs);
                } else {
                    d.cells = p.jobs.iter().map(|j| run_cell(j, tr, sp)).collect();
                }
            })
            .1;
    });
    let cpu_s = measure::cpu_seconds() - cpu0;
    if !d.cells.is_empty() {
        d.results = d.cells.iter().map(|c| c.result.clone()).collect();
    }
    d.cache = o.telemetry.snapshot();
    d.exec = o.telemetry.exec_snapshot();
    d.requested = p.jobs.len() as u64;
    d.unique = d.requested;

    let ok: Vec<(&Job, &RunMetrics)> = p
        .jobs
        .iter()
        .zip(&d.results)
        .filter_map(|(j, r)| Some((j, r.as_ref().ok()?)))
        .collect();
    let n = o.workloads.len();
    let chunk = |i: usize| -> Vec<Option<&RunMetrics>> {
        d.results[i * n..(i + 1) * n]
            .iter()
            .map(|r| r.as_ref().ok())
            .collect()
    };
    let schemes = d.results.len() / n;
    let pass = Pass {
        wall_s,
        cpu_s,
        cells: d.requested,
        attempted: d.requested,
        failed: (d.results.len() - ok.len()) as u64,
        sim_instr: ok.iter().map(|(_, m)| measure::instructions(m)).sum(),
        sim_ms: ok
            .iter()
            .map(|(j, _)| (j.cfg.warmup + j.cfg.measure).as_ps() as f64 / 1e9)
            .sum(),
        digest: measure::digest(&d.results),
        markdown: String::new(),
        per_bank: if schemes == 3 {
            gain(&chunk(1), &chunk(0))
        } else {
            f64::NAN
        },
        co_design: gain(&chunk(schemes - 1), &chunk(0)),
        violations: d.cells.iter().map(|c| c.violations).sum(),
    };
    (pass, d)
}

/// Runs one cell through the System API the way the sweep runner
/// does, timing each call.
fn run_cell(job: &Job, tr: &Tracer, parent: Option<SpanId>) -> CellRun {
    let mut c = CellRun {
        result: Err(RefsimError::EmptyWorkload),
        wall_s: 0.0,
        new_s: 0.0,
        warm_s: 0.0,
        measure_s: 0.0,
        finish_s: 0.0,
        collect_s: 0.0,
        engine: EngineStats::default(),
        alloc: BankAllocStats::default(),
        violations: 0,
    };
    let cfg = &job.cfg;
    let (result, wall_s) = tr.time("system.cell", parent, |p| {
        let (sys, t) = tr.time("system.new", p, |_| System::try_new(cfg.clone(), &job.mix));
        c.new_s = t;
        let mut sys = sys?;
        let (r, t) = tr.time("system.warm", p, |_| sys.try_run_until(cfg.warmup));
        c.warm_s = t;
        r?;
        let (r, t) = tr.time("system.measure", p, |_| {
            sys.begin_measure();
            sys.try_run_until(cfg.warmup + cfg.measure)
        });
        c.measure_s = t;
        r?;
        let (r, t) = tr.time("sanitize.finish", p, |_| {
            sys.audit_retention();
            sys.finish_audit()
        });
        c.finish_s = t;
        c.violations = sys.violation_report().map_or(0, |v| v.total);
        c.engine = sys.engine_stats();
        c.alloc = *sys.allocator().stats();
        r?;
        let (m, t) = tr.time("system.collect", p, |_| sys.collect());
        c.collect_s = t;
        Ok(m)
    });
    c.result = result;
    c.wall_s = wall_s;
    c
}

/// Runs `jobs` through [`run_cell`] on `workers` threads; results come
/// back in job order.
fn run_cells_parallel(
    jobs: &[Job],
    workers: usize,
    tr: &Tracer,
    parent: Option<SpanId>,
) -> Vec<CellRun> {
    let next = AtomicUsize::new(0);
    let done = Mutex::new(Vec::with_capacity(jobs.len()));
    std::thread::scope(|s| {
        for _ in 0..workers.max(1) {
            s.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some(job) = jobs.get(i) else { break };
                let run = run_cell(job, tr, parent);
                done.lock().expect("cell list lock poisoned").push((i, run));
            });
        }
    });
    let mut done = done.into_inner().expect("cell list lock poisoned");
    done.sort_by_key(|(i, _)| *i);
    done.into_iter().map(|(_, r)| r).collect()
}

/// The per-layer metrics of a traced pass, with the extra attribution
/// work they need: timing every entry of `cache` (the cache the pass
/// used), re-running the `fig10_32gb` cells through the System API, and
/// re-running the `audit_hifi` cells with the sanitizer off. `scratch`
/// is an empty directory for throwaway stores. Returns the metrics and
/// the cross-checks the extra work made.
pub fn attribute(
    p: &Prepared,
    pass: &Pass,
    d: &Detail,
    setup_s: f64,
    cache: Option<&RunCache>,
    tr: &Tracer,
    scratch: &Path,
) -> (Layers, Vec<(String, bool)>) {
    let mut l = Layers::new();
    let mut checks = Vec::new();
    let mut put = |k: &str, v: f64| {
        l.insert(k.to_owned(), v);
    };
    let workers = p.opts.threads as f64;

    // experiment: the pipeline for the figure workloads; building the
    // job list (the set-up) and running it for the simulation ones.
    let is_figures = matches!(p.workload, Workload::FiguresCold | Workload::FiguresWarm);
    put(
        "experiment.collect_s",
        if is_figures { d.collect_s } else { setup_s },
    );
    put("experiment.execute_s", d.execute_s);
    put("experiment.render_s", d.render_s);
    for (name, c, r) in &d.sections {
        put(&format!("experiment.{name}.collect_s"), *c);
        put(&format!("experiment.{name}.render_s"), *r);
    }
    put("experiment.cells_requested", d.requested as f64);
    put("experiment.cells_unique", d.unique as f64);

    // os: Figure 5 allocates every benchmark footprint at 4 densities.
    if is_figures {
        let pages: u64 = Benchmark::FIGURE5
            .iter()
            .map(|b| b.profile().footprint / PAGE_BYTES)
            .sum::<u64>()
            * Density::ALL.len() as u64;
        let render = d
            .sections
            .iter()
            .find(|s| s.0 == "fig05")
            .map_or(0.0, |s| s.2);
        put("os.fig05_pages", pages as f64);
        put("os.fig05_ns_per_page", render * 1e9 / pages as f64);
    }
    let metrics: Vec<&RunMetrics> = if is_figures {
        d.entries.iter().map(|(_, e, _)| &e.metrics).collect()
    } else {
        d.results.iter().filter_map(|r| r.as_ref().ok()).collect()
    };
    put(
        "os.sched_picks",
        metrics.iter().map(|m| m.sched.picks).sum::<u64>() as f64,
    );
    put(
        "os.refresh_dodges",
        metrics.iter().map(|m| m.sched.refresh_dodges).sum::<u64>() as f64,
    );
    put(
        "os.eta_fallbacks",
        metrics.iter().map(|m| m.sched.eta_fallbacks).sum::<u64>() as f64,
    );

    // executor
    put("executor.workers", d.exec.workers as f64);
    put("executor.items", d.exec.items as f64);
    put("executor.stolen", d.exec.steals as f64);
    put("executor.requeues", d.exec.requeues as f64);

    // runcache / codec: the pass's telemetry, then every entry's
    // lookup, load, store and codec round trip timed one by one.
    let c = &d.cache;
    put("runcache.hits", c.hits as f64);
    put("runcache.misses", c.misses as f64);
    put("runcache.stored", c.stores as f64);
    put("runcache.bypassed", c.bypassed as f64);
    put("runcache.verified", c.verified as f64);
    put("runcache.hit_rate", c.hit_rate());

    // The benchmark's own cells: `audit_hifi`'s pass, or a `fig10_32gb`
    // re-run on the same worker count that must reproduce its results.
    let attributed: Vec<CellRun>;
    let cells: &[CellRun] = match p.workload {
        Workload::AuditHifi => &d.cells,
        Workload::Fig10 => {
            attributed = tr
                .time("attribution", None, |sp| {
                    run_cells_parallel(&p.jobs, p.opts.threads, tr, sp)
                })
                .0;
            let again: Vec<_> = attributed.iter().map(|c| c.result.clone()).collect();
            checks.push((
                "attribution cells reproduce the executor's RunMetrics".to_owned(),
                measure::digest(&again) == pass.digest,
            ));
            &attributed
        }
        _ => &[],
    };

    let walls: Vec<f64> = match cache {
        Some(cache) => {
            let (walls, layer) = time_cache_ops(cache, &d.entries, scratch, tr);
            l.extend(layer);
            walls
        }
        None => cells.iter().map(|c| c.wall_s).collect(),
    };
    let mut put = |k: &str, v: f64| {
        l.insert(k.to_owned(), v);
    };
    put("executor.cell_wall_p50_s", median(&walls));
    put("executor.cell_wall_p90_s", quantile(&walls, 0.9));
    put("executor.cell_wall_max_s", quantile(&walls, 1.0));
    put("executor.cell_wall_samples", walls.len() as f64);
    // Busy share of the executor's workers while it ran the pass. Only
    // meaningful where the executor simulated the cells.
    let busy = matches!(p.workload, Workload::FiguresCold | Workload::Fig10);
    put(
        "executor.utilization",
        if busy && d.execute_s > 0.0 {
            walls.iter().sum::<f64>() / (workers * d.execute_s)
        } else {
            0.0
        },
    );

    put_cell_layers(&mut l, &p.jobs, cells);

    // sanitize: each audited cell again with the sanitizer off.
    if p.workload == Workload::AuditHifi {
        let off: Vec<Job> = p
            .jobs
            .iter()
            .map(|j| Job {
                cfg: j.cfg.clone().with_audit(AuditLevel::Off),
                mix: j.mix.clone(),
            })
            .collect();
        let runs = tr
            .time("sanitize.off_rerun", None, |sp| {
                off.iter().map(|j| run_cell(j, tr, sp)).collect::<Vec<_>>()
            })
            .0;
        let on_s: f64 = cells.iter().map(|c| c.wall_s).sum();
        let off_s: f64 = runs.iter().map(|c| c.wall_s).sum();
        l.insert("sanitize.overhead_frac".into(), on_s / off_s - 1.0);
        let same = runs
            .iter()
            .zip(cells)
            .all(|(a, b)| a.result.as_ref().ok() == b.result.as_ref().ok());
        checks.push(("sanitizer leaves RunMetrics unchanged".to_owned(), same));
    }
    (l, checks)
}

/// Times [`RunCache::lookup`], [`RunCache::load`], [`RunCache::store`]
/// and the entry codec for every entry of `cache`; stores go to a cache
/// in `scratch` so the measured cache is left as it was. Returns the
/// cells' original wall times ([`RunCache::peek_wall_nanos`]) too.
fn time_cache_ops(
    cache: &RunCache,
    entries: &[(u64, CacheEntry, u64)],
    scratch: &Path,
    tr: &Tracer,
) -> (Vec<f64>, Layers) {
    let restore = fresh_cache(&scratch.join("restore"));
    let mut t = [(); 5].map(|()| Vec::with_capacity(entries.len()));
    let mut walls = Vec::new();
    tr.time("runcache.ops", None, |_| {
        for (fp, entry, _) in entries {
            t[0].push(micros(|| cache.lookup(*fp)));
            t[1].push(micros(|| cache.load(*fp)));
            let bytes = entry.to_bytes();
            t[2].push(micros(|| entry.to_bytes()));
            t[3].push(micros(|| CacheEntry::from_bytes(&bytes)));
            t[4].push(micros(|| restore.store(entry)));
            if let Some(ns) = cache.peek_wall_nanos(*fp) {
                walls.push(ns as f64 / 1e9);
            }
        }
    });
    let _ = std::fs::remove_dir_all(restore.dir());
    let mut l = Layers::new();
    for (name, v) in [("lookup", &t[0]), ("load", &t[1]), ("store", &t[4])] {
        l.insert(format!("runcache.{name}_us_p50"), median(v));
        l.insert(format!("runcache.{name}_us_p90"), quantile(v, 0.9));
    }
    l.insert("codec.encode_us_p50".into(), median(&t[2]));
    l.insert("codec.decode_us_p50".into(), median(&t[3]));
    let bytes: u64 = entries.iter().map(|(_, _, n)| n).sum();
    l.insert(
        "runcache.entry_bytes_mean".into(),
        bytes as f64 / entries.len().max(1) as f64,
    );
    (walls, l)
}

/// Microseconds `f` takes; its result is kept opaque to the optimizer.
fn micros<R>(f: impl FnOnce() -> R) -> f64 {
    let at = Instant::now();
    std::hint::black_box(f());
    at.elapsed().as_secs_f64() * 1e6
}

/// `system`, `cpu`, `dram`, `os` allocator and `sanitize` metrics of the
/// cells the benchmark ran itself. `cpu` is measured over L-class mixes
/// only, `dram` over H-class mixes only.
fn put_cell_layers(l: &mut Layers, jobs: &[Job], cells: &[CellRun]) {
    let mut put = |k: &str, v: f64| {
        l.insert(k.to_owned(), v);
    };
    let total = |f: &dyn Fn(&CellRun) -> f64| cells.iter().map(f).sum::<f64>();
    put("system.new_s", total(&|c| c.new_s));
    put("system.warm_s", total(&|c| c.warm_s));
    put("system.measure_s", total(&|c| c.measure_s));
    put("system.collect_s", total(&|c| c.collect_s));
    let iters = total(&|c| c.engine.iterations as f64);
    let elided = total(&|c| c.engine.steps_elided as f64);
    let stepped_s = total(&|c| c.warm_s + c.measure_s);
    put("system.iterations", iters);
    put("system.steps_elided", elided);
    put(
        "system.elided_per_iter",
        if iters > 0.0 { elided / iters } else { 0.0 },
    );
    put(
        "system.ns_per_iter",
        if iters > 0.0 {
            stepped_s * 1e9 / iters
        } else {
            0.0
        },
    );
    put("os.alloc_pages", total(&|c| c.alloc.allocations as f64));
    put("os.alloc_fallbacks", total(&|c| c.alloc.fallbacks as f64));
    put("sanitize.finish_s", total(&|c| c.finish_s));
    put("sanitize.violations", total(&|c| c.violations as f64));

    let class = |cat: &str| -> Vec<(&CellRun, &RunMetrics)> {
        jobs.iter()
            .zip(cells)
            .filter(|(j, _)| j.mix.category == cat)
            .filter_map(|(_, c)| Some((c, c.result.as_ref().ok()?)))
            .collect()
    };
    let low = class("L");
    let instr: u64 = low.iter().map(|(_, m)| measure::instructions(m)).sum();
    let low_s: f64 = low.iter().map(|(c, _)| c.measure_s).sum();
    put("cpu.instructions", instr as f64);
    put(
        "cpu.llc_misses",
        low.iter()
            .flat_map(|(_, m)| &m.tasks)
            .map(|t| t.llc_misses)
            .sum::<u64>() as f64,
    );
    put(
        "cpu.ns_per_kinstr",
        if instr > 0 {
            low_s * 1e12 / instr as f64
        } else {
            0.0
        },
    );

    let high = class("H");
    let stat = |f: &dyn Fn(&RunMetrics) -> u64| high.iter().map(|(_, m)| f(m)).sum::<u64>();
    let commands = stat(&|m| m.controller.commands_total());
    let hits = stat(&|m| m.controller.row_hits);
    let accesses = hits + stat(&|m| m.controller.row_misses + m.controller.row_conflicts);
    let high_s: f64 = high.iter().map(|(c, _)| c.measure_s).sum();
    put("dram.commands", commands as f64);
    put(
        "dram.row_hit_rate",
        if accesses > 0 {
            hits as f64 / accesses as f64
        } else {
            0.0
        },
    );
    put(
        "dram.refresh_blocked_reads",
        stat(&|m| m.controller.refresh_blocked_reads) as f64,
    );
    put(
        "dram.avg_read_latency_cycles",
        if high.is_empty() {
            0.0
        } else {
            high.iter()
                .map(|(_, m)| m.avg_read_latency_cycles())
                .sum::<f64>()
                / high.len() as f64
        },
    );
    put(
        "dram.ns_per_command",
        if commands > 0 {
            high_s * 1e9 / commands as f64
        } else {
            0.0
        },
    );
}
