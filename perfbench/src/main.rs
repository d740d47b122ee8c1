//! End-to-end and per-layer benchmark of refsim.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Runs one workload (see `workloads.rs` and `BENCHMARK.json`) from the
//! repository root. With `--trace 0` it sets the workload up several
//! times, then repeats closed-batch passes for `--seconds` and reports
//! each end-to-end metric as the median over passes. With `--trace 1` it
//! makes one untraced and one traced pass, attributes the traced pass to
//! layers, reports every per-layer metric and writes the spans and
//! counters to `.perfbench/trace-<workload>-seed<seed>.json`.
//!
//! Every run checks its outputs; the last line of standard output is a
//! JSON object `{"correct", "attempted", "failed", "metrics"}`. The exit
//! code is 0 only when every check passed.

mod measure;
mod trace;
mod workloads;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use refsim_core::experiment::{ExpOptions, Job};
use refsim_dram::time::Ps;

use measure::median;
use trace::Tracer;
use workloads::{Layers, Pass, Prepared, Workload};

/// The seed results are quoted at, and one held out for confirming a
/// claim on data not used while the change was written.
const DEFAULT_SEED: u64 = 0x5EED;
const HELD_OUT_SEED: u64 = 0xC0DE5;

/// Set-ups per run whose median is `setup_s` (one for `figures_warm`,
/// whose set-up is a whole cold pass of the pipeline).
const SETUP_REPS: usize = 21;

/// Worker threads of every parallel load: at most two, and never more
/// than the host's cores.
const MAX_WORKERS: usize = 2;

/// End-to-end metrics: name, unit. Times are host time; `sim_*` rate
/// simulated work per host second.
const E2E: [(&str, &str); 7] = [
    ("wall_s", "s"),
    ("cpu_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("cells_per_s", "1/s"),
    ("sim_mips", "Minstr/s"),
    ("sim_ms_per_s", "ms/s"),
];

/// Per-layer metrics of the traced run: name, unit.
const LAYERS: [(&str, &str); 85] = [
    ("experiment.collect_s", "s"),
    ("experiment.execute_s", "s"),
    ("experiment.render_s", "s"),
    ("experiment.table01.collect_s", "s"),
    ("experiment.table01.render_s", "s"),
    ("experiment.table02.collect_s", "s"),
    ("experiment.table02.render_s", "s"),
    ("experiment.fig03.collect_s", "s"),
    ("experiment.fig03.render_s", "s"),
    ("experiment.fig04.collect_s", "s"),
    ("experiment.fig04.render_s", "s"),
    ("experiment.fig05.collect_s", "s"),
    ("experiment.fig05.render_s", "s"),
    ("experiment.fig10.collect_s", "s"),
    ("experiment.fig10.render_s", "s"),
    ("experiment.fig11.collect_s", "s"),
    ("experiment.fig11.render_s", "s"),
    ("experiment.fig12.collect_s", "s"),
    ("experiment.fig12.render_s", "s"),
    ("experiment.fig13.collect_s", "s"),
    ("experiment.fig13.render_s", "s"),
    ("experiment.fig14.collect_s", "s"),
    ("experiment.fig14.render_s", "s"),
    ("experiment.fig15.collect_s", "s"),
    ("experiment.fig15.render_s", "s"),
    ("experiment.ablation.collect_s", "s"),
    ("experiment.ablation.render_s", "s"),
    ("experiment.cells_requested", "count"),
    ("experiment.cells_unique", "count"),
    ("os.fig05_pages", "count"),
    ("os.fig05_ns_per_page", "ns"),
    ("os.alloc_pages", "count"),
    ("os.alloc_fallbacks", "count"),
    ("os.sched_picks", "count"),
    ("os.refresh_dodges", "count"),
    ("os.eta_fallbacks", "count"),
    ("executor.workers", "count"),
    ("executor.items", "count"),
    ("executor.stolen", "count"),
    ("executor.requeues", "count"),
    ("executor.cell_wall_p50_s", "s"),
    ("executor.cell_wall_p90_s", "s"),
    ("executor.cell_wall_max_s", "s"),
    ("executor.cell_wall_samples", "count"),
    ("executor.utilization", "fraction"),
    ("runcache.hits", "count"),
    ("runcache.misses", "count"),
    ("runcache.stored", "count"),
    ("runcache.bypassed", "count"),
    ("runcache.verified", "count"),
    ("runcache.hit_rate", "fraction"),
    ("runcache.lookup_us_p50", "us"),
    ("runcache.lookup_us_p90", "us"),
    ("runcache.load_us_p50", "us"),
    ("runcache.load_us_p90", "us"),
    ("runcache.store_us_p50", "us"),
    ("runcache.store_us_p90", "us"),
    ("runcache.entry_bytes_mean", "B"),
    ("codec.encode_us_p50", "us"),
    ("codec.decode_us_p50", "us"),
    ("system.new_s", "s"),
    ("system.warm_s", "s"),
    ("system.measure_s", "s"),
    ("system.collect_s", "s"),
    ("system.iterations", "count"),
    ("system.steps_elided", "count"),
    ("system.elided_per_iter", "ratio"),
    ("system.ns_per_iter", "ns"),
    ("cpu.instructions", "count"),
    ("cpu.llc_misses", "count"),
    ("cpu.ns_per_kinstr", "ns"),
    ("dram.commands", "count"),
    ("dram.row_hit_rate", "fraction"),
    ("dram.refresh_blocked_reads", "count"),
    ("dram.avg_read_latency_cycles", "cycles"),
    ("dram.ns_per_command", "ns"),
    ("sanitize.finish_s", "s"),
    ("sanitize.overhead_frac", "fraction"),
    ("sanitize.violations", "count"),
    ("trace.untraced_wall_s", "s"),
    ("trace.traced_wall_s", "s"),
    ("trace.overhead_s", "s"),
    ("model.paper_gap_pp", "pp"),
    ("model.co_design_gain_pp", "pp"),
    ("model.per_bank_gain_pp", "pp"),
];

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn usage(msg: &str) -> ! {
    eprintln!(
        "perfbench: {msg}\nusage: --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
        Workload::ALL.map(Workload::name).join("|")
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut flags: BTreeMap<String, String> = BTreeMap::new();
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let Some(value) = it.next() else {
            usage(&format!("{flag} needs a value"))
        };
        if flags.insert(flag.clone(), value).is_some() {
            usage(&format!("{flag} given twice"));
        }
    }
    let mut take = |k: &str| {
        flags
            .remove(k)
            .unwrap_or_else(|| usage(&format!("missing {k}")))
    };
    let args = Args {
        workload: Workload::parse(&take("--workload")).unwrap_or_else(|| usage("unknown workload")),
        seed: take("--seed")
            .parse()
            .unwrap_or_else(|_| usage("--seed must be an integer")),
        seconds: take("--seconds")
            .parse()
            .ok()
            .filter(|&s| s > 0)
            .unwrap_or_else(|| usage("--seconds must be a positive integer")),
        trace: match take("--trace").as_str() {
            "0" => false,
            "1" => true,
            _ => usage("--trace must be 0 or 1"),
        },
    };
    if let Some(k) = flags.keys().next() {
        usage(&format!("unknown flag {k}"));
    }
    args
}

/// Scratch area for run caches inside the checkout, removed on drop.
struct WorkDir(PathBuf);

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        // The parent goes too unless it holds trace files.
        if let Some(parent) = self.0.parent() {
            let _ = std::fs::remove_dir(parent);
        }
    }
}

/// Commit of the checkout, when it is a git work tree.
fn git_commit() -> String {
    let head = std::fs::read_to_string(".git/HEAD").unwrap_or_default();
    let head = head.trim();
    let commit = match head.strip_prefix("ref: ") {
        Some(r) => std::fs::read_to_string(Path::new(".git").join(r))
            .ok()
            .or_else(|| {
                let packed = std::fs::read_to_string(".git/packed-refs").ok()?;
                packed
                    .lines()
                    .find(|l| l.ends_with(r))
                    .and_then(|l| l.split_whitespace().next())
                    .map(str::to_owned)
            })
            .unwrap_or_default(),
        None => head.to_owned(),
    };
    let commit = commit.trim();
    if commit.is_empty() {
        "unknown".to_owned()
    } else {
        commit.to_owned()
    }
}

fn provenance(a: &Args, workers: usize, nproc: usize, passes: usize) -> String {
    format!(
        "{{\"workload\": \"{}\", \"seed\": {}, \"default_seed\": {DEFAULT_SEED}, \
         \"held_out_seed\": {HELD_OUT_SEED}, \"nproc\": {nproc}, \"workers\": {workers}, \
         \"git_commit\": \"{}\", \"rustc\": \"{}\", \"profile\": \"{}\", \"time_scale\": {}, \
         \"trace\": {}, \"run_seconds\": {}, \"passes\": {passes}}}",
        a.workload.name(),
        a.seed,
        git_commit(),
        env!("PERFBENCH_RUSTC"),
        env!("PERFBENCH_PROFILE"),
        a.workload.time_scale(),
        u8::from(a.trace),
        a.seconds,
    )
}

/// A JSON number; non-finite values (never valid results) become 0,
/// and the negative zero of an empty sum prints as 0.
fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{}", v + 0.0)
    } else {
        "0".to_owned()
    }
}

/// Whether `name` matches `[A-Za-z0-9_.-]+`.
fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// Failure accounting self-test: a deliberately invalid cell (step 0)
/// next to a valid one goes through the same pass and accounting as the
/// simulation workloads, and must be counted as one failed cell of two,
/// not dropped.
fn self_test_failure_accounting() -> bool {
    let mut opts = ExpOptions::quick();
    opts.threads = 1;
    opts.workloads.truncate(1);
    let base = opts.base_config();
    let mix = opts.workloads[0].clone();
    let p = Prepared {
        workload: Workload::Fig10,
        jobs: vec![
            Job {
                cfg: base.clone().with_step(Ps::ZERO),
                mix: mix.clone(),
            },
            Job { cfg: base, mix },
        ],
        opts,
        warm: None,
    };
    let (pass, _) = workloads::run_pass(&p, None, &Tracer::new(false), None);
    println!(
        "perfbench selftest invalid cell: attempted={} failed={} failed_frac={}",
        pass.attempted,
        pass.failed,
        pass.failed as f64 / pass.attempted as f64
    );
    pass.attempted == 2 && pass.failed == 1
}

struct Report {
    checks: Vec<(String, bool)>,
    metrics: Vec<(String, f64, String)>,
    attempted: u64,
    failed: u64,
}

impl Report {
    fn check(&mut self, name: impl Into<String>, ok: bool) {
        self.checks.push((name.into(), ok));
    }

    fn correct(&self) -> bool {
        self.checks.iter().all(|(_, ok)| *ok)
    }

    fn print(&self) {
        for (name, ok) in &self.checks {
            println!(
                "perfbench check {name}: {}",
                if *ok { "ok" } else { "FAIL" }
            );
        }
        let failed_frac = self.failed as f64 / self.attempted.max(1) as f64;
        println!(
            "perfbench cells attempted={} failed={} failed_frac={failed_frac}",
            self.attempted, self.failed
        );
        let mut json = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(),
            self.attempted,
            self.failed
        );
        for (i, (name, value, unit)) in self.metrics.iter().enumerate() {
            println!("perfbench metric {name} = {} {unit}", json_num(*value));
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                json,
                "{sep}\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                json_num(*value)
            );
        }
        json.push_str("}}");
        println!("{json}");
    }
}

/// Checks that hold for every pass of every workload.
fn check_passes(r: &mut Report, w: Workload, passes: &[Pass], p: &Prepared) {
    let first = &passes[0];
    r.check("no cell failed", passes.iter().all(|x| x.failed == 0));
    r.check(
        "every cell attempted",
        passes.iter().all(|x| x.attempted > 0),
    );
    r.check(
        "RunMetrics digest repeats in every pass",
        passes.iter().all(|x| x.digest == first.digest),
    );
    r.check(
        "rendered output repeats in every pass",
        passes.iter().all(|x| x.markdown == first.markdown),
    );
    match w {
        Workload::FiguresCold | Workload::FiguresWarm => {
            r.check(
                "figures rendered",
                first.markdown.contains("### Figure 10 (32Gb)"),
            );
        }
        Workload::Fig10 => r.check(
            "32 Gb ordering co-design > per-bank > all-bank",
            first.co_design > first.per_bank && first.per_bank > 1.0,
        ),
        Workload::AuditHifi => {
            r.check(
                "sanitizer found no violation",
                passes.iter().all(|x| x.violations == 0),
            );
            r.check("32 ms co-design beats all-bank", first.co_design > 1.0);
        }
    }
    if let Some((_, fill)) = &p.warm {
        r.check(
            "warm markdown is byte-identical to the cold pass that filled the cache",
            first.markdown == fill.markdown,
        );
        r.check(
            "warm RunMetrics digest equals the cold one",
            first.digest == fill.digest,
        );
    }
    println!(
        "perfbench accuracy paper_gap_pp={} co_design_gain_pp={} per_bank_gain_pp={}",
        first.paper_gap_pp(w),
        (first.co_design - 1.0) * 100.0,
        (first.per_bank - 1.0) * 100.0
    );
    println!(
        "perfbench digest {} runmetrics={:#018x} cells={} markdown={:#018x}",
        w.name(),
        first.digest,
        first.attempted,
        refsim_core::codec::fnv64(first.markdown.as_bytes())
    );
}

fn main() {
    let a = parse_args();
    let nproc = std::thread::available_parallelism().map_or(1, usize::from);
    let workers = nproc.min(MAX_WORKERS);
    let work = WorkDir(PathBuf::from(".perfbench").join(format!("run-{}", std::process::id())));
    let w = a.workload;

    let mut r = Report {
        checks: Vec::new(),
        metrics: Vec::new(),
        attempted: 0,
        failed: 0,
    };
    r.check(
        "failure self-test counts an invalid cell",
        self_test_failure_accounting(),
    );
    r.check(
        "metric names match [A-Za-z0-9_.-]+",
        E2E.iter().chain(&LAYERS).all(|(n, _)| valid_name(n)),
    );

    // Set-up, several times; the last one is used. The empty cache
    // directory of each figures_cold pass is made outside the timed
    // set-up: its cost is filesystem noise, not preparation work.
    let reps = if w == Workload::FiguresWarm {
        1
    } else {
        SETUP_REPS
    };
    let mut setups = Vec::with_capacity(reps);
    let mut prepared = None;
    for _ in 0..reps {
        let t = Instant::now();
        let p = workloads::prepare(w, a.seed, workers, &work.0.join("warm"));
        setups.push(t.elapsed().as_secs_f64());
        prepared = Some(p);
    }
    let p = prepared.expect("at least one set-up");
    let setup_s = median(&setups);

    let off = Tracer::new(false);
    let cold_dir = work.0.join("cold");
    let pass = |tr: &Tracer, parent| {
        let cache = (w == Workload::FiguresCold).then(|| workloads::fresh_cache(&cold_dir));
        let (pass, detail) = workloads::run_pass(&p, cache.as_ref(), tr, parent);
        (pass, detail, cache)
    };

    // Peak memory after set-up and the first pass, so it does not grow
    // with the number of passes the time budget allows.
    let mut peak_rss_mb = f64::NAN;
    let passes: Vec<Pass> = if a.trace {
        let (untraced, _, _) = pass(&off, None);
        let tr = Tracer::new(true);
        let (traced, detail, cold_cache) = pass(&tr, None);
        let warm_cache = p.warm.as_ref().map(|(c, _)| c);
        let (mut layers, checks) = workloads::attribute(
            &p,
            &traced,
            &detail,
            setup_s,
            cold_cache.as_ref().or(warm_cache),
            &tr,
            &work.0,
        );
        for (name, ok) in checks {
            r.check(name, ok);
        }
        layers.insert("trace.untraced_wall_s".into(), untraced.wall_s);
        layers.insert("trace.traced_wall_s".into(), traced.wall_s);
        layers.insert("trace.overhead_s".into(), traced.wall_s - untraced.wall_s);
        layers.insert("model.paper_gap_pp".into(), traced.paper_gap_pp(w));
        layers.insert(
            "model.co_design_gain_pp".into(),
            (traced.co_design - 1.0) * 100.0,
        );
        // `audit_hifi` has no per-bank cells; its gain reads 0.
        let per_bank = if traced.per_bank.is_finite() {
            traced.per_bank
        } else {
            1.0
        };
        layers.insert("model.per_bank_gain_pp".into(), (per_bank - 1.0) * 100.0);
        emit_layers(&mut r, &layers, &tr);
        let path =
            PathBuf::from(".perfbench").join(format!("trace-{}-seed{}.json", w.name(), a.seed));
        let body = tr.to_json(&provenance(&a, workers, nproc, 2));
        match std::fs::create_dir_all(".perfbench").and_then(|()| std::fs::write(&path, body)) {
            Ok(()) => println!("perfbench trace written to {}", path.display()),
            Err(e) => r.check(format!("trace written ({e})"), false),
        }
        vec![untraced, traced]
    } else {
        let budget = Duration::from_secs(a.seconds);
        let start = Instant::now();
        let mut passes = Vec::new();
        while passes.is_empty() || start.elapsed() < budget {
            let x = pass(&off, None).0;
            println!(
                "perfbench pass {} wall_s={} cpu_s={} cells={}",
                passes.len(),
                x.wall_s,
                x.cpu_s,
                x.cells
            );
            if passes.is_empty() {
                peak_rss_mb = measure::peak_rss_mb();
            }
            passes.push(x);
        }
        passes
    };
    check_passes(&mut r, w, &passes, &p);
    r.attempted = passes.iter().map(|x| x.attempted).sum();
    r.failed = passes.iter().map(|x| x.failed).sum();

    if !a.trace {
        let per = |f: &dyn Fn(&Pass) -> f64| median(&passes.iter().map(f).collect::<Vec<_>>());
        let values = [
            per(&|x| x.wall_s),
            per(&|x| x.cpu_s),
            setup_s,
            peak_rss_mb,
            per(&|x| x.cells as f64 / x.wall_s),
            per(&|x| x.sim_instr as f64 / x.wall_s / 1e6),
            per(&|x| x.sim_ms / x.wall_s),
        ];
        for ((name, unit), v) in E2E.iter().zip(values) {
            r.metrics.push(((*name).to_owned(), v, (*unit).to_owned()));
        }
        r.check(
            "every end-to-end metric is finite and above zero",
            values.iter().all(|v| v.is_finite() && *v > 0.0),
        );
    }
    println!(
        "perfbench provenance {}",
        provenance(&a, workers, nproc, passes.len())
    );
    let ok = r.correct();
    r.print();
    drop(work);
    std::process::exit(if ok { 0 } else { 1 });
}

/// Moves the traced run's layer metrics into the report, in the order of
/// [`LAYERS`], and mirrors them as trace counters. A metric the
/// workload does not exercise reads 0.
fn emit_layers(r: &mut Report, layers: &Layers, tr: &Tracer) {
    let unknown: Vec<&String> = layers
        .keys()
        .filter(|k| !LAYERS.iter().any(|(n, _)| n == k))
        .collect();
    r.check(
        format!("layer metrics are all declared (undeclared: {unknown:?})"),
        unknown.is_empty(),
    );
    let mut finite = true;
    for (name, unit) in LAYERS {
        let v = layers.get(name).copied().unwrap_or(0.0);
        finite &= v.is_finite();
        tr.count(name, v);
        r.metrics.push((name.to_owned(), v, unit.to_owned()));
    }
    r.check("every layer metric is finite", finite);
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Metric names declared in one section of `BENCHMARK.json`.
    fn declared(section: &str) -> Vec<String> {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let start = text
            .find(&format!("\"{section}\""))
            .expect("section present");
        let body = &text[start..];
        let end = body.find(']').expect("section is a list");
        body[..end]
            .split("\"name\": \"")
            .skip(1)
            .map(|s| s[..s.find('"').expect("closing quote")].to_owned())
            .collect()
    }

    #[test]
    fn benchmark_json_declares_exactly_the_reported_metrics() {
        let e2e: Vec<String> = E2E.iter().map(|(n, _)| (*n).to_owned()).collect();
        let layers: Vec<String> = LAYERS.iter().map(|(n, _)| (*n).to_owned()).collect();
        assert_eq!(declared("end_to_end"), e2e);
        assert_eq!(declared("per_layer"), layers);
        let workloads: Vec<String> = Workload::ALL.iter().map(|w| w.name().to_owned()).collect();
        assert_eq!(declared("workloads"), workloads);
    }

    #[test]
    fn metric_names_are_valid() {
        assert!(E2E.iter().chain(&LAYERS).all(|(n, _)| valid_name(n)));
        assert!(!valid_name("a b") && !valid_name(""));
    }

    #[test]
    fn json_numbers_are_plain() {
        assert_eq!(json_num(-0.0), "0");
        assert_eq!(json_num(f64::NAN), "0");
        assert_eq!(json_num(1.5), "1.5");
    }
}
