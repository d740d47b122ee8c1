//! Seed-driven chaos/soak harness for the invariant sanitizer.
//!
//! Each scenario is derived entirely from one `u64` seed: the seed
//! picks a refresh policy, device density, retention window, bank
//! partition, scheduler, workload mix, and a fault class (possibly
//! none), then runs the simulation under [`AuditLevel::Full`]. The
//! classification is a four-way contingency:
//!
//! | fault injected | sanitizer fired | outcome                    |
//! |----------------|-----------------|----------------------------|
//! | no             | no              | `pass`                     |
//! | no             | yes             | `VIOLATED` — quarantined   |
//! | yes            | yes             | `caught` (negative control)|
//! | yes            | no              | `missed` (reported only)   |
//!
//! A crash (panic, typed simulation error) in any scenario is also
//! quarantined. Quarantined seeds reproduce standalone: rerun the
//! binary with `--replay SEED` to get the full violation report for
//! exactly that scenario — the seed is the entire scenario description,
//! so no other state needs to be preserved.
//!
//! `missed` is informational, not failing: fault magnitudes are
//! randomized, and a low dose on a short window may legally stay below
//! every checker's threshold. The per-class negative-control *tests*
//! (see `refsim-core`'s system tests) pin aggressive doses that must
//! always be caught.

use std::collections::BTreeMap;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use refsim_core::config::SystemConfig;
use refsim_core::error::RefsimError;
use refsim_core::executor::default_threads;
use refsim_core::experiment::{run_many_checked, Job};
use refsim_core::faults::FaultPlan;
use refsim_core::report::Table;
use refsim_core::sanitize::AuditLevel;
use refsim_core::vfs::crashtest::{
    probe, reference_rows, run_point, CrashScenario, FaultMode, Verdict,
};
use refsim_dram::backend::BackendKind;
use refsim_dram::refresh::RefreshPolicyKind;
use refsim_dram::time::Ps;
use refsim_dram::timing::{Density, FgrMode, Retention};
use refsim_os::partition::PartitionPlan;
use refsim_os::sched::SchedPolicy;
use refsim_workloads::mix::table2;

/// Default number of scenarios for a full soak run.
pub const DEFAULT_SCENARIOS: usize = 120;
/// Default master seed.
pub const DEFAULT_SEED: u64 = 0x50AC;
/// Default time-scale divisor. Coarser than figure runs, but not
/// coarser than 512: the retention oracle's slack term (9·tREFI) does
/// not scale with time, so at scales where scaled tREFW drops below it,
/// tREFW-bounded delays and weak-row cover gaps become *legally*
/// tolerable and those fault classes can never be caught.
pub const DEFAULT_SCALE: u32 = 512;

/// The fault class a scenario injects, if any.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum FaultClass {
    /// No fault: the run must be violation-free.
    None,
    /// Refresh commands silently dropped.
    Skip,
    /// Refresh commands delayed past their deadline.
    Delay,
    /// Retention-weak rows that decay faster than tREFW.
    Weak,
}

impl FaultClass {
    /// All classes, in scenario-draw order.
    pub const ALL: [FaultClass; 4] = [
        FaultClass::None,
        FaultClass::Skip,
        FaultClass::Delay,
        FaultClass::Weak,
    ];

    /// Stable lowercase label.
    pub fn label(self) -> &'static str {
        match self {
            FaultClass::None => "none",
            FaultClass::Skip => "skip",
            FaultClass::Delay => "delay",
            FaultClass::Weak => "weak",
        }
    }
}

/// How one scenario ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome {
    /// Clean scenario, clean run.
    Pass,
    /// Faulted scenario, sanitizer fired — the negative control worked.
    Caught,
    /// Faulted scenario, sanitizer silent — dose may be sub-threshold.
    Missed,
    /// Clean scenario, sanitizer fired — a real invariant bug. Failing.
    Violated,
    /// Any scenario that died on a non-sanitizer error. Failing.
    Crashed,
}

impl Outcome {
    /// Stable lowercase label.
    pub fn label(self) -> &'static str {
        match self {
            Outcome::Pass => "pass",
            Outcome::Caught => "caught",
            Outcome::Missed => "missed",
            Outcome::Violated => "VIOLATED",
            Outcome::Crashed => "CRASHED",
        }
    }
}

/// Which harness a soak scenario exercises.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScenarioClass {
    /// Invariant-sanitizer chaos run (the original soak draw).
    Sanitizer,
    /// One crash point of the durability matrix: the crashtest tiny
    /// sweep behind a fault-injecting filesystem (`bench --bin
    /// crashmat` enumerates the same points exhaustively).
    Crashmat {
        /// The I/O fault injected at the drawn operation index.
        mode: FaultMode,
        /// Salt reduced modulo the probed operation count to pick the
        /// crash point, so every index stays reachable as the I/O
        /// sequence evolves across releases.
        point_salt: u64,
    },
}

/// One fully derived scenario: the seed is the identity, everything
/// else is a pure function of it (plus the shared time scale).
#[derive(Debug, Clone)]
pub struct Scenario {
    /// The seed this scenario was derived from; `--replay` takes it.
    pub seed: u64,
    /// Injected fault class.
    pub fault: FaultClass,
    /// Which harness the scenario runs.
    pub class: ScenarioClass,
    /// Human-readable knob summary for the report row.
    pub label: String,
    /// The job to run.
    pub job: Job,
}

/// Derives one scenario from a seed. Deterministic: the same
/// `(seed, scale)` always yields the same configuration, workload, and
/// fault plan, which is what makes quarantined seeds reproducible.
///
/// `NoRefresh` is deliberately absent from the policy pool: it is an
/// idealized upper bound that makes no retention promise, so a soak
/// that runs past the oracle threshold would flag it every time.
pub fn build_scenario(seed: u64, scale: u32) -> Scenario {
    let mut rng = StdRng::seed_from_u64(seed);

    let policies = [
        RefreshPolicyKind::AllBank,
        RefreshPolicyKind::PerBankRoundRobin,
        RefreshPolicyKind::PerBankSequential,
        RefreshPolicyKind::OooPerBank,
        RefreshPolicyKind::Fgr(FgrMode::X2),
        RefreshPolicyKind::Fgr(FgrMode::X4),
        RefreshPolicyKind::Adaptive,
        RefreshPolicyKind::Elastic,
    ];
    let policy = policies[rng.gen_range(0..policies.len())];
    let density = Density::EVALUATED[rng.gen_range(0..Density::EVALUATED.len())];
    let mut retention = if rng.gen_range(0..4u32) == 0 {
        Retention::Ms32
    } else {
        Retention::Ms64
    };
    let partition = match rng.gen_range(0..4u32) {
        0 => PartitionPlan::None,
        1 => PartitionPlan::Soft,
        2 => PartitionPlan::Hard,
        _ => PartitionPlan::Confine {
            banks_per_task: [2u32, 4, 6][rng.gen_range(0..3usize)],
        },
    };
    let sched = if rng.gen_range(0..2u32) == 0 {
        SchedPolicy::Cfs
    } else {
        SchedPolicy::RefreshAware {
            eta_thresh: rng.gen_range(2..7u32),
            best_effort: rng.gen_range(0..2u32) == 1,
        }
    };
    let mixes = table2();
    let mix = mixes[rng.gen_range(0..mixes.len())].resized(rng.gen_range(4..9usize));

    let fault = FaultClass::ALL[rng.gen_range(0..FaultClass::ALL.len())];
    if fault == FaultClass::Weak {
        // A weak row only trips when the gap between two covers of its
        // span (≈ scaled tREFW) exceeds its limit plus the oracle's
        // unscaled slack; the 32 ms window scaled down is too short for
        // that at any supported soak scale.
        retention = Retention::Ms64;
    }

    let mut cfg = SystemConfig::table1()
        .with_time_scale(scale)
        .with_refresh(policy)
        .with_density(density)
        .with_retention(retention)
        .with_partition(partition)
        .with_sched(sched)
        .with_seed(seed)
        .with_retention_tracking()
        .with_audit(AuditLevel::Full);
    // The run must outlive the retention oracle's staleness threshold
    // (scaled tREFW + 9·unscaled tREFI) or skipped refreshes can never
    // surface; the tREFI term dominates at coarse scales, so add it
    // explicitly instead of stretching the window count.
    cfg.warmup = cfg.trefw() / 4;
    cfg.measure = cfg.trefw() * 2 + retention.trefi_ab() * 10;

    cfg.fault_plan = match fault {
        FaultClass::None => None,
        FaultClass::Skip => Some(FaultPlan {
            seed,
            skip_ppm: rng.gen_range(400_000..900_001u32),
            delay_ppm: 0,
            max_delay: Ps::ZERO,
            weak_rows: 0,
            weak_limit: Ps::ZERO,
            horizon: 1_000_000,
        }),
        FaultClass::Delay => Some(FaultPlan {
            seed,
            skip_ppm: 0,
            delay_ppm: rng.gen_range(800_000..1_000_001u32),
            // Past the completeness threshold (tREFW + slack), not just
            // tREFW: a delay inside the slack is JEDEC-legal.
            max_delay: cfg.trefw() * 2,
            weak_rows: 0,
            weak_limit: Ps::ZERO,
            horizon: 1_000_000,
        }),
        FaultClass::Weak => Some(FaultPlan {
            seed,
            skip_ppm: 0,
            delay_ppm: 0,
            max_delay: Ps::ZERO,
            weak_rows: rng.gen_range(32..129u32),
            weak_limit: cfg.trefw() / 8,
            horizon: 0,
        }),
    };

    // Backend draw comes last so it never perturbs the knobs earlier
    // seeds already pinned: a quarter of the scenarios run the faults
    // against the independently written shadow model, which must catch
    // (or crash on) exactly what the primary does.
    if rng.gen_range(0..4u32) == 0 {
        cfg = cfg.with_backend(BackendKind::Shadow);
    }

    // The durability draw is appended after every sanitizer knob for
    // the same reason: one scenario in eight trades its sanitizer run
    // for a single crash point of the vfs crash matrix, exercising a
    // random I/O fault mode at a random operation index.
    let class = if rng.gen_range(0..8u32) == 0 {
        const MODES: [FaultMode; 5] = [
            FaultMode::Crash,
            FaultMode::Enospc,
            FaultMode::TornWrite,
            FaultMode::Interrupt,
            FaultMode::CorruptWrite,
        ];
        ScenarioClass::Crashmat {
            mode: MODES[rng.gen_range(0..MODES.len())],
            point_salt: rng.gen(),
        }
    } else {
        ScenarioClass::Sanitizer
    };
    if let ScenarioClass::Crashmat { mode, .. } = class {
        return Scenario {
            seed,
            fault: FaultClass::None,
            class,
            label: format!("crashmat {mode}"),
            job: Job { cfg, mix },
        };
    }

    let label = format!(
        "{policy} {density} {retention} {partition:?} {} {}x{}{}",
        match sched {
            SchedPolicy::Cfs => "cfs".to_owned(),
            SchedPolicy::RefreshAware { eta_thresh, .. } => format!("ra(η={eta_thresh})"),
        },
        mix.name,
        mix.len(),
        if cfg.backend == BackendKind::Shadow {
            " [shadow]"
        } else {
            ""
        },
    );
    Scenario {
        seed,
        fault,
        class: ScenarioClass::Sanitizer,
        label,
        job: Job { cfg, mix },
    }
}

/// Soak run parameters.
#[derive(Debug, Clone)]
pub struct SoakOptions {
    /// Number of scenarios to derive and run.
    pub scenarios: usize,
    /// Master seed; per-scenario seeds are drawn from it.
    pub seed: u64,
    /// Time-scale divisor for every scenario.
    pub scale: u32,
    /// Worker threads.
    pub threads: usize,
}

impl Default for SoakOptions {
    fn default() -> Self {
        SoakOptions {
            scenarios: DEFAULT_SCENARIOS,
            seed: DEFAULT_SEED,
            scale: DEFAULT_SCALE,
            threads: default_threads(),
        }
    }
}

/// One classified scenario result.
#[derive(Debug, Clone)]
pub struct ScenarioResult {
    /// The scenario's reproducer seed.
    pub seed: u64,
    /// Injected fault class.
    pub fault: FaultClass,
    /// Which harness the scenario ran.
    pub class: ScenarioClass,
    /// Knob summary.
    pub label: String,
    /// Classified outcome.
    pub outcome: Outcome,
    /// `checker → violation count` when the sanitizer fired, else empty.
    pub by_checker: Vec<(&'static str, u64)>,
    /// Error display for crashed scenarios.
    pub error: Option<String>,
}

/// Aggregated soak report.
#[derive(Debug, Clone)]
pub struct SoakReport {
    /// Per-scenario classified results, in scenario order.
    pub results: Vec<ScenarioResult>,
}

impl SoakReport {
    /// Seeds that must be triaged: clean-scenario violations and crashes.
    pub fn quarantined(&self) -> Vec<u64> {
        self.results
            .iter()
            .filter(|r| matches!(r.outcome, Outcome::Violated | Outcome::Crashed))
            .map(|r| r.seed)
            .collect()
    }

    /// Whether the soak run found a real problem.
    pub fn failed(&self) -> bool {
        !self.quarantined().is_empty()
    }

    /// Outcome counts keyed by label, plus per-fault-class caught/total.
    pub fn summary_table(&self) -> Table {
        let mut t = Table::new("soak summary", ["metric", "count"]);
        let count = |o: Outcome| self.results.iter().filter(|r| r.outcome == o).count();
        t.push(["scenarios".to_owned(), self.results.len().to_string()]);
        for o in [
            Outcome::Pass,
            Outcome::Caught,
            Outcome::Missed,
            Outcome::Violated,
            Outcome::Crashed,
        ] {
            t.push([o.label().to_owned(), count(o).to_string()]);
        }
        for class in [FaultClass::Skip, FaultClass::Delay, FaultClass::Weak] {
            let total = self.results.iter().filter(|r| r.fault == class).count();
            let caught = self
                .results
                .iter()
                .filter(|r| r.fault == class && r.outcome == Outcome::Caught)
                .count();
            t.push([
                format!("caught[{}]", class.label()),
                format!("{caught}/{total}"),
            ]);
        }
        let crash = self
            .results
            .iter()
            .filter(|r| matches!(r.class, ScenarioClass::Crashmat { .. }))
            .count();
        t.push(["crashmat points".to_owned(), crash.to_string()]);
        t
    }

    /// Violation counts per checker, aggregated over every scenario
    /// where the sanitizer fired (caught or violated).
    pub fn checker_table(&self) -> Table {
        let mut agg: BTreeMap<&'static str, u64> = BTreeMap::new();
        for r in &self.results {
            for &(checker, n) in &r.by_checker {
                *agg.entry(checker).or_insert(0) += n;
            }
        }
        let mut t = Table::new("violations by checker", ["checker", "violations"]);
        for (checker, n) in agg {
            t.push([checker.to_owned(), n.to_string()]);
        }
        t
    }
}

/// Derives `opts.scenarios` scenarios from the master seed.
pub fn build_scenarios(opts: &SoakOptions) -> Vec<Scenario> {
    let mut master = StdRng::seed_from_u64(opts.seed);
    (0..opts.scenarios)
        .map(|_| build_scenario(master.gen_range(0..u64::MAX), opts.scale))
        .collect()
}

/// Runs the full soak: derive, run (panic-isolated, in parallel),
/// classify. Deterministic for a fixed `SoakOptions`.
///
/// Sanitizer scenarios run batched through the sweep runner; crashmat
/// scenarios each drive the crash-point harness standalone (the
/// harness is internally single-threaded so its I/O-operation indices
/// stay deterministic).
pub fn run_soak(opts: &SoakOptions) -> SoakReport {
    let scenarios = build_scenarios(opts);
    let sanitizer: Vec<usize> = (0..scenarios.len())
        .filter(|&i| scenarios[i].class == ScenarioClass::Sanitizer)
        .collect();
    let jobs: Vec<Job> = sanitizer
        .iter()
        .map(|&i| scenarios[i].job.clone())
        .collect();
    let runs = run_many_checked(&jobs, opts.threads);

    let mut slots: Vec<Option<ScenarioResult>> = scenarios.iter().map(|_| None).collect();
    for (&i, run) in sanitizer.iter().zip(&runs) {
        slots[i] = Some(classify(scenarios[i].clone(), run));
    }
    for (i, s) in scenarios.iter().enumerate() {
        if slots[i].is_none() {
            slots[i] = Some(match s.class {
                ScenarioClass::Crashmat { .. } => run_crash_scenario(s),
                ScenarioClass::Sanitizer => unreachable!("sanitizer slots were batched"),
            });
        }
    }
    SoakReport {
        results: slots
            .into_iter()
            .map(|r| r.expect("every slot filled"))
            .collect(),
    }
}

/// Runs one crashmat scenario: probe the tiny crash scenario's I/O
/// sequence, reduce the salt to a concrete operation index, inject the
/// drawn fault there, and map the harness verdict onto soak outcomes —
/// clean resume is a `pass`, graceful degradation is a `caught`
/// negative control, a contract violation is `VIOLATED`, and any
/// harness error is a crash. Violations carry a `crashmat` reproducer
/// command line in `error`.
pub fn run_crash_scenario(s: &Scenario) -> ScenarioResult {
    let ScenarioClass::Crashmat { mode, point_salt } = s.class else {
        panic!("run_crash_scenario takes a crashmat scenario");
    };
    let scn = CrashScenario::tiny(s.seed);
    let root = std::env::temp_dir().join(format!(
        "refsim-soak-crash-{}-{:016x}",
        std::process::id(),
        s.seed
    ));
    let outcome = (|| -> Result<(u64, Verdict), String> {
        let reference = reference_rows(&scn).map_err(|e| e.to_string())?;
        let (total, _) = probe(&scn, &root).map_err(|e| e.to_string())?;
        let k = point_salt % total.max(1);
        Ok((k, run_point(&scn, &root, k, mode, &reference).verdict))
    })();
    let _ = std::fs::remove_dir_all(&root);
    let (outcome, label, error) = match outcome {
        Ok((k, Verdict::Resumed)) => (Outcome::Pass, format!("crashmat {mode} @op {k}"), None),
        Ok((k, Verdict::Degraded(why))) => (
            Outcome::Caught,
            format!("crashmat {mode} @op {k}: {why}"),
            None,
        ),
        Ok((k, Verdict::Violation(why))) => (
            Outcome::Violated,
            format!("crashmat {mode} @op {k}"),
            Some(format!(
                "{why} — reproduce: cargo run --release -p refsim-bench --bin crashmat -- \
                 --scenario tiny --mode {mode} --point {k} --seed {}",
                s.seed
            )),
        ),
        Err(e) => (Outcome::Crashed, format!("crashmat {mode}"), Some(e)),
    };
    ScenarioResult {
        seed: s.seed,
        fault: FaultClass::None,
        class: s.class,
        label,
        outcome,
        by_checker: Vec::new(),
        error,
    }
}

/// Classifies one scenario run against its fault expectation.
fn classify(
    s: Scenario,
    run: &Result<refsim_core::metrics::RunMetrics, RefsimError>,
) -> ScenarioResult {
    let expected = s.fault != FaultClass::None;
    let (outcome, by_checker, error) = match run {
        Ok(_) if expected => (Outcome::Missed, Vec::new(), None),
        Ok(_) => (Outcome::Pass, Vec::new(), None),
        Err(RefsimError::InvariantViolation(report)) => (
            if expected {
                Outcome::Caught
            } else {
                Outcome::Violated
            },
            report.by_checker(),
            None,
        ),
        Err(e) => (Outcome::Crashed, Vec::new(), Some(e.to_string())),
    };
    ScenarioResult {
        seed: s.seed,
        fault: s.fault,
        class: s.class,
        label: s.label,
        outcome,
        by_checker,
        error,
    }
}

/// Replays a single quarantined seed and returns the raw run result
/// alongside the rebuilt scenario, for detailed triage output.
pub fn replay_seed(
    seed: u64,
    scale: u32,
) -> (
    Scenario,
    Result<refsim_core::metrics::RunMetrics, RefsimError>,
) {
    let s = build_scenario(seed, scale);
    let runs = run_many_checked(std::slice::from_ref(&s.job), 1);
    let run = runs
        .into_iter()
        .next()
        .unwrap_or_else(|| Err(RefsimError::InvariantViolation(Box::default())));
    (s, run)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scenarios_are_pure_functions_of_the_seed() {
        let a = build_scenario(42, 2048);
        let b = build_scenario(42, 2048);
        assert_eq!(a.label, b.label);
        assert_eq!(a.fault, b.fault);
        assert_eq!(a.job.cfg, b.job.cfg);
        assert_eq!(a.job.mix.name, b.job.mix.name);
        // Different seeds draw different scenarios (with overwhelming
        // probability over the knob space; these two differ).
        let c = build_scenario(43, 2048);
        assert!(a.label != c.label || a.fault != c.fault);
    }

    #[test]
    fn scenario_configs_validate() {
        let opts = SoakOptions {
            scenarios: 64,
            scale: 2048,
            ..SoakOptions::default()
        };
        for s in build_scenarios(&opts) {
            s.job
                .cfg
                .validate()
                .unwrap_or_else(|e| panic!("seed {} invalid: {e}", s.seed));
        }
    }

    /// Negative control for the backend wiring: a seeded fault plan must
    /// trip the sanitizer on at least one backend. A fault the shadow
    /// model silently absorbs while the primary catches it (or vice
    /// versa) would make every shadow soak slot a blind spot.
    #[test]
    fn seeded_fault_trips_a_checker_on_at_least_one_backend() {
        // Scale must stay at the soak default or finer: coarser scaled
        // windows make refresh faults legally tolerable (see module doc).
        let mut s = (0u64..)
            .map(|i| build_scenario(0xFA_0000 + i, DEFAULT_SCALE))
            .find(|s| s.fault == FaultClass::Skip)
            .expect("the generator draws skip faults");
        if let Some(plan) = s.job.cfg.fault_plan.as_mut() {
            plan.skip_ppm = 900_000; // pin an aggressive dose
        }
        let mut tripped = Vec::new();
        for kind in [BackendKind::Primary, BackendKind::Shadow] {
            let job = Job {
                cfg: s.job.cfg.clone().with_backend(kind),
                mix: s.job.mix.clone(),
            };
            let runs = run_many_checked(std::slice::from_ref(&job), 1);
            if matches!(runs[0], Err(RefsimError::InvariantViolation(_))) {
                tripped.push(kind);
            }
        }
        assert!(
            !tripped.is_empty(),
            "a 90% refresh-skip plan escaped both backends"
        );
    }

    /// The durability draw produces crashmat scenarios, and replaying
    /// one is deterministic: the same seed maps to the same fault mode,
    /// the same crash point, and the same outcome — and that outcome
    /// honors the durability contract.
    #[test]
    fn crashmat_scenarios_are_drawn_and_replay_deterministically() {
        let s = (0u64..)
            .map(|i| build_scenario(0xC4A5_0000 + i, DEFAULT_SCALE))
            .find(|s| matches!(s.class, ScenarioClass::Crashmat { .. }))
            .expect("the generator draws crashmat scenarios");
        let a = run_crash_scenario(&s);
        let b = run_crash_scenario(&s);
        assert_eq!(a.outcome, b.outcome);
        // Degradation notes may embed unique tmp-file names; the drawn
        // mode and operation index must replay identically.
        assert_eq!(
            a.label.split(':').next(),
            b.label.split(':').next(),
            "fault mode and crash point must be stable"
        );
        assert!(
            !matches!(a.outcome, Outcome::Violated | Outcome::Crashed),
            "crash point must satisfy the durability contract: {} {:?}",
            a.label,
            a.error
        );
    }

    /// A small soak is deterministic end to end: two runs from the same
    /// master seed classify identically, and a clean re-derivation of a
    /// quarantined seed reproduces the same scenario.
    #[test]
    fn soak_is_deterministic() {
        let opts = SoakOptions {
            scenarios: 8,
            scale: 4096,
            ..SoakOptions::default()
        };
        let a = run_soak(&opts);
        let b = run_soak(&opts);
        assert_eq!(a.summary_table(), b.summary_table());
        assert_eq!(a.checker_table(), b.checker_table());
        assert_eq!(a.quarantined(), b.quarantined());
        for (x, y) in a.results.iter().zip(&b.results) {
            assert_eq!(x.outcome, y.outcome, "seed {} diverged", x.seed);
        }
    }
}
