//! Differential cross-validation CLI: primary vs. shadow memory backend.
//!
//! Runs every workload mix through the full refresh-policy matrix on
//! both memory backends and cross-checks the results within the
//! calibrated tolerances (see `refsim_core::diffval`):
//!
//! * default — expect agreement on every cell; any divergence is
//!   classified (tolerance-exceeded vs. protocol-divergent), triaged
//!   through the replay auditor, appended to the report file, and fails
//!   the run;
//! * `--perturb N` — negative control: drop every `N`-th refresh inside
//!   the shadow model and check the harness catches the divergence on
//!   every refreshing policy (and stays clean on `no-refresh`, where
//!   there is nothing to drop).
//!
//! Exits non-zero on any contract violation, so CI can gate on it. The
//! report file (`--report PATH`, default `crossval-divergence.txt`) is
//! only written when something diverged — CI uploads it as an artifact.

use std::fmt::Write as _;
use std::num::NonZeroU64;

use refsim_bench::PresetFlags;
use refsim_core::diffval::{cross_validate, DivergenceClass, Tolerances, POLICY_MATRIX};
use refsim_core::error::RefsimError;
use refsim_core::experiment::ExpOptions;
use refsim_core::report::Table;
use refsim_core::vfs::{self, StdVfs};
use refsim_dram::refresh::RefreshPolicyKind;

#[derive(Debug)]
struct Args {
    opts: ExpOptions,
    perturb: Option<u64>,
    report: String,
    csv: bool,
}

fn parse_args(args: impl IntoIterator<Item = String>) -> Args {
    let mut preset = PresetFlags::default();
    let mut perturb = None;
    let mut report = "crossval-divergence.txt".to_owned();
    let mut csv = false;
    let mut it = args.into_iter();
    while let Some(a) = it.next() {
        if preset.accept(&a, &mut it) {
            continue;
        }
        match a.as_str() {
            "--perturb" => {
                let v = it.next().expect("--perturb needs a drop period");
                // 0 would mean "never drop": a negative control that
                // perturbs nothing.
                let n: NonZeroU64 = v.parse().expect("--perturb must be an integer >= 1");
                perturb = Some(n.get());
            }
            "--report" => report = it.next().expect("--report needs a path"),
            "--csv" => csv = true,
            "--help" | "-h" => {
                eprintln!(
                    "flags: [--quick] [--scale N] [--seed N] [--perturb N] \
                     [--report PATH] [--csv]"
                );
                std::process::exit(0);
            }
            other => panic!("unknown flag {other}; try --help"),
        }
    }
    Args {
        opts: preset.options(),
        perturb,
        report,
        csv,
    }
}

/// Whether a negative-control cell behaved as required: every policy
/// that issues refreshes must trip a protocol divergence with an
/// attributed quantum; `no-refresh` has nothing to drop and must agree.
fn control_verdict(
    policy: RefreshPolicyKind,
    result: &Result<refsim_core::diffval::DiffvalOutcome, RefsimError>,
) -> (String, bool) {
    match result {
        Ok(_) if policy == RefreshPolicyKind::NoRefresh => ("clean (expected)".to_owned(), false),
        Ok(_) => ("UNDETECTED perturbation".to_owned(), true),
        Err(RefsimError::BackendDivergence(r)) => {
            if r.class != DivergenceClass::ProtocolDivergent {
                (format!("misclassified: {}", r.class), true)
            } else if r.attribution.is_none() {
                ("detected but unattributed".to_owned(), true)
            } else {
                (
                    format!(
                        "detected: {}",
                        r.attribution
                            .as_ref()
                            .map(|a| a.to_string())
                            .unwrap_or_default()
                    ),
                    false,
                )
            }
        }
        Err(e) => (format!("run failed: {e}"), true),
    }
}

fn main() {
    let args = parse_args(std::env::args().skip(1));
    let tol = Tolerances::default();
    let title = match args.perturb {
        None => "Backend cross-validation: primary vs shadow".to_owned(),
        Some(n) => format!("Backend cross-validation: perturbation control (drop 1/{n})"),
    };
    let mut table = Table::new(
        title,
        ["mix", "policy", "hmean p/s", "refreshes p/s", "verdict"],
    );
    let mut violations = 0u32;
    let mut report_body = String::new();

    for mix in &args.opts.workloads {
        for &policy in &POLICY_MATRIX {
            let mut cfg = args.opts.base_config().with_refresh(policy);
            if let Some(n) = args.perturb {
                cfg = cfg.with_shadow_drop_every(n);
            }
            let result = cross_validate(&cfg, mix, &tol);
            let (hmean, refreshes) = match &result {
                Ok(out) => (
                    format!(
                        "{:.4}/{:.4}",
                        out.primary.hmean_ipc(),
                        out.shadow.hmean_ipc()
                    ),
                    format!(
                        "{}/{}",
                        out.primary.controller.refreshes_total(),
                        out.shadow.controller.refreshes_total()
                    ),
                ),
                Err(RefsimError::BackendDivergence(r)) => {
                    let get = |name: &str| {
                        r.deltas
                            .iter()
                            .find(|d| d.metric == name)
                            .map(|d| (d.primary, d.shadow))
                            .unwrap_or((0.0, 0.0))
                    };
                    let (hp, hs) = get("hmean_ipc");
                    let (rp, rs) = get("refreshes_total");
                    (format!("{hp:.4}/{hs:.4}"), format!("{rp:.0}/{rs:.0}"))
                }
                Err(_) => ("-".to_owned(), "-".to_owned()),
            };
            let (verdict, bad) = match args.perturb {
                Some(_) => control_verdict(policy, &result),
                None => match &result {
                    Ok(_) => ("agree".to_owned(), false),
                    Err(RefsimError::BackendDivergence(r)) => (r.class.to_string(), true),
                    Err(e) => (format!("run failed: {e}"), true),
                },
            };
            if bad {
                violations += 1;
                let detail = match &result {
                    Err(RefsimError::BackendDivergence(r)) => {
                        let mut s = format!("{r}\n  all deltas:\n");
                        for d in &r.deltas {
                            let _ = writeln!(s, "    {d}");
                        }
                        s
                    }
                    Err(e) => format!("{e}\n"),
                    Ok(_) => verdict.clone() + "\n",
                };
                let _ = writeln!(
                    report_body,
                    "== mix {} policy {policy:?} ==\n{detail}",
                    mix.name
                );
            }
            table.push([
                mix.name.clone(),
                policy.to_string(),
                hmean,
                refreshes,
                verdict,
            ]);
        }
    }

    if args.csv {
        print!("{}", table.to_csv());
    } else {
        println!("{table}");
    }
    if violations > 0 {
        // Atomic publish: CI pulls this as an artifact, and a torn
        // half-report is worse than none.
        if let Err(e) = vfs::write_atomic(
            &StdVfs,
            std::path::Path::new(&args.report),
            report_body.as_bytes(),
        ) {
            eprintln!("could not write {}: {e}", args.report);
        } else {
            eprintln!("divergence report written to {}", args.report);
        }
        eprintln!("cross-validation FAILED: {violations} violating cell(s)");
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Args {
        parse_args(list.iter().map(|s| (*s).to_owned()))
    }

    #[test]
    fn quick_preset_does_not_override_earlier_flags() {
        let a = args(&["--scale", "64", "--seed", "7", "--perturb", "3", "--quick"]);
        assert_eq!(a.opts.time_scale, 64);
        assert_eq!(a.opts.seed, 7);
        assert_eq!(a.opts.workloads.len(), 4);
        assert_eq!(a.perturb, Some(3));
    }

    #[test]
    #[should_panic(expected = "--scale must be an integer >= 1")]
    fn rejects_zero_scale() {
        let _ = args(&["--quick", "--scale", "0"]);
    }

    #[test]
    #[should_panic(expected = "--perturb must be an integer >= 1")]
    fn rejects_zero_perturb() {
        let _ = args(&["--quick", "--perturb", "0"]);
    }
}
