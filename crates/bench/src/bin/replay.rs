//! Deterministic-replay auditor CLI.
//!
//! Verifies the simulator's bit-identity contract on the configured
//! workload mixes, for both the baseline and the co-design scheme:
//!
//! * `--verify` (default) — run each config twice, expect zero
//!   divergence at every sampled quantum;
//! * `--resumed` — interrupt the second run at a mid-run checkpoint,
//!   serialize, restore, resume; expect zero divergence (exercises the
//!   full crash/resume codec path);
//! * `--perturb N` — corrupt the workload RNG at quantum `N` of the
//!   second run and check the auditor blames the `workloads` component
//!   at exactly that quantum (negative control).
//!
//! Exits non-zero on any contract violation, so CI can gate on it.

use refsim_bench::PresetFlags;
use refsim_core::experiment::ExpOptions;
use refsim_core::replay::{
    replay_verify, replay_verify_perturbed, replay_verify_resumed, ReplayOptions, ReplayReport,
};
use refsim_core::report::Table;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Mode {
    Verify,
    Resumed,
    Perturb(u64),
}

fn parse_args(args: impl IntoIterator<Item = String>) -> (Mode, ExpOptions, bool) {
    let mut mode = Mode::Verify;
    let mut preset = PresetFlags::default();
    let mut csv = false;
    let mut it = args.into_iter();
    while let Some(a) = it.next() {
        if preset.accept(&a, &mut it) {
            continue;
        }
        match a.as_str() {
            "--verify" => mode = Mode::Verify,
            "--resumed" => mode = Mode::Resumed,
            "--perturb" => {
                let v = it.next().expect("--perturb needs a quantum index");
                mode = Mode::Perturb(v.parse().expect("--perturb must be an integer"));
            }
            "--csv" => csv = true,
            "--help" | "-h" => {
                eprintln!(
                    "flags: [--verify | --resumed | --perturb N] \
                     [--quick] [--scale N] [--seed N] [--csv]"
                );
                std::process::exit(0);
            }
            other => panic!("unknown flag {other}; try --help"),
        }
    }
    (mode, preset.options(), csv)
}

fn main() {
    let (mode, opts, csv) = parse_args(std::env::args().skip(1));
    let mut table = Table::new(
        match mode {
            Mode::Verify => "Replay audit: run-twice bit-identity".to_owned(),
            Mode::Resumed => "Replay audit: checkpoint/resume bit-identity".to_owned(),
            Mode::Perturb(q) => format!("Replay audit: perturbation control (quantum {q})"),
        },
        ["mix", "scheme", "samples", "verdict"],
    );
    let mut violations = 0u32;
    for mix in &opts.workloads {
        for (scheme, cfg) in [
            ("baseline", opts.base_config()),
            ("co-design", opts.base_config().co_design()),
        ] {
            let ropts = ReplayOptions::for_config(&cfg);
            let report = match mode {
                Mode::Verify => replay_verify(&cfg, mix, &ropts),
                Mode::Resumed => replay_verify_resumed(&cfg, mix, &ropts),
                Mode::Perturb(q) => replay_verify_perturbed(&cfg, mix, &ropts, q),
            };
            let (samples, verdict, bad) = match (&mode, report) {
                (_, Err(e)) => (0, format!("run failed: {e}"), true),
                (Mode::Perturb(q), Ok(r)) => summarize_perturbed(*q, &r),
                (_, Ok(r)) => match &r.divergence {
                    None => (r.samples, "clean".to_owned(), false),
                    Some(d) => (r.samples, d.to_string(), true),
                },
            };
            violations += u32::from(bad);
            table.push([
                mix.name.clone(),
                scheme.to_owned(),
                samples.to_string(),
                verdict,
            ]);
        }
    }
    if csv {
        print!("{}", table.to_csv());
    } else {
        println!("{table}");
    }
    if violations > 0 {
        eprintln!("replay audit FAILED: {violations} contract violation(s)");
        std::process::exit(1);
    }
}

/// A perturbed run must diverge, in the `workloads` component, at the
/// quantum where the fault was injected — anything else means the
/// auditor is blind or misattributing.
fn summarize_perturbed(q: u64, r: &ReplayReport) -> (usize, String, bool) {
    match &r.divergence {
        Some(d) if d.quantum == q && d.component == "workloads" => {
            (r.samples, format!("detected: {d}"), false)
        }
        Some(d) => (r.samples, format!("misattributed: {d}"), true),
        None => (r.samples, "UNDETECTED perturbation".to_owned(), true),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> (Mode, ExpOptions, bool) {
        parse_args(list.iter().map(|s| (*s).to_owned()))
    }

    #[test]
    fn quick_preset_does_not_override_earlier_flags() {
        let (mode, opts, _) = args(&["--scale", "64", "--seed", "7", "--perturb", "2", "--quick"]);
        assert_eq!(mode, Mode::Perturb(2));
        assert_eq!(opts.time_scale, 64);
        assert_eq!(opts.seed, 7);
        assert_eq!(opts.workloads.len(), 4);
    }

    #[test]
    #[should_panic(expected = "--scale must be an integer >= 1")]
    fn rejects_zero_scale() {
        let _ = args(&["--quick", "--scale", "0"]);
    }
}
