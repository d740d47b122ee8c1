//! Every `--bin NAME` that CI, the gate script or the profiling script
//! runs must name a binary of this crate, or that step fails only where
//! it executes.

use std::path::{Path, PathBuf};

/// Files whose `cargo run/build --bin` commands must resolve, relative
/// to the workspace root.
const GATE_FILES: &[&str] = &[
    ".github/workflows/ci.yml",
    "scripts/gates.sh",
    "scripts/profile.sh",
];

fn workspace_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

/// The names after each `--bin` (or `--bin=`) in `text`, cut at the
/// first character that cannot be part of a target name.
fn bin_names(text: &str) -> Vec<String> {
    let mut names = Vec::new();
    let mut tokens = text.split_whitespace();
    while let Some(tok) = tokens.next() {
        let raw = match tok.strip_prefix("--bin") {
            Some("") => tokens.next().unwrap_or(""),
            Some(rest) => match rest.strip_prefix('=') {
                Some(name) => name,
                None => continue, // `--bins`
            },
            None => continue,
        };
        let name: String = raw
            .trim_start_matches(['"', '\'', '`'])
            .chars()
            .take_while(|c| c.is_ascii_alphanumeric() || *c == '_' || *c == '-')
            .collect();
        names.push(name);
    }
    names
}

/// Names in `text` with no `src/bin/NAME.rs` in this crate.
fn unresolved(text: &str) -> Vec<String> {
    let bins = Path::new(env!("CARGO_MANIFEST_DIR")).join("src/bin");
    bin_names(text)
        .into_iter()
        .filter(|n| n.is_empty() || !bins.join(format!("{n}.rs")).is_file())
        .collect()
}

#[test]
fn every_gate_bin_resolves() {
    let mut seen = 0;
    for file in GATE_FILES {
        let path = workspace_root().join(file);
        let text = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("read {}: {e}", path.display()));
        seen += bin_names(&text).len();
        let missing = unresolved(&text);
        assert!(missing.is_empty(), "{file}: no src/bin for {missing:?}");
    }
    assert!(seen > 0, "found no --bin commands to check");
}

#[test]
fn a_misspelt_bin_is_reported() {
    let text = "run: cargo run --release --bin replay -- --verify\n\
                cargo run --release --bin=all_figurez -- --quick\n\
                cargo build --release -p refsim-bench --bin \"simwal\"\n\
                # `cargo run --release --bin crashmat`.\n\
                cargo build --bins";
    assert_eq!(
        bin_names(text),
        ["replay", "all_figurez", "simwal", "crashmat"]
    );
    assert_eq!(unresolved(text), ["all_figurez", "simwal"]);
}

/// The jobs named as `scripts/gates.sh JOB` in `text`.
fn gate_calls(text: &str) -> Vec<String> {
    let mut tokens = text.split_whitespace();
    let mut jobs = Vec::new();
    while let Some(tok) = tokens.next() {
        if tok == "scripts/gates.sh" {
            jobs.push(tokens.next().unwrap_or("").to_owned());
        }
    }
    jobs
}

/// The arms of the top-level `case` in a gate script, `*` excluded.
fn gate_jobs(script: &str) -> Vec<String> {
    script
        .lines()
        .skip_while(|l| !l.starts_with("case "))
        .take_while(|l| !l.starts_with("esac"))
        .filter_map(|l| l.strip_prefix("    ")?.split_once(')'))
        .map(|(arm, _)| arm.to_owned())
        .filter(|arm| !arm.starts_with(['*', ' ']))
        .collect()
}

/// Calls in `ci` whose job is not an arm of `script`'s `case`.
fn unknown_jobs(ci: &str, script: &str) -> Vec<String> {
    let jobs = gate_jobs(script);
    gate_calls(ci)
        .into_iter()
        .filter(|j| !jobs.contains(j))
        .collect()
}

#[test]
fn every_ci_gate_job_is_a_case_of_the_script() {
    let read = |file: &str| {
        let path = workspace_root().join(file);
        std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()))
    };
    let (ci, script) = (read(".github/workflows/ci.yml"), read("scripts/gates.sh"));
    assert!(!gate_calls(&ci).is_empty(), "ci.yml calls no gate job");
    assert!(gate_jobs(&script).contains(&"all".to_owned()));
    let unknown = unknown_jobs(&ci, &script);
    assert!(
        unknown.is_empty(),
        "ci.yml runs unknown gate jobs {unknown:?}"
    );
}

#[test]
fn a_misspelt_gate_job_is_reported() {
    let script = "soak() {\n    cargo run\n}\n\
                  case \"${1:-}\" in\n    \
                  soak) soak ;;\n    \
                  warm-cache) warm_cache ;;\n    \
                  all)\n        soak\n        ;;\n    \
                  *)\n        exit 2\n        ;;\n\
                  esac\n";
    assert_eq!(gate_jobs(script), ["soak", "warm-cache", "all"]);
    let ci = "run: scripts/gates.sh soak\n\
              run: scripts/gates.sh warm_cache\n\
              # see scripts/gates.sh).\n\
              run: scripts/gates.sh all";
    assert_eq!(unknown_jobs(ci, script), ["warm_cache"]);
}
