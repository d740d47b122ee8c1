//! # refsim-bench
//!
//! Binaries that regenerate every results table and figure of the
//! reproduced paper (see DESIGN.md §4 for the index), plus Criterion
//! benches over the simulator's hot paths.
//!
//! Every figure binary accepts:
//!
//! * `--quick` — 4 representative mixes, coarser time scale (smoke run);
//! * `--scale N` — override the time-scale divisor;
//! * `--seed N` — override the workload seed;
//! * `--csv` — emit CSV instead of aligned text;
//! * `--cache-dir PATH` — persistent run cache (default: the
//!   `REFSIM_CACHE_DIR` environment variable, if set);
//! * `--no-cache` — ignore any cache directory;
//! * `--stats-out PATH` — write dedup/cache telemetry as JSON;
//! * `--min-hit-rate X` — exit non-zero unless the cache hit rate
//!   reaches `X` (CI warm-cache gate).

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

use std::num::NonZeroU32;
use std::path::PathBuf;

use refsim_core::experiment::ExpOptions;
use refsim_core::report::Table;
use refsim_core::runcache::RunCache;

pub mod soak;

/// The experiment-preset flags every binary shares: `--quick` picks the
/// preset and `--scale`/`--seed` override it, so the preset is applied
/// first whatever its position on the command line.
#[derive(Debug, Clone, Default)]
pub struct PresetFlags {
    quick: bool,
    time_scale: Option<NonZeroU32>,
    seed: Option<u64>,
}

impl PresetFlags {
    /// Consumes `flag` when it is `--quick`, `--scale N` or `--seed N`,
    /// taking its value from `rest`; returns `false` for any other flag.
    ///
    /// # Panics
    ///
    /// Panics on a missing or malformed value, `--scale 0` included.
    pub fn accept(&mut self, flag: &str, rest: &mut impl Iterator<Item = String>) -> bool {
        match flag {
            "--quick" => self.quick = true,
            "--scale" => {
                let v = rest.next().expect("--scale needs a value");
                self.time_scale = Some(v.parse().expect("--scale must be an integer >= 1"));
            }
            "--seed" => {
                let v = rest.next().expect("--seed needs a value");
                self.seed = Some(v.parse().expect("--seed must be an integer"));
            }
            _ => return false,
        }
        true
    }

    /// The options these flags select: the quick or full preset, then
    /// every explicit override.
    pub fn options(&self) -> ExpOptions {
        let mut opts = if self.quick {
            ExpOptions::quick()
        } else {
            ExpOptions::full()
        };
        opts.time_scale = self.time_scale.map_or(opts.time_scale, NonZeroU32::get);
        opts.seed = self.seed.unwrap_or(opts.seed);
        opts
    }
}

/// Parsed command line shared by the figure binaries.
#[derive(Debug, Clone)]
pub struct Cli {
    /// Experiment options assembled from the flags.
    pub opts: ExpOptions,
    /// Emit CSV instead of aligned text.
    pub csv: bool,
    /// Telemetry JSON destination, if requested.
    pub stats_out: Option<PathBuf>,
    /// Minimum acceptable cache hit rate, if gated.
    pub min_hit_rate: Option<f64>,
}

impl Cli {
    /// Parses `std::env::args`.
    ///
    /// # Panics
    ///
    /// Panics with a usage message on malformed flags.
    pub fn parse() -> Self {
        Self::from_args(std::env::args().skip(1))
    }

    /// Parses an explicit argument list (testable).
    pub fn from_args(args: impl IntoIterator<Item = String>) -> Self {
        let mut preset = PresetFlags::default();
        let mut threads = None;
        let mut csv = false;
        let mut cache = RunCache::from_env();
        let mut no_cache = false;
        let mut stats_out = None;
        let mut min_hit_rate = None;
        let mut it = args.into_iter();
        while let Some(a) = it.next() {
            if preset.accept(&a, &mut it) {
                continue;
            }
            match a.as_str() {
                "--threads" => {
                    let v = it.next().expect("--threads needs a value");
                    threads = Some(v.parse().expect("--threads must be an integer"));
                }
                "--csv" => csv = true,
                "--cache-dir" => {
                    let v = it.next().expect("--cache-dir needs a path");
                    cache = Some(RunCache::new(v));
                }
                "--no-cache" => no_cache = true,
                "--stats-out" => {
                    let v = it.next().expect("--stats-out needs a path");
                    stats_out = Some(PathBuf::from(v));
                }
                "--min-hit-rate" => {
                    let v = it.next().expect("--min-hit-rate needs a value");
                    min_hit_rate = Some(v.parse().expect("--min-hit-rate must be a number"));
                }
                "--help" | "-h" => {
                    eprintln!(
                        "flags: [--quick] [--scale N] [--seed N] [--threads N] [--csv] \
                         [--cache-dir PATH] [--no-cache] [--stats-out PATH] [--min-hit-rate X]"
                    );
                    std::process::exit(0);
                }
                other => panic!("unknown flag {other}; try --help"),
            }
        }
        let mut opts = preset.options();
        opts.threads = threads.unwrap_or(opts.threads);
        opts.cache = if no_cache { None } else { cache };
        Cli {
            opts,
            csv,
            stats_out,
            min_hit_rate,
        }
    }

    /// End-of-run bookkeeping every figure binary shares: prints the
    /// dedup/cache and executor telemetry to stderr (when any sweep ran),
    /// writes the `--stats-out` JSON artifact, and enforces
    /// `--min-hit-rate`.
    ///
    /// The artifact keeps the historical cache fields at the top level
    /// and nests the executor counters under an `"executor"` key, so
    /// existing consumers of the flat layout keep working.
    ///
    /// # Panics
    ///
    /// Panics when the stats artifact cannot be written.
    pub fn finish(&self) {
        let stats = self.opts.telemetry.snapshot();
        let exec = self.opts.telemetry.exec_snapshot();
        if stats.requested > 0 {
            eprintln!("runcache: {}", stats.summary());
        }
        if exec.items > 0 {
            eprintln!("executor: {}", exec.summary());
        }
        if let Some(path) = &self.stats_out {
            let combined = combined_stats_json(&stats, &exec);
            refsim_core::vfs::write_atomic(&refsim_core::vfs::StdVfs, path, combined.as_bytes())
                .expect("write stats artifact");
            eprintln!("wrote {}", path.display());
        }
        if let Some(floor) = self.min_hit_rate {
            if stats.hit_rate() < floor {
                eprintln!(
                    "FAIL: cache hit rate {:.3} is below the {floor:.3} floor",
                    stats.hit_rate()
                );
                std::process::exit(1);
            }
        }
    }

    /// Prints a table in the selected format.
    pub fn emit(&self, table: &Table) {
        if self.csv {
            print!("{}", table.to_csv());
        } else {
            println!("{table}");
        }
    }

    /// Prints several tables.
    pub fn emit_all<'a>(&self, tables: impl IntoIterator<Item = &'a Table>) {
        for t in tables {
            self.emit(t);
            println!();
        }
    }
}

/// Splices [`refsim_core::executor::ExecutorStats`] into the cache
/// telemetry JSON: historical cache fields stay at the top level, the
/// executor counters nest under an `"executor"` key.
///
/// # Panics
///
/// Panics if the cache JSON is not a brace-terminated object.
#[must_use]
pub fn combined_stats_json(
    cache: &refsim_core::runcache::CacheStats,
    exec: &refsim_core::executor::ExecutorStats,
) -> String {
    let cache_json = cache.to_json();
    let body = cache_json
        .trim_end()
        .strip_suffix('}')
        .expect("cache stats JSON ends with an object brace")
        .trim_end();
    format!("{body},\n  \"executor\": {}\n}}\n", exec.to_json("  "))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_flags() {
        let cli =
            Cli::from_args(["--quick", "--scale", "64", "--seed", "7", "--csv"].map(String::from));
        assert!(cli.csv);
        assert_eq!(cli.opts.time_scale, 64);
        assert_eq!(cli.opts.seed, 7);
        assert_eq!(cli.opts.workloads.len(), 4);
    }

    #[test]
    fn quick_preset_does_not_override_earlier_flags() {
        let cli = Cli::from_args(
            ["--seed", "7", "--scale", "64", "--threads", "3", "--quick"].map(String::from),
        );
        assert_eq!(cli.opts.time_scale, 64);
        assert_eq!(cli.opts.seed, 7);
        assert_eq!(cli.opts.threads, 3);
        assert_eq!(cli.opts.workloads.len(), 4);
    }

    #[test]
    #[should_panic(expected = "--scale must be an integer >= 1")]
    fn rejects_zero_scale() {
        let _ = Cli::from_args(["--scale", "0"].map(String::from));
    }

    #[test]
    fn parses_cache_flags() {
        let cli = Cli::from_args(
            [
                "--cache-dir",
                "/tmp/rc",
                "--stats-out",
                "stats.json",
                "--min-hit-rate",
                "0.9",
            ]
            .map(String::from),
        );
        assert_eq!(cli.opts.cache, Some(RunCache::new("/tmp/rc")));
        assert_eq!(
            cli.stats_out.as_deref(),
            Some(std::path::Path::new("stats.json"))
        );
        assert_eq!(cli.min_hit_rate, Some(0.9));
    }

    #[test]
    fn no_cache_overrides_cache_dir() {
        let cli = Cli::from_args(["--cache-dir", "/tmp/rc", "--no-cache"].map(String::from));
        assert_eq!(cli.opts.cache, None);
    }

    #[test]
    #[should_panic(expected = "unknown flag")]
    fn rejects_unknown() {
        let _ = Cli::from_args(["--bogus".to_owned()]);
    }

    #[test]
    fn stats_artifact_nests_executor_under_the_cache_fields() {
        let cache = refsim_core::runcache::CacheStats::default();
        let exec = refsim_core::executor::ExecutorStats {
            workers: 4,
            items: 16,
            ..Default::default()
        };
        let json = combined_stats_json(&cache, &exec);
        assert!(json.contains("\"hit_rate\""), "cache fields stay top-level");
        assert!(json.contains("\"executor\": {"), "executor object nested");
        assert!(json.contains("\"workers\": 4"));
        assert!(json.trim_end().ends_with('}'), "well-formed object");
        assert_eq!(
            json.matches("\"executor\"").count(),
            1,
            "exactly one executor key"
        );
    }
}
