//! Process-level measurements (CPU time, peak memory) and the small
//! statistics the benchmark reports.

use refsim_core::codec;
use refsim_core::error::RefsimError;
use refsim_core::metrics::RunMetrics;

/// User plus system CPU seconds of this process, all threads included
/// (live and exited), from `/proc/self/stat`. Linux only; the kernel
/// reports these fields in clock ticks of 1/100 s.
pub fn cpu_seconds() -> f64 {
    const TICKS_PER_S: f64 = 100.0;
    let Ok(stat) = std::fs::read_to_string("/proc/self/stat") else {
        return f64::NAN;
    };
    // The command name (field 2) may contain spaces; the fields after
    // its closing parenthesis start at field 3 (state).
    let Some(rest) = stat.rfind(')').map(|i| &stat[i + 1..]) else {
        return f64::NAN;
    };
    let fields: Vec<&str> = rest.split_whitespace().collect();
    // utime and stime are fields 14 and 15, i.e. indices 11 and 12 here.
    let tick = |i: usize| fields.get(i).and_then(|f| f.parse::<u64>().ok());
    match (tick(11), tick(12)) {
        (Some(u), Some(s)) => (u + s) as f64 / TICKS_PER_S,
        _ => f64::NAN,
    }
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// The `q`-quantile (0..=1) of `v` by linear interpolation between
/// closest ranks; `0.0` for an empty slice.
pub fn quantile(v: &[f64], q: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let pos = q * (s.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    s[lo] + (s[hi] - s[lo]) * (pos - lo as f64)
}

pub fn median(v: &[f64]) -> f64 {
    quantile(v, 0.5)
}

/// Order-sensitive digest of a batch of cell results: FNV-64 over each
/// cell's canonical codec encoding (or its error text).
pub fn digest<'a>(results: impl IntoIterator<Item = &'a Result<RunMetrics, RefsimError>>) -> u64 {
    let mut bytes = Vec::new();
    for r in results {
        match r {
            Ok(m) => bytes.extend_from_slice(&codec::to_bytes(m)),
            Err(e) => bytes.extend_from_slice(format!("error: {e}").as_bytes()),
        }
        bytes.push(0xFF);
    }
    codec::fnv64(&bytes)
}

/// Measured-phase instructions retired by every task of a run.
pub fn instructions(m: &RunMetrics) -> u64 {
    m.tasks.iter().map(|t| t.instructions).sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&v), 2.5);
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
        assert_eq!(quantile(&[], 0.5), 0.0);
    }

    #[test]
    fn process_counters_read() {
        assert!(cpu_seconds() >= 0.0);
        assert!(peak_rss_mb() > 0.0);
    }
}
