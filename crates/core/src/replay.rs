//! Deterministic-replay divergence auditing.
//!
//! The simulator is fully deterministic: the same `(config, mix)` pair
//! driven through the same `run_until` boundaries must reproduce every
//! bit of machine state. This module turns that property into a
//! checkable contract. A *trace* runs a configuration while sampling an
//! FNV-1a hash of each architectural component (DRAM controllers, CPU
//! cores, OS, workload generators, top-level system glue) at fixed,
//! slice-aligned span boundaries; comparing two traces pinpoints the
//! first divergent quantum *and* the component whose state differed —
//! the difference between "the run broke somewhere" and "the scheduler
//! state diverged at quantum 17".
//!
//! Three verification modes:
//!
//! * [`replay_verify`] — run the config twice, expect zero divergence;
//! * [`replay_verify_resumed`] — run once uninterrupted, once through a
//!   serialized mid-run checkpoint, expect zero divergence (exercises
//!   the whole checkpoint codec path);
//! * [`replay_verify_perturbed`] — deliberately corrupt one component at
//!   a chosen quantum and check the auditor attributes it correctly.

use std::fmt;

use refsim_dram::time::Ps;
use refsim_workloads::mix::WorkloadMix;

use crate::checkpoint::{Checkpoint, SavedSystem};
use crate::codec::{Enc, Snapshot};
use crate::config::{EngineKind, SystemConfig};
use crate::error::RefsimError;
use crate::system::System;

/// Component-level FNV-1a hashes of a [`SavedSystem`], used to attribute
/// a divergence to the subsystem that caused it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StateHashes {
    /// Memory controllers: banks, queues, refresh policy, trackers.
    pub dram: u64,
    /// Cores: cache hierarchies, quantum state, MSHR lines.
    pub cpu: u64,
    /// OS: task table, scheduler runqueues, bank-aware allocator.
    pub os: u64,
    /// Workload generators and execution contexts.
    pub workloads: u64,
    /// Top-level glue: clock, request ids, in-flight fills, baselines.
    pub system: u64,
}

impl StateHashes {
    /// Hashes each component section of `s` independently, streaming
    /// its encoding through [`Enc::hasher`] rather than materializing it.
    pub fn of(s: &SavedSystem) -> Self {
        let hash = |encode: &dyn Fn(&mut Enc)| {
            let mut e = Enc::hasher();
            encode(&mut e);
            e.digest()
        };
        StateHashes {
            dram: hash(&|e| s.mcs.encode(e)),
            cpu: hash(&|e| s.cores.encode(e)),
            os: hash(&|e| {
                s.tasks.encode(e);
                s.sched.encode(e);
                s.alloc.encode(e);
            }),
            workloads: hash(&|e| s.sims.encode(e)),
            system: hash(&|e| {
                s.clock.encode(e);
                s.next_req.encode(e);
                s.measure_start.encode(e);
                s.inflight.encode(e);
                s.base.encode(e);
                s.sched_base_stats.encode(e);
            }),
        }
    }

    /// A single hash folding all five components.
    pub fn combined(&self) -> u64 {
        let mut e = Enc::hasher();
        for w in [self.dram, self.cpu, self.os, self.workloads, self.system] {
            e.put_u64(w);
        }
        e.digest()
    }

    /// The first component whose hash differs from `other`'s, with both
    /// hash values, or `None` if all match.
    pub fn first_diff(&self, other: &Self) -> Option<(&'static str, u64, u64)> {
        [
            ("dram", self.dram, other.dram),
            ("cpu", self.cpu, other.cpu),
            ("os", self.os, other.os),
            ("workloads", self.workloads, other.workloads),
            ("system", self.system, other.system),
        ]
        .into_iter()
        .find(|&(_, a, b)| a != b)
    }
}

/// One incremental sample of a replay trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReplaySample {
    /// Index of the span boundary (the auditor's "quantum").
    pub quantum: u64,
    /// Simulation clock at the sample.
    pub at: Ps,
    /// Component hashes at the sample.
    pub hashes: StateHashes,
}

/// The first point where two traces disagree.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Divergence {
    /// Quantum index of the first disagreement.
    pub quantum: u64,
    /// Simulation clock of that sample (from the reference trace).
    pub at: Ps,
    /// Component responsible (`dram`, `cpu`, `os`, `workloads`,
    /// `system`), or `sample-count` when one trace is shorter.
    pub component: String,
    /// Reference trace's hash of that component.
    pub a: u64,
    /// Compared trace's hash of that component.
    pub b: u64,
}

impl fmt::Display for Divergence {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "first divergence at quantum {} (t={}): component `{}` \
             {:#018x} != {:#018x}",
            self.quantum, self.at, self.component, self.a, self.b
        )
    }
}

/// Result of a replay-verification run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReplayReport {
    /// Samples compared.
    pub samples: usize,
    /// First divergence, if any.
    pub divergence: Option<Divergence>,
}

impl ReplayReport {
    /// Whether the two executions were bit-identical at every sample.
    pub fn is_clean(&self) -> bool {
        self.divergence.is_none()
    }
}

impl fmt::Display for ReplayReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.divergence {
            None => write!(f, "replay clean: {} samples bit-identical", self.samples),
            Some(d) => write!(f, "replay DIVERGED after {} samples: {d}", self.samples),
        }
    }
}

/// Replay sampling options.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReplayOptions {
    /// Interval between state samples. Keep it a multiple of the
    /// config's effective timeslice so samples land on quantum
    /// boundaries.
    pub sample_every: Ps,
}

impl ReplayOptions {
    /// Samples every four scheduling quanta of `cfg`.
    pub fn for_config(cfg: &SystemConfig) -> Self {
        ReplayOptions {
            sample_every: cfg.effective_timeslice() * 4,
        }
    }
}

/// The absolute span boundaries a driver must use so that two runs of
/// the same config — or an uninterrupted run and a checkpoint-resumed
/// one — are steered through identical step segmentation. Includes the
/// warm-up boundary and the end of the measured window; `every = None`
/// yields exactly the segmentation of [`System::try_run`].
pub fn span_boundaries(cfg: &SystemConfig, every: Option<Ps>) -> Vec<Ps> {
    let end = cfg.warmup + cfg.measure;
    let mut bs = Vec::new();
    if let Some(every) = every {
        if every > Ps::ZERO {
            let mut t = every;
            while t < end {
                bs.push(t);
                t += every;
            }
        }
    }
    bs.push(cfg.warmup);
    bs.push(end);
    bs.sort_unstable();
    bs.dedup();
    bs.retain(|&b| b > Ps::ZERO);
    bs
}

/// Advances `sys` to boundary `b`, handling the warm-up → measurement
/// transition exactly where [`System::try_run`] would.
fn advance(sys: &mut System, cfg: &SystemConfig, b: Ps) -> Result<(), RefsimError> {
    sys.try_run_until(b)?;
    if b == cfg.warmup {
        sys.begin_measure();
    }
    Ok(())
}

fn trace_with(
    cfg: &SystemConfig,
    mix: &WorkloadMix,
    opts: &ReplayOptions,
    mut hook: impl FnMut(&mut System, u64),
) -> Result<Vec<ReplaySample>, RefsimError> {
    let mut sys = System::try_new(cfg.clone(), mix)?;
    if cfg.warmup == Ps::ZERO {
        sys.begin_measure();
    }
    let mut samples = Vec::new();
    for (q, &b) in span_boundaries(cfg, Some(opts.sample_every))
        .iter()
        .enumerate()
    {
        advance(&mut sys, cfg, b)?;
        hook(&mut sys, q as u64);
        samples.push(ReplaySample {
            quantum: q as u64,
            at: sys.now(),
            hashes: StateHashes::of(&sys.export_state()),
        });
    }
    Ok(samples)
}

/// Runs `(cfg, mix)` once, sampling component hashes at each boundary.
///
/// # Errors
///
/// Any simulation fault of the underlying run.
pub fn trace(
    cfg: &SystemConfig,
    mix: &WorkloadMix,
    opts: &ReplayOptions,
) -> Result<Vec<ReplaySample>, RefsimError> {
    trace_with(cfg, mix, opts, |_, _| {})
}

/// Compares two traces sample-by-sample and reports the first
/// disagreement (quantum + component), or `None` if they are identical.
pub fn first_divergence(a: &[ReplaySample], b: &[ReplaySample]) -> Option<Divergence> {
    for (sa, sb) in a.iter().zip(b) {
        if sa.at != sb.at {
            return Some(Divergence {
                quantum: sa.quantum,
                at: sa.at,
                component: "system".to_owned(),
                a: sa.at.as_ps(),
                b: sb.at.as_ps(),
            });
        }
        if let Some((name, ha, hb)) = sa.hashes.first_diff(&sb.hashes) {
            return Some(Divergence {
                quantum: sa.quantum,
                at: sa.at,
                component: name.to_owned(),
                a: ha,
                b: hb,
            });
        }
    }
    if a.len() != b.len() {
        let q = a.len().min(b.len()) as u64;
        return Some(Divergence {
            quantum: q,
            at: a
                .get(q as usize)
                .or(b.get(q as usize))
                .map_or(Ps::ZERO, |s| s.at),
            component: "sample-count".to_owned(),
            a: a.len() as u64,
            b: b.len() as u64,
        });
    }
    None
}

/// Runs `(cfg, mix)` twice and verifies the executions are
/// bit-identical at every sampled quantum.
///
/// # Errors
///
/// Any simulation fault of either run. A divergence is *not* an error —
/// it is the report's payload.
pub fn replay_verify(
    cfg: &SystemConfig,
    mix: &WorkloadMix,
    opts: &ReplayOptions,
) -> Result<ReplayReport, RefsimError> {
    let a = trace(cfg, mix, opts)?;
    let b = trace(cfg, mix, opts)?;
    Ok(ReplayReport {
        samples: a.len().min(b.len()),
        divergence: first_divergence(&a, &b),
    })
}

/// Runs `(cfg, mix)` once per advancement engine — fixed-step and
/// event-skip — and verifies the two executions are bit-identical at
/// every sampled quantum. This is the differential harness that
/// licenses the event-horizon engine: any over-skip shows up as a hash
/// divergence attributed to the first diverging component.
///
/// # Errors
///
/// Any simulation fault of either run. A divergence is *not* an error —
/// it is the report's payload.
pub fn replay_verify_engines(
    cfg: &SystemConfig,
    mix: &WorkloadMix,
    opts: &ReplayOptions,
) -> Result<ReplayReport, RefsimError> {
    let fixed = trace(&cfg.clone().with_engine(EngineKind::FixedStep), mix, opts)?;
    let skip = trace(&cfg.clone().with_engine(EngineKind::EventSkip), mix, opts)?;
    Ok(ReplayReport {
        samples: fixed.len().min(skip.len()),
        divergence: first_divergence(&fixed, &skip),
    })
}

/// Like [`replay_verify`], but the second execution is interrupted at
/// the middle boundary, serialized through the checkpoint byte format,
/// restored into a freshly built system, and resumed — verifying the
/// full crash/resume path reproduces the uninterrupted run bit for bit.
///
/// # Errors
///
/// Any simulation fault, plus [`RefsimError::Checkpoint`] if the
/// serialized image fails to round-trip.
pub fn replay_verify_resumed(
    cfg: &SystemConfig,
    mix: &WorkloadMix,
    opts: &ReplayOptions,
) -> Result<ReplayReport, RefsimError> {
    let reference = trace(cfg, mix, opts)?;
    let bs = span_boundaries(cfg, Some(opts.sample_every));
    let mid = bs.len() / 2;

    // First leg: run to the middle boundary and serialize.
    let mut sys = System::try_new(cfg.clone(), mix)?;
    if cfg.warmup == Ps::ZERO {
        sys.begin_measure();
    }
    for &b in &bs[..mid] {
        advance(&mut sys, cfg, b)?;
    }
    let image = sys.checkpoint(mix).to_bytes();
    drop(sys);

    // Second leg: restore from bytes and resume through the remaining
    // boundaries, sampling as the reference did.
    let cp = Checkpoint::from_bytes(&image).map_err(|e| RefsimError::Checkpoint(e.to_string()))?;
    let mut sys = System::restore(cfg.clone(), mix, &cp)?;
    let mut tail = Vec::new();
    for (q, &b) in bs.iter().enumerate().skip(mid) {
        advance(&mut sys, cfg, b)?;
        tail.push(ReplaySample {
            quantum: q as u64,
            at: sys.now(),
            hashes: StateHashes::of(&sys.export_state()),
        });
    }
    Ok(ReplayReport {
        samples: tail.len(),
        divergence: first_divergence(&reference[mid..], &tail),
    })
}

/// Negative control for the auditor: runs `(cfg, mix)` twice, corrupting
/// the second run's workload-generator state right after `at_quantum`,
/// and reports the resulting divergence. A healthy auditor attributes it
/// to the `workloads` component at exactly that quantum.
///
/// # Errors
///
/// Any simulation fault of either run.
///
/// # Panics
///
/// Panics if the perturbed state is rejected on reimport (cannot happen
/// for an RNG-state flip).
pub fn replay_verify_perturbed(
    cfg: &SystemConfig,
    mix: &WorkloadMix,
    opts: &ReplayOptions,
    at_quantum: u64,
) -> Result<ReplayReport, RefsimError> {
    let a = trace(cfg, mix, opts)?;
    let b = trace_with(cfg, mix, opts, |sys, q| {
        if q == at_quantum {
            let mut st = sys.export_state();
            if let Some(sim) = st.sims.first_mut() {
                sim.wl.rng_state ^= 1;
            }
            sys.import_state(&st)
                .expect("rng flip is always importable");
        }
    })?;
    Ok(ReplayReport {
        samples: a.len().min(b.len()),
        divergence: first_divergence(&a, &b),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use refsim_workloads::mix::WorkloadMix;
    use refsim_workloads::profiles::Benchmark;

    fn tiny_cfg(seed: u64) -> SystemConfig {
        let mut c = SystemConfig::table1().with_time_scale(512).with_seed(seed);
        c.warmup = c.trefw() / 8;
        c.measure = c.trefw() / 2;
        c
    }

    fn tiny_mix() -> WorkloadMix {
        WorkloadMix::from_groups(
            "tiny",
            &[(Benchmark::Stream, 2), (Benchmark::Povray, 2)],
            "M + L",
        )
    }

    #[test]
    fn boundaries_are_sorted_unique_and_cover_the_run() {
        let cfg = tiny_cfg(1);
        let bs = span_boundaries(&cfg, Some(cfg.effective_timeslice() * 4));
        assert!(bs.windows(2).all(|w| w[0] < w[1]), "{bs:?}");
        assert!(bs.contains(&cfg.warmup));
        assert_eq!(*bs.last().unwrap(), cfg.warmup + cfg.measure);
        // try_run segmentation: exactly warm + end.
        let plain = span_boundaries(&cfg, None);
        assert_eq!(plain, vec![cfg.warmup, cfg.warmup + cfg.measure]);
    }

    #[test]
    fn replay_verify_is_clean_across_seeds() {
        for seed in [0x5EED, 0xFEED] {
            let cfg = tiny_cfg(seed);
            let opts = ReplayOptions::for_config(&cfg);
            let r = replay_verify(&cfg, &tiny_mix(), &opts).expect("run");
            assert!(r.is_clean(), "seed {seed:#x}: {r}");
            assert!(
                r.samples > 2,
                "must actually sample ({} samples)",
                r.samples
            );
        }
    }

    #[test]
    fn resumed_replay_is_clean() {
        let cfg = tiny_cfg(7).co_design();
        let opts = ReplayOptions::for_config(&cfg);
        let r = replay_verify_resumed(&cfg, &tiny_mix(), &opts).expect("run");
        assert!(r.is_clean(), "{r}");
    }

    #[test]
    fn resumed_replay_is_clean_on_the_shadow_backend() {
        // Exercises the shadow model's save/restore through the full
        // checkpoint codec path — a precondition for differential
        // triage, which assumes either backend can self-replay.
        let cfg = tiny_cfg(7).with_backend(refsim_dram::backend::BackendKind::Shadow);
        let opts = ReplayOptions::for_config(&cfg);
        let r = replay_verify_resumed(&cfg, &tiny_mix(), &opts).expect("run");
        assert!(r.is_clean(), "{r}");
    }

    #[test]
    fn perturbation_is_attributed_to_quantum_and_component() {
        let cfg = tiny_cfg(3);
        let opts = ReplayOptions::for_config(&cfg);
        let r = replay_verify_perturbed(&cfg, &tiny_mix(), &opts, 2).expect("run");
        let d = r.divergence.expect("perturbed run must diverge");
        assert_eq!(d.quantum, 2, "{d}");
        assert_eq!(d.component, "workloads", "{d}");
        assert!(d.to_string().contains("quantum 2"), "{d}");
    }

    #[test]
    fn different_seeds_do_diverge() {
        // Sanity check the auditor can see a real difference: traces of
        // different seeds disagree from the very first sample.
        let mix = tiny_mix();
        let a_cfg = tiny_cfg(1);
        let opts = ReplayOptions::for_config(&a_cfg);
        let a = trace(&a_cfg, &mix, &opts).expect("run");
        let b = trace(&tiny_cfg(2), &mix, &opts).expect("run");
        let d = first_divergence(&a, &b).expect("seeds must differ");
        assert_eq!(d.quantum, 0);
    }

    #[test]
    fn final_state_hashes_match_their_golden_pins() {
        // Golden values of the byte-collecting definition, `fnv64` of
        // each component's `to_bytes`: the streamed hash, the zero-word
        // fold and the copy-on-write page map must leave them, and the
        // checkpoint bytes, unchanged. The checkpoint header carries the
        // config fingerprint, so its pin also moves with
        // `runcache::CACHE_SCHEMA`.
        let cfg = tiny_cfg(0x601D).with_density(refsim_dram::timing::Density::Gb32);
        let mix = tiny_mix();
        let mut sys = System::new(cfg, &mix);
        sys.run();
        let state = sys.export_state();
        let h = StateHashes::of(&state);
        let pins = [
            ("dram", h.dram, 0x6a4d_e5b1_4ae2_bf76),
            ("cpu", h.cpu, 0xb4b2_9ee1_bfae_1c1a),
            ("os", h.os, 0x4fa5_d51f_3c54_0338),
            ("workloads", h.workloads, 0x17aa_4142_c071_83c1),
            ("system", h.system, 0x06d0_5bd2_9ce4_97e1),
            ("combined", h.combined(), 0x0934_a29f_6924_9d7c),
            (
                "state bytes",
                crate::codec::fnv64(&crate::codec::to_bytes(&state)),
                0xe176_33fb_21c1_f04c,
            ),
            (
                "checkpoint bytes",
                crate::codec::fnv64(&sys.checkpoint(&mix).to_bytes()),
                0x9d46_7005_0973_40e6,
            ),
        ];
        for (what, got, want) in pins {
            assert_eq!(got, want, "{what}: {got:#018x} != pinned {want:#018x}");
        }
    }

    #[test]
    fn sample_count_mismatch_is_reported() {
        let cfg = tiny_cfg(1);
        let opts = ReplayOptions::for_config(&cfg);
        let a = trace(&cfg, &tiny_mix(), &opts).expect("run");
        let d = first_divergence(&a, &a[..a.len() - 1]).expect("shorter trace");
        assert_eq!(d.component, "sample-count");
    }
}
