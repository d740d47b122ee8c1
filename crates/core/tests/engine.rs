//! Differential proof obligations for the event-horizon engine.
//!
//! The event-skip engine (`EngineKind::EventSkip`) is only allowed to
//! exist because it is *bit-identical* to the fixed-step reference
//! loop: same `RunMetrics`, same replay state hashes at every sampled
//! quantum, for every refresh policy and for randomized workload mixes.
//! This suite pins that equivalence, proves the auditing layers catch a
//! deliberately broken engine (the negative control), and pins the
//! allocation-surgery guarantees (reusable buffers, inflight table)
//! that make the skip loop worth having.

use proptest::prelude::*;

use refsim_core::config::EngineKind;
use refsim_core::prelude::*;
use refsim_core::replay::{self, ReplayOptions, StateHashes};
use refsim_core::system::System;
use refsim_dram::refresh::RefreshPolicyKind;
use refsim_dram::time::Ps;
use refsim_dram::timing::FgrMode;
use refsim_workloads::mix::WorkloadMix;
use refsim_workloads::profiles::Benchmark;

const ALL_POLICIES: [RefreshPolicyKind; 8] = [
    RefreshPolicyKind::NoRefresh,
    RefreshPolicyKind::AllBank,
    RefreshPolicyKind::PerBankRoundRobin,
    RefreshPolicyKind::PerBankSequential,
    RefreshPolicyKind::OooPerBank,
    RefreshPolicyKind::Fgr(FgrMode::X2),
    RefreshPolicyKind::Adaptive,
    RefreshPolicyKind::Elastic,
];

/// A fast config: tiny windows, small scale (mirrors the unit-test
/// idiom in `system.rs`).
fn quick(cfg: SystemConfig) -> SystemConfig {
    let mut c = cfg.with_time_scale(512);
    c.warmup = c.trefw() / 4;
    c.measure = c.trefw();
    c
}

fn small_mix() -> WorkloadMix {
    WorkloadMix::from_groups(
        "test",
        &[(Benchmark::Stream, 2), (Benchmark::Povray, 2)],
        "M + L",
    )
}

/// Runs `(cfg, mix)` to completion and returns the collected metrics
/// plus the final full-state hash digest.
fn run_once(cfg: &SystemConfig, mix: &WorkloadMix) -> (RunMetrics, StateHashes) {
    let mut sys = System::try_new(cfg.clone(), mix).expect("build");
    sys.try_run_until(cfg.warmup).expect("warmup");
    sys.begin_measure();
    sys.try_run_until(cfg.warmup + cfg.measure)
        .expect("measure");
    let hashes = StateHashes::of(&sys.export_state());
    (sys.collect(), hashes)
}

/// The headline equivalence: for every refresh policy, the event-skip
/// engine produces the exact `RunMetrics` and final state hash of the
/// fixed-step reference, and every intermediate replay sample matches.
#[test]
fn engines_are_bit_identical_for_every_policy() {
    for policy in ALL_POLICIES {
        let base = quick(SystemConfig::table1()).with_refresh(policy);
        let mix = small_mix();

        let (m_fixed, h_fixed) = run_once(&base.clone().with_engine(EngineKind::FixedStep), &mix);
        let (m_skip, h_skip) = run_once(&base.clone().with_engine(EngineKind::EventSkip), &mix);
        assert_eq!(m_fixed, m_skip, "RunMetrics diverged under {policy:?}");
        assert_eq!(
            h_fixed.combined(),
            h_skip.combined(),
            "final state hash diverged under {policy:?}: {:?}",
            h_fixed.first_diff(&h_skip)
        );

        let report = replay::replay_verify_engines(&base, &mix, &ReplayOptions::for_config(&base))
            .expect("both engines must run clean");
        assert!(report.samples > 2, "sampling must actually observe the run");
        assert!(
            report.is_clean(),
            "replay hashes diverged under {policy:?}: {:?}",
            report.divergence
        );
    }
}

/// The batched tick path (SoA bank lanes + plan memo + fast core loop)
/// is only allowed to be the default because it is bit-identical to the
/// scalar reference walk: same `RunMetrics` and same final replay state
/// hash for every refresh policy under *both* engines. Together with
/// the engine equivalence above this pins the full 8-policy × 2-engine
/// × 2-path matrix to a single behavior.
#[test]
fn tick_paths_are_bit_identical_for_every_policy_and_engine() {
    use refsim_dram::backend::TickPath;
    for policy in ALL_POLICIES {
        for engine in [EngineKind::FixedStep, EngineKind::EventSkip] {
            let base = quick(SystemConfig::table1())
                .with_refresh(policy)
                .with_engine(engine);
            let mix = small_mix();

            let (m_batch, h_batch) =
                run_once(&base.clone().with_tick_path(TickPath::Batched), &mix);
            let (m_scalar, h_scalar) = run_once(
                &base.clone().with_tick_path(TickPath::ScalarReference),
                &mix,
            );
            assert_eq!(
                m_batch, m_scalar,
                "RunMetrics diverged across tick paths under {policy:?}/{engine:?}"
            );
            assert_eq!(
                h_batch.combined(),
                h_scalar.combined(),
                "replay hash diverged across tick paths under {policy:?}/{engine:?}: {:?}",
                h_batch.first_diff(&h_scalar)
            );
        }
    }
}

/// Engine equivalence above one channel: on a 2-channel machine the
/// event-skip engine on the batched tick path must reproduce the
/// fixed-step engine on the scalar reference walk exactly — same
/// `RunMetrics`, same final replay state hash — for every refresh
/// policy. This exercises the multi-channel "advance the laggard"
/// completion horizon (DESIGN.md §12), which no single-channel run
/// reaches.
#[test]
fn two_channel_engines_and_paths_are_bit_identical_for_every_policy() {
    use refsim_dram::backend::TickPath;
    for policy in ALL_POLICIES {
        let base = quick(SystemConfig::table1())
            .with_channels(2)
            .with_refresh(policy);
        let mix = small_mix();

        let reference = base
            .clone()
            .with_engine(EngineKind::FixedStep)
            .with_tick_path(TickPath::ScalarReference);
        let fast = base
            .with_engine(EngineKind::EventSkip)
            .with_tick_path(TickPath::Batched);
        let (m_ref, h_ref) = run_once(&reference, &mix);
        let (m_fast, h_fast) = run_once(&fast, &mix);
        assert!(
            m_ref.controller.reads_completed > 0,
            "the 2-channel run must actually exercise the memory system"
        );
        assert_eq!(
            m_ref, m_fast,
            "RunMetrics diverged: 2-channel event-skip/batched vs \
             fixed-step/scalar under {policy:?}"
        );
        assert_eq!(
            h_ref.combined(),
            h_fast.combined(),
            "replay hash diverged: 2-channel event-skip/batched vs \
             fixed-step/scalar under {policy:?}: {:?}",
            h_ref.first_diff(&h_fast)
        );
    }
}

/// Spot check at 4 channels with the full co-design active (sequential
/// per-bank refresh + soft partitioning + refresh-aware scheduling):
/// the generalized Algorithm 1/2/3 paths agree across both engines on
/// a wider machine.
#[test]
fn four_channel_co_design_engines_are_bit_identical() {
    let base = quick(SystemConfig::table1().co_design()).with_channels(4);
    let mix = small_mix();

    let (m_fixed, h_fixed) = run_once(&base.clone().with_engine(EngineKind::FixedStep), &mix);
    assert!(
        m_fixed.controller.reads_completed > 0,
        "the 4-channel run must actually exercise the memory system"
    );
    let (m_skip, h_skip) = run_once(&base.with_engine(EngineKind::EventSkip), &mix);
    assert_eq!(
        m_fixed, m_skip,
        "RunMetrics diverged: 4-channel event-skip vs fixed-step"
    );
    assert_eq!(
        h_fixed.combined(),
        h_skip.combined(),
        "replay hash diverged: 4-channel event-skip vs fixed-step: {:?}",
        h_fixed.first_diff(&h_skip)
    );
}

/// The sanitizer's Full-audit mode must stay quiet when the event-skip
/// engine drives the machine — every event and quantum check holds on
/// skipped spans exactly as on crawled ones.
#[test]
fn event_skip_is_quiet_under_full_audit() {
    let cfg = quick(SystemConfig::table1())
        .with_engine(EngineKind::EventSkip)
        .with_audit(AuditLevel::Full);
    let mut sys = System::try_new(cfg.clone(), &small_mix()).expect("build");
    sys.try_run_until(cfg.warmup).expect("warmup under audit");
    sys.begin_measure();
    sys.try_run_until(cfg.warmup + cfg.measure)
        .expect("full-audit event-skip run must be violation-free");
}

/// Multi-channel runs must satisfy the full invariant suite too: every
/// `ChannelSample` checker (refresh coverage, postponement debt, bus
/// occupancy, rank-refresh ordering) walks all channels, and a
/// 2-channel event-skip run under `AuditLevel::Full` stays violation-
/// free with the co-design policies active.
#[test]
fn two_channel_run_is_quiet_under_full_audit() {
    let cfg = quick(SystemConfig::table1().co_design())
        .with_channels(2)
        .with_engine(EngineKind::EventSkip)
        .with_audit(AuditLevel::Full);
    let mut sys = System::try_new(cfg.clone(), &small_mix()).expect("build");
    sys.try_run_until(cfg.warmup).expect("warmup under audit");
    sys.begin_measure();
    sys.try_run_until(cfg.warmup + cfg.measure)
        .expect("full-audit 2-channel run must be violation-free");
    let m = sys.collect();
    assert!(
        m.controller.reads_completed > 0,
        "the audited run must actually exercise both channels' controllers"
    );
}

/// Negative control: an engine that overshoots its event horizons (here
/// forced via the `debug_skip_overshoot` hook, widening every jump past
/// quantum ends) must be *caught* — the run either trips an invariant
/// checker outright or lands on a different machine state than the
/// fixed-step reference, which the replay auditor reports as a hash
/// divergence. A silent pass would mean the proof harness is vacuous.
#[test]
fn overshooting_engine_is_caught() {
    let base = quick(SystemConfig::table1());
    let mix = small_mix();
    let end = base.warmup + base.measure;
    let (_, h_ref) = run_once(&base.clone().with_engine(EngineKind::FixedStep), &mix);

    let cfg = base
        .clone()
        .with_engine(EngineKind::EventSkip)
        .with_audit(AuditLevel::Full);
    let mut sys = System::try_new(cfg, &mix).expect("build");
    // One full step of overshoot: every skip lands one 250 ns lattice
    // point past the true horizon, sailing through quantum boundaries.
    sys.debug_skip_overshoot(Ps::from_ns(250));
    let outcome = sys.try_run_until(end);
    let caught = match outcome {
        // The invariant layer (sanitizer / watchdog) fired — ideal.
        Err(_) => true,
        // Or the corruption is silent locally but visible differentially.
        Ok(()) => StateHashes::of(&sys.export_state()).combined() != h_ref.combined(),
    };
    assert!(
        caught,
        "a deliberately overshooting engine must not reproduce the reference run"
    );
}

/// The overshoot hook is engine-gated: under the fixed-step engine it
/// must be inert, so a hook accidentally left on cannot corrupt the
/// reference side of a differential run.
#[test]
fn overshoot_hook_is_inert_under_fixed_step() {
    let cfg = quick(SystemConfig::table1()).with_engine(EngineKind::FixedStep);
    let mix = small_mix();
    let (m_ref, h_ref) = run_once(&cfg, &mix);

    let mut sys = System::try_new(cfg.clone(), &mix).expect("build");
    sys.debug_skip_overshoot(Ps::from_ns(250));
    sys.try_run_until(cfg.warmup).expect("warmup");
    sys.begin_measure();
    sys.try_run_until(cfg.warmup + cfg.measure)
        .expect("measure");
    assert_eq!(
        StateHashes::of(&sys.export_state()).combined(),
        h_ref.combined()
    );
    assert_eq!(sys.collect(), m_ref);
}

/// The equivalence must hold at *any* step pitch, not just the default
/// 250 ns lattice: run the memory-stall-heavy reference regime (the
/// pointer-chase mix `simwall` benchmarks) at DRAM-clock fidelity —
/// 1.25 ns, 200× finer — through both engines. This is the regime the
/// event-horizon engine exists for, so its bit-identity is pinned
/// directly rather than inferred from the coarse-pitch suite.
#[test]
fn engines_are_bit_identical_at_command_pitch() {
    let mix = WorkloadMix::from_groups("chase", &[(Benchmark::Mcf, 2)], "H");
    for policy in [RefreshPolicyKind::AllBank, RefreshPolicyKind::Elastic] {
        let mut base = quick(SystemConfig::table1())
            .with_refresh(policy)
            .with_step(Ps(1_250));
        // Half a retention window is ~10^5 fine-pitch boundaries —
        // plenty of skip decisions while keeping the suite quick.
        base.measure = base.trefw() / 2;
        let (m_fixed, h_fixed) = run_once(&base.clone().with_engine(EngineKind::FixedStep), &mix);
        let (m_skip, h_skip) = run_once(&base.clone().with_engine(EngineKind::EventSkip), &mix);
        assert_eq!(
            m_fixed, m_skip,
            "RunMetrics diverged under {policy:?} at 1.25 ns pitch"
        );
        assert_eq!(
            h_fixed.combined(),
            h_skip.combined(),
            "state hash diverged under {policy:?} at 1.25 ns pitch: {:?}",
            h_fixed.first_diff(&h_skip)
        );
    }
}

/// Checkpoint/restore rewinds `next_req`, so resumed runs re-insert
/// previously used request ids into the inflight table. The FNV map's
/// backward-shift deletion must keep probe chains intact through that
/// reuse — the resumed replay must be bit-identical end to end.
#[test]
fn inflight_id_reuse_across_restore_is_bit_identical() {
    let cfg = quick(SystemConfig::table1()).with_engine(EngineKind::EventSkip);
    let report =
        replay::replay_verify_resumed(&cfg, &small_mix(), &ReplayOptions::for_config(&cfg))
            .expect("resumed replay must run clean");
    assert!(
        report.is_clean(),
        "id reuse after restore corrupted state: {:?}",
        report.divergence
    );
}

/// Allocation surgery: once warmed up, the hot loop's reusable buffers
/// (DRAM trace, completion drain, inflight slots) must stop growing —
/// steady-state stepping performs zero allocations in the
/// core ⇄ controller plumbing.
#[test]
fn hot_loop_buffers_reach_steady_state() {
    // Full audit keeps the trace buffer in active duty every step.
    let cfg = quick(SystemConfig::table1())
        .with_engine(EngineKind::EventSkip)
        .with_audit(AuditLevel::Full);
    let end = cfg.warmup + cfg.measure;
    let mid = cfg.warmup + cfg.measure / 2;
    let mut sys = System::try_new(cfg, &small_mix()).expect("build");
    sys.try_run_until(mid).expect("first window");
    let caps = sys.debug_buffer_capacities();
    assert!(caps.0 > 0, "trace buffer must be exercised");
    assert!(caps.1 > 0, "completion buffer must be exercised");
    assert!(caps.2 > 0, "inflight table must be exercised");
    sys.try_run_until(end).expect("second window");
    assert_eq!(
        caps,
        sys.debug_buffer_capacities(),
        "hot-loop buffers grew after the warm window (steady-state allocation)"
    );
}

/// Strategy: a random mix of 1–3 benchmark groups, 1–2 tasks each.
fn mix_strategy() -> impl Strategy<Value = WorkloadMix> {
    proptest::collection::vec((0usize..Benchmark::ALL.len(), 1usize..3), 1..4).prop_map(|groups| {
        let groups: Vec<(Benchmark, usize)> = groups
            .into_iter()
            .map(|(i, n)| (Benchmark::ALL[i], n))
            .collect();
        WorkloadMix::from_groups("prop", &groups, "random")
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Randomized workloads and policies through both engines: equal
    /// metrics and equal final state hashes, every time.
    #[test]
    fn random_mixes_are_engine_invariant(
        mix in mix_strategy(),
        policy_i in 0usize..ALL_POLICIES.len(),
        seed in any::<u64>(),
    ) {
        let base = quick(SystemConfig::table1())
            .with_refresh(ALL_POLICIES[policy_i])
            .with_seed(seed);
        let (m_fixed, h_fixed) =
            run_once(&base.clone().with_engine(EngineKind::FixedStep), &mix);
        let (m_skip, h_skip) =
            run_once(&base.clone().with_engine(EngineKind::EventSkip), &mix);
        prop_assert_eq!(m_fixed, m_skip);
        prop_assert_eq!(h_fixed.combined(), h_skip.combined());
    }
}
