#!/usr/bin/env bash
# The gating commands of every CI job, runnable offline.
#
# Usage:
#   scripts/gates.sh determinism|crossval|soak|crash-matrix|perf-smoke|sweep-scaling|warm-cache|all
#
# Each job below is exactly what the job of the same name in
# .github/workflows/ci.yml runs (CI calls this script), so a gate that
# passes here passes there on the same host class. Any failing command
# fails the job. Artifacts land in ./artifacts; CI uploads them from
# there.

set -euo pipefail

cd "$(dirname "$0")/.."
mkdir -p artifacts

determinism() {
    # Runs every quick mix twice, hashing dram/cpu/os/workload state at
    # each sampled quantum; exits non-zero on the first divergent hash,
    # naming the responsible component.
    cargo run --release -p refsim-bench --bin replay -- --quick --scale 256 --verify
    # Checkpoint/resume bit-identity.
    cargo run --release -p refsim-bench --bin replay -- --quick --scale 256 --resumed
    # Negative control: a deliberately corrupted run must be caught and
    # attributed to the workloads component at the right quantum.
    cargo run --release -p refsim-bench --bin replay -- --quick --scale 256 --perturb 2
    cargo run --release -p refsim-bench --bin robustness -- --quick --scale 256 --csv \
        | tee artifacts/robustness.csv
}

crossval() {
    # Every quick mix on both memory backends across the full
    # refresh-policy matrix, gated on the calibrated per-metric
    # tolerances; any disagreeing cell dumps its delta table (and, for
    # protocol divergences, the first divergent quantum) to
    # crossval-divergence.txt and fails.
    cargo run --release -p refsim-bench --bin crossval -- --quick --scale 256
    # Negative control: a shadow that silently drops every 3rd refresh
    # must be flagged protocol-divergent with a quantum attribution on
    # every refreshing policy.
    cargo run --release -p refsim-bench --bin crossval -- --quick --scale 256 --perturb 3
}

soak() {
    # 120 randomized config x workload x fault scenarios under
    # AuditLevel::Full; exits non-zero iff a clean scenario violates an
    # invariant or any scenario crashes. About a quarter draw the shadow
    # memory backend ("[shadow]"), and one in eight trades its sanitizer
    # run for a randomized crash point of the vfs durability matrix
    # ("crashmat <mode>"). Quarantined reproducer seeds land on stderr
    # and in the table.
    cargo run --release -p refsim-bench --bin soak -- --csv \
        | tee artifacts/soak-violations.csv
}

crash_matrix() {
    # ~10 kill points per fault mode (crash, enospc, torn-write,
    # interrupt, corrupt-write) across checkpoints, run cache, sweep
    # manifest and metrics frames behind the fault-injecting VFS. Each
    # point must resume bit-identically or degrade gracefully. The
    # exhaustive stride-1 matrix runs via `cargo run --release -p
    # refsim-bench --bin crashmat`.
    cargo run --release -p refsim-bench --bin crashmat -- --quick \
        --report artifacts/crash-matrix.txt
    # Negative control: breaks rename atomicity on the metrics surface
    # on purpose; the harness must flag at least one torn destination.
    cargo run --release -p refsim-bench --bin crashmat -- --negative-control
}

perf_smoke() {
    # Floors: event-skip >= 3x on the memory-stall-heavy reference
    # scenario at DRAM-clock fidelity and no slower than fixed-step
    # (0.90 parity floor) everywhere else; the batched tick path >= 2x
    # over the scalar reference walk on compute_heavy and mixed. A
    # failing floor is re-measured twice before it fails.
    cargo run --release -p refsim-bench --bin simwall -- --quick --check \
        --out artifacts/BENCH_simwall.json
}

sweep_scaling() {
    # The 16-cell refresh-policy sweep at 1, 2 and 4 workers; --check
    # enforces the >= 1.7x floor at 4 workers (skipped with a note on
    # hosts with fewer than 4 cores).
    cargo run --release -p refsim-bench --bin simwall -- --quick --threads 1,2,4 --check \
        --out artifacts/BENCH_simwall.json
}

warm_cache() {
    # Cold pass on an empty cache, then a warm pass that must be served
    # from it (>= 90% hits; the sampled verifier re-runs one cell) and
    # reproduce the cold figures byte for byte.
    rm -rf artifacts/runcache
    cargo run --release -p refsim-bench --bin all_figures -- --quick --scale 512 \
        --cache-dir artifacts/runcache --stats-out artifacts/runcache-cold.json \
        > artifacts/figures-cold.md
    cargo run --release -p refsim-bench --bin all_figures -- --quick --scale 512 \
        --cache-dir artifacts/runcache --stats-out artifacts/runcache-warm.json \
        --min-hit-rate 0.9 \
        > artifacts/figures-warm.md
    cmp artifacts/figures-cold.md artifacts/figures-warm.md
}

case "${1:-}" in
    determinism) determinism ;;
    crossval) crossval ;;
    soak) soak ;;
    crash-matrix) crash_matrix ;;
    perf-smoke) perf_smoke ;;
    sweep-scaling) sweep_scaling ;;
    warm-cache) warm_cache ;;
    all)
        determinism
        crossval
        soak
        crash_matrix
        perf_smoke
        sweep_scaling
        warm_cache
        ;;
    *)
        sed -n '2,11p' "$0" | sed 's/^# \{0,1\}//' >&2
        exit 2
        ;;
esac
