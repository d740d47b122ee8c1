#!/usr/bin/env bash
# Hot-path profiling workflow for the simulator.
#
# Produces, into --out-dir (default ./profile-out):
#
#   * BENCH_simwall.json — the scenario matrix with the "hotpath" block
#     (scalar vs batched tick-path walls, and ns_per_command: wall
#     nanoseconds per retired DRAM command — the profile-stable unit
#     cost that makes flamegraph diffs comparable across hosts);
#   * perf-stat.txt      — hardware counters for the compute-bound
#     scenario run, when `perf` is available;
#   * flamegraph.svg     — a CPU flamegraph of the same run, when
#     `perf` + an inferno/flamegraph toolchain are available.
#
# Every stage degrades gracefully: on hosts without perf (containers,
# macOS, CI runners without perf_event access) the script still emits
# the benchmark artifact and prints which stages were skipped and why.
# Nothing here gates; the gating floors live in `simwall --check`.
#
# Usage:
#   scripts/profile.sh [--quick] [--out-dir DIR] [--pgo]
#
# --pgo builds a profile-guided simwall (instrument → train on the
# scenario matrix → rebuild with the merged profile) and reports the
# hotpath medians of the PGO build next to the plain build. Requires
# llvm-profdata (from rustup's llvm-tools component or the system LLVM);
# skipped with a note otherwise.

set -euo pipefail

QUICK=""
OUT_DIR="profile-out"
PGO=0
while [ $# -gt 0 ]; do
    case "$1" in
        --quick) QUICK="--quick" ;;
        --out-dir) OUT_DIR="$2"; shift ;;
        --pgo) PGO=1 ;;
        -h|--help)
            sed -n '2,27p' "$0" | sed 's/^# \{0,1\}//'
            exit 0
            ;;
        *) echo "unknown flag $1 (try --help)" >&2; exit 2 ;;
    esac
    shift
done

cd "$(dirname "$0")/.."
mkdir -p "$OUT_DIR"

note() { printf '%s\n' "$*" >&2; }

# ---- 1. benchmark artifact (always) ---------------------------------
note "==> building simwall (release, debug symbols)"
cargo build --release -p refsim-bench --bin simwall

note "==> simwall scenario matrix + hotpath block"
./target/release/simwall $QUICK --out "$OUT_DIR/BENCH_simwall.json"

if command -v python3 >/dev/null 2>&1; then
    note "==> ns_per_command summary"
    python3 - "$OUT_DIR/BENCH_simwall.json" <<'EOF'
import json, sys
doc = json.load(open(sys.argv[1]))
print(f"{'scenario':<20} {'ratio':>7} {'ns/cmd':>10}")
for row in doc.get("hotpath", {}).get("rows", []):
    print(f"{row['name']:<20} {row['ratio']:>6.2f}x {row['ns_per_command']:>10.2f}")
EOF
fi

# The profiling target is the scenario matrix; its compute-bound
# scenarios are where the per-op hot loop (workload op stream ->
# translate -> cache access) plus the channel tick are ~95 % of wall
# time.
PROFILE_CMD=(./target/release/simwall --quick --out "$OUT_DIR/BENCH_profiled.json")

# ---- 2. perf stat (optional) ----------------------------------------
if command -v perf >/dev/null 2>&1 && perf stat -o /dev/null true 2>/dev/null; then
    note "==> perf stat"
    perf stat -d -o "$OUT_DIR/perf-stat.txt" -- "${PROFILE_CMD[@]}" >/dev/null
    note "    wrote $OUT_DIR/perf-stat.txt"
else
    note "skip: perf stat (no usable \`perf\` on this host)"
fi

# ---- 3. flamegraph (optional) ---------------------------------------
flamegraph_from_perf() {
    # inferno (cargo install inferno) or the classic FlameGraph perl
    # scripts; whichever is on PATH.
    if command -v inferno-collapse-perf >/dev/null 2>&1; then
        perf script -i "$OUT_DIR/perf.data" | inferno-collapse-perf | inferno-flamegraph
    elif command -v stackcollapse-perf.pl >/dev/null 2>&1; then
        perf script -i "$OUT_DIR/perf.data" | stackcollapse-perf.pl | flamegraph.pl
    else
        return 1
    fi
}

if command -v perf >/dev/null 2>&1 && perf record -o /dev/null -- true 2>/dev/null; then
    note "==> perf record + flamegraph"
    perf record -F 997 -g --call-graph dwarf -o "$OUT_DIR/perf.data" \
        -- "${PROFILE_CMD[@]}" >/dev/null
    if flamegraph_from_perf > "$OUT_DIR/flamegraph.svg" 2>/dev/null; then
        note "    wrote $OUT_DIR/flamegraph.svg"
    else
        note "skip: flamegraph rendering (install \`inferno\` or the FlameGraph scripts);"
        note "      raw samples kept at $OUT_DIR/perf.data"
    fi
else
    note "skip: flamegraph (no usable \`perf record\` on this host)"
fi

# ---- 4. PGO build (optional, --pgo) ---------------------------------
if [ "$PGO" = 1 ]; then
    PROFDATA=""
    if command -v llvm-profdata >/dev/null 2>&1; then
        PROFDATA=llvm-profdata
    else
        # rustup's llvm-tools component ships it under the sysroot.
        SYSROOT=$(rustc --print sysroot 2>/dev/null || true)
        CAND=$(find "$SYSROOT" -name llvm-profdata -type f 2>/dev/null | head -1 || true)
        [ -n "$CAND" ] && PROFDATA="$CAND"
    fi
    if [ -z "$PROFDATA" ]; then
        note "skip: PGO (no llvm-profdata; rustup component add llvm-tools)"
    else
        PGO_DIR=$(mktemp -d)
        note "==> PGO: instrumented build + training run"
        RUSTFLAGS="-Cprofile-generate=$PGO_DIR" \
            cargo build --release -p refsim-bench --bin simwall --target-dir target/pgo
        ./target/pgo/release/simwall --quick --out "$OUT_DIR/BENCH_pgo_train.json" >/dev/null
        "$PROFDATA" merge -o "$PGO_DIR/merged.profdata" "$PGO_DIR"
        note "==> PGO: optimized rebuild + re-measure"
        RUSTFLAGS="-Cprofile-use=$PGO_DIR/merged.profdata" \
            cargo build --release -p refsim-bench --bin simwall --target-dir target/pgo
        ./target/pgo/release/simwall $QUICK --out "$OUT_DIR/BENCH_simwall_pgo.json"
        note "    compare $OUT_DIR/BENCH_simwall.json vs $OUT_DIR/BENCH_simwall_pgo.json"
        rm -rf "$PGO_DIR"
    fi
fi

note "done: artifacts in $OUT_DIR/"
