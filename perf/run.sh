#!/usr/bin/env bash
# perf/run.sh — build the benchmark, pin it to one CPU, run it.
#
#   bash perf/run.sh                       every workload + its traced run
#   bash perf/run.sh --workload hint_hot --seed 7 --seconds 20 --trace 0
#                                          one run (the BENCHMARK.json contract)
#   bash perf/run.sh --aa                  the whole benchmark twice; fails if any
#                                          end-to-end metric moves by more than its bound
#   bash perf/run.sh --smoke               1 pass of tiny schedules, < 10 s after the build
#
# Options: --seed N (default 2017; the program only ever sees generated
# inputs), --seconds S (default 20), --workload NAME, --trace 0|1,
# --passes P (fixed pass count instead of a time budget), --smoke, --aa.
# Exits non-zero on any correctness failure. See perf/README.md.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
out="$here/out"

seed=2017 seconds=20 workload="" trace="" aa=0
extra=()
while [ $# -gt 0 ]; do
    case "$1" in
        --seed) seed="$2"; shift 2 ;;
        --seconds) seconds="$2"; shift 2 ;;
        --workload) workload="$2"; shift 2 ;;
        --trace) trace="$2"; shift 2 ;;
        --passes) extra+=(--passes "$2"); shift 2 ;;
        --smoke) extra+=(--smoke); shift ;;
        --aa) aa=1; shift ;;
        *) echo "run.sh: unknown argument $1" >&2; exit 2 ;;
    esac
done

# Own manifest and lockfile; the target directory is shared with the root
# workspace unless the caller names one (a relative CARGO_TARGET_DIR is
# relative to the caller's directory, which this script never leaves).
target="${CARGO_TARGET_DIR:-$root/target}"
cargo build --release --offline --quiet \
    --manifest-path "$here/Cargo.toml" --target-dir "$target" >&2
bin="$target/release/ctperf"

# Where the numbers were measured.
export CTPERF_GIT_SHA="$(git -C "$root" rev-parse --short HEAD 2>/dev/null || echo unknown)"
export CTPERF_NPROC="$(nproc 2>/dev/null || echo unknown)"
export CTPERF_CPU_MODEL="$(sed -n 's/^model name[^:]*: *//p' /proc/cpuinfo 2>/dev/null | head -n 1)"
export CTPERF_RUSTC="$(rustc --version 2>/dev/null || echo unknown)"

# One closed-loop driver thread on one CPU: the two vCPUs of a small VM
# behave like siblings of one core, and the serving plane spawns a thread
# per wave, so an unpinned run is both slower and 2x noisier. The last
# CPU, because the first one takes most interrupts.
pin=()
export CTPERF_PINNED=0
if command -v taskset >/dev/null 2>&1; then
    cpu=$(( ${CTPERF_NPROC//[!0-9]/} - 1 )) 2>/dev/null || cpu=0
    if taskset -c "$cpu" true 2>/dev/null; then
        pin=(taskset -c "$cpu")
        export CTPERF_PINNED=1
    fi
fi
# The same address-space layout on every run, where the sandbox allows it:
# with a random one, the peak resident set of one seed differed by 3.7 %
# from process to process, with a fixed one by 0.5 %.
if setarch "$(uname -m)" -R true 2>/dev/null; then
    pin=(setarch "$(uname -m)" -R ${pin[@]+"${pin[@]}"})
fi

run_one() { # workload trace
    ${pin[@]+"${pin[@]}"} "$bin" run --workload "$1" --seed "$seed" --seconds "$seconds" \
        --trace "$2" --out "$out" ${extra[@]+"${extra[@]}"}
}

if [ -n "$workload" ]; then
    run_one "$workload" "${trace:-0}"
    exit $?
fi

mkdir -p "$out"
status=0
run_all() { # log
    : > "$1"
    # The workloads `BENCHMARK.json` lists, in its order.
    for w in $(sed -n 's/.*{"name": "\([^"]*\)", "why".*/\1/p' "$root/BENCHMARK.json"); do
        for t in 0 1; do
            run_one "$w" "$t" | tee -a "$1" || status=1
        done
    done
}

run_all "$out/run_a.log"
if [ "$aa" = 1 ]; then
    run_all "$out/run_b.log"
    "$bin" compare "$out/run_a.log" "$out/run_b.log" || status=1
fi
echo "results: $out/result_<workload>[_trace].json, traces: $out/trace_<workload>.json" >&2
exit $status
