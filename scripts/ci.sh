#!/usr/bin/env bash
# Tier-1 gate: everything a PR must keep green, in the order a failure is
# cheapest to report. Usage: scripts/ci.sh
set -eu
cd "$(dirname "$0")/.."

echo "=== build (release) ==="
cargo build --release --workspace

echo "=== clippy ==="
cargo clippy --workspace -- -D warnings

echo "=== tests ==="
cargo test -q --workspace

echo "=== chaos suite ==="
cargo test -q -p cloudtalk --test chaos

echo "=== aggregator chaos (crash / partition / straggle / crash-mid-push) ==="
cargo test -q -p cloudtalk --test agg_chaos

echo "=== aggregate delta properties (round-trip, idempotence, stale rejection) ==="
cargo test -q -p cloudtalk --test aggregate_props

echo "=== status-sync oracle (change-driven plane == full scan: views, ages, stale set, ledger, counters, spans bit-identical) ==="
cargo test -q --test status_sync_equiv

echo "=== status-plane allocation pin (idle sync independent of rack count; undrained change view stays O(hosts)) ==="
cargo test -q -p cloudtalk --test aggregate_alloc

echo "=== benches compile ==="
cargo bench --no-run --workspace

echo "=== delta estimator equivalence (apply/undo vs scratch, bit-identical) ==="
cargo test -q -p estimator --test delta_props

echo "=== exact-search tie oracle (pruned == unpruned scratch scan bit-for-bit at 1/2/8 threads, pinned effort) ==="
cargo test -q --test search_tie_equiv

echo "=== delta search smoke (scratch and delta agree on winner + objective; daisy6_8addr evaluates < 1% of its space) ==="
cargo bench -q -p cloudtalk-bench --bench exhaustive_bench -- --delta --smoke

echo "=== pktsearch smoke ==="
cargo run --release -q -p cloudtalk-bench --bin pktsearch -- --smoke

echo "=== simnet_scale smoke (incremental == oracle, bit-identical) ==="
cargo run --release -q -p cloudtalk-bench --bin simnet_scale -- --smoke

echo "=== fleet_scale smoke (hier view exact, >=10x collector bytes, deterministic) ==="
cargo run --release -q -p cloudtalk-bench --bin fleet_scale -- --smoke

echo "=== serving determinism (bit-identical answers at 1/2/8 workers) ==="
cargo test -q -p cloudtalk --test serving_determinism

echo "=== serving admission (typed Overloaded, bounded queues, shed contract) ==="
cargo test -q -p cloudtalk --test serving_admission

echo "=== qps_storm smoke (accepts load, 0 ledger conflicts, deterministic) ==="
cargo run --release -q -p cloudtalk-bench --bin qps_storm -- --smoke

echo "=== answer-cache equivalence (cache on == off bit-identical, 0 stale hits) ==="
cargo test -q -p cloudtalk --test qcache_equiv

echo "=== hint-path oracle equivalence (heuristic + footprint == quadratic references, bit-identical) ==="
cargo test -q --test hint_path_equiv

echo "=== lexer equivalence (zero-copy == owned-token reference: kinds, spans, diagnostics) ==="
cargo test -q -p cloudtalk-lang --test roundtrip

echo "=== heuristic allocation pin (warm evaluation = binding + scores, independent of n·p) ==="
cargo test -q -p cloudtalk --test heuristic_alloc

echo "=== canonicalisation regression (websearch memo classes/counters unchanged) ==="
cargo test -q -p cloudtalk-apps --test canon_regression

echo "=== cached storm smoke (hit rate >= 50%, bit-identical, 0 stale hits) ==="
cargo run --release -q -p cloudtalk-bench --bin qps_storm -- --similarity 0.8 --smoke

echo "=== trace smoke (chrome trace_event export parses, spans present) ==="
cargo run --release -q -p cloudtalk-bench --bin pktsearch -- --smoke --trace /tmp/ct_trace.json
python3 - <<'EOF'
import json
with open("/tmp/ct_trace.json") as f:
    trace = json.load(f)
names = {e["name"] for e in trace["traceEvents"] if e.get("ph") == "X"}
required = {"answer", "collect", "sanitise", "search", "bind"}
missing = required - names
assert not missing, f"trace missing spans: {missing} (got {names})"
print(f"trace OK: {len(trace['traceEvents'])} events, spans {sorted(names)}")
EOF

echo "=== telemetry smoke (SLO breach timeline, stitched cross-component trace) ==="
cargo run --release -q -p cloudtalk-bench --bin qps_storm -- --telemetry --smoke
python3 - <<'EOF'
import json, re
from collections import defaultdict
with open("BENCH_telemetry_trace.json") as f:
    trace = json.load(f)
lanes = defaultdict(set)
for e in trace["traceEvents"]:
    if e.get("ph") == "M" and e.get("name") == "thread_name":
        tid, _, lane = e["args"]["name"].partition("/")
        lanes[tid].add(lane)
stitched = [
    t for t, ls in lanes.items()
    if any(l.startswith("collector/shard") for l in ls)
    and "aggregator" in ls
    and any(re.fullmatch(r"worker\d+", l) for l in ls)
    and "admission" in ls
]
assert stitched, f"no stitched collector->aggregator->worker trace (lanes: {dict(lanes)})"
with open("BENCH_telemetry_slo.txt") as f:
    slo = f.read()
assert "BREACH" in slo, f"SLO timeline records no breach:\n{slo}"
with open("BENCH_telemetry_metrics.txt") as f:
    metrics = f.read()
assert "p999_us=" in metrics and "class" in metrics, "window metrics lack per-class quantiles"
print(f"telemetry OK: {len(stitched)} stitched traces across {len(lanes)} sampled, "
      f"{slo.count('BREACH')} breach events")
EOF

echo "=== obs hot paths allocation-free (trace arena + telemetry rings) ==="
cargo test -q -p obs --test trace_alloc
cargo test -q -p obs --test timeseries_alloc

echo "=== benchmark smoke (digests equal across passes, cache-on == cache-off, two-worker replay identical, 0 stale hits, 0 ledger conflicts) ==="
bash perf/run.sh --smoke

echo "=== no stray prints in library crates (exporters own all output) ==="
if grep -rn "println!\|eprintln!" crates/core/src crates/simnet/src; then
    echo "error: println!/eprintln! found in library code — use obs exporters"
    exit 1
fi

echo "ci: all green"
