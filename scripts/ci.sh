#!/usr/bin/env bash
# Tier-1 gate: everything a PR must keep green, in the order a failure is
# cheapest to report. Usage: scripts/ci.sh
set -eu
cd "$(dirname "$0")/.."

echo "=== build (release) ==="
cargo build --release --workspace

echo "=== clippy (every target: libs, bins, tests, examples; unused crate-private items fail here) ==="
cargo clippy --workspace --all-targets -- -D warnings
dead_allows="$(grep -rn 'allow(dead_code)' crates src tests examples | grep -vE '^crates/(pktsim|lang)/tests/reference_' || true)"
if [ -n "$dead_allows" ]; then
    echo "error: dead code is silenced instead of deleted (only the two test oracles may allow it):"; echo "$dead_allows"
    exit 1
fi

echo "=== rustdoc (every intra-doc link resolves, and public docs link only public items) ==="
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps

echo "=== tests (every suite: the oracle, determinism, chaos and allocation-pin contracts all live here) ==="
cargo test -q --workspace

echo "=== packet-event ordering hunt (the pktsim lanes, start queue and timer queue against the single-heap reference, 512 cases; tier-1 runs 64) ==="
PROPTEST_CASES=512 cargo test -q --release -p pktsim --test calendar_equiv

echo "=== pktsearch smoke ==="
cargo run --release -q -p cloudtalk-bench --bin pktsearch -- --smoke

echo "=== fleet_scale smoke (hier view exact, >=10x collector bytes, deterministic) ==="
cargo run --release -q -p cloudtalk-bench --bin fleet_scale -- --smoke

echo "=== qps_storm smoke (accepts load, 0 ledger conflicts, deterministic) ==="
cargo run --release -q -p cloudtalk-bench --bin qps_storm -- --smoke

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
# The smoke writes the three BENCH_telemetry_* files at smoke scale; the
# committed ones are a full-scale run. Keep them aside and put them back
# however this script exits.
telemetry_keep="$(mktemp -d)"
cp BENCH_telemetry_trace.json BENCH_telemetry_metrics.txt BENCH_telemetry_slo.txt "$telemetry_keep/"
trap 'cp "$telemetry_keep"/BENCH_telemetry_* . && rm -rf "$telemetry_keep"' EXIT
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
idx = [int(w) for w in re.findall(r"^window (\d+) ", metrics, re.M)]
assert idx == list(range(idx[0], idx[0] + len(idx))), f"window indices not consecutive: {idx}"
print(f"telemetry OK: {len(stitched)} stitched traces across {len(lanes)} sampled, "
      f"{slo.count('BREACH')} breach events")
EOF

echo "=== profiler smoke (scripts/profile.sh samples a perf/ workload, names its top frame and splits a frame by callee) ==="
bash scripts/profile.sh --workload hint_cold --smoke --top 5 --children 'ctperf::main' >/dev/null
python3 - <<'EOF'
import re
with open("perf/out/profile_hint_cold.txt") as f:
    text = f.read()
samples = int(re.search(r"^samples (\d+) dropped \d+ scope ", text, re.M).group(1))
assert samples > 0, "the profile holds no samples"
top = re.search(r"^top (.+)$", text, re.M).group(1)
assert not top.startswith("["), f"the top frame has no symbol: {top}"
rows = re.findall(r"^(self|inclusive|module) +(\d+\.\d+)% (.+)$", text, re.M)
assert rows and all(0.0 <= float(p) <= 100.0 for _, p, _ in rows), "unparsable share rows"
split = int(re.search(r"^== children of ctperf::main: (\d+) samples$", text, re.M).group(1))
total = sum(float(p) for p in re.findall(r"^children +(\d+\.\d+)% ", text, re.M))
assert split > 0 and abs(total - 100.0) <= 0.1, f"--children rows sum to {total:.2f} % over {split} samples"
print(f"profile OK: {samples} samples, top frame {top}, {split} split by callee")
EOF

echo "=== golden outputs (every bin but table2 is deterministic and cmp-identical to crates/bench/golden/) ==="
for src in crates/bench/src/bin/*.rs; do
    bin="$(basename "$src" .rs)"
    if [ "$bin" != table2 ] && [ ! -f "crates/bench/golden/$bin.txt" ]; then
        echo "error: $bin has no golden — commit its stdout as crates/bench/golden/$bin.txt"
        exit 1
    fi
done
for f in crates/bench/golden/*.txt; do
    bin="$(basename "$f" .txt)"
    cargo run --release -q -p cloudtalk-bench --bin "$bin" | cmp - "$f" \
        || { echo "error: $bin output drifted from $f"; exit 1; }
done

echo "=== one benchmark harness (wall-clock numbers come from perf/; no other bench target, stand-in or timing table) ==="
manifests="$(find . -path ./target -prune -o \( -name Cargo.toml -o -name Cargo.lock \) -print)"
if grep -rnE 'crit[e]rion|\[\[bench\]\]|micro[_]latency|BENCH[_]exhaustive' $manifests scripts crates src tests examples; then
    echo "error: a retired timing harness is named again — time it in perf/ and pin its output with a golden"
    exit 1
fi
timers="$(grep -rlw 'Instant' crates/bench/src | grep -vE '/table2\.rs$' || true)"
if [ -n "$timers" ]; then
    echo "error: a wall clock read in crates/bench/src outside table2.rs:"; echo "$timers"
    exit 1
fi

echo "=== the benchmark ledger (append-only; every BENCH_perf.jsonl row parses and carries git_sha, workload, seed, failed == 0 and BENCHMARK.json's end-to-end metrics) ==="
if git rev-parse -q --verify HEAD~1 >/dev/null \
    && ! git show HEAD~1:BENCH_perf.jsonl | cmp -s - <(head -c "$(git show HEAD~1:BENCH_perf.jsonl | wc -c)" BENCH_perf.jsonl); then
    echo "error: BENCH_perf.jsonl is append-only — a row the parent commit holds was edited or removed"
    exit 1
fi
python3 - <<'EOF'
import json
with open("BENCHMARK.json") as f:
    metrics = [m["name"] for m in json.load(f)["end_to_end"]]
bad = []
with open("BENCH_perf.jsonl") as f:
    for n, line in enumerate(f, 1):
        try:
            row = json.loads(line)
        except ValueError as e:
            bad.append(f"line {n} does not parse: {e}")
            continue
        missing = [k for k in ["git_sha", "workload", "seed", "failed", *metrics] if k not in row]
        if missing:
            bad.append(f"line {n} lacks {missing}")
        elif row["failed"] != 0:
            bad.append(f"line {n} records {row['failed']} failed operations")
assert not bad, "BENCH_perf.jsonl:\n" + "\n".join(bad)
print(f"BENCH_perf.jsonl: {n} rows, each complete")
EOF

echo "=== benchmark smoke (digests equal across passes, cache-on == cache-off, two-worker replay identical, 0 stale hits, 0 ledger conflicts) ==="
bash perf/run.sh --smoke

echo "=== no stray prints in library crates (exporters own all output) ==="
if grep -rn "println!\|eprintln!" crates/core/src crates/simnet/src; then
    echo "error: println!/eprintln! found in library code — use obs exporters"
    exit 1
fi

echo "=== one fan-out (threads are spawned in core::walk and nowhere else; a worker's panic keeps its own payload) ==="
spawners="$(grep -rlE 'thread::scope\(|thread::spawn\(|\.spawn\(' crates/*/src || true)"
if [ "$spawners" != "crates/core/src/walk.rs" ]; then
    echo "error: threads spawned outside crates/core/src/walk.rs:"; echo "$spawners"
    exit 1
fi
if grep -rn "worker panicked" crates/; then
    echo "error: a join that replaces the worker's panic payload — use walk::fan_out"
    exit 1
fi

echo "=== one rate engine (simnet re-rates in one global pass; no mode, no component layer) ==="
if grep -rnE 'EngineMode|with_mode\(|FullRecompute|component_count|repartition_and_rerate' crates src tests examples; then
    echo "error: a second rating strategy is back in the tree"
    exit 1
fi

echo "=== one kernel, no queue (progressive filling lives in sharing.rs, its reference only under tests/; simnet finds completions without an EventQueue) ==="
if grep -rn "EventQueue" crates/simnet/src; then
    echo "error: crates/simnet/src mentions EventQueue — completions are per-transfer ETAs plus one cached minimum"
    exit 1
fi
fillers="$(grep -rlw 'unfrozen' crates/*/src src || true)"
if [ "$fillers" != "crates/simnet/src/sharing.rs" ]; then
    echo "error: a progressive-filling loop outside crates/simnet/src/sharing.rs:"; echo "$fillers"
    exit 1
fi

echo "=== one packet calendar (port events wait in per-delay FIFO lanes; the heap core lives only in crates/pktsim/tests/reference_sim/) ==="
if grep -rnE 'PortEvent|port_events|wire: *VecDeque' crates/pktsim/src; then
    echo "error: a port heap or a per-port wire FIFO is back in crates/pktsim/src — a port event goes on the lane of its delay"
    exit 1
fi
heaps="$(grep -rnE 'BinaryHeap<|: *Queue<' crates/pktsim/src | grep -vE 'type Queue<T> = BinaryHeap<|(starts|timers): Queue<u32>,' || true)"
if [ -n "$heaps" ]; then
    echo "error: a heap other than the start and timer queues in crates/pktsim/src:"; echo "$heaps"
    exit 1
fi

echo "=== one calendar, one co-simulation step (desim's queue is a heap and a counter; the app drivers meet the network in Cluster::step) ==="
if grep -rnE 'EventHandle|fn cancel|heap_len|COMPACT_MIN' crates/desim/src; then
    echo "error: cancellation machinery is back in crates/desim/src — a simulator that re-arms timers keeps the deadline in its own state"
    exit 1
fi
steppers="$(grep -rl 'next_completion_time' crates/apps/src || true)"
if [ "$steppers" != "crates/apps/src/cluster.rs" ]; then
    echo "error: next_completion_time read outside crates/apps/src/cluster.rs — drivers advance through Cluster::step:"; echo "$steppers"
    exit 1
fi
if grep -rnE 'too_many_arguments|macro_rules!' crates/apps/src; then
    echo "error: a driver's state is threaded through arguments or a macro again — keep it in the driver's struct"
    exit 1
fi

echo "=== a sync visits what changed (AggregationPlane::sync walks the dirtied and the unhealthy racks; the full gather builds its world presized) ==="
sync_body="$(awk '/^    pub fn sync\(&mut self, now: SimTime\)/,/^    }$/' crates/core/src/aggregate.rs)"
gather_body="$(awk '/^    pub\(crate\) fn gather_snapshot\(/,/^    }$/' crates/core/src/server.rs)"
if [ -z "$sync_body" ] || [ -z "$gather_body" ]; then
    echo "error: AggregationPlane::sync or EvalCore::gather_snapshot not found where this gate looks"
    exit 1
fi
if grep -nE '0\.\.self\.layout\.rack_count\(\)|\.rack_ids\(\)' <<<"$sync_body"; then
    echo "error: AggregationPlane::sync walks every rack again — a clean healthy rack is charged in a batch, not visited"
    exit 1
fi
if grep -n 'World::new()' <<<"$gather_body"; then
    echo "error: gather_snapshot grows its world from empty again — build it with World::with_capacity"
    exit 1
fi

echo "=== one fleet lookup (FleetLayout finds a host by one hashed probe; the sorted index lives only in tests/fleet_index_equiv.rs) ==="
if grep -n 'index.binary_search' crates/core/src/aggregate.rs; then
    echo "error: aggregate.rs binary-searches the fleet index again — FleetLayout::index is a WordMap"
    exit 1
fi

echo "=== one caching rule (a CloudTalkServer answer never looks up, stores or publishes a cache entry; only a serving-plane worker does) ==="
if grep -rnE 'answer_batch|answer_with_snapshot|pkt_search_prepared|pkt_prepare|PktArtifacts|lookup_artifacts|artifact_' \
    crates/*/src src examples tests; then
    echo "error: a server-side cache door is back — batches and repeats go through the serving plane, which owns the cache"
    exit 1
fi
if grep -nE '\bkeyed:|publish:' crates/core/src/server.rs crates/core/src/qcache.rs; then
    echo "error: a caching flag is back — an answer is keyed iff it is given the plane's L2, and every insert is published"
    exit 1
fi

echo "=== one status gather (EvalCore::gather_snapshot builds every snapshot; a change-driven refresh is the same fold over the listed hosts) ==="
if grep -rnE 'regather_snapshot|can_regather' crates/*/src; then
    echo "error: a second snapshot builder is back — a shard refresh calls gather_snapshot with the listed positions"
    exit 1
fi
builders="$(awk '/^ *(pub(\(crate\))? )?fn /{f=$0; sub(/.*fn /,"",f); sub(/[(<].*/,"",f)}
    (/StatusSnapshot \{/ && !/(struct|impl|->) StatusSnapshot/) || (FILENAME ~ /\/(server|serving)\.rs$/ && /scatter_gather[a-z_]*\(/) {print f}' \
    $(find crates/*/src -name '*.rs') | sort -u | tr '\n' ' ')"
# gather_snapshot fills the snapshot it is handed; unprimed is the empty one.
if [ -n "$(tr ' ' '\n' <<<"$builders" | grep -vxE 'gather_snapshot|unprimed|')" ]; then
    echo "error: a status snapshot is built outside EvalCore::gather_snapshot (builders: $builders)"
    exit 1
fi

echo "=== one status-source contract (one question, one clock set by whoever gathers, decorators forward, one NetSim adapter) ==="
trait_body="$(awk '/^pub trait StatusSource \{/,/^\}$/' crates/core/src/status.rs)"
faulty_body="$(awk '/^impl<S: StatusSource> StatusSource for FaultySource<S> \{/,/^\}$/' crates/core/src/faults.rs)"
if [ -z "$trait_body" ] || [ -z "$faulty_body" ]; then
    echo "error: the StatusSource trait or FaultySource's impl of it not found where this gate looks"
    exit 1
fi
if grep -n 'fn poll(' <<<"$trait_body"; then
    echo "error: StatusSource asks its question twice again — poll_report is the one required method"
    exit 1
fi
if grep -rnw 'set_now' crates src tests examples; then
    echo "error: a clock set by hand — every gatherer calls StatusSource::advance_to with its own now"
    exit 1
fi
if grep -rnE 'impl.* StatusSource for' crates/apps/src; then
    echo "error: crates/apps/src defines a status source — a NetSim is read through core::status::NetSimStatusSource"
    exit 1
fi
for method in advance_to answers_sane sync_trace drain_changed; do
    if ! grep -q "fn $method(" <<<"$faulty_body"; then
        echo "error: FaultySource does not forward $method — a decorator forwards the clock, the sync trace and the change view"
        exit 1
    fi
done

echo "=== hosts by slot (World is slot-indexed vectors; the plane keeps no per-rack table or per-aggregator marks; a reply is sanitised once) ==="
world_body="$(awk '/^pub struct World \{/,/^\}$/' crates/estimator/src/world.rs)"
round_body="$(awk '/^fn gather_round</,/^\}$/' crates/core/src/transport.rs)"
if [ -z "$world_body" ] || [ -z "$round_body" ]; then
    echo "error: struct World or transport::gather_round not found where this gate looks"
    exit 1
fi
if grep -nE 'WordMap|HashMap' <<<"$world_body"; then
    echo "error: World holds a hash map again — a host's state is read by its slot"
    exit 1
fi
if grep -nE 'struct SlotTable|ChangeMarks' crates/core/src/aggregate.rs; then
    echo "error: aggregate.rs keeps a per-rack table or per-aggregator marks again — views, snapshots and listings are fleet-wide arrays by slot"
    exit 1
fi
if grep -q 'sanitised()' <<<"$round_body" && ! grep -q 'answers_sane' <<<"$round_body"; then
    echo "error: gather_round sanitises every reply — a source that answers sane states is not repaired twice"
    exit 1
fi

echo "=== the fault model in one place (one record per faulted host and rack; the plane asks the plan, never a fault kind; a sync trace is read, not taken) ==="
plan_body="$(awk '/^pub struct FaultPlan \{/,/^\}$/' crates/core/src/faults.rs)"
if [ -z "$plan_body" ]; then
    echo "error: struct FaultPlan not found where this gate looks"
    exit 1
fi
for map in WordMap BTreeMap; do
    if [ "$(grep -c "$map<" <<<"$plan_body")" -gt 1 ]; then
        echo "error: FaultPlan declares more than one $map field — a target's faults are one record"
        exit 1
    fi
done
if grep -nE 'agg_[a-z_]+_at\(|agg_straggle_rounds|agg_crash_window' crates/core/src/aggregate.rs; then
    echo "error: aggregate.rs reads a fault kind — ask FaultPlan::pull / restarted_by / names_rack"
    exit 1
fi
if grep -rnw 'take_sync_trace' crates/*/src; then
    echo "error: a sync trace consumed on read — StatusSource::sync_trace lends it to every gather of the instant"
    exit 1
fi

echo "=== one address lookup per search (CapacityTable turns addresses into slots at rebuild; the walk and its nodes move slots; one table per walker) ==="
if grep -nE '\.slot\(|\.free\(|binary_search' crates/core/src/exhaustive.rs crates/core/src/walk.rs; then
    echo "error: the exact search looks an address up below CapacityTable::rebuild — push and read slots"
    exit 1
fi
if [ "$(grep -o 'rebuild(' crates/core/src/exhaustive.rs | wc -l)" -gt 1 ]; then
    echo "error: exhaustive.rs builds more than one capacity table — a delta walker reads its estimator's"
    exit 1
fi

echo "=== names in place, one hasher (no String per identifier, no deep clone to resolve a builder, no SipHash over addresses, ids or already-mixed keys) ==="
for where in "Ident crates/lang/src/ast.rs" "Variable crates/lang/src/problem.rs" "Flow crates/lang/src/problem.rs"; do
    set -- $where
    if sed -n "/^pub struct $1 {/,/^}/p" "$2" | grep -n "String"; then
        echo "error: $2: struct $1 holds a String again — identifier text is a lang::Name"
        exit 1
    fi
done
if grep -nE 'fn build\(|\.build\(\)' crates/lang/src/builder.rs; then
    echo "error: QueryBuilder assembles a copy of itself again — resolve and text read its own declarations and flows"
    exit 1
fi
if find . -name target -prune -o -type d -name src -print | xargs grep -rnE 'reference_(parser|lexer)'; then
    echo "error: a src/ directory names the old front end — reference_parser and reference_lexer are test oracles only"
    exit 1
fi
if grep -rnE 'DefaultHasher|RandomState|Hash(Map|Set)<(Address|u64|TenantId|TransferId)' crates/*/src src | grep -v '^crates/bench/'; then
    echo "error: a default-hasher table or SipHash fingerprint is back — use cloudtalk_lang::{WordHasher, WordMap, WordSet}"
    exit 1
fi

echo "=== one telemetry ring (the sequencer records completions at wave close; no per-worker rings, no merge layer) ==="
if grep -rnE 'WindowHub|add_from' crates/*/src; then
    echo "error: a window merge layer is back — telemetry records into TelemetryState's one ring"
    exit 1
fi
# Outside the `use` lists, core may name RingRecorder only inside
# `struct TelemetryState` and the `TelemetryState { .. }` literal that builds it.
stray="$(sed -s -e '/^use .*{$/,/^};$/d' -e '/^struct TelemetryState {/,/^}/d' \
    -e '/(TelemetryState {$/,/^ *})$/d' crates/core/src/*.rs | grep -n 'RingRecorder' || true)"
if [ -n "$stray" ]; then
    echo "error: a RingRecorder outside TelemetryState in crates/core/src:"; echo "$stray"
    exit 1
fi

echo "=== an answer pays for its footprint (no per-answer world clone; a repeated pool hashed once) ==="
hash_body="$(awk '/^fn hash_problem\(/,/^}$/' crates/core/src/canon.rs)"
if [ -z "$hash_body" ]; then
    echo "error: canon::hash_problem not found where this gate looks"
    exit 1
fi
if grep -rn 'fn overlay_reserved' crates/core/src; then
    echo "error: overlay_reserved is back — reservation::overlay_reservations refills the core's own world"
    exit 1
fi
if grep -q 'candidates' <<<"$hash_body" && ! grep -q 'repeats_pool' <<<"$hash_body"; then
    echo "error: hash_problem hashes every variable's candidates — a repeated pool is hashed once (Problem::repeats_pool)"
    exit 1
fi

echo "=== holds by slot (the plane reads and writes a hold at its fleet slot: no purge; the heuristic and the overlay are handed slots) ==="
if grep -n '\.purge(' crates/core/src/serving.rs; then
    echo "error: serving.rs purges the ledger — a slot hold is live iff its expiry is later than now"
    exit 1
fi
if grep -n 'world\.slot(' crates/core/src/heuristic.rs; then
    echo "error: heuristic.rs searches the world per candidate — it reads the slots its caller found"
    exit 1
fi
overlay_body="$(awk '/^    pub fn overlay\(/,/^    }$/' crates/estimator/src/world.rs)"
if [ -z "$overlay_body" ]; then
    echo "error: World::overlay not found where this gate looks"
    exit 1
fi
if grep -nE 'slot\(|binary_search|partition_point' <<<"$overlay_body"; then
    echo "error: World::overlay searches by address — it is handed each host's slot"
    exit 1
fi

echo "ci: all green"
