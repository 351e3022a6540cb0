#!/usr/bin/env bash
# scripts/bench_record.sh — run the benchmark and remember what it read.
#
#   scripts/bench_record.sh [perf/run.sh options]
#
# Runs `bash perf/run.sh "$@"`, then appends one line per workload that run
# measured (untraced: perf/out/result_<workload>.json) to BENCH_perf.jsonl
# at the repository root: when and where it was measured (git sha, whether
# tracked files differed from it, nproc, CPU model, rustc, the options
# given, seed) and the
# end-to-end metrics of BENCHMARK.json. The ledger is append-only; a row is
# a reading, not a claim — claims are ten alternating pairs (EXPERIMENTS.md).
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
marker="$(mktemp)"
trap 'rm -f "$marker"' EXIT

status=0
bash "$root/perf/run.sh" "$@" || status=$?

python3 - "$root" "$marker" "$*" <<'PY'
import datetime, json, os, subprocess, sys

root, marker, args = sys.argv[1:4]
started = os.path.getmtime(marker)
with open(os.path.join(root, "BENCHMARK.json")) as f:
    bench = json.load(f)
dirty = bool(subprocess.run(
    ["git", "-C", root, "status", "--porcelain", "--untracked-files=no", "--", ".", ":!BENCH_perf.jsonl"],
    capture_output=True, text=True).stdout.strip())
rows = []
for w in (w["name"] for w in bench["workloads"]):
    path = os.path.join(root, "perf", "out", f"result_{w}.json")
    if not os.path.exists(path) or os.path.getmtime(path) < started:
        continue
    with open(path) as f:
        r = json.load(f)
    rows.append({
        "date": datetime.datetime.now(datetime.timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ"),
        "git_sha": r["git_sha"], "dirty": dirty,
        "nproc": r["nproc"], "cpu_model": r["cpu_model"], "rustc": r["rustc"], "pinned": r["pinned"],
        "args": args, "workload": w, "seed": r["seed"],
        "correct": r["result"]["correct"], "failed": r["result"]["failed"],
        **{m["name"]: r["result"]["metrics"][m["name"]]["value"] for m in bench["end_to_end"]},
    })
with open(os.path.join(root, "BENCH_perf.jsonl"), "a") as f:
    for row in rows:
        f.write(json.dumps(row) + "\n")
print(f"bench_record: {len(rows)} row(s) appended to BENCH_perf.jsonl", file=sys.stderr)
PY
exit $status
