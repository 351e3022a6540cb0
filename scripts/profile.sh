#!/usr/bin/env bash
# scripts/profile.sh — where a perf/ workload's CPU time goes, by symbol.
#
#   bash scripts/profile.sh --workload status_fleet --seconds 20
#   bash scripts/profile.sh --workload status_fleet --under 'AggregationPlane<S>::sync'
#   bash scripts/profile.sh --workload hint_cold --children 'EvalCore::answer_snapshot'
#   bash scripts/profile.sh --workload hint_cold --diff ../parent .
#   bash scripts/profile.sh --workload status_fleet --smoke
#
# Builds `ctperf` from a tree (--tree DIR, default this checkout) with frame
# pointers into that tree's target/fp (perf/'s own binary is untouched),
# runs it pinned like perf/run.sh under scripts/profile/sampler.c (LD_PRELOAD,
# SIGPROF every 1 ms of CPU time, a frame-pointer walk per sample) and
# symbolises the samples with `nm -C -n`. Addresses outside the binary's
# text (malloc, free, memcpy, …) are `[libc]`.
#
# Writes perf/out/profile_<workload>.txt and prints it: the top --top N
# (default 25) symbols by self share and by inclusive share, and the self
# shares rolled up by module path. --under SYMBOL keeps only the samples
# with a frame whose name contains SYMBOL, and shares are of those.
# --children SYMBOL splits the samples with a frame naming SYMBOL by the
# frame directly below SYMBOL's outermost occurrence (what it called;
# `[self]` when SYMBOL is the leaf): the top --top N rows and `[other]`,
# which sum to 100 %.
# --diff A B profiles both trees the same way and prints each symbol's
# self share in A and in B, largest change first
# (perf/out/profile_diff_<workload>.txt).
#
# Options: --workload W (required), --seconds S (default 20), --seed N
# (default 2017), --tree DIR, --under SYMBOL, --children SYMBOL, --top N,
# --smoke, --diff A B.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
workload="" seconds=20 seed=2017 tree="$root" under="" children="" top=25 smoke=() diff=()
while [ $# -gt 0 ]; do
    case "$1" in
        --workload) workload="$2"; shift 2 ;;
        --seconds) seconds="$2"; shift 2 ;;
        --seed) seed="$2"; shift 2 ;;
        --tree) tree="$(cd "$2" && pwd)"; shift 2 ;;
        --under) under="$2"; shift 2 ;;
        --children) children="$2"; shift 2 ;;
        --top) top="$2"; shift 2 ;;
        --smoke) smoke=(--smoke); shift ;;
        --diff) diff=("$(cd "$2" && pwd)" "$(cd "$3" && pwd)"); shift 3 ;;
        *) echo "profile.sh: unknown argument $1" >&2; exit 2 ;;
    esac
done
[ -n "$workload" ] || { echo "profile.sh: --workload is required" >&2; exit 2; }

out="$root/perf/out"
mkdir -p "$out"

# sample TREE RAW — build TREE's ctperf with frame pointers, run the
# workload under the sampler, leave the raw samples in RAW.
sample() {
    local tree="$1" raw="$2" target="$1/target/fp"
    RUSTFLAGS="-C force-frame-pointers=yes" cargo build --release --offline --quiet \
        --manifest-path "$tree/perf/Cargo.toml" --target-dir "$target" >&2
    mkdir -p "$target/profile"
    gcc -O2 -shared -fPIC -o "$target/profile/sampler.so" "$root/scripts/profile/sampler.c"
    local pin=() cpu
    cpu=$(( $(nproc) - 1 ))
    if taskset -c "$cpu" true 2>/dev/null; then pin=(taskset -c "$cpu"); fi
    if setarch "$(uname -m)" -R true 2>/dev/null; then
        pin=(setarch "$(uname -m)" -R ${pin[@]+"${pin[@]}"})
    fi
    CTPERF_PINNED=1 ${pin[@]+"${pin[@]}"} env LD_PRELOAD="$target/profile/sampler.so" \
        CTPROF_OUT="$raw" "$target/release/ctperf" run --workload "$workload" --seed "$seed" \
        --seconds "$seconds" --trace 0 --out "$target/profile" ${smoke[@]+"${smoke[@]}"} >/dev/null
}

# report RAW... — symbolise and print; with two RAWs, the diff.
report() {
    python3 - "$top" "$under" "$children" "$@" <<'EOF'
import bisect, collections, subprocess, sys

top, under, children, raws = int(sys.argv[1]), sys.argv[2], sys.argv[3], sys.argv[4:]

def symbols(exe):
    addrs, names = [], []
    nm = subprocess.run(["nm", "-C", "-n", "--defined-only", exe],
                        capture_output=True, text=True, check=True).stdout
    for line in nm.splitlines():
        parts = line.split(" ", 2)
        if len(parts) == 3 and parts[1] in "tTwW":
            addrs.append(int(parts[0], 16))
            names.append(parts[2])
    return addrs, names

def module(name):
    if name.startswith("["):
        return name
    head = name.lstrip("<")
    for stop in "< ":
        head = head.split(stop, 1)[0]
    return "::".join(head.split("::")[:2])

def load(raw):
    exe, base, text, stacks, dropped = None, 0, [], [], 0
    with open(raw) as f:
        for line in f:
            kind, _, rest = line.rstrip("\n").partition(" ")
            if kind == "exe":
                exe = rest
            elif kind == "base":
                base = int(rest, 16)
            elif kind == "text":
                lo, hi = rest.split()
                text.append((int(lo, 16), int(hi, 16)))
            elif kind == "dropped":
                dropped = int(rest)
            elif kind == "s":
                stacks.append([int(a, 16) for a in rest.split()])
    addrs, names = symbols(exe)
    def name(addr, leaf):
        if not any(lo <= addr < hi for lo, hi in text):
            return "[libc]"
        rel = addr - base - (0 if leaf else 1)
        i = bisect.bisect_right(addrs, rel) - 1
        return names[i] if i >= 0 else "[unknown]"
    stacks = [[name(a, d == 0) for d, a in enumerate(s)] for s in stacks]
    if under:
        stacks = [s for s in stacks if any(under in f for f in s)]
    return stacks, dropped

def shares(stacks):
    n = max(len(stacks), 1)
    own = collections.Counter(s[0] for s in stacks)
    incl = collections.Counter(f for s in stacks for f in set(s))
    mods = collections.Counter(module(s[0]) for s in stacks)
    pct = lambda c: {k: 100.0 * v / n for k, v in c.items()}
    return pct(own), pct(incl), pct(mods)

def callees(stacks, symbol):
    # Stacks are leaf first: the outermost occurrence is the last match.
    split = collections.Counter()
    for s in stacks:
        at = max((d for d, f in enumerate(s) if symbol in f), default=None)
        if at is not None:
            split["[self]" if at == 0 else s[at - 1]] += 1
    n = max(sum(split.values()), 1)
    rows = sorted(split.items(), key=lambda kv: -kv[1])
    rest = sum(v for _, v in rows[top:])
    rows = rows[:top] + ([("[other]", rest)] if rest else [])
    return sum(split.values()), [(k, 100.0 * v / n) for k, v in rows]

scope = f"under {under}" if under else "all"
if len(raws) == 1:
    stacks, dropped = load(raws[0])
    own, incl, mods = shares(stacks)
    print(f"samples {len(stacks)} dropped {dropped} scope {scope}")
    named = [k for k, _ in sorted(own.items(), key=lambda kv: -kv[1]) if not k.startswith("[")]
    print(f"top {named[0] if named else '[none]'}")
    for title, table in (("self", own), ("inclusive", incl), ("module", mods)):
        print(f"== {title}")
        for k, v in sorted(table.items(), key=lambda kv: -kv[1])[:top]:
            print(f"{title} {v:6.2f}% {k}")
    if children:
        n, rows = callees(stacks, children)
        print(f"== children of {children}: {n} samples")
        for k, v in rows:
            print(f"children {v:6.2f}% {k}")
else:
    (a, da), (b, db) = load(raws[0]), load(raws[1])
    (sa, _, ma), (sb, _, mb) = shares(a), shares(b)
    print(f"samples A {len(a)} B {len(b)} dropped {da} {db} scope {scope}")
    for title, ta, tb in (("self", sa, sb), ("module", ma, mb)):
        print(f"== {title}: A% B% change")
        keys = sorted(set(ta) | set(tb), key=lambda k: -abs(tb.get(k, 0) - ta.get(k, 0)))
        for k in keys[:top]:
            x, y = ta.get(k, 0.0), tb.get(k, 0.0)
            print(f"{title} {x:6.2f}% {y:6.2f}% {y - x:+6.2f} {k}")
EOF
}

if [ ${#diff[@]} -eq 2 ]; then
    sample "${diff[0]}" "$out/profile_${workload}_A.raw"
    sample "${diff[1]}" "$out/profile_${workload}_B.raw"
    report "$out/profile_${workload}_A.raw" "$out/profile_${workload}_B.raw" \
        | tee "$out/profile_diff_${workload}.txt"
else
    sample "$tree" "$out/profile_${workload}.raw"
    report "$out/profile_${workload}.raw" | tee "$out/profile_${workload}.txt"
fi
