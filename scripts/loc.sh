#!/usr/bin/env bash
# scripts/loc.sh [tree] — the line counts a net-negative PR is judged by,
# counted where code cannot hide: what ships (every `src/` directory of the
# workspace's own crates), that plus every test, bench, example, compat
# stand-in and perf/ source, and core/src on its own. `tree` defaults to
# this checkout; name another to count a parent clone.
set -eu
cd "${1:-$(dirname "$0")/..}"

count() { xargs cat | wc -l; }
echo "crates/*/src + src/:        $(find crates src -name '*.rs' -path '*src/*' | count)"
echo "every .rs outside target/:  $(find . -name '*.rs' -not -path '*/target/*' | count)"
echo "crates/core/src:            $(find crates/core/src -name '*.rs' | count)"
