#!/usr/bin/env bash
# Interpreter gate: run the compiled-execution benchmarks, archive them
# as a BENCH_INTERP_*.json artifact, and fail if any exceeds its
# allocs/op ceiling. Allocation counts are deterministic at a fixed
# -benchtime, so the ceilings are the measured values (go1.24, 300x):
# Small 81, Loop 8, Widget 1291. The loop ceiling pins the compiler's
# slot-resolved locals and pooled frames — per-iteration scope
# allocation, as in the deleted tree-walking interpreter (7519
# allocs/op), fails loudly. ns/op is compared against a cached baseline
# by scripts/benchcmp.sh in CI.
#
# Usage: scripts/bench_interp.sh [output.json]
set -euo pipefail
cd "$(dirname "$0")/.."

out="${1:-BENCH_INTERP_local.json}"

txt="$(mktemp)"
trap 'rm -f "$txt"' EXIT
go test -run '^$' -bench 'BenchmarkInterpret(Small|Loop|Widget)Compiled$' \
    -benchtime 300x -benchmem -timeout 20m . \
    | tee "$txt" >&2
go run ./cmd/benchjson < "$txt" > "$out"
echo "bench artifact written to $out" >&2

fail=0
for gate in Small:81 Loop:8 Widget:1291; do
    name="${gate%%:*}"
    ceiling="${gate##*:}"
    allocs="$(awk -v b="BenchmarkInterpret${name}Compiled" '$1 ~ "^" b "(-[0-9]+)?$" {
        for (i = 2; i <= NF; i++) if ($i == "allocs/op") print $(i - 1)
    }' "$txt")"
    if [ -z "$allocs" ]; then
        echo "bench_interp: missing allocs/op for $name" >&2
        exit 1
    fi
    if [ "$allocs" -le "$ceiling" ]; then
        verdict=ok
    else
        verdict=FAIL
        fail=1
    fi
    echo "$name: $allocs allocs/op (gate: <= $ceiling) $verdict" >&2
done
exit "$fail"
