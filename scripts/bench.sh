#!/bin/sh
# Runs the hot-path benchmark suite and records the results in
# BENCH_hotpath.json, the repo's tracked performance trajectory. Each
# benchmark runs `count` times and the best (lowest ns/op) run is recorded,
# damping scheduler noise. Run from the repo root on a quiet machine; commit
# the JSON when the numbers move for a reason.
#
# Usage: scripts/bench.sh [count]   (default 3)
set -eu

COUNT="${1:-3}"
OUT=BENCH_hotpath.json
RAW=$(mktemp)
trap 'rm -f "$RAW"' EXIT

go test -run '^$' \
  -bench 'DispatchSteadyState|ArenaChurn|ArenaInsertEvict|ArenaAccess|ReplayObserver|ObserverEmit|^BenchmarkReplay$|^BenchmarkEngineRun$' \
  -benchmem -count "$COUNT" . | tee "$RAW"

# Parse `go test -bench` lines, keeping the best run per benchmark:
#   BenchmarkName-8   1234567   95.89 ns/op   2 B/op   0 allocs/op
awk -v out="$OUT" '
/^Benchmark/ {
    name = $1
    sub(/-[0-9]+$/, "", name)
    sub(/^Benchmark/, "", name)
    n_ns = ""; n_b = ""; n_a = ""
    for (i = 2; i < NF; i++) {
        if ($(i+1) == "ns/op")     n_ns = $i
        if ($(i+1) == "B/op")      n_b  = $i
        if ($(i+1) == "allocs/op") n_a  = $i
    }
    if (n_ns == "") next
    if (!(name in ns) || n_ns + 0 < ns[name] + 0) {
        ns[name] = n_ns; bytes[name] = n_b; allocs[name] = n_a
    }
    if (!(name in seen)) { order[++n] = name; seen[name] = 1 }
}
END {
    printf "{\n" > out
    # Seed-commit numbers (pre-optimization, commit 836dce4, same machine);
    # the dispatch benchmarks did not exist yet.
    printf "  \"before\": {\n" >> out
    printf "    \"commit\": \"836dce4\",\n" >> out
    printf "    \"ArenaInsertEvict\": {\"ns_per_op\": 249.3, \"bytes_per_op\": 111, \"allocs_per_op\": 1},\n" >> out
    printf "    \"ArenaAccess\": {\"ns_per_op\": 10.52, \"bytes_per_op\": 0, \"allocs_per_op\": 0},\n" >> out
    printf "    \"Replay\": {\"ns_per_op\": 11510000, \"allocs_per_op\": 101303},\n" >> out
    printf "    \"EngineRun\": {\"ns_per_op\": 22990000, \"allocs_per_op\": 7865}\n" >> out
    printf "  },\n" >> out
    printf "  \"after\": {\n" >> out
    for (i = 1; i <= n; i++) {
        name = order[i]
        printf "    \"%s\": {\"ns_per_op\": %s", name, ns[name] >> out
        if (bytes[name]  != "") printf ", \"bytes_per_op\": %s", bytes[name] >> out
        if (allocs[name] != "") printf ", \"allocs_per_op\": %s", allocs[name] >> out
        printf "}%s\n", (i < n ? "," : "") >> out
    }
    printf "  }\n}\n" >> out
}
' "$RAW"

echo "wrote $OUT"
