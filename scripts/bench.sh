#!/usr/bin/env bash
# Runs the blocking/pipeline benchmarks and writes BENCH_pipeline.json at
# the repository root, so the perf trajectory of the candidate-generation
# hot path is tracked from PR to PR.
#
# Usage:
#   scripts/bench.sh                 # default pattern and benchtime
#   BENCHTIME=1x scripts/bench.sh    # quick smoke run (CI)
#   PATTERN='BenchmarkPipeline' COUNT=3 scripts/bench.sh
set -euo pipefail
cd "$(dirname "$0")/.."

PATTERN="${PATTERN:-BenchmarkPipelineBlock|BenchmarkPipelineEndToEnd|BenchmarkPipelineBudget|BenchmarkBlockLSH|BenchmarkBlockSALSH|BenchmarkBlockVoterSALSH|BenchmarkIndexerInsertBatch|BenchmarkServerIngest|BenchmarkCollectionIngest|BenchmarkCollectionRestore|BenchmarkSignBand|BenchmarkDecodeRows|BenchmarkBuildGraph|BenchmarkKernelFeaturize}"
BENCHTIME="${BENCHTIME:-1s}"
COUNT="${COUNT:-1}"
OUT="${OUT:-BENCH_pipeline.json}"

# The root package holds the end-to-end benches (HTTP ServerIngest among
# them); internal/server holds the in-process CollectionIngest bench whose
# allocs/op track the shared-record-log ingest path per shard count;
# internal/minhash holds the signature kernel's ns/eval bench;
# internal/record holds the row decoder's bench (encoding/json oracle vs
# DecodeRows, ns/record and allocs/record).
PKGS="${PKGS:-. ./internal/server ./internal/minhash ./internal/record}"

raw="$(mktemp)"
trap 'rm -f "$raw"' EXIT

go test -run '^$' -bench "$PATTERN" -benchmem -benchtime "$BENCHTIME" -count "$COUNT" $PKGS | tee "$raw"

awk -v date="$(date -u +%Y-%m-%dT%H:%M:%SZ)" '
/^goos:/    { goos = $2 }
/^goarch:/  { goarch = $2 }
/^cpu:/     { sub(/^cpu: /, ""); cpu = $0 }
/^Benchmark/ {
    name = $1
    # Capture the -GOMAXPROCS suffix (BenchmarkFoo-4 -> 4) before stripping
    # it, so the recorded names stay comparable across machines with
    # different core counts while benchcmp can still tell how many procs
    # the run had — its parallel-speedup gate only applies at >= 4.
    # No suffix means the run had GOMAXPROCS=1.
    maxprocs = 1
    if (match(name, /-[0-9]+$/)) maxprocs = substr(name, RSTART + 1)
    sub(/-[0-9]+$/, "", name)
    iters = $2
    ns = ""
    bytes = ""
    allocs = ""
    extra = ""
    for (i = 3; i < NF; i++) {
        if ($(i+1) == "ns/op")     ns = $i
        if ($(i+1) == "B/op")      bytes = $i
        if ($(i+1) == "allocs/op") allocs = $i
        # Any other value-unit pair is a custom b.ReportMetric (f1, pc,
        # records/op, ...); the value must be numeric.
        if ($(i+1) !~ /^(ns\/op|B\/op|allocs\/op)$/ && $i ~ /^[0-9.eE+-]+$/ && $(i+1) ~ /^[A-Za-z]/) {
            extra = extra sprintf("%s\"%s\": %s", (extra == "" ? "" : ", "), $(i+1), $i)
            i++
        }
    }
    entry = sprintf("    {\"name\": \"%s\", \"maxprocs\": %d, \"iterations\": %s", name, maxprocs, iters)
    if (ns != "")     entry = entry sprintf(", \"ns_per_op\": %s", ns)
    if (bytes != "")  entry = entry sprintf(", \"bytes_per_op\": %s", bytes)
    if (allocs != "") entry = entry sprintf(", \"allocs_per_op\": %s", allocs)
    if (extra != "")  entry = entry sprintf(", \"metrics\": {%s}", extra)
    entry = entry "}"
    entries[n++] = entry
}
END {
    printf "{\n"
    printf "  \"generated\": \"%s\",\n", date
    printf "  \"goos\": \"%s\",\n", goos
    printf "  \"goarch\": \"%s\",\n", goarch
    printf "  \"cpu\": \"%s\",\n", cpu
    printf "  \"benchmarks\": [\n"
    for (i = 0; i < n; i++) printf "%s%s\n", entries[i], (i < n-1 ? "," : "")
    printf "  ]\n}\n"
}' "$raw" > "$OUT"

echo "wrote $OUT ($(grep -c '"name"' "$OUT") benchmarks)"
