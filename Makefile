# Developer entry points. CI runs the same targets.

.PHONY: build test race vet lint semlint bench benchcmp bench-e2e-smoke serve smoke

build:
	go build ./...

test:
	go test ./...

race:
	go test -race ./...

vet:
	go vet ./...

# Mirrors the CI lint job: formatting (simplified), vet, the project
# analyzer suite, and (when installed on the developer machine) staticcheck.
lint: semlint
	@unformatted="$$(gofmt -s -l .)"; if [ -n "$$unformatted" ]; then \
		echo "gofmt -s needed on:"; echo "$$unformatted"; exit 1; fi
	go vet ./...
	@if command -v staticcheck >/dev/null 2>&1; then staticcheck ./...; \
		else echo "staticcheck not installed; skipping (CI runs it)"; fi

# Builds the project multichecker from its nested module (tools/semlint, so
# the root module keeps zero dependencies) and runs the whole suite —
# hotpathalloc, nilreceiver, ctxflow, metriclint, lockdiscipline, gostmt —
# over the repository. Any diagnostic fails the build; suppress a justified one with
# `//semblock:allow <analyzer> <reason>` (see docs/ARCHITECTURE.md).
semlint:
	go -C tools/semlint build -o ../../bin/semlint .
	./bin/semlint ./...

# Compares the current BENCH_pipeline.json against the committed baseline —
# the same gates the CI bench job applies after every run: >25% allocs/op
# or >100% ns/op regression, parallel/serial speedup < 1.5x (machines with
# GOMAXPROCS >= 4 only), CollectionIngest shards=8 allocs/op drifting
# >10% above shards=1, the PipelineEndToEnd allocs/op hard ceiling, the
# traced pipeline staying within 10% ns/op of the untraced one, and the
# signature kernel staying under 1.0 ns per hash evaluation.
benchcmp:
	git show HEAD:BENCH_pipeline.json > /tmp/bench_baseline.json
	go run ./scripts/benchcmp -max-regress 25 -max-ns-regress 100 \
		-min-speedup 1.5 -flat-tolerance 10 \
		-alloc-ceiling BenchmarkPipelineEndToEnd=90000 \
		-ns-overhead BenchmarkPipelineEndToEndTraced:BenchmarkPipelineEndToEnd \
		-overhead-tolerance 10 \
		-metric-ceiling BenchmarkSignBand/85x252:ns/eval=1.0 \
		/tmp/bench_baseline.json BENCH_pipeline.json

# Runs the blocking/pipeline benchmarks and writes BENCH_pipeline.json so
# the perf trajectory is tracked across PRs. BENCHTIME=1x for a smoke run.
bench:
	./scripts/bench.sh

# The end-to-end benchmark (bench/) is its own module, invisible to
# `go test ./...` at the root, yet it binds root-module functions
# (bench/surface.go): its unit tests plus every workload at ~1/100 size with
# all output checks on, so a root API change that breaks it fails here and
# not first in the benchmark driver.
bench-e2e-smoke:
	cd bench && go test ./...
	go run -C bench . --smoke

# Runs the multi-tenant blocking service locally with persistence under
# ./data. Override: make serve SERVE_FLAGS='-addr :9090 -shards 8'.
serve:
	go run ./cmd/semblock serve -addr :8080 -data-dir ./data -shards 4 $(SERVE_FLAGS)

# End-to-end serve smoke test (start, ingest, query, graceful shutdown,
# checkpoint assertion). CI runs this as the serve-smoke job.
smoke:
	./scripts/smoke_serve.sh
