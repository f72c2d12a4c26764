// Command benchcmp compares two BENCH_pipeline.json files (the format
// scripts/bench.sh writes) and fails when a tracked benchmark regressed
// beyond its threshold. CI runs it against the committed baseline after
// every bench run, so a perf regression on the candidate-generation hot
// path fails the pipeline instead of landing silently.
//
// Four kinds of gate:
//
//   - allocs/op regression (-max-regress, percent): allocs/op is
//     deterministic for a fixed code path — unlike ns/op, it does not vary
//     with runner hardware or load — so a small relative threshold is
//     meaningful even on shared CI machines.
//   - ns/op regression (-max-ns-regress, percent; -ns-tolerance overrides
//     per benchmark): a coarse wall-time gate that catches catastrophic
//     slowdowns while tolerating runner noise. Per-benchmark overrides let
//     noisy benchmarks carry a wider band without loosening the rest.
//   - intra-run ratio gates (-min-speedup, -alloc-flat, -ns-overhead):
//     compare two benchmarks *within the current file*, so they are
//     hardware-independent — the committed baseline's machine does not
//     matter. -min-speedup enforces the parallel/serial speedup floor (only
//     when the run had GOMAXPROCS >= 4; a 1-core runner cannot exhibit
//     parallel speedup), -alloc-flat enforces that sharding stays
//     allocation-flat, and -ns-overhead bounds the wall-time cost of an
//     optional feature (tracing on vs off) as a same-machine ratio.
//   - custom-metric ceilings (-metric-ceiling): an absolute cap on a
//     b.ReportMetric value in the current file — the signature kernel's
//     ns per hash evaluation, which a change of mixer moves by 2-3x while
//     runner hardware moves it by tens of percent.
//
// Usage:
//
//	go run ./scripts/benchcmp [-max-regress 25] [-max-ns-regress 100] \
//	    [-ns-tolerance 'BenchmarkFoo=150,BenchmarkBar=50'] \
//	    [-min-speedup 1.5] \
//	    [-speedup-serial BenchmarkPipelineBlock/serial] \
//	    [-speedup-parallel BenchmarkPipelineBlock/parallel] \
//	    [-alloc-flat 'BenchmarkCollectionIngest/shards=8:BenchmarkCollectionIngest/shards=1'] \
//	    [-flat-tolerance 10] \
//	    [-ns-overhead 'BenchmarkPipelineEndToEndTraced:BenchmarkPipelineEndToEnd'] \
//	    [-overhead-tolerance 10] \
//	    [-metric-ceiling 'BenchmarkSignBand/85x252:ns/eval=1.0'] \
//	    baseline.json current.json
//
// Exit status 1 when any gate fails. Benchmarks missing from either side
// are reported but never fail the run (the tracked set may legitimately
// grow or shrink in a PR).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"
)

type benchFile struct {
	Generated  string  `json:"generated"`
	Benchmarks []bench `json:"benchmarks"`
}

type bench struct {
	Name        string  `json:"name"`
	MaxProcs    int     `json:"maxprocs"`
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  float64 `json:"bytes_per_op"`
	AllocsPerOp float64 `json:"allocs_per_op"`
	// Metrics are the benchmark's b.ReportMetric values by unit.
	Metrics map[string]float64 `json:"metrics"`
}

func load(path string) (map[string]bench, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f benchFile
	if err := json.Unmarshal(raw, &f); err != nil {
		return nil, fmt.Errorf("parse %s: %w", path, err)
	}
	out := make(map[string]bench, len(f.Benchmarks))
	for _, b := range f.Benchmarks {
		out[b.Name] = b
	}
	return out, nil
}

// parseTolerances parses "name=value,name=value" per-benchmark overrides
// (ns/op tolerance percents, allocs/op ceilings).
// The percent is everything after the LAST '=' so benchmark names carrying
// sub-bench parameters ("BenchmarkFoo/shards=8") parse too.
func parseTolerances(s string) (map[string]float64, error) {
	out := make(map[string]float64)
	if s == "" {
		return out, nil
	}
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		i := strings.LastIndex(part, "=")
		if i <= 0 {
			return nil, fmt.Errorf("bad entry %q (want name=value)", part)
		}
		v, err := strconv.ParseFloat(part[i+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("bad value in %q: %v", part, err)
		}
		out[part[:i]] = v
	}
	return out, nil
}

func main() {
	maxRegress := flag.Float64("max-regress", 25, "maximum allowed allocs/op regression in percent")
	maxNsRegress := flag.Float64("max-ns-regress", 100, "maximum allowed ns/op regression in percent (0 disables the gate)")
	nsTolerance := flag.String("ns-tolerance", "", "per-benchmark ns/op tolerance overrides, 'name=pct,name=pct'")
	minSpeedup := flag.Float64("min-speedup", 1.5, "minimum parallel/serial ns/op speedup in the current file (0 disables; skipped below 4 procs)")
	speedupSerial := flag.String("speedup-serial", "BenchmarkPipelineBlock/serial", "serial benchmark of the speedup gate")
	speedupParallel := flag.String("speedup-parallel", "BenchmarkPipelineBlock/parallel", "parallel benchmark of the speedup gate")
	allocFlat := flag.String("alloc-flat", "BenchmarkCollectionIngest/shards=8:BenchmarkCollectionIngest/shards=1",
		"allocation-flatness pairs 'target:base,...': target allocs/op must stay within -flat-tolerance of base, in the current file ('' disables)")
	flatTolerance := flag.Float64("flat-tolerance", 10, "allowed allocs/op excess of an -alloc-flat target over its base, in percent")
	allocCeiling := flag.String("alloc-ceiling", "BenchmarkPipelineEndToEnd=90000",
		"absolute allocs/op ceilings 'name=max,...' checked against the current file — hardware-independent hard caps ('' disables)")
	nsOverhead := flag.String("ns-overhead", "BenchmarkPipelineEndToEndTraced:BenchmarkPipelineEndToEnd",
		"intra-run ns/op overhead pairs 'target:base,...': target ns/op must stay within -overhead-tolerance of base, in the current file ('' disables)")
	overheadTolerance := flag.Float64("overhead-tolerance", 10, "allowed ns/op excess of an -ns-overhead target over its base, in percent")
	metricCeiling := flag.String("metric-ceiling", "BenchmarkSignBand/85x252:ns/eval=1.0",
		"absolute ceilings on custom metrics 'name:unit=max,...' checked against the current file ('' disables)")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: benchcmp [flags] baseline.json current.json\n")
		flag.PrintDefaults()
	}
	flag.Parse()
	if flag.NArg() != 2 {
		flag.Usage()
		os.Exit(2)
	}
	nsTol, err := parseTolerances(*nsTolerance)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchcmp:", err)
		os.Exit(2)
	}
	base, err := load(flag.Arg(0))
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchcmp:", err)
		os.Exit(2)
	}
	cur, err := load(flag.Arg(1))
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchcmp:", err)
		os.Exit(2)
	}

	var failures []string

	// Gates 1+2: per-benchmark allocs/op and ns/op regression vs baseline.
	fmt.Printf("%-52s %13s %13s %8s %12s %12s %8s\n",
		"benchmark", "base allocs", "cur allocs", "delta", "base ns/op", "cur ns/op", "delta")
	for _, name := range sortedKeys(base) {
		bb := base[name]
		cb, ok := cur[name]
		if !ok {
			fmt.Printf("%-52s %13.0f %13s\n", name, bb.AllocsPerOp, "missing")
			continue
		}
		allocDelta, allocBad := delta(bb.AllocsPerOp, cb.AllocsPerOp, *maxRegress)
		nsLimit := *maxNsRegress
		if v, ok := nsTol[name]; ok {
			nsLimit = v
		}
		nsDelta, nsBad := delta(bb.NsPerOp, cb.NsPerOp, nsLimit)
		if allocBad {
			failures = append(failures, fmt.Sprintf("%s: allocs/op %+.1f%% exceeds %.0f%%", name, allocDelta, *maxRegress))
		}
		if nsBad {
			failures = append(failures, fmt.Sprintf("%s: ns/op %+.1f%% exceeds %.0f%%", name, nsDelta, nsLimit))
		}
		mark := ""
		if allocBad || nsBad {
			mark = "  REGRESSION"
		}
		fmt.Printf("%-52s %13.0f %13.0f %+7.1f%% %12.0f %12.0f %+7.1f%%%s\n",
			name, bb.AllocsPerOp, cb.AllocsPerOp, allocDelta, bb.NsPerOp, cb.NsPerOp, nsDelta, mark)
	}
	for _, name := range sortedKeys(cur) {
		if _, ok := base[name]; !ok {
			fmt.Printf("%-52s %13s %13.0f\n", name, "new", cur[name].AllocsPerOp)
		}
	}

	// Gate 3: parallel/serial speedup within the current file. Skipped when
	// the run had fewer than 4 procs — a machine without parallelism to give
	// cannot fail a parallelism gate.
	if *minSpeedup > 0 {
		ser, okS := cur[*speedupSerial]
		par, okP := cur[*speedupParallel]
		switch {
		case !okS || !okP:
			fmt.Printf("speedup gate: %s or %s not in current file, skipped\n", *speedupSerial, *speedupParallel)
		case par.MaxProcs < 4:
			fmt.Printf("speedup gate: run had GOMAXPROCS=%d (< 4), skipped\n", par.MaxProcs)
		case par.NsPerOp <= 0 || ser.NsPerOp <= 0:
			fmt.Printf("speedup gate: ns/op untracked, skipped\n")
		default:
			speedup := ser.NsPerOp / par.NsPerOp
			fmt.Printf("speedup gate: %s / %s = %.2fx at GOMAXPROCS=%d (floor %.2fx)\n",
				*speedupSerial, *speedupParallel, speedup, par.MaxProcs, *minSpeedup)
			if speedup < *minSpeedup {
				failures = append(failures, fmt.Sprintf("parallel speedup %.2fx below the %.2fx floor at GOMAXPROCS=%d",
					speedup, *minSpeedup, par.MaxProcs))
			}
		}
	}

	// Gate 4: allocation flatness across configurations, in the current file.
	if *allocFlat != "" {
		for _, part := range strings.Split(*allocFlat, ",") {
			target, baseName, ok := strings.Cut(strings.TrimSpace(part), ":")
			if !ok {
				fmt.Fprintf(os.Stderr, "benchcmp: bad -alloc-flat entry %q (want target:base)\n", part)
				os.Exit(2)
			}
			tb, okT := cur[target]
			bb, okB := cur[baseName]
			if !okT || !okB {
				fmt.Printf("alloc-flat gate: %s or %s not in current file, skipped\n", target, baseName)
				continue
			}
			if bb.AllocsPerOp <= 0 {
				continue
			}
			excess := (tb.AllocsPerOp - bb.AllocsPerOp) / bb.AllocsPerOp * 100
			fmt.Printf("alloc-flat gate: %s allocs/op is %+.1f%% vs %s (tolerance %.0f%%)\n",
				target, excess, baseName, *flatTolerance)
			if excess > *flatTolerance {
				failures = append(failures, fmt.Sprintf("%s allocs/op %+.1f%% over %s exceeds %.0f%%",
					target, excess, baseName, *flatTolerance))
			}
		}
	}

	// Gate 5: absolute allocs/op ceilings in the current file. Like gates
	// 3+4 these are hardware-independent — allocs/op is deterministic for a
	// fixed code path — so they hold a hot path's allocation count to a hard
	// cap regardless of what the committed baseline drifted to.
	if *allocCeiling != "" {
		ceilings, err := parseTolerances(*allocCeiling)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchcmp:", err)
			os.Exit(2)
		}
		for _, name := range sortedKeys(cur) {
			max, ok := ceilings[name]
			if !ok {
				continue
			}
			cb := cur[name]
			fmt.Printf("alloc-ceiling gate: %s allocs/op %.0f (ceiling %.0f)\n", name, cb.AllocsPerOp, max)
			if cb.AllocsPerOp > max {
				failures = append(failures, fmt.Sprintf("%s: allocs/op %.0f exceeds the %.0f ceiling",
					name, cb.AllocsPerOp, max))
			}
		}
	}

	// Gate 6: intra-run ns/op overhead between two benchmarks of the same
	// workload (e.g. tracing on vs off). Both sides ran in the same process
	// on the same machine, so the ratio is hardware-independent even though
	// absolute ns/op is not — it bounds the cost of an optional feature.
	if *nsOverhead != "" {
		for _, part := range strings.Split(*nsOverhead, ",") {
			target, baseName, ok := strings.Cut(strings.TrimSpace(part), ":")
			if !ok {
				fmt.Fprintf(os.Stderr, "benchcmp: bad -ns-overhead entry %q (want target:base)\n", part)
				os.Exit(2)
			}
			tb, okT := cur[target]
			bb, okB := cur[baseName]
			if !okT || !okB {
				fmt.Printf("ns-overhead gate: %s or %s not in current file, skipped\n", target, baseName)
				continue
			}
			if bb.NsPerOp <= 0 {
				continue
			}
			excess := (tb.NsPerOp - bb.NsPerOp) / bb.NsPerOp * 100
			fmt.Printf("ns-overhead gate: %s ns/op is %+.1f%% vs %s (tolerance %.0f%%)\n",
				target, excess, baseName, *overheadTolerance)
			if excess > *overheadTolerance {
				failures = append(failures, fmt.Sprintf("%s ns/op %+.1f%% over %s exceeds %.0f%%",
					target, excess, baseName, *overheadTolerance))
			}
		}
	}

	// Gate 7: absolute ceilings on custom metrics in the current file. The
	// signature kernel's ns/eval is the one in use: the one-multiply family
	// runs at ~0.55, a two-multiply mixer at ~1.5, so a ceiling between them
	// holds on any runner and catches the kernel quietly growing back.
	if *metricCeiling != "" {
		ceilings, err := parseTolerances(*metricCeiling)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchcmp:", err)
			os.Exit(2)
		}
		for _, key := range sortedKeys(ceilings) {
			name, unit, ok := strings.Cut(key, ":")
			if !ok {
				fmt.Fprintf(os.Stderr, "benchcmp: bad -metric-ceiling entry %q (want name:unit=max)\n", key)
				os.Exit(2)
			}
			v, ok := cur[name].Metrics[unit]
			if !ok {
				fmt.Printf("metric-ceiling gate: %s %s not in current file, skipped\n", name, unit)
				continue
			}
			fmt.Printf("metric-ceiling gate: %s %s %.3f (ceiling %.3f)\n", name, unit, v, ceilings[key])
			if v > ceilings[key] {
				failures = append(failures, fmt.Sprintf("%s: %s %.3f exceeds the %.3f ceiling", name, unit, v, ceilings[key]))
			}
		}
	}

	if len(failures) > 0 {
		for _, f := range failures {
			fmt.Fprintln(os.Stderr, "benchcmp: FAIL:", f)
		}
		os.Exit(1)
	}
	fmt.Println("benchcmp: all gates passed")
}

// delta returns the percent change from base to cur and whether it exceeds
// the limit (limit <= 0 = gate disabled; untracked base never fails).
func delta(base, cur, limit float64) (float64, bool) {
	if base <= 0 {
		return 0, false
	}
	d := (cur - base) / base * 100
	return d, limit > 0 && d > limit
}

func sortedKeys[V any](m map[string]V) []string {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
