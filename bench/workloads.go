package main

import (
	"context"
	"fmt"
	"math"
	"sort"
	"time"
)

// referenceSeconds is the --seconds value the workload sizes below are
// stated for; other values scale them linearly. A run's work is fixed by
// (workload, seconds, seed) — a record count, a schedule, an iteration
// count — never cut off by a timer, so two versions of the program are
// compared on identical inputs and every output can be verified exactly.
// On the reference host (2 vCPU, see README) each workload's timed part
// then takes about --seconds seconds.
const referenceSeconds = 10

// serveSpec is the collection every serve workload creates — LoadBench's
// configuration: K=6 keeps random-pair collisions rare enough that the
// candidate set stays near-linear in the corpus size.
var serveSpec = collectionSpec{
	Name: collectionName, Attrs: []string{"authors", "title"},
	Q: 3, K: 6, L: 12, Seed: 7, Shards: 2,
	Semantic: &semanticSpec{Domain: "cora", W: 3, Mode: "or"},
}

// coraResolve is the resolve request of the Cora workloads.
var coraResolve = resolveSpec{
	Match:     []matchAttr{{Attr: "title", Weight: 0.6}, {Attr: "authors", Weight: 0.4}},
	Threshold: 0.6,
	Pruning:   &pruneSpec{Scheme: "CBS", Algo: "WEP"},
}

// paperCoraSpec is the paper's Cora configuration (§6.1): blocking key
// (authors, title), q=4, k=4, l=63, with the w=3 OR semantic function.
var paperCoraSpec = collectionSpec{
	Name: "cora", Attrs: []string{"authors", "title"},
	Q: 4, K: 4, L: 63, Seed: 1, Shards: 2,
	Semantic: &semanticSpec{Domain: "cora", W: 3, Mode: "or"},
}

// paperVoterSpec is the paper's NC Voter configuration: blocking key
// (first name, last name), q=2, k=9, l=15, w=12 OR over the full signature.
var paperVoterSpec = collectionSpec{
	Name: "voter", Attrs: []string{"first_name", "last_name"},
	Q: 2, K: 9, L: 15, Seed: 1, Shards: 2,
	Semantic: &semanticSpec{Domain: "voter", W: 12, Mode: "or"},
}

var voterResolve = resolveSpec{
	Match:     []matchAttr{{Attr: "first_name", Weight: 0.5}, {Attr: "last_name", Weight: 0.5}},
	Threshold: 0.7,
	Pruning:   &pruneSpec{Scheme: "CBS", Algo: "WEP"},
}

// runEnv is what one run of one workload is given.
type runEnv struct {
	seed  int64
	scale float64 // --seconds / referenceSeconds
	// repeats is how often a run repeats each one-off step — set-up, the
	// durable write, the cold start — to report the median: a single
	// timing of a second or so is at the mercy of whatever else the host
	// is doing.
	repeats int
	out     string // directory for every file the run writes
	bin     string // the built cmd/semblock
	logf    func(format string, args ...any)
}

// scaled is base scaled to the run length, at least min.
func (e *runEnv) scaled(base, min int) int {
	n := int(math.Round(float64(base) * e.scale))
	if n < min {
		n = min
	}
	return n
}

// check is one verification of the program's output.
type check struct {
	Name   string
	OK     bool
	Detail string
}

// diag is a printed-only measurement: it explains a run (load-generator
// share of the CPU, server GC pauses, tail latencies that do not repeat) but
// is not part of the contract's metric lists.
type diag struct {
	Name  string
	Value float64
	Unit  string
}

// runResult is the outcome of one run of one workload.
type runResult struct {
	Workload  string
	Metrics   map[string]float64 // by catalogue name
	Diags     []diag
	Checks    []check
	Attempted int
	Failed    int
	// Exact are the deterministic outputs (pair digests, counts) that must
	// repeat bit for bit between two runs with one seed.
	Exact map[string]string
}

func newResult(name string) *runResult {
	return &runResult{Workload: name, Metrics: map[string]float64{}, Exact: map[string]string{}}
}

// verify records one verification; a failed one counts as a failed
// operation.
func (r *runResult) verify(name string, ok bool, format string, args ...any) {
	r.Checks = append(r.Checks, check{Name: name, OK: ok, Detail: fmt.Sprintf(format, args...)})
	r.Attempted++
	if !ok {
		r.Failed++
	}
}

func (r *runResult) diag(name string, v float64, unit string) {
	r.Diags = append(r.Diags, diag{name, v, unit})
}

// correct reports whether every operation and every verification passed.
func (r *runResult) correct() bool { return r.Failed == 0 }

// workload is one named set of inputs the benchmark runs: serve workloads
// size a child-server run, batch workloads an in-process one.
type workload struct {
	Name string
	Why  string // one line, as in BENCHMARK.json
	// Slots names what this workload's generic end-to-end slots measure.
	Slots map[string]string
	serve func(*runEnv) serveParams
	batch func(*runEnv) batchParams
}

// run measures the end-to-end metrics with tracing off.
func (w *workload) run(ctx context.Context, env *runEnv) (*runResult, error) {
	if w.serve != nil {
		return runServe(ctx, env, w.serve(env))
	}
	return runBatch(env, w.batch(env))
}

// input generates what the traced in-process pass replays.
func (w *workload) input(env *runEnv) (*ledgerInput, error) {
	if w.serve != nil {
		return serveInput(env, w.serve(env))
	}
	return batchInput(env, w.batch(env))
}

// What the persistence, cold-start and memory slots are on every serve
// workload, and the first two on every batch one.
const (
	checkpointSlot = "checkpoint_s: POST /checkpoint after the last ack, then POST /compact four times (each writes the whole log), median round trip"
	restoreSlot    = "restore_s: child exec -> GET collection 200 with matching records/pairs, median of three boots"
	childRSSSlot   = "child VmHWM after the traffic, before the verification resolve"
	inputFileSlot  = "writing a corpus as the job's JSONL input file, fsynced, median over files and set-ups"
	ownRSSSlot     = "the benchmark process's own VmHWM"
)

var workloads = []workload{
	{
		Name: "serve-firehose",
		Why:  "closed-loop bulk load in 1024-row POSTs at saturation: per-record costs dominate; the one that sizes checkpoint and cold restore",
		Slots: map[string]string{
			"records_per_s": "records acked per second, median over windows of 8 consecutive POSTs",
			"op_ms":         "ingest_ack_ms: POST /records (1,024 rows) round trip, closed loop",
			"result_ms":     "pair_delivery_ms: POST start of the batch holding a pair's higher-ID record -> its SSE frame read",
			"persist_s":     checkpointSlot,
			"cold_start_s":  restoreSlot,
			"peak_rss_mb":   childRSSSlot,
		},
		serve: firehoseParams,
	},
	{
		Name: "serve-paced",
		Why:  "open-loop 6,000 rec/s in 16-row POSTs, well below saturation, SSE consumer attached: per-request overhead dominates, signing does little",
		Slots: map[string]string{
			"records_per_s": "records acked / (last ack - first due): goodput at the offered 6,000 rec/s",
			"op_ms":         "ingest_ack_ms: batch due time -> POST /records 200",
			"result_ms":     "pair_delivery_ms: due time of the batch holding a pair's higher-ID record -> its SSE frame read",
			"persist_s":     checkpointSlot,
			"cold_start_s":  restoreSlot,
			"peak_rss_mb":   childRSSSlot,
		},
		serve: pacedParams,
	},
	{
		Name: "serve-resolve",
		Why:  "open-loop 2,000 rec/s ingest beside closed-loop /resolve on a preloaded collection: reads that copy and snapshot under the lock writes need",
		Slots: map[string]string{
			"records_per_s": "records acked / (last ack - first due): goodput at the offered 2,000 rec/s",
			"op_ms":         "ingest_ack_ms: batch due time -> POST /records 200, with resolves running beside",
			"result_ms":     "resolve_ms: POST /resolve round trip, closed loop (p90 of a score of samples: read it as the slow end)",
			"persist_s":     checkpointSlot,
			"cold_start_s":  restoreSlot,
			"peak_rss_mb":   childRSSSlot,
		},
		serve: resolveParams,
	},
	{
		Name: "batch-cora",
		Why:  "in-process Pipeline.Run in the paper's Cora setting (q=4 k=4 l=63): 252 minhash components per record, so signing dominates; PC/PQ/F1 guard it",
		Slots: map[string]string{
			"records_per_s": "records / median Pipeline.Run wall",
			"op_ms":         "blocking stage of one Pipeline.Run (Stats.BlockTime)",
			"result_ms":     "one whole Pipeline.Run: blocking, CBS/WEP pruning, matching, clustering",
			"persist_s":     inputFileSlot,
			"cold_start_s":  "reading an input file, building a fresh pipeline and its first Pipeline.Run, median of three",
			"peak_rss_mb":   ownRSSSlot,
		},
		batch: coraParams,
	},
	{
		Name: "batch-voter",
		Why:  "in-process Blocker.Block over voter records (q=2 k=9 l=15, w=12 OR): short keys, light duplication; table build, key fan-out and memory dominate",
		Slots: map[string]string{
			"records_per_s": "records / median (Blocker.Block + CandidatePairs) wall",
			"op_ms":         "one Blocker.Block",
			"result_ms":     "one Blocker.Block plus materialising its distinct candidate pairs",
			"persist_s":     inputFileSlot,
			"cold_start_s":  "reading the input file, building a fresh blocker and its first Block + pairs, median of three",
			"peak_rss_mb":   ownRSSSlot,
		},
		batch: voterParams,
	},
}

func workloadByName(name string) (*workload, error) {
	for i := range workloads {
		if workloads[i].Name == name {
			return &workloads[i], nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// repeatSetup runs setup n times, discarding all but the last product, and
// returns that product with every set-up's wall time in seconds. Set-up is
// repeated because one run has a single set-up to time, and a single timing
// of a second or two is at the mercy of whatever else the host is doing;
// the median of a few is what setup_s reports.
func repeatSetup[T any](n int, setup func() (T, error), discard func(T)) (T, []float64, error) {
	var (
		last  T
		times []float64
	)
	for i := 0; i < n; i++ {
		if i > 0 {
			discard(last)
		}
		t0 := time.Now()
		v, err := setup()
		if err != nil {
			var zero T
			return zero, nil, err
		}
		times = append(times, time.Since(t0).Seconds())
		last = v
	}
	return last, times, nil
}

// latencyStats fills a latency slot's p50 and p90 (and returns the sorted
// samples for the diagnostics) from durations.
func latencyStats(res *runResult, slot string, d []time.Duration) []float64 {
	v := make([]float64, len(d))
	for i, x := range d {
		v[i] = ms(x)
	}
	sort.Float64s(v)
	res.Metrics[slot+"_p50"] = percentile(v, 50)
	res.Metrics[slot+"_p90"] = percentile(v, 90)
	return v
}
