package main

import (
	"fmt"
	"os"
	"runtime"
	"strconv"
	"time"
)

// batchParams sizes one in-process batch workload.
type batchParams struct {
	workload string
	kind     string // corpus generator
	spec     collectionSpec
	resolve  resolveSpec
	records  int // per corpus
	// corpora is how many independently generated corpora the timed
	// iterations cycle through. Pairwise quality on the Cora-like generator
	// is decided by a handful of giant clusters, so PQ of one 10,000-record
	// corpus moves by a quarter from seed to seed, and the run time with it;
	// the median over many corpora does not.
	corpora  int
	iters    int  // timed iterations after the cold ones
	pipeline bool // Pipeline.Run; otherwise Blocker.Block + candidate pairs
}

func coraParams(env *runEnv) batchParams {
	iters := env.scaled(16, 4)
	return batchParams{workload: "batch-cora", kind: "cora", spec: paperCoraSpec, resolve: coraResolve,
		records: env.scaled(10_000, 200), corpora: iters / 2, iters: iters, pipeline: true}
}

func voterParams(env *runEnv) batchParams {
	return batchParams{workload: "batch-voter", kind: "voter", spec: paperVoterSpec, resolve: voterResolve,
		records: env.scaled(60_000, 600), corpora: 1, iters: env.scaled(12, 3)}
}

// corpusSeed derives the seed of a batch workload's c-th corpus.
func corpusSeed(seed int64, c int) int64 { return seed*1000 + int64(c) }

// batchState is a set-up batch workload: every corpus generated and written
// as a job input file.
type batchState struct {
	paths  []string
	writes []float64 // wall of writing and syncing each input file, seconds
}

func (s *batchState) discard() {
	for _, p := range s.paths {
		os.Remove(p)
	}
}

func batchSetup(env *runEnv, p batchParams) (s *batchState, err error) {
	s = &batchState{}
	defer func() {
		if err != nil {
			s.discard()
		}
	}()
	for c := 0; c < p.corpora; c++ {
		rows, err := genCorpus(p.kind, p.records, corpusSeed(env.seed, c))
		if err != nil {
			return nil, err
		}
		f, err := os.CreateTemp(env.out, p.workload+"-*.jsonl")
		if err != nil {
			return nil, err
		}
		s.paths = append(s.paths, f.Name())
		if err := f.Close(); err != nil {
			return nil, err
		}
		t := time.Now()
		if _, err := writeJSONL(f.Name(), rows); err != nil {
			return nil, err
		}
		s.writes = append(s.writes, time.Since(t).Seconds())
	}
	return s, nil
}

// runBatch runs one batch workload in this process: repeated set-up, cold
// starts from the input files, then the timed iterations, then quality.
func runBatch(env *runEnv, p batchParams) (*runResult, error) {
	res := newResult(p.workload)
	// Reset the kernel's peak-RSS watermark so peak_rss_mb is this
	// workload's, not an earlier one's in an all-workloads run. Best effort:
	// the file is absent on old kernels, and a single-workload run (how the
	// metric is compared) starts from a fresh process anyway.
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
	var writes []float64
	s, setups, err := repeatSetup(env.repeats,
		func() (*batchState, error) {
			s, err := batchSetup(env, p)
			if err == nil {
				writes = append(writes, s.writes...)
			}
			return s, err
		},
		(*batchState).discard)
	if err != nil {
		return nil, err
	}
	defer s.discard()
	res.Metrics["setup_s"] = median(setups)
	res.Metrics["persist_s"] = median(writes)

	iterate := func(j *batchJob) (op, result time.Duration, err error) {
		t := time.Now()
		if p.pipeline {
			op, err = j.runPipeline()
		} else {
			err = j.runBlock()
			op = time.Since(t)
			if err == nil {
				j.pairs()
			}
		}
		return op, time.Since(t), err
	}

	// Cold start, repeated: a fresh job from an input file and its first
	// run. A cold-started job stays for the timed iterations over its
	// corpus; the other corpora are loaded, untimed, when their turn comes,
	// and every job is dropped after its last run so the process never holds
	// more than a few corpora and their results.
	jobs := make([]*batchJob, p.corpora)
	shapes := make([]string, p.corpora)
	var colds []float64
	for i := 0; i < env.repeats; i++ {
		c := i % p.corpora
		jobs[c] = nil
		runtime.GC()
		t := time.Now()
		if jobs[c], err = loadBatchJob(p.spec, p.resolve, s.paths[c]); err != nil {
			return nil, err
		}
		if _, _, err := iterate(jobs[c]); err != nil {
			return nil, err
		}
		colds = append(colds, time.Since(t).Seconds())
		shapes[c] = jobs[c].shape()
		res.Attempted++
	}
	res.Metrics["cold_start_s"] = median(colds)

	var (
		ops, results []time.Duration
		pc, pq, f1   []float64 // per corpus; the metrics are their medians
		pairs        pairSum
		records      int
		unstable     int
	)
	for i := 0; i < p.iters; i++ {
		c := i % p.corpora
		if jobs[c] == nil {
			if jobs[c], err = loadBatchJob(p.spec, p.resolve, s.paths[c]); err != nil {
				return nil, err
			}
		}
		// Collect between iterations, untimed, so one iteration's garbage
		// is not charged to whichever later one the collector lands in.
		runtime.GC()
		op, result, err := iterate(jobs[c])
		if err != nil {
			return nil, err
		}
		res.Attempted++
		ops = append(ops, op)
		results = append(results, result)
		if shape := jobs[c].shape(); shapes[c] == "" {
			shapes[c] = shape
		} else if shapes[c] != shape {
			unstable++
		}
		if i+p.corpora < p.iters {
			continue // this corpus runs again
		}
		q, err := jobs[c].quality()
		if err != nil {
			return nil, err
		}
		jobs[c] = nil
		pc, pq, f1 = append(pc, q.PC), append(pq, q.PQ), append(f1, q.F1)
		pairs.N, pairs.Sum, pairs.Xor = pairs.N+q.Pairs.N, pairs.Sum+q.Pairs.Sum, pairs.Xor^q.Pairs.Xor
		records += q.Records
	}
	res.verify("runs over one corpus agree", unstable == 0,
		"%d of %d runs differed from an earlier run over their corpus (first corpus: %s)", unstable, len(colds)+p.iters, shapes[0])
	latencyStats(res, "op_ms", ops)
	sorted := latencyStats(res, "result_ms", results)
	res.Metrics["records_per_s"] = float64(p.records) / (percentile(sorted, 50) / 1000)

	res.verify("records read back", records == p.records*p.corpora, "jobs read %d of %d records", records, p.records*p.corpora)
	res.Metrics["pc"], res.Metrics["pq"], res.Metrics["f1"] = median(pc), median(pq), median(f1)
	rss, err := vmHWM(os.Getpid())
	if err != nil {
		return nil, err
	}
	res.Metrics["peak_rss_mb"] = rss
	res.Exact["pairs"] = pairs.String()
	res.Exact["records"] = strconv.Itoa(records)
	res.Exact["shape"] = fmt.Sprint(shapes)
	return res, nil
}

// batchInput is the generated input of a batch workload as the traced pass
// replays it — its first corpus; the serving-layer spans cut it into
// 1,024-row batches.
func batchInput(env *runEnv, p batchParams) (*ledgerInput, error) {
	n := p.records
	if limit := env.scaled(ledgerRows, 200); n > limit {
		n = limit
	}
	rows, err := genCorpus(p.kind, n, corpusSeed(env.seed, 0))
	if err != nil {
		return nil, err
	}
	bodies, err := encodeBodies(rows, preloadBatch)
	if err != nil {
		return nil, err
	}
	return &ledgerInput{workload: p.workload, spec: p.spec, resolve: p.resolve,
		rows: rows, bodies: bodies, batch: preloadBatch, dir: env.out}, nil
}
