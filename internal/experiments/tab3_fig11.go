package experiments

import (
	"fmt"
	"sync"
	"time"

	"semblock/internal/baselines"
	"semblock/internal/engine"
	"semblock/internal/eval"
	"semblock/internal/lsh"
)

func init() {
	register("tab3", runTable3)
	register("fig11", runFig11)
}

// techResult is the best-FM outcome of one technique's parameter sweep.
type techResult struct {
	technique string
	settings  int
	failed    int
	params    string
	buildTime time.Duration
	metrics   eval.Metrics
}

// sweepCache memoises grid sweeps per dataset so tab3 and fig11 share work
// when run back to back.
var (
	sweepMu    sync.Mutex
	sweepCache = map[string][]techResult{}
)

// sweepGrid runs every parameter setting of every baseline technique on
// the domain's dataset, each technique's settings as engine.ParallelTasks
// tasks, and keeps, per technique, the first setting in grid order with
// the best FM. Settings that fail to produce any block are counted as
// failed (the paper observed exactly this for two StMT settings on NC
// Voter) rather than aborting the sweep.
func sweepGrid(dom *domain, seed int64) ([]techResult, error) {
	key := fmt.Sprintf("%s/%d/%d", dom.data.Name, dom.data.Len(), seed)
	sweepMu.Lock()
	if cached, ok := sweepCache[key]; ok {
		sweepMu.Unlock()
		return cached, nil
	}
	sweepMu.Unlock()

	truth := eval.TruthSet(dom.data)
	grid := baselines.ParameterGrid(dom.keySpec(), seed)
	var out []techResult
	for _, tech := range baselines.TechniqueOrder() {
		settings := grid[tech]
		tr := techResult{technique: tech, settings: len(settings)}
		// One task per setting, each filling its own slot (FM -1: the
		// setting produced no block); the pick then runs in grid order.
		ms := make([]eval.Metrics, len(settings))
		errs := make([]error, len(settings))
		engine.ParallelTasks(len(settings), engine.Workers(0), func(_, i int) {
			res, err := settings[i].Blocker.Block(dom.data)
			if errs[i] = err; err == nil {
				ms[i] = eval.Metrics{FM: -1}
				if res.NumBlocks() > 0 {
					ms[i] = eval.EvaluateWithTruth(res, dom.data, truth)
				}
			}
		})
		best, chosen := eval.Metrics{FM: -1}, -1
		for i, m := range ms {
			if errs[i] != nil {
				return nil, fmt.Errorf("%s (%s): %w", tech, settings[i].Params, errs[i])
			}
			if m.FM < 0 {
				tr.failed++
			} else if m.FM > best.FM {
				best, chosen = m, i
			}
		}
		if chosen < 0 {
			best = eval.Metrics{}
			tr.params = "(no setting produced blocks)"
		} else {
			// Re-time the chosen setting on its own, so the time column
			// measures one uncontended build, not one beside the sweep.
			tr.params = settings[chosen].Params
			start := time.Now()
			if _, err := settings[chosen].Blocker.Block(dom.data); err != nil {
				return nil, err
			}
			tr.buildTime = time.Since(start)
		}
		tr.metrics = best
		out = append(out, tr)
	}

	// LSH and SA-LSH rows: single published setting each; the timing
	// includes semantic-function and schema construction for SA-LSH, as
	// the paper specifies.
	plain, err := dom.lshBlocker(dom.k, dom.l, seed)
	if err != nil {
		return nil, err
	}
	start := time.Now()
	resPlain, err := plain.Block(dom.data)
	if err != nil {
		return nil, err
	}
	plainTime := time.Since(start)
	out = append(out, techResult{
		technique: "LSH", settings: 1,
		params:    fmt.Sprintf("k=%d l=%d q=%d", dom.k, dom.l, dom.q),
		buildTime: plainTime,
		metrics:   eval.EvaluateWithTruth(resPlain, dom.data, truth),
	})

	sa, err := dom.saBlocker(dom.k, dom.l, dom.wOR, lsh.ModeOR, seed)
	if err != nil {
		return nil, err
	}
	start = time.Now()
	resSA, err := sa.Block(dom.data)
	if err != nil {
		return nil, err
	}
	saTime := time.Since(start)
	out = append(out, techResult{
		technique: "SA-LSH", settings: 1,
		params:    fmt.Sprintf("k=%d l=%d q=%d w=%d or", dom.k, dom.l, dom.q, dom.wOR),
		buildTime: saTime,
		metrics:   eval.EvaluateWithTruth(resSA, dom.data, truth),
	})

	sweepMu.Lock()
	sweepCache[key] = out
	sweepMu.Unlock()
	return out, nil
}

// runTable3 regenerates Table 3: per technique, the number of parameter
// settings, the blocking time of the best-FM setting and its candidate-
// pair count, over the voter subset the paper's efficiency experiment uses
// (3,000 records by default).
func runTable3(cfg Config) (*Result, error) {
	dom, err := voterDomain(cfg, cfg.TimingRecords)
	if err != nil {
		return nil, err
	}
	results, err := sweepGrid(dom, cfg.Seed)
	if err != nil {
		return nil, err
	}
	t := &Table{Title: fmt.Sprintf("Table 3 — techniques, settings, best-FM build time and candidate pairs (NC Voter, %d records)", dom.data.Len())}
	t.Header = []string{"technique", "settings", "failed", "time (s)", "cand. pairs", "best params"}
	for _, r := range results {
		t.AddRow(r.technique,
			itoa(r.settings), itoa(r.failed),
			fmt.Sprintf("%.4f", r.buildTime.Seconds()),
			itoa64(r.metrics.CandidatePairs),
			r.params)
	}
	return &Result{Tables: []*Table{t}}, nil
}

// runFig11 regenerates Fig. 11: FM, PQ, PC and RR of all 14 techniques
// (best-FM setting per technique) over both datasets.
func runFig11(cfg Config) (*Result, error) {
	var tables []*Table
	domains := []struct {
		build func() (*domain, error)
		label string
	}{
		{func() (*domain, error) { return coraDomain(cfg) }, "Cora"},
		{func() (*domain, error) { return voterDomain(cfg, cfg.VoterRecords) }, "NC Voter"},
	}
	for _, dd := range domains {
		dom, err := dd.build()
		if err != nil {
			return nil, err
		}
		results, err := sweepGrid(dom, cfg.Seed)
		if err != nil {
			return nil, err
		}
		t := &Table{Title: fmt.Sprintf("Fig. 11 — best-FM comparison over %s (%d records)", dd.label, dom.data.Len())}
		t.Header = []string{"technique", "FM", "PQ", "PC", "RR", "best params"}
		for _, r := range results {
			t.AddRow(r.technique, f4(r.metrics.FM), f4(r.metrics.PQ), f4(r.metrics.PC), f4(r.metrics.RR), r.params)
		}
		tables = append(tables, t)
	}
	return &Result{Tables: tables}, nil
}

// bestBy returns the technique result with the highest value of the given
// metric accessor — a helper for tests asserting "SA-LSH has the best FM".
func bestBy(results []techResult, metric func(eval.Metrics) float64) techResult {
	best := results[0]
	for _, r := range results[1:] {
		if metric(r.metrics) > metric(best.metrics) {
			best = r
		}
	}
	return best
}

// resetSweepCache clears memoised sweeps (tests use it to re-run with
// fresh datasets).
func resetSweepCache() {
	sweepMu.Lock()
	sweepCache = map[string][]techResult{}
	sweepMu.Unlock()
}
