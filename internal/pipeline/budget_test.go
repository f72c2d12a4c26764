package pipeline

import (
	"context"
	"reflect"
	"testing"
	"time"

	"semblock/internal/metablocking"
	"semblock/internal/record"
	"semblock/internal/stream"
)

// TestBudgetParityUnlimited asserts the budgeted code path with an
// unlimited budget reproduces the exhaustive Run output exactly, across
// worker counts: same matches, same clustering, same stats, not truncated.
func TestBudgetParityUnlimited(t *testing.T) {
	d, bcfg, m := fixture(t, 300)
	b := mustBlocker(t, bcfg)
	exhaustive, err := New(b, WithPruning(metablocking.CBS, metablocking.WEP), WithMatcher(m))
	if err != nil {
		t.Fatal(err)
	}
	want, err := exhaustive.Run(d)
	if err != nil {
		t.Fatal(err)
	}
	if want.Stats.Truncated {
		t.Fatal("exhaustive run reports truncation")
	}
	if want.Stats.ComparisonsUsed != want.Stats.PairsScored {
		t.Fatalf("exhaustive ComparisonsUsed %d != PairsScored %d",
			want.Stats.ComparisonsUsed, want.Stats.PairsScored)
	}
	for _, workers := range []int{1, 4} {
		for _, budget := range []int64{0, 1 << 40} {
			p, err := New(b,
				WithPruning(metablocking.CBS, metablocking.WEP),
				WithMatcher(m), WithWorkers(workers),
				WithBudget(budget, 0))
			if err != nil {
				t.Fatal(err)
			}
			got, err := p.Run(d)
			if err != nil {
				t.Fatal(err)
			}
			if got.Stats.Truncated {
				t.Errorf("workers=%d budget=%d: unlimited budget reported truncation", workers, budget)
			}
			if !reflect.DeepEqual(got.Matches, want.Matches) {
				t.Errorf("workers=%d budget=%d: matches differ (%d vs %d)",
					workers, budget, len(got.Matches), len(want.Matches))
			}
			if !reflect.DeepEqual(got.Resolution.Clusters, want.Resolution.Clusters) {
				t.Errorf("workers=%d budget=%d: clustering differs", workers, budget)
			}
			if got.Stats.ComparisonsUsed != want.Stats.ComparisonsUsed {
				t.Errorf("workers=%d budget=%d: used %d comparisons, want %d",
					workers, budget, got.Stats.ComparisonsUsed, want.Stats.ComparisonsUsed)
			}
		}
	}
}

// TestBudgetTruncatesBestFirst asserts a partial comparison budget spends
// exactly that many comparisons, flags truncation, and admits only pairs
// from the exhaustive candidate set.
func TestBudgetTruncatesBestFirst(t *testing.T) {
	d, bcfg, m := fixture(t, 300)
	b := mustBlocker(t, bcfg)
	exhaustive, err := New(b, WithPruning(metablocking.CBS, metablocking.WEP), WithMatcher(m))
	if err != nil {
		t.Fatal(err)
	}
	full, err := exhaustive.Run(d)
	if err != nil {
		t.Fatal(err)
	}
	budget := full.Stats.PrunedComparisons / 4
	if budget == 0 {
		t.Fatal("fixture too small for a 25% budget")
	}
	p, err := New(b,
		WithPruning(metablocking.CBS, metablocking.WEP),
		WithMatcher(m), WithBudget(budget, 0))
	if err != nil {
		t.Fatal(err)
	}
	res, err := p.Run(d)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Stats.Truncated {
		t.Error("25% budget did not report truncation")
	}
	if res.Stats.ComparisonsUsed != budget {
		t.Errorf("used %d comparisons, budget %d", res.Stats.ComparisonsUsed, budget)
	}
	fullMatches := record.NewPairSet(len(full.Matches))
	for _, mt := range full.Matches {
		fullMatches.AddPair(mt.Pair)
	}
	for _, mt := range res.Matches {
		if !fullMatches.Has(mt.Pair.Left(), mt.Pair.Right()) {
			t.Errorf("budgeted match %v not in exhaustive match set", mt.Pair)
		}
	}
	if len(res.Matches) > len(full.Matches) {
		t.Errorf("budgeted run matched %d > exhaustive %d", len(res.Matches), len(full.Matches))
	}
}

// TestBudgetRecallMonotone is the recall-monotonicity property: the
// best-first drain makes each budget's scored set a prefix of the next
// larger budget's, so matched pairs — and hence recall against ground
// truth — never decrease as the budget grows.
func TestBudgetRecallMonotone(t *testing.T) {
	d, bcfg, m := fixture(t, 300)
	b := mustBlocker(t, bcfg)
	truth := record.NewPairSet(0)
	for _, pr := range d.TrueMatches() {
		truth.AddPair(pr)
	}
	prevMatched := record.NewPairSet(0)
	prevRecall := -1.0
	for _, pct := range []int64{10, 25, 50, 100} {
		p, err := New(b,
			WithPruning(metablocking.CBS, metablocking.WEP),
			WithMatcher(m), WithBudget(0, 0))
		if err != nil {
			t.Fatal(err)
		}
		full, err := p.Run(d)
		if err != nil {
			t.Fatal(err)
		}
		budget := full.Stats.PrunedComparisons * pct / 100
		p, err = New(b,
			WithPruning(metablocking.CBS, metablocking.WEP),
			WithMatcher(m), WithBudget(budget, 0))
		if err != nil {
			t.Fatal(err)
		}
		res, err := p.Run(d)
		if err != nil {
			t.Fatal(err)
		}
		matched := record.NewPairSet(len(res.Matches))
		tp := 0
		for _, mt := range res.Matches {
			matched.AddPair(mt.Pair)
			if truth.Has(mt.Pair.Left(), mt.Pair.Right()) {
				tp++
			}
		}
		recall := float64(tp) / float64(truth.Len())
		if recall < prevRecall {
			t.Errorf("budget %d%%: recall %v < previous %v", pct, recall, prevRecall)
		}
		// Nesting: every previously matched pair stays matched.
		for pr := range prevMatched {
			if !matched.Has(pr.Left(), pr.Right()) {
				t.Errorf("budget %d%%: pair %v matched at smaller budget vanished", pct, pr)
			}
		}
		prevMatched, prevRecall = matched, recall
	}
	if prevRecall <= 0 {
		t.Fatal("fixture produced no recall at full budget")
	}
}

// TestBudgetDeadline asserts a duration budget and a cancelled context both
// yield a well-formed truncated result, never an error.
func TestBudgetDeadline(t *testing.T) {
	d, bcfg, m := fixture(t, 300)
	b := mustBlocker(t, bcfg)
	p, err := New(b, WithMatcher(m), WithBudget(0, time.Nanosecond))
	if err != nil {
		t.Fatal(err)
	}
	res, err := p.Run(d)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Stats.Truncated {
		t.Error("nanosecond duration budget did not truncate")
	}
	if res.Resolution == nil || res.Stats.ComparisonsUsed >= res.Stats.PrunedComparisons {
		t.Errorf("deadline result malformed: used %d of %d, resolution=%v",
			res.Stats.ComparisonsUsed, res.Stats.PrunedComparisons, res.Resolution != nil)
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	p2, err := New(b, WithMatcher(m), WithBudget(1<<40, 0))
	if err != nil {
		t.Fatal(err)
	}
	res2, err := p2.RunContext(ctx, d)
	if err != nil {
		t.Fatal(err)
	}
	if !res2.Stats.Truncated || res2.Stats.ComparisonsUsed != 0 {
		t.Errorf("cancelled context: truncated=%v used=%d, want true/0",
			res2.Stats.Truncated, res2.Stats.ComparisonsUsed)
	}
	if res2.Resolution == nil || len(res2.Matches) != 0 {
		t.Error("cancelled context result malformed")
	}

	// Wherever a deadline cuts the drain, the kept matches are exactly the
	// unbudgeted run's matches among the first ComparisonsUsed pairs of the
	// ranked (CBS, best-first) drain. The deadlines spread over a whole
	// budgeted run's wall time, so some of them fall inside the drain.
	full, err := New(b, WithMatcher(m))
	if err != nil {
		t.Fatal(err)
	}
	want, err := full.Run(d)
	if err != nil {
		t.Fatal(err)
	}
	g := metablocking.BuildGraph(want.Blocks, metablocking.CBS)
	ranked := g.RankPairs(g.Pairs(), 0)
	probe, err := New(b, WithMatcher(m), WithWorkers(4), WithBatchSize(16), WithBudget(0, time.Hour))
	if err != nil {
		t.Fatal(err)
	}
	t0 := time.Now()
	if _, err := probe.Run(d); err != nil {
		t.Fatal(err)
	}
	wall := time.Since(t0)
	deadlines := []time.Duration{time.Nanosecond}
	for i := 1; i <= 12; i++ {
		deadlines = append(deadlines, wall*time.Duration(i)/10)
	}
	truncated := 0
	for _, deadline := range deadlines {
		p, err := New(b, WithMatcher(m), WithWorkers(4), WithBatchSize(16), WithBudget(0, deadline))
		if err != nil {
			t.Fatal(err)
		}
		got, err := p.Run(d)
		if err != nil {
			t.Fatal(err)
		}
		if !got.Stats.Truncated {
			continue
		}
		truncated++
		t.Logf("deadline %v: kept %d of %d ranked pairs", deadline, got.Stats.ComparisonsUsed, len(ranked))
		kept := make(map[record.Pair]bool)
		for _, wp := range ranked[:got.Stats.ComparisonsUsed] {
			kept[wp.Pair] = true
		}
		var wantMatches []Match
		for _, mt := range want.Matches {
			if kept[mt.Pair] {
				wantMatches = append(wantMatches, mt)
			}
		}
		if !reflect.DeepEqual(got.Matches, wantMatches) {
			t.Errorf("deadline %v: %d matches over the first %d ranked pairs, want %d",
				deadline, len(got.Matches), got.Stats.ComparisonsUsed, len(wantMatches))
		}
	}
	if truncated == 0 {
		t.Error("no deadline truncated the drain")
	}
}

// TestBudgetStreamParity asserts a budgeted streaming run equals the
// budgeted batch run: the stream skips live scoring and drains the same
// final collection best-first under the same weights.
func TestBudgetStreamParity(t *testing.T) {
	d, bcfg, m := fixture(t, 300)
	b := mustBlocker(t, bcfg)
	for _, pct := range []int64{25, 100} {
		probe, err := New(b, WithPruning(metablocking.CBS, metablocking.WEP), WithMatcher(m))
		if err != nil {
			t.Fatal(err)
		}
		full, err := probe.Run(d)
		if err != nil {
			t.Fatal(err)
		}
		budget := full.Stats.PrunedComparisons * pct / 100
		p, err := New(b,
			WithPruning(metablocking.CBS, metablocking.WEP),
			WithMatcher(m), WithWorkers(4), WithBatchSize(23),
			WithBudget(budget, 0))
		if err != nil {
			t.Fatal(err)
		}
		want, err := p.Run(d)
		if err != nil {
			t.Fatal(err)
		}

		ix, err := stream.NewIndexer(bcfg)
		if err != nil {
			t.Fatal(err)
		}
		rows := make(chan stream.Row)
		go func() {
			defer close(rows)
			for _, r := range d.Records() {
				rows <- stream.Row{Entity: r.Entity, Attrs: r.Attrs}
			}
		}()
		got, err := p.RunStream(ix, rows)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got.Matches, want.Matches) {
			t.Errorf("pct=%d: stream matched %d pairs, batch %d", pct, len(got.Matches), len(want.Matches))
		}
		if got.Stats.ComparisonsUsed != want.Stats.ComparisonsUsed {
			t.Errorf("pct=%d: stream used %d, batch %d", pct, got.Stats.ComparisonsUsed, want.Stats.ComparisonsUsed)
		}
		if got.Stats.Truncated != want.Stats.Truncated {
			t.Errorf("pct=%d: truncated stream=%v batch=%v", pct, got.Stats.Truncated, want.Stats.Truncated)
		}
	}
}
