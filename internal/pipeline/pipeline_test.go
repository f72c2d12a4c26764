package pipeline

import (
	"fmt"
	"reflect"
	"sort"
	"testing"

	"semblock/internal/datagen"
	"semblock/internal/er"
	"semblock/internal/lsh"
	"semblock/internal/metablocking"
	"semblock/internal/record"
	"semblock/internal/semantic"
	"semblock/internal/stream"
	"semblock/internal/taxonomy"
)

// fixture builds a synthetic Cora dataset, its semhash schema, an SA-LSH
// blocker config and a title/authors matcher.
func fixture(t *testing.T, n int) (*record.Dataset, lsh.Config, *er.Matcher) {
	t.Helper()
	cfg := datagen.DefaultCoraConfig()
	cfg.Records = n
	d := datagen.Cora(cfg)
	fn, err := semantic.NewCoraFunction(taxonomy.Bibliographic())
	if err != nil {
		t.Fatal(err)
	}
	schema, err := semantic.BuildSchema(fn, d)
	if err != nil {
		t.Fatal(err)
	}
	bcfg := lsh.Config{
		Attrs: []string{"authors", "title"}, Q: 3, K: 3, L: 12, Seed: 7,
		Semantic: &lsh.SemanticOption{Schema: schema, W: 3, Mode: lsh.ModeOR},
	}
	m, err := er.NewMatcher([]er.AttrWeight{
		{Attr: "title", Weight: 0.6},
		{Attr: "authors", Weight: 0.4},
	}, 0.55)
	if err != nil {
		t.Fatal(err)
	}
	return d, bcfg, m
}

func canonical(blocks [][]record.ID) []string {
	out := make([]string, 0, len(blocks))
	for _, b := range blocks {
		ids := append([]record.ID(nil), b...)
		sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
		out = append(out, fmt.Sprint(ids))
	}
	sort.Strings(out)
	return out
}

func TestNewValidation(t *testing.T) {
	if _, err := New(nil); err == nil {
		t.Error("nil blocker accepted")
	}
	d, bcfg, _ := fixture(t, 50)
	_ = d
	b, err := lsh.New(bcfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := New(b, WithMatchSink(func(Match) {})); err == nil {
		t.Error("sink without matcher accepted")
	}
}

// TestRunMatchesResolve asserts the concurrent pipeline matcher classifies
// exactly like the serial er.Resolve reference over the same blocks.
func TestRunMatchesResolve(t *testing.T) {
	d, bcfg, m := fixture(t, 300)
	b, err := lsh.New(bcfg)
	if err != nil {
		t.Fatal(err)
	}
	p, err := New(b, WithMatcher(m), WithWorkers(4), WithBatchSize(32))
	if err != nil {
		t.Fatal(err)
	}
	res, err := p.Run(d)
	if err != nil {
		t.Fatal(err)
	}

	blocks, err := b.Block(d)
	if err != nil {
		t.Fatal(err)
	}
	want := er.Resolve(d, blocks, m)

	gotPairs := make([]record.Pair, len(res.Matches))
	for i, mt := range res.Matches {
		gotPairs[i] = mt.Pair
	}
	if !reflect.DeepEqual(gotPairs, want.MatchedPairs) {
		t.Fatalf("pipeline matched %d pairs, Resolve matched %d", len(gotPairs), len(want.MatchedPairs))
	}
	if res.Resolution.NumClusters != want.NumClusters {
		t.Fatalf("pipeline clusters %d, Resolve %d", res.Resolution.NumClusters, want.NumClusters)
	}
	if !reflect.DeepEqual(res.Resolution.Clusters, want.Clusters) {
		t.Fatal("cluster labelings differ")
	}
	if res.Stats.PairsScored != want.Compared {
		t.Fatalf("scored %d pairs, Resolve compared %d", res.Stats.PairsScored, want.Compared)
	}
	if res.Stats.Matches != len(res.Matches) || res.Stats.Blocks != blocks.NumBlocks() {
		t.Fatalf("stats inconsistent: %+v", res.Stats)
	}
	// Scores must agree with the matcher and sit at/above threshold.
	for _, mt := range res.Matches {
		s := m.Score(d.Record(mt.Pair.Left()), d.Record(mt.Pair.Right()))
		if s != mt.Score || s < m.Threshold() {
			t.Fatalf("match %v has score %v (recomputed %v, threshold %v)", mt.Pair, mt.Score, s, m.Threshold())
		}
	}
}

// TestRunDeterministicAcrossWorkers asserts worker count and batch size do
// not change the result: the plain run, pruning under every scheme with
// WEP and CNP, and a budgeted run each give the same pruned blocks,
// matches and resolution on 1, 2, 3 and 16 workers. The fixture is large
// enough for the graph walk to split into several chunks.
func TestRunDeterministicAcrossWorkers(t *testing.T) {
	d, bcfg, m := fixture(t, 1400)
	b, err := lsh.New(bcfg)
	if err != nil {
		t.Fatal(err)
	}
	configs := map[string][]Option{
		"plain":    nil,
		"budgeted": {WithBudget(300, 0)},
	}
	for _, scheme := range metablocking.Schemes() {
		for _, algo := range []metablocking.PruneAlgo{metablocking.WEP, metablocking.CNP} {
			configs[fmt.Sprintf("%s+%s", algo, scheme)] = []Option{WithPruning(scheme, algo)}
		}
	}
	for name, opts := range configs {
		var want *Result
		for _, workers := range []int{1, 2, 3, 16} {
			all := append([]Option{WithMatcher(m), WithWorkers(workers), WithBatchSize(workers * 7)}, opts...)
			p, err := New(b, all...)
			if err != nil {
				t.Fatal(err)
			}
			res, err := p.Run(d)
			if err != nil {
				t.Fatal(err)
			}
			if want == nil {
				if res.Stats.Comparisons < 1<<16 {
					t.Fatalf("only %d comparisons: too few to split the graph walk", res.Stats.Comparisons)
				}
				want = res
				continue
			}
			if res.Pruned != nil && !reflect.DeepEqual(res.Pruned.Blocks, want.Pruned.Blocks) {
				t.Fatalf("%s: workers=%d changed the pruned blocks: %d vs %d", name, workers, len(res.Pruned.Blocks), len(want.Pruned.Blocks))
			}
			if !reflect.DeepEqual(res.Matches, want.Matches) {
				t.Fatalf("%s: workers=%d changed matches: %d vs %d", name, workers, len(res.Matches), len(want.Matches))
			}
			if !reflect.DeepEqual(res.Resolution, want.Resolution) {
				t.Fatalf("%s: workers=%d changed the resolution", name, workers)
			}
		}
	}
}

// TestPruningStage checks the meta-blocking stage restructures the
// collection: the matcher consumes Pruned, and comparisons shrink.
func TestPruningStage(t *testing.T) {
	d, bcfg, m := fixture(t, 300)
	b, err := lsh.New(bcfg)
	if err != nil {
		t.Fatal(err)
	}
	p, err := New(b, WithPruning(metablocking.CBS, metablocking.WEP), WithMatcher(m))
	if err != nil {
		t.Fatal(err)
	}
	res, err := p.Run(d)
	if err != nil {
		t.Fatal(err)
	}
	if res.Pruned == nil || res.Final != res.Pruned {
		t.Fatal("pruning stage did not produce/route the pruned collection")
	}
	if res.Stats.PrunedComparisons >= res.Stats.Comparisons {
		t.Fatalf("pruning did not reduce comparisons: %d -> %d",
			res.Stats.Comparisons, res.Stats.PrunedComparisons)
	}
	if res.Stats.PairsScored != int64(res.Pruned.CandidatePairs().Len()) {
		t.Fatalf("matcher scored %d pairs, pruned collection has %d",
			res.Stats.PairsScored, res.Pruned.CandidatePairs().Len())
	}
	// Every match must come from the pruned candidate set.
	pruned := res.Pruned.CandidatePairs()
	for _, mt := range res.Matches {
		if !pruned.Has(mt.Pair.Left(), mt.Pair.Right()) {
			t.Fatalf("match %v outside pruned candidates", mt.Pair)
		}
	}
}

// TestRunStreamParity asserts streaming and batch pipeline runs agree:
// same final blocks, same matches, same clustering.
func TestRunStreamParity(t *testing.T) {
	d, bcfg, m := fixture(t, 300)
	b, err := lsh.New(bcfg)
	if err != nil {
		t.Fatal(err)
	}
	p, err := New(b, WithMatcher(m), WithWorkers(4), WithBatchSize(17))
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

	if g, w := canonical(got.Blocks.Blocks), canonical(want.Blocks.Blocks); !reflect.DeepEqual(g, w) {
		t.Fatalf("streaming blocks differ from batch: %d vs %d", len(g), len(w))
	}
	if !reflect.DeepEqual(got.Matches, want.Matches) {
		t.Fatalf("streaming matched %d pairs, batch %d", len(got.Matches), len(want.Matches))
	}
	if got.Resolution.NumClusters != want.Resolution.NumClusters {
		t.Fatalf("streaming clusters %d, batch %d", got.Resolution.NumClusters, want.Resolution.NumClusters)
	}
	if got.Stats.Records != d.Len() {
		t.Fatalf("streaming saw %d records, want %d", got.Stats.Records, d.Len())
	}
	// A used indexer must be rejected.
	if _, err := p.RunStream(ix, nil); err == nil {
		t.Fatal("RunStream accepted a non-fresh indexer")
	}
}

// TestRunStreamParityWithPruning asserts batch/stream parity holds with a
// pruning stage between blocking and matching: the streaming run filters
// its live-scored matches to the pruned collection, so Matches, Resolution
// and Final agree with the batch run's.
func TestRunStreamParityWithPruning(t *testing.T) {
	d, bcfg, m := fixture(t, 300)
	b, err := lsh.New(bcfg)
	if err != nil {
		t.Fatal(err)
	}
	p, err := New(b,
		WithPruning(metablocking.CBS, metablocking.WEP),
		WithMatcher(m), WithWorkers(4), WithBatchSize(23))
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
		t.Fatalf("streaming matched %d pairs, batch %d", len(got.Matches), len(want.Matches))
	}
	if got.Resolution.NumClusters != want.Resolution.NumClusters ||
		!reflect.DeepEqual(got.Resolution.Clusters, want.Resolution.Clusters) {
		t.Fatal("streaming clustering differs from batch under pruning")
	}
	if g, w := canonical(got.Final.Blocks), canonical(want.Final.Blocks); !reflect.DeepEqual(g, w) {
		t.Fatalf("pruned collections differ: %d vs %d blocks", len(g), len(w))
	}
	// Every surviving match must come from the pruned candidate set, and
	// the live-scored count may legitimately exceed the pruned comparisons.
	kept := got.Pruned.CandidatePairs()
	for _, mt := range got.Matches {
		if !kept.Has(mt.Pair.Left(), mt.Pair.Right()) {
			t.Fatalf("streaming match %v outside pruned candidates", mt.Pair)
		}
	}
	if got.Stats.PairsScored < int64(len(got.Matches)) {
		t.Fatalf("scored %d < %d matches", got.Stats.PairsScored, len(got.Matches))
	}
}

// TestRunStreamWithoutMatcher covers the matcher-less streaming pipeline
// (blocking + pruning only): it must drain the indexer's pending candidate
// queue as it goes and still produce the pruned result.
func TestRunStreamWithoutMatcher(t *testing.T) {
	d, bcfg, _ := fixture(t, 200)
	p, err := New(mustBlocker(t, bcfg), WithPruning(metablocking.CBS, metablocking.WEP), WithBatchSize(31))
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
	res, err := p.RunStream(ix, rows)
	if err != nil {
		t.Fatal(err)
	}
	if res.Matches != nil || res.Resolution != nil {
		t.Fatal("matching stage ran without a matcher")
	}
	if res.Pruned == nil || res.Final != res.Pruned {
		t.Fatal("pruning stage missing from matcher-less streaming run")
	}
	// The feed loop must have drained the pending queue (bounded memory).
	if pending := ix.Candidates(); pending != nil {
		t.Fatalf("indexer still holds %d undrained pending pairs", len(pending))
	}
}

func mustBlocker(t *testing.T, cfg lsh.Config) *lsh.Blocker {
	t.Helper()
	b, err := lsh.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestMatchSink checks the sink observes every match on the caller's
// goroutine in drain order: canonical pair order for an unbudgeted batch
// run, and for a stream each batch's matches in the indexer's emission
// order.
func TestMatchSink(t *testing.T) {
	d, bcfg, m := fixture(t, 200)
	b := mustBlocker(t, bcfg)
	var seen []record.Pair
	sink := WithMatchSink(func(mt Match) { seen = append(seen, mt.Pair) })
	p, err := New(b, WithMatcher(m), sink)
	if err != nil {
		t.Fatal(err)
	}
	res, err := p.Run(d)
	if err != nil {
		t.Fatal(err)
	}
	want := make([]record.Pair, len(res.Matches))
	for i, mt := range res.Matches {
		want[i] = mt.Pair
	}
	if !reflect.DeepEqual(seen, want) {
		t.Fatalf("batch sink saw %d matches out of drain order, result has %d", len(seen), len(want))
	}

	// Stream: an oracle indexer fed the same mini-batches emits the same
	// drain sequence; its pairs that matched are what the sink must see.
	const batch = 23
	seen = nil
	ps, err := New(b, WithMatcher(m), WithBatchSize(batch), sink)
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
	got, err := ps.RunStream(ix, rows)
	if err != nil {
		t.Fatal(err)
	}
	matched := make(map[record.Pair]bool)
	for _, mt := range got.Matches {
		matched[mt.Pair] = true
	}
	oracle, err := stream.NewIndexer(bcfg)
	if err != nil {
		t.Fatal(err)
	}
	want = want[:0]
	recs := d.Records()
	for lo := 0; lo < len(recs); lo += batch {
		var rs []stream.Row
		for _, r := range recs[lo:min(lo+batch, len(recs))] {
			rs = append(rs, stream.Row{Entity: r.Entity, Attrs: r.Attrs})
		}
		oracle.InsertBatch(rs)
		for _, pr := range oracle.Candidates() {
			if matched[pr] {
				want = append(want, pr)
			}
		}
	}
	if len(want) == 0 || !reflect.DeepEqual(seen, want) {
		t.Fatalf("stream sink saw %d matches, want %d in emission order", len(seen), len(want))
	}
}

// TestBlockingOnlyPipeline runs the degenerate single-stage pipeline.
func TestBlockingOnlyPipeline(t *testing.T) {
	d, bcfg, _ := fixture(t, 100)
	b, err := lsh.New(bcfg)
	if err != nil {
		t.Fatal(err)
	}
	p, err := New(b)
	if err != nil {
		t.Fatal(err)
	}
	res, err := p.Run(d)
	if err != nil {
		t.Fatal(err)
	}
	if res.Matches != nil || res.Resolution != nil || res.Pruned != nil {
		t.Fatal("stages ran without being configured")
	}
	if res.Final != res.Blocks || res.Stats.Blocks == 0 {
		t.Fatalf("blocking-only result inconsistent: %+v", res.Stats)
	}
}
