package server

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"sort"
	"testing"

	"semblock/internal/datagen"
	"semblock/internal/er"
	"semblock/internal/lsh"
	"semblock/internal/pipeline"
	"semblock/internal/record"
	"semblock/internal/stream"
)

// coraFixture generates a deterministic Cora-like dataset plus its rows.
func coraFixture(t testing.TB, n int) (*record.Dataset, []stream.Row) {
	t.Helper()
	cfg := datagen.DefaultCoraConfig()
	cfg.Records = n
	d := datagen.Cora(cfg)
	rows := make([]stream.Row, 0, d.Len())
	for _, r := range d.Records() {
		rows = append(rows, stream.Row{Entity: r.Entity, Attrs: r.Attrs})
	}
	return d, rows
}

// baseSpec returns a small SA-LSH collection spec used across the tests.
func baseSpec(name string, shards int) CollectionSpec {
	return CollectionSpec{
		Name: name, Attrs: []string{"authors", "title"},
		Q: 3, K: 3, L: 12, Seed: 7, Shards: shards,
		Semantic: &SemanticSpec{Domain: "cora", W: 3, Mode: "or"},
	}
}

// canonical renders a block set order-independently for comparison.
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

func sameCanonical(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// ingestInBatches feeds the rows in uneven mini-batches, draining after
// each, and returns the deduplicated union of all drains.
func ingestInBatches(t *testing.T, c *Collection, rows []stream.Row) record.PairSet {
	t.Helper()
	drained := record.NewPairSet(0)
	for lo, step := 0, 1; lo < len(rows); lo, step = lo+step, step*2+1 {
		hi := lo + step
		if hi > len(rows) {
			hi = len(rows)
		}
		ids, err := c.Ingest(rows[lo:hi])
		if err != nil {
			t.Fatal(err)
		}
		if len(ids) != hi-lo || ids[0] != record.ID(lo) {
			t.Fatalf("batch [%d:%d) assigned ids %v", lo, hi, ids)
		}
		for _, p := range c.Candidates() {
			drained.AddPair(p)
		}
	}
	return drained
}

// TestCollectionShardParity is the acceptance-criterion test: for every
// shard count, the collection's merged candidate set and snapshot equal the
// unsharded batch Block run over the same records.
func TestCollectionShardParity(t *testing.T) {
	d, rows := coraFixture(t, 300)
	cfg, err := baseSpec("parity", 1).buildConfig()
	if err != nil {
		t.Fatal(err)
	}
	blocker, err := lsh.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	want, err := blocker.Block(d)
	if err != nil {
		t.Fatal(err)
	}
	wantPairs := want.CandidatePairs()
	wantBlocks := canonical(want.Blocks)

	for _, shards := range []int{1, 2, 4, 8} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			c, err := newCollection(baseSpec("parity", shards))
			if err != nil {
				t.Fatal(err)
			}
			drained := ingestInBatches(t, c, rows)
			if drained.Len() != wantPairs.Len() || drained.Intersect(wantPairs) != wantPairs.Len() {
				t.Fatalf("drained %d pairs, batch Block has %d (overlap %d)",
					drained.Len(), wantPairs.Len(), drained.Intersect(wantPairs))
			}
			if c.PairCount() != wantPairs.Len() {
				t.Errorf("PairCount %d, want %d", c.PairCount(), wantPairs.Len())
			}
			snap := c.Snapshot()
			if got := canonical(snap.Blocks); !sameCanonical(got, wantBlocks) {
				t.Fatalf("snapshot blocks differ from batch: %d vs %d", len(got), len(wantBlocks))
			}
			snapPairs := snap.CandidatePairs()
			if snapPairs.Len() != wantPairs.Len() || snapPairs.Intersect(wantPairs) != wantPairs.Len() {
				t.Fatalf("snapshot pairs differ from batch: %d vs %d", snapPairs.Len(), wantPairs.Len())
			}
		})
	}
}

// retainedBytes reports the heap growth of building fn's return value:
// heap-allocated bytes after a full GC, minus the baseline before. The
// returned value keeps the built object alive until measured.
func retainedBytes(t *testing.T, fn func() *Collection) uint64 {
	t.Helper()
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	c := fn()
	runtime.GC()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(c)
	if after.HeapAlloc < before.HeapAlloc {
		return 0
	}
	return after.HeapAlloc - before.HeapAlloc
}

// TestSharedLogMemory asserts the shared-record-log guarantee in bytes: the
// retained heap of an 8-shard collection stays close to the 1-shard one
// over the same records, because the record log and per-record staging are
// stored/computed once per collection, not once per shard, and the hash
// tables are partitioned (l tables total, any shard count). Before the
// shared log, each shard kept its own copy of the record log and its own
// pair ledger — an (N+1)× duplication this test would catch coming back.
func TestSharedLogMemory(t *testing.T) {
	_, rows := coraFixture(t, 1500)
	build := func(shards int) func() *Collection {
		return func() *Collection {
			c, err := newCollection(baseSpec("mem", shards))
			if err != nil {
				t.Fatal(err)
			}
			if _, err := c.Ingest(rows); err != nil {
				t.Fatal(err)
			}
			return c
		}
	}
	one := retainedBytes(t, build(1))
	eight := retainedBytes(t, build(8))
	if one == 0 {
		t.Fatal("1-shard collection retained no measurable heap")
	}
	// Allow slack for per-shard fixed overhead and GC measurement noise;
	// the pre-shared-log duplication showed up as a multiple, not a few
	// percent.
	if float64(eight) > 2.0*float64(one) {
		t.Fatalf("8-shard collection retains %d bytes, 1-shard %d — record log duplication is back", eight, one)
	}
	t.Logf("retained heap: shards=1 %dB, shards=8 %dB", one, eight)
}

// TestCollectionFailedDeliveryRedelivers checks that a failed delivery
// leaves the cursor unmoved: the next drain redelivers the same pairs, in
// the same order, ahead of any newly discovered ones, with nothing lost.
func TestCollectionFailedDeliveryRedelivers(t *testing.T) {
	_, rows := coraFixture(t, 120)
	c, err := newCollection(baseSpec("redeliver", 2))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Ingest(rows[:60]); err != nil {
		t.Fatal(err)
	}
	var first []record.Pair
	failed := errors.New("delivery failed")
	_, err = c.DrainConsumer(DefaultConsumer, func(b ConsumerBatch) error {
		first = append([]record.Pair(nil), b.Pairs...)
		return failed
	})
	if !errors.Is(err, failed) {
		t.Fatalf("failing drain returned %v, want the delivery error", err)
	}
	if len(first) == 0 {
		t.Fatal("no pairs handed to the failing delivery")
	}
	if got := c.Stats().DrainedPairs; got != 0 {
		t.Fatalf("failed delivery advanced the cursor to %d", got)
	}
	if _, err := c.Ingest(rows[60:]); err != nil {
		t.Fatal(err)
	}
	second := c.Candidates()
	if len(second) < len(first) {
		t.Fatalf("drain after the failure returned %d pairs, undelivered window had %d", len(second), len(first))
	}
	for i, p := range first {
		if second[i] != p {
			t.Fatalf("redelivered pair %d is %v, want %v (the unacknowledged window must come back first, in order)", i, second[i], p)
		}
	}
	if c.PairCount() != len(second) {
		t.Errorf("PairCount %d, drained %d distinct", c.PairCount(), len(second))
	}
}

// TestDrainCandidatesBusy checks a concurrent fallible drain fails fast
// with ErrDrainBusy instead of queueing behind a slow delivery.
func TestDrainCandidatesBusy(t *testing.T) {
	_, rows := coraFixture(t, 80)
	c, err := newCollection(baseSpec("busy", 2))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Ingest(rows); err != nil {
		t.Fatal(err)
	}
	inDeliver := make(chan struct{})
	release := make(chan struct{})
	done := make(chan error, 1)
	go func() {
		_, err := c.DrainConsumer(DefaultConsumer, func(ConsumerBatch) error {
			close(inDeliver)
			<-release
			return nil
		})
		done <- err
	}()
	<-inDeliver
	if _, err := c.DrainConsumer(DefaultConsumer, func(ConsumerBatch) error { return nil }); !errors.Is(err, ErrDrainBusy) {
		t.Errorf("concurrent drain returned %v, want ErrDrainBusy", err)
	}
	close(release)
	if err := <-done; err != nil {
		t.Fatalf("blocked drain failed: %v", err)
	}
	if got := c.Stats().DrainedPairs; got != c.PairCount() {
		t.Errorf("after the delivery settled, DrainedPairs %d != Pairs %d", got, c.PairCount())
	}
}

// TestCollectionResolve checks the resolve pipeline equals the reference
// resolver over the same snapshot.
func TestCollectionResolve(t *testing.T) {
	d, rows := coraFixture(t, 200)
	c, err := newCollection(baseSpec("resolve", 2))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Ingest(rows); err != nil {
		t.Fatal(err)
	}
	req := ResolveRequest{
		Match:     []MatchAttr{{Attr: "title", Weight: 0.6}, {Attr: "authors", Weight: 0.4}},
		Threshold: 0.55,
	}
	res, err := c.ResolveContext(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	matcher, err := er.NewMatcher([]er.AttrWeight{
		{Attr: "title", Weight: 0.6}, {Attr: "authors", Weight: 0.4},
	}, 0.55)
	if err != nil {
		t.Fatal(err)
	}
	want := er.Resolve(d, c.Snapshot(), matcher)
	if len(res.Matches) != len(want.MatchedPairs) {
		t.Fatalf("resolve found %d matches, reference resolver %d", len(res.Matches), len(want.MatchedPairs))
	}
	if res.Resolution.NumClusters != want.NumClusters {
		t.Errorf("resolve clustered into %d, reference %d", res.Resolution.NumClusters, want.NumClusters)
	}

	// A pruning stage must run and can only shrink the scored pair count.
	pruned, err := c.ResolveContext(context.Background(), ResolveRequest{
		Match:     req.Match,
		Threshold: req.Threshold,
		Pruning:   &PruneSpec{Scheme: "CBS", Algo: "WEP"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if pruned.Stats.PrunedComparisons > pruned.Stats.Comparisons {
		t.Errorf("pruning grew comparisons: %d > %d",
			pruned.Stats.PrunedComparisons, pruned.Stats.Comparisons)
	}
	if pruned.Pruned == nil {
		t.Error("pruning stage produced no collection")
	}
}

// TestDatasetIsPrefixView pins the read path's zero-copy contract: Dataset
// is a length-capped view of the append-only log, not a copy — stable while
// ingest continues, sharing the log's records, unable to write into the
// log's backing array — and a ResolveContext racing ingest equals a batch
// pipeline run over exactly the prefix it viewed.
func TestDatasetIsPrefixView(t *testing.T) {
	d, rows := coraFixture(t, 400)
	spec := baseSpec("view", 2)
	c, err := newCollection(spec)
	if err != nil {
		t.Fatal(err)
	}
	const n = 200
	if _, err := c.Ingest(rows[:n]); err != nil {
		t.Fatal(err)
	}
	view := c.Dataset()

	ingested := make(chan error, 1)
	go func() {
		for lo := n; lo < len(rows); lo += 10 {
			if _, err := c.Ingest(rows[lo : lo+10]); err != nil {
				ingested <- err
				return
			}
		}
		ingested <- nil
	}()
	req := ResolveRequest{
		Match:     []MatchAttr{{Attr: "title", Weight: 0.6}, {Attr: "authors", Weight: 0.4}},
		Threshold: 0.55,
	}
	res, err := c.ResolveContext(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if err := <-ingested; err != nil {
		t.Fatal(err)
	}

	if view.Len() != n {
		t.Fatalf("view taken at %d records has Len %d after ingest continued", n, view.Len())
	}
	logRecs := c.log.Records()
	for i, r := range view.Records() {
		if r != logRecs[i] {
			t.Fatalf("view record %d is a copy, not the log's record", i)
		}
	}
	if allocs := testing.AllocsPerRun(20, func() { _ = c.Dataset() }); allocs > 2 {
		t.Errorf("Dataset allocates %.0f objects per call, want a slice header (<= 2)", allocs)
	}
	if got := view.Records(); cap(got) != len(got) {
		t.Fatalf("view has cap %d > len %d: an Append would write into the log", cap(got), len(got))
	}
	next := logRecs[n]
	view.Append(record.UnknownEntity, map[string]string{"title": "appended to the view"})
	if c.log.Records()[n] != next {
		t.Fatal("Append on the view overwrote the log's next record")
	}

	// The racing resolve saw some ingest-batch boundary m >= n; it must
	// equal the batch pipeline over the first m records.
	m := res.Stats.Records
	if m < n || m > len(rows) || (m-n)%10 != 0 {
		t.Fatalf("resolve viewed %d records, want a batch boundary in [%d, %d]", m, n, len(rows))
	}
	cfg, err := spec.buildConfig()
	if err != nil {
		t.Fatal(err)
	}
	blocker, err := lsh.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	matcher, err := er.NewMatcher([]er.AttrWeight{
		{Attr: "title", Weight: 0.6}, {Attr: "authors", Weight: 0.4},
	}, 0.55)
	if err != nil {
		t.Fatal(err)
	}
	p, err := pipeline.New(blocker, pipeline.WithMatcher(matcher))
	if err != nil {
		t.Fatal(err)
	}
	want, err := p.Run(d.Subset(m))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res.Matches, want.Matches) {
		t.Fatalf("resolve over the %d-record view found %d matches, batch run %d (or different pairs)",
			m, len(res.Matches), len(want.Matches))
	}
	if res.Resolution.NumClusters != want.Resolution.NumClusters {
		t.Errorf("resolve clustered into %d, batch run %d", res.Resolution.NumClusters, want.Resolution.NumClusters)
	}
}

// TestCollectionValidation covers spec rejection paths.
// TestWorkersHonourGOMAXPROCS: a collection whose spec leaves Workers at 0
// sizes the shared log's staging pool and every shard's pool from
// GOMAXPROCS, not the machine's core count (stream's test of the same name
// covers the constructors; this covers what newCollection hands them). The
// pool sizes are unexported fields of another package, read by reflection.
func TestWorkersHonourGOMAXPROCS(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	c, err := newCollection(baseSpec("procs", 2))
	if err != nil {
		t.Fatal(err)
	}
	workers := func(v any) int64 { return reflect.ValueOf(v).Elem().FieldByName("workers").Int() }
	if n := workers(c.log); n != 1 {
		t.Errorf("shared log stages on %d workers under GOMAXPROCS(1), want 1", n)
	}
	for i, sh := range c.shards {
		if n := workers(sh); n != 1 {
			t.Errorf("shard %d signs on %d workers under GOMAXPROCS(1), want 1", i, n)
		}
	}
}

func TestCollectionValidation(t *testing.T) {
	cases := map[string]CollectionSpec{
		"bad-name":       {Name: "../evil", Attrs: []string{"a"}, Q: 2, K: 2, L: 4},
		"empty-name":     {Attrs: []string{"a"}, Q: 2, K: 2, L: 4},
		"shards-exceed":  {Name: "x", Attrs: []string{"a"}, Q: 2, K: 2, L: 4, Shards: 5},
		"neg-shards":     {Name: "x", Attrs: []string{"a"}, Q: 2, K: 2, L: 4, Shards: -1},
		"no-attrs":       {Name: "x", Q: 2, K: 2, L: 4},
		"unknown-domain": {Name: "x", Attrs: []string{"a"}, Q: 2, K: 2, L: 4, Semantic: &SemanticSpec{Domain: "nope"}},
		"bad-mode":       {Name: "x", Attrs: []string{"a"}, Q: 2, K: 2, L: 4, Semantic: &SemanticSpec{Domain: "cora", Mode: "xor"}},
	}
	for name, spec := range cases {
		if _, err := newCollection(spec); err == nil {
			t.Errorf("%s: spec accepted: %+v", name, spec)
		}
	}
	if _, err := newCollection(CollectionSpec{Name: "ok", Attrs: []string{"a"}, Q: 2, K: 2, L: 4, Shards: 4}); err != nil {
		t.Errorf("valid spec rejected: %v", err)
	}
}
