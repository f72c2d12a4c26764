package stream

import (
	"fmt"
	"runtime"
	"sort"
	"sync"
	"testing"

	"semblock/internal/datagen"
	"semblock/internal/lsh"
	"semblock/internal/record"
	"semblock/internal/semantic"
	"semblock/internal/taxonomy"
)

// fixture builds a small Cora-like dataset plus its semhash schema.
func fixture(t testing.TB, n int) (*record.Dataset, *semantic.Schema) {
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
	return d, schema
}

// canonical renders a block set as a sorted multiset of sorted blocks so
// that two results can be compared independent of block/bucket order.
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

// assertParity streams the dataset into an index (one record at a time)
// and checks the snapshot against a batch Block run of the same config.
func assertParity(t *testing.T, cfg lsh.Config, d *record.Dataset, opts ...Option) {
	t.Helper()
	blocker, err := lsh.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	want, err := blocker.Block(d)
	if err != nil {
		t.Fatal(err)
	}

	ix, err := NewIndexer(cfg, opts...)
	if err != nil {
		t.Fatal(err)
	}
	var emitted []record.Pair
	for _, r := range d.Records() {
		if id := ix.Insert(r.Entity, r.Attrs); id != r.ID {
			t.Fatalf("insert assigned ID %d, want %d", id, r.ID)
		}
		emitted = append(emitted, ix.Candidates()...)
	}
	got := ix.Snapshot()

	if g, w := canonical(got.Blocks), canonical(want.Blocks); !equal(g, w) {
		t.Fatalf("snapshot blocks differ from batch: %d vs %d blocks", len(g), len(w))
	}
	if got.Technique != want.Technique {
		t.Errorf("technique %q, want %q", got.Technique, want.Technique)
	}
	wantPairs := want.CandidatePairs()
	if len(emitted) != wantPairs.Len() {
		t.Fatalf("emitted %d candidate pairs, batch has %d", len(emitted), wantPairs.Len())
	}
	for _, p := range emitted {
		if !wantPairs.Has(p.Left(), p.Right()) {
			t.Fatalf("emitted pair (%d,%d) absent from batch output", p.Left(), p.Right())
		}
	}
	if ix.PairCount() != wantPairs.Len() {
		t.Errorf("PairCount %d, want %d", ix.PairCount(), wantPairs.Len())
	}
}

func equal(a, b []string) bool {
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

func TestParityLSH(t *testing.T) {
	d, _ := fixture(t, 300)
	assertParity(t, lsh.Config{Attrs: []string{"authors", "title"}, Q: 3, K: 3, L: 12, Seed: 7}, d)
}

func TestParitySALSH(t *testing.T) {
	d, schema := fixture(t, 300)
	base := lsh.Config{Attrs: []string{"authors", "title"}, Q: 3, K: 3, L: 12, Seed: 7}
	cases := []struct {
		name string
		sem  lsh.SemanticOption
	}{
		{"and", lsh.SemanticOption{Schema: schema, W: 2, Mode: lsh.ModeAND}},
		{"or-bucket-per-bit", lsh.SemanticOption{Schema: schema, W: 3, Mode: lsh.ModeOR}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := base
			sem := tc.sem
			cfg.Semantic = &sem
			assertParity(t, cfg, d)
		})
	}
}

// TestWorkersHonourGOMAXPROCS: a pool left at its default is sized by what
// the scheduler will run (GOMAXPROCS), not by the machine's core count — a
// GOMAXPROCS=1 benchmark run or a CPU-quota'd container must not be
// oversubscribed by the serving path.
func TestWorkersHonourGOMAXPROCS(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	cfg := lsh.Config{Attrs: []string{"title"}, Q: 2, K: 2, L: 8, Seed: 1}
	log, err := NewSharedLog("log", cfg, 0)
	if err != nil {
		t.Fatal(err)
	}
	if log.workers != 1 {
		t.Errorf("default NewSharedLog staging pool has %d workers under GOMAXPROCS(1), want 1", log.workers)
	}
	ix, err := NewIndexer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if ix.workers != 1 || len(ix.shards) != 1 || ix.log.workers != 1 {
		t.Errorf("default NewIndexer has %d workers, %d shards, %d log workers under GOMAXPROCS(1), want 1 each",
			ix.workers, len(ix.shards), ix.log.workers)
	}
	if ix, err = NewIndexer(cfg, WithWorkers(3)); err != nil {
		t.Fatal(err)
	}
	if ix.workers != 3 {
		t.Errorf("WithWorkers(3) gave %d workers", ix.workers)
	}
}

// TestParityWorkers checks that the worker/shard count does not change the
// result.
func TestParityWorkers(t *testing.T) {
	d, schema := fixture(t, 200)
	cfg := lsh.Config{
		Attrs: []string{"authors", "title"}, Q: 3, K: 3, L: 10, Seed: 3,
		Semantic: &lsh.SemanticOption{Schema: schema, W: 2, Mode: lsh.ModeOR},
	}
	for _, workers := range []int{1, 2, 16} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			assertParity(t, cfg, d, WithWorkers(workers))
		})
	}
}

// TestInsertBatchParity streams the dataset in uneven mini-batches and
// checks snapshot parity plus the Candidates drain invariant.
func TestInsertBatchParity(t *testing.T) {
	d, schema := fixture(t, 300)
	cfg := lsh.Config{
		Attrs: []string{"authors", "title"}, Q: 3, K: 3, L: 12, Seed: 7,
		Semantic: &lsh.SemanticOption{Schema: schema, W: 3, Mode: lsh.ModeOR},
	}
	blocker, err := lsh.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	want, err := blocker.Block(d)
	if err != nil {
		t.Fatal(err)
	}

	ix, err := NewIndexer(cfg, WithWorkers(4))
	if err != nil {
		t.Fatal(err)
	}
	drained := record.NewPairSet(0)
	recs := d.Records()
	for lo, step := 0, 1; lo < len(recs); lo, step = lo+step, step*2+1 {
		hi := lo + step
		if hi > len(recs) {
			hi = len(recs)
		}
		rows := make([]Row, 0, hi-lo)
		for _, r := range recs[lo:hi] {
			rows = append(rows, Row{Entity: r.Entity, Attrs: r.Attrs})
		}
		ids := ix.InsertBatch(rows)
		if len(ids) != hi-lo || ids[0] != record.ID(lo) {
			t.Fatalf("batch [%d:%d) assigned ids %v", lo, hi, ids)
		}
		for _, p := range ix.Candidates() {
			drained.AddPair(p)
		}
	}
	got := ix.Snapshot()
	if g, w := canonical(got.Blocks), canonical(want.Blocks); !equal(g, w) {
		t.Fatalf("snapshot blocks differ from batch: %d vs %d blocks", len(g), len(w))
	}
	wantPairs := want.CandidatePairs()
	if drained.Len() != wantPairs.Len() || drained.Intersect(wantPairs) != wantPairs.Len() {
		t.Fatalf("drained %d pairs, batch has %d (overlap %d)",
			drained.Len(), wantPairs.Len(), drained.Intersect(wantPairs))
	}
}

// TestConcurrentInsert hammers Insert from many goroutines and verifies the
// final snapshot still matches a batch run over the records in their
// (nondeterministic) assigned order.
func TestConcurrentInsert(t *testing.T) {
	d, _ := fixture(t, 240)
	cfg := lsh.Config{Attrs: []string{"authors", "title"}, Q: 3, K: 2, L: 8, Seed: 5}
	ix, err := NewIndexer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	recs := d.Records()
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < len(recs); i += 8 {
				ix.Insert(recs[i].Entity, recs[i].Attrs)
			}
		}(w)
	}
	wg.Wait()
	if ix.Len() != len(recs) {
		t.Fatalf("inserted %d records, index has %d", len(recs), ix.Len())
	}

	blocker, err := lsh.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	want, err := blocker.Block(ix.Dataset())
	if err != nil {
		t.Fatal(err)
	}
	got := ix.Snapshot()
	gotPairs, wantPairs := got.CandidatePairs(), want.CandidatePairs()
	if gotPairs.Len() != wantPairs.Len() || gotPairs.Intersect(wantPairs) != wantPairs.Len() {
		t.Fatalf("concurrent snapshot has %d pairs, batch %d (overlap %d)",
			gotPairs.Len(), wantPairs.Len(), gotPairs.Intersect(wantPairs))
	}
	if ix.PairCount() != wantPairs.Len() {
		t.Errorf("PairCount %d, want %d", ix.PairCount(), wantPairs.Len())
	}
}

// TestWithTablesSharding partitions the hash tables over several
// table-subset indexers (every record inserted into every subset, as the
// serving layer's sharded collections do) and checks that the merged
// candidate set and the concatenated snapshots equal both the unrestricted
// index and the batch Block run.
func TestWithTablesSharding(t *testing.T) {
	d, schema := fixture(t, 250)
	cfg := lsh.Config{
		Attrs: []string{"authors", "title"}, Q: 3, K: 3, L: 12, Seed: 7,
		Semantic: &lsh.SemanticOption{Schema: schema, W: 3, Mode: lsh.ModeOR},
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

	for _, shards := range []int{1, 2, 3, 5} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			ixs := make([]*Indexer, shards)
			for i := range ixs {
				var tables []int
				for tb := i; tb < cfg.L; tb += shards {
					tables = append(tables, tb)
				}
				ix, err := NewIndexer(cfg, WithTables(tables...))
				if err != nil {
					t.Fatal(err)
				}
				if got := ix.Tables(); len(got) != len(tables) {
					t.Fatalf("shard %d maintains %v, want %v", i, got, tables)
				}
				ixs[i] = ix
			}
			merged := record.NewPairSet(0)
			var blocks [][]record.ID
			for _, r := range d.Records() {
				for _, ix := range ixs {
					ix.Insert(r.Entity, r.Attrs)
					for _, p := range ix.Candidates() {
						merged.AddPair(p)
					}
				}
			}
			for _, ix := range ixs {
				blocks = append(blocks, ix.Snapshot().Blocks...)
			}
			if merged.Len() != wantPairs.Len() || merged.Intersect(wantPairs) != wantPairs.Len() {
				t.Fatalf("merged %d pairs over %d table shards, batch has %d (overlap %d)",
					merged.Len(), shards, wantPairs.Len(), merged.Intersect(wantPairs))
			}
			if g, w := canonical(blocks), canonical(want.Blocks); !equal(g, w) {
				t.Fatalf("concatenated shard snapshots differ from batch: %d vs %d blocks", len(g), len(w))
			}
		})
	}
}

// TestSharedLogFamilyParity drives a family of table-subset indexers
// attached to ONE SharedLog through the serving-layer protocol
// (SharedLog.Append once per batch, InsertStaged on every shard) and checks
// the merged candidate set and concatenated snapshots equal the batch Block
// run — while the record log is stored exactly once and the per-record
// signature stage is computed exactly once regardless of the shard count.
func TestSharedLogFamilyParity(t *testing.T) {
	d, schema := fixture(t, 250)
	cfg := lsh.Config{
		Attrs: []string{"authors", "title"}, Q: 3, K: 3, L: 12, Seed: 7,
		Semantic: &lsh.SemanticOption{Schema: schema, W: 3, Mode: lsh.ModeOR},
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

	for _, shards := range []int{1, 2, 4, 8} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			log, err := NewSharedLog("family", cfg, 0)
			if err != nil {
				t.Fatal(err)
			}
			ixs := make([]*Indexer, shards)
			for i := range ixs {
				var tables []int
				for tb := i; tb < cfg.L; tb += shards {
					tables = append(tables, tb)
				}
				ix, err := NewIndexer(cfg, WithTables(tables...), WithSharedLog(log))
				if err != nil {
					t.Fatal(err)
				}
				if ix.Log() != log {
					t.Fatal("indexer did not adopt the shared log")
				}
				if ix.log.dataset != log.dataset {
					t.Fatal("indexer keeps a private record log despite WithSharedLog")
				}
				ixs[i] = ix
			}
			merged := record.NewPairSet(0)
			recs := d.Records()
			for lo, step := 0, 1; lo < len(recs); lo, step = lo+step, step*2+1 {
				hi := lo + step
				if hi > len(recs) {
					hi = len(recs)
				}
				rows := make([]Row, 0, hi-lo)
				for _, r := range recs[lo:hi] {
					rows = append(rows, Row{Entity: r.Entity, Attrs: r.Attrs})
				}
				b := log.Append(rows)
				if len(b.IDs) != hi-lo || b.IDs[0] != record.ID(lo) {
					t.Fatalf("batch [%d:%d) assigned ids %v", lo, hi, b.IDs)
				}
				for _, ix := range ixs {
					groups := ix.InsertStaged(b)
					if groups.Len() != len(b.IDs) {
						t.Fatalf("InsertStaged returned %d groups for %d records", groups.Len(), len(b.IDs))
					}
					for _, p := range groups.Pairs() {
						merged.AddPair(p)
					}
				}
			}
			if log.Len() != len(recs) {
				t.Fatalf("shared log holds %d records, appended %d", log.Len(), len(recs))
			}
			var blocks [][]record.ID
			for _, ix := range ixs {
				if ix.Len() != len(recs) {
					t.Fatalf("shard Len %d, want the global %d", ix.Len(), len(recs))
				}
				blocks = append(blocks, ix.Snapshot().Blocks...)
			}
			if merged.Len() != wantPairs.Len() || merged.Intersect(wantPairs) != wantPairs.Len() {
				t.Fatalf("merged %d pairs over %d shared-log shards, batch has %d (overlap %d)",
					merged.Len(), shards, wantPairs.Len(), merged.Intersect(wantPairs))
			}
			if g, w := canonical(blocks), canonical(want.Blocks); !equal(g, w) {
				t.Fatalf("concatenated shard snapshots differ from batch: %d vs %d blocks", len(g), len(w))
			}
		})
	}
}

// TestSharedLogStandaloneParity checks a single indexer attached to a
// shared log still honours the ordinary Insert/Candidates contract.
func TestSharedLogStandaloneParity(t *testing.T) {
	d, _ := fixture(t, 200)
	cfg := lsh.Config{Attrs: []string{"authors", "title"}, Q: 3, K: 3, L: 10, Seed: 3}
	log, err := NewSharedLog("standalone", cfg, 0)
	if err != nil {
		t.Fatal(err)
	}
	assertParity(t, cfg, d, WithSharedLog(log))
}

// TestWithSharedLogValidation rejects attachments whose configuration would
// stage records differently from the log.
func TestWithSharedLogValidation(t *testing.T) {
	_, schema := fixture(t, 40)
	base := lsh.Config{Attrs: []string{"authors", "title"}, Q: 3, K: 3, L: 12, Seed: 7}
	log, err := NewSharedLog("log", base, 0)
	if err != nil {
		t.Fatal(err)
	}
	bad := map[string]lsh.Config{
		"q":        {Attrs: []string{"authors", "title"}, Q: 2, K: 3, L: 12, Seed: 7},
		"seed":     {Attrs: []string{"authors", "title"}, Q: 3, K: 3, L: 12, Seed: 8},
		"attrs":    {Attrs: []string{"title"}, Q: 3, K: 3, L: 12, Seed: 7},
		"semantic": {Attrs: []string{"authors", "title"}, Q: 3, K: 3, L: 12, Seed: 7, Semantic: &lsh.SemanticOption{Schema: schema, W: 2, Mode: lsh.ModeOR}},
	}
	for name, cfg := range bad {
		if _, err := NewIndexer(cfg, WithSharedLog(log)); err == nil {
			t.Errorf("%s mismatch accepted", name)
		}
	}
	if _, err := NewIndexer(base, WithSharedLog(log), WithTables(0, 1)); err != nil {
		t.Errorf("matching config rejected: %v", err)
	}
}

// TestWithTablesValidation rejects malformed table subsets.
func TestWithTablesValidation(t *testing.T) {
	cfg := lsh.Config{Attrs: []string{"a"}, Q: 2, K: 2, L: 4}
	for name, tables := range map[string][]int{
		"empty":        {},
		"out-of-range": {0, 4},
		"negative":     {-1},
		"duplicate":    {1, 1},
	} {
		if _, err := NewIndexer(cfg, WithTables(tables...)); err == nil {
			t.Errorf("WithTables(%s=%v) accepted", name, tables)
		}
	}
	ix, err := NewIndexer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got := ix.Tables(); len(got) != cfg.L {
		t.Errorf("default table set %v, want all %d", got, cfg.L)
	}
}

// TestCandidatesConcurrentDrain asserts the drain-while-insert contract
// under the race detector: with inserters and drainers running
// concurrently, every emitted pair is delivered to exactly one drainer —
// the union of all drains plus one final drain equals PairCount distinct
// pairs, which equals the batch candidate set over the inserted records.
func TestCandidatesConcurrentDrain(t *testing.T) {
	d, _ := fixture(t, 300)
	cfg := lsh.Config{Attrs: []string{"authors", "title"}, Q: 3, K: 2, L: 8, Seed: 5}
	ix, err := NewIndexer(cfg)
	if err != nil {
		t.Fatal(err)
	}

	const inserters = 4
	const drainers = 3
	var insertWG sync.WaitGroup
	recs := d.Records()
	for w := 0; w < inserters; w++ {
		insertWG.Add(1)
		go func(w int) {
			defer insertWG.Done()
			for i := w; i < len(recs); i += inserters {
				ix.Insert(recs[i].Entity, recs[i].Attrs)
			}
		}(w)
	}

	done := make(chan struct{})
	drained := make([][]record.Pair, drainers)
	var drainWG sync.WaitGroup
	for w := 0; w < drainers; w++ {
		drainWG.Add(1)
		go func(w int) {
			defer drainWG.Done()
			for {
				drained[w] = append(drained[w], ix.Candidates()...)
				select {
				case <-done:
					return
				default:
				}
			}
		}(w)
	}
	insertWG.Wait()
	close(done)
	drainWG.Wait()
	final := ix.Candidates()

	all := record.NewPairSet(0)
	total := 0
	for _, batch := range append(drained, final) {
		for _, p := range batch {
			total++
			all.AddPair(p)
		}
	}
	if total != all.Len() {
		t.Fatalf("drained %d pair deliveries but only %d distinct pairs: some pair reached two drainers", total, all.Len())
	}
	if all.Len() != ix.PairCount() {
		t.Fatalf("drained %d distinct pairs, index emitted %d", all.Len(), ix.PairCount())
	}
	blocker, err := lsh.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	want, err := blocker.Block(ix.Dataset())
	if err != nil {
		t.Fatal(err)
	}
	wantPairs := want.CandidatePairs()
	if all.Len() != wantPairs.Len() || all.Intersect(wantPairs) != wantPairs.Len() {
		t.Fatalf("drained %d pairs, batch has %d (overlap %d)",
			all.Len(), wantPairs.Len(), all.Intersect(wantPairs))
	}
}

// TestEmptyAndValidation covers the trivial states and config errors.
func TestEmptyAndValidation(t *testing.T) {
	ix, err := NewIndexer(lsh.Config{Attrs: []string{"a"}, Q: 2, K: 2, L: 4})
	if err != nil {
		t.Fatal(err)
	}
	if res := ix.Snapshot(); res.NumBlocks() != 0 {
		t.Errorf("empty index snapshot has %d blocks", res.NumBlocks())
	}
	if ps := ix.Candidates(); ps != nil {
		t.Errorf("empty index emitted %v", ps)
	}
	if ids := ix.InsertBatch(nil); ids != nil {
		t.Errorf("empty batch returned %v", ids)
	}
	if _, err := NewIndexer(lsh.Config{}); err == nil {
		t.Error("invalid config accepted")
	}
}
