package stream

import (
	"testing"

	"semblock/internal/lsh"
	"semblock/internal/obs"
)

// TestBandCounters checks the semantic filter's veto accounting: over a
// family of table shards, every (record, table) band is counted exactly once
// — signed when the record files under a key of that table, skipped when
// its semhash keeps it out — whatever the shard count and batch sizes.
func TestBandCounters(t *testing.T) {
	d, schema := fixture(t, 150)
	cfg := lsh.Config{
		Attrs: []string{"authors", "title"}, Q: 3, K: 3, L: 12, Seed: 7,
		Semantic: &lsh.SemanticOption{Schema: schema, W: 3, Mode: lsh.ModeOR},
	}
	signer, err := lsh.NewSigner(cfg)
	if err != nil {
		t.Fatal(err)
	}
	wantSigned := 0
	sig := make([]uint64, cfg.K*cfg.L)
	for _, r := range d.Records() {
		st, _ := signer.StageAppend(r, nil)
		signer.SignStagedInto(&st, nil, sig)
		for table := 0; table < cfg.L; table++ {
			if len(signer.BucketKeys(table, sig, st.Sem(), nil)) > 0 {
				wantSigned++
			}
		}
	}
	total := d.Len() * cfg.L
	if wantSigned == 0 || wantSigned == total {
		t.Fatalf("fixture does not exercise the filter: %d of %d bands active", wantSigned, total)
	}

	rows := make([]Row, 0, d.Len())
	for _, r := range d.Records() {
		rows = append(rows, Row{Entity: r.Entity, Attrs: r.Attrs})
	}
	for _, shards := range []int{1, 3} {
		log, err := NewSharedLog("bands", cfg, 0)
		if err != nil {
			t.Fatal(err)
		}
		var signed, skipped obs.Counter
		log.SetBandCounters(&signed, &skipped)
		ixs := make([]*Indexer, shards)
		for i := range ixs {
			var tables []int
			for tb := i; tb < cfg.L; tb += shards {
				tables = append(tables, tb)
			}
			if ixs[i], err = NewIndexer(cfg, WithTables(tables...), WithSharedLog(log)); err != nil {
				t.Fatal(err)
			}
		}
		for _, batch := range [][]Row{rows[:1], rows[1:100], rows[100:]} {
			b := log.Append(batch)
			for _, ix := range ixs {
				ix.InsertStaged(b)
			}
		}
		if got := int(signed.Load()); got != wantSigned {
			t.Errorf("shards=%d: %d bands signed, want %d", shards, got, wantSigned)
		}
		if got := int(skipped.Load()); got != total-wantSigned {
			t.Errorf("shards=%d: %d bands skipped, want %d", shards, got, total-wantSigned)
		}
	}
}
