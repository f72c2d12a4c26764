package lsh

import (
	"fmt"
	"math"
	"testing"

	"semblock/internal/datagen"
	"semblock/internal/eval"
	"semblock/internal/semantic"
	"semblock/internal/taxonomy"
)

// TestSeedSweepQuality is the end-to-end half of the hash family's
// statistical gate (the per-component half is minhash's
// TestFamilyCollisionModel): blocking quality averaged over LSH seeds, in
// the two configurations the benchmark runs, against the means recorded in
// docs/ARCHITECTURE.md ("The statistical gate"). One seed moves PC by
// ±0.02–0.05 and PQ by up to 0.25 with the draw of the family — which is
// all a change of family is — so a kernel change is judged on the mean over
// seeds, never on one seed, and never fixed by picking one. A family that passes re-records the
// means there and here; one whose means leave the tolerance is rejected.
func TestSeedSweepQuality(t *testing.T) {
	if testing.Short() {
		t.Skip("blocks 30k records sixteen times")
	}
	const (
		seeds         = 16
		tolPC, tolPQ  = 0.015, 0.03
		salted, plain = true, false
	)
	fn, err := semantic.NewCoraFunction(taxonomy.Bibliographic())
	if err != nil {
		t.Fatal(err)
	}
	// The schema of the served "cora" domain: built from the default
	// reference corpus, not from the corpus being blocked.
	schema, err := semantic.BuildSchema(fn, datagen.Cora(datagen.DefaultCoraConfig()))
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name    string
		records int
		salted  bool
		q, k, l int
		pc, pq  float64 // recorded means over LSH seeds 1..16
	}{
		{"paper-cora", 10_000, plain, 4, 4, 63, 0.9083, 0.7719},
		{"salted-cora", 20_000, salted, 3, 6, 12, 0.6202, 0.9591},
	} {
		t.Run(c.name, func(t *testing.T) {
			gen := datagen.DefaultCoraConfig()
			gen.Records = c.records
			d := datagen.Cora(gen)
			if c.salted {
				// The entity tag the benchmark's serve workloads append, which
				// keeps pairs per record flat at scale.
				for _, r := range d.Records() {
					salt := fmt.Sprintf(" c%d", r.Entity)
					r.Attrs["title"] += salt
					r.Attrs["authors"] += salt
				}
			}
			truth := eval.TruthSet(d)
			var pc, pq float64
			for seed := int64(1); seed <= seeds; seed++ {
				b, err := New(Config{
					Attrs: []string{"authors", "title"}, Q: c.q, K: c.k, L: c.l, Seed: seed,
					Semantic: &SemanticOption{Schema: schema, W: 3, Mode: ModeOR},
				})
				if err != nil {
					t.Fatal(err)
				}
				res, err := b.Block(d)
				if err != nil {
					t.Fatal(err)
				}
				m := eval.EvaluateWithTruth(res, d, truth)
				t.Logf("seed %d: PC %.4f PQ %.4f", seed, m.PC, m.PQ)
				pc += m.PC / seeds
				pq += m.PQ / seeds
			}
			t.Logf("mean over %d seeds: PC %.4f PQ %.4f", seeds, pc, pq)
			if math.Abs(pc-c.pc) > tolPC {
				t.Errorf("mean PC %.4f, recorded %.4f ± %.3f", pc, c.pc, tolPC)
			}
			if math.Abs(pq-c.pq) > tolPQ {
				t.Errorf("mean PQ %.4f, recorded %.4f ± %.3f", pq, c.pq, tolPQ)
			}
		})
	}
}
