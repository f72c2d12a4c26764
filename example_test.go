package semblock_test

import (
	"fmt"
	"net/http/httptest"

	"semblock"
)

// Example demonstrates the paper's core behaviour on its own running
// example: two records with identical titles — a conference article and a
// technical report — are never co-blocked by SA-LSH, while the true
// duplicate pair is.
func Example() {
	d := semblock.NewDataset("pubs")
	d.Append(0, map[string]string{"title": "the cascade correlation learning architecture", "booktitle": "nips"})
	d.Append(0, map[string]string{"title": "cascade correlation learning architecture", "booktitle": "nips"})
	d.Append(1, map[string]string{"title": "the cascade correlation learning architecture", "institution": "cmu"})

	fn, _ := semblock.NewCoraSemantics(semblock.BibliographicTaxonomy())
	schema, _ := semblock.BuildSchema(fn, d)
	b, _ := semblock.New(semblock.Config{
		Attrs: []string{"title"}, Q: 2, K: 2, L: 8, Seed: 1,
		Semantic: &semblock.SemanticOption{Schema: schema, W: 1, Mode: semblock.ModeOR},
	})
	res, _ := b.Block(d)
	fmt.Println("duplicates co-blocked:", res.Covers(0, 1))
	fmt.Println("conference/TR co-blocked:", res.Covers(0, 2))
	// Output:
	// duplicates co-blocked: true
	// conference/TR co-blocked: false
}

// ExampleChooseKL reproduces the paper's §6.1 parameter derivation: the
// Cora constraints solve to the published banding parameters.
func ExampleChooseKL() {
	p, _ := semblock.ChooseKL(0.3, 0.2, 0.4, 0.1, 10)
	fmt.Printf("k=%d l=%d\n", p.K, p.L)
	// Output:
	// k=4 l=63
}

// ExampleCollisionProbability shows the banding S-curve the framework is
// tuned on.
func ExampleCollisionProbability() {
	for _, s := range []float64{0.2, 0.3, 0.5} {
		fmt.Printf("s=%.1f -> %.2f\n", s, semblock.CollisionProbability(s, 4, 63))
	}
	// Output:
	// s=0.2 -> 0.10
	// s=0.3 -> 0.40
	// s=0.5 -> 0.98
}

// ExampleTaxonomy_SimConcepts computes the paper's Example 4.4 values on
// the bibliographic taxonomy.
func ExampleTaxonomy_SimConcepts() {
	tax := semblock.BibliographicTaxonomy()
	c0 := tax.MustConcept("C0")
	c1 := tax.MustConcept("C1")
	c2 := tax.MustConcept("C2")
	fmt.Printf("simS(c0,c1) = %.4f\n", tax.SimConcepts(c0, c1))
	fmt.Printf("simS(c1,c2) = %.4f\n", tax.SimConcepts(c1, c2))
	// Output:
	// simS(c0,c1) = 0.8333
	// simS(c1,c2) = 0.6000
}

// ExampleIndexer streams records into the online blocking index one at a
// time: the near-duplicate pair is emitted as a candidate the moment its
// second record arrives, and the final snapshot equals what a batch Block
// run over the same three records would produce.
func ExampleIndexer() {
	ix, _ := semblock.NewIndexer(semblock.Config{
		Attrs: []string{"name"}, Q: 2, K: 2, L: 8, Seed: 1,
	}, semblock.WithWorkers(2))

	arrivals := []map[string]string{
		{"name": "robert smith"},
		{"name": "mary johnson"},
		{"name": "robert smyth"},
	}
	for _, attrs := range arrivals {
		id := ix.Insert(semblock.UnknownEntity, attrs)
		for _, p := range ix.Candidates() {
			fmt.Printf("after record %d: candidate pair (%d,%d)\n", id, p.Left(), p.Right())
		}
	}

	snapshot := ix.Snapshot()
	fmt.Println("records indexed:", ix.Len())
	fmt.Println("distinct candidate pairs:", snapshot.CandidatePairs().Len())
	// Output:
	// after record 2: candidate pair (0,2)
	// records indexed: 3
	// distinct candidate pairs: 1
}

// ExampleNewPipeline chains blocking and concurrent matching into one
// composable run: the pipeline blocks the dataset through the parallel
// table-build engine, scores the candidate pairs in parallel tasks, and
// returns the matches plus their transitive clustering.
func ExampleNewPipeline() {
	d := semblock.NewDataset("people")
	d.Append(0, map[string]string{"name": "robert smith"})
	d.Append(0, map[string]string{"name": "robert smyth"})
	d.Append(1, map[string]string{"name": "mary johnson"})
	d.Append(1, map[string]string{"name": "mary jonson"})

	// Each pair shares ≥ 2/3 of its 2-grams, so a k=2 band collides with
	// probability ≥ 0.48 and 24 tables miss a pair once in ~10^7 families.
	b, _ := semblock.New(semblock.Config{Attrs: []string{"name"}, Q: 2, K: 2, L: 24, Seed: 1})
	m, _ := semblock.NewMatcher([]semblock.AttrWeight{
		{Attr: "name", Weight: 1, Sim: "jaro_winkler"},
	}, 0.9)
	p, _ := semblock.NewPipeline(b, semblock.WithMatcher(m))

	out, _ := p.Run(d)
	for _, match := range out.Matches {
		fmt.Printf("matched (%d,%d)\n", match.Pair.Left(), match.Pair.Right())
	}
	fmt.Println("clusters:", out.Resolution.NumClusters)
	// Output:
	// matched (0,1)
	// matched (2,3)
	// clusters: 2
}

// ExampleNewServer runs the multi-tenant serving layer in-process: a
// collection backed by two table shards ingests a small stream, drains the
// incremental candidates, and serves its health endpoint over HTTP. The
// shard count never changes the candidates — the shards partition the hash
// tables, so their merged output equals an unsharded (and a batch) run.
func ExampleNewServer() {
	srv, _ := semblock.NewServer()
	c, _ := srv.Create(semblock.CollectionSpec{
		Name: "people", Attrs: []string{"name"}, Q: 2, K: 2, L: 8, Seed: 1, Shards: 2,
	})

	ids, _ := c.Ingest([]semblock.Row{
		{Entity: semblock.UnknownEntity, Attrs: map[string]string{"name": "robert smith"}},
		{Entity: semblock.UnknownEntity, Attrs: map[string]string{"name": "mary johnson"}},
		{Entity: semblock.UnknownEntity, Attrs: map[string]string{"name": "robert smyth"}},
	})
	fmt.Println("ingested:", len(ids))
	for _, p := range c.Candidates() {
		fmt.Printf("candidate pair (%d,%d)\n", p.Left(), p.Right())
	}

	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	resp, _ := ts.Client().Get(ts.URL + "/healthz")
	fmt.Println("healthz:", resp.StatusCode)
	resp.Body.Close()
	// Output:
	// ingested: 3
	// candidate pair (0,2)
	// healthz: 200
}

// ExampleNewMatcher runs the downstream resolution step over blocking
// output.
func ExampleNewMatcher() {
	d := semblock.NewDataset("people")
	d.Append(0, map[string]string{"name": "robert smith"})
	d.Append(0, map[string]string{"name": "robert smyth"})
	d.Append(1, map[string]string{"name": "mary johnson"})

	// Each pair shares ≥ 2/3 of its 2-grams, so a k=2 band collides with
	// probability ≥ 0.48 and 24 tables miss a pair once in ~10^7 families.
	b, _ := semblock.New(semblock.Config{Attrs: []string{"name"}, Q: 2, K: 2, L: 24, Seed: 1})
	blocks, _ := b.Block(d)

	m, _ := semblock.NewMatcher([]semblock.AttrWeight{
		{Attr: "name", Weight: 1, Sim: "jaro_winkler"},
	}, 0.9)
	res := semblock.Resolve(d, blocks, m)
	fmt.Println("clusters:", res.NumClusters)
	// Output:
	// clusters: 2
}
