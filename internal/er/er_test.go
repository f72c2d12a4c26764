package er

import (
	"slices"
	"testing"

	"semblock/internal/blocking"
	"semblock/internal/datagen"
	"semblock/internal/lsh"
	"semblock/internal/record"
	"semblock/internal/textual"
)

func erDataset() *record.Dataset {
	d := record.NewDataset("er")
	d.Append(0, map[string]string{"name": "robert smith", "city": "raleigh"})
	d.Append(0, map[string]string{"name": "robert smyth", "city": "raleigh"})
	d.Append(1, map[string]string{"name": "mary johnson", "city": "durham"})
	d.Append(1, map[string]string{"name": "mary johnson", "city": "durham"})
	d.Append(2, map[string]string{"name": "james wilson", "city": "cary"})
	return d
}

func allPairsBlocks(d *record.Dataset) *blocking.Result {
	ids := make([]record.ID, d.Len())
	for i := range ids {
		ids[i] = record.ID(i)
	}
	return blocking.NewResult("all", [][]record.ID{ids})
}

func TestNewMatcherValidation(t *testing.T) {
	if _, err := NewMatcher(nil, 0.5); err == nil {
		t.Error("empty attrs should fail")
	}
	if _, err := NewMatcher([]AttrWeight{{Attr: "a", Weight: 1}}, 1.5); err == nil {
		t.Error("threshold > 1 should fail")
	}
	if _, err := NewMatcher([]AttrWeight{{Attr: "a", Weight: -1}}, 0.5); err == nil {
		t.Error("negative weight should fail")
	}
	if _, err := NewMatcher([]AttrWeight{{Attr: "a", Weight: 1, Sim: "nope"}}, 0.5); err == nil {
		t.Error("unknown sim should fail")
	}
}

// TestNewMatcherKeepsCallerWeights checks that normalising the weights
// does not write through to the caller's slice.
func TestNewMatcherKeepsCallerWeights(t *testing.T) {
	attrs := []AttrWeight{{Attr: "name", Weight: 3}, {Attr: "city", Weight: 1, Sim: textual.SimBigram}}
	want := slices.Clone(attrs)
	m, err := NewMatcher(attrs, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(attrs, want) {
		t.Fatalf("NewMatcher changed its argument: %v, want %v", attrs, want)
	}
	if m.attrs[0].Weight != 0.75 || m.attrs[1].Weight != 0.25 {
		t.Errorf("normalised weights = %v, want 0.75 and 0.25", m.attrs)
	}
}

func TestMatcherScore(t *testing.T) {
	d := erDataset()
	m, err := NewMatcher([]AttrWeight{
		{Attr: "name", Weight: 2, Sim: textual.SimJaroWinkler},
		{Attr: "city", Weight: 1},
	}, 0.8)
	if err != nil {
		t.Fatal(err)
	}
	// Identical records score 1.
	if got := m.Score(d.Record(2), d.Record(3)); got != 1 {
		t.Errorf("identical score = %v, want 1", got)
	}
	// Near-identical duplicates score high.
	if got := m.Score(d.Record(0), d.Record(1)); got < 0.85 {
		t.Errorf("duplicate score = %v, want high", got)
	}
	// Distinct entities score low.
	if got := m.Score(d.Record(0), d.Record(4)); got > 0.6 {
		t.Errorf("non-match score = %v, want low", got)
	}
}

func TestMatcherMissingValues(t *testing.T) {
	d := record.NewDataset("miss")
	a := d.Append(0, map[string]string{"name": "x"})
	b := d.Append(0, map[string]string{"name": "x"})
	c := d.Append(1, map[string]string{"name": "x", "city": "durham"})
	m, err := NewMatcher([]AttrWeight{
		{Attr: "name", Weight: 1},
		{Attr: "city", Weight: 1},
	}, 0.9)
	if err != nil {
		t.Fatal(err)
	}
	// Both missing city: agreement on absence.
	if got := m.Score(a, b); got != 1 {
		t.Errorf("both-missing score = %v, want 1", got)
	}
	// One missing: the attribute contributes nothing.
	if got := m.Score(a, c); got != 0.5 {
		t.Errorf("one-missing score = %v, want 0.5", got)
	}
}

func TestResolveTransitiveClustering(t *testing.T) {
	d := erDataset()
	m, err := NewMatcher([]AttrWeight{{Attr: "name", Weight: 1, Sim: textual.SimJaroWinkler}}, 0.9)
	if err != nil {
		t.Fatal(err)
	}
	res := Resolve(d, allPairsBlocks(d), m)
	if res.Compared != 10 {
		t.Errorf("Compared = %d, want 10", res.Compared)
	}
	// Records 0,1 cluster; 2,3 cluster; 4 alone -> 3 clusters.
	if res.NumClusters != 3 {
		t.Fatalf("NumClusters = %d, want 3 (clusters %v)", res.NumClusters, res.Clusters)
	}
	if res.Clusters[0] != res.Clusters[1] {
		t.Error("records 0 and 1 should share a cluster")
	}
	if res.Clusters[0] == res.Clusters[4] {
		t.Error("records 0 and 4 must not share a cluster")
	}
}

func TestResolutionEvaluatePerfect(t *testing.T) {
	d := erDataset()
	m, err := NewMatcher([]AttrWeight{{Attr: "name", Weight: 1, Sim: textual.SimJaroWinkler}}, 0.9)
	if err != nil {
		t.Fatal(err)
	}
	res := Resolve(d, allPairsBlocks(d), m)
	q, err := res.Evaluate(d)
	if err != nil {
		t.Fatal(err)
	}
	if q.Precision != 1 || q.Recall != 1 || q.F1 != 1 {
		t.Errorf("quality = %+v, want perfect", q)
	}
}

func TestResolutionEvaluateUnlabeled(t *testing.T) {
	d := record.NewDataset("u")
	d.Append(record.UnknownEntity, map[string]string{"name": "x"})
	m, err := NewMatcher([]AttrWeight{{Attr: "name", Weight: 1}}, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	res := Resolve(d, blocking.NewResult("none", nil), m)
	if _, err := res.Evaluate(d); err == nil {
		t.Error("unlabeled evaluation should fail")
	}
}

// TestBlockingLimitsRecall demonstrates the blocking/resolution coupling:
// a matcher behind an empty blocking cannot find anything.
func TestBlockingLimitsRecall(t *testing.T) {
	d := erDataset()
	m, err := NewMatcher([]AttrWeight{{Attr: "name", Weight: 1}}, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	res := Resolve(d, blocking.NewResult("empty", nil), m)
	q, err := res.Evaluate(d)
	if err != nil {
		t.Fatal(err)
	}
	if q.Recall != 0 {
		t.Errorf("recall through empty blocking = %v, want 0", q.Recall)
	}
	if res.NumClusters != d.Len() {
		t.Errorf("clusters = %d, want all singletons", res.NumClusters)
	}
}

// TestEndToEndWithSALSH runs the full pipeline the paper envisions:
// SA-LSH blocking, then matching, then clustering, on the synthetic Cora.
func TestEndToEndWithSALSH(t *testing.T) {
	cfg := datagen.DefaultCoraConfig()
	cfg.Records = 500
	d := datagen.Cora(cfg)
	b, err := lsh.New(lsh.Config{Attrs: []string{"authors", "title"}, Q: 3, K: 3, L: 20, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	blocks, err := b.Block(d)
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewMatcher([]AttrWeight{
		{Attr: "title", Weight: 2, Sim: textual.SimJaccard2},
		{Attr: "authors", Weight: 1, Sim: textual.SimJaroWinkler},
	}, 0.55)
	if err != nil {
		t.Fatal(err)
	}
	res := Resolve(d, blocks, m)
	q, err := res.Evaluate(d)
	if err != nil {
		t.Fatal(err)
	}
	if q.F1 < 0.5 {
		t.Errorf("end-to-end F1 = %v; pipeline should resolve most duplicates (P=%v R=%v)",
			q.F1, q.Precision, q.Recall)
	}
	if res.Compared >= d.TotalPairs() {
		t.Error("blocking should have reduced comparisons below all-pairs")
	}
}

func TestUnionFindLabelsDeterministic(t *testing.T) {
	uf := newUnionFind(6)
	uf.union(4, 5)
	uf.union(0, 1)
	uf.union(1, 2)
	labels, n := uf.labels()
	if n != 3 {
		t.Fatalf("clusters = %d, want 3", n)
	}
	if labels[0] != 0 || labels[3] == labels[0] {
		t.Errorf("labels not densely assigned in element order: %v", labels)
	}
	if labels[0] != labels[2] {
		t.Error("transitive union failed")
	}
}
