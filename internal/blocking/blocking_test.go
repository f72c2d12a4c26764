package blocking

import (
	"testing"

	"semblock/internal/record"
)

func TestNewResultDropsSingletons(t *testing.T) {
	r := NewResult("x", [][]record.ID{{1}, {2, 3}, {}, {4, 5, 6}})
	if r.NumBlocks() != 2 {
		t.Fatalf("NumBlocks = %d, want 2", r.NumBlocks())
	}
	if r.Technique != "x" {
		t.Errorf("Technique = %q", r.Technique)
	}
}

func TestResultComparisons(t *testing.T) {
	r := NewResult("x", [][]record.ID{{1, 2, 3}, {4, 5}, {1, 2}})
	// 3 + 1 + 1 = 5 redundant comparisons.
	if got := r.Comparisons(); got != 5 {
		t.Errorf("Comparisons = %d, want 5", got)
	}
}

func TestResultCandidatePairsDistinct(t *testing.T) {
	r := NewResult("x", [][]record.ID{{1, 2, 3}, {1, 2}})
	ps := r.CandidatePairs()
	if ps.Len() != 3 { // (1,2),(1,3),(2,3); (1,2) deduplicated
		t.Fatalf("distinct pairs = %d, want 3", ps.Len())
	}
	// Cached: second call returns the same underlying set.
	ps.Add(98, 99)
	if r.CandidatePairs().Len() != 4 {
		t.Error("CandidatePairs should return the cached set")
	}
}

func TestResultCovers(t *testing.T) {
	r := NewResult("x", [][]record.ID{{1, 2}, {3, 4}})
	if !r.Covers(2, 1) {
		t.Error("Covers(2,1) should hold")
	}
	if r.Covers(1, 3) {
		t.Error("Covers(1,3) should not hold")
	}
}

func TestMaxBlockSize(t *testing.T) {
	r := NewResult("x", [][]record.ID{{1, 2}, {3, 4, 5, 6}})
	if got := r.MaxBlockSize(); got != 4 {
		t.Errorf("MaxBlockSize = %d, want 4", got)
	}
	if got := NewResult("x", nil).MaxBlockSize(); got != 0 {
		t.Errorf("empty MaxBlockSize = %d, want 0", got)
	}
}

func TestKeyIndex(t *testing.T) {
	k := NewKeyIndex()
	k.Add("a", 1)
	k.Add("a", 1) // consecutive duplicate ignored
	k.Add("a", 2)
	k.Add("b", 3)
	k.Add("c", 4)
	k.Add("c", 5)
	k.Add("c", 6)
	if k.Len() != 3 {
		t.Fatalf("Len = %d, want 3", k.Len())
	}
	keys := k.Keys()
	if len(keys) != 3 || keys[0] != "a" || keys[2] != "c" {
		t.Errorf("Keys = %v", keys)
	}
	if got := len(k.Bucket("a")); got != 2 {
		t.Errorf("bucket a size = %d, want 2", got)
	}
	res := k.Result("kb", 0)
	if res.NumBlocks() != 2 { // "b" is a singleton
		t.Errorf("NumBlocks = %d, want 2", res.NumBlocks())
	}
}

func TestKeyIndexMaxBlockSize(t *testing.T) {
	k := NewKeyIndex()
	for i := 0; i < 10; i++ {
		k.Add("big", record.ID(i))
	}
	k.Add("small", 100)
	k.Add("small", 101)
	res := k.Result("kb", 5)
	if res.NumBlocks() != 1 {
		t.Fatalf("oversized block should be pruned, got %d blocks", res.NumBlocks())
	}
	if len(res.Blocks[0]) != 2 {
		t.Errorf("kept block = %v", res.Blocks[0])
	}
}

func TestKeyIndexDeduplicatesWithinBucket(t *testing.T) {
	k := NewKeyIndex()
	k.Add("x", 2)
	k.Add("x", 1)
	k.Add("x", 2) // non-consecutive duplicate
	res := k.Result("kb", 0)
	if res.NumBlocks() != 1 || len(res.Blocks[0]) != 2 {
		t.Fatalf("blocks = %v, want single [1 2]", res.Blocks)
	}
	if res.Blocks[0][0] != 1 || res.Blocks[0][1] != 2 {
		t.Errorf("block = %v, want sorted [1 2]", res.Blocks[0])
	}
}

// TestEdgesLeavesPairsCache checks that a graph's walk does not cache its
// edge list on the collection (a kept result would hold it for good),
// while Pairs walks once and caches.
func TestEdgesLeavesPairsCache(t *testing.T) {
	r := NewResult("x", [][]record.ID{{3, 1, 2}, {1, 2}})
	for _, w := range []int{1, 2} {
		if e := r.Edges(w, false); len(e.Pairs) != 3 {
			t.Fatalf("workers=%d: %d edges, want 3", w, len(e.Pairs))
		}
		if r.walked || r.sorted != nil {
			t.Fatalf("workers=%d: Edges filled the Pairs cache", w)
		}
	}
	want := []record.Pair{record.MakePair(1, 2), record.MakePair(1, 3), record.MakePair(2, 3)}
	got := r.PairsWorkers(2)
	if len(got) != len(want) {
		t.Fatalf("Pairs = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Pairs = %v, want %v", got, want)
		}
	}
	if !r.walked || &r.Pairs()[0] != &got[0] {
		t.Error("Pairs should return the cached list")
	}
}
