package lsh

import (
	"errors"
	"fmt"
	"testing"

	"semblock/internal/datagen"
	"semblock/internal/record"
	"semblock/internal/semantic"
	"semblock/internal/taxonomy"
)

// coraFixture builds a mid-size synthetic Cora dataset plus its semhash
// schema for the parallel-engine tests.
func coraFixture(t *testing.T, n int) (*record.Dataset, *semantic.Schema) {
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

// TestBlockDeterministicOrder asserts the engine's stronger-than-seed
// guarantee: the block *order* (not just the multiset) is identical across
// worker counts.
func TestBlockDeterministicOrder(t *testing.T) {
	d, _ := coraFixture(t, 300)
	var want [][]record.ID
	for _, workers := range []int{1, 3, 8} {
		b, err := New(Config{Attrs: []string{"authors", "title"}, Q: 3, K: 2, L: 12, Seed: 5, Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		res, err := b.Block(d)
		if err != nil {
			t.Fatal(err)
		}
		if want == nil {
			want = res.Blocks
			continue
		}
		if fmt.Sprint(res.Blocks) != fmt.Sprint(want) {
			t.Fatalf("workers=%d changed block order", workers)
		}
	}
}

// TestSparseIDsRejected covers the dense-ID guard: a dataset whose record
// IDs are not 0..n-1 must yield a typed *SparseIDError instead of silently
// blocking with mis-assigned signatures.
func TestSparseIDsRejected(t *testing.T) {
	d := record.NewDataset("sparse")
	d.Append(0, map[string]string{"title": "a record"})
	d.Append(1, map[string]string{"title": "another record"})
	d.Records()[1].ID = 5 // simulate an externally mutated / hand-built dataset

	b, err := New(Config{Attrs: []string{"title"}, Q: 2, K: 2, L: 4, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	_, err = b.Block(d)
	var sparse *SparseIDError
	if !errors.As(err, &sparse) {
		t.Fatalf("Block returned %v, want *SparseIDError", err)
	}
	if sparse.Index != 1 || sparse.ID != 5 || sparse.Dataset != "sparse" {
		t.Fatalf("error fields = %+v", sparse)
	}
	if _, err := NewSigner(Config{Attrs: []string{"title"}, Q: 2, K: 2, L: 4}); err != nil {
		t.Fatal(err)
	}
	if err := ValidateDenseIDs(d); err == nil {
		t.Fatal("ValidateDenseIDs accepted sparse dataset")
	}
	d.Records()[1].ID = 1
	if err := ValidateDenseIDs(d); err != nil {
		t.Fatalf("ValidateDenseIDs rejected dense dataset: %v", err)
	}
	if _, err := b.Block(d); err != nil {
		t.Fatalf("Block failed on repaired dataset: %v", err)
	}
}
