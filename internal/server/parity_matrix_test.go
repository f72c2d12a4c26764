package server

import (
	"fmt"
	"testing"

	"semblock/internal/lsh"
	"semblock/internal/pipeline"
	"semblock/internal/stream"
)

// TestParityMatrixWorkersShards is the parallelism-parity acceptance matrix:
// the batch Block, a Pipeline.Run, and a streamed Snapshot must produce the
// same candidate set at every worker count, and a shared-log collection the
// same set at every shard count — parallelism and sharding spread work, they
// never change results. The CI race job runs this under -race, so the matrix
// also exercises the stream indexer's striped dedup ledger, the collection's
// parallel per-record merge and the arena-backed signature paths for data
// races at every parallelism level.
func TestParityMatrixWorkersShards(t *testing.T) {
	d, rows := coraFixture(t, 250)
	spec := baseSpec("matrix", 1)
	cfg, err := spec.buildConfig()
	if err != nil {
		t.Fatal(err)
	}

	// Reference: single-worker batch Block.
	refCfg := cfg
	refCfg.Workers = 1
	refBlocker, err := lsh.New(refCfg)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := refBlocker.Block(d)
	if err != nil {
		t.Fatal(err)
	}
	wantPairs := ref.CandidatePairs()
	wantBlocks := canonical(ref.Blocks)
	if wantPairs.Len() == 0 {
		t.Fatal("reference run found no candidate pairs; fixture too small")
	}

	for _, workers := range []int{1, 2, 4, 8} {
		workers := workers
		wCfg := cfg
		wCfg.Workers = workers

		t.Run(fmt.Sprintf("block/workers=%d", workers), func(t *testing.T) {
			blocker, err := lsh.New(wCfg)
			if err != nil {
				t.Fatal(err)
			}
			res, err := blocker.Block(d)
			if err != nil {
				t.Fatal(err)
			}
			if !sameCanonical(canonical(res.Blocks), wantBlocks) {
				t.Fatalf("batch blocks at workers=%d differ from the single-worker run", workers)
			}
		})

		t.Run(fmt.Sprintf("pipeline/workers=%d", workers), func(t *testing.T) {
			blocker, err := lsh.New(wCfg)
			if err != nil {
				t.Fatal(err)
			}
			p, err := pipeline.New(blocker, pipeline.WithWorkers(workers))
			if err != nil {
				t.Fatal(err)
			}
			res, err := p.Run(d)
			if err != nil {
				t.Fatal(err)
			}
			got := res.Blocks.CandidatePairs()
			if got.Len() != wantPairs.Len() || got.Intersect(wantPairs) != wantPairs.Len() {
				t.Fatalf("pipeline at workers=%d: %d pairs, want %d (overlap %d)",
					workers, got.Len(), wantPairs.Len(), got.Intersect(wantPairs))
			}
		})

		t.Run(fmt.Sprintf("stream/workers=%d", workers), func(t *testing.T) {
			ix, err := stream.NewIndexer(wCfg, stream.WithWorkers(workers))
			if err != nil {
				t.Fatal(err)
			}
			ix.InsertBatch(rows)
			snap := ix.Snapshot()
			if !sameCanonical(canonical(snap.Blocks), wantBlocks) {
				t.Fatalf("stream snapshot at workers=%d differs from the batch run", workers)
			}
			if ix.PairCount() != wantPairs.Len() {
				t.Fatalf("stream ledger at workers=%d has %d pairs, want %d",
					workers, ix.PairCount(), wantPairs.Len())
			}
		})
	}

	for _, shards := range []int{1, 2, 4, 8} {
		shards := shards
		t.Run(fmt.Sprintf("collection/shards=%d", shards), func(t *testing.T) {
			c, err := newCollection(baseSpec("matrix", shards))
			if err != nil {
				t.Fatal(err)
			}
			if _, err := c.Ingest(rows); err != nil {
				t.Fatal(err)
			}
			if !sameCanonical(canonical(c.Snapshot().Blocks), wantBlocks) {
				t.Fatalf("collection snapshot at shards=%d differs from the batch run", shards)
			}
			if c.PairCount() != wantPairs.Len() {
				t.Fatalf("collection at shards=%d has %d pairs, want %d",
					shards, c.PairCount(), wantPairs.Len())
			}
		})
	}
}
