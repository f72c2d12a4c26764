package server

import (
	"fmt"
	"testing"

	"semblock/internal/stream"
)

// BenchmarkCollectionIngest measures the serving layer's in-process ingest
// path (no HTTP): one iteration is one 256-record batch through
// Collection.Ingest plus a candidate drain, with the shard count as the
// sub-benchmark axis. With the shared record log, allocs/op should stay
// near-flat as shards grow — the per-record q-gram + semhash stage runs
// once per record regardless of the shard count and the record log is
// stored once per collection; only the (partitioned) table work fans out.
// scripts/bench.sh records these numbers in BENCH_pipeline.json alongside
// the HTTP-level BenchmarkServerIngest.
func BenchmarkCollectionIngest(b *testing.B) {
	const batch = 256
	_, rows := coraFixture(b, 1024)
	var batches [][]stream.Row
	for lo := 0; lo < len(rows); lo += batch {
		hi := lo + batch
		if hi > len(rows) {
			hi = len(rows)
		}
		batches = append(batches, rows[lo:hi])
	}
	for _, shards := range []int{1, 4, 8} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			spec := baseSpec("bench", shards)
			spec.L = 16 // room for 8 shards at the benchmark scale
			var c *Collection
			inserted := 0
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if i%len(batches) == 0 {
					// Fresh collection each pass over the dataset, so the
					// index never grows beyond one dataset worth of records.
					b.StopTimer()
					var err error
					if c, err = newCollection(spec); err != nil {
						b.Fatal(err)
					}
					b.StartTimer()
				}
				ids, err := c.Ingest(batches[i%len(batches)])
				if err != nil {
					b.Fatal(err)
				}
				c.Candidates()
				inserted += len(ids)
			}
			b.ReportMetric(float64(inserted)/float64(b.N), "records/op")
		})
	}
}

// BenchmarkCollectionRestore measures a cold restore: one iteration is one
// LoadCollection of a 10k-record Cora checkpoint — segment decode, the
// pair-free table replay, and the record-major rebuild of the canonical
// emission sequence. The checkpoint is written once, outside the timer.
func BenchmarkCollectionRestore(b *testing.B) {
	_, rows := coraFixture(b, 10_000)
	c, err := newCollection(baseSpec("restore", 4))
	if err != nil {
		b.Fatal(err)
	}
	if _, err := c.Ingest(rows); err != nil {
		b.Fatal(err)
	}
	dir := b.TempDir()
	if err := c.Save(dir); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		restored, err := LoadCollection(dir)
		if err != nil {
			b.Fatal(err)
		}
		if restored.PairCount() != c.PairCount() {
			b.Fatalf("restored %d pairs, saved %d", restored.PairCount(), c.PairCount())
		}
	}
	b.ReportMetric(float64(c.PairCount()), "pairs")
}
