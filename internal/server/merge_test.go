package server

import (
	"fmt"
	"runtime"
	"testing"
	"time"

	"semblock/internal/record"
	"semblock/internal/stream"
)

// floodRows returns n rows whose key attributes are empty: every one of
// them lands in the same bucket of every table, so n rows emit n(n-1)/2
// pairs — the most skewed bucket a workload can produce.
func floodRows(n int) []stream.Row {
	rows := make([]stream.Row, n)
	for i := range rows {
		rows[i] = stream.Row{Entity: record.EntityID(i), Attrs: map[string]string{"venue": fmt.Sprint(i)}}
	}
	return rows
}

// floodSpec is baseSpec without the semantic component: plain LSH files a
// record under one key per table, so the flood's raw collision pairs are
// exactly l per distinct pair, and the tests stay fast under -race.
func floodSpec(name string) CollectionSpec {
	spec := baseSpec(name, 2)
	spec.Semantic = nil
	return spec
}

// TestCanonicalSeqEqualsIngestOrder pins the fact the ledger-free merge
// relies on: every raw pair in InsertStaged's Group(i) has its higher ID
// equal to batch.IDs[i], so no pair can surface outside its higher-ID
// record's group, and the sequence canonicalSeqLocked rebuilds from the
// tables equals, element for element, what ingest emitted — for every shard
// count and batch size.
func TestCanonicalSeqEqualsIngestOrder(t *testing.T) {
	_, rows := coraFixture(t, 400)
	for _, shards := range []int{1, 2, 4} {
		for _, size := range []int{1, 7, 256} {
			t.Run(fmt.Sprintf("shards=%d/batch=%d", shards, size), func(t *testing.T) {
				c, err := newCollection(baseSpec("canon", shards))
				if err != nil {
					t.Fatal(err)
				}
				raw, err := newCollection(baseSpec("raw", shards))
				if err != nil {
					t.Fatal(err)
				}
				var drained []record.Pair
				for lo := 0; lo < len(rows); lo += size {
					batch := rows[lo:min(lo+size, len(rows))]
					if _, err := c.Ingest(batch); err != nil {
						t.Fatal(err)
					}
					drained = append(drained, c.Candidates()...)

					b := raw.log.Append(batch)
					for si, sh := range raw.shards {
						g := sh.InsertStaged(b)
						for i := 0; i < g.Len(); i++ {
							for _, p := range g.Group(i) {
								if p.Right() != b.IDs[i] {
									t.Fatalf("shard %d: pair (%d,%d) in the group of record %d", si, p.Left(), p.Right(), b.IDs[i])
								}
							}
						}
					}
				}
				c.mu.Lock()
				seq := c.canonicalSeqLocked()
				c.mu.Unlock()
				if len(seq) != len(drained) || len(seq) != c.PairCount() {
					t.Fatalf("canonical sequence has %d pairs, drains %d, PairCount %d", len(seq), len(drained), c.PairCount())
				}
				if len(seq) == 0 {
					t.Fatal("fixture emitted no pairs")
				}
				for i, p := range seq {
					if p != drained[i] {
						t.Fatalf("position %d: canonical (%d,%d), ingest emitted (%d,%d)",
							i, p.Left(), p.Right(), drained[i].Left(), drained[i].Right())
					}
					if i > 0 {
						q := seq[i-1]
						if p.Right() < q.Right() || (p.Right() == q.Right() && p.Left() <= q.Left()) {
							t.Fatalf("position %d: (%d,%d) does not follow (%d,%d) in (higher, lower) order",
								i, p.Left(), p.Right(), q.Left(), q.Right())
						}
					}
				}
			})
		}
	}
}

// TestRestoreSkewedBucket restores a collection whose every record shares
// one bucket in all l tables: the rebuild must reproduce the live
// collection's pair count and emission sequence exactly, within the time
// budget a cold start can afford.
func TestRestoreSkewedBucket(t *testing.T) {
	const n = 1000
	c, err := newCollection(floodSpec("flood"))
	if err != nil {
		t.Fatal(err)
	}
	rows := floodRows(n)
	for lo := 0; lo < n; lo += 100 {
		if _, err := c.Ingest(rows[lo : lo+100]); err != nil {
			t.Fatal(err)
		}
	}
	if want := n * (n - 1) / 2; c.PairCount() != want {
		t.Fatalf("flood emitted %d pairs, want %d", c.PairCount(), want)
	}
	dir := t.TempDir()
	if err := c.Save(dir); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	restored, err := LoadCollection(dir)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("restored %d pairs in %v", restored.PairCount(), time.Since(start))
	if restored.PairCount() != c.PairCount() {
		t.Fatalf("restored PairCount %d, live %d", restored.PairCount(), c.PairCount())
	}
	live, got := c.Candidates(), restored.Candidates()
	if len(got) != len(live) {
		t.Fatalf("restored drain has %d pairs, live %d", len(got), len(live))
	}
	for i := range live {
		if got[i] != live[i] {
			t.Fatalf("position %d: restored (%d,%d), live (%d,%d)",
				i, got[i].Left(), got[i].Right(), live[i].Left(), live[i].Right())
		}
	}
}

// TestAckWalkTrimIsLinear walks a 200k-pair backlog in 100-pair peek+ack
// steps. Each ack trims the released prefix; the trim must reslice rather
// than copy the whole retained tail each time, so the walk copies no more
// than twice the backlog in total instead of O(backlog²/step).
func TestAckWalkTrimIsLinear(t *testing.T) {
	c, err := newCollection(floodSpec("walk"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Ingest(floodRows(633)); err != nil {
		t.Fatal(err)
	}
	backlog := c.PairCount()
	if backlog < 200_000 {
		t.Fatalf("flood emitted %d pairs, want a 200k backlog", backlog)
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for cursor := 0; cursor < backlog; {
		w, err := c.PeekConsumer(DefaultConsumer)
		if err != nil {
			t.Fatal(err)
		}
		if w.Cursor != cursor || len(w.Pairs) != backlog-cursor {
			t.Fatalf("peek at cursor %d returned [%d, %d)", cursor, w.Cursor, w.Next)
		}
		cursor = min(cursor+100, backlog)
		if _, err := c.AckConsumer(DefaultConsumer, cursor); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	pairBytes := uint64(backlog) * 8
	if copied := after.TotalAlloc - before.TotalAlloc; copied > 2*pairBytes {
		t.Fatalf("acking a %d-pair backlog in 100-pair steps allocated %d bytes, want <= %d (2x the backlog)",
			backlog, copied, 2*pairBytes)
	}
	if st := c.Stats(); st.PendingPairs != 0 || st.DrainedPairs != backlog {
		t.Fatalf("after the walk: pending %d, drained %d, want 0, %d", st.PendingPairs, st.DrainedPairs, backlog)
	}
}
