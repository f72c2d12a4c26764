package engine

import (
	"bytes"
	"fmt"
	"testing"

	"semblock/internal/record"
)

// mapTable is the map-backed bucket store the flat open-addressing Table
// replaced, kept verbatim as the test oracle: for any insert sequence the
// flat store must reproduce its bucket contents, its first-touch export
// order, and its Insert return values exactly.
type mapTable struct {
	index   map[uint64]int32
	buckets []mapBucket
}

type mapBucket struct {
	key uint64
	ids []record.ID
}

func newMapTable() *mapTable {
	return &mapTable{index: make(map[uint64]int32)}
}

func (t *mapTable) Insert(key uint64, id record.ID) []record.ID {
	if i, ok := t.index[key]; ok {
		b := &t.buckets[i]
		prior := b.ids
		b.ids = append(b.ids, id)
		return prior
	}
	t.index[key] = int32(len(t.buckets))
	t.buckets = append(t.buckets, mapBucket{key: key, ids: []record.ID{id}})
	return nil
}

func (t *mapTable) blocks(minSize int) [][]record.ID {
	var out [][]record.ID
	for i := range t.buckets {
		if len(t.buckets[i].ids) >= minSize {
			out = append(out, t.buckets[i].ids)
		}
	}
	return out
}

// applyOps decodes the fuzz payload into an insert/reset sequence and
// drives both stores, failing on the first divergence. Each 3-byte chunk is
// one op: 0xFF in the first byte resets both tables, anything else inserts
// id=b2 under the 16-bit key b0<<8|b1 — a keyspace small enough to force
// collisions and large enough to force slot-array growth.
func applyOps(t *testing.T, data []byte) {
	t.Helper()
	flat := NewTable(0)
	oracle := newMapTable()
	for i := 0; i+3 <= len(data); i += 3 {
		if data[i] == 0xFF {
			flat.Reset()
			oracle = newMapTable()
			continue
		}
		key := uint64(data[i])<<8 | uint64(data[i+1])
		id := record.ID(data[i+2])
		gotPrior := flat.Insert(key, id)
		wantPrior := oracle.Insert(key, id)
		if !idsEqual(gotPrior, wantPrior) {
			t.Fatalf("op %d: Insert(%d, %d) prior members = %v, oracle %v", i/3, key, id, gotPrior, wantPrior)
		}
	}
	if flat.Len() != len(oracle.buckets) {
		t.Fatalf("bucket count %d, oracle %d", flat.Len(), len(oracle.buckets))
	}
	if got, want := flat.Shared(), len(oracle.blocks(2)); got != want {
		t.Fatalf("%d buckets with two or more members, oracle %d", got, want)
	}
	// First-touch export order and bucket contents must match exactly.
	j := 0
	flat.Buckets(func(key uint64, ids []record.ID) {
		ob := oracle.buckets[j]
		if key != ob.key || !idsEqual(ids, ob.ids) {
			t.Fatalf("bucket %d: (%d, %v), oracle (%d, %v)", j, key, ids, ob.key, ob.ids)
		}
		j++
	})
	// The export routine must agree too, for every copy mode.
	for _, copyIDs := range []bool{false, true} {
		got := AppendBlocks(nil, flat, 2, copyIDs)
		want := oracle.blocks(2)
		if len(got) != len(want) {
			t.Fatalf("copy=%v: %d blocks, oracle %d", copyIDs, len(got), len(want))
		}
		for b := range got {
			if !idsEqual(got[b], want[b]) {
				t.Fatalf("copy=%v: block %d = %v, oracle %v", copyIDs, b, got[b], want[b])
			}
		}
	}
}

func idsEqual(a, b []record.ID) bool {
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

// FuzzTableParity feeds random insert/reset sequences to the flat bucket
// store and the retired map-backed oracle; any divergence in bucket
// contents, first-touch order, or Insert return values fails. Run with
// `go test -fuzz=FuzzTableParity ./internal/engine`; the seed corpus under
// testdata/fuzz exercises growth, collisions, resets and duplicate IDs even
// in plain `go test` runs.
func FuzzTableParity(f *testing.F) {
	// Dense collisions in a tiny keyspace.
	f.Add(bytes.Repeat([]byte{0, 1, 2}, 40))
	// Enough distinct keys to force several slot-array doublings.
	var grow []byte
	for i := 0; i < 400; i++ {
		grow = append(grow, byte(i>>8), byte(i), byte(i%7))
	}
	f.Add(grow)
	// Reset in the middle of a build.
	f.Add([]byte{0, 1, 1, 0, 1, 2, 0xFF, 0, 0, 0, 1, 3, 0, 2, 4})
	// Duplicate IDs in one bucket.
	f.Add([]byte{0, 9, 5, 0, 9, 5, 0, 9, 5, 0, 9, 6})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 1<<16 {
			return
		}
		applyOps(t, data)
	})
}

// TestTableOracleRandom drives long pseudo-random sequences through the
// parity check outside the fuzzer, so regular CI runs cover deep growth
// (tens of thousands of buckets) that the seed corpus keeps small.
func TestTableOracleRandom(t *testing.T) {
	rng := uint64(12345)
	next := func() uint64 { // xorshift64
		rng ^= rng << 13
		rng ^= rng >> 7
		rng ^= rng << 17
		return rng
	}
	for _, n := range []int{10, 1000, 60000} {
		t.Run(fmt.Sprintf("ops=%d", n), func(t *testing.T) {
			data := make([]byte, 3*n)
			for i := range data {
				data[i] = byte(next())
			}
			// Strip accidental resets so this run stresses growth.
			for i := 0; i < len(data); i += 3 {
				if data[i] == 0xFF {
					data[i] = 0
				}
			}
			applyOps(t, data)
		})
	}
}
