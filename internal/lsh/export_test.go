package lsh

import (
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"semblock/internal/engine"
	"semblock/internal/record"
)

// checkORExport files len(recs) records of one OR-mode table two ways and
// fails on the first divergence. Each byte of recs is one record, in ID
// order: its low three bits pick one of eight band keys, the next two how
// its semhash mask is drawn — empty, all bits set, one selected bit, or
// sparse random words. The one-key-per-table store files an active record
// once under its band key (Active), keeps a prior member as a collision
// iff Collide says so, and exports through AppendBlocks; the
// bucket-per-bit oracle files it under mixBit(band key, bit) for each
// selected set bit and exports with engine.AppendBlocks. Blocks (order
// included, in both copy modes) and each record's distinct collisions
// must agree.
func checkORExport(t *testing.T, seed int64, words, w int, recs []byte) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	s := &Signer{words: words, or: true, bits: [][]int{rng.Perm(words * 64)[:w]}, sel: make([]uint64, words)}
	for _, bit := range s.bits[0] {
		s.sel[bit/64] |= 1 << (bit % 64)
	}

	sems := make([]uint64, len(recs)*words)
	tb, oracle := engine.NewTable(0), engine.NewTable(0)
	var got, want []record.ID
	for i, b := range recs {
		id, key := record.ID(i), uint64(b&7)
		sem := sems[i*words : (i+1)*words]
		switch (b >> 3) & 3 {
		case 1:
			for j := range sem {
				sem[j] = ^uint64(0)
			}
		case 2:
			bit := s.bits[0][rng.Intn(w)]
			sem[bit/64] |= 1 << (bit % 64)
		case 3:
			for j := range sem {
				sem[j] = rng.Uint64() & rng.Uint64() & rng.Uint64()
			}
		}

		got = got[:0]
		if s.Active(0, sem) {
			for _, other := range tb.Insert(key, id) {
				if s.Collide(0, sems[int(other)*words:], sem) {
					got = append(got, other)
				}
			}
		}
		want = want[:0]
		for _, bit := range s.bits[0] {
			if sem[bit/64]&(1<<(bit%64)) != 0 {
				want = append(want, oracle.Insert(mixBit(key, bit), id)...)
			}
		}
		slices.Sort(want)
		if want = slices.Compact(want); !slices.Equal(got, want) {
			t.Fatalf("record %d (key %d, mask %x): collides with %v, bucket-per-bit %v", id, key, sem, got, want)
		}
	}

	wantBlocks := engine.AppendBlocks(nil, oracle, 2, false)
	for _, copyIDs := range []bool{false, true} {
		if gotBlocks := s.AppendBlocks(nil, 0, tb, sems, copyIDs); !reflect.DeepEqual(gotBlocks, wantBlocks) {
			t.Fatalf("copy=%v: export %v, bucket-per-bit %v", copyIDs, gotBlocks, wantBlocks)
		}
	}
}

// FuzzORExport checks the OR-mode storage — one key per table, the semhash
// beside the ID, collisions by mask and per-bit blocks split at export —
// against the bucket-per-bit definition over random band keys and masks,
// one- and multi-word (checkORExport). Run with
// `go test ./internal/lsh -run '^$' -fuzz FuzzORExport`.
func FuzzORExport(f *testing.F) {
	f.Add(int64(1), byte(11), []byte{0x10, 0x10, 0x11, 0x18, 0x08, 0x00, 0x19, 0x10})
	f.Add(int64(2), byte(0), []byte{0x18, 0x1a, 0x18, 0x1a, 0x19, 0x18})
	f.Add(int64(3), byte(40), []byte{0x08, 0x10, 0x18, 0x00, 0x09, 0x11, 0x19, 0x01, 0x0a, 0x12, 0x1a})
	f.Fuzz(func(t *testing.T, seed int64, shape byte, recs []byte) {
		if len(recs) > 1<<12 {
			return
		}
		words := 1 + int(shape%3)
		w := 1 + int(shape/3)%min(words*64, 40)
		checkORExport(t, seed, words, w, recs)
	})
}

// TestORExportRandom runs checkORExport over long pseudo-random record
// sequences outside the fuzzer, so plain test runs cover buckets that need
// the export's reordering at every width.
func TestORExportRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, words := range []int{1, 2, 3} {
		for _, w := range []int{1, 5, 12, 40} {
			recs := make([]byte, 2000)
			rng.Read(recs)
			checkORExport(t, int64(words*100+w), words, w, recs)
		}
	}
}
