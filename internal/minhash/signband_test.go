package minhash

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"testing"
)

// signBandNaive is the shingle-major form of SignBand — sentinel fill, then
// every hash compared against every running minimum in memory — the
// test-only reference the kernel must equal bit for bit.
func signBandNaive(f *Family, hashes []uint64, lo, hi int, sig []uint64) {
	for i := lo; i < hi; i++ {
		sig[i] = emptyMin
	}
	for _, b := range hashes {
		for i := lo; i < hi; i++ {
			if h := eval(b, f.seeds[i]); h < sig[i] {
				sig[i] = h
			}
		}
	}
}

func shingleHashes(grams []string) []uint64 {
	hashes := make([]uint64, len(grams))
	for i, g := range grams {
		hashes[i] = ShingleHash(g)
	}
	return hashes
}

// checkSignBand signs [lo,hi) with the kernel and the oracle into
// canary-filled buffers and compares the whole buffers, so a write outside
// the range fails as loudly as a wrong minimum.
func checkSignBand(t testing.TB, f *Family, hashes []uint64, lo, hi int) {
	t.Helper()
	got, want := make([]uint64, f.Size()), make([]uint64, f.Size())
	for i := range got {
		got[i], want[i] = uint64(i)+1, uint64(i)+1
	}
	f.SignBand(hashes, lo, hi, got)
	signBandNaive(f, hashes, lo, hi, want)
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("len(hashes)=%d [%d,%d): component %d = %#x, oracle %#x", len(hashes), lo, hi, i, got[i], want[i])
		}
	}
}

// TestSignBandMatchesOracle sweeps every (len(hashes), lo, hi) shape of a
// small family — empty sets, every band width's unrolled body and scalar
// tail, bands of the k values the repository runs — plus duplicated hashes.
func TestSignBandMatchesOracle(t *testing.T) {
	const size = 19
	f := NewFamily(size, 7)
	rng := rand.New(rand.NewSource(1))
	for n := 0; n <= 9; n++ {
		hashes := make([]uint64, n)
		for i := range hashes {
			hashes[i] = rng.Uint64()
		}
		if n >= 4 {
			hashes[1], hashes[n-1] = hashes[0], hashes[2] // duplicates are harmless
		}
		for lo := 0; lo <= size; lo++ {
			for hi := lo; hi <= size; hi++ {
				checkSignBand(t, f, hashes, lo, hi)
			}
		}
	}
	for _, k := range []int{1, 2, 3, 4, 5, 6, 9} {
		const l = 7
		f := NewFamily(k*l, int64(k))
		hashes := make([]uint64, 40)
		for i := range hashes {
			hashes[i] = rng.Uint64()
		}
		for tb := 0; tb < l; tb++ {
			checkSignBand(t, f, hashes, tb*k, (tb+1)*k)
		}
		checkSignBand(t, f, hashes, 0, k*l)
	}
}

// FuzzSignBand: arbitrary hash bytes, family seed and range — the kernel
// equals the oracle.
func FuzzSignBand(f *testing.F) {
	f.Add([]byte{}, int64(1), uint8(0), uint8(4))
	f.Add([]byte("\x01\x02\x03\x04\x05\x06\x07\x08\x01\x02\x03\x04\x05\x06\x07\x08"), int64(7), uint8(3), uint8(9))
	f.Add([]byte("the cascade-correlation learning architecture"), int64(-3), uint8(0), uint8(31))
	f.Fuzz(func(t *testing.T, raw []byte, seed int64, a, b uint8) {
		const size = 32
		lo, hi := int(a)%(size+1), int(b)%(size+1)
		if lo > hi {
			lo, hi = hi, lo
		}
		hashes := make([]uint64, len(raw)/8)
		for i := range hashes {
			hashes[i] = binary.LittleEndian.Uint64(raw[i*8:])
		}
		checkSignBand(t, NewFamily(size, seed), hashes, lo, hi)
	})
}

var signSink uint64

// BenchmarkSignBand tracks the kernel at the three shapes the end-to-end
// benchmark runs it at — shingles × components of batch-cora (q=4 k=4
// l=63), the serve collections (q=3 k=6 l=12) and batch-voter (q=2 k=9
// l=15) — signed band by band as the signer does, in ns per hash evaluation.
func BenchmarkSignBand(b *testing.B) {
	for _, s := range []struct{ shingles, k, l int }{{85, 4, 63}, {97, 6, 12}, {13, 9, 15}} {
		b.Run(fmt.Sprintf("%dx%d", s.shingles, s.k*s.l), func(b *testing.B) {
			f := NewFamily(s.k*s.l, 1)
			rng := rand.New(rand.NewSource(2))
			hashes := make([]uint64, s.shingles)
			for i := range hashes {
				hashes[i] = rng.Uint64()
			}
			sig := make([]uint64, f.Size())
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for t := 0; t < s.l; t++ {
					f.SignBand(hashes, t*s.k, (t+1)*s.k, sig)
				}
				signSink += sig[i%len(sig)]
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(s.shingles*s.k*s.l), "ns/eval")
		})
	}
}
