// Package minhash implements min-wise independent permutation signatures
// (Broder et al.), the textual-similarity LSH family of the paper's §5.1.
//
// A shingle (q-gram) x is hashed and finalised once, m(x) = ShingleHash(x);
// hash function h_i is one multiplication of that value by the family's
// i-th odd constant, h_i(x) = m(x)·c_i mod 2^64, and a record's signature
// component i is the minimum of h_i over its shingle set. Two records agree
// on component i with probability equal to the Jaccard similarity of their
// shingle sets, and on a band of k components with probability J^k — the
// only properties §5.1 asks of the family, and the ones
// TestFamilyCollisionModel measures.
package minhash

import (
	"math/rand"
)

// emptyMin is the signature component of an empty shingle set. Using the
// maximum value means two empty records agree (Jaccard(∅,∅)=1 by our
// convention) while an empty and a non-empty record almost surely disagree.
const emptyMin = ^uint64(0)

// Family is a set of n minhash functions: n fixed random odd multipliers.
type Family struct {
	seeds []uint64
}

// NewFamily creates n minhash functions derived deterministically from the
// given seed.
func NewFamily(n int, seed int64) *Family {
	rng := rand.New(rand.NewSource(seed))
	seeds := make([]uint64, n)
	for i := range seeds {
		seeds[i] = rng.Uint64() | 1 // odd: x ↦ x·c is then a bijection of Z/2^64
	}
	return &Family{seeds: seeds}
}

// Size returns the number of hash functions (the signature length).
func (f *Family) Size() int { return len(f.seeds) }

// baseHash maps a shingle to a 64-bit value. FNV-64a, written out so
// hashing a gram neither allocates a hasher nor copies the string to bytes
// (hash/fnv does both).
//
//semblock:hotpath
func baseHash(gram string) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(gram); i++ {
		h ^= uint64(gram[i])
		h *= prime64
	}
	return h
}

// BaseHash exposes the shingle base hash (FNV-64a) for callers that only
// compare shingles for equality (er.Kernel's set intersections). Signing
// needs ShingleHash.
func BaseHash(gram string) uint64 { return baseHash(gram) }

// ShingleHash is the value SignBand consumes for one shingle: the base hash
// put through the SplitMix64 finaliser. FNV-64a of two grams that differ in
// their last byte differs by a small multiple of the FNV prime, structure a
// bare multiplication would carry into every component; the finaliser
// removes it, once per shingle instead of once per evaluation. Callers that
// stream grams through textual.VisitQGrams (lsh.Signer's staging) call it
// per gram.
//
//semblock:hotpath
func ShingleHash(gram string) uint64 { return splitmix64(baseHash(gram)) }

// eval is hash function c applied to a finalised shingle hash m: the one
// definition every signing loop (SignBand, Signature2Into, the test oracle)
// goes through. c is odd, so m ↦ m·c permutes the 64-bit values, and the
// minimum is decided by the product's high bits — the ones every bit of m
// reaches through the carries.
//
//semblock:hotpath
func eval(m, c uint64) uint64 { return m * c }

// splitmix64 is the finalizer of the SplitMix64 generator: a cheap,
// high-quality 64-bit mixer.
//
//semblock:hotpath
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// Mix64 applies the SplitMix64 finalizer, the repository's standard 64-bit
// mixer, exported for key derivation outside the package (e.g. folding
// semhash bit indices into bucket keys).
func Mix64(x uint64) uint64 { return splitmix64(x) }

// Signature computes the minhash signature of a shingle multiset.
// Duplicate shingles are harmless (min is idempotent). The sig slice is
// allocated per call; use SignatureInto to reuse buffers in hot loops.
func (f *Family) Signature(grams []string) []uint64 {
	sig := make([]uint64, len(f.seeds))
	f.SignatureInto(grams, sig)
	return sig
}

// SignatureInto computes the signature into the provided slice, which must
// have length Size(): SignBand over every component of the grams' shingle
// hashes.
func (f *Family) SignatureInto(grams []string, sig []uint64) {
	hashes := make([]uint64, len(grams))
	for i, g := range grams {
		hashes[i] = ShingleHash(g)
	}
	f.SignBand(hashes, 0, len(f.seeds), sig)
}

// SignBand computes signature components [lo,hi) from precomputed shingle
// hashes (ShingleHash of every shingle) into sig[lo:hi]; nothing outside
// that range is written or read. It is the package's one min-over-seeds
// loop: a full signature is SignBand(hashes, 0, Size(), sig), a hash
// table's band is SignBand(hashes, t·k, (t+1)·k, sig), and because every
// component depends only on its own seed the two agree component for
// component. An empty hash set yields the empty-set sentinel.
//
// The loop is component-major: seeds are taken four at a time and the
// hashes streamed past them, so the four running minima live in registers
// for the whole pass — an evaluation is one multiply, one compare and one
// conditional move (the min builtin), with neither a load/store of sig[i]
// nor a data-dependent branch. The four chains are independent, which is
// what keeps the multiplier busy; a scalar tail covers (hi-lo) mod 4.
//
//semblock:hotpath
func (f *Family) SignBand(hashes []uint64, lo, hi int, sig []uint64) {
	seeds, out := f.seeds[lo:hi], sig[lo:hi]
	i := 0
	for ; i+4 <= len(seeds); i += 4 {
		s0, s1, s2, s3 := seeds[i], seeds[i+1], seeds[i+2], seeds[i+3]
		m0, m1, m2, m3 := emptyMin, emptyMin, emptyMin, emptyMin
		for _, b := range hashes {
			m0 = min(m0, eval(b, s0))
			m1 = min(m1, eval(b, s1))
			m2 = min(m2, eval(b, s2))
			m3 = min(m3, eval(b, s3))
		}
		out[i], out[i+1], out[i+2], out[i+3] = m0, m1, m2, m3
	}
	for ; i < len(seeds); i++ {
		s, m := seeds[i], emptyMin
		for _, b := range hashes {
			m = min(m, eval(b, s))
		}
		out[i] = m
	}
}

// Signature2Into computes, per hash function, the minimum and the second
// smallest distinct hash value over the shingle set. The second minimum is
// the natural perturbation target for multi-probe LSH: it is the value the
// minimum would take if the minimising shingle were absent. For shingle
// sets with fewer than two distinct hashes the second minimum is emptyMin.
// Both slices must have length Size().
//
//semblock:hotpath
func (f *Family) Signature2Into(grams []string, sig, sig2 []uint64) {
	for i := range sig {
		sig[i] = emptyMin
		sig2[i] = emptyMin
	}
	for _, g := range grams {
		b := ShingleHash(g)
		for i, s := range f.seeds {
			h := eval(b, s)
			switch {
			case h < sig[i]:
				sig2[i] = sig[i]
				sig[i] = h
			case h > sig[i] && h < sig2[i]:
				sig2[i] = h
			}
		}
	}
}

// Agreement returns the fraction of signature components on which the two
// signatures agree — an unbiased estimator of the Jaccard similarity of
// the underlying shingle sets.
//
//semblock:hotpath
func Agreement(a, b []uint64) float64 {
	if len(a) == 0 || len(a) != len(b) {
		return 0
	}
	n := 0
	for i := range a {
		if a[i] == b[i] {
			n++
		}
	}
	return float64(n) / float64(len(a))
}

// BandKey hashes one band (a k-slice of a signature) into a single bucket
// key. The band index participates so that equal slices in different bands
// do not collide across tables.
//
//semblock:hotpath
func BandKey(band int, slice []uint64) uint64 {
	h := splitmix64(uint64(band) ^ 0xabcdef1234567890)
	for _, v := range slice {
		h = splitmix64(h ^ v)
	}
	return h
}
