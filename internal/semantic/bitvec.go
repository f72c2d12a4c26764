package semantic

import (
	"math/bits"
	"strings"
)

// BitVec is a fixed-width bit vector; bit i corresponds to semhash function
// g_i (equivalently, to the i-th concept of the schema's feature set C).
type BitVec struct {
	n     int
	words []uint64
}

// NewBitVec returns an all-zero vector of n bits.
func NewBitVec(n int) BitVec {
	return BitVec{n: n, words: make([]uint64, (n+63)/64)}
}

// Len returns the number of bits.
func (v BitVec) Len() int { return v.n }

// Set sets bit i to 1.
func (v BitVec) Set(i int) { v.words[i/64] |= 1 << (i % 64) }

// Get reports whether bit i is 1.
func (v BitVec) Get(i int) bool { return v.words[i/64]&(1<<(i%64)) != 0 }

// Words returns the vector's backing words, bit i at words[i/64] bit i%64;
// (Len()+63)/64 of them. The slice is shared with the vector.
func (v BitVec) Words() []uint64 { return v.words }

// OnesCount returns the number of set bits.
func (v BitVec) OnesCount() int {
	n := 0
	for _, w := range v.words {
		n += bits.OnesCount64(w)
	}
	return n
}

// CommonOnes returns the number of positions where both vectors are 1.
func (v BitVec) CommonOnes(o BitVec) int {
	n := 0
	for i := range v.words {
		n += bits.OnesCount64(v.words[i] & o.words[i])
	}
	return n
}

// Jaccard computes the Jaccard coefficient between the set-bit sets of the
// two vectors: |v∧o| / |v∨o|. Two all-zero vectors have similarity 1.
func (v BitVec) Jaccard(o BitVec) float64 {
	inter, union := 0, 0
	for i := range v.words {
		inter += bits.OnesCount64(v.words[i] & o.words[i])
		union += bits.OnesCount64(v.words[i] | o.words[i])
	}
	if union == 0 {
		return 1
	}
	return float64(inter) / float64(union)
}

// String renders the vector as a bit string, most significant feature last
// (bit 0 first), e.g. "01010".
func (v BitVec) String() string {
	var b strings.Builder
	b.Grow(v.n)
	for i := 0; i < v.n; i++ {
		if v.Get(i) {
			b.WriteByte('1')
		} else {
			b.WriteByte('0')
		}
	}
	return b.String()
}
