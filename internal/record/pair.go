package record

import "slices"

// Pair is an unordered pair of record IDs packed into one uint64 with the
// smaller ID in the high word. Packing keeps candidate-pair sets compact and
// makes pairs directly usable as map keys.
type Pair uint64

// MakePair builds a canonical pair from two record IDs (order-insensitive).
func MakePair(a, b ID) Pair {
	if a > b {
		a, b = b, a
	}
	return Pair(uint64(uint32(a))<<32 | uint64(uint32(b)))
}

// Left returns the smaller record ID of the pair.
func (p Pair) Left() ID { return ID(p >> 32) }

// Right returns the larger record ID of the pair.
func (p Pair) Right() ID { return ID(p & 0xffffffff) }

// SortPairs sorts pairs in ascending canonical order — by the smaller ID,
// then the larger — the one pair sort of the tree.
func SortPairs(ps []Pair) {
	slices.Sort(ps)
}

// PairSet is a set of distinct record pairs.
type PairSet map[Pair]struct{}

// NewPairSet returns an empty pair set with room for n pairs.
func NewPairSet(n int) PairSet { return make(PairSet, n) }

// Add inserts the pair (a,b). Self-pairs are ignored.
func (s PairSet) Add(a, b ID) {
	if a == b {
		return
	}
	s[MakePair(a, b)] = struct{}{}
}

// AddPair inserts an already-canonical pair.
func (s PairSet) AddPair(p Pair) { s[p] = struct{}{} }

// Has reports whether the pair (a,b) is in the set.
func (s PairSet) Has(a, b ID) bool {
	_, ok := s[MakePair(a, b)]
	return ok
}

// Len returns the number of distinct pairs.
func (s PairSet) Len() int { return len(s) }

// Slice returns the pairs in sorted order.
func (s PairSet) Slice() []Pair {
	out := make([]Pair, 0, len(s))
	for p := range s {
		out = append(out, p)
	}
	SortPairs(out)
	return out
}

// Intersect returns the number of pairs present in both sets.
func (s PairSet) Intersect(other PairSet) int {
	small, large := s, other
	if len(large) < len(small) {
		small, large = large, small
	}
	n := 0
	for p := range small {
		if _, ok := large[p]; ok {
			n++
		}
	}
	return n
}
