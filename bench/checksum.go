package main

import "fmt"

// pairSum is an order-independent digest of a multiset of record pairs: the
// count plus the wrapping sum and the xor of a 64-bit mix of every pair.
// Two pair streams with equal pairSums hold the same multiset with
// overwhelming probability, in whatever order and batching they arrived —
// which is what lets pairs read off an SSE stream be compared with a batch
// Block run without keeping either side in memory. A duplicated pair moves
// count and sum, a lost one likewise, so equality with a duplicate-free
// reference also proves exactly-once delivery.
type pairSum struct {
	N   uint64 `json:"n"`
	Sum uint64 `json:"sum"`
	Xor uint64 `json:"xor"`
}

// add folds the unordered pair {a,b} into the digest.
func (s *pairSum) add(a, b int32) {
	if a > b {
		a, b = b, a
	}
	h := mix64(uint64(uint32(a))<<32 | uint64(uint32(b)))
	s.N++
	s.Sum += h
	s.Xor ^= h
}

func (s pairSum) String() string { return fmt.Sprintf("n=%d sum=%016x xor=%016x", s.N, s.Sum, s.Xor) }

// mix64 is the SplitMix64 finaliser.
func mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}
