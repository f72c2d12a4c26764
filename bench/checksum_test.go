package main

import (
	"math/rand"
	"testing"
)

func TestPairSumOrderIndependent(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	pairs := make([][2]int32, 5000)
	for i := range pairs {
		pairs[i] = [2]int32{rng.Int31n(1 << 20), rng.Int31n(1 << 20)}
	}
	var a, b pairSum
	for _, p := range pairs {
		a.add(p[0], p[1])
	}
	rng.Shuffle(len(pairs), func(i, j int) { pairs[i], pairs[j] = pairs[j], pairs[i] })
	for _, p := range pairs {
		b.add(p[1], p[0]) // and the two IDs swapped: a pair is unordered
	}
	if a != b {
		t.Errorf("same pairs, different order: %v vs %v", a, b)
	}
}

func TestPairSumSeesLossAndDuplication(t *testing.T) {
	var ref pairSum
	for i := int32(0); i < 1000; i++ {
		ref.add(i, i+1)
	}
	lost, dup, swapped := ref, ref, pairSum{}
	lost = pairSum{}
	for i := int32(0); i < 999; i++ {
		lost.add(i, i+1)
	}
	dup.add(5, 6)
	for i := int32(0); i < 1000; i++ {
		if i == 17 {
			swapped.add(17, 19) // one pair replaced by another: same count
			continue
		}
		swapped.add(i, i+1)
	}
	for name, s := range map[string]pairSum{"a lost pair": lost, "a duplicated pair": dup, "a replaced pair": swapped} {
		if s == ref {
			t.Errorf("%s leaves the digest unchanged", name)
		}
	}
	// A pair delivered twice cancels in the xor but not in count and sum.
	if dup.N != ref.N+1 || dup.Sum == ref.Sum {
		t.Errorf("duplicate not visible in count/sum: %v vs %v", dup, ref)
	}
}
