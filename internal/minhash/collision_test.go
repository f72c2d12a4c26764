package minhash

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"semblock/internal/textual"
)

// TestFamilyCollisionModel is the statistical gate of the hash family: the
// §5.1 collision model, measured. For a pair of shingle sets of Jaccard
// similarity J, a component agrees with probability J and a band of k
// components with probability J^k — over the draw of the family, so the
// unit of the experiment is an independently seeded family, each
// contributing one band (k components). Both rates must sit within 4σ
// (binomial) of the model.
//
// Sets are fed as SignBand sees them (ShingleHash values): uniform 64-bit
// values, and real q-gram hashes chosen to be as structured as FNV-64a
// gets — every lowercase 2-gram in order, the 4-grams of sequentially
// numbered strings, and whole near-identical strings (down to three-shingle
// sets). A family that is not min-wise on such inputs fails here: the
// multiply without the per-shingle finaliser does, by 10σ on the smallest
// sets.
func TestFamilyCollisionModel(t *testing.T) {
	const families = 4096

	rng := rand.New(rand.NewSource(20160516))
	random := make([]uint64, 200)
	for i := range random {
		random[i] = rng.Uint64()
	}
	var twoGrams []string
	for a := 'a'; a <= 'z'; a++ {
		for b := 'a'; b <= 'z'; b++ {
			twoGrams = append(twoGrams, string([]rune{a, b}))
		}
	}
	var numbered []string
	for i := 0; i < 400; i++ {
		numbered = append(numbered, textual.QGrams(fmt.Sprintf("record %06d", 4090+i), 4)...)
	}
	pools := []struct {
		name   string
		hashes []uint64
	}{
		{"random", random},
		{"2-grams", distinct(shingleHashes(twoGrams))},
		{"numbered", distinct(shingleHashes(numbered))},
	}

	type pair struct {
		name string
		a, b []uint64
	}
	var pairs []pair
	// Exact Jaccard levels out of each pool: a union of 100 consecutive pool
	// entries, the first `shared` of them in both sets and the rest dealt
	// alternately, so neighbouring (most similar) hashes land on opposite
	// sides.
	for _, p := range pools {
		for _, shared := range []int{20, 44, 57, 71, 91} {
			a, b := append([]uint64(nil), p.hashes[:shared]...), append([]uint64(nil), p.hashes[:shared]...)
			for i := shared; i < 100; i++ {
				if i%2 == 0 {
					a = append(a, p.hashes[i])
				} else {
					b = append(b, p.hashes[i])
				}
			}
			pairs = append(pairs, pair{fmt.Sprintf("%s/J=0.%02d", p.name, shared), a, b})
		}
	}
	for _, s := range [][2]string{
		{"the cascade-correlation learning architecture", "cascade correlation learning architecture"},
		{"semantic-aware blocking for entity resolution", "semantic aware blocking for entity resolutoin"},
		{"voter 000123 main street 17", "voter 000124 main street 17"},
		{"aaaaaaaaaaaaaaab", "aaaaaaaaaaaaaaac"},
	} {
		for _, q := range []int{2, 3} {
			pairs = append(pairs, pair{fmt.Sprintf("%q~%q/q=%d", s[0], s[1], q),
				distinct(shingleHashes(textual.QGrams(s[0], q))), distinct(shingleHashes(textual.QGrams(s[1], q)))})
		}
	}

	for _, k := range []int{4, 6, 9} {
		fams := make([]*Family, families)
		for i := range fams {
			fams[i] = NewFamily(k, int64(k)*1_000_003+int64(i))
		}
		sa, sb := make([]uint64, k), make([]uint64, k)
		for _, p := range pairs {
			j := jaccard(p.a, p.b)
			comps, bands := 0, 0
			for _, f := range fams {
				f.SignBand(p.a, 0, k, sa)
				f.SignBand(p.b, 0, k, sb)
				agree := 0
				for i := range sa {
					if sa[i] == sb[i] {
						agree++
					}
				}
				comps += agree
				if agree == k {
					bands++
				}
			}
			within4Sigma(t, fmt.Sprintf("k=%d %s component", k, p.name), comps, families*k, j)
			within4Sigma(t, fmt.Sprintf("k=%d %s band", k, p.name), bands, families, math.Pow(j, float64(k)))
		}
	}
}

// within4Sigma checks a binomial count against its model probability; the
// extra 1/n is the continuity allowance that keeps the bound meaningful
// when the expected count is a handful.
func within4Sigma(t *testing.T, what string, hits, n int, p float64) {
	t.Helper()
	got := float64(hits) / float64(n)
	tol := 4*math.Sqrt(p*(1-p)/float64(n)) + 1/float64(n)
	if math.Abs(got-p) > tol {
		t.Errorf("%s agreement = %.5f over %d trials, model %.5f ± %.5f", what, got, n, p, tol)
	}
}

func distinct(hashes []uint64) []uint64 {
	seen := make(map[uint64]bool, len(hashes))
	out := hashes[:0:0]
	for _, h := range hashes {
		if !seen[h] {
			seen[h] = true
			out = append(out, h)
		}
	}
	return out
}

// jaccard of two duplicate-free hash sets.
func jaccard(a, b []uint64) float64 {
	in := make(map[uint64]bool, len(a))
	for _, h := range a {
		in[h] = true
	}
	shared := 0
	for _, h := range b {
		if in[h] {
			shared++
		}
	}
	return float64(shared) / float64(len(a)+len(b)-shared)
}
