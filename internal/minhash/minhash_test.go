package minhash

import (
	"math"
	"testing"

	"semblock/internal/textual"
)

func TestSignatureDeterministic(t *testing.T) {
	f := NewFamily(32, 42)
	grams := textual.QGrams("cascade correlation", 2)
	a := f.Signature(grams)
	b := f.Signature(grams)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("signature not deterministic at %d", i)
		}
	}
	// A different seed yields (almost surely) different signatures.
	g := NewFamily(32, 43)
	c := g.Signature(grams)
	same := 0
	for i := range a {
		if a[i] == c[i] {
			same++
		}
	}
	if same == len(a) {
		t.Error("different seeds should give different signatures")
	}
}

func TestSignatureOrderInsensitive(t *testing.T) {
	f := NewFamily(16, 1)
	a := f.Signature([]string{"ab", "bc", "cd"})
	b := f.Signature([]string{"cd", "ab", "bc", "ab"}) // shuffled + dup
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("signature depends on gram order/multiplicity at %d", i)
		}
	}
}

func TestIdenticalStringsAgreeFully(t *testing.T) {
	f := NewFamily(64, 5)
	a := f.Signature(textual.QGrams("qing wang", 3))
	b := f.Signature(textual.QGrams("qing wang", 3))
	if got := Agreement(a, b); got != 1 {
		t.Errorf("Agreement of identical = %v, want 1", got)
	}
}

func TestEmptyShingleSets(t *testing.T) {
	f := NewFamily(8, 5)
	a := f.Signature(nil)
	b := f.Signature(nil)
	if Agreement(a, b) != 1 {
		t.Error("two empty sets should agree fully")
	}
	c := f.Signature([]string{"ab"})
	if Agreement(a, c) != 0 {
		t.Error("empty vs non-empty should not agree")
	}
}

func TestAgreementLengthMismatch(t *testing.T) {
	if Agreement([]uint64{1}, []uint64{1, 2}) != 0 {
		t.Error("mismatched lengths must return 0")
	}
	if Agreement(nil, nil) != 0 {
		t.Error("empty signatures must return 0")
	}
}

// TestAgreementEstimatesJaccard is the statistical property at the heart of
// minhash: E[Agreement] = Jaccard. With 512 functions the standard error is
// ~ sqrt(p(1-p)/512) <= 0.022, so a 0.08 tolerance gives a stable test.
func TestAgreementEstimatesJaccard(t *testing.T) {
	f := NewFamily(512, 99)
	pairs := [][2]string{
		{"the cascade-correlation learning architecture", "cascade correlation learning architecture"},
		{"qing wang", "wang qing"},
		{"entity resolution", "entity resolutio"},
		{"abcdefgh", "ijklmnop"},
	}
	for _, p := range pairs {
		ga, gb := textual.QGrams(p[0], 2), textual.QGrams(p[1], 2)
		want := textual.QGramJaccard(p[0], p[1], 2)
		got := Agreement(f.Signature(ga), f.Signature(gb))
		if math.Abs(got-want) > 0.08 {
			t.Errorf("Agreement(%q,%q) = %v, want ≈ %v", p[0], p[1], got, want)
		}
	}
}

func TestSignatureInto(t *testing.T) {
	f := NewFamily(8, 3)
	grams := []string{"ab", "bc"}
	buf := make([]uint64, 8)
	f.SignatureInto(grams, buf)
	want := f.Signature(grams)
	for i := range buf {
		if buf[i] != want[i] {
			t.Fatalf("SignatureInto differs at %d", i)
		}
	}
}

func TestBandKey(t *testing.T) {
	slice := []uint64{1, 2, 3}
	if BandKey(0, slice) == BandKey(1, slice) {
		t.Error("band index must participate in the key")
	}
	if BandKey(0, slice) != BandKey(0, []uint64{1, 2, 3}) {
		t.Error("BandKey must be deterministic")
	}
	if BandKey(0, []uint64{1, 2, 3}) == BandKey(0, []uint64{1, 2, 4}) {
		t.Error("different slices should (almost surely) have different keys")
	}
}

// TestSignatureSubsetInto checks that signing a component range equals the
// full signature on that range and leaves everything outside it untouched —
// the interchangeability property band-at-a-time signing relies on.
func TestSignatureSubsetInto(t *testing.T) {
	f := NewFamily(24, 42)
	grams := textual.QGrams("cascade correlation learning", 2)
	full := f.Signature(grams)
	hashes := shingleHashes(grams)

	const canary = 0xdeadbeef
	for _, r := range [][2]int{{2, 4}, {10, 19}, {22, 24}, {0, 24}, {7, 7}} {
		sub := make([]uint64, f.Size())
		for i := range sub {
			sub[i] = canary
		}
		f.SignBand(hashes, r[0], r[1], sub)
		for i := range sub {
			switch in := i >= r[0] && i < r[1]; {
			case in && sub[i] != full[i]:
				t.Errorf("range %v component %d: band %d, full %d", r, i, sub[i], full[i])
			case !in && sub[i] != canary:
				t.Errorf("range %v wrote component %d outside it", r, i)
			}
		}
	}

	// Empty shingle set: every signed component at the sentinel.
	sub := make([]uint64, f.Size())
	f.SignBand(nil, 3, 12, sub)
	for i := 3; i < 12; i++ {
		if sub[i] != emptyMin {
			t.Errorf("empty-set component %d = %d, want sentinel", i, sub[i])
		}
	}
}

// TestSignatureFromHashes checks the staged two-step form (base hashes once,
// then SignBand per band) reproduces the direct computation exactly — the
// property the shared-log serving layer relies on to hash each record's
// shingles once for all table shards.
func TestSignatureFromHashes(t *testing.T) {
	f := NewFamily(24, 42)
	grams := textual.QGrams("cascade correlation learning", 2)
	full := f.Signature(grams)
	hashes := shingleHashes(grams)

	for _, k := range []int{1, 2, 3, 4, 6, 8, 12, 24} {
		staged := make([]uint64, f.Size())
		for lo := 0; lo < f.Size(); lo += k {
			f.SignBand(hashes, lo, lo+k, staged)
		}
		for i := range staged {
			if staged[i] != full[i] {
				t.Errorf("k=%d: banded component %d = %d, direct %d", k, i, staged[i], full[i])
			}
		}
	}
}
