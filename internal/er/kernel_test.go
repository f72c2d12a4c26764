package er

import (
	"math"
	"slices"
	"testing"

	"semblock/internal/datagen"
	"semblock/internal/record"
	"semblock/internal/textual"
)

// kernelFixture builds a dataset exercising every edge of the missing-value
// semantics plus a mixed sim configuration (two fast-path kinds, one
// generic).
func kernelFixture(t *testing.T) (*record.Dataset, *Matcher) {
	t.Helper()
	d := record.NewDataset("kernel")
	d.Append(0, map[string]string{"title": "deep learning", "authors": "smith, j", "venue": "icde"})
	d.Append(0, map[string]string{"title": "deep  learning", "authors": "smith j", "venue": "icde"})
	d.Append(1, map[string]string{"title": "database systems", "authors": "", "venue": "vldb"})
	d.Append(1, map[string]string{"title": "database systems"})
	d.Append(2, map[string]string{"title": "   ", "authors": "lee, k"})
	d.Append(2, map[string]string{"title": "", "authors": "lee k", "venue": "kdd"})
	m, err := NewMatcher([]AttrWeight{
		{Attr: "title", Weight: 0.5},
		{Attr: "authors", Weight: 0.3, Sim: textual.SimBigram},
		{Attr: "venue", Weight: 0.2, Sim: textual.SimJaroWinkler},
	}, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	return d, m
}

func TestKernelScoreMatchesMatcher(t *testing.T) {
	d, m := kernelFixture(t)
	k := NewKernel(m, d.Len())
	for _, r := range d.Records() {
		k.Featurize(r)
	}
	for i := 0; i < d.Len(); i++ {
		for j := i + 1; j < d.Len(); j++ {
			a, b := record.ID(i), record.ID(j)
			want := m.Score(d.Record(a), d.Record(b))
			if got := k.Score(a, b); got != want {
				t.Errorf("Kernel.Score(%d,%d) = %v, Matcher.Score = %v", i, j, got, want)
			}
		}
	}
}

func TestKernelScoreMatchesMatcherOnCora(t *testing.T) {
	cfg := datagen.DefaultCoraConfig()
	cfg.Records = 300
	d := datagen.Cora(cfg)
	m, err := NewMatcher([]AttrWeight{
		{Attr: "title", Weight: 0.6},
		{Attr: "authors", Weight: 0.4},
	}, 0.55)
	if err != nil {
		t.Fatal(err)
	}
	k := NewKernel(m, d.Len())
	for _, r := range d.Records() {
		k.Featurize(r)
	}
	for i := 0; i < d.Len(); i += 7 {
		for j := i + 1; j < d.Len(); j += 11 {
			a, b := record.ID(i), record.ID(j)
			want := m.Score(d.Record(a), d.Record(b))
			if got := k.Score(a, b); got != want {
				t.Fatalf("Kernel.Score(%d,%d) = %v, Matcher.Score = %v", i, j, got, want)
			}
		}
	}
}

func TestKernelScoreZeroAlloc(t *testing.T) {
	d, _ := kernelFixture(t)
	// Restrict to the fast-path sims: the generic fallback (jaro_winkler
	// etc.) is outside the zero-alloc guarantee.
	m2, err := NewMatcher([]AttrWeight{
		{Attr: "title", Weight: 0.6},
		{Attr: "authors", Weight: 0.4, Sim: textual.SimBigram},
	}, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	k := NewKernel(m2, d.Len())
	for _, r := range d.Records() {
		k.Featurize(r)
	}
	allocs := testing.AllocsPerRun(100, func() {
		k.Score(0, 1)
		k.Score(2, 3)
		k.Score(4, 5)
	})
	if allocs != 0 {
		t.Errorf("Kernel.Score allocates %v times per run, want 0", allocs)
	}
}

func TestKernelRefeaturizeOverwrites(t *testing.T) {
	_, m := kernelFixture(t)
	k := NewKernel(m, 2)
	d := record.NewDataset("re")
	r0 := d.Append(0, map[string]string{"title": "aaa"})
	d.Append(0, map[string]string{"title": "bbb"})
	k.Featurize(r0)
	k.Featurize(d.Record(1))
	before := k.Score(0, 1)
	r0.Attrs["title"] = "bbb"
	k.Featurize(r0)
	if after := k.Score(0, 1); after <= before || after != 1 {
		t.Errorf("re-featurize: score %v -> %v, want 1", before, after)
	}
}

// TestFeaturizeAllMatchesFeaturize checks that the parallel batch
// featurize leaves features that score every pair bitwise-equal to serial
// Featurize's, at every width, for records in any order and for a subset
// (the budgeted pipeline featurizes only the records its drain touches).
func TestFeaturizeAllMatchesFeaturize(t *testing.T) {
	cfg := datagen.DefaultCoraConfig()
	cfg.Records = 300
	d := datagen.Cora(cfg)
	m, err := NewMatcher([]AttrWeight{
		{Attr: "title", Weight: 0.5},
		{Attr: "authors", Weight: 0.3, Sim: textual.SimBigram},
		{Attr: "venue", Weight: 0.2, Sim: textual.SimJaroWinkler},
	}, 0.55)
	if err != nil {
		t.Fatal(err)
	}
	serial := NewKernel(m, d.Len())
	for _, r := range d.Records() {
		serial.Featurize(r)
	}
	reversed := slices.Clone(d.Records())
	slices.Reverse(reversed)
	odd := make([]*record.Record, 0, d.Len()/2)
	for _, r := range d.Records() {
		if r.ID%2 == 1 {
			odd = append(odd, r)
		}
	}
	for _, workers := range []int{1, 2, 3, 16} {
		for name, rs := range map[string][]*record.Record{"all": d.Records(), "reversed": reversed, "odd": odd} {
			k := NewKernel(m, 0)
			k.FeaturizeAll(rs, workers)
			if k.Len() != serial.Len() && name != "odd" {
				t.Fatalf("%s workers=%d: Len %d, want %d", name, workers, k.Len(), serial.Len())
			}
			for _, a := range rs {
				for _, b := range rs {
					if a.ID >= b.ID {
						continue
					}
					got, want := k.Score(a.ID, b.ID), serial.Score(a.ID, b.ID)
					if math.Float64bits(got) != math.Float64bits(want) {
						t.Fatalf("%s workers=%d: Score(%d,%d) = %v, serial %v", name, workers, a.ID, b.ID, got, want)
					}
				}
			}
		}
	}
}
