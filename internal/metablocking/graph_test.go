package metablocking

import (
	"math"
	"reflect"
	"slices"
	"testing"

	"semblock/internal/blocking"
	"semblock/internal/datagen"
	"semblock/internal/record"
)

// checkAgainstOracle builds the graph of res under every scheme, on several
// widths, and requires it to agree with the hash-table oracle: the same
// edges with the same common counts and bitwise-equal ARCS sums and
// weights, the same WeightOf answers (misses included), TopWeighted and
// RankPairs sequences, and the same Prune blocks under all four
// algorithms. The one tolerated difference is WEP's and WNP's float mean,
// which now adds the weights in pair order rather than first-touch order:
// an edge whose weight lies within rounding of that mean may flip, and
// checkPrune verifies that is the only kind of difference.
func checkAgainstOracle(t *testing.T, res *blocking.Result, workers ...int) {
	t.Helper()
	ref := oracleBuildGraph(res, ARCS)
	want := slices.Clone(ref.pairs)
	record.SortPairs(want)
	idx := make(map[record.Pair]int, len(ref.pairs))
	for i, p := range ref.pairs {
		idx[p] = i
	}

	for _, w := range append([]int{1}, workers...) {
		e := res.Edges(w, true)
		if !slices.Equal(e.Pairs, want) {
			t.Fatalf("workers=%d: walk found %d edges, oracle %d (or a different set/order)", w, len(e.Pairs), len(want))
		}
		for j, p := range e.Pairs {
			i := idx[p]
			if e.Common[j] != ref.common[i] {
				t.Fatalf("workers=%d: common%v = %d, oracle %d", w, p, e.Common[j], ref.common[i])
			}
			if math.Float64bits(e.ARCS[j]) != math.Float64bits(ref.arcs[i]) {
				t.Fatalf("workers=%d: ARCS%v = %v, oracle %v", w, p, e.ARCS[j], ref.arcs[i])
			}
		}
		if !slices.Equal(res.Pairs(), want) {
			t.Fatalf("Pairs() differs from the oracle's edges")
		}
		if cand := res.CandidatePairs().Slice(); !slices.Equal(cand, want) && len(cand)+len(want) > 0 {
			t.Fatalf("Pairs() = %d pairs, CandidatePairs %d", len(want), len(cand))
		}
	}

	misses := []record.Pair{record.MakePair(0, 1), record.MakePair(1, 2), record.MakePair(7, 1<<20)}
	if len(want) > 0 {
		last := want[len(want)-1]
		misses = append(misses, record.MakePair(last.Left(), last.Right()+1), record.MakePair(0, want[0].Left()))
	}
	for _, scheme := range Schemes() {
		o := oracleBuildGraph(res, scheme)
		g := BuildGraph(res, scheme)
		for _, w := range workers {
			gw := BuildGraphWorkers(res, scheme, w)
			if !slices.Equal(gw.pairs, g.pairs) || !slices.Equal(gw.weights, g.weights) {
				t.Fatalf("%s: workers=%d changed the graph", scheme, w)
			}
		}
		if g.NumEdges() != o.NumEdges() {
			t.Fatalf("%s: %d edges, oracle %d", scheme, g.NumEdges(), o.NumEdges())
		}
		for i, p := range o.pairs {
			got, ok := g.WeightOf(p)
			if !ok || math.Float64bits(got) != math.Float64bits(o.weights[i]) {
				t.Fatalf("%s: w%v = %v,%v, oracle %v", scheme, p, got, ok, o.weights[i])
			}
		}
		for _, p := range misses {
			gw, gok := g.WeightOf(p)
			ow, ook := o.WeightOf(p)
			if gw != ow || gok != ook {
				t.Fatalf("%s: WeightOf(%v) = %v,%v, oracle %v,%v", scheme, p, gw, gok, ow, ook)
			}
		}
		for _, k := range []int{0, 1, 3, len(want) / 2} {
			if got, exp := g.TopWeighted(k), o.TopWeighted(k); !reflect.DeepEqual(got, exp) {
				t.Fatalf("%s: TopWeighted(%d) differs from the oracle", scheme, k)
			}
		}
		subset := append(slices.Clone(misses), want[:len(want)/3]...)
		sorted := slices.Clone(subset)
		slices.Sort(sorted)
		sorted = slices.Compact(sorted)
		for _, pairs := range [][]record.Pair{subset, sorted, want} {
			for _, k := range []int{0, 2} {
				if got, exp := g.RankPairs(pairs, k), o.RankPairs(pairs, k); !reflect.DeepEqual(got, exp) {
					t.Fatalf("%s: RankPairs(%d pairs, %d) differs from the oracle", scheme, len(pairs), k)
				}
			}
		}
		for _, algo := range Algos() {
			checkPrune(t, g, o, algo)
		}
	}
}

// checkPrune compares one pruned collection with the oracle's.
func checkPrune(t *testing.T, g *Graph, o *oracleGraph, algo PruneAlgo) {
	t.Helper()
	got, exp := g.Prune(algo), o.Prune(algo)
	if got.Technique != exp.Technique {
		t.Fatalf("technique %q, oracle %q", got.Technique, exp.Technique)
	}
	pairs := make([]record.Pair, len(got.Blocks))
	for i, b := range got.Blocks {
		pairs[i] = record.MakePair(b[0], b[1])
	}
	if !slices.Equal(got.Pairs(), pairs) || !slices.IsSorted(pairs) {
		t.Fatalf("%s: Pairs() is not the ascending pair list of the blocks", got.Technique)
	}
	if reflect.DeepEqual(got.Blocks, exp.Blocks) {
		return
	}
	if g.scheme == CBS || (algo != WEP && algo != WNP) {
		t.Fatalf("%s: %d blocks, oracle %d", got.Technique, len(got.Blocks), len(exp.Blocks))
	}
	// A float mean: every differing edge must sit at a mean it is compared
	// with, within rounding.
	diff := symmetricDiff(got.Pairs(), exp.Pairs())
	for _, p := range diff {
		w, _ := o.WeightOf(p)
		if !nearMean(o, algo, p, w) {
			t.Fatalf("%s: edge %v (w=%v) flipped away from any mean", got.Technique, p, w)
		}
	}
	t.Logf("%s: %d boundary edge(s) flipped by the mean's summation order", got.Technique, len(diff))
}

// nearMean reports whether w is within rounding of the mean p is pruned
// against: the global mean for WEP, either endpoint's local mean for WNP.
func nearMean(o *oracleGraph, algo PruneAlgo, p record.Pair, w float64) bool {
	near := func(ws []float64) bool {
		var sum float64
		for _, x := range ws {
			sum += x
		}
		mean := sum / float64(len(ws))
		return math.Abs(w-mean) <= 1e-9*math.Max(1, math.Abs(mean))
	}
	if algo == WEP {
		return near(o.weights)
	}
	for _, id := range []record.ID{p.Left(), p.Right()} {
		var ws []float64
		for i, q := range o.pairs {
			if q.Left() == id || q.Right() == id {
				ws = append(ws, o.weights[i])
			}
		}
		if near(ws) {
			return true
		}
	}
	return false
}

func symmetricDiff(a, b []record.Pair) []record.Pair {
	var out []record.Pair
	i, j := 0, 0
	for i < len(a) || j < len(b) {
		switch {
		case j == len(b) || (i < len(a) && a[i] < b[j]):
			out = append(out, a[i])
			i++
		case i == len(a) || b[j] < a[i]:
			out = append(out, b[j])
			j++
		default:
			i++
			j++
		}
	}
	return out
}

// fuzzBlocks decodes a block collection from fuzz bytes. The first byte
// picks the ID spacing (dense, sparse or large) and whether singleton and
// empty blocks are kept; then each block is a size byte followed by that
// many member bytes, in the order given (members are not sorted, and
// repeats within a block are dropped, since a block is a set). A size
// byte with the high bit set repeats an earlier block instead.
func fuzzBlocks(data []byte) *blocking.Result {
	if len(data) == 0 {
		return blocking.NewResult("fuzz", nil)
	}
	mode := data[0]
	scale, offset := []record.ID{1, 37, 251, 3}[mode&3], record.ID(0)
	if mode&4 != 0 {
		offset = 1 << 15
	}
	var blocks [][]record.ID
	for i := 1; i < len(data); {
		size := data[i]
		i++
		if size&0x80 != 0 {
			if len(blocks) > 0 {
				blocks = append(blocks, slices.Clone(blocks[int(size&0x7f)%len(blocks)]))
			}
			continue
		}
		size %= 12
		var b []record.ID
		for ; size > 0 && i < len(data); size-- {
			id := offset + record.ID(data[i])*scale
			i++
			if !slices.Contains(b, id) {
				b = append(b, id)
			}
		}
		blocks = append(blocks, b)
	}
	if mode&8 != 0 {
		return &blocking.Result{Technique: "fuzz", Blocks: blocks}
	}
	return blocking.NewResult("fuzz", blocks)
}

// graphSeeds are the fuzz corpus: the toy collection, unsorted blocks,
// one record in many blocks, duplicate blocks, sparse and large IDs,
// size-2 blocks only, raw singleton and empty blocks, and empty input.
var graphSeeds = [][]byte{
	{0, 2, 0, 1, 3, 0, 1, 2, 3, 3, 4, 5},
	{0, 5, 9, 3, 7, 1, 4, 4, 8, 2, 6, 0, 3, 5, 1, 9},
	{0, 3, 0, 1, 2, 3, 0, 3, 4, 3, 0, 5, 6, 2, 0, 7, 4, 8, 0, 9, 10},
	{0, 3, 1, 2, 3, 0x80, 0x80, 2, 2, 3, 0x81},
	{1, 4, 200, 3, 90, 17, 3, 3, 90, 255},
	{6, 4, 200, 3, 90, 17, 3, 3, 90, 255, 2, 17, 200},
	{0, 2, 0, 1, 2, 1, 2, 2, 2, 3, 2, 0, 3, 2, 0, 1},
	{8, 1, 5, 0, 2, 5, 6, 3, 5, 6, 7},
	{0},
	{},
}

// FuzzBuildGraph compares the walk-built graph with the oracle on arbitrary
// block collections.
func FuzzBuildGraph(f *testing.F) {
	for _, s := range graphSeeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		checkAgainstOracle(t, fuzzBlocks(data), 2, 3)
	})
}

// TestBuildGraphMatchesOracleOnCorpora runs the oracle comparison over
// token-blocked Cora and voter records: all 20 scheme × algo combinations,
// at widths where the walk splits into several chunks.
func TestBuildGraphMatchesOracleOnCorpora(t *testing.T) {
	cora := datagen.DefaultCoraConfig()
	cora.Records = 400
	voter := datagen.DefaultVoterConfig()
	voter.Records = 4000
	for name, res := range map[string]*blocking.Result{
		"cora":  TokenBlocking(datagen.Cora(cora), []string{"authors", "title"}, 0),
		"voter": TokenBlocking(datagen.Voter(voter), []string{"first_name", "last_name"}, 0),
	} {
		t.Run(name, func(t *testing.T) {
			if res.Comparisons() < 1<<16 {
				t.Fatalf("only %d comparisons: too few to split the walk", res.Comparisons())
			}
			checkAgainstOracle(t, res, 2, 3, 16)
		})
	}
}
