// Package metablocking implements the meta-blocking framework of Papadakis
// et al. (TKDE 26(8), 2014), the comparison system of the paper's Fig. 12:
// a blocking graph is built over an existing (redundancy-positive) block
// collection, edges are weighted by one of five schemes (ARCS, CBS, ECBS,
// JS, EJS), and one of four pruning algorithms (WEP, CEP, WNP, CNP)
// restructures the collection into its final candidate comparisons.
//
// The graph is built by the block collection's record-major walk
// (blocking.Result.Edges): for each record, every member of its blocks
// with a larger ID is counted in a dense accumulator, and the count a pair
// reaches is its common-block count — the CBS weight — with the ARCS sum
// accumulated beside it. Records are walked in parallel ranges whose
// outputs concatenate in record order, so the edges arrive already in
// ascending pair order and no pair index is ever built. The graph keeps
// them as parallel slices (pairs, weights) plus the walk's record→block
// CSR offsets, which give each record's block count. Lookups are binary
// searches, WEP and CEP scan the edges in order, and WNP and CNP mark
// edges, so every pruned collection comes out sorted without a sort. The
// same slices feed the progressive scheduler: TopWeighted/RankPairs
// heap-select the heaviest edges for best-first budgeted matching
// (internal/pipeline.WithBudget) without any additional per-edge state.
package metablocking

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"strings"

	"semblock/internal/blocking"
	"semblock/internal/record"
	"semblock/internal/textual"
)

// WeightScheme names an edge-weighting scheme.
type WeightScheme int

// The five weighting schemes of the meta-blocking paper.
const (
	// ARCS: aggregate reciprocal comparisons — Σ over common blocks of
	// 1 / (comparisons in block).
	ARCS WeightScheme = iota
	// CBS: number of common blocks.
	CBS
	// ECBS: CBS scaled by log-rarity of each record's block list.
	ECBS
	// JS: Jaccard coefficient of the two records' block lists.
	JS
	// EJS: JS scaled by log-rarity of each record's node degree.
	EJS
)

// String renders the scheme's canonical abbreviation.
func (w WeightScheme) String() string {
	switch w {
	case ARCS:
		return "ARCS"
	case CBS:
		return "CBS"
	case ECBS:
		return "ECBS"
	case JS:
		return "JS"
	case EJS:
		return "EJS"
	default:
		return fmt.Sprintf("WeightScheme(%d)", int(w))
	}
}

// Schemes lists all weighting schemes in report order.
func Schemes() []WeightScheme { return []WeightScheme{ARCS, CBS, ECBS, JS, EJS} }

// ParseScheme is the inverse of WeightScheme.String, ignoring case.
func ParseScheme(s string) (WeightScheme, error) {
	for _, w := range Schemes() {
		if strings.EqualFold(s, w.String()) {
			return w, nil
		}
	}
	return 0, fmt.Errorf("unknown weight scheme %q (want ARCS, CBS, ECBS, JS or EJS)", s)
}

// PruneAlgo names a pruning algorithm.
type PruneAlgo int

// The four pruning algorithms of the meta-blocking paper.
const (
	// WEP keeps edges weighing at least the global mean weight.
	WEP PruneAlgo = iota
	// CEP keeps the K heaviest edges, K = ⌊Σ_b |b| / 2⌋.
	CEP
	// WNP keeps, per node, edges weighing at least the node's local mean.
	WNP
	// CNP keeps, per node, the k heaviest incident edges,
	// k = max(1, ⌊Σ_b |b| / |V|⌋).
	CNP
)

// String renders the algorithm's canonical abbreviation.
func (p PruneAlgo) String() string {
	switch p {
	case WEP:
		return "WEP"
	case CEP:
		return "CEP"
	case WNP:
		return "WNP"
	case CNP:
		return "CNP"
	default:
		return fmt.Sprintf("PruneAlgo(%d)", int(p))
	}
}

// Algos lists all pruning algorithms in report order.
func Algos() []PruneAlgo { return []PruneAlgo{WEP, CEP, WNP, CNP} }

// ParseAlgo is the inverse of PruneAlgo.String, ignoring case.
func ParseAlgo(s string) (PruneAlgo, error) {
	for _, p := range Algos() {
		if strings.EqualFold(s, p.String()) {
			return p, nil
		}
	}
	return 0, fmt.Errorf("unknown prune algorithm %q (want WEP, CEP, WNP or CNP)", s)
}

// Graph is the blocking graph: one weighted edge per distinct record pair
// co-occurring in at least one block, held as parallel slices in ascending
// canonical pair order (see the package comment).
type Graph struct {
	scheme   WeightScheme
	pairs    []record.Pair // ascending
	weights  []float64     // final scheme weight, by edge
	rows     []int32       // record→block CSR offsets from the walk
	numNodes int           // records in at least one block
}

// blocksOf returns |B_id|, the number of blocks record id is in.
func (g *Graph) blocksOf(id record.ID) int32 { return g.rows[id+1] - g.rows[id] }

// numRecords is the largest record ID in any block + 1.
func (g *Graph) numRecords() int { return max(len(g.rows)-1, 0) }

// totalAssign is Σ_b |b|.
func (g *Graph) totalAssign() int {
	if len(g.rows) == 0 {
		return 0
	}
	return int(g.rows[len(g.rows)-1])
}

// BuildGraph constructs the weighted blocking graph from a block
// collection on engine.Workers(0) goroutines.
func BuildGraph(res *blocking.Result, scheme WeightScheme) *Graph {
	return BuildGraphWorkers(res, scheme, 0)
}

// BuildGraphWorkers is BuildGraph on at most `workers` goroutines (0 =
// engine.Workers(0)); the width never changes the graph. The collection's
// record-major walk (blocking.Result.Edges) yields every edge with its
// common-block count and ARCS sum, and this weighs them in one pass.
func BuildGraphWorkers(res *blocking.Result, scheme WeightScheme, workers int) *Graph {
	e := res.Edges(workers, scheme == ARCS)
	g := &Graph{scheme: scheme, pairs: e.Pairs, rows: e.Rows}
	for id := 0; id < g.numRecords(); id++ {
		if g.blocksOf(record.ID(id)) > 0 {
			g.numNodes++
		}
	}

	// Node degrees for EJS (number of distinct neighbours).
	var degree []int32
	if scheme == EJS {
		degree = make([]int32, g.numRecords())
		for _, p := range g.pairs {
			degree[p.Left()]++
			degree[p.Right()]++
		}
	}
	numBlocks := len(res.Blocks)
	numEdges := float64(len(g.pairs))

	g.weights = make([]float64, len(g.pairs))
	for idx, p := range g.pairs {
		cbs := int(e.Common[idx])
		var w float64
		switch scheme {
		case ARCS:
			w = e.ARCS[idx]
		case CBS:
			w = float64(cbs)
		case ECBS:
			w = float64(cbs) *
				math.Log(float64(numBlocks)/float64(g.blocksOf(p.Left()))) *
				math.Log(float64(numBlocks)/float64(g.blocksOf(p.Right())))
		case JS:
			union := int(g.blocksOf(p.Left())) + int(g.blocksOf(p.Right())) - cbs
			if union > 0 {
				w = float64(cbs) / float64(union)
			}
		case EJS:
			union := int(g.blocksOf(p.Left())) + int(g.blocksOf(p.Right())) - cbs
			js := 0.0
			if union > 0 {
				js = float64(cbs) / float64(union)
			}
			dl, dr := float64(degree[p.Left()]), float64(degree[p.Right()])
			if dl > 0 && dr > 0 && numEdges > 0 {
				w = js * math.Log(numEdges/dl) * math.Log(numEdges/dr)
			}
		}
		if w < 0 {
			w = 0
		}
		g.weights[idx] = w
	}
	return g
}

// NumEdges returns the number of edges in the graph.
func (g *Graph) NumEdges() int { return len(g.pairs) }

// Pairs returns the edges in ascending canonical order: the pairs of the
// collection the graph was built from. The slice is shared; callers must
// not modify it.
func (g *Graph) Pairs() []record.Pair { return g.pairs }

// WeightOf returns the weight of the edge p and whether p is an edge.
func (g *Graph) WeightOf(p record.Pair) (float64, bool) {
	idx, ok := slices.BinarySearch(g.pairs, p)
	if !ok {
		return 0, false
	}
	return g.weights[idx], true
}

// WeightedPair is one scored candidate edge of the progressive scheduler.
type WeightedPair struct {
	Pair   record.Pair
	Weight float64
}

// weightedLess orders candidates for best-first drain: heavier first, pair
// ascending on ties — fully deterministic for a fixed graph.
func weightedLess(a, b WeightedPair) bool {
	if a.Weight != b.Weight {
		return a.Weight > b.Weight
	}
	return a.Pair < b.Pair
}

// heapDown restores the min-heap property (the heap root is the *lightest*
// retained candidate, so a new heavier candidate evicts it in O(log k)).
func heapDown(h []WeightedPair, i int) {
	for {
		l, r := 2*i+1, 2*i+2
		min := i
		if l < len(h) && weightedLess(h[min], h[l]) {
			min = l
		}
		if r < len(h) && weightedLess(h[min], h[r]) {
			min = r
		}
		if min == i {
			return
		}
		h[i], h[min] = h[min], h[i]
		i = min
	}
}

// heapTop keeps the k best of the n streamed candidates (k <= 0 or k > n
// keeps all) in a bounded min-heap, returned unsorted with the worst kept
// candidate at index 0 once k were streamed.
func heapTop(stream func(yield func(WeightedPair)), n, k int) []WeightedPair {
	if k <= 0 || k > n {
		k = n
	}
	h := make([]WeightedPair, 0, k)
	stream(func(wp WeightedPair) {
		if len(h) < k {
			h = append(h, wp)
			if len(h) == k {
				for i := k/2 - 1; i >= 0; i-- {
					heapDown(h, i)
				}
			}
			return
		}
		if weightedLess(wp, h[0]) {
			h[0] = wp
			heapDown(h, 0)
		}
	})
	return h
}

// selectTop is heapTop in best-first order.
func selectTop(stream func(yield func(WeightedPair)), n, k int) []WeightedPair {
	h := heapTop(stream, n, k)
	sort.Slice(h, func(i, j int) bool { return weightedLess(h[i], h[j]) })
	return h
}

// edges streams every edge with its weight, in pair order.
func (g *Graph) edges(yield func(WeightedPair)) {
	for i, p := range g.pairs {
		yield(WeightedPair{Pair: p, Weight: g.weights[i]})
	}
}

// TopWeighted returns the k heaviest edges in best-first order (weight
// descending, pair ascending on ties) — the progressive scheduler's drain
// sequence. k <= 0 or k >= NumEdges returns every edge, fully ordered.
// Selection streams the flat weight slice through a bounded min-heap, so a
// small budget over a huge graph costs O(E log k), not an O(E log E) sort.
func (g *Graph) TopWeighted(k int) []WeightedPair {
	return selectTop(g.edges, len(g.pairs), k)
}

// RankPairs orders an arbitrary candidate-pair subset best-first under the
// graph's weights, truncated to the k best (k <= 0 keeps all). Pairs that
// are not graph edges weigh 0 — they can only appear after every true edge.
// The pipeline uses this to drain a pruned collection's survivors in
// descending weight order under a comparison budget.
func (g *Graph) RankPairs(pairs []record.Pair, k int) []WeightedPair {
	return selectTop(func(yield func(WeightedPair)) {
		for _, p := range pairs {
			w, _ := g.WeightOf(p)
			yield(WeightedPair{Pair: p, Weight: w})
		}
	}, len(pairs), k)
}

// Prune applies the pruning algorithm and returns the retained comparisons
// as a block collection of pairs (one block per retained edge, ascending),
// the final output of meta-blocking. The result's Pairs are the survivors.
func (g *Graph) Prune(algo PruneAlgo) *blocking.Result {
	name := fmt.Sprintf("meta-%s-%s", algo, g.scheme)
	var kept []record.Pair
	switch algo {
	case WEP:
		kept = g.pruneWEP()
	case CEP:
		kept = g.pruneCEP()
	case WNP:
		kept = g.pruneWNP()
	case CNP:
		kept = g.pruneCNP()
	}
	return blocking.NewPairResult(name, kept)
}

func (g *Graph) pruneWEP() []record.Pair {
	if len(g.pairs) == 0 {
		return nil
	}
	var sum float64
	for _, w := range g.weights {
		sum += w
	}
	mean := sum / float64(len(g.weights))
	var kept []record.Pair
	for i, w := range g.weights {
		if w >= mean {
			kept = append(kept, g.pairs[i])
		}
	}
	return kept
}

// pruneCEP keeps the K best edges: every edge at least as good as the K-th
// best, in pair order.
func (g *Graph) pruneCEP() []record.Pair {
	k := g.totalAssign() / 2
	if k <= 0 || len(g.pairs) == 0 {
		return nil
	}
	h := heapTop(g.edges, len(g.pairs), k)
	worst := h[0]
	kept := make([]record.Pair, 0, len(h))
	g.edges(func(wp WeightedPair) {
		if wp == worst || weightedLess(wp, worst) {
			kept = append(kept, wp.Pair)
		}
	})
	return kept
}

// adjacency builds the per-node incident edge-index lists as one flat
// CSR-style layout: edges[off[id]:off[id+1]] are node id's incident edges.
func (g *Graph) adjacency() (off []int32, edges []int32) {
	n := g.numRecords()
	deg := make([]int32, n+1)
	for _, p := range g.pairs {
		deg[p.Left()+1]++
		deg[p.Right()+1]++
	}
	for i := 1; i <= n; i++ {
		deg[i] += deg[i-1]
	}
	off = deg
	edges = make([]int32, off[n])
	next := make([]int32, n)
	for i := range next {
		next[i] = off[i]
	}
	for ei, p := range g.pairs {
		edges[next[p.Left()]] = int32(ei)
		next[p.Left()]++
		edges[next[p.Right()]] = int32(ei)
		next[p.Right()]++
	}
	return off, edges
}

// keptPairs returns the marked edges' pairs, ascending.
func (g *Graph) keptPairs(keep []bool) []record.Pair {
	var kept []record.Pair
	for i, ok := range keep {
		if ok {
			kept = append(kept, g.pairs[i])
		}
	}
	return kept
}

func (g *Graph) pruneWNP() []record.Pair {
	off, edges := g.adjacency()
	keep := make([]bool, len(g.pairs))
	for id := 0; id < g.numRecords(); id++ {
		inc := edges[off[id]:off[id+1]]
		if len(inc) == 0 {
			continue
		}
		var sum float64
		for _, ei := range inc {
			sum += g.weights[ei]
		}
		mean := sum / float64(len(inc))
		for _, ei := range inc {
			if g.weights[ei] >= mean {
				keep[ei] = true
			}
		}
	}
	return g.keptPairs(keep)
}

func (g *Graph) pruneCNP() []record.Pair {
	k := 1
	if g.numNodes > 0 {
		if kk := g.totalAssign() / g.numNodes; kk > k {
			k = kk
		}
	}
	off, edges := g.adjacency()
	keep := make([]bool, len(g.pairs))
	for id := 0; id < g.numRecords(); id++ {
		inc := edges[off[id]:off[id+1]]
		if len(inc) == 0 {
			continue
		}
		sort.Slice(inc, func(i, j int) bool {
			wi, wj := g.weights[inc[i]], g.weights[inc[j]]
			if wi != wj {
				return wi > wj
			}
			return g.pairs[inc[i]] < g.pairs[inc[j]]
		})
		top := k
		if top > len(inc) {
			top = len(inc)
		}
		for _, ei := range inc[:top] {
			keep[ei] = true
		}
	}
	return g.keptPairs(keep)
}

// TokenBlocking builds the redundancy-positive input block collection meta-
// blocking conventionally starts from: one block per distinct token
// appearing in the given attributes. Blocks larger than maxBlock are purged
// (standard block purging; 0 = default 2500).
func TokenBlocking(d *record.Dataset, attrs []string, maxBlock int) *blocking.Result {
	if maxBlock <= 0 {
		maxBlock = 2500
	}
	idx := blocking.NewKeyIndex()
	for _, r := range d.Records() {
		seen := make(map[string]struct{})
		for _, a := range attrs {
			for _, tok := range textual.Tokens(r.Value(a)) {
				if _, ok := seen[tok]; ok {
					continue
				}
				seen[tok] = struct{}{}
				idx.Add(tok, r.ID)
			}
		}
	}
	return idx.Result("token-blocking", maxBlock)
}
