// Package metablocking implements the meta-blocking framework of Papadakis
// et al. (TKDE 26(8), 2014), the comparison system of the paper's Fig. 12:
// a blocking graph is built over an existing (redundancy-positive) block
// collection, edges are weighted by one of five schemes (ARCS, CBS, ECBS,
// JS, EJS), and one of four pruning algorithms (WEP, CEP, WNP, CNP)
// restructures the collection into its final candidate comparisons.
//
// The graph is stored flat: a single open-addressing slot index (the PR 6
// bucket-store layout — power-of-two capacity, SplitMix64 pre-mix, linear
// probing) maps each pair onto a dense edge index, and every per-edge
// accumulator (common-block count, ARCS reciprocal sum, final weight) is a
// parallel slice over those indices. Building the graph therefore costs
// O(1) amortised allocations per edge instead of one map entry per pair
// across three maps, and the same store doubles as the progressive
// scheduler's weight pass: TopWeighted/RankPairs heap-select the heaviest
// edges for best-first budgeted matching (internal/pipeline.WithBudget)
// without any additional per-edge state.
package metablocking

import (
	"fmt"
	"math"
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

// mix64 is the SplitMix64 finalizer, the same key diffusion the engine
// bucket store applies before probing.
func mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// Graph is the blocking graph: one weighted edge per distinct record pair
// co-occurring in at least one block. Edges live in a flat open-addressing
// store (see the package comment); the edge order is first-touch (block
// scan) order, and every derived output is explicitly sorted, so results
// are deterministic regardless of that internal order.
type Graph struct {
	scheme WeightScheme

	// slots is the open-addressing pair index: each slot holds 1+edge
	// index, 0 marks empty. Capacity is a power of two; rehash at 3/4 load.
	slots []uint32
	mask  uint64

	// Parallel per-edge accumulators, indexed by the dense edge index.
	pairs   []record.Pair
	common  []int32   // |B_i ∩ B_j|
	arcs    []float64 // Σ 1/cmp(b) over common blocks; only built for ARCS
	weights []float64 // final scheme weight

	blocksOf    []int32 // |B_i| per record ID (dense, grown on demand)
	totalAssign int64   // Σ_b |b|
	numNodes    int
}

// edgeIndex returns the dense index of pair p, inserting a fresh edge when
// p is new.
func (g *Graph) edgeIndex(p record.Pair) int {
	j := mix64(uint64(p)) & g.mask
	for {
		s := g.slots[j]
		if s == 0 {
			break
		}
		if g.pairs[s-1] == p {
			return int(s - 1)
		}
		j = (j + 1) & g.mask
	}
	if (len(g.pairs)+1)*4 > len(g.slots)*3 {
		g.grow()
		j = mix64(uint64(p)) & g.mask
		for g.slots[j] != 0 {
			j = (j + 1) & g.mask
		}
	}
	idx := len(g.pairs)
	g.pairs = append(g.pairs, p)
	g.common = append(g.common, 0)
	if g.arcs != nil {
		g.arcs = append(g.arcs, 0)
	}
	g.slots[j] = uint32(idx) + 1
	return idx
}

// grow doubles the slot array and re-files every edge.
func (g *Graph) grow() {
	slots := make([]uint32, len(g.slots)*2)
	mask := uint64(len(slots) - 1)
	for i, p := range g.pairs {
		j := mix64(uint64(p)) & mask
		for slots[j] != 0 {
			j = (j + 1) & mask
		}
		slots[j] = uint32(i) + 1
	}
	g.slots = slots
	g.mask = mask
}

// find returns the dense edge index of p, or -1 when p is not an edge.
func (g *Graph) find(p record.Pair) int {
	if len(g.slots) == 0 {
		return -1
	}
	j := mix64(uint64(p)) & g.mask
	for {
		s := g.slots[j]
		if s == 0 {
			return -1
		}
		if g.pairs[s-1] == p {
			return int(s - 1)
		}
		j = (j + 1) & g.mask
	}
}

// touchRecord bumps a record's block count, growing the dense counter
// array on demand.
func (g *Graph) touchRecord(id record.ID) {
	if int(id) >= len(g.blocksOf) {
		grown := make([]int32, int(id)+1)
		copy(grown, g.blocksOf)
		g.blocksOf = grown
	}
	if g.blocksOf[id] == 0 {
		g.numNodes++
	}
	g.blocksOf[id]++
}

// BuildGraph constructs the weighted blocking graph from a block
// collection. Block lists per record and per-pair common-block statistics
// are accumulated in one pass over the blocks, straight into the flat edge
// store — no intermediate maps are materialised.
func BuildGraph(res *blocking.Result, scheme WeightScheme) *Graph {
	g := &Graph{scheme: scheme}
	est := int(res.Comparisons())
	if est > 1<<22 {
		est = 1 << 22
	}
	slots := 16
	for slots*3/4 < est {
		slots *= 2
	}
	g.slots = make([]uint32, slots)
	g.mask = uint64(slots - 1)
	if est > 0 {
		g.pairs = make([]record.Pair, 0, est)
		g.common = make([]int32, 0, est)
	}
	if scheme == ARCS {
		g.arcs = make([]float64, 0, est)
	}

	for _, b := range res.Blocks {
		g.totalAssign += int64(len(b))
		cmp := float64(len(b)) * float64(len(b)-1) / 2
		for _, id := range b {
			g.touchRecord(id)
		}
		for i := 0; i < len(b); i++ {
			for j := i + 1; j < len(b); j++ {
				idx := g.edgeIndex(record.MakePair(b[i], b[j]))
				g.common[idx]++
				if g.arcs != nil && cmp > 0 {
					g.arcs[idx] += 1 / cmp
				}
			}
		}
	}

	// Node degrees for EJS (number of distinct neighbours).
	var degree []int32
	if scheme == EJS {
		degree = make([]int32, len(g.blocksOf))
		for _, p := range g.pairs {
			degree[p.Left()]++
			degree[p.Right()]++
		}
	}
	numBlocks := len(res.Blocks)
	numEdges := float64(len(g.pairs))

	g.weights = make([]float64, len(g.pairs))
	for idx, p := range g.pairs {
		cbs := int(g.common[idx])
		var w float64
		switch scheme {
		case ARCS:
			w = g.arcs[idx]
		case CBS:
			w = float64(cbs)
		case ECBS:
			w = float64(cbs) *
				math.Log(float64(numBlocks)/float64(g.blocksOf[p.Left()])) *
				math.Log(float64(numBlocks)/float64(g.blocksOf[p.Right()]))
		case JS:
			union := int(g.blocksOf[p.Left()]) + int(g.blocksOf[p.Right()]) - cbs
			if union > 0 {
				w = float64(cbs) / float64(union)
			}
		case EJS:
			union := int(g.blocksOf[p.Left()]) + int(g.blocksOf[p.Right()]) - cbs
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

// WeightOf returns the weight of the edge p and whether p is an edge.
func (g *Graph) WeightOf(p record.Pair) (float64, bool) {
	idx := g.find(p)
	if idx < 0 {
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

// selectTop keeps the k best of the streamed candidates using a bounded
// min-heap and returns them in best-first order. The input slice is used as
// scratch when it is at most k long.
func selectTop(stream func(yield func(WeightedPair)), n, k int) []WeightedPair {
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
	sort.Slice(h, func(i, j int) bool { return weightedLess(h[i], h[j]) })
	return h
}

// TopWeighted returns the k heaviest edges in best-first order (weight
// descending, pair ascending on ties) — the progressive scheduler's drain
// sequence. k <= 0 or k >= NumEdges returns every edge, fully ordered.
// Selection streams the flat weight slice through a bounded min-heap, so a
// small budget over a huge graph costs O(E log k), not an O(E log E) sort.
func (g *Graph) TopWeighted(k int) []WeightedPair {
	return selectTop(func(yield func(WeightedPair)) {
		for i, p := range g.pairs {
			yield(WeightedPair{Pair: p, Weight: g.weights[i]})
		}
	}, len(g.pairs), k)
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
// as a block collection of pairs (one block per retained edge), the final
// output of meta-blocking.
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
	blocks := make([][]record.ID, len(kept))
	for i, p := range kept {
		blocks[i] = []record.ID{p.Left(), p.Right()}
	}
	return blocking.NewResult(name, blocks)
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
	record.SortPairs(kept)
	return kept
}

func (g *Graph) pruneCEP() []record.Pair {
	k := int(g.totalAssign / 2)
	if k <= 0 || len(g.pairs) == 0 {
		return nil
	}
	top := g.TopWeighted(k)
	kept := make([]record.Pair, len(top))
	for i, wp := range top {
		kept[i] = wp.Pair
	}
	record.SortPairs(kept)
	return kept
}

// adjacency builds the per-node incident edge-index lists as one flat
// CSR-style layout: edges[off[id]:off[id+1]] are node id's incident edges.
func (g *Graph) adjacency() (off []int32, edges []int32) {
	n := len(g.blocksOf)
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

func (g *Graph) pruneWNP() []record.Pair {
	off, edges := g.adjacency()
	keep := record.NewPairSet(len(g.pairs) / 2)
	for id := 0; id < len(g.blocksOf); id++ {
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
				keep.AddPair(g.pairs[ei])
			}
		}
	}
	return keep.Slice()
}

func (g *Graph) pruneCNP() []record.Pair {
	k := 1
	if g.numNodes > 0 {
		if kk := int(g.totalAssign) / g.numNodes; kk > k {
			k = kk
		}
	}
	off, edges := g.adjacency()
	keep := record.NewPairSet(len(g.pairs) / 2)
	for id := 0; id < len(g.blocksOf); id++ {
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
			keep.AddPair(g.pairs[ei])
		}
	}
	return keep.Slice()
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
