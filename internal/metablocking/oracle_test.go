package metablocking

// oracle_test.go keeps the hash-table blocking graph that BuildGraph used
// before the record-major walk, verbatim apart from its identifiers: an
// open-addressed pair index filled block by block in first-touch order.
// The fuzz and fixture tests in graph_test.go compare the walk-built Graph
// against it edge for edge.

import (
	"fmt"
	"math"
	"sort"

	"semblock/internal/blocking"
	"semblock/internal/record"
)

// oracleMix64 is the SplitMix64 finalizer, the same key diffusion the engine
// bucket store applies before probing.
func oracleMix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// oracleGraph is the blocking graph: one weighted edge per distinct record pair
// co-occurring in at least one block. Edges live in a flat open-addressing
// store (a power-of-two slot index over dense edge indices, SplitMix64
// pre-mix, linear probing); the edge order is first-touch (block scan)
// order, and every derived output is explicitly sorted, so results are
// deterministic regardless of that internal order.
type oracleGraph struct {
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
func (g *oracleGraph) edgeIndex(p record.Pair) int {
	j := oracleMix64(uint64(p)) & g.mask
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
		j = oracleMix64(uint64(p)) & g.mask
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
func (g *oracleGraph) grow() {
	slots := make([]uint32, len(g.slots)*2)
	mask := uint64(len(slots) - 1)
	for i, p := range g.pairs {
		j := oracleMix64(uint64(p)) & mask
		for slots[j] != 0 {
			j = (j + 1) & mask
		}
		slots[j] = uint32(i) + 1
	}
	g.slots = slots
	g.mask = mask
}

// find returns the dense edge index of p, or -1 when p is not an edge.
func (g *oracleGraph) find(p record.Pair) int {
	if len(g.slots) == 0 {
		return -1
	}
	j := oracleMix64(uint64(p)) & g.mask
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
func (g *oracleGraph) touchRecord(id record.ID) {
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

// oracleBuildGraph constructs the weighted blocking graph from a block
// collection. Block lists per record and per-pair common-block statistics
// are accumulated in one pass over the blocks, straight into the flat edge
// store — no intermediate maps are materialised.
func oracleBuildGraph(res *blocking.Result, scheme WeightScheme) *oracleGraph {
	g := &oracleGraph{scheme: scheme}
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
func (g *oracleGraph) NumEdges() int { return len(g.pairs) }

// WeightOf returns the weight of the edge p and whether p is an edge.
func (g *oracleGraph) WeightOf(p record.Pair) (float64, bool) {
	idx := g.find(p)
	if idx < 0 {
		return 0, false
	}
	return g.weights[idx], true
}

// oracleSelectTop keeps the k best of the streamed candidates using a bounded
// min-heap and returns them in best-first order. The input slice is used as
// scratch when it is at most k long.
func oracleSelectTop(stream func(yield func(WeightedPair)), n, k int) []WeightedPair {
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
func (g *oracleGraph) TopWeighted(k int) []WeightedPair {
	return oracleSelectTop(func(yield func(WeightedPair)) {
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
func (g *oracleGraph) RankPairs(pairs []record.Pair, k int) []WeightedPair {
	return oracleSelectTop(func(yield func(WeightedPair)) {
		for _, p := range pairs {
			w, _ := g.WeightOf(p)
			yield(WeightedPair{Pair: p, Weight: w})
		}
	}, len(pairs), k)
}

// Prune applies the pruning algorithm and returns the retained comparisons
// as a block collection of pairs (one block per retained edge), the final
// output of meta-blocking.
func (g *oracleGraph) Prune(algo PruneAlgo) *blocking.Result {
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

func (g *oracleGraph) pruneWEP() []record.Pair {
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

func (g *oracleGraph) pruneCEP() []record.Pair {
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
func (g *oracleGraph) adjacency() (off []int32, edges []int32) {
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

func (g *oracleGraph) pruneWNP() []record.Pair {
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

func (g *oracleGraph) pruneCNP() []record.Pair {
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
