package blocking

import (
	"slices"

	"semblock/internal/engine"
	"semblock/internal/record"
)

// Edges is the output of the record-major pair walk (Result.Edges): every
// distinct pair of records that share a block, in ascending canonical
// order, with the statistics meta-blocking weighs it by.
type Edges struct {
	// Pairs are the distinct co-blocked pairs, ascending.
	Pairs []record.Pair
	// Common[i] is the number of blocks both records of Pairs[i] are in.
	Common []int32
	// ARCS[i] is Σ 1/cmp(b) over those blocks, added in block order, where
	// cmp(b) = |b|(|b|-1)/2. It is nil unless the walk was asked for it.
	ARCS []float64
	// Rows holds the record→block index offsets: record r is in
	// Rows[r+1]-Rows[r] blocks. len(Rows) is the largest member ID + 2, or
	// 0 when there are no blocks.
	Rows []int32
}

// walkChunkWork is the work (block members scanned) one chunk of the walk
// covers, about 0.3 ms: the hand-off between chunks is where request
// handlers beside a running walk get a CPU (see engine.ParallelTasks).
// walkMaxChunks bounds the chunk count on huge collections.
const (
	walkChunkWork = 1 << 15
	walkMaxChunks = 1 << 12
)

// Edges walks the collection record by record on at most `workers`
// goroutines (0 = engine.Workers(0)) and returns its distinct pairs with
// their common-block counts and, when arcs is set, their ARCS sums. The
// output does not depend on the worker count. The walk leaves the Pairs
// cache alone: a collection that outlives its graph does not keep the edge
// list alive.
//
// For each record r it counts every member m > r across r's blocks in a
// dense per-worker accumulator; a pair's count is its common-block count.
// Blocks need not be ID-sorted, but a block's members must be distinct.
// Records go to workers in contiguous ranges of about equal work
// (engine.ParallelTasks), and the ranges' outputs are concatenated in
// record order, so edges come out in canonical order. The worker count is
// capped at the average work per record, so the accumulators (4 bytes per
// record each, 12 with ARCS) never outweigh the walk. This is comparison
// propagation (arXiv 1905.06167): each pair is counted once per shared
// block and emitted once, by its smaller record, with no pair index.
func (r *Result) Edges(workers int, arcs bool) *Edges {
	rows, member, cost := r.memberships()
	n := len(rows) - 1
	if n <= 0 {
		return &Edges{}
	}

	// Cut the records into chunks of about equal work.
	var total int64
	for _, c := range cost {
		total += c
	}
	per := max(total/walkMaxChunks, walkChunkWork)
	bounds := []int{0}
	var acc int64
	for id := 0; id < n-1; id++ {
		if acc += cost[id]; acc >= per {
			bounds = append(bounds, id+1)
			acc = 0
		}
	}
	bounds = append(bounds, n)

	// Each walker holds a dense accumulator over all n records, so there
	// are never more walkers than work items per record: accumulator
	// memory stays below the work it serves.
	walkers := make([]*walker, min(engine.Workers(workers), max(1, int(total/int64(n)))))

	// Each walker appends to its own output; spans[c] records where chunk
	// c's edges landed, and the chunks are stitched in record order.
	type span struct{ w, lo, hi int }
	spans := make([]span, len(bounds)-1)
	engine.ParallelTasks(len(spans), len(walkers), func(w, c int) {
		if walkers[w] == nil {
			walkers[w] = &walker{cnt: make([]int32, n)}
			if arcs {
				walkers[w].arcs = make([]float64, n)
			}
		}
		lo := len(walkers[w].out.Pairs)
		walkers[w].walk(r.Blocks, rows, member, bounds[c], bounds[c+1])
		spans[c] = span{w, lo, len(walkers[w].out.Pairs)}
	})

	if len(walkers) == 1 || len(spans) == 1 {
		// One walker ran every chunk, in order: its output is the result.
		e := walkers[0].out
		e.Rows = rows
		return &e
	}
	size := 0
	for _, sp := range spans {
		size += sp.hi - sp.lo
	}
	e := &Edges{
		Pairs:  make([]record.Pair, 0, size),
		Common: make([]int32, 0, size),
		Rows:   rows,
	}
	if arcs {
		e.ARCS = make([]float64, 0, size)
	}
	for _, sp := range spans {
		o := &walkers[sp.w].out
		e.Pairs = append(e.Pairs, o.Pairs[sp.lo:sp.hi]...)
		e.Common = append(e.Common, o.Common[sp.lo:sp.hi]...)
		if arcs {
			e.ARCS = append(e.ARCS, o.ARCS[sp.lo:sp.hi]...)
		}
	}
	return e
}

// memberships builds the record→block index as CSR — record id is in
// blocks member[rows[id]:rows[id+1]], in block order — and each record's
// walk cost, Σ |b| over its blocks.
func (r *Result) memberships() (rows, member []int32, cost []int64) {
	n := 0
	for _, b := range r.Blocks {
		for _, id := range b {
			n = max(n, int(id)+1)
		}
	}
	if n == 0 {
		return nil, nil, nil
	}
	rows = make([]int32, n+1)
	for _, b := range r.Blocks {
		for _, id := range b {
			rows[id+1]++
		}
	}
	for i := 1; i <= n; i++ {
		rows[i] += rows[i-1]
	}
	member = make([]int32, rows[n])
	cost = make([]int64, n)
	fill := make([]int32, n)
	copy(fill, rows[:n])
	for bi, b := range r.Blocks {
		for _, id := range b {
			member[fill[id]] = int32(bi)
			fill[id]++
			cost[id] += int64(len(b))
		}
	}
	return rows, member, cost
}

// walker is one goroutine's dense accumulator, reset after every record,
// and the edges it has emitted.
type walker struct {
	cnt     []int32   // common blocks with the current record, by member
	arcs    []float64 // ARCS sum with the current record, by member
	touched []record.ID
	out     Edges
}

// walk appends the edges of records [lo,hi) to w.out, in canonical order.
func (w *walker) walk(blocks [][]record.ID, rows, member []int32, lo, hi int) {
	out := &w.out
	for id := lo; id < hi; id++ {
		r := record.ID(id)
		for _, bi := range member[rows[id]:rows[id+1]] {
			b := blocks[bi]
			inv := 0.0
			if w.arcs != nil {
				inv = 1 / (float64(len(b)) * float64(len(b)-1) / 2)
			}
			for _, m := range b {
				if m <= r {
					continue
				}
				if w.cnt[m] == 0 {
					w.touched = append(w.touched, m)
				}
				w.cnt[m]++
				if w.arcs != nil {
					w.arcs[m] += inv
				}
			}
		}
		slices.Sort(w.touched)
		for _, m := range w.touched {
			out.Pairs = append(out.Pairs, record.MakePair(r, m))
			out.Common = append(out.Common, w.cnt[m])
			w.cnt[m] = 0
			if w.arcs != nil {
				out.ARCS = append(out.ARCS, w.arcs[m])
				w.arcs[m] = 0
			}
		}
		w.touched = w.touched[:0]
	}
}
