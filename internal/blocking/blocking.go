// Package blocking defines the abstractions shared by every blocking
// technique: the Blocker interface, the block-set Result with its derived
// statistics, and small helpers for key-based block construction.
package blocking

import (
	"sort"

	"semblock/internal/record"
)

// Blocker groups the records of a dataset into (possibly overlapping)
// blocks. Implementations must be deterministic for a fixed configuration.
type Blocker interface {
	// Name identifies the technique (used in experiment reports).
	Name() string
	// Block builds the block set for the dataset.
	Block(d *record.Dataset) (*Result, error)
}

// Result is the output of a blocking technique: the set B of blocks.
// Blocks of size < 2 are conventionally dropped by builders since they
// produce no candidate pairs.
type Result struct {
	// Technique is the name of the blocker that produced the result.
	Technique string
	// Blocks holds the record IDs of each block.
	Blocks [][]record.ID

	pairs  record.PairSet // lazily built distinct candidate pairs
	sorted []record.Pair  // the same pairs ascending, once walked is set
	walked bool
}

// NewResult constructs a result, dropping blocks smaller than two records.
func NewResult(technique string, blocks [][]record.ID) *Result {
	kept := make([][]record.ID, 0, len(blocks))
	for _, b := range blocks {
		if len(b) >= 2 {
			kept = append(kept, b)
		}
	}
	return &Result{Technique: technique, Blocks: kept}
}

// NewPairResult builds the collection of one two-record block per pair,
// the shape meta-blocking's pruning emits. pairs must be ascending and
// distinct; they become the result's Pairs, and the blocks share one
// backing array.
func NewPairResult(technique string, pairs []record.Pair) *Result {
	flat := make([]record.ID, 2*len(pairs))
	blocks := make([][]record.ID, len(pairs))
	for i, p := range pairs {
		flat[2*i], flat[2*i+1] = p.Left(), p.Right()
		blocks[i] = flat[2*i : 2*i+2 : 2*i+2]
	}
	return &Result{Technique: technique, Blocks: blocks, sorted: pairs, walked: true}
}

// NumBlocks returns |B|.
func (r *Result) NumBlocks() int { return len(r.Blocks) }

// MaxBlockSize returns the size of the largest block (0 if none).
func (r *Result) MaxBlockSize() int {
	m := 0
	for _, b := range r.Blocks {
		if len(b) > m {
			m = len(b)
		}
	}
	return m
}

// Comparisons returns |Γm| = Σ_b |b|(|b|-1)/2, the number of (possibly
// redundant) pairwise comparisons the block set induces — the denominator
// of the meta-blocking PQ* measure.
func (r *Result) Comparisons() int64 {
	var n int64
	for _, b := range r.Blocks {
		s := int64(len(b))
		n += s * (s - 1) / 2
	}
	return n
}

// CandidatePairs returns Γ: the distinct record pairs co-occurring in at
// least one block. The set is computed once and cached.
//
// The map is presized to min(Comparisons, NumBlocks): the raw comparison
// count overstates the distinct pairs many times over when blocks overlap
// (SA-LSH's per-bit blocks), and a map sized for it costs more to allocate
// and clear than the growth it saves; for pair-blocks (what pruning emits)
// the block count is exact.
func (r *Result) CandidatePairs() record.PairSet {
	if r.pairs != nil {
		return r.pairs
	}
	est := min(r.Comparisons(), int64(r.NumBlocks()), 1<<24)
	ps := record.NewPairSet(int(est))
	for _, b := range r.Blocks {
		for i := 0; i < len(b); i++ {
			for j := i + 1; j < len(b); j++ {
				ps.Add(b[i], b[j])
			}
		}
	}
	r.pairs = ps
	return ps
}

// Pairs returns Γ in ascending canonical order: the pairs CandidatePairs
// holds, computed once by the record-major walk (see Edges) and cached.
// The slice is shared; callers must not modify it.
func (r *Result) Pairs() []record.Pair {
	return r.PairsWorkers(0)
}

// PairsWorkers is Pairs, walking on at most `workers` goroutines (0 =
// engine.Workers(0)) when the list is not cached yet.
func (r *Result) PairsWorkers(workers int) []record.Pair {
	if !r.walked {
		r.sorted, r.walked = r.Edges(workers, false).Pairs, true
	}
	return r.sorted
}

// Covers reports whether the two records share at least one block (the
// paper's blocking function θ_B).
func (r *Result) Covers(a, b record.ID) bool {
	return r.CandidatePairs().Has(a, b)
}

// KeyIndex accumulates records under string blocking keys, the common
// construction step of key-based techniques (standard blocking, q-gram
// indexing, suffix arrays...). A record may be added under many keys.
type KeyIndex struct {
	buckets map[string][]record.ID
}

// NewKeyIndex returns an empty index.
func NewKeyIndex() *KeyIndex {
	return &KeyIndex{buckets: make(map[string][]record.ID)}
}

// Add files the record under the key. Consecutive duplicate additions of
// the same record to the same key are ignored.
func (k *KeyIndex) Add(key string, id record.ID) {
	b := k.buckets[key]
	if n := len(b); n > 0 && b[n-1] == id {
		return
	}
	k.buckets[key] = append(k.buckets[key], id)
}

// Keys returns the distinct keys in sorted order.
func (k *KeyIndex) Keys() []string {
	out := make([]string, 0, len(k.buckets))
	for key := range k.buckets {
		out = append(out, key)
	}
	sort.Strings(out)
	return out
}

// Bucket returns the records filed under key (read-only, insertion order).
func (k *KeyIndex) Bucket(key string) []record.ID { return k.buckets[key] }

// Len returns the number of distinct keys.
func (k *KeyIndex) Len() int { return len(k.buckets) }

// Result converts the index into a block-set result, dropping singleton
// buckets and deduplicating records within a bucket. maxBlockSize > 0
// discards buckets larger than the limit (the suffix-array techniques
// prune oversized blocks this way); 0 means unlimited.
func (k *KeyIndex) Result(technique string, maxBlockSize int) *Result {
	blocks := make([][]record.ID, 0, len(k.buckets))
	for _, key := range k.Keys() {
		ids := dedupe(k.buckets[key])
		if len(ids) < 2 {
			continue
		}
		if maxBlockSize > 0 && len(ids) > maxBlockSize {
			continue
		}
		blocks = append(blocks, ids)
	}
	return NewResult(technique, blocks)
}

func dedupe(ids []record.ID) []record.ID {
	if len(ids) < 2 {
		return ids
	}
	sorted := make([]record.ID, len(ids))
	copy(sorted, ids)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	out := sorted[:1]
	for _, id := range sorted[1:] {
		if id != out[len(out)-1] {
			out = append(out, id)
		}
	}
	return out
}
