package er

import (
	"slices"
	"sync"

	"semblock/internal/engine"
	"semblock/internal/minhash"
	"semblock/internal/record"
	"semblock/internal/textual"
)

// simKind classifies an attribute's similarity function for the kernel
// fast path. The two q-gram set similarities (Jaccard q=2 — the default —
// and bigram Dice) are computed over sorted distinct gram-hash slices
// instead of per-call map sets; everything else falls back to the generic
// string SimFunc.
type simKind uint8

const (
	kindGeneric simKind = iota
	kindJaccard2
	kindDice2
)

// kindOf maps a similarity function name to its kernel fast path.
func kindOf(name string) simKind {
	switch name {
	case textual.SimJaccard2:
		return kindJaccard2
	case textual.SimBigram:
		return kindDice2
	default:
		return kindGeneric
	}
}

// hashArena hands out uint64 storage in geometrically growing chunks, the
// same bump-pointer discipline as engine.Table's idArena, so persisting a
// record's gram-hash set costs a copy, not a heap allocation.
type hashArena struct {
	chunk     []uint64
	chunkSize int
}

const (
	hashArenaMinChunk = 1024
	hashArenaMaxChunk = 1 << 18
)

// save copies src into the arena and returns the stable copy (nil for an
// empty set — the similarity routines treat nil and empty alike).
//
//semblock:hotpath
func (a *hashArena) save(src []uint64) []uint64 {
	if len(src) == 0 {
		return nil
	}
	if cap(a.chunk)-len(a.chunk) < len(src) {
		size := a.chunkSize * 2
		if size < hashArenaMinChunk {
			size = hashArenaMinChunk
		}
		if size > hashArenaMaxChunk {
			size = hashArenaMaxChunk
		}
		if size < len(src) {
			size = len(src)
		}
		a.chunkSize = size
		a.chunk = make([]uint64, 0, size)
	}
	off := len(a.chunk)
	a.chunk = append(a.chunk, src...)
	return a.chunk[off:len(a.chunk):len(a.chunk)]
}

// dedupeSorted removes adjacent duplicates in place, returning the
// shortened slice. The input must be sorted.
//
//semblock:hotpath
func dedupeSorted(h []uint64) []uint64 {
	if len(h) < 2 {
		return h
	}
	out := h[:1]
	for _, v := range h[1:] {
		if v != out[len(out)-1] {
			out = append(out, v)
		}
	}
	return out
}

// intersectSorted counts the common elements of two sorted distinct
// slices by a single merge pass.
//
//semblock:hotpath
func intersectSorted(a, b []uint64) int {
	i, j, n := 0, 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			i++
		case a[i] > b[j]:
			j++
		default:
			n++
			i++
			j++
		}
	}
	return n
}

// setSim computes Jaccard (or, when dice is set, Dice) over two sorted
// distinct gram-hash sets, with exactly textual.JaccardSets' edge
// semantics: two empty sets are identical (1), one empty set is 0.
//
//semblock:hotpath
func setSim(a, b []uint64, dice bool) float64 {
	if len(a) == 0 && len(b) == 0 {
		return 1
	}
	if len(a) == 0 || len(b) == 0 {
		return 0
	}
	inter := intersectSorted(a, b)
	if dice {
		return 2 * float64(inter) / float64(len(a)+len(b))
	}
	return float64(inter) / float64(len(a)+len(b)-inter)
}

// scoreScratch is the pooled per-call workspace of Matcher.Score: two
// gram-hash buffers and their pre-bound visitor closures, so a Score call
// allocates nothing beyond Normalize's one string per value.
type scoreScratch struct {
	a, b           []uint64
	visitA, visitB func(string)
}

var scratchPool = sync.Pool{New: func() any {
	s := &scoreScratch{}
	s.visitA = func(g string) { s.a = append(s.a, minhash.BaseHash(g)) }
	s.visitB = func(g string) { s.b = append(s.b, minhash.BaseHash(g)) }
	return s
}}

// gramSim hashes both values' distinct bigrams into the scratch buffers
// and computes their set similarity.
//
//semblock:hotpath
func (sc *scoreScratch) gramSim(va, vb string, dice bool) float64 {
	sc.a, sc.b = sc.a[:0], sc.b[:0]
	textual.VisitQGrams(va, 2, sc.visitA)
	textual.VisitQGrams(vb, 2, sc.visitB)
	slices.Sort(sc.a)
	slices.Sort(sc.b)
	sc.a = dedupeSorted(sc.a)
	sc.b = dedupeSorted(sc.b)
	return setSim(sc.a, sc.b, dice)
}

// Kernel is the zero-allocation batch scoring engine behind the pipeline's
// match stage. Featurize resolves a record once — attribute values fetched
// by pre-resolved index, q-gram sets hashed, sorted and persisted into an
// arena — and Score then compares any two featurized records without
// touching the records, their attribute maps, or the heap.
//
// FeaturizeAll is the batch form: it presizes the slots, then fills ranges
// of records on several goroutines, each with its own arena and gram
// buffer. Neither Featurize nor FeaturizeAll may run concurrently with
// itself, the other, or Score; Score alone is safe for concurrent use (it
// only reads). The pipeline featurizes up front with FeaturizeAll in batch
// mode and with Featurize under its stream mutex in streaming mode.
type Kernel struct {
	m     *Matcher
	vals  [][]string   // per attribute, indexed by dense record ID
	grams [][][]uint64 // sorted distinct gram hashes, same indexing
	f     *featurizer  // Featurize's workspace
	n     int
}

// featurizer is one goroutine's featurize workspace: a gram buffer, its
// pre-bound visitor, and the arena the persisted gram sets live in.
type featurizer struct {
	arena hashArena
	buf   []uint64
	visit func(string)
}

func newFeaturizer() *featurizer {
	f := &featurizer{}
	f.visit = func(g string) { f.buf = append(f.buf, minhash.BaseHash(g)) }
	return f
}

// fill caches record r's features in its slots, which must exist.
func (f *featurizer) fill(k *Kernel, r *record.Record) {
	id := int(r.ID)
	for i := range k.m.attrs {
		v := r.Value(k.m.attrs[i].Attr)
		k.vals[i][id] = v
		if v == "" || k.m.kinds[i] == kindGeneric {
			k.grams[i][id] = nil
			continue
		}
		f.buf = f.buf[:0]
		textual.VisitQGrams(v, 2, f.visit)
		slices.Sort(f.buf)
		k.grams[i][id] = f.arena.save(dedupeSorted(f.buf))
	}
}

// NewKernel returns an empty kernel for the matcher. sizeHint is the
// expected record count (0 if unknown).
func NewKernel(m *Matcher, sizeHint int) *Kernel {
	k := &Kernel{
		m:     m,
		vals:  make([][]string, len(m.attrs)),
		grams: make([][][]uint64, len(m.attrs)),
		f:     newFeaturizer(),
	}
	for i := range k.vals {
		k.vals[i] = make([]string, 0, sizeHint)
		k.grams[i] = make([][]uint64, 0, sizeHint)
	}
	return k
}

// Len returns the number of record slots featurized so far (max ID + 1).
func (k *Kernel) Len() int { return k.n }

// grow extends the slots to hold IDs below n.
func (k *Kernel) grow(n int) {
	for i := range k.vals {
		if d := n - len(k.vals[i]); d > 0 {
			k.vals[i] = append(k.vals[i], make([]string, d)...)
			k.grams[i] = append(k.grams[i], make([][]uint64, d)...)
		}
	}
	k.n = max(k.n, n)
}

// Featurize caches the record's per-attribute match features. Records may
// arrive in any ID order; slots are grown on demand and re-featurizing an
// ID overwrites its features.
func (k *Kernel) Featurize(r *record.Record) {
	k.grow(int(r.ID) + 1)
	k.f.fill(k, r)
}

// featurizeTask is the records one FeaturizeAll task fills, about 0.25 ms
// of work: the hand-off between tasks is where request handlers beside a
// running featurize get a CPU (see engine.ParallelTasks).
const featurizeTask = 64

// FeaturizeAll featurizes the records on at most `workers` goroutines (0 =
// engine.Workers(0)), leaving exactly the features Featurize would. Their
// IDs must be distinct: the slots are presized for the largest ID, then
// each worker fills ranges of rs with its own arena and gram buffer.
func (k *Kernel) FeaturizeAll(rs []*record.Record, workers int) {
	n := 0
	for _, r := range rs {
		n = max(n, int(r.ID)+1)
	}
	k.grow(n)
	fs := make([]*featurizer, engine.Workers(workers))
	tasks := (len(rs) + featurizeTask - 1) / featurizeTask
	engine.ParallelTasks(tasks, len(fs), func(w, t int) {
		if fs[w] == nil {
			fs[w] = newFeaturizer()
		}
		for _, r := range rs[t*featurizeTask : min((t+1)*featurizeTask, len(rs))] {
			fs[w].fill(k, r)
		}
	})
}

// Score computes the weighted similarity of two featurized records —
// exactly Matcher.Score's value, with zero allocations. Both IDs must have
// been featurized.
//
//semblock:hotpath
func (k *Kernel) Score(a, b record.ID) float64 {
	var s float64
	for i := range k.m.attrs {
		va, vb := k.vals[i][a], k.vals[i][b]
		switch {
		case va == "" && vb == "":
			s += k.m.attrs[i].Weight
		case va == "" || vb == "":
			// no contribution
		default:
			switch k.m.kinds[i] {
			case kindJaccard2:
				s += k.m.attrs[i].Weight * setSim(k.grams[i][a], k.grams[i][b], false)
			case kindDice2:
				s += k.m.attrs[i].Weight * setSim(k.grams[i][a], k.grams[i][b], true)
			default:
				s += k.m.attrs[i].Weight * k.m.sims[i](va, vb)
			}
		}
	}
	return s
}
