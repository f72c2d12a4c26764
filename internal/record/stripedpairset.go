package record

import "sync"

// pairStripes is the stripe count of StripedPairSet — a power of two so
// stripe selection is a mask, and comfortably above typical core counts so
// concurrent writers rarely contend on one stripe.
const pairStripes = 16

// pairMix diffuses a packed pair over the stripe index space. The pair's low
// word is a record ID (small, dense integers), so without mixing consecutive
// pairs would hammer consecutive stripes in lockstep; the SplitMix64
// finalizer spreads them uniformly.
func pairMix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// StripedPairSet is a concurrent set of distinct record pairs, sharded over
// independently locked stripes so that writers on different stripes never
// contend. It is stream.Indexer's ledger, where InsertBatch may be called
// from many goroutines and one global map would serialise every worker's
// candidate-pair commits. (server.Collection keeps no ledger: it files
// records in ID order under one mutex, so sorting each record's group
// deduplicates it.)
//
// The zero value is ready to use.
type StripedPairSet struct {
	stripes [pairStripes]pairStripe
}

type pairStripe struct {
	mu  sync.Mutex
	set PairSet
	// pad the stripe to its own cache line so neighbouring stripe locks do
	// not false-share.
	_ [40]byte
}

func (s *StripedPairSet) stripe(p Pair) *pairStripe {
	return &s.stripes[pairMix(uint64(p))&(pairStripes-1)]
}

// AddPair inserts an already-canonical pair and reports whether it was new.
// The insert-and-test is atomic per pair, so of any number of concurrent
// AddPair calls with the same pair exactly one observes true — the property
// exactly-once candidate delivery rests on.
func (s *StripedPairSet) AddPair(p Pair) bool {
	st := s.stripe(p)
	st.mu.Lock()
	if st.set == nil {
		st.set = NewPairSet(0)
	}
	_, dup := st.set[p]
	if !dup {
		st.set[p] = struct{}{}
	}
	st.mu.Unlock()
	return !dup
}

// Add inserts the pair (a,b), ignoring self-pairs, and reports whether it
// was new.
func (s *StripedPairSet) Add(a, b ID) bool {
	if a == b {
		return false
	}
	return s.AddPair(MakePair(a, b))
}

// Has reports whether the pair (a,b) is in the set.
func (s *StripedPairSet) Has(a, b ID) bool {
	p := MakePair(a, b)
	st := s.stripe(p)
	st.mu.Lock()
	_, ok := st.set[p]
	st.mu.Unlock()
	return ok
}

// Len returns the number of distinct pairs. Concurrent with writers it
// returns a sum of per-stripe snapshots, each internally consistent.
func (s *StripedPairSet) Len() int {
	n := 0
	for i := range s.stripes {
		st := &s.stripes[i]
		st.mu.Lock()
		n += len(st.set)
		st.mu.Unlock()
	}
	return n
}

// Slice returns the pairs in sorted canonical order. Callers must not race
// it with writers if they need a consistent cut.
func (s *StripedPairSet) Slice() []Pair {
	out := make([]Pair, 0, s.Len())
	for i := range s.stripes {
		st := &s.stripes[i]
		st.mu.Lock()
		for p := range st.set {
			out = append(out, p)
		}
		st.mu.Unlock()
	}
	SortPairs(out)
	return out
}

// Reset empties the set.
func (s *StripedPairSet) Reset() {
	for i := range s.stripes {
		st := &s.stripes[i]
		st.mu.Lock()
		st.set = nil
		st.mu.Unlock()
	}
}
