// Package er closes the loop the paper opens: "our blocking results can be
// used as input to any ER algorithms for classifying records" (§1). It
// provides a reference downstream resolver — pairwise similarity scoring
// over the blocking candidates, threshold classification, and transitive
// clustering via union-find — plus end-to-end resolution quality measures
// (pairwise precision/recall/F1 against ground truth), so the effect of
// blocking quality on final ER quality can be measured directly.
package er

import (
	"fmt"
	"slices"
	"sort"

	"semblock/internal/blocking"
	"semblock/internal/record"
	"semblock/internal/textual"
)

// AttrWeight weights one attribute's similarity in the match score.
type AttrWeight struct {
	// Attr is the record attribute to compare.
	Attr string
	// Weight is the attribute's share of the total score (weights are
	// normalised internally).
	Weight float64
	// Sim is the similarity function name (textual.ByName); empty means
	// q-gram Jaccard with q=2.
	Sim string
}

// Matcher scores candidate pairs and classifies them as matches.
type Matcher struct {
	attrs     []AttrWeight
	sims      []textual.SimFunc
	kinds     []simKind
	threshold float64
}

// NewMatcher builds a weighted-average matcher. The threshold is the
// minimum score in [0,1] for a pair to classify as a match. The matcher
// keeps its own normalised copy of attrs; the caller's slice is not
// modified.
func NewMatcher(attrs []AttrWeight, threshold float64) (*Matcher, error) {
	if len(attrs) == 0 {
		return nil, fmt.Errorf("er: matcher needs at least one attribute")
	}
	if threshold < 0 || threshold > 1 {
		return nil, fmt.Errorf("er: threshold must be in [0,1], got %v", threshold)
	}
	m := &Matcher{attrs: slices.Clone(attrs), threshold: threshold}
	total := 0.0
	for _, a := range attrs {
		if a.Weight <= 0 {
			return nil, fmt.Errorf("er: attribute %s has non-positive weight", a.Attr)
		}
		total += a.Weight
		name := a.Sim
		if name == "" {
			name = textual.SimJaccard2
		}
		f, err := textual.ByName(name)
		if err != nil {
			return nil, err
		}
		m.sims = append(m.sims, f)
		m.kinds = append(m.kinds, kindOf(name))
	}
	for i := range m.attrs {
		m.attrs[i].Weight /= total
	}
	return m, nil
}

// Score computes the weighted similarity of two records. Attributes
// missing from both records contribute their full weight (agreeing on
// absence); attributes missing from exactly one contribute zero.
//
// The q-gram set similarities (Jaccard q=2, bigram Dice) run over pooled
// gram-hash buffers instead of per-call map sets; repeated scoring of the
// same records is cheaper still through a Kernel, which caches the hashed
// gram sets per record.
func (m *Matcher) Score(a, b *record.Record) float64 {
	sc := scratchPool.Get().(*scoreScratch)
	var s float64
	for i, aw := range m.attrs {
		va, vb := a.Value(aw.Attr), b.Value(aw.Attr)
		switch {
		case va == "" && vb == "":
			s += aw.Weight
		case va == "" || vb == "":
			// no contribution
		default:
			switch m.kinds[i] {
			case kindJaccard2:
				s += aw.Weight * sc.gramSim(va, vb, false)
			case kindDice2:
				s += aw.Weight * sc.gramSim(va, vb, true)
			default:
				s += aw.Weight * m.sims[i](va, vb)
			}
		}
	}
	scratchPool.Put(sc)
	return s
}

// Match reports whether the pair scores at or above the threshold.
func (m *Matcher) Match(a, b *record.Record) bool {
	return m.Score(a, b) >= m.threshold
}

// Threshold returns the matcher's classification threshold, so callers
// that score pairs themselves (the concurrent pipeline matcher) classify
// exactly as Match does.
func (m *Matcher) Threshold() float64 { return m.threshold }

// Resolution is the outcome of resolving a dataset.
type Resolution struct {
	// MatchedPairs are the candidate pairs classified as matches.
	MatchedPairs []record.Pair
	// Clusters maps each record to its entity cluster (dense cluster ids).
	Clusters []int
	// NumClusters is the number of distinct clusters.
	NumClusters int
	// Compared is the number of pairwise comparisons performed.
	Compared int64
}

// Resolve runs the matcher over every distinct candidate pair of the
// blocking result and clusters matches transitively.
func Resolve(d *record.Dataset, res *blocking.Result, m *Matcher) *Resolution {
	var matched []record.Pair
	var compared int64
	for p := range res.CandidatePairs() {
		compared++
		a, b := d.Record(p.Left()), d.Record(p.Right())
		if m.Match(a, b) {
			matched = append(matched, p)
		}
	}
	return NewResolution(d.Len(), matched, compared)
}

// NewResolution assembles a Resolution from already-classified match pairs:
// the pairs are sorted canonically and clustered transitively over n
// records. It is the clustering back-end shared by Resolve and by callers
// that score pairs themselves (e.g. the concurrent pipeline matcher).
func NewResolution(n int, matched []record.Pair, compared int64) *Resolution {
	record.SortPairs(matched)
	uf := newUnionFind(n)
	for _, p := range matched {
		uf.union(int(p.Left()), int(p.Right()))
	}
	clusters, numClusters := uf.labels()
	return &Resolution{
		MatchedPairs: matched,
		Clusters:     clusters,
		NumClusters:  numClusters,
		Compared:     compared,
	}
}

// Quality holds end-to-end pairwise resolution quality. Precision and
// recall are computed over the *transitive closure* of the clustering
// (cluster-implied pairs), the standard pairwise ER measure.
type Quality struct {
	Precision float64
	Recall    float64
	F1        float64
	// ImpliedPairs is the number of cluster-implied record pairs.
	ImpliedPairs int64
}

// Evaluate scores a resolution against the dataset's ground truth.
func (r *Resolution) Evaluate(d *record.Dataset) (Quality, error) {
	if !d.Labeled() {
		return Quality{}, fmt.Errorf("er: dataset %s has no ground truth", d.Name)
	}
	// Cluster-implied pairs.
	byCluster := make(map[int][]record.ID)
	for id, c := range r.Clusters {
		byCluster[c] = append(byCluster[c], record.ID(id))
	}
	implied := record.NewPairSet(len(r.MatchedPairs))
	for _, ids := range byCluster {
		for i := 0; i < len(ids); i++ {
			for j := i + 1; j < len(ids); j++ {
				implied.Add(ids[i], ids[j])
			}
		}
	}
	truth := record.NewPairSet(0)
	for _, p := range d.TrueMatches() {
		truth.AddPair(p)
	}
	tp := int64(implied.Intersect(truth))
	q := Quality{ImpliedPairs: int64(implied.Len())}
	if implied.Len() > 0 {
		q.Precision = float64(tp) / float64(implied.Len())
	}
	if truth.Len() > 0 {
		q.Recall = float64(tp) / float64(truth.Len())
	}
	if q.Precision+q.Recall > 0 {
		q.F1 = 2 * q.Precision * q.Recall / (q.Precision + q.Recall)
	}
	return q, nil
}

// unionFind is a standard path-compressing disjoint-set forest.
type unionFind struct {
	parent []int
	rank   []int
}

func newUnionFind(n int) *unionFind {
	uf := &unionFind{parent: make([]int, n), rank: make([]int, n)}
	for i := range uf.parent {
		uf.parent[i] = i
	}
	return uf
}

func (u *unionFind) find(x int) int {
	for u.parent[x] != x {
		u.parent[x] = u.parent[u.parent[x]]
		x = u.parent[x]
	}
	return x
}

func (u *unionFind) union(a, b int) {
	ra, rb := u.find(a), u.find(b)
	if ra == rb {
		return
	}
	if u.rank[ra] < u.rank[rb] {
		ra, rb = rb, ra
	}
	u.parent[rb] = ra
	if u.rank[ra] == u.rank[rb] {
		u.rank[ra]++
	}
}

// labels returns dense cluster ids per element and the cluster count.
func (u *unionFind) labels() ([]int, int) {
	roots := make(map[int]int)
	out := make([]int, len(u.parent))
	// Deterministic labeling: process roots in element order.
	order := make([]int, 0, len(u.parent))
	for i := range u.parent {
		order = append(order, i)
	}
	sort.Ints(order)
	for _, i := range order {
		r := u.find(i)
		if _, ok := roots[r]; !ok {
			roots[r] = len(roots)
		}
		out[i] = roots[r]
	}
	return out, len(roots)
}
