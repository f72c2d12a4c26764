package lsh

import (
	"fmt"
	"math"
	"testing"

	"semblock/internal/datagen"
	"semblock/internal/minhash"
	"semblock/internal/record"
	"semblock/internal/semantic"
	"semblock/internal/taxonomy"
	"semblock/internal/textual"
)

// fixtureDataset builds a small bibliographic dataset mirroring the paper's
// running example: r1,r2,r3 conference articles, r4,r5 technical reports,
// r6 ambiguous.
func fixtureDataset(t *testing.T) (*record.Dataset, *semantic.Schema) {
	t.Helper()
	d := record.NewDataset("fixture")
	add := func(entity record.EntityID, title, authors string, attrs map[string]string) *record.Record {
		m := map[string]string{"title": title, "authors": authors}
		for k, v := range attrs {
			m[k] = v
		}
		return d.Append(entity, m)
	}
	conf := map[string]string{"booktitle": "proc"}
	tr := map[string]string{"institution": "cmu"}
	add(0, "The cascade-correlation learning architecture", "E. Fahlman and C. Lebiere", conf)
	add(0, "Cascade correlation learning architecture", "E. Fahlman & C. Lebiere", conf)
	add(1, "A genetic cascade correlation learning algorithm", "", conf)
	add(2, "The cascade corelation learning architecture", "Fahlman, S., & Lebiere, C.", tr)
	add(3, "Controlled growth of cascade correlation nets", "", tr)
	add(0, "The cascade-correlation learn architecture", "Lebiere, C. and Fahlman, S.", nil)

	fn, err := semantic.NewCoraFunction(taxonomy.Bibliographic())
	if err != nil {
		t.Fatal(err)
	}
	schema, err := semantic.BuildSchema(fn, d)
	if err != nil {
		t.Fatal(err)
	}
	return d, schema
}

func TestNewValidation(t *testing.T) {
	_, schema := fixtureDataset(t)
	cases := []Config{
		{Attrs: nil, Q: 2, K: 1, L: 1},
		{Attrs: []string{"title"}, Q: 0, K: 1, L: 1},
		{Attrs: []string{"title"}, Q: 2, K: 0, L: 1},
		{Attrs: []string{"title"}, Q: 2, K: 1, L: 0},
		{Attrs: []string{"title"}, Q: 2, K: 1, L: 1, Semantic: &SemanticOption{Schema: nil, W: 1}},
		{Attrs: []string{"title"}, Q: 2, K: 1, L: 1, Semantic: &SemanticOption{Schema: schema, W: 0}},
		{Attrs: []string{"title"}, Q: 2, K: 1, L: 1, Semantic: &SemanticOption{Schema: schema, W: schema.Bits() + 1}},
	}
	for i, cfg := range cases {
		if _, err := New(cfg); err == nil {
			t.Errorf("case %d: expected validation error", i)
		}
	}
}

func TestName(t *testing.T) {
	_, schema := fixtureDataset(t)
	b, err := New(Config{Attrs: []string{"title"}, Q: 2, K: 2, L: 2})
	if err != nil {
		t.Fatal(err)
	}
	if b.Name() != "lsh" {
		t.Errorf("Name = %q", b.Name())
	}
	sb, err := New(Config{Attrs: []string{"title"}, Q: 2, K: 2, L: 2,
		Semantic: &SemanticOption{Schema: schema, W: 1, Mode: ModeOR}})
	if err != nil {
		t.Fatal(err)
	}
	if sb.Name() != "sa-lsh" {
		t.Errorf("semantic Name = %q", sb.Name())
	}
}

// TestProposition52 checks Prop 5.2(1): textually identical records are
// always hashed into the same block by plain LSH.
func TestProposition52(t *testing.T) {
	d := record.NewDataset("identical")
	d.Append(0, map[string]string{"title": "Entity Resolution"})
	d.Append(0, map[string]string{"title": "entity   resolution"}) // normalises identically
	d.Append(1, map[string]string{"title": "something else entirely"})
	for seed := int64(0); seed < 20; seed++ {
		b, err := New(Config{Attrs: []string{"title"}, Q: 3, K: 4, L: 2, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		res, err := b.Block(d)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Covers(0, 1) {
			t.Fatalf("seed %d: identical records not co-blocked", seed)
		}
	}
}

// TestProposition53 checks Prop 5.3(1): semantically disjoint records are
// never co-blocked by SA-LSH, regardless of textual similarity, for both
// AND and OR modes.
func TestProposition53(t *testing.T) {
	d := record.NewDataset("disjoint")
	// Identical titles; one journal article (journal set), one conference
	// paper (booktitle set). simS = 0 because C3 and C4 are siblings.
	d.Append(0, map[string]string{"title": "The cascade correlation learning architecture", "journal": "x"})
	d.Append(1, map[string]string{"title": "The cascade correlation learning architecture", "booktitle": "y"})
	fn, err := semantic.NewCoraFunction(taxonomy.Bibliographic())
	if err != nil {
		t.Fatal(err)
	}
	schema, err := semantic.BuildSchema(fn, d)
	if err != nil {
		t.Fatal(err)
	}
	for _, mode := range []Mode{ModeAND, ModeOR} {
		for w := 1; w <= schema.Bits(); w++ {
			for seed := int64(0); seed < 10; seed++ {
				b, err := New(Config{Attrs: []string{"title"}, Q: 2, K: 2, L: 4, Seed: seed,
					Semantic: &SemanticOption{Schema: schema, W: w, Mode: mode}})
				if err != nil {
					t.Fatal(err)
				}
				res, err := b.Block(d)
				if err != nil {
					t.Fatal(err)
				}
				if res.Covers(0, 1) {
					t.Fatalf("mode=%v w=%d seed=%d: semantically disjoint records co-blocked", mode, w, seed)
				}
			}
		}
	}
}

func TestDeterminism(t *testing.T) {
	d, schema := fixtureDataset(t)
	cfg := Config{Attrs: []string{"title", "authors"}, Q: 2, K: 2, L: 4, Seed: 11,
		Semantic: &SemanticOption{Schema: schema, W: 2, Mode: ModeOR}}
	b1, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b2, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	r1, err := b1.Block(d)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := b2.Block(d)
	if err != nil {
		t.Fatal(err)
	}
	p1, p2 := r1.CandidatePairs().Slice(), r2.CandidatePairs().Slice()
	if len(p1) != len(p2) {
		t.Fatalf("pair counts differ: %d vs %d", len(p1), len(p2))
	}
	for i := range p1 {
		if p1[i] != p2[i] {
			t.Fatalf("pair %d differs", i)
		}
	}
}

// orPairsByDefinition is the w-way OR of §5.2 spelled out pair by pair:
// records a and b co-block iff in some table their minhash bands hash to the
// same band key and they share a set bit among the table's w selected
// semhash functions. Signatures come straight from the q-gram strings, the
// bit choice from selectBits — nothing of the Signer's staging, laziness or
// bucket keying is involved.
func orPairsByDefinition(cfg Config, d *record.Dataset) record.PairSet {
	schema := cfg.Semantic.Schema
	fam := minhash.NewFamily(cfg.K*cfg.L, cfg.Seed)
	n := d.Len()
	bands := make([][]uint64, n) // bands[i][t]: record i's band key in table t
	sems := make([]semantic.BitVec, n)
	for i, r := range d.Records() {
		sig := fam.Signature(textual.QGrams(r.Key(cfg.Attrs...), cfg.Q))
		bands[i] = make([]uint64, cfg.L)
		for t := range bands[i] {
			bands[i][t] = minhash.BandKey(t, sig[t*cfg.K:(t+1)*cfg.K])
		}
		sems[i] = schema.Signature(r)
	}
	pairs := record.NewPairSet(0)
	for t := 0; t < cfg.L; t++ {
		bits := selectBits(cfg.Seed, t, cfg.Semantic.W, schema.Bits())
		for a := 0; a < n; a++ {
			for b := a + 1; b < n; b++ {
				if bands[a][t] != bands[b][t] {
					continue
				}
				for _, bit := range bits {
					if sems[a].Get(bit) && sems[b].Get(bit) {
						pairs.Add(record.ID(a), record.ID(b))
						break
					}
				}
			}
		}
	}
	return pairs
}

// TestORBlocksMatchDefinition checks OR-mode Block against the definition
// of the w-way OR function: over w and seeds on the running example, and on
// a mid-size Cora sample and a voter sample at the paper's w=12 across
// worker counts, where the blocks must also not move with the worker count
// (run with -race, as the CI race job does, this exercises the concurrent
// table builds over the shared key matrix).
func TestORBlocksMatchDefinition(t *testing.T) {
	check := func(name string, cfg Config, d *record.Dataset) [][]record.ID {
		t.Helper()
		b, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		res, err := b.Block(d)
		if err != nil {
			t.Fatal(err)
		}
		got, want := res.CandidatePairs(), orPairsByDefinition(cfg, d)
		if got.Len() != want.Len() || got.Intersect(want) != want.Len() {
			t.Fatalf("%s: Block has %d candidate pairs, the definition %d (%d shared)",
				name, got.Len(), want.Len(), got.Intersect(want))
		}
		return res.Blocks
	}

	d, schema := fixtureDataset(t)
	for _, w := range []int{1, 2, 3, 5} {
		for seed := int64(0); seed < 5; seed++ {
			check(fmt.Sprintf("w=%d seed=%d", w, seed), Config{
				Attrs: []string{"title", "authors"}, Q: 2, K: 2, L: 6, Seed: seed,
				Semantic: &SemanticOption{Schema: schema, W: w, Mode: ModeOR},
			}, d)
		}
	}

	cora, coraSchema := coraFixture(t, 400)
	voter, voterSchema := voterFixture(t, 1500)
	for _, tc := range []struct {
		name string
		d    *record.Dataset
		cfg  Config
	}{
		{"cora", cora, Config{Attrs: []string{"authors", "title"}, Q: 3, K: 3, L: 16, Seed: 9,
			Semantic: &SemanticOption{Schema: coraSchema, W: 3, Mode: ModeOR}}},
		{"voter", voter, Config{Attrs: []string{"first_name", "last_name"}, Q: 2, K: 9, L: 15, Seed: 1,
			Semantic: &SemanticOption{Schema: voterSchema, W: 12, Mode: ModeOR}}},
	} {
		var want [][]record.ID
		for _, workers := range []int{1, 3, 8} {
			cfg := tc.cfg
			cfg.Workers = workers
			blocks := check(fmt.Sprintf("%s workers=%d", tc.name, workers), cfg, tc.d)
			if len(blocks) == 0 {
				t.Fatalf("%s workers=%d: no blocks produced", tc.name, workers)
			}
			if want == nil {
				want = blocks
			} else if fmt.Sprint(blocks) != fmt.Sprint(want) {
				t.Fatalf("%s workers=%d changed the blocks", tc.name, workers)
			}
		}
	}
}

// voterFixture is an n-record sample of the voter generator with the
// schema built over it.
func voterFixture(t *testing.T, n int) (*record.Dataset, *semantic.Schema) {
	t.Helper()
	cfg := datagen.DefaultVoterConfig()
	cfg.Records = n
	d := datagen.Voter(cfg)
	fn, err := semantic.NewVoterFunction(taxonomy.Voter())
	if err != nil {
		t.Fatal(err)
	}
	schema, err := semantic.BuildSchema(fn, d)
	if err != nil {
		t.Fatal(err)
	}
	return d, schema
}

// TestSemanticFiltersTextualCollisions reproduces the paper's Example 5.1:
// a technical report textually similar to conference articles must not be
// blocked with them once semantics are considered, while the ambiguous
// record still may.
func TestSemanticFiltersTextualCollisions(t *testing.T) {
	d, schema := fixtureDataset(t)
	plain, err := New(Config{Attrs: []string{"title", "authors"}, Q: 2, K: 2, L: 8, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	sa, err := New(Config{Attrs: []string{"title", "authors"}, Q: 2, K: 2, L: 8, Seed: 3,
		Semantic: &SemanticOption{Schema: schema, W: 1, Mode: ModeOR}})
	if err != nil {
		t.Fatal(err)
	}
	rp, err := plain.Block(d)
	if err != nil {
		t.Fatal(err)
	}
	rs, err := sa.Block(d)
	if err != nil {
		t.Fatal(err)
	}
	// r1 (id 0, conference) and r4 (id 3, technical report) are textually
	// near-identical: plain LSH with l=8 almost surely co-blocks them.
	if !rp.Covers(0, 3) {
		t.Skip("textual collision did not occur at this seed; statistical precondition unmet")
	}
	if rs.Covers(0, 3) {
		t.Error("SA-LSH must filter the conference/TR pair (simS=0)")
	}
	// SA-LSH keeps at least the duplicate conference pair r1,r2.
	if !rs.Covers(0, 1) {
		t.Error("SA-LSH lost the true-match conference pair")
	}
	// Candidate set must shrink.
	if rs.CandidatePairs().Len() > rp.CandidatePairs().Len() {
		t.Errorf("SA-LSH pairs (%d) exceed LSH pairs (%d)", rs.CandidatePairs().Len(), rp.CandidatePairs().Len())
	}
}

// TestBandingCollisionMatchesModel verifies empirically that the collision
// frequency across independent seeds approximates 1-(1-s^k)^l.
func TestBandingCollisionMatchesModel(t *testing.T) {
	a := "abcdefghijklmnopqrst"
	b := "abcdefghijklmnzzzzzz" // shares a long prefix
	s := textual.QGramJaccard(a, b, 2)
	d := record.NewDataset("model")
	d.Append(0, map[string]string{"title": a})
	d.Append(1, map[string]string{"title": b})
	const trials = 400
	k, l := 2, 3
	hits := 0
	for seed := int64(0); seed < trials; seed++ {
		blk, err := New(Config{Attrs: []string{"title"}, Q: 2, K: k, L: l, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		res, err := blk.Block(d)
		if err != nil {
			t.Fatal(err)
		}
		if res.Covers(0, 1) {
			hits++
		}
	}
	got := float64(hits) / trials
	want := CollisionProbability(s, k, l)
	// Std error ~ sqrt(p(1-p)/400) <= 0.025; allow 4 sigma.
	if math.Abs(got-want) > 0.1 {
		t.Errorf("empirical collision %v, model %v (s=%v)", got, want, s)
	}
}

func TestCollisionProbability(t *testing.T) {
	// Paper §6.1: sh=0.3, k=4 needs l=63 for >=40% collision.
	if got := CollisionProbability(0.3, 4, 63); got < 0.40 || got > 0.41 {
		t.Errorf("P(0.3;4,63) = %v, want just above 0.40", got)
	}
	// Boundary behaviour.
	if CollisionProbability(1, 5, 10) != 1 {
		t.Error("s=1 must always collide")
	}
	if CollisionProbability(0, 5, 10) != 0 {
		t.Error("s=0 must never collide")
	}
	// Monotone in s.
	prev := -1.0
	for s := 0.0; s <= 1.0; s += 0.05 {
		p := CollisionProbability(s, 4, 63)
		if p < prev {
			t.Fatalf("collision probability not monotone at s=%v", s)
		}
		prev = p
	}
}

func TestSemanticFactor(t *testing.T) {
	// Fig. 5: AND decreases with w, OR increases with w.
	for _, s := range []float64{0.2, 0.5, 0.8} {
		for w := 1; w < 15; w++ {
			if SemanticFactor(s, w+1, ModeAND) > SemanticFactor(s, w, ModeAND) {
				t.Fatalf("AND factor increased at s=%v w=%d", s, w)
			}
			if SemanticFactor(s, w+1, ModeOR) < SemanticFactor(s, w, ModeOR) {
				t.Fatalf("OR factor decreased at s=%v w=%d", s, w)
			}
		}
	}
	// w=1: AND == OR.
	if SemanticFactor(0.37, 1, ModeAND) != SemanticFactor(0.37, 1, ModeOR) {
		t.Error("1-way AND and OR must coincide")
	}
}

func TestSACollisionProbability(t *testing.T) {
	// Zero semantic similarity kills the collision probability entirely.
	if got := SACollisionProbability(1.0, 0, 4, 63, 2, ModeAND); got != 0 {
		t.Errorf("s'=0 AND: %v, want 0", got)
	}
	if got := SACollisionProbability(1.0, 0, 4, 63, 2, ModeOR); got != 0 {
		t.Errorf("s'=0 OR: %v, want 0", got)
	}
	// SA collision never exceeds the plain LSH collision (Prop 5.3(2)).
	for _, s := range []float64{0.2, 0.5, 0.9} {
		for _, sp := range []float64{0.1, 0.5, 1.0} {
			plain := CollisionProbability(s, 4, 63)
			sa := SACollisionProbability(s, sp, 4, 63, 3, ModeOR)
			if sa > plain+1e-12 {
				t.Errorf("SA collision %v exceeds plain %v at s=%v s'=%v", sa, plain, s, sp)
			}
		}
	}
}

func TestModeString(t *testing.T) {
	if ModeAND.String() != "and" || ModeOR.String() != "or" {
		t.Error("Mode.String mismatch")
	}
}

func TestSelectBitsDistinct(t *testing.T) {
	for table := 0; table < 50; table++ {
		bits := selectBits(7, table, 4, 5)
		seen := map[int]bool{}
		for _, b := range bits {
			if b < 0 || b >= 5 {
				t.Fatalf("bit out of range: %d", b)
			}
			if seen[b] {
				t.Fatalf("duplicate bit %d in table %d", b, table)
			}
			seen[b] = true
		}
	}
}

func TestBlockEmptyDataset(t *testing.T) {
	b, err := New(Config{Attrs: []string{"title"}, Q: 2, K: 2, L: 2})
	if err != nil {
		t.Fatal(err)
	}
	res, err := b.Block(record.NewDataset("empty"))
	if err != nil {
		t.Fatal(err)
	}
	if res.NumBlocks() != 0 {
		t.Errorf("empty dataset produced %d blocks", res.NumBlocks())
	}
}
