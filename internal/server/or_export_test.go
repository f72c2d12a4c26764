package server

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"strconv"
	"testing"

	"semblock/internal/datagen"
	"semblock/internal/engine"
	"semblock/internal/lsh"
	"semblock/internal/record"
	"semblock/internal/semantic"
	"semblock/internal/stream"
	"semblock/internal/taxonomy"
)

// bucketPerBit files every record of d, in ID order, under the keys of
// lsh.Signer.BucketKeys — the bucket-per-bit definition of an OR
// collision, one key per selected set bit — each table in a fresh
// engine.Table. It returns each table's blocks (engine.AppendBlocks) and
// each record's raw collision pairs (the prior members of every bucket it
// joined), indexed by record ID.
func bucketPerBit(t *testing.T, cfg lsh.Config, d *record.Dataset) (perTable [][][]record.ID, raw [][]record.Pair) {
	t.Helper()
	signer, err := lsh.NewSigner(cfg)
	if err != nil {
		t.Fatal(err)
	}
	tables := make([]*engine.Table, cfg.L)
	for i := range tables {
		tables[i] = engine.NewTable(0)
	}
	sig := make([]uint64, cfg.K*cfg.L)
	raw = make([][]record.Pair, d.Len())
	var keys []uint64
	for _, r := range d.Records() {
		st, _ := signer.StageAppend(r, nil)
		signer.SignStagedInto(&st, nil, sig)
		for tb := range tables {
			keys = signer.BucketKeys(tb, sig, st.Sem(), keys[:0])
			for _, key := range keys {
				for _, other := range tables[tb].Insert(key, r.ID) {
					raw[r.ID] = append(raw[r.ID], record.MakePair(other, r.ID))
				}
			}
		}
	}
	perTable = make([][][]record.ID, cfg.L)
	for i, tb := range tables {
		perTable[i] = engine.AppendBlocks(nil, tb, 2, true)
	}
	return perTable, raw
}

// wideFixture is a dataset over a 120-leaf taxonomy (ten groups of twelve),
// so its schema is wider than one 64-bit word: each record maps two
// attributes to a leaf, a group (twelve bits) or nothing (the root, every
// bit), and its name is drawn from a small vocabulary so band keys collide.
func wideFixture(t *testing.T, n int) (*record.Dataset, *semantic.Schema) {
	t.Helper()
	b := taxonomy.NewBuilder("wide").Root("R", "root")
	mapping := make(map[string]string)
	for g := 0; g < 10; g++ {
		group := "G" + strconv.Itoa(g)
		b.Child("R", group, group)
		mapping[group] = group
		for l := 0; l < 12; l++ {
			leaf := fmt.Sprintf("L%d", g*12+l)
			b.Child(group, leaf, leaf)
			mapping[leaf] = leaf
		}
	}
	tax, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	fn, err := semantic.NewValueFunction(tax, []semantic.ValueAttr{
		{Attr: "a", Mapping: mapping, Uncertain: "R"},
		{Attr: "b", Mapping: mapping, Uncertain: "R"},
	})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	concept := func() string {
		switch p := rng.Intn(10); {
		case p < 7:
			return fmt.Sprintf("L%d", rng.Intn(120))
		case p < 9:
			return fmt.Sprintf("G%d", rng.Intn(10))
		}
		return ""
	}
	words := []string{"ada", "bea", "cy", "dee", "eli"}
	d := record.NewDataset("wide")
	for i := 0; i < n; i++ {
		name := words[rng.Intn(len(words))] + " " + words[rng.Intn(len(words))]
		d.Append(record.EntityID(i), map[string]string{"name": name, "a": concept(), "b": concept()})
	}
	schema, err := semantic.BuildSchema(fn, d)
	if err != nil {
		t.Fatal(err)
	}
	if schema.Bits() <= 64 {
		t.Fatalf("wide fixture schema has %d bits, want more than 64", schema.Bits())
	}
	return d, schema
}

// TestORExportMatchesBucketPerBit pins the one-key-per-table OR storage to
// the bucket-per-bit definition it replaced: Block (over worker counts),
// every shard's Indexer.Snapshot (over shard counts and batch sizes) and
// the dedupGroup-merged InsertStaged groups must equal what filing every
// record under its BucketKeys produces — block for block, in order — on
// Cora at w=1..5, on voter at the paper's w=12, and on a schema wider than
// one word.
func TestORExportMatchesBucketPerBit(t *testing.T) {
	type fixture struct {
		name string
		d    *record.Dataset
		cfg  lsh.Config
	}
	var cases []fixture
	cora, _ := coraFixture(t, 400)
	coraFn, err := semantic.NewCoraFunction(taxonomy.Bibliographic())
	if err != nil {
		t.Fatal(err)
	}
	coraSchema, err := semantic.BuildSchema(coraFn, cora)
	if err != nil {
		t.Fatal(err)
	}
	for w := 1; w <= 5; w++ {
		cases = append(cases, fixture{fmt.Sprintf("cora/w=%d", w), cora, lsh.Config{
			Attrs: []string{"authors", "title"}, Q: 3, K: 3, L: 12, Seed: 7,
			Semantic: &lsh.SemanticOption{Schema: coraSchema, W: w, Mode: lsh.ModeOR},
		}})
	}
	vcfg := datagen.DefaultVoterConfig()
	vcfg.Records = 1500
	voter := datagen.Voter(vcfg)
	voterFn, err := semantic.NewVoterFunction(taxonomy.Voter())
	if err != nil {
		t.Fatal(err)
	}
	voterSchema, err := semantic.BuildSchema(voterFn, voter)
	if err != nil {
		t.Fatal(err)
	}
	cases = append(cases, fixture{"voter/w=12", voter, lsh.Config{
		Attrs: []string{"first_name", "last_name"}, Q: 2, K: 9, L: 15, Seed: 1,
		Semantic: &lsh.SemanticOption{Schema: voterSchema, W: 12, Mode: lsh.ModeOR},
	}})
	wide, wideSchema := wideFixture(t, 600)
	for _, w := range []int{6, 40} {
		cases = append(cases, fixture{fmt.Sprintf("wide/w=%d", w), wide, lsh.Config{
			Attrs: []string{"name"}, Q: 2, K: 2, L: 8, Seed: 3,
			Semantic: &lsh.SemanticOption{Schema: wideSchema, W: w, Mode: lsh.ModeOR},
		}})
	}

	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			perTable, raw := bucketPerBit(t, tc.cfg, tc.d)
			want := [][]record.ID{}
			for _, blocks := range perTable {
				want = append(want, blocks...)
			}
			if len(want) == 0 {
				t.Fatal("fixture produced no blocks")
			}
			wantGroups := make([][]record.Pair, len(raw))
			for id, g := range raw {
				wantGroups[id] = dedupGroup(g)
			}

			for _, workers := range []int{1, 3, 8} {
				cfg := tc.cfg
				cfg.Workers = workers
				b, err := lsh.New(cfg)
				if err != nil {
					t.Fatal(err)
				}
				res, err := b.Block(tc.d)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(res.Blocks, want) {
					t.Fatalf("workers=%d: Block has %d blocks, bucket-per-bit %d, or a different order",
						workers, len(res.Blocks), len(want))
				}
			}

			rows := make([]stream.Row, tc.d.Len())
			for i, r := range tc.d.Records() {
				rows[i] = stream.Row{Entity: r.Entity, Attrs: r.Attrs}
			}
			for _, shards := range []int{1, 2, 4} {
				for _, size := range []int{1, 7, 256} {
					checkShardFamily(t, tc.cfg, rows, shards, size, perTable, wantGroups)
				}
			}
		})
	}
}

// checkShardFamily ingests rows in batches of size into a family of shards
// over one shared log, partitioned as the collection partitions tables,
// and checks every batch record's merged group and, at the end, every
// shard's Snapshot against the bucket-per-bit reference.
func checkShardFamily(t *testing.T, cfg lsh.Config, rows []stream.Row, shards, size int,
	perTable [][][]record.ID, wantGroups [][]record.Pair) {
	t.Helper()
	const workers = 2 // two internal table shards per indexer
	log, err := stream.NewSharedLog("or", cfg, 0)
	if err != nil {
		t.Fatal(err)
	}
	family := make([]*stream.Indexer, shards)
	for i := range family {
		var tables []int
		for tb := i; tb < cfg.L; tb += shards {
			tables = append(tables, tb)
		}
		if family[i], err = stream.NewIndexer(cfg, stream.WithTables(tables...),
			stream.WithWorkers(workers), stream.WithSharedLog(log)); err != nil {
			t.Fatal(err)
		}
	}
	perShard := make([]stream.PairGroups, shards)
	for lo := 0; lo < len(rows); lo += size {
		b := log.Append(rows[lo:min(lo+size, len(rows))])
		for i, ix := range family {
			perShard[i] = ix.InsertStaged(b)
		}
		for i, g := range flattenGroups(perShard, len(b.IDs)) {
			if got, want := dedupGroup(g), wantGroups[b.IDs[i]]; !slices.Equal(got, want) {
				t.Fatalf("shards=%d batch=%d: record %d merged group %v, bucket-per-bit %v",
					shards, size, b.IDs[i], got, want)
			}
		}
	}
	for i, ix := range family {
		// Snapshot walks the indexer's internal shards in turn, each over
		// its round-robin share of the indexer's tables, in table order.
		tables := ix.Tables()
		internal := min(workers, len(tables))
		want := [][]record.ID{}
		for s := 0; s < internal; s++ {
			for j := s; j < len(tables); j += internal {
				want = append(want, perTable[tables[j]]...)
			}
		}
		if got := ix.Snapshot().Blocks; !reflect.DeepEqual(got, want) {
			t.Fatalf("shards=%d batch=%d: shard %d Snapshot has %d blocks, bucket-per-bit %d, or a different order",
				shards, size, i, len(got), len(want))
		}
	}
}
