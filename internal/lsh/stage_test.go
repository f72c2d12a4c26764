package lsh

import (
	"slices"
	"testing"

	"semblock/internal/datagen"
	"semblock/internal/minhash"
	"semblock/internal/record"
	"semblock/internal/semantic"
	"semblock/internal/taxonomy"
	"semblock/internal/textual"
)

// coraSigners builds one signer per semantic configuration over a small
// Cora sample: plain LSH, AND and OR.
func coraSigners(t *testing.T) (*record.Dataset, *semantic.Schema, map[string]*Signer) {
	t.Helper()
	cfg := datagen.DefaultCoraConfig()
	cfg.Records = 60
	d := datagen.Cora(cfg)
	fn, err := semantic.NewCoraFunction(taxonomy.Bibliographic())
	if err != nil {
		t.Fatal(err)
	}
	schema, err := semantic.BuildSchema(fn, d)
	if err != nil {
		t.Fatal(err)
	}
	signers := make(map[string]*Signer)
	for name, opt := range map[string]*SemanticOption{
		"lsh":               nil,
		"and":               {Schema: schema, W: 2, Mode: ModeAND},
		"or-bucket-per-bit": {Schema: schema, W: 3, Mode: ModeOR},
	} {
		s, err := NewSigner(Config{Attrs: []string{"authors", "title"}, Q: 3, K: 3, L: 8, Seed: 11, Semantic: opt})
		if err != nil {
			t.Fatal(err)
		}
		signers[name] = s
	}
	return d, schema, signers
}

// naiveBandKey is the reference band key: the full k·l signature straight
// from the q-gram strings, the band hashed unconditionally.
func naiveBandKey(s *Signer, r *record.Record, table int) uint64 {
	cfg := s.Config()
	sig := minhash.NewFamily(cfg.K*cfg.L, cfg.Seed).Signature(textual.QGrams(r.Key(cfg.Attrs...), cfg.Q))
	return minhash.BandKey(table, sig[table*cfg.K:(table+1)*cfg.K])
}

// naiveBucketKeys is the reference keying, written the way the code read
// before band signing became lazy: the band key (naiveBandKey), the
// semantic bits — the table's own w-subset of the schema (§5.2) —
// consulted last.
func naiveBucketKeys(s *Signer, schema *semantic.Schema, r *record.Record, table int) []uint64 {
	cfg := s.Config()
	key := naiveBandKey(s, r, table)
	if cfg.Semantic == nil {
		return []uint64{key}
	}
	sem := schema.Signature(r)
	bits := selectBits(cfg.Seed, table, cfg.Semantic.W, schema.Bits())
	var out []uint64
	if cfg.Semantic.Mode == ModeAND {
		for _, bit := range bits {
			if !sem.Get(bit) {
				return out
			}
		}
		return append(out, key)
	}
	for _, bit := range bits {
		if sem.Get(bit) {
			out = append(out, mixBit(key, bit))
		}
	}
	return out
}

// TestStageEquivalence checks that the staged flow — one Stage per record,
// then active bands signed per table subset — yields exactly the reference
// bucket keys for every table, whichever way it is driven: the whole
// signature at once or a table subset; and that BandKeys stores the
// reference band key of exactly the active tables, at either stride.
// Shared-log shards therefore block identically to one unrestricted signer.
func TestStageEquivalence(t *testing.T) {
	d, schema, signers := coraSigners(t)
	for name, signer := range signers {
		cfg := signer.Config()
		size := cfg.K * cfg.L
		subset := []int{1, 4, 7}
		for _, r := range d.Records() {
			st, _ := signer.StageAppend(r, nil)
			if cfg.Semantic != nil {
				if got, want := st.Sem(), schema.Signature(r); got.String() != want.String() {
					t.Fatalf("%s record %d: staged semhash %s, direct %s", name, r.ID, got, want)
				}
			}
			full, sub := make([]uint64, size), make([]uint64, size)
			signer.SignStagedInto(&st, nil, full)
			signer.SignStagedInto(&st, subset, sub)

			const stride = 5
			wide, dense := make([]uint64, cfg.L*stride), make([]uint64, len(subset))
			signer.BandKeys(&st, signer.all, make([]uint64, size), wide, stride)
			signer.BandKeys(&st, subset, make([]uint64, size), dense, 1)

			for table := 0; table < cfg.L; table++ {
				want := naiveBucketKeys(signer, schema, r, table)
				if got := signer.BucketKeys(table, full, st.Sem(), nil); !slices.Equal(got, want) {
					t.Fatalf("%s record %d table %d: full-signature keys %v, want %v", name, r.ID, table, got, want)
				}
				if got, ok := wide[table*stride], len(want) > 0; ok != signer.Active(table, st.Sem().Words()) || ok && got != naiveBandKey(signer, r, table) {
					t.Fatalf("%s record %d table %d: strided band key %#x (active %v), want keys %v", name, r.ID, table, got, ok, want)
				}
			}
			for j, table := range subset {
				want := naiveBucketKeys(signer, schema, r, table)
				if got := signer.BucketKeys(table, sub, st.Sem(), nil); !slices.Equal(got, want) {
					t.Fatalf("%s record %d table %d: subset-signature keys %v, want %v", name, r.ID, table, got, want)
				}
				if got, ok := dense[j], len(want) > 0; ok != signer.Active(table, st.Sem().Words()) || ok && got != naiveBandKey(signer, r, table) {
					t.Fatalf("%s record %d table %d: dense band key %#x (active %v), want keys %v", name, r.ID, table, got, ok, want)
				}
			}
		}
	}
}

// TestInactiveBandsNeverWrittenNorRead pins the contract that lets callers
// reuse dirty buffers: signing leaves the bands of inactive tables exactly
// as it found them, and BucketKeys produces the reference keys with every
// one of those bands poisoned — it decides from the semantic bits before it
// touches the band.
func TestInactiveBandsNeverWrittenNorRead(t *testing.T) {
	d, schema, signers := coraSigners(t)
	for name, signer := range signers {
		cfg := signer.Config()
		inactive := 0
		for _, r := range d.Records() {
			st, _ := signer.StageAppend(r, nil)
			sig := make([]uint64, cfg.K*cfg.L)
			for i := range sig {
				sig[i] = 0xc0ffee
			}
			signer.SignStagedInto(&st, nil, sig)
			for table := 0; table < cfg.L; table++ {
				band := sig[table*cfg.K : (table+1)*cfg.K]
				if !signer.Active(table, st.Sem().Words()) {
					inactive++
					for j, v := range band {
						if v != 0xc0ffee {
							t.Fatalf("%s record %d: inactive table %d component %d was written", name, r.ID, table, j)
						}
						band[j] = 0xbadbadbad + uint64(j)
					}
				}
				want := naiveBucketKeys(signer, schema, r, table)
				if got := signer.BucketKeys(table, sig, st.Sem(), nil); !slices.Equal(got, want) {
					t.Fatalf("%s record %d table %d: keys %v, want %v", name, r.ID, table, got, want)
				}
			}
		}
		// The filtering configurations must actually exercise the skip.
		filters := name == "and" || name == "or-bucket-per-bit" || name == "or-global-bits"
		if filters != (inactive > 0) {
			t.Errorf("%s: %d inactive (record, table) bands, want filtering=%v", name, inactive, filters)
		}
		t.Logf("%s: %d of %d bands inactive", name, inactive, d.Len()*cfg.L)
	}
}
