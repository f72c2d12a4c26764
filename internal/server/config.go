package server

import (
	"fmt"
	"regexp"

	"semblock/internal/datagen"
	"semblock/internal/lsh"
	"semblock/internal/record"
	"semblock/internal/semantic"
	"semblock/internal/taxonomy"
)

// nameRE constrains collection names: they double as directory names under
// the data dir, so the alphabet excludes anything path-like.
var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_-]{0,63}$`)

// CollectionSpec is the JSON-serialisable configuration of one collection:
// everything needed to rebuild its blocking behaviour from scratch, which
// is exactly what snapshot restore does. It is the body of
// POST /v1/collections and the spec block of the on-disk manifest.
type CollectionSpec struct {
	// Name identifies the collection; it must match [A-Za-z0-9][A-Za-z0-9_-]*
	// (at most 64 characters) because it doubles as a directory name.
	Name string `json:"name"`
	// Attrs are the record attributes shingled into the textual key.
	Attrs []string `json:"attrs"`
	// Q, K, L and Seed are the (SA-)LSH parameters (see lsh.Config).
	Q    int   `json:"q"`
	K    int   `json:"k"`
	L    int   `json:"l"`
	Seed int64 `json:"seed"`
	// Shards is the number of table shards backing the collection (0 = the
	// server default). Shards partition the l hash tables, not the records:
	// every record is inserted into every shard, so the merged candidate
	// set equals an unsharded index's — sharding changes write parallelism,
	// never results.
	Shards int `json:"shards,omitempty"`
	// Workers is the width of the collection's staging, signing and merge
	// passes (0 = GOMAXPROCS, spread evenly over the shards for signing).
	Workers int `json:"workers,omitempty"`
	// Semantic upgrades the collection from LSH to SA-LSH.
	Semantic *SemanticSpec `json:"semantic,omitempty"`
}

// SemanticSpec selects a built-in semantic domain for SA-LSH collections.
// The semhash schema is built from the domain's deterministic reference
// dataset (the streaming analogue of deriving C from a reference sample),
// so a restored collection rebuilds the identical schema and blocks exactly
// like the original.
type SemanticSpec struct {
	// Domain names the built-in semantic function: "cora" or "voter".
	Domain string `json:"domain"`
	// W is the w-way semantic hash width (0 = half the schema bits).
	W int `json:"w,omitempty"`
	// Mode is the w-way composition: "or" (default) or "and".
	Mode string `json:"mode,omitempty"`
}

// validate normalises defaults and rejects malformed specs. The LSH
// parameters themselves are validated by lsh.NewSigner when the collection
// is built.
func (spec *CollectionSpec) validate() error {
	if !nameRE.MatchString(spec.Name) {
		return fmt.Errorf("server: collection name %q must match %s", spec.Name, nameRE)
	}
	if spec.Shards == 0 {
		spec.Shards = 1
	}
	if spec.Shards < 1 {
		return fmt.Errorf("server: shards must be >= 1, got %d", spec.Shards)
	}
	if spec.L > 0 && spec.Shards > spec.L {
		return fmt.Errorf("server: %d shards exceed the %d hash tables", spec.Shards, spec.L)
	}
	return nil
}

// buildConfig materialises the lsh.Config of a spec, including the semhash
// schema of a semantic domain. It is deterministic: the same spec always
// yields the same blocking behaviour, the property snapshot restore relies
// on.
func (spec CollectionSpec) buildConfig() (lsh.Config, error) {
	cfg := lsh.Config{
		Attrs: spec.Attrs, Q: spec.Q, K: spec.K, L: spec.L,
		Seed: spec.Seed, Workers: spec.Workers,
	}
	if spec.Semantic == nil {
		return cfg, nil
	}
	ref, fn, err := semanticDomain(spec.Semantic.Domain)
	if err != nil {
		return lsh.Config{}, err
	}
	schema, err := semantic.BuildSchema(fn, ref)
	if err != nil {
		return lsh.Config{}, fmt.Errorf("server: build %s schema: %w", spec.Semantic.Domain, err)
	}
	w := spec.Semantic.W
	if w <= 0 {
		w = (schema.Bits() + 1) / 2
	}
	mode, err := lsh.ParseMode(spec.Semantic.Mode)
	if err != nil {
		return lsh.Config{}, fmt.Errorf("server: %w", err)
	}
	cfg.Semantic = &lsh.SemanticOption{Schema: schema, W: w, Mode: mode}
	return cfg, nil
}

// semanticDomain returns the deterministic reference dataset and semantic
// function of a built-in domain. The reference dataset fixes the semhash
// feature set C before any record arrives (Algorithm 1's precondition).
func semanticDomain(domain string) (*record.Dataset, semantic.Function, error) {
	switch domain {
	case "cora":
		fn, err := semantic.NewCoraFunction(taxonomy.Bibliographic())
		if err != nil {
			return nil, nil, err
		}
		return datagen.Cora(datagen.DefaultCoraConfig()), fn, nil
	case "voter":
		fn, err := semantic.NewVoterFunction(taxonomy.Voter())
		if err != nil {
			return nil, nil, err
		}
		return datagen.Voter(datagen.DefaultVoterConfig()), fn, nil
	default:
		return nil, nil, fmt.Errorf("server: unknown semantic domain %q (want cora or voter)", domain)
	}
}
