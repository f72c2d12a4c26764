// Package lsh implements the paper's core contribution (§5): LSH blocking
// over minhash signatures, and Semantic-Aware LSH (SA-LSH) blocking that
// augments each hash table with a w-way AND/OR semantic hash function built
// from semhash signatures.
//
// A blocker is configured with k (hash functions per table), l (number of
// tables) and, for SA-LSH, a semhash schema plus (w, µ). Records whose
// minhash signatures agree on all k components of a table — and, for
// SA-LSH, whose semhash signatures satisfy the table's w-way semantic
// function — are placed into the same block.
package lsh

import (
	"fmt"
	"math"
	"math/rand"
	"strings"

	"semblock/internal/blocking"
	"semblock/internal/engine"
	"semblock/internal/minhash"
	"semblock/internal/record"
	"semblock/internal/semantic"
)

// Mode selects how a w-way semantic hash function combines its w underlying
// semantic hash functions (paper §5.2).
type Mode int

const (
	// ModeAND requires all w semantic hash functions to agree (h[w,∧]).
	ModeAND Mode = iota
	// ModeOR requires at least one semantic hash function to agree (h[w,∨]).
	ModeOR
)

// String renders the paper's µ symbol name.
func (m Mode) String() string {
	if m == ModeAND {
		return "and"
	}
	return "or"
}

// ParseMode is the inverse of Mode.String, ignoring case; the empty string
// is the default, OR.
func ParseMode(s string) (Mode, error) {
	switch strings.ToLower(s) {
	case "", "or":
		return ModeOR, nil
	case "and":
		return ModeAND, nil
	}
	return 0, fmt.Errorf("semantic mode %q (want \"and\" or \"or\")", s)
}

// SemanticOption configures the semantic augmentation of SA-LSH.
type SemanticOption struct {
	// Schema provides semhash signatures (Algorithm 1).
	Schema *semantic.Schema
	// W is the number of semhash functions per w-way semantic function.
	W int
	// Mode selects AND (∧) or OR (∨) composition.
	Mode Mode
}

// Config configures an LSH or SA-LSH blocker.
type Config struct {
	// Attrs are the record attributes shingled into the textual key.
	Attrs []string
	// Q is the q-gram size for shingling.
	Q int
	// K is the number of minhash functions per hash table.
	K int
	// L is the number of hash tables.
	L int
	// Seed drives every random choice (hash seeds, semantic function
	// selection); fixed seed ⇒ fully deterministic blocking.
	Seed int64
	// Workers is the width of the batch Block path — both the signature
	// stage and the l concurrent table builds (0 = GOMAXPROCS).
	// It never changes the blocking output, only how the work is spread
	// over goroutines; Workers: 1 reproduces a fully single-threaded run.
	Workers int
	// Semantic, when non-nil, upgrades the blocker from LSH to SA-LSH.
	Semantic *SemanticOption
}

// Technique names the blocking technique the configuration describes — the
// name stamped on every result built from it, batch or streamed: "sa-lsh"
// with a semantic option, "lsh" without.
func (c Config) Technique() string {
	if c.Semantic != nil {
		return "sa-lsh"
	}
	return "lsh"
}

// SparseIDError reports a dataset whose record IDs are not dense 0..n-1 in
// record order — the layout the signature and table-build paths index by.
// Datasets grown through Dataset.Append always satisfy it; the error guards
// hand-assembled or externally mutated records.
type SparseIDError struct {
	// Dataset is the offending dataset's name.
	Dataset string
	// Index is the record's position in the dataset.
	Index int
	// ID is the record's actual ID (expected to equal Index).
	ID record.ID
}

func (e *SparseIDError) Error() string {
	return fmt.Sprintf("lsh: dataset %q is not densely indexed: record at position %d has ID %d (want %d)",
		e.Dataset, e.Index, e.ID, e.Index)
}

// ValidateDenseIDs checks that record IDs are exactly 0..n-1 in record
// order, returning a *SparseIDError otherwise.
func ValidateDenseIDs(d *record.Dataset) error {
	for i, r := range d.Records() {
		if r.ID != record.ID(i) {
			return &SparseIDError{Dataset: d.Name, Index: i, ID: r.ID}
		}
	}
	return nil
}

// Blocker is a configured (SA-)LSH blocking instance.
type Blocker struct {
	cfg    Config
	signer *Signer
}

// New validates the configuration and builds a blocker.
func New(cfg Config) (*Blocker, error) {
	s, err := NewSigner(cfg)
	if err != nil {
		return nil, err
	}
	return &Blocker{cfg: cfg, signer: s}, nil
}

// Name returns the configuration's technique name.
func (b *Blocker) Name() string { return b.cfg.Technique() }

// Config returns the blocker's configuration.
func (b *Blocker) Config() Config { return b.cfg }

// Block groups the dataset into blocks. Records are staged and their active
// bands signed in contiguous record ranges, one engine.ParallelTasks task
// per worker, each task signing into its own k·l scratch and keeping only
// the l band keys per record, and each record's semhash words land in one
// flat array; the l table builds then run through internal/engine (both
// stages Config.Workers wide), filing a record once per active table under
// its band key and exporting through AppendBlocks. Band keys are laid out table-major — keys[t·n+i] — so a
// table build scans its n keys sequentially. Returns *SparseIDError if the
// dataset's record IDs are not dense 0..n-1.
func (b *Blocker) Block(d *record.Dataset) (*blocking.Result, error) {
	if err := ValidateDenseIDs(d); err != nil {
		return nil, err
	}
	s, n, w := b.signer, d.Len(), b.signer.words
	keys := make([]uint64, b.cfg.L*n)
	sems := make([]uint64, n*w)
	tasks := min(engine.Workers(b.cfg.Workers), n)
	engine.ParallelTasks(tasks, tasks, func(_, t int) {
		sig := make([]uint64, b.cfg.K*b.cfg.L)
		var st Stage
		for i := t * n / tasks; i < (t+1)*n/tasks; i++ {
			r := d.Record(record.ID(i))
			st.hashes = s.AppendKeyHashes(r, st.hashes[:0])
			// The record's w words are appended in place: the arena has
			// exactly that capacity.
			st.sem, _ = s.AppendSemSign(r, sems[i*w:i*w:(i+1)*w])
			s.BandKeys(&st, s.all, sig, keys[i:], n)
		}
	})

	return blocking.NewResult(b.Name(), engine.Build(engine.Spec{
		Tables:  b.cfg.L,
		Records: n,
		Workers: b.cfg.Workers,
		Key: func(table int, id record.ID) (uint64, bool) {
			return keys[table*n+int(id)], s.Active(table, sems[int(id)*w:])
		},
		Export: func(table int, tb *engine.Table) [][]record.ID {
			return s.AppendBlocks(nil, table, tb, sems, false)
		},
	})), nil
}

// selectBits chooses the w distinct semhash-function indices of one hash
// table, deterministically from the blocker seed and table number
// ("w randomly chosen functions from Hg", §5.2).
func selectBits(seed int64, table, w, bits int) []int {
	rng := rand.New(rand.NewSource(seed<<16 ^ int64(table+1)*0x9e3779b9))
	perm := rng.Perm(bits)
	out := perm[:w]
	return out
}

// mixBit folds a semhash bit index into a bucket key of the bucket-per-bit
// keying (BucketKeys), the definition of an OR collision: the bit index is
// diffused by one SplitMix64 round before being xor-folded into the band
// key, and the combination is finalised by a second round, so every (key,
// bit) input maps to a well-separated 64-bit sub-bucket key. The +1 keeps
// bit 0 away from Mix64's (perfectly valid but aesthetically suspect)
// zero fixed input.
func mixBit(key uint64, bit int) uint64 {
	return minhash.Mix64(key ^ minhash.Mix64(uint64(bit)+1))
}

// CollisionProbability returns the probability 1-(1-s^k)^l that two records
// with textual similarity s share a block under plain LSH banding (§5.1).
func CollisionProbability(s float64, k, l int) float64 {
	return 1 - math.Pow(1-math.Pow(s, float64(k)), float64(l))
}

// SemanticFactor returns the probability p that a w-way semantic hash
// function returns true for a pair whose per-function agreement probability
// is s' (§5.2): (s')^w for AND, 1-(1-s')^w for OR.
func SemanticFactor(sprime float64, w int, mode Mode) float64 {
	if mode == ModeAND {
		return math.Pow(sprime, float64(w))
	}
	return 1 - math.Pow(1-sprime, float64(w))
}

// SACollisionProbability returns the SA-LSH collision probability
// 1-(1-s^k·p)^l for textual similarity s and semantic agreement s' (§5.2).
func SACollisionProbability(s, sprime float64, k, l, w int, mode Mode) float64 {
	p := SemanticFactor(sprime, w, mode)
	return 1 - math.Pow(1-math.Pow(s, float64(k))*p, float64(l))
}
