package lsh

import (
	"fmt"

	"semblock/internal/minhash"
	"semblock/internal/record"
	"semblock/internal/semantic"
	"semblock/internal/textual"
)

// Signer computes the per-record signature material of an (SA-)LSH
// configuration and is the stateless core shared by the batch Blocker and
// the streaming Indexer (internal/stream): both derive bucket membership
// exclusively from a Signer, which is what guarantees that a streamed index
// snapshot and a batch Block run over the same records produce the same
// blocks.
//
// There is one signing flow. Stage a record (StageAppend: finalised q-gram
// hashes + semhash, the table-independent half), then sign only the bands
// of tables that are active for it — the ones its semhash lets it enter at
// all (§5.2) — and keep one band key per table (BandKeys). A record files
// under that one key in every active table, whatever the mode; in OR mode
// two members of a bucket collide only if their semhashes share one of the
// table's selected bits (Collide), and the export splits each bucket into
// its per-bit blocks (AppendBlocks). The contract that makes the laziness
// safe: an inactive band is never written and never read, so signature and
// key buffers may be reused dirty.
//
// Staging is interned: a record's q-grams are streamed straight out of the
// normalised blocking key (textual.VisitQGrams) into shingle hashes
// (minhash.ShingleHash, where the family's per-shingle finaliser runs) — no
// gram strings and no gram slice are materialised.
type Signer struct {
	cfg   Config
	fam   *minhash.Family
	bits  [][]int  // per-table semantic bit choices; nil without Semantic
	sel   []uint64 // the same choices as masks: table t's at sel[t·words:(t+1)·words]
	words int      // semhash words per record; 0 without Semantic
	or    bool     // OR mode: bucket members collide only if they share a selected bit
	all   []int    // 0..l-1, what a nil table list stands for
}

// NewSigner validates the configuration and precomputes the per-table
// semantic bit choices.
func NewSigner(cfg Config) (*Signer, error) {
	if len(cfg.Attrs) == 0 {
		return nil, fmt.Errorf("lsh: no blocking attributes configured")
	}
	if cfg.Q <= 0 {
		return nil, fmt.Errorf("lsh: q-gram size must be positive, got %d", cfg.Q)
	}
	if cfg.K <= 0 || cfg.L <= 0 {
		return nil, fmt.Errorf("lsh: k and l must be positive, got k=%d l=%d", cfg.K, cfg.L)
	}
	if s := cfg.Semantic; s != nil {
		if s.Schema == nil {
			return nil, fmt.Errorf("lsh: semantic option requires a schema")
		}
		if s.W <= 0 || s.W > s.Schema.Bits() {
			return nil, fmt.Errorf("lsh: w must be in [1,%d], got %d", s.Schema.Bits(), s.W)
		}
	}
	s := &Signer{cfg: cfg, fam: minhash.NewFamily(cfg.K*cfg.L, cfg.Seed), all: make([]int, cfg.L)}
	for t := range s.all {
		s.all[t] = t
	}
	if sem := cfg.Semantic; sem != nil {
		s.words = (sem.Schema.Bits() + 63) / 64
		s.or = sem.Mode == ModeOR
		s.bits = make([][]int, cfg.L)
		s.sel = make([]uint64, cfg.L*s.words)
		for t := 0; t < cfg.L; t++ {
			s.bits[t] = selectBits(cfg.Seed, t, sem.W, sem.Schema.Bits())
			for _, bit := range s.bits[t] {
				s.sel[t*s.words+bit/64] |= 1 << (bit % 64)
			}
		}
	}
	return s, nil
}

// Config returns the signer's configuration.
func (s *Signer) Config() Config { return s.cfg }

// AppendKeyHashes appends the shingle hashes of the record's q-grams
// to dst and returns the extended slice: grams are hashed as views into the
// normalised key, never materialised as strings.
func (s *Signer) AppendKeyHashes(r *record.Record, dst []uint64) []uint64 {
	textual.VisitQGrams(r.Key(s.cfg.Attrs...), s.cfg.Q, func(g string) {
		dst = append(dst, minhash.ShingleHash(g))
	})
	return dst
}

// AppendSemSign computes the record's semhash signature with its words
// appended to arena; both are returned. Without a semantic option it
// returns the zero BitVec (which callers must not inspect) and the arena
// untouched, so batch paths can call it unconditionally.
func (s *Signer) AppendSemSign(r *record.Record, arena []uint64) (semantic.BitVec, []uint64) {
	if s.cfg.Semantic == nil {
		return semantic.BitVec{}, arena
	}
	return s.cfg.Semantic.Schema.AppendSignature(r, arena)
}

// Stage is the table-independent half of one record's signature work: the
// shingle hashes of its q-grams plus its semhash signature — attribute
// concatenation, q-gram extraction, string hashing and the taxonomy walk.
// A Stage computed once serves any number of table-subset indexers, each
// signing only its own active bands from it. Stages are per-batch
// hand-offs, not retained state.
type Stage struct {
	hashes []uint64 // minhash.ShingleHash of the record's q-grams
	sem    semantic.BitVec
}

// Sem returns the staged semhash signature (the zero BitVec without a
// semantic option; callers must not inspect it then).
func (st *Stage) Sem() semantic.BitVec { return st.sem }

// StageAppend computes a record's signature stage, storing the hash
// material — and, for SA-LSH, the semhash signature's words — by appending
// to arena, and returns the stage plus the extended arena. Batch staging
// threads one growing arena through a whole mini-batch, so staging n
// records costs O(log n) allocations instead of one hash buffer plus one
// semhash vector per record; a stage's views stay valid even when a later
// append reallocates the arena (the abandoned backing array is untouched).
//
//semblock:hotpath
func (s *Signer) StageAppend(r *record.Record, arena []uint64) (Stage, []uint64) {
	off := len(arena)
	arena = s.AppendKeyHashes(r, arena)
	hashes := arena[off:len(arena):len(arena)]
	var sem semantic.BitVec
	sem, arena = s.AppendSemSign(r, arena)
	return Stage{hashes: hashes, sem: sem}, arena
}

// MaskWords returns the number of semhash words a table store keeps per
// record to decide collisions and export blocks: the signature width in
// words in OR mode, 0 otherwise (plain LSH and AND mode need none once a
// record is filed).
func (s *Signer) MaskWords() int {
	if !s.or {
		return 0
	}
	return s.words
}

// Active reports whether a record with semhash words sem files under the
// table's band key, i.e. whether its band is worth signing: always for
// plain LSH (sem is ignored); iff all w selected bits are set for AND; iff
// any selected bit is set for OR.
//
//semblock:hotpath
func (s *Signer) Active(table int, sem []uint64) bool {
	if s.words == 0 {
		return true
	}
	sel := s.sel[table*s.words : (table+1)*s.words]
	if s.or {
		for i, m := range sel {
			if sem[i]&m != 0 {
				return true
			}
		}
		return false
	}
	for i, m := range sel {
		if sem[i]&m != m {
			return false
		}
	}
	return true
}

// Collide reports whether two records filed under one band key of the
// table collide, given their semhash words: always, except in OR mode,
// where they must also share one of the table's selected bits
// (a & b & sel ≠ 0, word by word) — the w-way OR semantic function
// h[w,∨] of §5.2.
//
//semblock:hotpath
func (s *Signer) Collide(table int, a, b []uint64) bool {
	switch {
	case !s.or:
		return true
	case s.words == 1:
		return a[0]&b[0]&s.sel[table] != 0
	}
	for i, m := range s.sel[table*s.words : (table+1)*s.words] {
		if a[i]&b[i]&m != 0 {
			return true
		}
	}
	return false
}

// SignStagedInto signs the staged record's active bands of the given tables
// (nil = all l) into sig, which has the k·l signature layout: table t's band
// is sig[t·k:(t+1)·k]. Bands of other tables, and of tables the record's
// semhash keeps it out of, are not written — cost is proportional to the
// bands that can produce a bucket. Only BucketKeys may read the result.
//
//semblock:hotpath
func (s *Signer) SignStagedInto(st *Stage, tables []int, sig []uint64) {
	if tables == nil {
		tables = s.all
	}
	s.BandKeys(st, tables, sig, nil, 0)
}

// BandKeys signs the staged record's active bands of the given tables into
// the k·l scratch sig and, unless keys is nil, stores table tables[j]'s band
// key at keys[j·stride]; slots of inactive tables are left untouched (the
// table builds never read them). It returns the number of bands signed.
// The stride lets batch Block lay keys out table-major (stride n) and the
// stream paths record-major (stride 1) through the same routine.
//
//semblock:hotpath
func (s *Signer) BandKeys(st *Stage, tables []int, sig, keys []uint64, stride int) int {
	k, signed := s.cfg.K, 0
	for j, t := range tables {
		if !s.Active(t, st.sem.Words()) {
			continue
		}
		s.fam.SignBand(st.hashes, t*k, (t+1)*k, sig)
		if keys != nil {
			keys[j*stride] = minhash.BandKey(t, sig[t*k:(t+1)*k])
		}
		signed++
	}
	return signed
}

// BucketKeys appends to dst the bucket keys of the record in one hash table
// under the bucket-per-bit keying, and returns the extended slice; sig is a
// SignStagedInto result covering the table. Plain LSH yields the band key;
// AND mode yields it iff all w selected semhash bits are set; OR mode
// yields one key per selected set bit, the band key mixed with the bit
// (mixBit). Two records collide in a table iff they share a key of it.
//
// This is the executable definition of a collision, kept as the test
// oracle of the one-key-per-table production path (Active, Collide,
// AppendBlocks), which files a record once per table and must produce the
// same pairs and the same blocks in the same order. No production path
// calls it.
func (s *Signer) BucketKeys(table int, sig []uint64, sem semantic.BitVec, dst []uint64) []uint64 {
	if !s.Active(table, sem.Words()) {
		return dst
	}
	k := s.cfg.K
	key := minhash.BandKey(table, sig[table*k:(table+1)*k])
	if !s.or {
		return append(dst, key)
	}
	for _, bit := range s.bits[table] {
		if sem.Get(bit) {
			dst = append(dst, mixBit(key, bit))
		}
	}
	return dst
}
