// Package stream implements the incremental counterpart of the batch
// (SA-)LSH blocker: an online index into which records are inserted one at
// a time or in mini-batches, emitting candidate pairs as hash-bucket
// collisions occur instead of recomputing blocks from scratch.
//
// The Indexer shares its signature core (lsh.Signer, including the
// block-export routine AppendBlocks) and its table store (engine.Table)
// with the batch Blocker, so for a fixed configuration a snapshot of the
// index after streaming a dataset in record order is block-for-block
// identical to a batch Block run over the same dataset — parity enforced
// by construction in internal/engine and internal/lsh and asserted by the
// tests here.
//
// Every Indexer is backed by a SharedLog holding the record log. A
// standalone Indexer owns a private log; a family of table-subset Indexers
// (WithTables) can instead attach to one common log via WithSharedLog and
// ingest through SharedLog.Append + InsertStaged, so the record log is
// stored exactly once per family and each record's signature stage
// (q-gram shingle hashes + semhash, the table-count-independent half of
// signing) is computed exactly once — regardless of how many shards
// consume it. This is the building block of the serving layer's shared-log
// collections (internal/server), which removes the N+1 record-log/staging
// duplication plain per-shard indexers would pay.
//
// Concurrency model: a mini-batch's signature stages and band keys are
// computed over contiguous record ranges, one engine.ParallelTasks task
// per range (GOMAXPROCS wide by default); the l hash tables are
// distributed round-robin over the same number of shards, each shard
// guarding its tables with its own mutex, and a batch's bucket updates run
// one task per shard, so they proceed in parallel across shards while
// staying sequential (in record order) within each shard. Insert may also be called from many goroutines
// concurrently; candidate-pair output is deduplicated globally either way.
package stream

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"semblock/internal/blocking"
	"semblock/internal/engine"
	"semblock/internal/lsh"
	"semblock/internal/obs"
	"semblock/internal/record"
)

// Row is one record to insert: the optional ground-truth entity label and
// the attribute map. It mirrors record.Dataset.Append's parameters.
type Row struct {
	// Entity is the ground-truth label (record.UnknownEntity if unlabeled).
	Entity record.EntityID
	// Attrs maps attribute names to values; ownership passes to the index.
	Attrs map[string]string
}

// SharedLog is the record log shared by every Indexer attached to it — one
// record.Dataset whose IDs are the global, dense insertion order — plus the
// staging step of ingestion: Append computes each appended record's
// lsh.Stage (the shard-independent half of signing: attribute
// concatenation, q-gram shingling, shingle hashes, semhash) exactly
// once, in parallel record ranges, no matter how many table-subset Indexers
// consume the staged batch. Stages are per-batch hand-offs, not retained
// state: once every shard has filed the batch they are garbage.
//
// A family of WithTables Indexers attached to one SharedLog therefore
// stores the record log once (not once per shard) and pays the q-gram +
// semhash stage once per record (not once per shard), while each Indexer
// still mixes only its own tables' minhash components — the family's total
// hash work equals one unrestricted index's.
//
// All methods are safe for concurrent use; appends are serialised by the
// log's mutex, which is what makes shard-local record IDs coincide across
// every attached Indexer.
type SharedLog struct {
	signer  *lsh.Signer
	workers int

	// stageHist, when set, observes the wall time of each Append's staging
	// pass (the once-per-record q-gram + semhash work). Nil — the default —
	// keeps Append free of any instrumentation cost beyond one pointer test.
	stageHist *obs.Histogram

	// bandsSigned / bandsSkipped, when set, count the (record, table) bands
	// every attached Indexer signed, and skipped because the record's
	// semhash keeps it out of the table — the semantic filter's live veto
	// rate. Nil counters no-op.
	bandsSigned, bandsSkipped *obs.Counter

	mu      sync.Mutex
	dataset *record.Dataset
}

// SetStageHistogram installs the latency histogram the staging pass of
// every subsequent Append observes into (nil disables). Call before the
// log is shared across goroutines; the field is not synchronised.
func (l *SharedLog) SetStageHistogram(h *obs.Histogram) { l.stageHist = h }

// SetBandCounters installs the counters of signed and skipped bands that
// every Indexer attached to the log adds to, once per batch (nil disables).
// Call before the log is shared across goroutines; the fields are not
// synchronised.
func (l *SharedLog) SetBandCounters(signed, skipped *obs.Counter) {
	l.bandsSigned, l.bandsSkipped = signed, skipped
}

// NewSharedLog builds an empty shared record log for the given (SA-)LSH
// configuration. Indexers attach with WithSharedLog; their configuration
// must match the log's (NewIndexer enforces it). workers is the staging
// width (<= 0 means GOMAXPROCS, see engine.Workers).
func NewSharedLog(name string, cfg lsh.Config, workers int) (*SharedLog, error) {
	signer, err := lsh.NewSigner(cfg)
	if err != nil {
		return nil, err
	}
	return &SharedLog{signer: signer, workers: engine.Workers(workers), dataset: record.NewDataset(name)}, nil
}

// StagedBatch is a mini-batch appended to a SharedLog: the assigned record
// IDs plus each record's precomputed signature stage. Hand it to
// Indexer.InsertStaged on every attached Indexer; the stages are computed
// once per record, here, regardless of how many Indexers consume them.
type StagedBatch struct {
	// IDs are the records' assigned (dense, global) IDs, in batch order.
	IDs []record.ID

	stages []lsh.Stage
}

// Append appends a mini-batch of records to the log, computes their
// signature stages in contiguous record ranges, one engine.ParallelTasks
// task per worker, and returns the staged batch. Stages are stored by value
// and each task appends its records' hash material to its own growing
// arena (lsh.Signer.StageAppend), so staging a batch of n records costs
// O(workers · log n) allocations, not O(n).
func (l *SharedLog) Append(rows []Row) StagedBatch {
	if len(rows) == 0 {
		return StagedBatch{}
	}
	recs := make([]*record.Record, len(rows))
	ids := make([]record.ID, len(rows))
	l.mu.Lock()
	for i, row := range rows {
		recs[i] = l.dataset.Append(row.Entity, row.Attrs)
		ids[i] = recs[i].ID
	}
	l.mu.Unlock()
	var stageStart time.Time
	if l.stageHist != nil {
		stageStart = time.Now()
	}
	n := len(recs)
	stages := make([]lsh.Stage, n)
	tasks := min(l.workers, n)
	engine.ParallelTasks(tasks, tasks, func(_, t int) {
		var arena []uint64
		for i := t * n / tasks; i < (t+1)*n/tasks; i++ {
			stages[i], arena = l.signer.StageAppend(recs[i], arena)
		}
	})
	if l.stageHist != nil {
		l.stageHist.Observe(time.Since(stageStart))
	}
	return StagedBatch{IDs: ids, stages: stages}
}

// Len returns the number of records appended so far.
func (l *SharedLog) Len() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.dataset.Len()
}

// Config returns the log's blocking configuration.
func (l *SharedLog) Config() lsh.Config { return l.signer.Config() }

// Records returns a point-in-time view of the appended records in ID order.
// Records are immutable once appended; callers must treat the slice as
// read-only.
func (l *SharedLog) Records() []*record.Record {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.dataset.Records()
}

// Option customises an Indexer.
type Option func(*Indexer)

// WithWorkers sets the number of signature workers and bucket shards
// (default GOMAXPROCS). The worker count never changes which
// candidates are found, only how the work is spread.
func WithWorkers(n int) Option {
	return func(ix *Indexer) {
		if n > 0 {
			ix.workers = n
		}
	}
}

// WithTables restricts the Indexer to a subset of the configuration's l
// hash tables. Bucket keys are still derived from the full configuration
// (same per-table seeds and semantic bit choices as an unrestricted index),
// so a family of indexers over disjoint table subsets covering 0..l-1
// collectively reproduces the unrestricted index exactly: the union of
// their snapshots equals the full Snapshot and the deduplicated union of
// their candidate pairs equals the full candidate set. This is the building
// block of the serving layer's table-sharded collections
// (internal/server), where every record is inserted into every shard but
// each shard maintains only its own tables.
//
// Table indices must be distinct and within [0, l). NewIndexer rejects
// invalid subsets.
func WithTables(tables ...int) Option {
	return func(ix *Indexer) {
		ix.tableSubset = append([]int(nil), tables...)
		ix.tableSubsetSet = true
	}
}

// WithSharedLog attaches the Indexer to an existing SharedLog instead of a
// private record log: records and signature stages live in (and are
// computed by) the log, the Indexer only fills its own hash tables.
// Combine with WithTables so a family of shards over one log partitions
// both the table work and — through the log — the per-record staging.
//
// The configuration passed to NewIndexer must describe the same blocking
// behaviour as the log's (same attrs/q/k/l/seed and the same semantic
// option); NewIndexer rejects mismatches, since a stage computed under one
// configuration is meaningless under another.
//
// A shared-log Indexer may be driven two ways, not both: standalone via
// Insert/InsertBatch (which append to the shared log and keep the Indexer's
// own candidate ledger), or — the serving-layer mode — via
// SharedLog.Append + InsertStaged on every attached Indexer, where the
// caller owns deduplication and delivery.
func WithSharedLog(l *SharedLog) Option {
	return func(ix *Indexer) { ix.log = l }
}

// Indexer is an online (SA-)LSH blocking index. The zero value is not
// usable; construct with NewIndexer.
type Indexer struct {
	signer  *lsh.Signer
	workers int

	tableSubset    []int // the table indices this index maintains, ascending
	tableSubsetSet bool  // whether WithTables restricted the subset

	log *SharedLog // record log + stage computation; private unless WithSharedLog

	// seen is the global dedup ledger: every candidate pair ever emitted.
	// It is striped so concurrent inserters commit without serialising on
	// one mutex; only the pending hand-off queue keeps a single lock, and
	// commits touch it once per batch, not once per pair.
	seen      record.StripedPairSet
	pendingMu sync.Mutex
	pending   []record.Pair // emitted but not yet drained by Candidates

	// lastPairs and lastRecords size InsertStaged's previous batch: its
	// collision pairs per record presize the next batch's per-shard pair
	// buffers, so a batch grows them about once, not once per doubling.
	lastPairs, lastRecords atomic.Int64

	shards []*shard
}

// shard owns a subset of the l hash tables. The tables are the same
// engine.Table bucket stores the batch path builds, filled incrementally
// here instead of in one pass. In SA-LSH's OR mode the shard also keeps
// the semhash words of every record it filed (lsh.Signer.MaskWords per
// record, indexed by ID), which decide collisions and the Snapshot export;
// they are its own copy, guarded by mu like the tables, never a view into
// a log another Append may reallocate.
type shard struct {
	mu     sync.Mutex
	tables []int           // table indices owned by this shard
	slots  []int           // parallel to tables: each table's position in Indexer.tableSubset
	store  []*engine.Table // parallel to tables
	sems   []uint64        // OR mode: the filed records' semhash words, by ID
}

// NewIndexer builds an empty streaming index for the given (SA-)LSH
// configuration. For SA-LSH the semhash schema must be built up front
// (e.g. from a taxonomy and a reference sample); the schema is fixed for
// the lifetime of the index.
func NewIndexer(cfg lsh.Config, opts ...Option) (*Indexer, error) {
	ix := &Indexer{}
	for _, opt := range opts {
		opt(ix)
	}
	ix.workers = engine.Workers(ix.workers)
	if ix.log != nil {
		// Adopt the shared log's signer after checking the caller's config
		// describes the same blocking behaviour: stages computed by the log
		// must be valid for this index's tables.
		if err := compatibleConfig(cfg, ix.log.Config()); err != nil {
			return nil, err
		}
		ix.signer = ix.log.signer
	} else {
		signer, err := lsh.NewSigner(cfg)
		if err != nil {
			return nil, err
		}
		ix.signer = signer
		ix.log = &SharedLog{signer: signer, workers: ix.workers, dataset: record.NewDataset("stream")}
	}
	tables := ix.tableSubset
	if !ix.tableSubsetSet {
		tables = make([]int, cfg.L)
		for i := range tables {
			tables[i] = i
		}
	} else {
		sort.Ints(tables)
		if len(tables) == 0 {
			return nil, fmt.Errorf("stream: WithTables needs at least one table")
		}
		for i, t := range tables {
			if t < 0 || t >= cfg.L {
				return nil, fmt.Errorf("stream: table %d out of range [0,%d)", t, cfg.L)
			}
			if i > 0 && tables[i-1] == t {
				return nil, fmt.Errorf("stream: duplicate table %d in WithTables", t)
			}
		}
	}
	ix.tableSubset = tables
	nShards := ix.workers
	if nShards > len(tables) {
		nShards = len(tables)
	}
	if nShards < 1 {
		nShards = 1
	}
	ix.shards = make([]*shard, nShards)
	for i := range ix.shards {
		ix.shards[i] = &shard{}
	}
	for i, t := range tables {
		sh := ix.shards[i%nShards]
		sh.tables = append(sh.tables, t)
		sh.slots = append(sh.slots, i)
		sh.store = append(sh.store, engine.NewTable(0))
	}
	return ix, nil
}

// compatibleConfig rejects a WithSharedLog attachment whose configuration
// would stage records differently from the log: the per-record signature
// stage (q-gram shingling over the blocking key, hash seeds, semhash
// schema) must be byte-identical for a shared stage to be valid.
func compatibleConfig(cfg, logCfg lsh.Config) error {
	if cfg.Q != logCfg.Q || cfg.K != logCfg.K || cfg.L != logCfg.L || cfg.Seed != logCfg.Seed {
		return fmt.Errorf("stream: WithSharedLog q/k/l/seed %d/%d/%d/%d differ from the log's %d/%d/%d/%d",
			cfg.Q, cfg.K, cfg.L, cfg.Seed, logCfg.Q, logCfg.K, logCfg.L, logCfg.Seed)
	}
	if len(cfg.Attrs) != len(logCfg.Attrs) {
		return fmt.Errorf("stream: WithSharedLog attrs %v differ from the log's %v", cfg.Attrs, logCfg.Attrs)
	}
	for i := range cfg.Attrs {
		if cfg.Attrs[i] != logCfg.Attrs[i] {
			return fmt.Errorf("stream: WithSharedLog attrs %v differ from the log's %v", cfg.Attrs, logCfg.Attrs)
		}
	}
	a, b := cfg.Semantic, logCfg.Semantic
	switch {
	case (a == nil) != (b == nil):
		return fmt.Errorf("stream: WithSharedLog semantic option present=%v, the log's present=%v", a != nil, b != nil)
	case a != nil && *a != *b:
		return fmt.Errorf("stream: WithSharedLog semantic option differs from the log's")
	}
	return nil
}

// Tables returns the hash-table indices this index maintains, in ascending
// order — 0..l-1 unless restricted by WithTables. The returned slice is a
// copy.
func (ix *Indexer) Tables() []int {
	return append([]int(nil), ix.tableSubset...)
}

// Config returns the index's blocking configuration.
func (ix *Indexer) Config() lsh.Config { return ix.signer.Config() }

// Log returns the record log backing this index — the SharedLog passed to
// WithSharedLog, or the index's private log.
func (ix *Indexer) Log() *SharedLog { return ix.log }

// Len returns the number of records in the backing log. For a shared-log
// index this is the log's global record count.
func (ix *Indexer) Len() int { return ix.log.Len() }

// Insert adds one record to the index and returns its assigned ID. New
// candidate pairs discovered by the insertion become available through
// Candidates. Safe for concurrent use. On a shared-log index the record is
// appended to the shared log (other attached indexers see it in their
// Len/Dataset, but only this index's tables are filled).
func (ix *Indexer) Insert(entity record.EntityID, attrs map[string]string) record.ID {
	return ix.InsertBatch([]Row{{Entity: entity, Attrs: attrs}})[0]
}

// InsertBatch adds a mini-batch of records and returns their assigned IDs:
// the batch is staged by the log and filed exactly as InsertStaged does,
// then the collision pairs are committed to the index's own ledger. Safe
// for concurrent use.
func (ix *Indexer) InsertBatch(rows []Row) []record.ID {
	if len(rows) == 0 {
		return nil
	}
	b := ix.log.Append(rows)
	groups := ix.InsertStaged(b)
	ix.commit(groups.pairs)
	return b.IDs
}

// PairGroups is a flat, record-major grouping of collision pairs: Group(i)
// holds the pairs batch record i collided into. All groups share one
// backing slice, so grouping a batch costs O(1) allocations per shard
// regardless of how many records collided — the per-record-slice layout it
// replaced allocated once per colliding record per shard, which made the
// serving layer's ingest allocs/op grow with the shard count.
type PairGroups struct {
	pairs []record.Pair
	off   []int // len(groups)+1 prefix offsets into pairs
}

// Len returns the number of groups (the batch size).
func (g *PairGroups) Len() int {
	if len(g.off) == 0 {
		return 0
	}
	return len(g.off) - 1
}

// Group returns group i as a subslice of the shared backing array. The
// caller must not append to it.
func (g *PairGroups) Group(i int) []record.Pair {
	return g.pairs[g.off[i]:g.off[i+1]]
}

// Pairs returns every group's pairs as one record-major slice.
func (g *PairGroups) Pairs() []record.Pair { return g.pairs }

// InsertStaged files an already-staged mini-batch (SharedLog.Append) into
// this index's hash tables and returns the raw collision pairs grouped per
// batch record: Group(i) holds the pairs record b.IDs[i] collided into,
// in this index's table order, not deduplicated. When batches are filed in
// the order the log assigned their IDs (the collection files them under
// one mutex), a record collides only with earlier ones, so every pair in
// Group(i) has Right() == b.IDs[i]. Unlike Insert/InsertBatch it does NOT
// touch the index's own candidate ledger — the caller owns deduplication
// and delivery. This is the serving layer's fan-out primitive: the
// collection appends a batch to the shared log once, hands the staged batch
// to every shard, and merges the returned groups record by record in
// canonical order.
func (ix *Indexer) InsertStaged(b StagedBatch) PairGroups {
	if len(b.IDs) == 0 {
		return PairGroups{}
	}
	keys := ix.bandKeys(b.stages)
	// Never presize beyond what the previous batch actually held: after a
	// skewed batch the hint shrinks back within one batch.
	hint := 0
	if pairs, recs := ix.lastPairs.Load(), ix.lastRecords.Load(); recs > 0 {
		hint = int(min(pairs, pairs*int64(len(b.IDs))/recs)) / len(ix.shards)
	}

	// Bucket updates, one task per shard, records in order, collision
	// pairs accumulated flat with per-record offsets.
	perShard := make([]PairGroups, len(ix.shards))
	ix.eachShard(len(b.IDs), func(si int, sh *shard) {
		g := PairGroups{pairs: make([]record.Pair, 0, hint), off: make([]int, len(b.IDs)+1)}
		for i, id := range b.IDs {
			g.pairs = sh.insert(ix.signer, id, ix.recordKeys(keys, i), b.stages[i].Sem().Words(), g.pairs, true)
			g.off[i+1] = len(g.pairs)
		}
		perShard[si] = g
	})
	total := 0
	for _, g := range perShard {
		total += len(g.pairs)
	}
	ix.lastPairs.Store(int64(total))
	ix.lastRecords.Store(int64(len(b.IDs)))
	if len(ix.shards) == 1 {
		return perShard[0]
	}
	out := PairGroups{pairs: make([]record.Pair, 0, total), off: make([]int, len(b.IDs)+1)}
	for i := range b.IDs {
		for _, g := range perShard {
			out.pairs = append(out.pairs, g.Group(i)...)
		}
		out.off[i+1] = len(out.pairs)
	}
	return out
}

// ReplayStaged files an already-staged batch into the index's hash tables
// without materialising collision pairs. It is the replay-from-base-state
// primitive the serving layer's restore path uses: co-bucketing alone
// determines the candidate-pair set, and the canonical emission order is a
// pure function of that set (a pair is always discovered when its
// higher-ID record arrives, and a record's group is sorted by the lower
// ID), so a caller replaying a persisted record log — in particular a
// compacted segment chain — can rebuild its entire pair ledger from the
// final Snapshot instead of collecting, deduplicating and merging
// per-record groups for every replayed batch. Skipping the group
// bookkeeping makes replay allocation-free on the pair side, which matters
// when the drained prefix being replayed is large.
func (ix *Indexer) ReplayStaged(b StagedBatch) {
	if len(b.IDs) == 0 {
		return
	}
	keys := ix.bandKeys(b.stages)
	ix.eachShard(len(b.IDs), func(_ int, sh *shard) {
		for i, id := range b.IDs {
			sh.insert(ix.signer, id, ix.recordKeys(keys, i), b.stages[i].Sem().Words(), nil, false)
		}
	})
}

// eachShard runs fn once per shard, one task each: concurrently for a
// batch, inline (width 1) for a single record, where a goroutine per shard
// costs more than the handful of bucket updates it would run.
func (ix *Indexer) eachShard(batch int, fn func(si int, sh *shard)) {
	width := len(ix.shards)
	if batch == 1 {
		width = 1
	}
	engine.ParallelTasks(len(ix.shards), width, func(_, si int) { fn(si, ix.shards[si]) })
}

// bandKeys is the signing step every ingest path shares: record ranges, one
// task per worker, sign each staged record's active bands of this index's
// tables into the task's k·l scratch and keep only the band keys —
// record-major, one slot per maintained table (recordKeys), slots of
// inactive tables left unwritten. Each task adds its signed and skipped bands to the log's
// counters. A family of shards partitioning the tables performs the same
// total hash work as one unrestricted index.
func (ix *Indexer) bandKeys(stages []lsh.Stage) []uint64 {
	cfg, ls := ix.signer.Config(), len(ix.tableSubset)
	keys := make([]uint64, len(stages)*ls)
	n := len(stages)
	tasks := min(ix.workers, n)
	engine.ParallelTasks(tasks, tasks, func(_, t int) {
		sig := make([]uint64, cfg.K*cfg.L)
		lo, hi, signed := t*n/tasks, (t+1)*n/tasks, 0
		for i := lo; i < hi; i++ {
			signed += ix.signer.BandKeys(&stages[i], ix.tableSubset, sig, keys[i*ls:], 1)
		}
		ix.log.bandsSigned.Add(int64(signed))
		ix.log.bandsSkipped.Add(int64((hi-lo)*ls - signed))
	})
	return keys
}

// recordKeys returns batch record i's band-key slots within bandKeys'
// result.
func (ix *Indexer) recordKeys(keys []uint64, i int) []uint64 {
	ls := len(ix.tableSubset)
	return keys[i*ls : (i+1)*ls]
}

// insert files the record once into every table of the shard it is active
// in, under its band key — bandKeys holds the record's band-key slots
// (Indexer.recordKeys), sem its semhash words — and, when collect is set,
// appends the (not yet deduplicated) collision pairs to found: one per
// table and colliding prior member (lsh.Signer.Collide). ReplayStaged
// passes collect=false: co-bucketing alone determines the pair set, so
// replay skips the pair bookkeeping.
//
//semblock:hotpath
func (sh *shard) insert(signer *lsh.Signer, id record.ID, bandKeys, sem []uint64, found []record.Pair, collect bool) []record.Pair {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	w := signer.MaskWords()
	if w > 0 {
		// Batches may reach the shard out of ID order (concurrent
		// InsertBatch calls): grow to the ID, fill its slot. Capacity
		// doubles from 1024 records, so a shard reallocates O(log n) times.
		n := (int(id) + 1) * w
		if n > cap(sh.sems) {
			grown := make([]uint64, n, max(n, 2*cap(sh.sems), 1024*w))
			copy(grown, sh.sems)
			sh.sems = grown
		}
		if n > len(sh.sems) {
			sh.sems = sh.sems[:n]
		}
		copy(sh.sems[int(id)*w:], sem)
	}
	for i, t := range sh.tables {
		if !signer.Active(t, sem) {
			continue
		}
		others := sh.store[i].Insert(bandKeys[sh.slots[i]], id)
		if !collect {
			continue
		}
		for _, other := range others {
			if w == 0 || signer.Collide(t, sh.sems[int(other)*w:], sem) {
				found = append(found, record.MakePair(other, id))
			}
		}
	}
	return found
}

// commit merges freshly found collision pairs into the global ledger,
// queueing the never-seen-before ones for Candidates. Deduplication runs on
// the striped ledger (contended only per stripe), and the pending queue's
// lock is taken once per commit for a bulk append — concurrent inserters no
// longer serialise per pair on one mutex. found is filtered in place; the
// caller must not reuse it.
//
//semblock:hotpath
func (ix *Indexer) commit(found []record.Pair) {
	if len(found) == 0 {
		return
	}
	fresh := found[:0]
	for _, p := range found {
		if ix.seen.AddPair(p) {
			fresh = append(fresh, p)
		}
	}
	if len(fresh) == 0 {
		return
	}
	ix.pendingMu.Lock()
	ix.pending = append(ix.pending, fresh...)
	ix.pendingMu.Unlock()
}

// Candidates drains and returns the candidate pairs discovered since the
// previous drain (nil if none). Across the lifetime of the index the union
// of all drained batches equals Snapshot().CandidatePairs(). Order within a
// batch is discovery order; it is deterministic for single-goroutine
// insertion with a fixed configuration and worker count.
//
// Candidates is safe to call concurrently with Insert/InsertBatch and with
// other Candidates calls: the pending queue is swapped out atomically under
// the index mutex, so every emitted pair is delivered to exactly one
// drainer — never lost, never duplicated — regardless of how drains
// interleave with insertions. A pair whose insertion commits after a drain
// swap simply lands in the next drain. The drain-while-insert invariant
// (union of all drains + one final drain after the last insert returns ==
// PairCount distinct pairs) is asserted under the race detector by
// TestCandidatesConcurrentDrain.
//
// An index fed through InsertStaged keeps no ledger of its own: Candidates
// returns nothing there, the caller merges the per-record pair groups
// InsertStaged hands back (see internal/server.Collection).
func (ix *Indexer) Candidates() []record.Pair {
	ix.pendingMu.Lock()
	defer ix.pendingMu.Unlock()
	out := ix.pending
	ix.pending = nil
	return out
}

// PairCount returns the total number of distinct candidate pairs emitted so
// far (drained or not) through the index's own ledger (Insert/InsertBatch).
func (ix *Indexer) PairCount() int {
	return ix.seen.Len()
}

// Snapshot materialises the current index contents as a batch-style block
// result: every hash bucket with at least two records becomes a block. For
// a fixed configuration the result is equal (up to block order) to running
// the batch Blocker over the same records, and its CandidatePairs are
// exactly the pairs emitted so far. Safe to call while insertions continue;
// the snapshot then reflects some consistent prefix per shard.
func (ix *Indexer) Snapshot() *blocking.Result {
	var blocks [][]record.ID
	for _, sh := range ix.shards {
		sh.mu.Lock()
		for i, tb := range sh.store {
			// Same export routine as the batch engine build; members are
			// copied because the tables keep growing after the snapshot.
			blocks = ix.signer.AppendBlocks(blocks, sh.tables[i], tb, sh.sems, true)
		}
		sh.mu.Unlock()
	}
	return blocking.NewResult(ix.Config().Technique(), blocks)
}

// Dataset returns a read-only view of the backing log's records as a dataset
// (IDs match the IDs returned by Insert/InsertBatch), e.g. for evaluating a
// snapshot against ground truth. The view is a point-in-time prefix of the
// append-only log — no record is copied, and later inserts do not show in
// it. For a shared-log index this is the full shared log.
func (ix *Indexer) Dataset() *record.Dataset {
	return record.NewDatasetView(ix.log.dataset.Name, ix.log.Records())
}
