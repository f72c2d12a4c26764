package server

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sync"
	"time"

	"semblock/internal/blocking"
	"semblock/internal/engine"
	"semblock/internal/er"
	"semblock/internal/lsh"
	"semblock/internal/metablocking"
	"semblock/internal/obs"
	"semblock/internal/pipeline"
	"semblock/internal/record"
	"semblock/internal/stream"
)

// Collection is one tenant's long-lived blocking index: one shared record
// log (stream.SharedLog) consumed by N table-sharded stream.Indexer
// instances. Shard i owns the hash tables {t : t mod N == i} (restricted
// with stream.WithTables) and attaches to the collection's log with
// stream.WithSharedLog, so the record log is stored exactly once per
// collection and each record's q-gram + semhash signature stage is computed
// exactly once — in parallel record ranges on engine.ParallelTasks, the
// tree's one parallel primitive — no matter how many shards consume it. Record IDs are assigned by the log, so shard-local IDs
// coincide with the collection's global IDs and candidate pairs from
// different shards merge without translation. Because the shard table
// subsets are disjoint and cover 0..l-1, the deduplicated union of the
// shards' candidate pairs equals the unsharded candidate set — and the
// batch Block set — by construction; sharding buys write parallelism, never
// changes results.
//
// Candidate pairs enter the emission log in canonical emission order —
// record-major (a record's pairs are queued when its ingest completes),
// sorted and deduplicated within one record's group. No history of emitted
// pairs is kept or needed: records are filed in ID order, so a pair surfaces
// only while its higher-ID record is inserted, and every repeat of it comes
// from that same record's group (another table, shard or fan-out key). The
// order depends only on the record sequence, never on ingest batch
// boundaries, shard count, or worker count; persistence relies on this to
// resume candidate delivery from durable per-consumer-group cursors after a
// restore (see persist.go, consumer.go).
//
// All methods are safe for concurrent use. Ingest order is serialised per
// collection (the ID-assignment mutex), while the shards of one ingest
// batch proceed in parallel and independent collections never contend.
type Collection struct {
	spec CollectionSpec
	cfg  lsh.Config

	mu  sync.Mutex        // serialises ingest (ID assignment), drains, snapshots
	log *stream.SharedLog // the one record log + staging pass all shards share

	// emitted is the retained tail of the canonical emission sequence:
	// emitted[i] is sequence position emitBase+i, and emitBase+len(emitted)
	// is the number of distinct pairs ever emitted. The prefix every
	// consumer group has acknowledged is trimmed away (see trimLocked); a
	// group created from the start reconstructs it from the tables.
	// Appended under mu; popped windows are read-only views, never mutated
	// in place. emitDead counts the pairs trimmed since trimLocked last
	// copied the tail, which may still sit in front of emitted in its
	// backing array.
	emitted  []record.Pair
	emitBase int
	emitDead int

	// groups are the named durable cursors into the emission sequence (see
	// consumer.go). The default group always exists. Guarded by mu.
	groups map[string]*consumerGroup
	// signal is the emission broadcast: closed and replaced under mu
	// whenever new pairs are appended (or a group is deleted), waking every
	// blocked long-poll, SSE stream and webhook worker at once.
	signal chan struct{}

	shards []*stream.Indexer

	// persistence state (see persist.go, compact.go). saveMu serialises
	// Save and Compact calls; segments/persisted/generation are read and
	// updated under mu so the serving path never waits on disk I/O.
	saveMu     sync.Mutex
	segments   []segmentInfo
	persisted  int // records covered by on-disk segments
	generation int // compaction generation of the on-disk chain (0 = never compacted)

	// Per-collection latency distributions, surfaced as quantiles in
	// Stats. Histograms are internally atomic; observing takes no lock.
	ingestHist  *obs.Histogram
	resolveHist *obs.Histogram
}

// newCollection builds an empty collection from a validated spec.
func newCollection(spec CollectionSpec) (*Collection, error) {
	if err := spec.validate(); err != nil {
		return nil, err
	}
	cfg, err := spec.buildConfig()
	if err != nil {
		return nil, err
	}
	// The shared log's staging pass does the per-record q-gram + semhash
	// work once for the whole collection, so it gets the full width; the
	// shards' signing passes only mix their own tables' minhash components
	// and are 1/N as wide, so a fan-out ingest does not oversubscribe the
	// CPU by a factor of the shard count.
	log, err := stream.NewSharedLog(spec.Name, cfg, spec.Workers)
	if err != nil {
		return nil, fmt.Errorf("server: shared log of %s: %w", spec.Name, err)
	}
	c := &Collection{
		spec:        spec,
		cfg:         cfg,
		log:         log,
		groups:      map[string]*consumerGroup{DefaultConsumer: {name: DefaultConsumer}},
		signal:      make(chan struct{}),
		ingestHist:  obs.NewHistogram(),
		resolveHist: obs.NewHistogram(),
	}
	shardWorkers := spec.Workers
	if shardWorkers <= 0 {
		shardWorkers = engine.Workers(0) / spec.Shards
		if shardWorkers < 1 {
			shardWorkers = 1
		}
	}
	for i := 0; i < spec.Shards; i++ {
		var tables []int
		for t := i; t < cfg.L; t += spec.Shards {
			tables = append(tables, t)
		}
		ix, err := stream.NewIndexer(cfg,
			stream.WithTables(tables...), stream.WithWorkers(shardWorkers),
			stream.WithSharedLog(log))
		if err != nil {
			return nil, fmt.Errorf("server: shard %d of %s: %w", i, spec.Name, err)
		}
		c.shards = append(c.shards, ix)
	}
	return c, nil
}

// Name returns the collection name.
func (c *Collection) Name() string { return c.spec.Name }

// Spec returns the collection's configuration.
func (c *Collection) Spec() CollectionSpec { return c.spec }

// Len returns the number of ingested records.
func (c *Collection) Len() int {
	return c.log.Len()
}

// PairCount returns the total number of distinct candidate pairs emitted so
// far (drained or not).
func (c *Collection) PairCount() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.totalLocked()
}

// Ingest appends a batch of records to the collection and returns their
// assigned (dense, global) IDs. The batch is appended to the shared log
// once — which computes each record's signature stage exactly once — then
// handed to every shard concurrently, one task per shard; each shard fills
// only its own hash tables from the precomputed stages. The
// shards' collision pairs are merged in canonical emission order
// (record-major, sorted and deduplicated within one record's group) and
// queued for the consumer groups.
func (c *Collection) Ingest(rows []stream.Row) ([]record.ID, error) {
	if len(rows) == 0 {
		return nil, nil
	}
	start := time.Now()
	defer func() { c.ingestHist.Observe(time.Since(start)) }()
	c.mu.Lock()
	defer c.mu.Unlock()
	batch := c.log.Append(rows)
	perShard := make([]stream.PairGroups, len(c.shards))
	engine.ParallelTasks(len(c.shards), len(c.shards), func(_, si int) {
		perShard[si] = c.shards[si].InsertStaged(batch)
	})
	// Canonical merge. Every pair in record i's group has Right() ==
	// batch.IDs[i]: records are filed in ID order, so a pair surfaces only
	// while its higher-ID record is inserted. A repeat therefore comes only
	// from the same record's group — another table, shard or fan-out key —
	// and sorting the group and dropping adjacent equals removes it with no
	// ledger of earlier emissions. Sorting also makes the queue order a pure
	// function of the record sequence — independent of batch boundaries,
	// shard count, and worker count — which is what lets the persisted
	// drain cursor (a plain count) resume delivery exactly after a replay.
	// Groups are disjoint, so the per-record merge runs in parallel; only
	// the final in-order queue append is sequential.
	n := len(rows)
	groups := flattenGroups(perShard, n)
	tasks := min(engine.Workers(c.spec.Workers), n)
	engine.ParallelTasks(tasks, tasks, func(_, t int) {
		for i := t * n / tasks; i < (t+1)*n/tasks; i++ {
			groups[i] = dedupGroup(groups[i])
		}
	})
	added := 0
	for _, g := range groups {
		c.emitted = append(c.emitted, g...)
		added += len(g)
	}
	if added > 0 {
		// Wake blocked consumers (long-polls, SSE streams, webhook workers):
		// new positions exist past their cursors.
		c.broadcastLocked()
	}
	return batch.IDs, nil
}

// flattenGroups lays the shards' raw collision groups of an n-record batch
// into one record-major buffer — one allocation per batch, not one per
// record — and returns each record's group as a subslice of it: group i
// holds record i's pairs from every shard.
func flattenGroups(perShard []stream.PairGroups, n int) [][]record.Pair {
	groups := make([][]record.Pair, n)
	total := 0
	for si := range perShard {
		total += len(perShard[si].Pairs())
	}
	buf := make([]record.Pair, 0, total)
	for i := range groups {
		lo := len(buf)
		for si := range perShard {
			buf = append(buf, perShard[si].Group(i)...)
		}
		groups[i] = buf[lo:len(buf):len(buf)]
	}
	return groups
}

// dedupGroup is the canonical merge kernel shared by ingest and restore: it
// sorts one record's raw collision group in place and drops adjacent
// repeats, returning the distinct pairs in canonical order as a prefix of
// g. It allocates nothing.
//
//semblock:hotpath
func dedupGroup(g []record.Pair) []record.Pair {
	record.SortPairs(g)
	return slices.Compact(g)
}

// replayRows rebuilds the hash tables from a persisted record batch
// without any candidate-pair bookkeeping: the shared log stages the rows
// once and every shard files them through stream.ReplayStaged, which
// discards the collision groups. LoadCollection calls this for every
// replayed chunk and then reconstructs the emission sequence in one
// record-major pass with rebuildLedger, after the last chunk, instead of
// materialising every chunk's groups along the way.
func (c *Collection) replayRows(rows []stream.Row) {
	if len(rows) == 0 {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	batch := c.log.Append(rows)
	engine.ParallelTasks(len(c.shards), len(c.shards), func(_, si int) {
		c.shards[si].ReplayStaged(batch)
	})
}

// canonicalSeqLocked reconstructs the full canonical emission sequence from
// the current table contents (caller holds c.mu). It replays the ingest
// merge record-major over the snapshot: a bucket lists its members in ID
// order, so the members in front of record r in each of r's blocks are
// exactly the records r collided with when it was filed, and record r's
// group is those lower-ID members, sorted and deduplicated by dedupGroup —
// the kernel Ingest runs. The sequence is therefore a pure function of the
// final snapshot, which is what lets restore replay records through the
// pair-free fast path and lets a from-start consumer group recover a prefix
// other groups already released.
//
// Memory is the output, a CSR index of the snapshot's (block, position)
// slots grouped by record, and one record's scratch group — never the raw
// comparisons of the whole snapshot, which are up to l times the distinct
// pairs when buckets are skewed.
func (c *Collection) canonicalSeqLocked() []record.Pair {
	blocks := c.snapshotLocked().Blocks
	n := c.log.Len()
	// start[r]:start[r+1] are record r's slots, in block order.
	type slot struct{ block, pos int32 }
	start := make([]int, n+1)
	for _, b := range blocks {
		for _, id := range b {
			start[id+1]++
		}
	}
	for r := 0; r < n; r++ {
		start[r+1] += start[r]
	}
	slots := make([]slot, start[n])
	for bi, b := range blocks {
		for pos, id := range b {
			slots[start[id]] = slot{int32(bi), int32(pos)}
			start[id]++
		}
	}
	// The fill advanced start[r] to record r's end; shift it back.
	copy(start[1:], start[:n])
	start[0] = 0

	seq := make([]record.Pair, 0, c.totalLocked())
	var group []record.Pair
	for r := 0; r < n; r++ {
		group = group[:0]
		for _, s := range slots[start[r]:start[r+1]] {
			for _, m := range blocks[s.block][:s.pos] {
				group = append(group, record.MakePair(m, record.ID(r)))
			}
		}
		seq = append(seq, dedupGroup(group)...)
	}
	return seq
}

// rebuildLedger reconstructs the canonical emission sequence from the
// current table contents and installs the manifest's consumer groups at
// their durable cursors (see canonicalSeqLocked for why the sequence is
// recoverable at all). The default group is created at cursor 0 if the
// manifest does not name it; the acknowledged common prefix is trimmed
// immediately so a restore never pins already-delivered pairs.
func (c *Collection) rebuildLedger(consumers []consumerManifest) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	seq := c.canonicalSeqLocked()
	groups := make(map[string]*consumerGroup, len(consumers)+1)
	for _, cm := range consumers {
		if cm.Cursor < 0 || cm.Cursor > len(seq) {
			return fmt.Errorf("server: collection %s consumer %q cursor %d outside the %d replayed pairs",
				c.spec.Name, cm.Name, cm.Cursor, len(seq))
		}
		groups[cm.Name] = &consumerGroup{name: cm.Name, cursor: cm.Cursor, webhook: cm.Webhook}
	}
	if _, ok := groups[DefaultConsumer]; !ok {
		groups[DefaultConsumer] = &consumerGroup{name: DefaultConsumer}
	}
	c.emitted = seq
	c.emitBase = 0
	c.emitDead = 0
	c.groups = groups
	// Release the prefix every group has acknowledged so the restored
	// collection does not pin already-delivered pairs.
	c.trimLocked()
	return nil
}

// Candidates drains and returns the candidate pairs discovered since the
// previous drain (nil if none) — the in-process convenience over
// DrainConsumer on the default consumer group, with that path's guarantees:
// exactly-once under concurrent drains, and across a restart delivery
// resumes from the last checkpoint's durable cursor (exactly-once up to the
// latest checkpoint, at-least-once for the window since it; checkpoint after
// draining to tighten the window). Like every group hand-off it is
// fail-fast: while another delivery of the default group is in flight (a
// GET /candidates response write, a connected stream) it returns nil and the
// pairs stay pending for the next drain.
func (c *Collection) Candidates() []record.Pair {
	var out []record.Pair
	// The default group cannot be deleted and the hand-off cannot fail, so
	// the only error is ErrDrainBusy — reported as "nothing for you now".
	_, _ = c.DrainConsumer(DefaultConsumer, func(b ConsumerBatch) error {
		out = b.Pairs
		return nil
	})
	return out
}

// ErrDrainBusy reports a fallible hand-off against a consumer group whose
// delivery slot is already taken (another drain's response write, or a
// connected stream); the caller should retry after it settles. Busy-ness is
// per group: two different groups never contend.
var ErrDrainBusy = errors.New("a candidate drain is already in flight")

// Snapshot materialises the current index as a batch-style block result:
// the concatenation of the shards' snapshots, equal (up to block order) to
// a batch Block run over the ingested records.
func (c *Collection) Snapshot() *blocking.Result {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.snapshotLocked()
}

func (c *Collection) snapshotLocked() *blocking.Result {
	var blocks [][]record.ID
	for _, sh := range c.shards {
		blocks = append(blocks, sh.Snapshot().Blocks...)
	}
	return blocking.NewResult(c.cfg.Technique(), blocks)
}

// Dataset returns the ingested records (IDs preserved) as a read-only
// point-in-time view of the append-only log, e.g. for evaluating a snapshot
// against ground truth: no record is copied and later ingests do not show
// in it. Taken under c.mu so it never includes a half-ingested batch.
func (c *Collection) Dataset() *record.Dataset {
	c.mu.Lock()
	defer c.mu.Unlock()
	return record.NewDatasetView(c.spec.Name, c.log.Records())
}

// MatchAttr weights one attribute in a resolve run (see er.AttrWeight).
type MatchAttr struct {
	Attr   string  `json:"attr"`
	Weight float64 `json:"weight,omitempty"`
	Sim    string  `json:"sim,omitempty"`
}

// PruneSpec selects a meta-blocking pruning stage for a resolve run.
type PruneSpec struct {
	// Scheme is the edge-weighting scheme: ARCS, CBS, ECBS, JS or EJS.
	Scheme string `json:"scheme"`
	// Algo is the pruning algorithm: WEP, CEP, WNP or CNP.
	Algo string `json:"algo"`
}

// ResolveRequest configures one on-demand resolution run over the current
// index contents: the existing pipeline (optional meta-blocking pruning,
// then concurrent matching) applied to the collection snapshot.
type ResolveRequest struct {
	// Match lists the attributes the matcher scores (weights normalised).
	Match []MatchAttr `json:"match"`
	// Threshold is the match classification threshold in [0,1].
	Threshold float64 `json:"threshold"`
	// Pruning optionally inserts a meta-blocking stage before matching.
	Pruning *PruneSpec `json:"pruning,omitempty"`
	// Budget caps the number of candidate comparisons the matching stage
	// performs (0 = exhaustive). A budgeted resolve drains candidates
	// best-first by meta-blocking edge weight, so the budget is spent on
	// the likeliest matches; the response reports comparisons_used and
	// whether the run was truncated.
	Budget int64 `json:"budget,omitempty"`
	// DeadlineMS bounds the resolve wall time in milliseconds (0 = none).
	// The deadline is enforced through the request context: when it trips,
	// the matching stage stops at the next batch boundary and the response
	// is the well-formed truncated result, not an error.
	DeadlineMS int64 `json:"deadline_ms,omitempty"`
}

// ResolveContext runs the existing blocking→pruning→matching pipeline over a
// consistent point-in-time view of the collection: the snapshot feeds the
// pruning and matching stages exactly as a batch run would, so a resolve
// over a fully ingested collection equals a batch pipeline run over the
// same records. Ingestion may continue concurrently; it does not affect the
// running resolve. Cancellation (the HTTP client going away, or the deadline
// the handler derives from DeadlineMS) truncates the matching stage instead
// of failing it. Blocking and pruning always complete; only matching is
// bounded.
func (c *Collection) ResolveContext(ctx context.Context, req ResolveRequest) (*pipeline.Result, error) {
	if len(req.Match) == 0 {
		return nil, fmt.Errorf("server: resolve needs at least one match attribute")
	}
	if req.Budget < 0 || req.DeadlineMS < 0 {
		return nil, fmt.Errorf("server: resolve budget and deadline_ms must be non-negative")
	}
	weights := make([]er.AttrWeight, len(req.Match))
	for i, m := range req.Match {
		w := m.Weight
		if w == 0 {
			w = 1
		}
		weights[i] = er.AttrWeight{Attr: m.Attr, Weight: w, Sim: m.Sim}
	}
	matcher, err := er.NewMatcher(weights, req.Threshold)
	if err != nil {
		return nil, err
	}
	opts := []pipeline.Option{pipeline.WithMatcher(matcher)}
	if req.Pruning != nil {
		scheme, err := metablocking.ParseScheme(req.Pruning.Scheme)
		if err != nil {
			return nil, fmt.Errorf("server: %w", err)
		}
		algo, err := metablocking.ParseAlgo(req.Pruning.Algo)
		if err != nil {
			return nil, fmt.Errorf("server: %w", err)
		}
		opts = append(opts, pipeline.WithPruning(scheme, algo))
	}
	if req.Budget > 0 || req.DeadlineMS > 0 {
		opts = append(opts, pipeline.WithBudget(req.Budget, time.Duration(req.DeadlineMS)*time.Millisecond))
	}

	start := time.Now()
	defer func() { c.resolveHist.Observe(time.Since(start)) }()

	// The snapshot materialisation is this run's real blocking stage (the
	// pipeline's staticBlocker.Block call is a pointer return), so span it
	// as "block": traces of a /resolve then show where the wall time went
	// even though no hash tables are built here. c.mu is held only for what
	// needs it: the log prefix the snapshot corresponds to (a slice header)
	// and the snapshot itself.
	sp := obs.From(ctx).Start(obs.StageBlock)
	c.mu.Lock()
	recs := c.log.Records()
	snap := c.snapshotLocked()
	c.mu.Unlock()
	ds := record.NewDatasetView(c.spec.Name, recs)
	sp.End()

	p, err := pipeline.New(staticBlocker{res: snap}, opts...)
	if err != nil {
		return nil, err
	}
	return p.RunContext(ctx, ds)
}

// staticBlocker adapts an already-materialised snapshot to the
// blocking.Blocker interface so the pipeline's pruning and matching stages
// run unchanged over serving-layer data.
type staticBlocker struct{ res *blocking.Result }

func (s staticBlocker) Name() string { return s.res.Technique }

func (s staticBlocker) Block(*record.Dataset) (*blocking.Result, error) { return s.res, nil }

// Stats summarises a collection for the HTTP API.
type Stats struct {
	Name      string `json:"name"`
	Technique string `json:"technique"`
	Shards    int    `json:"shards"`
	Records   int    `json:"records"`
	Pairs     int    `json:"pairs"`
	// PendingPairs/DrainedPairs describe the default consumer group — the
	// legacy single-cursor view. Consumers carries every group, the default
	// included.
	PendingPairs     int             `json:"pending_pairs"`
	DrainedPairs     int             `json:"drained_pairs"`
	Consumers        []ConsumerStats `json:"consumers"`
	PersistedRecords int             `json:"persisted_records"`
	// Segments/SegmentBytes describe the on-disk checkpoint chain;
	// Generation is the compaction generation serving it (0 = never
	// compacted). They are the observables the compaction thresholds act on.
	Segments     int   `json:"segments"`
	SegmentBytes int64 `json:"segment_bytes"`
	Generation   int   `json:"generation"`

	// Latency quantiles of this collection's ingest batches and resolve
	// runs, estimated from fixed-bucket histograms (same buckets as the
	// /metrics exposition).
	IngestLatency  LatencyStats `json:"ingest_latency"`
	ResolveLatency LatencyStats `json:"resolve_latency"`
}

// LatencyStats summarises one operation's latency distribution.
type LatencyStats struct {
	Count uint64  `json:"count"`
	P50MS float64 `json:"p50_ms"`
	P95MS float64 `json:"p95_ms"`
	P99MS float64 `json:"p99_ms"`
}

// latencyStats renders a histogram's quantiles (zero value on nil or empty).
func latencyStats(h *obs.Histogram) LatencyStats {
	n := h.Count()
	if n == 0 {
		return LatencyStats{}
	}
	ms := func(q float64) float64 {
		return float64(h.Quantile(q)) / float64(time.Millisecond)
	}
	return LatencyStats{Count: n, P50MS: ms(0.50), P95MS: ms(0.95), P99MS: ms(0.99)}
}

// Stats returns a consistent summary of the collection.
func (c *Collection) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	var bytes int64
	for _, seg := range c.segments {
		bytes += seg.Bytes
	}
	def := c.groups[DefaultConsumer]
	return Stats{
		Name:             c.spec.Name,
		Technique:        c.cfg.Technique(),
		Shards:           len(c.shards),
		Records:          c.log.Len(),
		Pairs:            c.totalLocked(),
		PendingPairs:     c.totalLocked() - def.cursor - def.inflight,
		DrainedPairs:     def.cursor,
		Consumers:        c.consumersLocked(),
		PersistedRecords: c.persisted,
		Segments:         len(c.segments),
		SegmentBytes:     bytes,
		Generation:       c.generation,
		IngestLatency:    latencyStats(c.ingestHist),
		ResolveLatency:   latencyStats(c.resolveHist),
	}
}
