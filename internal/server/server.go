// Package server is the multi-tenant serving layer over the streaming
// blocking engine: a Server owns named Collections, each backed by N
// table-sharded stream.Indexer instances, exposed over an HTTP JSON API
// (see Handler) and persisted as versioned JSONL segment files so an index
// survives restarts.
//
// The serving guarantees, all enforced by tests:
//
//   - Parity — a collection's merged candidate set and snapshot equal a
//     batch Block run over the same records, regardless of the shard count:
//     shards partition the hash tables (every record visits every shard),
//     so the union of per-shard collisions is exactly the unsharded
//     collision set.
//   - Shared state — the shards of one collection share a single record
//     log and once-per-record signature staging (stream.SharedLog): the
//     record log is stored once per collection (not once per shard) and
//     each record's q-gram + semhash stage is computed once, no matter the
//     shard count.
//   - Durability — Save/LoadCollection checkpoint the config, the record
//     log, and the drain cursor; restore replays the records through the
//     same engine, so a kill/restart from the latest checkpoint reproduces
//     the identical snapshot (batch-parity by replay) and resumes candidate
//     delivery exactly where the checkpoint left off, never redelivering a
//     pair drained before it.
//   - Isolation — collections are independent: ingest is serialised per
//     collection but never across collections.
//
// The package is wired into the facade as semblock.NewServer and into the
// CLI as the "semblock serve" subcommand.
package server

import (
	"errors"
	"fmt"
	"log/slog"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"semblock/internal/obs"
)

// Sentinel errors the HTTP layer maps to status codes with errors.Is —
// keep the mapping independent of error-message wording.
var (
	// ErrExists reports a Create against a name already registered (409).
	ErrExists = errors.New("collection already exists")
	// ErrNotFound reports an operation on an unknown collection (404).
	ErrNotFound = errors.New("no such collection")
	// ErrPersist reports a failed persistence write (500).
	ErrPersist = errors.New("could not persist collection")
)

// Option customises a Server.
type Option func(*Server)

// WithDataDir enables snapshot persistence: collections are checkpointed
// into per-collection directories under dir, and collections found there
// are restored when the server is constructed.
func WithDataDir(dir string) Option {
	return func(s *Server) { s.dataDir = dir }
}

// WithDefaultShards sets the shard count applied to collections whose spec
// does not name one (default 1).
func WithDefaultShards(n int) Option {
	return func(s *Server) {
		if n > 0 {
			s.defaultShards = n
		}
	}
}

// WithLogger installs a structured request logger: every routed request is
// logged at INFO (WARN when it crosses the slow-request threshold) with
// route, status, duration, collection and trace ID. Nil — the default —
// disables request logging entirely.
func WithLogger(l *slog.Logger) Option {
	return func(s *Server) { s.logger = l }
}

// WithTraceBuffer sets how many completed request traces GET /debug/traces
// retains (default obs.DefaultTraceBuffer).
func WithTraceBuffer(n int) Option {
	return func(s *Server) {
		if n > 0 {
			s.traceBuffer = n
		}
	}
}

// WithSlowRequestThreshold promotes requests slower than d to WARN-level
// log lines carrying a per-stage span breakdown (0 — the default — never
// promotes). Only meaningful together with WithLogger.
func WithSlowRequestThreshold(d time.Duration) Option {
	return func(s *Server) { s.slowReq = d }
}

// WithWebhookDefaults sets the server-wide webhook delivery policy a
// WebhookSpec's zero fields inherit (attempt timeout, bounded retry count,
// initial exponential-backoff delay). Zero fields of the defaults
// themselves fall back to the built-in policy (10s / 5 retries / 100ms).
func WithWebhookDefaults(d WebhookDefaults) Option {
	return func(s *Server) { s.webhookDefaults = d }
}

// WithCompaction enables automatic background segment compaction: on each
// checkpoint pass, a collection whose on-disk chain has crossed a policy
// threshold is compacted in place instead of checkpointed — the compaction
// covers the whole log, checkpoint included (see CompactionPolicy,
// Collection.Compact and Server.Checkpoint). Requires WithDataDir to have
// any effect.
func WithCompaction(p CompactionPolicy) Option {
	return func(s *Server) { s.compaction = p }
}

// Server is a multi-tenant blocking service: a registry of named
// collections plus the HTTP front-end (Handler) and the persistence loop.
// Construct with New; all methods are safe for concurrent use.
type Server struct {
	mu          sync.RWMutex
	collections map[string]*Collection

	// persistLocks serialises on-disk mutations (checkpoints, compactions,
	// deletes) *per collection name*, so an in-flight write can never
	// resurrect a concurrently deleted collection's directory while one
	// tenant's long rewrite no longer queues other tenants' disk writes.
	// Entries are tombstoned on delete (see persistLock.dead) so a waiter
	// holding a stale lock pointer can never write the removed directory
	// concurrently with a fresh create's checkpoint. Lock order: a
	// collection's persist lock before mu; never two persist locks at once.
	persistLocksMu sync.Mutex
	persistLocks   map[string]*persistLock

	dataDir       string
	defaultShards int
	compaction    CompactionPolicy
	metrics       metrics

	// Push delivery (see webhook.go, the stream/long-poll handlers in
	// http.go). sinks maps "collection/group" to its running webhook
	// worker; pushStop is closed by StopDelivery to release connected
	// SSE/long-poll consumers.
	webhookDefaults WebhookDefaults
	sinksMu         sync.Mutex
	sinks           map[string]*sinkWorker
	sinkWG          sync.WaitGroup
	pushStop        chan struct{}
	pushStopped     bool

	// Observability (see internal/obs): the tracer mints one trace per
	// routed request and retains the most recent completed ones for
	// GET /debug/traces; completed span durations feed the per-stage
	// latency histogram. logger/slowReq drive structured request logging.
	tracer      *obs.Tracer
	traceBuffer int
	logger      *slog.Logger
	slowReq     time.Duration
}

// New builds a server. With WithDataDir, collections previously saved under
// the data dir are restored before New returns (restore-on-boot); a
// corrupted collection directory fails construction rather than serving a
// partial index.
func New(opts ...Option) (*Server, error) {
	s := &Server{
		collections:   make(map[string]*Collection),
		persistLocks:  make(map[string]*persistLock),
		defaultShards: 1,
		sinks:         make(map[string]*sinkWorker),
		pushStop:      make(chan struct{}),
	}
	s.metrics.init()
	for _, opt := range opts {
		opt(s)
	}
	s.tracer = obs.NewTracer(s.traceBuffer, s.metrics.stageDur)
	if s.dataDir == "" {
		return s, nil
	}
	if err := os.MkdirAll(s.dataDir, 0o755); err != nil {
		return nil, fmt.Errorf("server: create data dir: %w", err)
	}
	entries, err := os.ReadDir(s.dataDir)
	if err != nil {
		return nil, fmt.Errorf("server: read data dir: %w", err)
	}
	for _, e := range entries {
		if !e.IsDir() {
			continue
		}
		dir := filepath.Join(s.dataDir, e.Name())
		if _, err := os.Stat(filepath.Join(dir, manifestFile)); err != nil {
			continue // not a collection directory
		}
		c, err := LoadCollection(dir)
		if err != nil {
			return nil, fmt.Errorf("server: restore %s: %w", e.Name(), err)
		}
		if c.Name() != e.Name() {
			return nil, fmt.Errorf("server: directory %s holds collection %q", e.Name(), c.Name())
		}
		s.observeIngest(c)
		s.collections[c.Name()] = c
		// Persisted webhook sinks resume delivery from their durable
		// cursors as soon as the server is up.
		s.startCollectionSinks(c)
	}
	return s, nil
}

// observeIngest points a collection's shared log at the server-wide ingest
// metrics. Called before the collection is reachable by any request.
func (s *Server) observeIngest(c *Collection) {
	c.log.SetStageHistogram(s.metrics.stagingDur)
	c.log.SetBandCounters(&s.metrics.bandsSigned, &s.metrics.bandsSkipped)
}

// Create registers a new collection. A spec without a shard count inherits
// the server default; with persistence enabled the collection's config is
// checkpointed immediately, so it survives a restart even before the first
// record arrives.
func (s *Server) Create(spec CollectionSpec) (*Collection, error) {
	if spec.Shards == 0 {
		// The inherited server default is a preference, not a demand:
		// clamp it to the collection's table count so a small-l spec that
		// never asked for sharding is not rejected. An explicit per-spec
		// shard count exceeding l still hard-fails in validate.
		spec.Shards = s.defaultShards
		if spec.L > 0 && spec.Shards > spec.L {
			spec.Shards = spec.L
		}
	}
	c, err := newCollection(spec)
	if err != nil {
		return nil, err
	}
	s.observeIngest(c)
	s.mu.Lock()
	if _, exists := s.collections[c.Name()]; exists {
		s.mu.Unlock()
		return nil, fmt.Errorf("server: collection %q: %w", c.Name(), ErrExists)
	}
	s.collections[c.Name()] = c
	s.mu.Unlock()
	if s.dataDir != "" {
		if err := s.saveCollection(c); err != nil {
			// Roll the registration back: a collection whose config never
			// reached disk would silently vanish on the next restart. Only
			// this exact collection — the name may already belong to a
			// fresh one if a concurrent delete+create won the race.
			s.mu.Lock()
			if s.collections[c.Name()] == c {
				delete(s.collections, c.Name())
			}
			s.mu.Unlock()
			return nil, fmt.Errorf("server: %w %q: %w", ErrPersist, c.Name(), err)
		}
	}
	return c, nil
}

// persistLock serialises the on-disk mutations of one collection name.
// dead marks a tombstone: set (under the lock) by the delete that removed
// the directory and unregistered the entry, it tells waiters their pointer
// is stale — the name's current lock, if any, lives in the map.
type persistLock struct {
	mu   sync.Mutex
	dead bool
}

// acquirePersist locks the named collection's persist lock, creating it on
// first use. A waiter that wakes on a tombstoned entry retries against the
// current map entry, so after a delete+recreate every writer serialises on
// the fresh lock, never the stale one.
func (s *Server) acquirePersist(name string) *persistLock {
	for {
		s.persistLocksMu.Lock()
		l, ok := s.persistLocks[name]
		if !ok {
			l = &persistLock{}
			s.persistLocks[name] = l
		}
		s.persistLocksMu.Unlock()
		l.mu.Lock()
		if !l.dead {
			return l
		}
		l.mu.Unlock()
	}
}

// tombstonePersist marks the held lock dead and drops it from the map (the
// caller still unlocks it). Part of the delete path.
func (s *Server) tombstonePersist(name string, l *persistLock) {
	l.dead = true
	s.persistLocksMu.Lock()
	if s.persistLocks[name] == l {
		delete(s.persistLocks, name)
	}
	s.persistLocksMu.Unlock()
}

// saveCollection checkpoints one collection under its per-collection
// persist lock, skipping it when it was deleted in the meantime. Two
// tenants' checkpoints never queue behind each other.
func (s *Server) saveCollection(c *Collection) error {
	l := s.acquirePersist(c.Name())
	defer l.mu.Unlock()
	if cur, ok := s.Collection(c.Name()); !ok || cur != c {
		return nil // deleted (or replaced) since the caller picked it up
	}
	if err := c.Save(s.collectionDir(c.Name())); err != nil {
		return err
	}
	s.metrics.checkpoints.Add(1)
	return nil
}

// CompactCollection compacts one collection's on-disk segment chain under
// the persistence mutex — like saveCollection, a concurrent delete can
// never be resurrected by an in-flight compaction. It answers ErrNotFound
// when the collection was deleted (or replaced) in the meantime and wraps
// disk failures in ErrPersist. Compaction subsumes a checkpoint: the
// compacted generation covers the entire record log at the time of the
// call.
func (s *Server) CompactCollection(c *Collection) (CompactionResult, error) {
	if s.dataDir == "" {
		// Without the guard, collectionDir would resolve to a bare relative
		// path and the rewrite would scribble a directory into the process
		// CWD while marking in-memory state as persisted.
		return CompactionResult{}, fmt.Errorf("server: compaction needs a data dir")
	}
	l := s.acquirePersist(c.Name())
	defer l.mu.Unlock()
	if cur, ok := s.Collection(c.Name()); !ok || cur != c {
		return CompactionResult{}, fmt.Errorf("server: %w: %q", ErrNotFound, c.Name())
	}
	res, err := c.Compact(s.collectionDir(c.Name()))
	if err != nil {
		return res, fmt.Errorf("server: %w %q: %w", ErrPersist, c.Name(), err)
	}
	s.metrics.compactions.Add(1)
	s.metrics.compactedBytes.Add(res.BytesAfter)
	s.metrics.lastCompactionNanos.Store(int64(res.Duration))
	return res, nil
}

// Collection returns the named collection.
func (s *Server) Collection(name string) (*Collection, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	c, ok := s.collections[name]
	return c, ok
}

// List returns the collection names in sorted order.
func (s *Server) List() []string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]string, 0, len(s.collections))
	for name := range s.collections {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// Delete removes a collection and, with persistence enabled, its on-disk
// data. It holds the collection's persistence lock, so a concurrent
// checkpoint either completes before the directory is removed or skips the
// collection entirely — deleted data is never resurrected on a later boot.
// The lock entry is tombstoned on the way out: a checkpoint that was
// already waiting on it wakes, sees the tombstone, and re-acquires against
// whatever lock the name holds now (none, or a recreate's fresh one).
func (s *Server) Delete(name string) error {
	l := s.acquirePersist(name)
	defer l.mu.Unlock()
	defer s.tombstonePersist(name, l)
	s.mu.Lock()
	_, ok := s.collections[name]
	delete(s.collections, name)
	s.mu.Unlock()
	if !ok {
		return fmt.Errorf("server: %w: %q", ErrNotFound, name)
	}
	s.stopCollectionSinks(name)
	if s.dataDir != "" {
		if err := os.RemoveAll(s.collectionDir(name)); err != nil {
			return fmt.Errorf("server: delete collection data: %w", err)
		}
	}
	return nil
}

// Checkpoint saves every collection to the data dir (no-op without one).
// It is the periodic persistence hook of "semblock serve". Every collection
// is attempted even when one fails — a single unwritable directory must not
// starve the other tenants' checkpoints — and the failures are joined into
// the returned error. When a compaction policy is configured
// (WithCompaction), a collection whose chain has crossed a threshold is
// compacted *instead of* checkpointed — compaction subsumes a checkpoint
// (it covers the whole log), so sealing the pending records into a segment
// only to sweep it milliseconds later would double the I/O. If the rewrite
// fails, a plain checkpoint is still attempted: a failed maintenance pass
// must not cost ingest durability (and the smaller append may succeed
// where the full rewrite could not, e.g. on a nearly full disk).
func (s *Server) Checkpoint() error { return s.checkpointAll(true) }

func (s *Server) checkpointAll(compact bool) error {
	if s.dataDir == "" {
		return nil
	}
	s.mu.RLock()
	cols := make([]*Collection, 0, len(s.collections))
	for _, c := range s.collections {
		cols = append(cols, c)
	}
	s.mu.RUnlock()
	var errs []error
	for _, c := range cols {
		if compact && c.needsCompaction(s.compaction) {
			_, err := s.CompactCollection(c)
			if err == nil || errors.Is(err, ErrNotFound) {
				continue // compaction subsumed the checkpoint (or the collection is gone)
			}
			// The old generation stays intact and serving continues; fall
			// through to the plain checkpoint below.
			errs = append(errs, fmt.Errorf("compact %s: %w", c.Name(), err))
		}
		if err := s.saveCollection(c); err != nil {
			errs = append(errs, fmt.Errorf("checkpoint %s: %w", c.Name(), err))
		}
	}
	return errors.Join(errs...)
}

// CheckpointEvery checkpoints the server at the given interval until stop
// is closed, then takes one final checkpoint. It is the goroutine body of
// the serve subcommand's persistence loop; errors are reported through
// onError (nil = ignore) so a transient disk failure does not kill the
// serving path.
func (s *Server) CheckpointEvery(interval time.Duration, stop <-chan struct{}, onError func(error)) {
	report := func(err error) {
		if err != nil && onError != nil {
			onError(err)
		}
	}
	// The final checkpoint on stop skips auto-compaction: a shutdown must
	// not rewrite a whole record log behind a SIGTERM — termination
	// deadlines (systemd, k8s) would hard-kill it mid-rewrite and waste
	// the work. Compaction is pure maintenance; the threshold is still
	// crossed at the next boot's periodic checkpoint.
	if interval <= 0 {
		<-stop
		report(s.checkpointAll(false))
		return
	}
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-t.C:
			report(s.Checkpoint())
		case <-stop:
			report(s.checkpointAll(false))
			return
		}
	}
}

// Close stops push delivery (webhook workers wind down, streams are
// released) and then takes a final checkpoint (without maintenance
// compaction, like the shutdown path) — in that order, so the checkpoint
// captures the workers' last acknowledged cursors. HTTP listener lifecycle
// belongs to the caller.
func (s *Server) Close() error {
	s.StopDelivery()
	return s.checkpointAll(false)
}

// collectionDir returns the persistence directory of a collection.
func (s *Server) collectionDir(name string) string {
	return filepath.Join(s.dataDir, name)
}
