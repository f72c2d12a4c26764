package server

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"semblock/internal/record"
)

// Consumer groups. A collection emits candidate pairs in one canonical
// sequence (see Collection); a consumer group is a named, durable cursor
// into that sequence. Every group observes the identical pair sequence and
// advances independently: a slow fraud-alerting webhook and a fast
// interactive drain share one blocking pass without contending. The cursor
// of a group only moves when a delivery is acknowledged (the deliver
// callback returned nil or an explicit ack arrived), so a checkpoint taken
// at any moment records a cursor no further than the pairs the consumer has
// actually received — a crash can redeliver the window since the last
// acknowledged batch, never lose pairs (at-least-once; exactly-once up to
// the latest checkpoint).
//
// The "default" group always exists and carries the legacy single-cursor
// API: GET /candidates is the default group's drain route and
// Collection.Candidates is DrainConsumer on it, so pre-consumer-group
// clients keep their exact semantics through the one delivery path.

// DefaultConsumer is the name of the built-in consumer group that backs the
// legacy single-cursor candidate API. It exists from collection creation,
// cannot be deleted, and is what old manifests' single drain cursor migrates
// into.
const DefaultConsumer = "default"

// Sentinel errors of the consumer-group API (match with errors.Is).
var (
	// ErrUnknownConsumer reports an operation on a consumer group that does
	// not exist (HTTP 404).
	ErrUnknownConsumer = errors.New("no such consumer group")
	// ErrConsumerExists reports a CreateConsumer against a name already
	// registered (HTTP 409).
	ErrConsumerExists = errors.New("consumer group already exists")
	// ErrConsumerProtected reports a DeleteConsumer of the default group,
	// which backs the legacy candidate API and cannot be removed (HTTP 409).
	ErrConsumerProtected = errors.New("the default consumer group cannot be deleted")
	// ErrCursorOutOfRange reports an ack beyond the emitted pair sequence
	// (HTTP 400).
	ErrCursorOutOfRange = errors.New("cursor outside the emitted pair sequence")
)

// consumerGroup is one named durable cursor into the collection's canonical
// pair sequence. cursor/inflight/webhook are guarded by the collection
// mutex; busy serialises fallible hand-offs of this group only — two
// different groups never contend.
type consumerGroup struct {
	name string

	// busy serialises this group's fallible deliveries (DrainConsumer,
	// StreamConsumer, AckConsumer): popping around an in-flight delivery
	// whose outcome is unknown would break the cursor's prefix invariant.
	// Hand-offs TryLock it and fail fast with ErrDrainBusy instead of
	// queueing behind a slow consumer socket.
	busy sync.Mutex

	// cursor is the acknowledged prefix of the canonical emission sequence:
	// the first cursor pairs have been delivered to this group. It only
	// moves forward, and only when a delivery settles successfully — so it
	// is always safe for a checkpoint to persist.
	cursor int
	// inflight is the size of the window popped by an unsettled delivery;
	// diagnostics only (the cursor already excludes it by construction).
	inflight int

	// webhook, when set, asks the serving layer to push this group's pairs
	// to an HTTP sink (see webhook.go). Persisted in the manifest.
	webhook *WebhookSpec
}

// WebhookSpec configures push delivery of one consumer group's pairs to an
// HTTP endpoint. Zero fields inherit the server's webhook defaults.
type WebhookSpec struct {
	// URL receives POSTed JSON batches (see webhookPayload).
	URL string `json:"url"`
	// MaxRetries bounds the redelivery attempts of one batch beyond the
	// first (0 = inherit the server default).
	MaxRetries int `json:"max_retries,omitempty"`
	// BackoffMS is the first retry delay in milliseconds; each further
	// retry doubles it (0 = inherit).
	BackoffMS int64 `json:"backoff_ms,omitempty"`
	// TimeoutMS bounds one delivery attempt in milliseconds (0 = inherit).
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
}

// ConsumerStats summarises one consumer group for the HTTP API.
type ConsumerStats struct {
	Group string `json:"group"`
	// Cursor is the acknowledged prefix of the canonical pair sequence.
	Cursor int `json:"cursor"`
	// Pending counts emitted pairs not yet handed to this group.
	Pending int `json:"pending"`
	// Inflight counts pairs popped by a delivery whose outcome is unknown.
	Inflight int `json:"inflight"`
	// EmittedTotal is the collection-wide emission count (cursor's upper
	// bound).
	EmittedTotal int          `json:"emitted_total"`
	Webhook      *WebhookSpec `json:"webhook,omitempty"`
}

// ConsumerBatch is one popped window of the canonical pair sequence:
// Pairs covers positions [Cursor, Next). Total is the collection-wide
// emission count at pop time.
type ConsumerBatch struct {
	Group string
	Pairs []record.Pair
	// Cursor is the group cursor the batch starts at.
	Cursor int
	// Next is the cursor value acknowledging this batch advances to.
	Next int
	// Total is the collection's emitted-pair count when the batch was
	// popped.
	Total int
}

// totalLocked is the collection-wide emission count — the number of
// distinct candidate pairs ever emitted (caller holds c.mu).
func (c *Collection) totalLocked() int { return c.emitBase + len(c.emitted) }

// broadcastLocked wakes every blocked waiter (long-polls, SSE streams,
// webhook workers) by closing the current signal channel and installing a
// fresh one. Caller holds c.mu.
func (c *Collection) broadcastLocked() {
	close(c.signal)
	c.signal = make(chan struct{})
}

// minCursorLocked is the smallest group cursor — the emission-sequence
// prefix every group has acknowledged (caller holds c.mu).
func (c *Collection) minCursorLocked() int {
	min := c.totalLocked()
	for _, g := range c.groups {
		if g.cursor < min {
			min = g.cursor
		}
	}
	return min
}

// trimLocked releases the emission-log prefix every group has acknowledged.
// It reslices while the dead prefix is smaller than the live tail and
// copies the tail to a fresh backing array only once the dead prefix is at
// least as large, so the drained prefix never pins more than the live tail
// does and a consumer acking a backlog in small steps costs amortised O(1)
// per pair, not O(pending) per ack. In-flight windows sit above their
// group's cursor, so a trim can never drop pairs an unsettled delivery
// still references (and popped slices stay valid regardless — the log only
// ever appends past its end, it never rewrites a position). Caller holds
// c.mu.
func (c *Collection) trimLocked() {
	min := c.minCursorLocked()
	if min <= c.emitBase {
		return
	}
	c.emitDead += min - c.emitBase
	c.emitted = c.emitted[min-c.emitBase:]
	c.emitBase = min
	if c.emitDead >= len(c.emitted) {
		c.emitted = append([]record.Pair(nil), c.emitted...)
		c.emitDead = 0
	}
}

// unknownConsumer renders the ErrUnknownConsumer error for one group name.
func (c *Collection) unknownConsumer(name string) error {
	return fmt.Errorf("server: collection %s: %w: %q", c.spec.Name, ErrUnknownConsumer, name)
}

// acquire takes the group's delivery slot: look the group up, TryLock its
// busy mutex (failing fast with ErrDrainBusy instead of queueing behind a
// slow consumer socket), then re-validate under c.mu that the group was not
// deleted (or deleted and recreated) in between. On success the caller owns
// g.busy and must Unlock it; the stats are the group's at acquisition.
func (c *Collection) acquire(name string) (*consumerGroup, ConsumerStats, error) {
	c.mu.Lock()
	g, ok := c.groups[name]
	c.mu.Unlock()
	if !ok {
		return nil, ConsumerStats{}, c.unknownConsumer(name)
	}
	if !g.busy.TryLock() {
		return nil, ConsumerStats{}, fmt.Errorf("server: consumer group %q: %w", name, ErrDrainBusy)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.groups[name] != g {
		g.busy.Unlock()
		return nil, ConsumerStats{}, c.unknownConsumer(name)
	}
	return g, c.statsLocked(g), nil
}

// statsLocked renders one group's stats (caller holds c.mu). The webhook
// spec is copied so callers can never race a later SetWebhook.
func (c *Collection) statsLocked(g *consumerGroup) ConsumerStats {
	st := ConsumerStats{
		Group:        g.name,
		Cursor:       g.cursor,
		Pending:      c.totalLocked() - g.cursor - g.inflight,
		Inflight:     g.inflight,
		EmittedTotal: c.totalLocked(),
	}
	if g.webhook != nil {
		spec := *g.webhook
		st.Webhook = &spec
	}
	return st
}

// CreateConsumer registers a new named consumer group. With fromEnd the
// cursor starts at the current end of the emission sequence (the group only
// sees pairs discovered after creation); otherwise it starts at zero and
// replays the full history — including any prefix already released by other
// groups' acknowledgments, which is reconstructed from the index tables
// (the canonical sequence is a pure function of them, see rebuildLedger).
func (c *Collection) CreateConsumer(name string, fromEnd bool) (ConsumerStats, error) {
	if !nameRE.MatchString(name) {
		return ConsumerStats{}, fmt.Errorf("server: consumer group name %q must match %s", name, nameRE)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, exists := c.groups[name]; exists {
		return ConsumerStats{}, fmt.Errorf("server: collection %s: %w: %q", c.spec.Name, ErrConsumerExists, name)
	}
	g := &consumerGroup{name: name}
	if fromEnd {
		g.cursor = c.totalLocked()
	} else if c.emitBase > 0 {
		// The new group needs a prefix other groups already released;
		// rebuild the full canonical sequence from the tables.
		c.emitted = c.canonicalSeqLocked()
		c.emitBase = 0
		c.emitDead = 0
	}
	c.groups[name] = g
	return c.statsLocked(g), nil
}

// DeleteConsumer removes a named consumer group (the default group is
// protected). An in-flight delivery of the deleted group settles without
// effect; blocked streams and waiters wake and observe the deletion.
func (c *Collection) DeleteConsumer(name string) error {
	if name == DefaultConsumer {
		return fmt.Errorf("server: collection %s: %w", c.spec.Name, ErrConsumerProtected)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.groups[name]; !ok {
		return c.unknownConsumer(name)
	}
	delete(c.groups, name)
	// A deleted laggard may have been the trim floor; release its prefix,
	// and wake any stream blocked on the group so it can observe the
	// deletion.
	c.trimLocked()
	c.broadcastLocked()
	return nil
}

// Consumers lists the collection's consumer groups, sorted by name.
func (c *Collection) Consumers() []ConsumerStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.consumersLocked()
}

func (c *Collection) consumersLocked() []ConsumerStats {
	out := make([]ConsumerStats, 0, len(c.groups))
	for _, g := range c.groups {
		out = append(out, c.statsLocked(g))
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Group < out[j].Group })
	return out
}

// consumerManifestsLocked renders the groups' durable state for a
// checkpoint or compaction manifest, sorted by name so manifests are
// deterministic (caller holds c.mu). Cursors count only acknowledged
// deliveries — in-flight windows are excluded by construction.
func (c *Collection) consumerManifestsLocked() []consumerManifest {
	out := make([]consumerManifest, 0, len(c.groups))
	for _, g := range c.groups {
		cm := consumerManifest{Name: g.name, Cursor: g.cursor}
		if g.webhook != nil {
			spec := *g.webhook
			cm.Webhook = &spec
		}
		out = append(out, cm)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// ConsumerStat returns one group's stats.
func (c *Collection) ConsumerStat(name string) (ConsumerStats, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	g, ok := c.groups[name]
	if !ok {
		return ConsumerStats{}, c.unknownConsumer(name)
	}
	return c.statsLocked(g), nil
}

// PeekConsumer returns the group's undelivered window without consuming it:
// the pairs stay pending and the cursor does not move. Pair a peek with an
// explicit AckConsumer for a client-committed cursor protocol (the only way
// to close the ack-less GET's redelivery window end to end).
func (c *Collection) PeekConsumer(name string) (ConsumerBatch, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	g, ok := c.groups[name]
	if !ok {
		return ConsumerBatch{}, c.unknownConsumer(name)
	}
	return c.windowLocked(g), nil
}

// AckConsumer advances the group cursor to the given absolute position —
// the client-committed acknowledgment of every pair before it. Acks are
// monotonic and idempotent: a position at or below the current cursor is a
// no-op, one beyond the emitted sequence is ErrCursorOutOfRange. Pairs
// below the ack are released for trimming and will never be delivered to
// this group again.
func (c *Collection) AckConsumer(name string, cursor int) (ConsumerStats, error) {
	if cursor < 0 {
		return ConsumerStats{}, fmt.Errorf("server: collection %s: %w: %d", c.spec.Name, ErrCursorOutOfRange, cursor)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	g, ok := c.groups[name]
	if !ok {
		return ConsumerStats{}, c.unknownConsumer(name)
	}
	if cursor > c.totalLocked() {
		return ConsumerStats{}, fmt.Errorf("server: collection %s: %w: %d > %d emitted",
			c.spec.Name, ErrCursorOutOfRange, cursor, c.totalLocked())
	}
	if cursor > g.cursor {
		g.cursor = cursor
		c.trimLocked()
	}
	return c.statsLocked(g), nil
}

// windowLocked views the group's undelivered window of the emission log as
// a batch (caller holds c.mu). The slice views the immutable log; concurrent
// appends and trims never mutate it.
func (c *Collection) windowLocked(g *consumerGroup) ConsumerBatch {
	tail := c.emitted[g.cursor-c.emitBase:]
	return ConsumerBatch{
		Group: g.name, Pairs: tail,
		Cursor: g.cursor, Next: g.cursor + len(tail), Total: c.totalLocked(),
	}
}

// pop pops the group's undelivered window for the slot holder and marks it
// in flight, returning the emission signal to block on when the window is
// empty. It re-checks under c.mu that the group is still registered: a
// deleted group's cursor may sit below the trimmed log.
func (c *Collection) pop(g *consumerGroup) (ConsumerBatch, <-chan struct{}, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.groups[g.name] != g {
		return ConsumerBatch{}, nil, c.unknownConsumer(g.name)
	}
	batch := c.windowLocked(g)
	g.inflight = len(batch.Pairs)
	return batch, c.signal, nil
}

// settle delivers one popped batch and commits the outcome. The commit runs
// in a defer so a panicking deliver (which net/http swallows per request,
// keeping the process alive) counts as a failed delivery: the cursor does
// not move and the window is redelivered by the next drain. On success the
// cursor advances monotonically (a concurrent explicit ack may already have
// moved it further) and the acknowledged prefix becomes trimmable.
func (c *Collection) settle(g *consumerGroup, batch ConsumerBatch, deliver func(ConsumerBatch) error) error {
	delivered := false
	defer func() {
		c.mu.Lock()
		g.inflight = 0
		if delivered && batch.Next > g.cursor {
			g.cursor = batch.Next
			c.trimLocked()
		}
		c.mu.Unlock()
	}()
	if err := deliver(batch); err != nil {
		return err
	}
	delivered = true
	return nil
}

// DrainConsumer pops the group's undelivered window and hands it to deliver
// (not called on an empty window); the cursor advances only when deliver
// returns nil, so a failed or panicking hand-off redelivers the same window
// next time and a checkpoint racing the delivery can only under-count
// (redeliver after a crash), never lose a pair. One delivery per group at a
// time: a concurrent call fails fast with ErrDrainBusy rather than queueing
// behind a slow consumer socket. Different groups never contend. Returns
// the number of pairs acknowledged.
func (c *Collection) DrainConsumer(group string, deliver func(ConsumerBatch) error) (int, error) {
	g, _, err := c.acquire(group)
	if err != nil {
		return 0, err
	}
	defer g.busy.Unlock()
	batch, _, err := c.pop(g)
	if err != nil || len(batch.Pairs) == 0 {
		return 0, err
	}
	if err := c.settle(g, batch, deliver); err != nil {
		return 0, err
	}
	return len(batch.Pairs), nil
}

// StreamHandlers are the callbacks of one StreamConsumer session.
type StreamHandlers struct {
	// Ready runs once, after the group's delivery slot is acquired but
	// before the first batch — the place to commit response headers. A
	// non-nil error ends the stream before any delivery.
	Ready func(ConsumerStats) error
	// Batch delivers one popped window; returning an error ends the stream
	// without advancing the cursor past the batch.
	Batch func(ConsumerBatch) error
	// Idle runs every Heartbeat of silence (keepalives); an error ends the
	// stream. Nil disables heartbeats.
	Idle      func() error
	Heartbeat time.Duration
}

// StreamConsumer holds the group's delivery slot for the life of ctx and
// pushes every batch of the canonical sequence through h.Batch as it is
// discovered: drain, block on the emission signal, drain again. The cursor
// advances batch by batch exactly as in DrainConsumer (only after h.Batch
// acknowledges), so a dropped connection resumes from the last delivered
// batch. While a stream is connected, other fallible hand-offs of the same
// group fail fast with ErrDrainBusy; other groups are unaffected. Returns
// nil when ctx ends, ErrDrainBusy when the slot is taken, ErrUnknownConsumer
// when the group does not exist or is deleted mid-stream.
func (c *Collection) StreamConsumer(ctx context.Context, group string, h StreamHandlers) error {
	g, st, err := c.acquire(group)
	if err != nil {
		return err
	}
	defer g.busy.Unlock()
	if h.Ready != nil {
		if err := h.Ready(st); err != nil {
			return err
		}
	}
	var heartbeat <-chan time.Time
	if h.Heartbeat > 0 && h.Idle != nil {
		t := time.NewTicker(h.Heartbeat)
		defer t.Stop()
		heartbeat = t.C
	}
	for {
		batch, wake, err := c.pop(g)
		if err != nil {
			return err
		}
		if len(batch.Pairs) > 0 {
			if err := c.settle(g, batch, h.Batch); err != nil {
				return err
			}
			continue
		}
		select {
		case <-wake:
		case <-ctx.Done():
			return nil
		case <-heartbeat:
			if err := h.Idle(); err != nil {
				return err
			}
		}
	}
}

// WaitPending blocks until the group has undelivered pairs, either stop
// channel fires (nil means "never"), or max elapses; it reports whether
// pairs are pending. The webhook delivery workers and the long-poll drain
// use it to sleep on the emission signal instead of polling.
func (c *Collection) WaitPending(group string, max time.Duration, stop1, stop2 <-chan struct{}) (bool, error) {
	deadline := time.NewTimer(max)
	defer deadline.Stop()
	for {
		c.mu.Lock()
		g, ok := c.groups[group]
		if !ok {
			c.mu.Unlock()
			return false, c.unknownConsumer(group)
		}
		pending := c.totalLocked() - g.cursor - g.inflight
		wake := c.signal
		c.mu.Unlock()
		if pending > 0 {
			return true, nil
		}
		select {
		case <-wake:
		case <-deadline.C:
			return false, nil
		case <-stop1:
			return false, nil
		case <-stop2:
			return false, nil
		}
	}
}

// SetWebhook installs (or, with nil, removes) the group's webhook sink
// spec. The spec is persisted by the next checkpoint; the serving layer is
// responsible for starting/stopping the delivery worker (see webhook.go).
func (c *Collection) SetWebhook(group string, spec *WebhookSpec) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	g, ok := c.groups[group]
	if !ok {
		return c.unknownConsumer(group)
	}
	if spec != nil {
		cp := *spec
		spec = &cp
	}
	g.webhook = spec
	return nil
}
