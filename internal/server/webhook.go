package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"time"

	"semblock/internal/record"
)

// Webhook push delivery. A consumer group with a WebhookSpec gets a sink
// worker: a goroutine that sleeps on the collection's emission signal,
// drains the group through the same acknowledged-delivery discipline as
// every other consumer (DrainConsumer), and POSTs each batch to the sink
// URL with bounded retries and exponential backoff. The group cursor
// advances only when the sink acknowledged the batch (a 2xx response), so
// semantics are at-least-once: a crash, restart, or exhausted retry run
// redelivers from the last acknowledged batch, never skips past one. The
// worker holds the group's delivery slot while a batch is in flight —
// manual drains of a webhook-fed group fail fast with ErrDrainBusy, other
// groups are untouched.
//
// Workers are started when a webhook is registered (PUT .../webhook) and on
// restore-on-boot for every persisted spec; they stop on webhook removal,
// consumer/collection deletion, and Server.StopDelivery — the graceful-
// shutdown hook the CLI calls before the HTTP listener closes.

// WebhookDefaults are the server-wide delivery knobs a WebhookSpec's zero
// fields inherit (see WithWebhookDefaults; the CLI flags -webhook-timeout,
// -webhook-retries and -webhook-backoff feed them).
type WebhookDefaults struct {
	// Timeout bounds one delivery attempt.
	Timeout time.Duration
	// MaxRetries bounds redelivery attempts of one batch beyond the first.
	MaxRetries int
	// Backoff is the first retry delay; each further retry doubles it.
	Backoff time.Duration
}

// defaultWebhookDelivery is the zero-config delivery policy.
var defaultWebhookDelivery = WebhookDefaults{
	Timeout:    10 * time.Second,
	MaxRetries: 5,
	Backoff:    100 * time.Millisecond,
}

// maxWebhookBackoff caps the exponential retry delay.
const maxWebhookBackoff = 30 * time.Second

// withDefaults fills a spec's zero fields from the server policy.
func (d WebhookDefaults) withDefaults() WebhookDefaults {
	if d.Timeout <= 0 {
		d.Timeout = defaultWebhookDelivery.Timeout
	}
	if d.MaxRetries <= 0 {
		d.MaxRetries = defaultWebhookDelivery.MaxRetries
	}
	if d.Backoff <= 0 {
		d.Backoff = defaultWebhookDelivery.Backoff
	}
	return d
}

// resolve merges one group's spec over the server defaults.
func (s *Server) resolveWebhook(spec WebhookSpec) WebhookDefaults {
	d := s.webhookDefaults.withDefaults()
	if spec.TimeoutMS > 0 {
		d.Timeout = time.Duration(spec.TimeoutMS) * time.Millisecond
	}
	if spec.MaxRetries > 0 {
		d.MaxRetries = spec.MaxRetries
	}
	if spec.BackoffMS > 0 {
		d.Backoff = time.Duration(spec.BackoffMS) * time.Millisecond
	}
	return d
}

// validateWebhookSpec rejects sinks the worker could never deliver to.
func validateWebhookSpec(spec WebhookSpec) error {
	u, err := url.Parse(spec.URL)
	if err != nil {
		return fmt.Errorf("server: webhook url: %w", err)
	}
	if (u.Scheme != "http" && u.Scheme != "https") || u.Host == "" {
		return fmt.Errorf("server: webhook url %q must be absolute http(s)", spec.URL)
	}
	if spec.MaxRetries < 0 || spec.BackoffMS < 0 || spec.TimeoutMS < 0 {
		return fmt.Errorf("server: webhook max_retries, backoff_ms and timeout_ms must be non-negative")
	}
	return nil
}

// webhookPayload is the JSON body POSTed to a sink for one batch. The
// cursor fields let an idempotent receiver deduplicate redeliveries: two
// deliveries of the same window carry the same cursor.
type webhookPayload struct {
	Collection string         `json:"collection"`
	Group      string         `json:"group"`
	Pairs      [][2]record.ID `json:"pairs"`
	Count      int            `json:"count"`
	Cursor     int            `json:"cursor"`
	NextCursor int            `json:"next_cursor"`
}

// sinkWorker is one running webhook delivery loop.
type sinkWorker struct {
	stop chan struct{}
}

// sinkKey names a worker in the registry.
func sinkKey(collection, group string) string { return collection + "/" + group }

// startSink launches (or replaces) the delivery worker for one group's
// webhook; a no-op when the group has no spec or delivery is stopped. The
// replaced worker is signalled to stop and winds down asynchronously — the
// group's busy slot keeps the two from ever delivering concurrently.
func (s *Server) startSink(c *Collection, group string) {
	st, err := c.ConsumerStat(group)
	if err != nil || st.Webhook == nil {
		return
	}
	s.sinksMu.Lock()
	defer s.sinksMu.Unlock()
	if s.pushStopped {
		return
	}
	key := sinkKey(c.Name(), group)
	if old, ok := s.sinks[key]; ok {
		close(old.stop)
	}
	w := &sinkWorker{stop: make(chan struct{})}
	s.sinks[key] = w
	s.sinkWG.Add(1)
	go s.runSink(c, group, *st.Webhook, w) //semblock:allow gostmt lifecycle: one webhook worker per group, stopped by its stop channel
}

// startCollectionSinks launches workers for every webhook-carrying group of
// a collection (restore-on-boot).
func (s *Server) startCollectionSinks(c *Collection) {
	for _, st := range c.Consumers() {
		if st.Webhook != nil {
			s.startSink(c, st.Group)
		}
	}
}

// stopSink stops one group's delivery worker, if any.
func (s *Server) stopSink(collection, group string) {
	s.sinksMu.Lock()
	defer s.sinksMu.Unlock()
	key := sinkKey(collection, group)
	if w, ok := s.sinks[key]; ok {
		close(w.stop)
		delete(s.sinks, key)
	}
}

// stopCollectionSinks stops every worker of one collection (delete path).
func (s *Server) stopCollectionSinks(collection string) {
	s.sinksMu.Lock()
	defer s.sinksMu.Unlock()
	for key, w := range s.sinks {
		if len(key) > len(collection) && key[:len(collection)] == collection && key[len(collection)] == '/' {
			close(w.stop)
			delete(s.sinks, key)
		}
	}
}

// StopDelivery shuts down push delivery: every webhook worker is signalled
// and awaited (in-flight batches finish their current attempt), and
// connected SSE/long-poll consumers are released. Idempotent. The CLI
// calls it before closing the HTTP listener so streams drain instead of
// timing out the graceful shutdown; Close calls it before the final
// checkpoint so the checkpoint captures the workers' last acknowledged
// cursors.
func (s *Server) StopDelivery() {
	s.sinksMu.Lock()
	if s.pushStopped {
		s.sinksMu.Unlock()
		return
	}
	s.pushStopped = true
	close(s.pushStop)
	for key, w := range s.sinks {
		close(w.stop)
		delete(s.sinks, key)
	}
	s.sinksMu.Unlock()
	s.sinkWG.Wait()
}

// sleepOr waits for d or the stop signal; it reports false when stopped.
func sleepOr(stop <-chan struct{}, d time.Duration) bool {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return true
	case <-stop:
		return false
	}
}

// runSink is one webhook worker's delivery loop: sleep until the group has
// pairs, drain a batch, POST it with bounded retries, repeat. An exhausted
// retry run leaves the cursor where it was and pauses before trying the
// same window again — delivery is at-least-once and never skips an
// unacknowledged batch. The loop exits when the worker is stopped or the
// group/collection goes away.
func (s *Server) runSink(c *Collection, group string, spec WebhookSpec, w *sinkWorker) {
	defer s.sinkWG.Done()
	policy := s.resolveWebhook(spec)
	client := &http.Client{Timeout: policy.Timeout}
	for {
		select {
		case <-w.stop:
			return
		default:
		}
		ok, err := c.WaitPending(group, time.Minute, w.stop, nil)
		if err != nil {
			return // group deleted
		}
		if !ok {
			continue // stopped (checked at loop top) or idle timeout
		}
		start := time.Now()
		n, err := c.DrainConsumer(group, func(b ConsumerBatch) error {
			return s.deliverWebhook(client, c.Name(), spec.URL, policy, b, w.stop)
		})
		switch {
		case err == nil:
			if n > 0 {
				s.metrics.webhookDur.Observe(time.Since(start))
				s.metrics.webhookDeliveries.Add(1)
				s.metrics.webhookPairs.Add(int64(n))
			}
		case errors.Is(err, ErrUnknownConsumer):
			return
		case errors.Is(err, ErrDrainBusy):
			// A manual drain or stream holds the slot; yield briefly.
			if !sleepOr(w.stop, policy.Backoff) {
				return
			}
		default:
			// The batch exhausted its bounded retries; the cursor did not
			// move. Keep backing off where the retry run left it — one more
			// doubling, capped — then redeliver the same window.
			s.metrics.webhookFailures.Add(1)
			if s.logger != nil {
				s.logger.Warn("webhook delivery failed",
					"collection", c.Name(), "group", group, "url", spec.URL, "error", err.Error())
			}
			pause := policy.Backoff
			for i := 0; i < policy.MaxRetries+1 && pause < maxWebhookBackoff; i++ {
				pause *= 2
			}
			if pause > maxWebhookBackoff {
				pause = maxWebhookBackoff
			}
			if !sleepOr(w.stop, pause) {
				return
			}
		}
	}
}

// deliverWebhook POSTs one batch to the sink, retrying with exponential
// backoff up to the policy's bound. It returns nil only when the sink
// acknowledged the batch with a 2xx status — the caller's cursor advance
// hangs off that.
func (s *Server) deliverWebhook(client *http.Client, collection, sinkURL string, policy WebhookDefaults, b ConsumerBatch, stop <-chan struct{}) error {
	payload := webhookPayload{
		Collection: collection,
		Group:      b.Group,
		Pairs:      wirePairs(b.Pairs),
		Count:      len(b.Pairs),
		Cursor:     b.Cursor,
		NextCursor: b.Next,
	}
	body, err := json.Marshal(payload)
	if err != nil {
		return fmt.Errorf("server: encode webhook payload: %w", err)
	}
	backoff := policy.Backoff
	var lastErr error
	for attempt := 0; attempt <= policy.MaxRetries; attempt++ {
		if attempt > 0 {
			s.metrics.webhookRetries.Add(1)
			if !sleepOr(stop, backoff) {
				return fmt.Errorf("server: webhook delivery stopped: %w", lastErr)
			}
			if backoff *= 2; backoff > maxWebhookBackoff {
				backoff = maxWebhookBackoff
			}
		}
		resp, err := client.Post(sinkURL, "application/json", bytes.NewReader(body))
		if err != nil {
			lastErr = err
			continue
		}
		// Drain a little of the body so the connection can be reused, then
		// close regardless.
		_, _ = io.Copy(io.Discard, io.LimitReader(resp.Body, 4096))
		resp.Body.Close()
		if resp.StatusCode >= 200 && resp.StatusCode < 300 {
			return nil
		}
		lastErr = fmt.Errorf("sink answered %s", resp.Status)
	}
	return fmt.Errorf("server: webhook %s gave up after %d attempts: %w", sinkURL, policy.MaxRetries+1, lastErr)
}
