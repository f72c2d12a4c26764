package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"time"

	"semblock/internal/record"
)

// TestConsumerLifecycle drives the collection-level consumer-group API:
// create (from start and end), list, stats, peek, ack, delete, and the
// independence of per-group cursors.
func TestConsumerLifecycle(t *testing.T) {
	_, rows := coraFixture(t, 120)
	c, err := newCollection(baseSpec("groups", 2))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Ingest(rows[:60]); err != nil {
		t.Fatal(err)
	}
	total := c.PairCount()
	if total == 0 {
		t.Fatal("fixture emitted no pairs")
	}

	// A group created from the start owes the whole emitted sequence; one
	// created from the end owes nothing yet.
	full, err := c.CreateConsumer("replay", false)
	if err != nil {
		t.Fatal(err)
	}
	if full.Cursor != 0 || full.Pending != total {
		t.Fatalf("from-start group %+v, want cursor 0 pending %d", full, total)
	}
	tail, err := c.CreateConsumer("tail", true)
	if err != nil {
		t.Fatal(err)
	}
	if tail.Cursor != total || tail.Pending != 0 {
		t.Fatalf("from-end group %+v, want cursor %d pending 0", tail, total)
	}
	if _, err := c.CreateConsumer("replay", false); !errors.Is(err, ErrConsumerExists) {
		t.Errorf("duplicate create returned %v, want ErrConsumerExists", err)
	}
	if _, err := c.CreateConsumer("bad name!", false); err == nil {
		t.Error("malformed group name accepted")
	}

	names := make([]string, 0, 3)
	for _, st := range c.Consumers() {
		names = append(names, st.Group)
	}
	if fmt.Sprint(names) != "[default replay tail]" {
		t.Fatalf("listed groups %v, want sorted [default replay tail]", names)
	}

	// Peek does not advance; a drain of one group leaves the others alone.
	peeked, err := c.PeekConsumer("replay")
	if err != nil {
		t.Fatal(err)
	}
	if len(peeked.Pairs) != total {
		t.Fatalf("peek saw %d pairs, want %d", len(peeked.Pairs), total)
	}
	if st, _ := c.ConsumerStat("replay"); st.Cursor != 0 {
		t.Fatalf("peek advanced the cursor to %d", st.Cursor)
	}
	if n, err := c.DrainConsumer("replay", func(ConsumerBatch) error { return nil }); err != nil || n != total {
		t.Fatalf("drain delivered %d (%v), want %d", n, err, total)
	}
	if st, _ := c.ConsumerStat(DefaultConsumer); st.Cursor != 0 {
		t.Fatalf("draining replay moved the default cursor to %d", st.Cursor)
	}

	// Acks are monotonic and bounded by the emitted sequence.
	if _, err := c.AckConsumer(DefaultConsumer, 1); err != nil {
		t.Fatal(err)
	}
	if st, err := c.AckConsumer(DefaultConsumer, 0); err != nil || st.Cursor != 1 {
		t.Fatalf("stale ack gave cursor %d (%v), want the monotonic 1", st.Cursor, err)
	}
	if _, err := c.AckConsumer(DefaultConsumer, total+1); !errors.Is(err, ErrCursorOutOfRange) {
		t.Errorf("over-ack returned %v, want ErrCursorOutOfRange", err)
	}

	// New ingests land in every group's pending window.
	if _, err := c.Ingest(rows[60:]); err != nil {
		t.Fatal(err)
	}
	grown := c.PairCount()
	if st, _ := c.ConsumerStat("tail"); st.Pending != grown-total {
		t.Fatalf("from-end group pending %d after growth, want %d", st.Pending, grown-total)
	}

	// The default group is protected; named groups delete cleanly.
	if err := c.DeleteConsumer(DefaultConsumer); !errors.Is(err, ErrConsumerProtected) {
		t.Errorf("deleting default returned %v, want ErrConsumerProtected", err)
	}
	if err := c.DeleteConsumer("tail"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.ConsumerStat("tail"); !errors.Is(err, ErrUnknownConsumer) {
		t.Errorf("stat of deleted group returned %v, want ErrUnknownConsumer", err)
	}
}

// TestPerGroupBusy is the regression test for per-group busy semantics: a
// delivery in flight on one group answers 503 + Retry-After to a second
// drain of the same group, while a different group's drain proceeds — the
// groups never contend.
func TestPerGroupBusy(t *testing.T) {
	_, rows := coraFixture(t, 80)
	s, err := New()
	if err != nil {
		t.Fatal(err)
	}
	spec := baseSpec("busy", 2)
	c, err := s.Create(spec)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Ingest(rows); err != nil {
		t.Fatal(err)
	}
	for _, g := range []string{"a", "b"} {
		if _, err := c.CreateConsumer(g, false); err != nil {
			t.Fatal(err)
		}
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	cl := ts.Client()

	// Hold group a's delivery slot mid-flight.
	inDeliver := make(chan struct{})
	release := make(chan struct{})
	done := make(chan error, 1)
	go func() {
		_, err := c.DrainConsumer("a", func(ConsumerBatch) error {
			close(inDeliver)
			<-release
			return nil
		})
		done <- err
	}()
	<-inDeliver

	resp, err := cl.Get(ts.URL + "/v1/collections/busy/consumers/a/drain")
	if err != nil {
		t.Fatal(err)
	}
	var envelope struct {
		Error struct {
			Code    string `json:"code"`
			Message string `json:"message"`
		} `json:"error"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&envelope); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("drain of the held group answered %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("busy answer carries no Retry-After header")
	}
	if envelope.Error.Code != string(codeDrainBusy) {
		t.Errorf("busy answer code %q, want %q", envelope.Error.Code, codeDrainBusy)
	}

	// Group b is untouched by a's in-flight delivery.
	var batch struct {
		Count int `json:"count"`
	}
	if code := doJSON(t, cl, "GET", ts.URL+"/v1/collections/busy/consumers/b/drain", nil, "", &batch); code != 200 {
		t.Fatalf("drain of the other group answered %d, want 200", code)
	}
	if batch.Count != c.PairCount() {
		t.Errorf("group b drained %d pairs, want the full %d", batch.Count, c.PairCount())
	}

	close(release)
	if err := <-done; err != nil {
		t.Fatalf("held drain failed: %v", err)
	}
}

// TestConsumerHTTP drives the consumer routes end to end: create, list,
// stats, peek, drain, ack, error envelope, delete.
func TestConsumerHTTP(t *testing.T) {
	_, rows := coraFixture(t, 100)
	s, err := New()
	if err != nil {
		t.Fatal(err)
	}
	c, err := s.Create(baseSpec("api", 2))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Ingest(rows); err != nil {
		t.Fatal(err)
	}
	total := c.PairCount()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	cl := ts.Client()
	base := ts.URL + "/v1/collections/api/consumers"

	var created ConsumerStats
	if code := doJSON(t, cl, "POST", base, strings.NewReader(`{"group":"etl"}`), "application/json", &created); code != 201 {
		t.Fatalf("create consumer status %d", code)
	}
	if created.Group != "etl" || created.Pending != total {
		t.Fatalf("created %+v, want etl with %d pending", created, total)
	}
	if code := doJSON(t, cl, "POST", base, strings.NewReader(`{"group":"etl"}`), "application/json", nil); code != 409 {
		t.Errorf("duplicate consumer status %d, want 409", code)
	}
	if code := doJSON(t, cl, "POST", base, strings.NewReader(`{"group":"x","from":"middle"}`), "application/json", nil); code != 400 {
		t.Errorf("bad from status %d, want 400", code)
	}

	var listed struct {
		Consumers []ConsumerStats `json:"consumers"`
	}
	if code := doJSON(t, cl, "GET", base, nil, "", &listed); code != 200 || len(listed.Consumers) != 2 {
		t.Fatalf("list status %d with %d groups, want 200 with 2", code, len(listed.Consumers))
	}

	// The error envelope is the one shape for every failure.
	var envelope struct {
		Error struct {
			Code    string `json:"code"`
			Message string `json:"message"`
			TraceID string `json:"trace_id"`
		} `json:"error"`
	}
	if code := doJSON(t, cl, "GET", base+"/ghost", nil, "", &envelope); code != 404 {
		t.Fatalf("unknown consumer status %d, want 404", code)
	}
	if envelope.Error.Code != string(codeUnknownConsumer) || envelope.Error.Message == "" {
		t.Errorf("unknown-consumer envelope %+v", envelope.Error)
	}
	if envelope.Error.TraceID == "" {
		t.Error("error envelope carries no trace_id")
	}

	// Peek, then a destructive drain, then an explicit ack replay.
	var peeked struct {
		Count  int `json:"count"`
		Cursor int `json:"cursor"`
	}
	if code := doJSON(t, cl, "GET", base+"/etl/drain?peek=true", nil, "", &peeked); code != 200 {
		t.Fatalf("peek status %d", code)
	}
	if peeked.Count != total || peeked.Cursor != 0 {
		t.Fatalf("peek saw %+v, want %d pairs at cursor 0", peeked, total)
	}
	var drained struct {
		Count int `json:"count"`
		Next  int `json:"next_cursor"`
	}
	if code := doJSON(t, cl, "GET", base+"/etl/drain", nil, "", &drained); code != 200 {
		t.Fatalf("drain status %d", code)
	}
	if drained.Count != total || drained.Next != total {
		t.Fatalf("drain %+v, want all %d pairs", drained, total)
	}
	var acked ConsumerStats
	if code := doJSON(t, cl, "POST", base+"/etl/ack", strings.NewReader(`{"cursor":1}`), "application/json", &acked); code != 200 {
		t.Fatalf("ack status %d", code)
	}
	if acked.Cursor != total {
		t.Errorf("stale ack moved the cursor to %d, want the monotonic %d", acked.Cursor, total)
	}
	if code := doJSON(t, cl, "POST", base+"/etl/ack", strings.NewReader(fmt.Sprintf(`{"cursor":%d}`, total+5)), "application/json", &envelope); code != 400 {
		t.Errorf("over-ack status %d, want 400", code)
	}
	if envelope.Error.Code != string(codeCursorOutOfRange) {
		t.Errorf("over-ack code %q, want %q", envelope.Error.Code, codeCursorOutOfRange)
	}

	// An empty long-poll answers the empty batch after the wait.
	var empty struct {
		Count int `json:"count"`
	}
	if code := doJSON(t, cl, "GET", base+"/etl/drain?wait=50ms", nil, "", &empty); code != 200 || empty.Count != 0 {
		t.Fatalf("empty long-poll status %d count %d, want 200 with 0", code, empty.Count)
	}

	if code := doJSON(t, cl, "DELETE", base+"/etl", nil, "", nil); code != 200 {
		t.Fatalf("delete consumer status %d", code)
	}
	if code := doJSON(t, cl, "DELETE", base+"/default", nil, "", &envelope); code != 409 {
		t.Errorf("delete default status %d, want 409", code)
	}
	if envelope.Error.Code != string(codeConsumerProtected) {
		t.Errorf("delete default code %q, want %q", envelope.Error.Code, codeConsumerProtected)
	}
}

// readSSEEvent scans one "event:"/"data:" frame off an SSE stream,
// skipping keepalive comments.
func readSSEEvent(t *testing.T, br *bufio.Reader) (event string, data []byte) {
	t.Helper()
	for {
		line, err := br.ReadString('\n')
		if err != nil {
			t.Fatalf("read SSE stream: %v", err)
		}
		line = strings.TrimRight(line, "\n")
		switch {
		case strings.HasPrefix(line, "event: "):
			event = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			data = []byte(strings.TrimPrefix(line, "data: "))
		case line == "" && event != "":
			return event, data
		}
	}
}

// TestConsumerStreamSSE subscribes a group over SSE and checks the cursor
// handshake, delivery of the backlog, and delivery of pairs ingested while
// the stream is connected.
func TestConsumerStreamSSE(t *testing.T) {
	_, rows := coraFixture(t, 120)
	s, err := New()
	if err != nil {
		t.Fatal(err)
	}
	c, err := s.Create(baseSpec("sse", 2))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Ingest(rows[:60]); err != nil {
		t.Fatal(err)
	}
	if _, err := c.CreateConsumer("live", false); err != nil {
		t.Fatal(err)
	}
	backlog := c.PairCount()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, "GET", ts.URL+"/v1/collections/sse/consumers/live/stream", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 || !strings.HasPrefix(resp.Header.Get("Content-Type"), "text/event-stream") {
		t.Fatalf("stream answered %d %q", resp.StatusCode, resp.Header.Get("Content-Type"))
	}
	br := bufio.NewReader(resp.Body)

	event, data := readSSEEvent(t, br)
	var hello struct {
		Cursor int `json:"cursor"`
	}
	if err := json.Unmarshal(data, &hello); err != nil || event != "cursor" {
		t.Fatalf("handshake event %q %s (%v)", event, data, err)
	}
	if hello.Cursor != 0 {
		t.Fatalf("handshake cursor %d, want 0", hello.Cursor)
	}

	seen := 0
	var batch struct {
		Count int `json:"count"`
		Next  int `json:"next_cursor"`
	}
	for seen < backlog {
		event, data = readSSEEvent(t, br)
		if event != "pairs" {
			t.Fatalf("expected a pairs event, got %q", event)
		}
		if err := json.Unmarshal(data, &batch); err != nil {
			t.Fatal(err)
		}
		seen += batch.Count
	}
	if seen != backlog || batch.Next != backlog {
		t.Fatalf("backlog delivered %d pairs to cursor %d, want %d", seen, batch.Next, backlog)
	}

	// While the stream holds the slot, a manual drain of the same group is
	// busy — the per-group slot, not a global one.
	if _, err := c.DrainConsumer("live", func(ConsumerBatch) error { return nil }); !errors.Is(err, ErrDrainBusy) {
		t.Errorf("drain during stream returned %v, want ErrDrainBusy", err)
	}

	// Pairs ingested mid-stream arrive without reconnecting.
	if _, err := c.Ingest(rows[60:]); err != nil {
		t.Fatal(err)
	}
	grown := c.PairCount()
	for seen < grown {
		event, data = readSSEEvent(t, br)
		if event != "pairs" {
			t.Fatalf("expected a pairs event, got %q", event)
		}
		if err := json.Unmarshal(data, &batch); err != nil {
			t.Fatal(err)
		}
		seen += batch.Count
	}
	if seen != grown {
		t.Fatalf("stream delivered %d pairs, want %d", seen, grown)
	}
	cancel() // hang up; the server releases the slot

	// The stream acknowledged everything it wrote: the cursor is durable at
	// the tip once the server notices the hangup.
	deadline := time.Now().Add(5 * time.Second)
	for {
		st, err := c.ConsumerStat("live")
		if err != nil {
			t.Fatal(err)
		}
		if st.Cursor == grown && st.Inflight == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("stream left the group at %+v, want cursor %d", st, grown)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestLegacyCandidatesIsDefaultGroup pins the compatibility contract: the
// legacy GET /candidates drain IS the default consumer group — the same
// handler as consumers/default/drain — so its response shape is a superset
// of the old one, ?peek works on it, busy answers go through the shared
// error path, and its cursor shows up in the group listing.
func TestLegacyCandidatesIsDefaultGroup(t *testing.T) {
	_, rows := coraFixture(t, 120)
	s, err := New()
	if err != nil {
		t.Fatal(err)
	}
	c, err := s.Create(baseSpec("legacy", 2))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Ingest(rows[:80]); err != nil {
		t.Fatal(err)
	}
	total := c.PairCount()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	cl := ts.Client()
	candidates := ts.URL + "/v1/collections/legacy/candidates"

	// A peek on the legacy route reads the window and moves nothing.
	var peeked struct {
		Pairs [][2]record.ID `json:"pairs"`
	}
	if code := doJSON(t, cl, "GET", candidates+"?peek=true", nil, "", &peeked); code != 200 {
		t.Fatalf("candidates peek status %d", code)
	}
	if len(peeked.Pairs) != total {
		t.Fatalf("peek returned %d pairs, want %d", len(peeked.Pairs), total)
	}
	var cs ConsumerStats
	if code := doJSON(t, cl, "GET", ts.URL+"/v1/collections/legacy/consumers/default", nil, "", &cs); code != 200 {
		t.Fatalf("consumers/default status %d", code)
	}
	if cs.Cursor != 0 {
		t.Fatalf("peek on /candidates moved the default cursor to %d", cs.Cursor)
	}

	var got struct {
		Pairs        [][2]record.ID `json:"pairs"`
		Count        int            `json:"count"`
		EmittedTotal int            `json:"emitted_total"`
		Cursor       *int           `json:"cursor"`
		NextCursor   *int           `json:"next_cursor"`
	}
	if code := doJSON(t, cl, "GET", candidates, nil, "", &got); code != 200 {
		t.Fatalf("candidates status %d", code)
	}
	if got.Count != total || len(got.Pairs) != total || got.EmittedTotal != total {
		t.Fatalf("legacy drain %d/%d pairs of %d emitted, want all", got.Count, len(got.Pairs), got.EmittedTotal)
	}
	if !reflect.DeepEqual(got.Pairs, peeked.Pairs) {
		t.Fatal("the destructive drain returned different pairs than the peek before it")
	}
	if got.Cursor == nil || got.NextCursor == nil || *got.Cursor != 0 || *got.NextCursor != total {
		t.Fatalf("legacy drain cursor/next_cursor = %v/%v, want 0/%d", got.Cursor, got.NextCursor, total)
	}
	st, err := c.ConsumerStat(DefaultConsumer)
	if err != nil {
		t.Fatal(err)
	}
	if st.Cursor != total || st.Pending != 0 {
		t.Fatalf("default group after the legacy drain: %+v, want cursor %d", st, total)
	}

	// An empty drain still encodes an array, never null.
	resp, err := cl.Get(candidates)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(raw, []byte(`"pairs":[]`)) || !bytes.Contains(raw, []byte(`"count":0`)) {
		t.Fatalf("empty legacy drain body %s, want \"pairs\":[] and \"count\":0", raw)
	}

	// While a delivery of the default group is parked, /candidates answers
	// through the shared consumer error path: 503 drain_busy + Retry-After.
	if _, err := c.Ingest(rows[80:]); err != nil {
		t.Fatal(err)
	}
	if c.PairCount() == total {
		t.Fatal("second ingest emitted nothing; fixture too small")
	}
	inDeliver := make(chan struct{})
	release := make(chan struct{})
	done := make(chan error, 1)
	go func() {
		_, err := c.DrainConsumer(DefaultConsumer, func(ConsumerBatch) error {
			close(inDeliver)
			<-release
			return nil
		})
		done <- err
	}()
	<-inDeliver
	resp, err = cl.Get(candidates)
	if err != nil {
		t.Fatal(err)
	}
	var envelope struct {
		Error struct {
			Code string `json:"code"`
		} `json:"error"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&envelope); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable || resp.Header.Get("Retry-After") == "" ||
		envelope.Error.Code != string(codeDrainBusy) {
		t.Fatalf("busy /candidates answered %d (Retry-After %q, code %q), want 503 %s",
			resp.StatusCode, resp.Header.Get("Retry-After"), envelope.Error.Code, codeDrainBusy)
	}
	close(release)
	if err := <-done; err != nil {
		t.Fatalf("parked drain failed: %v", err)
	}
}

// TestWaitPendingHonoursEitherStop pins WaitPending's fixed arity: either
// stop channel ends the wait, a nil one never fires (the deadline does), and
// an emission wakes it with pairs pending.
func TestWaitPendingHonoursEitherStop(t *testing.T) {
	_, rows := coraFixture(t, 80)
	c, err := newCollection(baseSpec("wait", 2))
	if err != nil {
		t.Fatal(err)
	}
	closed := make(chan struct{})
	close(closed)
	open := make(chan struct{})
	for name, stops := range map[string][2]<-chan struct{}{
		"first stop":  {closed, open},
		"second stop": {open, closed},
	} {
		start := time.Now()
		ok, err := c.WaitPending(DefaultConsumer, time.Minute, stops[0], stops[1])
		if err != nil || ok {
			t.Fatalf("%s: WaitPending = %v, %v; want false, nil", name, ok, err)
		}
		if time.Since(start) > 30*time.Second {
			t.Fatalf("%s: the stop channel was ignored until the deadline", name)
		}
	}
	if ok, err := c.WaitPending(DefaultConsumer, 20*time.Millisecond, open, nil); err != nil || ok {
		t.Fatalf("nil second stop + deadline: WaitPending = %v, %v; want false, nil", ok, err)
	}
	woken := make(chan bool, 1)
	go func() {
		ok, _ := c.WaitPending(DefaultConsumer, time.Minute, open, nil)
		woken <- ok
	}()
	if _, err := c.Ingest(rows); err != nil {
		t.Fatal(err)
	}
	if c.PairCount() == 0 {
		t.Fatal("nothing emitted; fixture too small")
	}
	if ok := <-woken; !ok {
		t.Fatal("an emission did not wake WaitPending with pairs pending")
	}
}

// failingWriter is a ResponseWriter whose body writes die, as a client
// hanging up mid-response does.
type failingWriter struct {
	header   http.Header
	statuses []int
}

func (w *failingWriter) Header() http.Header       { return w.header }
func (w *failingWriter) WriteHeader(code int)      { w.statuses = append(w.statuses, code) }
func (w *failingWriter) Write([]byte) (int, error) { return 0, errors.New("connection reset") }

// TestDrainFailedWriteRequeues pins the HTTP half of acknowledged delivery:
// when the drain response write dies, the cursor does not move, the pairs
// come back on the next drain, and the handler does not stack an error
// envelope on top of the headers it already sent.
func TestDrainFailedWriteRequeues(t *testing.T) {
	_, rows := coraFixture(t, 80)
	s, err := New()
	if err != nil {
		t.Fatal(err)
	}
	c, err := s.Create(baseSpec("deadwrite", 2))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Ingest(rows); err != nil {
		t.Fatal(err)
	}
	w := &failingWriter{header: http.Header{}}
	s.Handler().ServeHTTP(w, httptest.NewRequest("GET", "/v1/collections/deadwrite/candidates", nil))
	if len(w.statuses) != 1 || w.statuses[0] != http.StatusOK {
		t.Fatalf("failed write produced statuses %v, want the one 200 already sent", w.statuses)
	}
	st, err := c.ConsumerStat(DefaultConsumer)
	if err != nil {
		t.Fatal(err)
	}
	if st.Cursor != 0 || st.Inflight != 0 || st.Pending != c.PairCount() {
		t.Fatalf("after the failed write: %+v, want every pair pending again", st)
	}
	if got := len(c.Candidates()); got != c.PairCount() {
		t.Fatalf("next drain delivered %d pairs, want all %d", got, c.PairCount())
	}
}
