package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"time"

	"semblock/internal/obs"
	"semblock/internal/record"
	"semblock/internal/stream"
)

// Handler returns the server's HTTP API:
//
//	GET    /healthz                            liveness probe
//	GET    /metrics                            Prometheus text counters
//	POST   /v1/collections                     create (body: CollectionSpec)
//	GET    /v1/collections                     list collection names
//	GET    /v1/collections/{name}              collection stats
//	DELETE /v1/collections/{name}              drop collection (+ data)
//	POST   /v1/collections/{name}/records      ingest: one JSON row, a JSON
//	                                           array of rows, or JSONL bulk
//	                                           (Content-Type: application/x-ndjson)
//	GET    /v1/collections/{name}/candidates   alias of consumers/default/drain
//	                                           (same handler, ?peek and ?wait too)
//	GET    /v1/collections/{name}/snapshot     batch-parity block collection
//	POST   /v1/collections/{name}/resolve      pruning+matching pipeline run
//	POST   /v1/collections/{name}/checkpoint   force a persistence checkpoint
//	POST   /v1/collections/{name}/compact      compact the segment chain
//	GET    /debug/traces                       recent request traces (JSON)
//
// Consumer groups (named durable cursors, see consumer.go) and push
// delivery:
//
//	POST   /v1/collections/{name}/consumers                    create group
//	                                           (body: {"group","from":"start|end"})
//	GET    /v1/collections/{name}/consumers                    list groups
//	GET    /v1/collections/{name}/consumers/{group}            group stats
//	DELETE /v1/collections/{name}/consumers/{group}            delete group
//	GET    /v1/collections/{name}/consumers/{group}/drain      drain the group
//	                                           (?peek=true non-destructive,
//	                                           ?wait=5s long-poll)
//	POST   /v1/collections/{name}/consumers/{group}/ack        commit a cursor
//	                                           (body: {"cursor":N})
//	GET    /v1/collections/{name}/consumers/{group}/stream     SSE pair stream
//	PUT    /v1/collections/{name}/consumers/{group}/webhook    register sink
//	                                           (body: WebhookSpec)
//	DELETE /v1/collections/{name}/consumers/{group}/webhook    remove sink
//
// A row is {"entity":ID,"attrs":{...}} — the same wire format as
// record.ReadJSONL/WriteJSONL, so a dataset file can be POSTed verbatim.
// Rows are accepted exactly as encoding/json would accept them (one
// decoder, record.DecodeRows/ScanJSONL, fuzzed against it), and an ingest
// body is capped at 64 MiB (maxIngestBytes): a larger one answers 413
// payload_too_large and ingests nothing.
//
// Every error response uses one JSON envelope,
//
//	{"error": {"code": "<stable machine code>", "message": "...", "trace_id": "..."}}
//
// with the codes listed at apiCode below; trace_id is present whenever the
// request carries a trace.
//
// Every route runs through the instrumentation middleware: the request gets
// a trace (ID echoed in the X-Semblock-Trace header and, for /resolve and
// /candidates, a trace_id response field), its latency is observed into
// semblock_http_request_duration_seconds{route,code}, error statuses feed
// the 4xx/5xx counters, and — when the server has a logger — a structured
// request line is emitted (WARN with a span breakdown past the slow-request
// threshold).
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	handle := func(pattern string, h http.HandlerFunc) {
		mux.HandleFunc(pattern, s.instrument(pattern, h))
	}
	handle("GET /healthz", s.handleHealthz)
	handle("GET /metrics", s.handleMetrics)
	handle("GET /debug/traces", s.handleTraces)
	handle("POST /v1/collections", s.handleCreate)
	handle("GET /v1/collections", s.handleList)
	handle("GET /v1/collections/{name}", s.withCollection(s.handleStats))
	handle("DELETE /v1/collections/{name}", s.handleDelete)
	handle("POST /v1/collections/{name}/records", s.withCollection(s.handleIngest))
	handle("GET /v1/collections/{name}/candidates", s.withCollection(s.handleConsumerDrain))
	handle("GET /v1/collections/{name}/snapshot", s.withCollection(s.handleSnapshot))
	handle("POST /v1/collections/{name}/resolve", s.withCollection(s.handleResolve))
	handle("POST /v1/collections/{name}/checkpoint", s.withCollection(s.handleCheckpoint))
	handle("POST /v1/collections/{name}/compact", s.withCollection(s.handleCompact))
	handle("POST /v1/collections/{name}/consumers", s.withCollection(s.handleConsumerCreate))
	handle("GET /v1/collections/{name}/consumers", s.withCollection(s.handleConsumerList))
	handle("GET /v1/collections/{name}/consumers/{group}", s.withCollection(s.handleConsumerGet))
	handle("DELETE /v1/collections/{name}/consumers/{group}", s.withCollection(s.handleConsumerDelete))
	handle("GET /v1/collections/{name}/consumers/{group}/drain", s.withCollection(s.handleConsumerDrain))
	handle("POST /v1/collections/{name}/consumers/{group}/ack", s.withCollection(s.handleConsumerAck))
	handle("GET /v1/collections/{name}/consumers/{group}/stream", s.withCollection(s.handleConsumerStream))
	handle("PUT /v1/collections/{name}/consumers/{group}/webhook", s.withCollection(s.handleWebhookPut))
	handle("DELETE /v1/collections/{name}/consumers/{group}/webhook", s.withCollection(s.handleWebhookDelete))
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		s.metrics.requests.Add(1)
		mux.ServeHTTP(w, r)
	})
}

// statusRecorder captures the response status for the instrumentation
// middleware (200 when the handler never calls WriteHeader explicitly).
type statusRecorder struct {
	http.ResponseWriter
	status int
}

func (r *statusRecorder) WriteHeader(code int) {
	r.status = code
	r.ResponseWriter.WriteHeader(code)
}

// Flush forwards to the underlying writer so SSE streaming works through
// the instrumentation middleware (a no-op when the transport cannot flush;
// the stream handler probes the capability itself).
func (r *statusRecorder) Flush() {
	if f, ok := r.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// instrument wraps one route's handler with tracing, latency observation,
// status-class error counting and structured request logging. route is the
// registered mux pattern — the {route} label of
// semblock_http_request_duration_seconds, bounded by the route table (never
// the raw URL, which would explode the label cardinality).
func (s *Server) instrument(route string, h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		ctx, tr := s.tracer.StartTrace(r.Context(), route)
		if tr != nil {
			w.Header().Set("X-Semblock-Trace", tr.ID())
			r = r.WithContext(ctx)
		}
		rec := statusRecorder{ResponseWriter: w, status: http.StatusOK}
		h(&rec, r)
		dur := time.Since(start)
		s.tracer.Finish(tr)
		s.metrics.httpDur.With(route, strconv.Itoa(rec.status)).Observe(dur)
		switch {
		case rec.status >= 500:
			s.metrics.errors5xx.Add(1)
		case rec.status >= 400:
			s.metrics.errors4xx.Add(1)
		}
		if s.logger == nil {
			return
		}
		attrs := make([]any, 0, 12)
		attrs = append(attrs,
			"route", route,
			"code", rec.status,
			"duration_ms", float64(dur)/float64(time.Millisecond))
		if name := r.PathValue("name"); name != "" {
			attrs = append(attrs, "collection", name)
		}
		if id := tr.ID(); id != "" {
			attrs = append(attrs, "trace_id", id)
		}
		if s.slowReq > 0 && dur >= s.slowReq {
			attrs = append(attrs, "spans", spanBreakdown(tr))
			s.logger.Warn("slow request", attrs...)
			return
		}
		s.logger.Info("request", attrs...)
	}
}

// spanBreakdown renders a trace's spans as "stage=duration" pairs for the
// slow-request log line ("" without a trace or spans).
func spanBreakdown(tr *obs.Trace) string {
	var b strings.Builder
	for i, sp := range tr.Spans() {
		if i > 0 {
			b.WriteByte(' ')
		}
		fmt.Fprintf(&b, "%s=%s", sp.Name, time.Duration(sp.DurNS))
		if sp.Truncated {
			b.WriteString("(truncated)")
		}
	}
	return b.String()
}

// handleTraces serves the tracer's ring buffer of recently completed
// request traces, newest first.
func (s *Server) handleTraces(w http.ResponseWriter, _ *http.Request) {
	traces := s.tracer.Traces()
	if traces == nil {
		traces = []obs.TraceRecord{}
	}
	s.writeJSON(w, http.StatusOK, map[string]any{"traces": traces, "count": len(traces)})
}

// withCollection resolves the {name} path value or answers 404.
func (s *Server) withCollection(h func(http.ResponseWriter, *http.Request, *Collection)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		name := r.PathValue("name")
		c, ok := s.Collection(name)
		if !ok {
			s.httpError(w, r, http.StatusNotFound, codeUnknownCollection, fmt.Errorf("no collection %q", name))
			return
		}
		h(w, r, c)
	}
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	s.writeJSON(w, http.StatusOK, map[string]any{"status": "ok", "collections": len(s.List())})
}

func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	s.writeMetrics(w)
}

func (s *Server) handleCreate(w http.ResponseWriter, r *http.Request) {
	var spec CollectionSpec
	if err := json.NewDecoder(r.Body).Decode(&spec); err != nil {
		s.httpError(w, r, http.StatusBadRequest, codeInvalidRequest, fmt.Errorf("parse spec: %w", err))
		return
	}
	c, err := s.Create(spec)
	if err != nil {
		status, code := http.StatusBadRequest, codeInvalidRequest
		switch {
		case errors.Is(err, ErrExists):
			status, code = http.StatusConflict, codeCollectionExists
		case errors.Is(err, ErrPersist):
			status, code = http.StatusInternalServerError, codePersistFailed
		}
		s.httpError(w, r, status, code, err)
		return
	}
	s.writeJSON(w, http.StatusCreated, c.Stats())
}

func (s *Server) handleList(w http.ResponseWriter, _ *http.Request) {
	s.writeJSON(w, http.StatusOK, map[string]any{"collections": s.List()})
}

func (s *Server) handleStats(w http.ResponseWriter, _ *http.Request, c *Collection) {
	s.writeJSON(w, http.StatusOK, c.Stats())
}

func (s *Server) handleDelete(w http.ResponseWriter, r *http.Request) {
	if err := s.Delete(r.PathValue("name")); err != nil {
		status, code := http.StatusInternalServerError, codeInternal
		if errors.Is(err, ErrNotFound) {
			status, code = http.StatusNotFound, codeUnknownCollection
		}
		s.httpError(w, r, status, code, err)
		return
	}
	s.writeJSON(w, http.StatusOK, map[string]any{"deleted": r.PathValue("name")})
}

// maxIngestBytes caps one ingest request body: about 300× the largest body
// the benchmark workloads send, and small enough that a runaway client
// cannot make one request hold unbounded memory.
const maxIngestBytes = 64 << 20

// handleIngest accepts a single row object, a JSON array of rows, or — for
// bulk loads — a JSONL body (Content-Type application/x-ndjson or
// application/jsonl). Both go through the record package's row decoder
// (record.DecodeRows, record.ScanJSONL — the readers segment restore uses
// too), which accepts rows exactly as encoding/json would. A body over
// maxIngestBytes answers 413 payload_too_large; any rejected body ingests
// nothing.
func (s *Server) handleIngest(w http.ResponseWriter, r *http.Request, c *Collection) {
	if r.ContentLength > maxIngestBytes {
		s.httpError(w, r, http.StatusRequestEntityTooLarge, codePayloadTooLarge,
			fmt.Errorf("body of %d bytes exceeds the %d-byte ingest limit", r.ContentLength, maxIngestBytes))
		return
	}
	body := http.MaxBytesReader(w, r.Body, maxIngestBytes)
	var rows []stream.Row
	add := func(entity record.EntityID, attrs map[string]string) {
		rows = append(rows, stream.Row{Entity: entity, Attrs: attrs})
	}
	var err error
	ct := r.Header.Get("Content-Type")
	if strings.Contains(ct, "ndjson") || strings.Contains(ct, "jsonl") {
		err = record.ScanJSONL(body, add)
	} else {
		var buf bytes.Buffer
		if r.ContentLength > 0 {
			buf.Grow(int(r.ContentLength) + bytes.MinRead) // one read to EOF, no regrowth
		}
		if _, err = buf.ReadFrom(body); err == nil {
			err = record.DecodeRows(buf.Bytes(), add)
		}
	}
	if err != nil {
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			s.httpError(w, r, http.StatusRequestEntityTooLarge, codePayloadTooLarge,
				fmt.Errorf("body exceeds the %d-byte ingest limit", maxIngestBytes))
			return
		}
		s.httpError(w, r, http.StatusBadRequest, codeInvalidRequest, err)
		return
	}
	ingestStart := time.Now()
	ids, err := c.Ingest(rows)
	if err != nil {
		s.httpError(w, r, http.StatusInternalServerError, codeInternal, err)
		return
	}
	s.metrics.ingestDur.Observe(time.Since(ingestStart))
	s.metrics.ingestBatches.Add(1)
	s.metrics.ingestedRecords.Add(int64(len(ids)))
	if ids == nil {
		ids = []record.ID{} // an empty batch answers "ids": [], never null
	}
	s.writeJSON(w, http.StatusOK, map[string]any{"ids": ids, "count": len(ids)})
}

func (s *Server) handleSnapshot(w http.ResponseWriter, _ *http.Request, c *Collection) {
	s.metrics.snapshotQueries.Add(1)
	res := c.Snapshot()
	s.writeJSON(w, http.StatusOK, map[string]any{
		"technique":      res.Technique,
		"records":        c.Len(),
		"num_blocks":     res.NumBlocks(),
		"max_block_size": res.MaxBlockSize(),
		"comparisons":    res.Comparisons(),
		"blocks":         res.Blocks,
	})
}

func (s *Server) handleResolve(w http.ResponseWriter, r *http.Request, c *Collection) {
	var req ResolveRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		s.httpError(w, r, http.StatusBadRequest, codeInvalidRequest, fmt.Errorf("parse resolve request: %w", err))
		return
	}
	// The deadline rides the request context, so a tripped deadline (or the
	// client going away) truncates the matching stage at the next batch
	// boundary: the response is a well-formed best-first prefix of the full
	// resolution, never a 500 or a hung handler.
	ctx := r.Context()
	if req.DeadlineMS > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, time.Duration(req.DeadlineMS)*time.Millisecond)
		defer cancel()
	}
	res, err := c.ResolveContext(ctx, req)
	if err != nil {
		s.httpError(w, r, http.StatusBadRequest, codeInvalidRequest, err)
		return
	}
	s.metrics.resolveRuns.Add(1)
	matches := make([]map[string]any, len(res.Matches))
	for i, m := range res.Matches {
		matches[i] = map[string]any{"left": m.Pair.Left(), "right": m.Pair.Right(), "score": m.Score}
	}
	out := map[string]any{
		"technique":          res.Blocks.Technique,
		"records":            res.Stats.Records,
		"blocks":             res.Stats.Blocks,
		"comparisons":        res.Stats.Comparisons,
		"pruned_comparisons": res.Stats.PrunedComparisons,
		"pairs_scored":       res.Stats.PairsScored,
		"comparisons_used":   res.Stats.ComparisonsUsed,
		"budget_truncated":   res.Stats.Truncated,
		"matches":            matches,
		"num_matches":        len(matches),
	}
	if res.Resolution != nil {
		out["num_clusters"] = res.Resolution.NumClusters
	}
	if id := obs.From(ctx).ID(); id != "" {
		out["trace_id"] = id
	}
	s.writeJSON(w, http.StatusOK, out)
}

func (s *Server) handleCheckpoint(w http.ResponseWriter, r *http.Request, c *Collection) {
	if s.dataDir == "" {
		s.httpError(w, r, http.StatusConflict, codeNoDataDir, fmt.Errorf("server has no data dir; start with -data-dir to enable persistence"))
		return
	}
	if err := s.saveCollection(c); err != nil {
		s.httpError(w, r, http.StatusInternalServerError, codePersistFailed, err)
		return
	}
	s.writeJSON(w, http.StatusOK, c.Stats())
}

// handleCompact rewrites the collection's on-disk segment chain as one
// compacted generation (subsuming a checkpoint) and reports the result plus
// the post-compaction stats. Compaction is idempotent from the client's
// point of view: repeating it only burns a generation number.
func (s *Server) handleCompact(w http.ResponseWriter, r *http.Request, c *Collection) {
	if s.dataDir == "" {
		s.httpError(w, r, http.StatusConflict, codeNoDataDir, fmt.Errorf("server has no data dir; start with -data-dir to enable persistence"))
		return
	}
	res, err := s.CompactCollection(c)
	if err != nil {
		status, code := http.StatusInternalServerError, codePersistFailed
		if errors.Is(err, ErrNotFound) {
			status, code = http.StatusNotFound, codeUnknownCollection
		}
		s.httpError(w, r, status, code, err)
		return
	}
	s.writeJSON(w, http.StatusOK, map[string]any{"compaction": res, "stats": c.Stats()})
}

// writeJSON renders a JSON response. The returned error reports a write
// that died mid-stream (headers are gone by then, so it cannot change the
// status); most handlers ignore it, the destructive drains use it to leave
// the cursor unmoved.
func (s *Server) writeJSON(w http.ResponseWriter, status int, v any) error {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	return json.NewEncoder(w).Encode(v)
}

// apiCode is a stable machine-readable error code: the contract clients
// switch on, independent of error-message wording and HTTP-status reuse.
type apiCode string

const (
	codeInvalidRequest       apiCode = "invalid_request"       // 400: malformed body, params or spec
	codeCursorOutOfRange     apiCode = "cursor_out_of_range"   // 400: ack beyond the emitted sequence
	codeUnknownCollection    apiCode = "unknown_collection"    // 404
	codeUnknownConsumer      apiCode = "unknown_consumer"      // 404
	codeCollectionExists     apiCode = "collection_exists"     // 409
	codeConsumerExists       apiCode = "consumer_exists"       // 409
	codeConsumerProtected    apiCode = "consumer_protected"    // 409: default group cannot be deleted
	codeNoDataDir            apiCode = "no_data_dir"           // 409: persistence op without -data-dir
	codePayloadTooLarge      apiCode = "payload_too_large"     // 413: ingest body over maxIngestBytes
	codeDrainBusy            apiCode = "drain_busy"            // 503 + Retry-After: the group's delivery slot is taken
	codePersistFailed        apiCode = "persist_failed"        // 500
	codeStreamingUnsupported apiCode = "streaming_unsupported" // 500: transport cannot flush SSE
	codeInternal             apiCode = "internal"              // 500
)

// httpError renders the error envelope
// {"error": {"code", "message", "trace_id"}} and counts it.
func (s *Server) httpError(w http.ResponseWriter, r *http.Request, status int, code apiCode, err error) {
	s.metrics.errors.Add(1)
	body := map[string]any{"code": code, "message": err.Error()}
	if r != nil {
		if id := obs.From(r.Context()).ID(); id != "" {
			body["trace_id"] = id
		}
	}
	s.writeJSON(w, status, map[string]any{"error": body})
}

// consumerError maps the consumer-group sentinel errors onto the envelope.
// Busy answers carry Retry-After: the slot holder is mid-delivery, so the
// pairs a retry would want are spoken for right now but not for long.
func (s *Server) consumerError(w http.ResponseWriter, r *http.Request, err error) {
	switch {
	case errors.Is(err, ErrUnknownConsumer):
		s.httpError(w, r, http.StatusNotFound, codeUnknownConsumer, err)
	case errors.Is(err, ErrConsumerExists):
		s.httpError(w, r, http.StatusConflict, codeConsumerExists, err)
	case errors.Is(err, ErrConsumerProtected):
		s.httpError(w, r, http.StatusConflict, codeConsumerProtected, err)
	case errors.Is(err, ErrDrainBusy):
		w.Header().Set("Retry-After", "1")
		s.httpError(w, r, http.StatusServiceUnavailable, codeDrainBusy, err)
	case errors.Is(err, ErrCursorOutOfRange):
		s.httpError(w, r, http.StatusBadRequest, codeCursorOutOfRange, err)
	default:
		s.httpError(w, r, http.StatusInternalServerError, codeInternal, err)
	}
}

// wirePairs renders pairs in the wire's [[left,right],...] shape — the one
// encoder behind the drain body, the SSE frame and the webhook payload. The
// result is never nil, so an empty window encodes "pairs": [].
func wirePairs(pairs []record.Pair) [][2]record.ID {
	out := make([][2]record.ID, len(pairs))
	for i, p := range pairs {
		out[i] = [2]record.ID{p.Left(), p.Right()}
	}
	return out
}

// consumerBatchBody renders one drained batch as the drain/stream wire shape.
func consumerBatchBody(b ConsumerBatch, traceID string) map[string]any {
	body := map[string]any{
		"group": b.Group, "pairs": wirePairs(b.Pairs), "count": len(b.Pairs),
		"cursor": b.Cursor, "next_cursor": b.Next, "emitted_total": b.Total,
	}
	if traceID != "" {
		body["trace_id"] = traceID
	}
	return body
}

// writeSSE renders one server-sent event frame (the caller flushes).
func writeSSE(w io.Writer, event string, v any) error {
	data, err := json.Marshal(v)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "event: %s\ndata: %s\n\n", event, data)
	return err
}

// handleConsumerCreate registers a named consumer group. "from" picks the
// starting cursor: "start" (default) replays the full emitted sequence,
// "end" subscribes to new pairs only.
func (s *Server) handleConsumerCreate(w http.ResponseWriter, r *http.Request, c *Collection) {
	var req struct {
		Group string `json:"group"`
		From  string `json:"from"`
	}
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		s.httpError(w, r, http.StatusBadRequest, codeInvalidRequest, fmt.Errorf("parse consumer request: %w", err))
		return
	}
	if req.From != "" && req.From != "start" && req.From != "end" {
		s.httpError(w, r, http.StatusBadRequest, codeInvalidRequest,
			fmt.Errorf(`"from" must be "start" or "end", got %q`, req.From))
		return
	}
	st, err := c.CreateConsumer(req.Group, req.From == "end")
	if err != nil {
		if errors.Is(err, ErrConsumerExists) {
			s.consumerError(w, r, err)
		} else {
			s.httpError(w, r, http.StatusBadRequest, codeInvalidRequest, err)
		}
		return
	}
	if s.dataDir != "" {
		if err := s.saveCollection(c); err != nil {
			// The group never became durable; undo so a retry starts clean.
			_ = c.DeleteConsumer(req.Group)
			s.httpError(w, r, http.StatusInternalServerError, codePersistFailed, err)
			return
		}
	}
	s.writeJSON(w, http.StatusCreated, st)
}

func (s *Server) handleConsumerList(w http.ResponseWriter, _ *http.Request, c *Collection) {
	s.writeJSON(w, http.StatusOK, map[string]any{
		"collection": c.Name(), "consumers": c.Consumers(),
	})
}

func (s *Server) handleConsumerGet(w http.ResponseWriter, r *http.Request, c *Collection) {
	st, err := c.ConsumerStat(r.PathValue("group"))
	if err != nil {
		s.consumerError(w, r, err)
		return
	}
	s.writeJSON(w, http.StatusOK, st)
}

func (s *Server) handleConsumerDelete(w http.ResponseWriter, r *http.Request, c *Collection) {
	group := r.PathValue("group")
	if err := c.DeleteConsumer(group); err != nil {
		s.consumerError(w, r, err)
		return
	}
	s.stopSink(c.Name(), group)
	if s.dataDir != "" {
		if err := s.saveCollection(c); err != nil {
			s.httpError(w, r, http.StatusInternalServerError, codePersistFailed, err)
			return
		}
	}
	s.writeJSON(w, http.StatusOK, map[string]any{"deleted": group})
}

// handleConsumerAck commits an explicit cursor for the group. Acks are
// monotonic and idempotent: re-acking an older cursor is a no-op, acking
// beyond the emitted sequence is cursor_out_of_range.
func (s *Server) handleConsumerAck(w http.ResponseWriter, r *http.Request, c *Collection) {
	var req struct {
		Cursor *int `json:"cursor"`
	}
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil || req.Cursor == nil {
		if err == nil {
			err = fmt.Errorf(`missing "cursor"`)
		}
		s.httpError(w, r, http.StatusBadRequest, codeInvalidRequest, fmt.Errorf("parse ack request: %w", err))
		return
	}
	st, err := c.AckConsumer(r.PathValue("group"), *req.Cursor)
	if err != nil {
		s.consumerError(w, r, err)
		return
	}
	s.writeJSON(w, http.StatusOK, st)
}

// handleConsumerDrain hands the group's pending window to the caller; the
// legacy /candidates route, which has no {group}, is the default group's.
// ?peek=true reads without advancing the cursor; ?wait=5s long-polls for up
// to that long (capped at a minute) before answering an empty batch. A
// destructive drain only advances the cursor when the response write
// completes: a write that dies mid-stream requeues the pairs for the next
// drain, and while it is in flight they are excluded from the durable cursor
// a concurrent checkpoint captures. A response the network loses after a
// complete write is still gone — the inherent limit of an ack-less GET,
// which peek + ack closes.
func (s *Server) handleConsumerDrain(w http.ResponseWriter, r *http.Request, c *Collection) {
	group := r.PathValue("group")
	if group == "" {
		group = DefaultConsumer
	}
	traceID := obs.From(r.Context()).ID()
	q := r.URL.Query()
	if v := q.Get("peek"); v == "true" || v == "1" {
		b, err := c.PeekConsumer(group)
		if err != nil {
			s.consumerError(w, r, err)
			return
		}
		s.writeJSON(w, http.StatusOK, consumerBatchBody(b, traceID))
		return
	}
	var wait time.Duration
	if v := q.Get("wait"); v != "" {
		d, err := time.ParseDuration(v)
		if err != nil || d < 0 {
			s.httpError(w, r, http.StatusBadRequest, codeInvalidRequest,
				fmt.Errorf("bad wait %q: want a non-negative duration like 5s", v))
			return
		}
		if d > time.Minute {
			d = time.Minute
		}
		wait = d
	}
	deadline := time.Now().Add(wait)
	for {
		drainStart := time.Now()
		wrote := false
		delivered, err := c.DrainConsumer(group, func(b ConsumerBatch) error {
			wrote = true
			return s.writeJSON(w, http.StatusOK, consumerBatchBody(b, traceID))
		})
		if err != nil {
			if wrote {
				return // response write died mid-stream; headers are gone
			}
			s.consumerError(w, r, err)
			return
		}
		if delivered > 0 {
			s.metrics.drainDur.Observe(time.Since(drainStart))
			s.metrics.drainedPairs.Add(int64(delivered))
			return
		}
		remaining := time.Until(deadline)
		if remaining <= 0 {
			st, serr := c.ConsumerStat(group)
			if serr != nil {
				s.consumerError(w, r, serr)
				return
			}
			// Built from the stats, not a peek: a peek taken now could hand
			// out pairs this answer never acknowledges.
			empty := ConsumerBatch{Group: st.Group, Cursor: st.Cursor, Next: st.Cursor, Total: st.EmittedTotal}
			s.writeJSON(w, http.StatusOK, consumerBatchBody(empty, traceID))
			return
		}
		ok, werr := c.WaitPending(group, remaining, r.Context().Done(), s.pushStop)
		if werr != nil {
			s.consumerError(w, r, werr)
			return
		}
		if !ok {
			// Client gone, shutdown, or timeout: one final drain, then the
			// empty answer.
			deadline = time.Now()
		}
	}
}

// handleConsumerStream serves the group as a server-sent-event stream: a
// "cursor" event on subscribe, a "pairs" event per acknowledged batch, and
// keepalive comments while idle. The stream holds the group's delivery slot
// for its whole life — concurrent drains of the same group answer 503.
func (s *Server) handleConsumerStream(w http.ResponseWriter, r *http.Request, c *Collection) {
	fl, ok := w.(http.Flusher)
	if !ok {
		s.httpError(w, r, http.StatusInternalServerError, codeStreamingUnsupported,
			fmt.Errorf("transport cannot stream server-sent events"))
		return
	}
	group := r.PathValue("group")
	ctx, cancel := context.WithCancel(r.Context())
	defer cancel()
	//semblock:allow gostmt lifecycle: releases this SSE stream on graceful shutdown, not batch work
	go func() {
		select {
		case <-s.pushStop:
			cancel()
		case <-ctx.Done():
		}
	}()
	s.metrics.streamsActive.Add(1)
	defer s.metrics.streamsActive.Add(-1)
	headersSent := false
	err := c.StreamConsumer(ctx, group, StreamHandlers{
		Heartbeat: 15 * time.Second,
		Ready: func(st ConsumerStats) error {
			h := w.Header()
			h.Set("Content-Type", "text/event-stream")
			h.Set("Cache-Control", "no-cache")
			h.Set("X-Accel-Buffering", "no")
			w.WriteHeader(http.StatusOK)
			headersSent = true
			if err := writeSSE(w, "cursor", map[string]any{
				"group": st.Group, "cursor": st.Cursor, "emitted_total": st.EmittedTotal,
			}); err != nil {
				return err
			}
			fl.Flush()
			return nil
		},
		Batch: func(b ConsumerBatch) error {
			if err := writeSSE(w, "pairs", consumerBatchBody(b, "")); err != nil {
				return err
			}
			fl.Flush()
			s.metrics.drainedPairs.Add(int64(len(b.Pairs)))
			return nil
		},
		Idle: func() error {
			if _, err := io.WriteString(w, ": keepalive\n\n"); err != nil {
				return err
			}
			fl.Flush()
			return nil
		},
	})
	if err != nil && !headersSent {
		s.consumerError(w, r, err)
	}
}

// handleWebhookPut registers (or replaces) the group's webhook sink and
// starts its delivery worker.
func (s *Server) handleWebhookPut(w http.ResponseWriter, r *http.Request, c *Collection) {
	var spec WebhookSpec
	if err := json.NewDecoder(r.Body).Decode(&spec); err != nil {
		s.httpError(w, r, http.StatusBadRequest, codeInvalidRequest, fmt.Errorf("parse webhook spec: %w", err))
		return
	}
	if err := validateWebhookSpec(spec); err != nil {
		s.httpError(w, r, http.StatusBadRequest, codeInvalidRequest, err)
		return
	}
	group := r.PathValue("group")
	if err := c.SetWebhook(group, &spec); err != nil {
		s.consumerError(w, r, err)
		return
	}
	if s.dataDir != "" {
		if err := s.saveCollection(c); err != nil {
			s.httpError(w, r, http.StatusInternalServerError, codePersistFailed, err)
			return
		}
	}
	s.startSink(c, group)
	st, err := c.ConsumerStat(group)
	if err != nil {
		s.consumerError(w, r, err)
		return
	}
	s.writeJSON(w, http.StatusOK, st)
}

// handleWebhookDelete removes the group's webhook sink and stops its worker;
// the cursor keeps its last acknowledged position.
func (s *Server) handleWebhookDelete(w http.ResponseWriter, r *http.Request, c *Collection) {
	group := r.PathValue("group")
	if err := c.SetWebhook(group, nil); err != nil {
		s.consumerError(w, r, err)
		return
	}
	s.stopSink(c.Name(), group)
	if s.dataDir != "" {
		if err := s.saveCollection(c); err != nil {
			s.httpError(w, r, http.StatusInternalServerError, codePersistFailed, err)
			return
		}
	}
	st, err := c.ConsumerStat(group)
	if err != nil {
		s.consumerError(w, r, err)
		return
	}
	s.writeJSON(w, http.StatusOK, st)
}
