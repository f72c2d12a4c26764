package server

import (
	"fmt"
	"io"
	"sort"
	"sync/atomic"

	"semblock/internal/obs"
)

// metrics holds the server's monotonic counters and latency histograms,
// exposed in Prometheus text format by GET /metrics. Hand-rolled atomics
// plus the obs package keep the repository dependency-free.
type metrics struct {
	requests        atomic.Int64 // every HTTP request routed
	errors          atomic.Int64 // requests answered with a 4xx/5xx
	errors4xx       atomic.Int64 // requests answered with a client error
	errors5xx       atomic.Int64 // requests answered with a server error
	ingestedRecords atomic.Int64 // records accepted across all collections
	ingestBatches   atomic.Int64 // ingest requests accepted
	drainedPairs    atomic.Int64 // candidate pairs handed out by /candidates
	snapshotQueries atomic.Int64
	resolveRuns     atomic.Int64
	checkpoints     atomic.Int64 // collection checkpoints written
	compactions     atomic.Int64 // segment-chain compactions completed
	compactedBytes  atomic.Int64 // segment bytes written by compactions

	// Push delivery (consumer groups, see webhook.go and the stream
	// handlers in http.go).
	webhookDeliveries atomic.Int64 // batches acknowledged by webhook sinks
	webhookPairs      atomic.Int64 // pairs acknowledged by webhook sinks
	webhookRetries    atomic.Int64 // webhook attempts beyond a batch's first
	webhookFailures   atomic.Int64 // batches that exhausted their bounded retries
	streamsActive     atomic.Int64 // connected SSE stream consumers

	lastCompactionNanos atomic.Int64 // duration of the most recent compaction

	// Semantic-filter veto rate: (record, table) bands the ingest path
	// signed, and skipped because the record's semhash keeps it out of the
	// table. Added to by every collection's shards (stream.SetBandCounters).
	bandsSigned  obs.Counter // semblock_sign_bands_total
	bandsSkipped obs.Counter // semblock_sign_bands_skipped_total

	// Latency histograms (see metrics.init). httpDur and stageDur are
	// labelled families; the rest are single series.
	httpDur    *obs.DurationVec // semblock_http_request_duration_seconds{route,code}
	stageDur   *obs.DurationVec // semblock_pipeline_stage_duration_seconds{stage}
	ingestDur  *obs.Histogram   // semblock_ingest_batch_duration_seconds
	drainDur   *obs.Histogram   // semblock_drain_duration_seconds
	stagingDur *obs.Histogram   // semblock_signature_staging_duration_seconds
	webhookDur *obs.Histogram   // semblock_webhook_delivery_duration_seconds
}

// init allocates the histogram families. Called once by New, before the
// server serves anything.
func (m *metrics) init() {
	m.httpDur = obs.NewDurationVec("semblock_http_request_duration_seconds",
		"HTTP request latency by route pattern and status code.", "route", "code")
	m.stageDur = obs.NewDurationVec("semblock_pipeline_stage_duration_seconds",
		"Pipeline stage latency by stage (sign, block, graph, rank, match).", "stage")
	m.ingestDur = obs.NewHistogram()
	m.drainDur = obs.NewHistogram()
	m.stagingDur = obs.NewHistogram()
	m.webhookDur = obs.NewHistogram()
}

// writeMetrics renders the Prometheus text exposition: server-wide counters,
// latency histograms, per-collection gauges, and process runtime gauges.
// Every family carries its # HELP and # TYPE header exactly once.
func (s *Server) writeMetrics(w io.Writer) {
	counter := func(name, help string, v int64) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s counter\n%s %d\n", name, help, name, name, v)
	}
	m := &s.metrics
	counter("semblock_http_requests_total", "HTTP requests routed.", m.requests.Load())
	// The error total keeps its historical unlabelled series (every JSON
	// error response) and adds the status-class split observed by the
	// instrumentation middleware.
	fmt.Fprintf(w, "# HELP semblock_http_errors_total HTTP requests answered with an error status.\n# TYPE semblock_http_errors_total counter\n")
	fmt.Fprintf(w, "semblock_http_errors_total %d\n", m.errors.Load())
	fmt.Fprintf(w, "semblock_http_errors_total{code_class=\"4xx\"} %d\n", m.errors4xx.Load())
	fmt.Fprintf(w, "semblock_http_errors_total{code_class=\"5xx\"} %d\n", m.errors5xx.Load())
	counter("semblock_ingested_records_total", "Records accepted across all collections.", m.ingestedRecords.Load())
	counter("semblock_ingest_batches_total", "Ingest requests accepted.", m.ingestBatches.Load())
	counter("semblock_sign_bands_total", "Minhash bands signed by ingest, one per (record, hash table) the record can enter.", m.bandsSigned.Load())
	counter("semblock_sign_bands_skipped_total", "Minhash bands ingest did not sign because the record's semhash keeps it out of the table.", m.bandsSkipped.Load())
	counter("semblock_drained_pairs_total", "Candidate pairs handed out by the incremental drain.", m.drainedPairs.Load())
	counter("semblock_snapshot_queries_total", "GET /snapshot requests.", m.snapshotQueries.Load())
	counter("semblock_resolve_runs_total", "POST /resolve pipeline runs.", m.resolveRuns.Load())
	counter("semblock_webhook_deliveries_total", "Webhook batches acknowledged by their sink.", m.webhookDeliveries.Load())
	counter("semblock_webhook_pairs_total", "Candidate pairs acknowledged by webhook sinks.", m.webhookPairs.Load())
	counter("semblock_webhook_retries_total", "Webhook delivery attempts beyond a batch's first.", m.webhookRetries.Load())
	counter("semblock_webhook_failures_total", "Webhook batches that exhausted their bounded retries.", m.webhookFailures.Load())
	fmt.Fprintf(w, "# HELP semblock_stream_consumers Connected SSE stream consumers.\n# TYPE semblock_stream_consumers gauge\nsemblock_stream_consumers %d\n",
		m.streamsActive.Load())
	counter("semblock_checkpoints_total", "Collection checkpoints written.", m.checkpoints.Load())
	counter("semblock_compactions_total", "Segment-chain compactions completed.", m.compactions.Load())
	counter("semblock_compacted_bytes_total", "Segment bytes written by compactions.", m.compactedBytes.Load())
	fmt.Fprintf(w, "# HELP semblock_last_compaction_seconds Duration of the most recent compaction.\n# TYPE semblock_last_compaction_seconds gauge\nsemblock_last_compaction_seconds %g\n",
		float64(m.lastCompactionNanos.Load())/1e9)

	m.httpDur.WriteProm(w)
	m.stageDur.WriteProm(w)
	if m.ingestDur != nil {
		m.ingestDur.WriteProm(w, "semblock_ingest_batch_duration_seconds", "Ingest request batch latency (parse + index + merge).")
	}
	if m.drainDur != nil {
		m.drainDur.WriteProm(w, "semblock_drain_duration_seconds", "Candidate drain latency (pop + response write).")
	}
	if m.stagingDur != nil {
		m.stagingDur.WriteProm(w, "semblock_signature_staging_duration_seconds", "Once-per-record signature staging latency per ingest batch.")
	}
	if m.webhookDur != nil {
		m.webhookDur.WriteProm(w, "semblock_webhook_delivery_duration_seconds", "Webhook batch delivery latency (drain + POST + acknowledgment).")
	}

	// Snapshot the registry under s.mu, then gather per-collection stats
	// without it: Stats() takes each collection's mutex, which a bulk
	// ingest can hold for a while — holding s.mu across that would stall
	// Create/Delete for the duration of the slowest ingest.
	s.mu.RLock()
	cols := make([]*Collection, 0, len(s.collections))
	for _, c := range s.collections {
		cols = append(cols, c)
	}
	s.mu.RUnlock()
	sort.Slice(cols, func(i, j int) bool { return cols[i].Name() < cols[j].Name() })
	stats := make([]Stats, 0, len(cols))
	for _, c := range cols {
		stats = append(stats, c.Stats())
	}

	fmt.Fprintf(w, "# HELP semblock_collections Number of collections.\n# TYPE semblock_collections gauge\nsemblock_collections %d\n", len(stats))
	fmt.Fprintf(w, "# HELP semblock_collection_records Records per collection.\n# TYPE semblock_collection_records gauge\n")
	for _, st := range stats {
		fmt.Fprintf(w, "semblock_collection_records{collection=%q} %d\n", st.Name, st.Records)
	}
	fmt.Fprintf(w, "# HELP semblock_collection_pairs Distinct candidate pairs per collection.\n# TYPE semblock_collection_pairs gauge\n")
	for _, st := range stats {
		fmt.Fprintf(w, "semblock_collection_pairs{collection=%q} %d\n", st.Name, st.Pairs)
	}
	fmt.Fprintf(w, "# HELP semblock_collection_segments On-disk checkpoint segments per collection.\n# TYPE semblock_collection_segments gauge\n")
	for _, st := range stats {
		fmt.Fprintf(w, "semblock_collection_segments{collection=%q} %d\n", st.Name, st.Segments)
	}
	fmt.Fprintf(w, "# HELP semblock_collection_segment_bytes On-disk segment bytes per collection.\n# TYPE semblock_collection_segment_bytes gauge\n")
	for _, st := range stats {
		fmt.Fprintf(w, "semblock_collection_segment_bytes{collection=%q} %d\n", st.Name, st.SegmentBytes)
	}
	fmt.Fprintf(w, "# HELP semblock_collection_generation Compaction generation per collection.\n# TYPE semblock_collection_generation gauge\n")
	for _, st := range stats {
		fmt.Fprintf(w, "semblock_collection_generation{collection=%q} %d\n", st.Name, st.Generation)
	}
	// Per-group lag: emitted pairs not yet acknowledged by the group
	// (in-flight windows count as lag until their delivery settles). Label
	// values come from registry state, never from request input.
	fmt.Fprintf(w, "# HELP semblock_consumer_lag Candidate pairs emitted but not yet acknowledged, per consumer group.\n# TYPE semblock_consumer_lag gauge\n")
	for _, st := range stats {
		for _, g := range st.Consumers {
			fmt.Fprintf(w, "semblock_consumer_lag{collection=%q,group=%q} %d\n",
				st.Name, g.Group, g.EmittedTotal-g.Cursor)
		}
	}

	obs.WriteRuntimeMetrics(w)
}
