package obs

import (
	"context"
	"encoding/json"
	"math"
	"strings"
	"testing"
	"time"
)

func TestNilFastPathNoAlloc(t *testing.T) {
	// The whole point of the package: uninstrumented code pays nothing.
	ctx := context.Background()
	allocs := testing.AllocsPerRun(100, func() {
		tr := From(ctx)
		sp := tr.Start(StageBlock)
		sp.End()
		var h *Histogram
		h.Observe(time.Millisecond)
		var vec *DurationVec
		vec.With("a").Observe(time.Millisecond)
		var tracer *Tracer
		_, _ = tracer.StartTrace(ctx, "x")
		tracer.Finish(nil)
	})
	if allocs != 0 {
		t.Fatalf("nil fast path allocated %.1f per run, want 0", allocs)
	}
}

func TestTraceSpans(t *testing.T) {
	tracer := NewTracer(4, nil)
	ctx, tr := tracer.StartTrace(context.Background(), "POST /resolve")
	if tr == nil || tr.ID() == "" {
		t.Fatal("expected a live trace with an ID")
	}
	if From(ctx) != tr {
		t.Fatal("trace not propagated through context")
	}
	sp := From(ctx).Start(StageBlock)
	time.Sleep(time.Millisecond)
	sp.End()
	sp = tr.Start(StageMatch)
	sp.EndTruncated(true)
	tracer.Finish(tr)

	recs := tracer.Traces()
	if len(recs) != 1 {
		t.Fatalf("got %d traces, want 1", len(recs))
	}
	rec := recs[0]
	if rec.TraceID != tr.ID() || rec.Name != "POST /resolve" {
		t.Fatalf("bad record header: %+v", rec)
	}
	if !rec.Truncated {
		t.Fatal("trace with a truncated span must be marked truncated")
	}
	if len(rec.Spans) != 2 {
		t.Fatalf("got %d spans, want 2", len(rec.Spans))
	}
	if rec.Spans[0].Name != StageBlock || rec.Spans[0].DurNS < int64(time.Millisecond) {
		t.Fatalf("block span wrong: %+v", rec.Spans[0])
	}
	if !rec.Spans[1].Truncated {
		t.Fatal("match span should be truncated")
	}
	var spanSum int64
	for _, sp := range rec.Spans {
		spanSum += sp.DurNS
	}
	if spanSum > rec.DurationNS {
		t.Fatalf("sequential spans sum %d exceeds trace duration %d", spanSum, rec.DurationNS)
	}
	// The record must survive a JSON round-trip (the /debug/traces contract).
	raw, err := json.Marshal(rec)
	if err != nil {
		t.Fatal(err)
	}
	var back TraceRecord
	if err := json.Unmarshal(raw, &back); err != nil {
		t.Fatal(err)
	}
	if back.TraceID != rec.TraceID || len(back.Spans) != len(rec.Spans) {
		t.Fatalf("JSON round-trip mangled the record: %+v", back)
	}
}

func TestTracerRingEviction(t *testing.T) {
	tracer := NewTracer(3, nil)
	var ids []string
	for i := 0; i < 5; i++ {
		_, tr := tracer.StartTrace(context.Background(), "op")
		ids = append(ids, tr.ID())
		tracer.Finish(tr)
	}
	recs := tracer.Traces()
	if len(recs) != 3 {
		t.Fatalf("ring of 3 holds %d", len(recs))
	}
	// Newest first: ids[4], ids[3], ids[2].
	for i, want := range []string{ids[4], ids[3], ids[2]} {
		if recs[i].TraceID != want {
			t.Fatalf("recs[%d] = %s, want %s", i, recs[i].TraceID, want)
		}
	}
}

func TestHistogramObserveAndQuantile(t *testing.T) {
	h := NewHistogram()
	// 100 observations spread 1..100ms: p50 ≈ 50ms, p99 ≈ 99ms.
	for i := 1; i <= 100; i++ {
		h.Observe(time.Duration(i) * time.Millisecond)
	}
	if h.Count() != 100 {
		t.Fatalf("count %d", h.Count())
	}
	p50 := h.Quantile(0.50)
	if p50 < 25*time.Millisecond || p50 > 100*time.Millisecond {
		t.Fatalf("p50 estimate %v outside bucket-resolution band", p50)
	}
	p99 := h.Quantile(0.99)
	if p99 < p50 {
		t.Fatalf("p99 %v < p50 %v", p99, p50)
	}
	if got := h.Sum(); got != 5050*time.Millisecond {
		t.Fatalf("sum %v, want 5.05s", got)
	}
	if (*Histogram)(nil).Quantile(0.5) != 0 {
		t.Fatal("nil histogram quantile must be 0")
	}
}

func TestHistogramObserveZeroAlloc(t *testing.T) {
	h := NewHistogram()
	allocs := testing.AllocsPerRun(100, func() { h.Observe(3 * time.Millisecond) })
	if allocs != 0 {
		t.Fatalf("Observe allocated %.1f per run", allocs)
	}
}

func TestHistogramPromExposition(t *testing.T) {
	h := NewHistogram()
	h.Observe(2 * time.Millisecond)
	h.Observe(200 * time.Millisecond)
	h.Observe(2 * time.Hour) // +Inf bucket
	var b strings.Builder
	h.WriteProm(&b, "test_seconds", "Test histogram.")
	out := b.String()
	for _, want := range []string{
		"# HELP test_seconds Test histogram.",
		"# TYPE test_seconds histogram",
		`test_seconds_bucket{le="0.0025"} 1`,
		`test_seconds_bucket{le="0.25"} 2`,
		`test_seconds_bucket{le="+Inf"} 3`,
		"test_seconds_count 3",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("exposition missing %q:\n%s", want, out)
		}
	}
	// Cumulative bucket counts must be monotonic.
	last := int64(-1)
	for _, line := range strings.Split(out, "\n") {
		if !strings.HasPrefix(line, "test_seconds_bucket") {
			continue
		}
		var v int64
		if _, err := fmtSscanLast(line, &v); err != nil {
			t.Fatalf("parse %q: %v", line, err)
		}
		if v < last {
			t.Fatalf("non-monotonic buckets at %q", line)
		}
		last = v
	}
}

func TestDurationVec(t *testing.T) {
	vec := NewDurationVec("http_seconds", "Request latency.", "route", "code")
	vec.With("GET /a", "200").Observe(time.Millisecond)
	vec.With("GET /a", "200").Observe(2 * time.Millisecond)
	vec.With("POST /b", "500").Observe(time.Second)
	if got := vec.With("GET /a", "200").Count(); got != 2 {
		t.Fatalf("count %d", got)
	}
	var b strings.Builder
	vec.WriteProm(&b)
	out := b.String()
	if strings.Count(out, "# TYPE http_seconds histogram") != 1 {
		t.Fatalf("TYPE emitted more than once:\n%s", out)
	}
	for _, want := range []string{
		`http_seconds_bucket{route="GET /a",code="200",le="0.001"} 1`,
		`http_seconds_count{route="GET /a",code="200"} 2`,
		`http_seconds_count{route="POST /b",code="500"} 1`,
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("exposition missing %q:\n%s", want, out)
		}
	}
}

func TestDurationVecSteadyStateZeroAlloc(t *testing.T) {
	vec := NewDurationVec("v", "h", "stage")
	vec.With(StageMatch).Observe(time.Millisecond) // warm the entry
	allocs := testing.AllocsPerRun(100, func() {
		vec.With(StageMatch).Observe(time.Millisecond)
	})
	if allocs != 0 {
		t.Fatalf("steady-state vec observe allocated %.1f per run", allocs)
	}
}

func TestWriteRuntimeMetrics(t *testing.T) {
	var b strings.Builder
	WriteRuntimeMetrics(&b)
	out := b.String()
	for _, want := range []string{"semblock_goroutines ", "semblock_heap_bytes ", "semblock_gc_pause_seconds_bucket"} {
		if !strings.Contains(out, want) {
			t.Fatalf("runtime metrics missing %q:\n%s", want, out)
		}
	}
}

func TestNewLogger(t *testing.T) {
	var b strings.Builder
	lg, err := NewLogger(&b, "json", "warn")
	if err != nil {
		t.Fatal(err)
	}
	lg.Info("dropped")
	lg.Warn("kept", "k", 1)
	out := b.String()
	if strings.Contains(out, "dropped") || !strings.Contains(out, `"msg":"kept"`) {
		t.Fatalf("level/format wrong: %q", out)
	}
	if _, err := NewLogger(&b, "yaml", "info"); err == nil {
		t.Fatal("bad format must error")
	}
	if _, err := NewLogger(&b, "text", "loud"); err == nil {
		t.Fatal("bad level must error")
	}
}

func TestQuantileMonotone(t *testing.T) {
	h := NewHistogram()
	for i := 0; i < 1000; i++ {
		h.Observe(time.Duration(i%37) * time.Millisecond)
	}
	prev := time.Duration(0)
	for _, q := range []float64{0.1, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99, 1} {
		v := h.Quantile(q)
		if v < prev {
			t.Fatalf("quantile not monotone at q=%v: %v < %v", q, v, prev)
		}
		prev = v
	}
	if math.IsNaN(float64(prev)) {
		t.Fatal("NaN quantile")
	}
}

// fmtSscanLast parses the last whitespace-separated field of line as int64.
func fmtSscanLast(line string, v *int64) (int, error) {
	fields := strings.Fields(line)
	return 1, json.Unmarshal([]byte(fields[len(fields)-1]), v)
}

func TestCounterNilNoop(t *testing.T) {
	var nilCounter *Counter
	nilCounter.Add(3)
	if got := nilCounter.Load(); got != 0 {
		t.Errorf("nil counter Load = %d, want 0", got)
	}
	var c Counter
	c.Add(2)
	c.Add(5)
	if got := c.Load(); got != 7 {
		t.Errorf("Load = %d, want 7", got)
	}
}
