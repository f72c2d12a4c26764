package server

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http/httptest"
	"sort"
	"strconv"
	"strings"
	"testing"

	"semblock/internal/record"
)

// postJSON marshals v and POSTs (or method's) it, returning the status.
func postJSON(t *testing.T, cl *httptest.Server, method, url string, v any) int {
	t.Helper()
	var body io.Reader
	ct := ""
	if v != nil {
		raw, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		body = bytes.NewReader(raw)
		ct = "application/json"
	}
	return doJSON(t, cl.Client(), method, url, body, ct, nil)
}

// promFamily is one metric family as the lint parser reconstructs it.
type promFamily struct {
	help    bool
	typ     string
	samples int
}

// parsePromText parses a full Prometheus text exposition, enforcing the
// format invariants the satellite demands: every sample belongs to a family
// whose # HELP and # TYPE were emitted (exactly once, before the samples),
// values parse as floats, and histogram bucket series are cumulative with a
// closing +Inf bucket that equals the series' _count.
func parsePromText(t *testing.T, body string) map[string]*promFamily {
	t.Helper()
	families := make(map[string]*promFamily)
	// histogram bookkeeping: series key (family + labels sans le) → cumulative
	// bucket values in emission order, plus the _count value per series.
	buckets := make(map[string][]float64)
	infSeen := make(map[string]float64)
	counts := make(map[string]float64)

	current := "" // family of the most recent # TYPE line
	for ln, line := range strings.Split(body, "\n") {
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "# HELP ") {
			parts := strings.SplitN(strings.TrimPrefix(line, "# HELP "), " ", 2)
			if len(parts) != 2 || parts[1] == "" {
				t.Fatalf("line %d: HELP without text: %q", ln+1, line)
			}
			f := families[parts[0]]
			if f == nil {
				f = &promFamily{}
				families[parts[0]] = f
			}
			if f.help {
				t.Fatalf("line %d: duplicate HELP for %s", ln+1, parts[0])
			}
			if f.samples > 0 {
				t.Fatalf("line %d: HELP for %s after its samples", ln+1, parts[0])
			}
			f.help = true
			continue
		}
		if strings.HasPrefix(line, "# TYPE ") {
			parts := strings.Fields(strings.TrimPrefix(line, "# TYPE "))
			if len(parts) != 2 {
				t.Fatalf("line %d: malformed TYPE: %q", ln+1, line)
			}
			switch parts[1] {
			case "counter", "gauge", "histogram", "summary", "untyped":
			default:
				t.Fatalf("line %d: unknown TYPE %q", ln+1, parts[1])
			}
			f := families[parts[0]]
			if f == nil {
				f = &promFamily{}
				families[parts[0]] = f
			}
			if f.typ != "" {
				t.Fatalf("line %d: duplicate TYPE for %s", ln+1, parts[0])
			}
			f.typ = parts[1]
			current = parts[0]
			continue
		}
		if strings.HasPrefix(line, "#") {
			continue // comment
		}

		// Sample line: name{labels} value  |  name value
		name := line
		labels := ""
		if i := strings.IndexByte(line, '{'); i >= 0 {
			j := strings.LastIndexByte(line, '}')
			if j < i {
				t.Fatalf("line %d: unbalanced braces: %q", ln+1, line)
			}
			name, labels = line[:i], line[i+1:j]
			line = line[:i] + line[j+1:]
		}
		fields := strings.Fields(line)
		if len(fields) != 2 {
			t.Fatalf("line %d: want 'name value', got %q", ln+1, line)
		}
		name = fields[0]
		val, err := strconv.ParseFloat(fields[1], 64)
		if err != nil {
			t.Fatalf("line %d: unparseable value %q: %v", ln+1, fields[1], err)
		}

		// Resolve the sample to its family: histogram samples use the
		// _bucket/_sum/_count suffixes of the TYPE'd base name.
		family := name
		suffix := ""
		for _, sfx := range []string{"_bucket", "_sum", "_count"} {
			base := strings.TrimSuffix(name, sfx)
			if base != name {
				if f, ok := families[base]; ok && f.typ == "histogram" {
					family, suffix = base, sfx
				}
				break
			}
		}
		f, ok := families[family]
		if !ok || !f.help || f.typ == "" {
			t.Fatalf("line %d: sample %s without preceding HELP+TYPE", ln+1, name)
		}
		if family != current {
			// Interleaved families would make the exposition invalid for
			// strict parsers; ours emits each family contiguously.
			t.Fatalf("line %d: sample of %s interleaved into family %s", ln+1, family, current)
		}
		f.samples++

		if f.typ == "histogram" {
			// Strip le to key the series, remember the le value.
			var le string
			var rest []string
			for _, kv := range splitLabels(labels) {
				if v, ok := strings.CutPrefix(kv, "le="); ok {
					le = strings.Trim(v, `"`)
				} else {
					rest = append(rest, kv)
				}
			}
			sort.Strings(rest)
			key := family + "{" + strings.Join(rest, ",") + "}"
			switch suffix {
			case "_bucket":
				if le == "+Inf" {
					infSeen[key] = val
				} else if _, err := strconv.ParseFloat(le, 64); err != nil {
					t.Fatalf("line %d: bad le %q", ln+1, le)
				}
				buckets[key] = append(buckets[key], val)
			case "_count":
				counts[key] = val
			}
		}
	}

	for key, vals := range buckets {
		for i := 1; i < len(vals); i++ {
			if vals[i] < vals[i-1] {
				t.Errorf("histogram %s: non-cumulative buckets %v", key, vals)
				break
			}
		}
		inf, ok := infSeen[key]
		if !ok {
			t.Errorf("histogram %s: no +Inf bucket", key)
			continue
		}
		if cnt, ok := counts[key]; !ok || cnt != inf {
			t.Errorf("histogram %s: +Inf bucket %v != _count %v", key, inf, cnt)
		}
	}
	return families
}

// splitLabels splits `k="v",k2="v2"` into pairs (values contain no commas
// or quotes in our exposition).
func splitLabels(s string) []string {
	if s == "" {
		return nil
	}
	return strings.Split(s, ",")
}

// TestMetricsExpositionLint drives real traffic through the HTTP API and
// lints the complete /metrics exposition: format validity plus the presence
// and non-emptiness of the observability families this layer adds.
func TestMetricsExpositionLint(t *testing.T) {
	_, rows := coraFixture(t, 120)
	s, err := New(WithDefaultShards(2))
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	if code := postJSON(t, ts, "POST", ts.URL+"/v1/collections", baseSpec("lint", 2)); code != 201 {
		t.Fatalf("create status %d", code)
	}
	base := ts.URL + "/v1/collections/lint"
	wire := make([]record.JSONLRecord, 0, len(rows))
	for _, row := range rows {
		e := row.Entity
		wire = append(wire, record.JSONLRecord{Entity: &e, Attrs: row.Attrs})
	}
	if code := postJSON(t, ts, "POST", base+"/records", wire); code != 200 {
		t.Fatalf("ingest status %d", code)
	}
	if code := postJSON(t, ts, "GET", base+"/candidates", nil); code != 200 {
		t.Fatalf("candidates status %d", code)
	}
	resolveReq := map[string]any{
		"match":     []map[string]any{{"attr": "title"}, {"attr": "authors"}},
		"threshold": 0.5,
		"pruning":   map[string]any{"scheme": "CBS", "algo": "WEP"},
		"budget":    500,
	}
	if code := postJSON(t, ts, "POST", base+"/resolve", resolveReq); code != 200 {
		t.Fatalf("resolve status %d", code)
	}
	// One client error, so the 4xx counter is non-zero.
	if code := postJSON(t, ts, "GET", ts.URL+"/v1/collections/absent", nil); code != 404 {
		t.Fatalf("missing-collection status %d", code)
	}
	// A named consumer group with a drained prefix, so the per-group lag
	// gauge has one series at zero (default) and one lagging (etl).
	if code := postJSON(t, ts, "POST", base+"/consumers", map[string]any{"group": "etl"}); code != 201 {
		t.Fatalf("create consumer status %d", code)
	}

	resp, err := ts.Client().Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	body := string(raw)
	families := parsePromText(t, body)

	// Every family this PR introduces must be present, typed, and observed.
	for _, want := range []struct {
		family string
		typ    string
	}{
		{"semblock_http_request_duration_seconds", "histogram"},
		{"semblock_pipeline_stage_duration_seconds", "histogram"},
		{"semblock_ingest_batch_duration_seconds", "histogram"},
		{"semblock_drain_duration_seconds", "histogram"},
		{"semblock_signature_staging_duration_seconds", "histogram"},
		{"semblock_gc_pause_seconds", "histogram"},
		{"semblock_http_errors_total", "counter"},
		{"semblock_goroutines", "gauge"},
		{"semblock_heap_bytes", "gauge"},
		{"semblock_webhook_delivery_duration_seconds", "histogram"},
		{"semblock_webhook_deliveries_total", "counter"},
		{"semblock_webhook_pairs_total", "counter"},
		{"semblock_webhook_retries_total", "counter"},
		{"semblock_webhook_failures_total", "counter"},
		{"semblock_stream_consumers", "gauge"},
		{"semblock_consumer_lag", "gauge"},
		{"semblock_sign_bands_total", "counter"},
		{"semblock_sign_bands_skipped_total", "counter"},
	} {
		f, ok := families[want.family]
		if !ok {
			t.Errorf("family %s missing", want.family)
			continue
		}
		if f.typ != want.typ {
			t.Errorf("family %s type %q, want %q", want.family, f.typ, want.typ)
		}
		if f.samples == 0 {
			t.Errorf("family %s has no samples", want.family)
		}
	}
	// The traffic above must actually have been observed.
	for _, want := range []string{
		`semblock_http_request_duration_seconds_count{route="POST /v1/collections/{name}/resolve",code="200"} 1`,
		`semblock_http_request_duration_seconds_count{route="GET /v1/collections/{name}",code="404"} 1`,
		`semblock_pipeline_stage_duration_seconds_count{stage="match"} 1`,
		`semblock_pipeline_stage_duration_seconds_count{stage="rank"} 1`,
		`semblock_http_errors_total{code_class="4xx"} 1`,
		`semblock_ingest_batch_duration_seconds_count 1`,
		`semblock_drain_duration_seconds_count 1`,
		`semblock_signature_staging_duration_seconds_count 1`,
		`semblock_consumer_lag{collection="lint",group="default"} 0`,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("exposition missing %q", want)
		}
	}
	// The semantic filter's veto rate: every (record, table) band of the
	// ingested batch was either signed or skipped, and w=3 OR over the Cora
	// taxonomy skips some.
	sample := func(name string) int {
		for _, line := range strings.Split(body, "\n") {
			if v, ok := strings.CutPrefix(line, name+" "); ok {
				n, _ := strconv.Atoi(v)
				return n
			}
		}
		return -1
	}
	signed, skipped := sample("semblock_sign_bands_total"), sample("semblock_sign_bands_skipped_total")
	if bands := len(rows) * baseSpec("lint", 2).L; signed <= 0 || skipped <= 0 || signed+skipped != bands {
		t.Errorf("signed %d + skipped %d bands, want both positive and %d in total", signed, skipped, bands)
	}
}
