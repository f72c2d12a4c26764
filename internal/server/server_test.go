package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"semblock/internal/lsh"
	"semblock/internal/record"
)

// doJSON issues a request and decodes the JSON response into out (skipped
// when out is nil), returning the status code.
func doJSON(t *testing.T, client *http.Client, method, url string, body io.Reader, contentType string, out any) int {
	t.Helper()
	req, err := http.NewRequest(method, url, body)
	if err != nil {
		t.Fatal(err)
	}
	if contentType != "" {
		req.Header.Set("Content-Type", contentType)
	}
	resp, err := client.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("%s %s: decode response: %v", method, url, err)
		}
	}
	// Read to EOF: the handler has then written its whole response, and the
	// keep-alive connection is reused, on which the server reads the next
	// request only after this one's handler — instrumentation included —
	// has returned. Closing early instead let a test's next request (say,
	// GET /metrics) overtake the observations of the one before it.
	if _, err := io.Copy(io.Discard, resp.Body); err != nil {
		t.Fatalf("%s %s: read response: %v", method, url, err)
	}
	return resp.StatusCode
}

// TestHTTPEndToEnd drives the whole API surface through one tenant:
// create → ingest (single, array, JSONL) → candidates → snapshot → resolve
// → stats → checkpoint error path → delete.
func TestHTTPEndToEnd(t *testing.T) {
	s, err := New()
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	cl := ts.Client()

	// Health before anything exists.
	var health map[string]any
	if code := doJSON(t, cl, "GET", ts.URL+"/healthz", nil, "", &health); code != 200 {
		t.Fatalf("healthz status %d", code)
	}
	if health["status"] != "ok" {
		t.Fatalf("healthz %v", health)
	}

	// Create.
	spec := `{"name":"pubs","attrs":["name"],"q":2,"k":2,"l":8,"seed":1,"shards":2}`
	if code := doJSON(t, cl, "POST", ts.URL+"/v1/collections", strings.NewReader(spec), "application/json", nil); code != 201 {
		t.Fatalf("create status %d", code)
	}
	// Duplicate name → 409; malformed name → 400; unknown collection → 404.
	if code := doJSON(t, cl, "POST", ts.URL+"/v1/collections", strings.NewReader(spec), "application/json", nil); code != 409 {
		t.Errorf("duplicate create status %d, want 409", code)
	}
	bad := `{"name":"../evil","attrs":["name"],"q":2,"k":2,"l":8}`
	if code := doJSON(t, cl, "POST", ts.URL+"/v1/collections", strings.NewReader(bad), "application/json", nil); code != 400 {
		t.Errorf("bad-name create status %d, want 400", code)
	}
	if code := doJSON(t, cl, "GET", ts.URL+"/v1/collections/ghost", nil, "", nil); code != 404 {
		t.Errorf("missing collection status %d, want 404", code)
	}

	base := ts.URL + "/v1/collections/pubs"

	// Single-row ingest.
	var ingest struct {
		IDs   []record.ID `json:"ids"`
		Count int         `json:"count"`
	}
	one := `{"attrs":{"name":"alice smith"}}`
	if code := doJSON(t, cl, "POST", base+"/records", strings.NewReader(one), "application/json", &ingest); code != 200 {
		t.Fatalf("single ingest status %d", code)
	}
	if ingest.Count != 1 || ingest.IDs[0] != 0 {
		t.Fatalf("single ingest %+v", ingest)
	}
	// Array ingest.
	arr := `[{"attrs":{"name":"alice smyth"}},{"entity":9,"attrs":{"name":"bob jones"}}]`
	if code := doJSON(t, cl, "POST", base+"/records", strings.NewReader(arr), "application/json", &ingest); code != 200 {
		t.Fatalf("array ingest status %d", code)
	}
	if ingest.Count != 2 || ingest.IDs[0] != 1 {
		t.Fatalf("array ingest %+v", ingest)
	}
	// JSONL bulk ingest — the record.ReadJSONL wire format.
	ndjson := "{\"attrs\":{\"name\":\"alice smith\"}}\n{\"attrs\":{\"name\":\"carol doe\"}}\n"
	if code := doJSON(t, cl, "POST", base+"/records", strings.NewReader(ndjson), "application/x-ndjson", &ingest); code != 200 {
		t.Fatalf("jsonl ingest status %d", code)
	}
	if ingest.Count != 2 || ingest.IDs[1] != 4 {
		t.Fatalf("jsonl ingest %+v", ingest)
	}

	// Incremental drain: first call returns pairs, second is empty.
	var cand struct {
		Pairs        [][2]record.ID `json:"pairs"`
		Count        int            `json:"count"`
		EmittedTotal int            `json:"emitted_total"`
	}
	if code := doJSON(t, cl, "GET", base+"/candidates", nil, "", &cand); code != 200 {
		t.Fatalf("candidates status %d", code)
	}
	if cand.Count == 0 || cand.EmittedTotal != cand.Count {
		t.Fatalf("first drain %+v, want all emitted pairs", cand)
	}
	first := cand.Count
	if code := doJSON(t, cl, "GET", base+"/candidates", nil, "", &cand); code != 200 || cand.Count != 0 {
		t.Fatalf("second drain returned %d pairs (status %d), want 0", cand.Count, code)
	}
	if cand.EmittedTotal != first {
		t.Errorf("emitted_total %d after empty drain, want %d", cand.EmittedTotal, first)
	}

	// Snapshot equals a batch Block over the same records.
	var snap struct {
		Technique string        `json:"technique"`
		Records   int           `json:"records"`
		NumBlocks int           `json:"num_blocks"`
		Blocks    [][]record.ID `json:"blocks"`
	}
	if code := doJSON(t, cl, "GET", base+"/snapshot", nil, "", &snap); code != 200 {
		t.Fatalf("snapshot status %d", code)
	}
	if snap.Technique != "lsh" || snap.Records != 5 {
		t.Fatalf("snapshot %+v", snap)
	}
	c, _ := s.Collection("pubs")
	cfg, err := c.Spec().buildConfig()
	if err != nil {
		t.Fatal(err)
	}
	blocker, err := lsh.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	want, err := blocker.Block(c.Dataset())
	if err != nil {
		t.Fatal(err)
	}
	if got, w := canonical(snap.Blocks), canonical(want.Blocks); !sameCanonical(got, w) {
		t.Fatalf("HTTP snapshot differs from batch Block: %d vs %d blocks", len(got), len(w))
	}

	// Resolve.
	var resolve struct {
		NumMatches  int `json:"num_matches"`
		NumClusters int `json:"num_clusters"`
	}
	req := `{"match":[{"attr":"name"}],"threshold":0.5}`
	if code := doJSON(t, cl, "POST", base+"/resolve", strings.NewReader(req), "application/json", &resolve); code != 200 {
		t.Fatalf("resolve status %d", code)
	}
	if resolve.NumMatches == 0 || resolve.NumClusters == 0 {
		t.Fatalf("resolve %+v, want matches (alice smith/smyth collide)", resolve)
	}
	if code := doJSON(t, cl, "POST", base+"/resolve", strings.NewReader(`{"match":[]}`), "application/json", nil); code != 400 {
		t.Errorf("empty resolve status %d, want 400", code)
	}

	// Stats + list.
	var stats Stats
	if code := doJSON(t, cl, "GET", base, nil, "", &stats); code != 200 {
		t.Fatalf("stats status %d", code)
	}
	if stats.Records != 5 || stats.Shards != 2 || stats.Pairs != first {
		t.Fatalf("stats %+v", stats)
	}
	var list struct {
		Collections []string `json:"collections"`
	}
	if code := doJSON(t, cl, "GET", ts.URL+"/v1/collections", nil, "", &list); code != 200 || len(list.Collections) != 1 {
		t.Fatalf("list %v (status %d)", list, code)
	}

	// Checkpoint without a data dir is a 409.
	if code := doJSON(t, cl, "POST", base+"/checkpoint", nil, "", nil); code != 409 {
		t.Errorf("checkpoint without data dir status %d, want 409", code)
	}

	// Metrics.
	resp, err := cl.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, want := range []string{
		"semblock_ingested_records_total 5",
		"semblock_collections 1",
		`semblock_collection_records{collection="pubs"} 5`,
		"semblock_resolve_runs_total 1",
	} {
		if !strings.Contains(string(body), want) {
			t.Errorf("metrics output missing %q", want)
		}
	}

	// Delete.
	if code := doJSON(t, cl, "DELETE", base, nil, "", nil); code != 200 {
		t.Fatalf("delete status %d", code)
	}
	if code := doJSON(t, cl, "GET", base, nil, "", nil); code != 404 {
		t.Errorf("stats after delete status %d, want 404", code)
	}
}

// blankLines is an endless body of 4 KiB whitespace lines: every line is
// blank to the JSONL reader, so a body of it only fails on its size.
type blankLines struct{ off int }

func (b *blankLines) Read(p []byte) (int, error) {
	for i := range p {
		p[i] = ' '
		if (b.off+i)%4096 == 4095 {
			p[i] = '\n'
		}
	}
	b.off += len(p)
	return len(p), nil
}

// ingestRecorded POSTs body to the collection's records route in process
// and returns the recorded response.
func ingestRecorded(t *testing.T, h http.Handler, name, contentType string, body io.Reader, length int64) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest("POST", "/v1/collections/"+name+"/records", body)
	req.Header.Set("Content-Type", contentType)
	req.ContentLength = length
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec
}

// TestIngestBodyLimit checks that an ingest body one byte over the cap is
// answered 413 payload_too_large and ingests nothing, whether the client
// declares its length (rejected before reading) or streams it (rejected by
// the bounded reader), while a body of exactly the cap is read. A streamed
// JSON body would buffer the whole cap first, so only the JSONL branch is
// streamed here.
func TestIngestBodyLimit(t *testing.T) {
	s, err := New()
	if err != nil {
		t.Fatal(err)
	}
	c, err := s.Create(CollectionSpec{Name: "cap", Attrs: []string{"name"}, Q: 2, K: 2, L: 8, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	h := s.Handler()
	one := `{"attrs":{"name":"alice"}}`
	if rec := ingestRecorded(t, h, "cap", "application/json", strings.NewReader(one), int64(len(one))); rec.Code != 200 {
		t.Fatalf("seed ingest status %d: %s", rec.Code, rec.Body)
	}
	for _, tc := range []struct {
		name, contentType string
		size, length      int64
		status            int
		code              apiCode
	}{
		{"json declared", "application/json", maxIngestBytes + 1, maxIngestBytes + 1, 413, codePayloadTooLarge},
		{"ndjson declared", "application/x-ndjson", maxIngestBytes + 1, maxIngestBytes + 1, 413, codePayloadTooLarge},
		{"ndjson streamed", "application/x-ndjson", maxIngestBytes + 1, -1, 413, codePayloadTooLarge},
		{"ndjson streamed at the cap", "application/x-ndjson", maxIngestBytes, -1, 200, ""},
	} {
		t.Run(tc.name, func(t *testing.T) {
			body := io.LimitReader(&blankLines{}, tc.size)
			rec := ingestRecorded(t, h, "cap", tc.contentType, body, tc.length)
			var env struct {
				Error struct {
					Code apiCode `json:"code"`
				} `json:"error"`
			}
			if err := json.NewDecoder(rec.Body).Decode(&env); err != nil {
				t.Fatal(err)
			}
			if rec.Code != tc.status || env.Error.Code != tc.code {
				t.Fatalf("status %d code %q, want %d %q", rec.Code, env.Error.Code, tc.status, tc.code)
			}
			if c.Len() != 1 {
				t.Fatalf("collection holds %d records after a rejected body, want 1", c.Len())
			}
		})
	}
}

// TestIngestEmptyBatchIDs checks that an empty row array answers "ids": []
// — a list, never null — like every other list in the API.
func TestIngestEmptyBatchIDs(t *testing.T) {
	s, err := New()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Create(CollectionSpec{Name: "empty", Attrs: []string{"name"}, Q: 2, K: 2, L: 8, Seed: 1}); err != nil {
		t.Fatal(err)
	}
	rec := ingestRecorded(t, s.Handler(), "empty", "application/json", strings.NewReader("[]"), 2)
	if rec.Code != 200 {
		t.Fatalf("status %d: %s", rec.Code, rec.Body)
	}
	if got := strings.TrimSpace(rec.Body.String()); got != `{"count":0,"ids":[]}` {
		t.Fatalf("empty batch answered %s, want {\"count\":0,\"ids\":[]}", got)
	}
}

// TestDefaultShardsClamped checks that an inherited server default shard
// count is clamped to the collection's table count instead of rejecting a
// spec that never asked for sharding; an explicit excess still fails.
func TestDefaultShardsClamped(t *testing.T) {
	s, err := New(WithDefaultShards(4))
	if err != nil {
		t.Fatal(err)
	}
	c, err := s.Create(CollectionSpec{Name: "tiny", Attrs: []string{"a"}, Q: 2, K: 2, L: 2})
	if err != nil {
		t.Fatalf("small-l spec rejected under inherited default shards: %v", err)
	}
	if got := c.Stats().Shards; got != 2 {
		t.Errorf("clamped shard count %d, want 2", got)
	}
	if _, err := s.Create(CollectionSpec{Name: "tiny2", Attrs: []string{"a"}, Q: 2, K: 2, L: 2, Shards: 4}); err == nil {
		t.Error("explicit shards > l accepted")
	}
}

// TestHTTPConcurrentMultiTenantIngest hammers several collections from
// several goroutines each and checks per-tenant isolation and batch parity
// of every tenant's final index. Run with -race in CI.
func TestHTTPConcurrentMultiTenantIngest(t *testing.T) {
	_, rows := coraFixture(t, 240)
	s, err := New(WithDefaultShards(2))
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	cl := ts.Client()

	const tenants = 3
	const writers = 4
	for i := 0; i < tenants; i++ {
		spec := baseSpec(fmt.Sprintf("tenant%d", i), 0) // inherit default shards
		spec.Seed = int64(i + 1)
		if _, err := s.Create(spec); err != nil {
			t.Fatal(err)
		}
	}

	var wg sync.WaitGroup
	errCh := make(chan error, tenants*writers)
	for i := 0; i < tenants; i++ {
		url := fmt.Sprintf("%s/v1/collections/tenant%d/records", ts.URL, i)
		for w := 0; w < writers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				// Each writer POSTs its stride of the rows as JSONL batches.
				var buf bytes.Buffer
				for j := w; j < len(rows); j += writers {
					line, err := json.Marshal(map[string]any{"entity": rows[j].Entity, "attrs": rows[j].Attrs})
					if err != nil {
						errCh <- err
						return
					}
					buf.Write(line)
					buf.WriteByte('\n')
				}
				resp, err := cl.Post(url, "application/x-ndjson", &buf)
				if err != nil {
					errCh <- err
					return
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode != 200 {
					errCh <- fmt.Errorf("ingest status %d", resp.StatusCode)
				}
			}(w)
		}
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}

	for i := 0; i < tenants; i++ {
		c, ok := s.Collection(fmt.Sprintf("tenant%d", i))
		if !ok {
			t.Fatalf("tenant%d missing", i)
		}
		if c.Len() != len(rows) {
			t.Fatalf("tenant%d holds %d records, want %d", i, c.Len(), len(rows))
		}
		// Records arrived in nondeterministic order; parity must hold
		// against a batch run over the order the collection recorded.
		cfg, err := c.Spec().buildConfig()
		if err != nil {
			t.Fatal(err)
		}
		blocker, err := lsh.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		want, err := blocker.Block(c.Dataset())
		if err != nil {
			t.Fatal(err)
		}
		snapPairs := c.Snapshot().CandidatePairs()
		wantPairs := want.CandidatePairs()
		if snapPairs.Len() != wantPairs.Len() || snapPairs.Intersect(wantPairs) != wantPairs.Len() {
			t.Fatalf("tenant%d snapshot has %d pairs, batch %d (overlap %d)",
				i, snapPairs.Len(), wantPairs.Len(), snapPairs.Intersect(wantPairs))
		}
	}
}
