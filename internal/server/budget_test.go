package server

import (
	"context"
	"fmt"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"
)

// resolveReq is the matcher config shared by the budget tests.
func budgetResolveReq() ResolveRequest {
	return ResolveRequest{
		Match:     []MatchAttr{{Attr: "title", Weight: 0.6}, {Attr: "authors", Weight: 0.4}},
		Threshold: 0.55,
		Pruning:   &PruneSpec{Scheme: "CBS", Algo: "WEP"},
	}
}

// TestResolveBudgetParityShards is the serving half of the budget-parity
// acceptance test: an unlimited budget reproduces the exhaustive Resolve
// output exactly, across shard counts 1 and 8.
func TestResolveBudgetParityShards(t *testing.T) {
	_, rows := coraFixture(t, 300)
	for _, shards := range []int{1, 8} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			c, err := newCollection(baseSpec("parity", shards))
			if err != nil {
				t.Fatal(err)
			}
			if _, err := c.Ingest(rows); err != nil {
				t.Fatal(err)
			}
			want, err := c.ResolveContext(context.Background(), budgetResolveReq())
			if err != nil {
				t.Fatal(err)
			}
			if want.Stats.Truncated {
				t.Fatal("exhaustive resolve reports truncation")
			}
			req := budgetResolveReq()
			req.Budget = 1 << 40
			got, err := c.ResolveContext(context.Background(), req)
			if err != nil {
				t.Fatal(err)
			}
			if got.Stats.Truncated {
				t.Error("unlimited budget reported truncation")
			}
			if !reflect.DeepEqual(got.Matches, want.Matches) {
				t.Errorf("matches differ: %d budgeted vs %d exhaustive",
					len(got.Matches), len(want.Matches))
			}
			if !reflect.DeepEqual(got.Resolution.Clusters, want.Resolution.Clusters) {
				t.Error("clustering differs between budgeted and exhaustive resolve")
			}
			if got.Stats.ComparisonsUsed != want.Stats.ComparisonsUsed {
				t.Errorf("used %d comparisons, exhaustive %d",
					got.Stats.ComparisonsUsed, want.Stats.ComparisonsUsed)
			}
		})
	}
}

// TestResolveBudgetTruncates checks a partial budget spends exactly the
// budget and flags truncation, and that negative budgets are rejected.
func TestResolveBudgetTruncates(t *testing.T) {
	_, rows := coraFixture(t, 300)
	c, err := newCollection(baseSpec("trunc", 2))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Ingest(rows); err != nil {
		t.Fatal(err)
	}
	full, err := c.ResolveContext(context.Background(), budgetResolveReq())
	if err != nil {
		t.Fatal(err)
	}
	req := budgetResolveReq()
	req.Budget = full.Stats.PrunedComparisons / 4
	if req.Budget == 0 {
		t.Fatal("fixture too small for a 25% budget")
	}
	res, err := c.ResolveContext(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Stats.Truncated || res.Stats.ComparisonsUsed != req.Budget {
		t.Errorf("25%% budget: truncated=%v used=%d, want true/%d",
			res.Stats.Truncated, res.Stats.ComparisonsUsed, req.Budget)
	}

	for name, bad := range map[string]ResolveRequest{
		"neg-budget":   {Match: budgetResolveReq().Match, Threshold: 0.55, Budget: -1},
		"neg-deadline": {Match: budgetResolveReq().Match, Threshold: 0.55, DeadlineMS: -5},
	} {
		if _, err := c.ResolveContext(context.Background(), bad); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

// TestHTTPResolveBudgetDeadline is the satellite deadline test: POST
// /resolve with deadline_ms returns a well-formed truncated 200 response —
// never a 500 or a hung handler — and a comparison budget is honoured and
// reported on the wire.
func TestHTTPResolveBudgetDeadline(t *testing.T) {
	s, err := New()
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	cl := ts.Client()

	c, err := s.Create(baseSpec("pubs", 2))
	if err != nil {
		t.Fatal(err)
	}
	_, rows := coraFixture(t, 300)
	if _, err := c.Ingest(rows); err != nil {
		t.Fatal(err)
	}
	base := ts.URL + "/v1/collections/pubs"

	var resolve struct {
		NumMatches      int   `json:"num_matches"`
		NumClusters     int   `json:"num_clusters"`
		ComparisonsUsed int64 `json:"comparisons_used"`
		Truncated       bool  `json:"budget_truncated"`
	}
	// Exhaustive baseline: the response must now carry the budget fields.
	req := `{"match":[{"attr":"title","weight":0.6},{"attr":"authors","weight":0.4}],"threshold":0.55,"pruning":{"scheme":"CBS","algo":"WEP"}}`
	if code := doJSON(t, cl, "POST", base+"/resolve", strings.NewReader(req), "application/json", &resolve); code != 200 {
		t.Fatalf("exhaustive resolve status %d", code)
	}
	if resolve.Truncated || resolve.ComparisonsUsed == 0 {
		t.Fatalf("exhaustive resolve %+v, want untruncated with comparisons_used set", resolve)
	}
	exhaustiveUsed := resolve.ComparisonsUsed

	// Comparison budget on the wire: 25% of the exhaustive comparisons.
	budget := exhaustiveUsed / 4
	req = fmt.Sprintf(`{"match":[{"attr":"title","weight":0.6},{"attr":"authors","weight":0.4}],"threshold":0.55,"pruning":{"scheme":"CBS","algo":"WEP"},"budget":%d}`, budget)
	if code := doJSON(t, cl, "POST", base+"/resolve", strings.NewReader(req), "application/json", &resolve); code != 200 {
		t.Fatalf("budgeted resolve status %d", code)
	}
	if !resolve.Truncated || resolve.ComparisonsUsed != budget {
		t.Errorf("budgeted resolve %+v, want truncated with comparisons_used=%d", resolve, budget)
	}
	if resolve.NumClusters == 0 {
		t.Error("budgeted resolve returned no clustering")
	}

	// A 1ms deadline trips long before the matching stage finishes; the
	// handler must still answer 200 with a truncated best-first prefix.
	req = `{"match":[{"attr":"title","weight":0.6},{"attr":"authors","weight":0.4}],"threshold":0.55,"deadline_ms":1}`
	if code := doJSON(t, cl, "POST", base+"/resolve", strings.NewReader(req), "application/json", &resolve); code != 200 {
		t.Fatalf("deadline resolve status %d, want 200", code)
	}
	if !resolve.Truncated {
		t.Error("1ms deadline did not report truncation")
	}
	if resolve.ComparisonsUsed >= exhaustiveUsed {
		t.Errorf("deadline resolve used %d comparisons, exhaustive pruned run used %d",
			resolve.ComparisonsUsed, exhaustiveUsed)
	}

	// Invalid budgets are a 400, not a 500.
	req = `{"match":[{"attr":"title"}],"threshold":0.5,"budget":-2}`
	if code := doJSON(t, cl, "POST", base+"/resolve", strings.NewReader(req), "application/json", nil); code != 400 {
		t.Errorf("negative budget status %d, want 400", code)
	}
}

// TestPersistLockDeleteRecreate hammers checkpoint against delete+recreate
// of the same name: the per-collection persist lock must serialise the two
// so deleted data is never resurrected, and the tombstone protocol must
// hand waiters over to the recreated collection's fresh lock.
func TestPersistLockDeleteRecreate(t *testing.T) {
	dir := t.TempDir()
	s, err := New(WithDataDir(dir))
	if err != nil {
		t.Fatal(err)
	}
	_, rows := coraFixture(t, 40)
	mk := func() {
		c, err := s.Create(baseSpec("churn", 2))
		if err != nil {
			t.Error(err)
			return
		}
		if _, err := c.Ingest(rows); err != nil {
			t.Error(err)
		}
	}
	mk()

	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i := 0; i < 25; i++ {
			// Errors are fine (the collection may be mid-delete); panics or
			// resurrection are not.
			_ = s.Checkpoint()
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < 25; i++ {
			_ = s.Delete("churn")
			mk()
		}
	}()
	wg.Wait()

	// Final delete: once it returns, no straggler may bring the data back.
	if err := s.Delete("churn"); err != nil {
		t.Fatal(err)
	}
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Collection("churn"); ok {
		t.Fatal("collection resurrected after delete")
	}
}
