package server

import (
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"semblock/internal/record"
	"semblock/internal/stream"
)

// copyDir duplicates a collection directory into a fresh temp dir, so a
// test can keep the uncompacted chain as a control while compacting the
// original.
func copyDir(t *testing.T, src string) string {
	t.Helper()
	dst := t.TempDir()
	entries, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if e.IsDir() {
			t.Fatalf("unexpected subdirectory %s in collection dir", e.Name())
		}
		raw, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), raw, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dst
}

// buildChain ingests rows in three checkpointed batches, draining once in
// the middle so the durable cursor is strictly between 0 and the full pair
// count. It returns the live collection, its directory and the pairs
// delivered before the final checkpoint.
func buildChain(t *testing.T, name string, rows []stream.Row) (*Collection, string, []record.Pair) {
	t.Helper()
	dir := t.TempDir()
	c, err := newCollection(baseSpec(name, 2))
	if err != nil {
		t.Fatal(err)
	}
	third := len(rows) / 3
	var delivered []record.Pair
	for i, batch := range [][]stream.Row{rows[:third], rows[third : 2*third], rows[2*third:]} {
		if _, err := c.Ingest(batch); err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			delivered = c.Candidates()
			if len(delivered) == 0 {
				t.Fatal("first batch drained nothing; fixture too small")
			}
		}
		if err := c.Save(dir); err != nil {
			t.Fatal(err)
		}
	}
	return c, dir, delivered
}

// dirNames lists the plain files of a directory, sorted.
func dirNames(t *testing.T, dir string) []string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	names := make([]string, 0, len(entries))
	for _, e := range entries {
		names = append(names, e.Name())
	}
	return names
}

func samePairs(a, b []record.Pair) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestCompactParity is the acceptance-criterion test: after compaction,
// restore-on-boot replays only the compacted generation and reproduces the
// identical snapshot and the identical undelivered-pair sequence the
// uncompacted chain produces.
func TestCompactParity(t *testing.T) {
	_, rows := coraFixture(t, 240)
	c, dir, delivered := buildChain(t, "cparity", rows)
	control := copyDir(t, dir) // the uncompacted chain

	res, err := c.Compact(dir)
	if err != nil {
		t.Fatal(err)
	}
	if res.Generation != 1 || res.SegmentsBefore != 3 || res.SegmentsAfter != 1 {
		t.Fatalf("compaction result %+v, want generation 1 squashing 3 segments into 1", res)
	}
	if res.Records != len(rows) || res.Drained != len(delivered) {
		t.Fatalf("compaction covered %d records / cursor %d, want %d / %d",
			res.Records, res.Drained, len(rows), len(delivered))
	}
	// The old generation is swept: only the manifest and the compacted
	// segment remain (ReadDir returns sorted names).
	if got, want := dirNames(t, dir), []string{manifestFile, segmentName(1, 1)}; len(got) != 2 || got[0] != want[0] || got[1] != want[1] {
		t.Fatalf("compacted dir holds %v, want %v", got, want)
	}

	fromCompacted, err := LoadCollection(dir)
	if err != nil {
		t.Fatal(err)
	}
	fromChain, err := LoadCollection(control)
	if err != nil {
		t.Fatal(err)
	}
	if fromCompacted.Len() != fromChain.Len() || fromCompacted.PairCount() != fromChain.PairCount() {
		t.Fatalf("compacted restore: %d records / %d pairs, chain restore: %d / %d",
			fromCompacted.Len(), fromCompacted.PairCount(), fromChain.Len(), fromChain.PairCount())
	}
	if got, want := canonical(fromCompacted.Snapshot().Blocks), canonical(fromChain.Snapshot().Blocks); !sameCanonical(got, want) {
		t.Fatalf("compacted restore snapshot differs from chain restore: %d vs %d blocks", len(got), len(want))
	}
	gotSeq, wantSeq := fromCompacted.Candidates(), fromChain.Candidates()
	if !samePairs(gotSeq, wantSeq) {
		t.Fatalf("undelivered-pair sequence differs after compaction: %d vs %d pairs", len(gotSeq), len(wantSeq))
	}
	// And neither restore redelivers what was drained before the compaction.
	seen := record.NewPairSet(len(delivered))
	for _, p := range delivered {
		seen.AddPair(p)
	}
	for _, p := range gotSeq {
		if _, dup := seen[p]; dup {
			t.Fatalf("pair (%d,%d) redelivered after compaction", p.Left(), p.Right())
		}
	}
	if fromCompacted.Stats().Generation != 1 {
		t.Errorf("restored generation %d, want 1", fromCompacted.Stats().Generation)
	}
}

// TestCompactCrashAtEveryStep injects a crash at every compaction step and
// checks the directory stays loadable with the exact pre-compaction state —
// either the old or the new generation, never a mix.
func TestCompactCrashAtEveryStep(t *testing.T) {
	_, rows := coraFixture(t, 210)
	for _, step := range []compactStep{compactStepSegment, compactStepManifest} {
		t.Run(string(step), func(t *testing.T) {
			c, dir, _ := buildChain(t, "crash"+string(step[:3]), rows)
			control := copyDir(t, dir)

			compactCrash = func(s compactStep) error {
				if s == step {
					return fmt.Errorf("injected crash at %s", s)
				}
				return nil
			}
			defer func() { compactCrash = nil }()
			if _, err := c.Compact(dir); err == nil || !strings.Contains(err.Error(), "injected crash") {
				t.Fatalf("compaction survived the injected crash: %v", err)
			}
			compactCrash = nil

			// The dir must load — and restore the same logical state as the
			// untouched control chain, debris notwithstanding.
			var warnings []string
			warnf = func(format string, args ...any) {
				warnings = append(warnings, fmt.Sprintf(format, args...))
			}
			defer func() { warnf = slogWarnf }()
			crashed, err := LoadCollection(dir)
			if err != nil {
				t.Fatalf("crashed dir not loadable: %v", err)
			}
			warnf = slogWarnf
			fromChain, err := LoadCollection(control)
			if err != nil {
				t.Fatal(err)
			}
			if crashed.Len() != fromChain.Len() {
				t.Fatalf("crashed restore has %d records, control %d", crashed.Len(), fromChain.Len())
			}
			if got, want := canonical(crashed.Snapshot().Blocks), canonical(fromChain.Snapshot().Blocks); !sameCanonical(got, want) {
				t.Fatalf("crashed restore snapshot differs from control")
			}
			if got, want := crashed.Candidates(), fromChain.Candidates(); !samePairs(got, want) {
				t.Fatalf("crashed restore delivers %d pairs, control %d", len(got), len(want))
			}
			// The crash left unreferenced debris; the load names it.
			if len(warnings) == 0 || !strings.Contains(strings.Join(warnings, "\n"), ErrOrphanFile.Error()) {
				t.Errorf("crash debris not reported via ErrOrphanFile; warnings: %q", warnings)
			}

			// A compaction after the crash-restart completes and sweeps every
			// orphan the crash left behind.
			res, err := crashed.Compact(dir)
			if err != nil {
				t.Fatal(err)
			}
			if got, want := dirNames(t, dir), []string{manifestFile, segmentName(res.Generation, 1)}; len(got) != 2 || got[0] != want[0] || got[1] != want[1] {
				t.Fatalf("post-crash compaction left %v, want exactly %v", got, want)
			}
			if _, err := LoadCollection(dir); err != nil {
				t.Fatalf("dir not loadable after post-crash compaction: %v", err)
			}
		})
	}
}

// TestCompactLifecycle exercises the edge states: compacting an empty
// collection, re-compacting an already-compacted chain, and checkpointing
// on top of a compacted generation.
func TestCompactLifecycle(t *testing.T) {
	_, rows := coraFixture(t, 120)
	dir := t.TempDir()
	c, err := newCollection(baseSpec("lifecycle", 2))
	if err != nil {
		t.Fatal(err)
	}

	// Empty: generation ticks, nothing else.
	res, err := c.Compact(dir)
	if err != nil {
		t.Fatal(err)
	}
	if res.Generation != 1 || res.SegmentsAfter != 0 {
		t.Fatalf("empty compaction %+v, want generation 1 with 0 segments", res)
	}
	if restored, err := LoadCollection(dir); err != nil || restored.Len() != 0 {
		t.Fatalf("empty compacted dir: %v (records %d)", err, restored.Len())
	}

	// Ingest + checkpoint on top of a compacted generation: the new segment
	// joins the compacted one under the same generation.
	if _, err := c.Ingest(rows[:80]); err != nil {
		t.Fatal(err)
	}
	if err := c.Save(dir); err != nil {
		t.Fatal(err)
	}
	if got := c.Stats(); got.Segments != 1 || got.Generation != 1 {
		t.Fatalf("after save on generation 1: %+v", got)
	}
	if _, err := c.Ingest(rows[80:]); err != nil {
		t.Fatal(err)
	}
	if err := c.Save(dir); err != nil {
		t.Fatal(err)
	}

	// Re-compaction squashes again and bumps the generation.
	res, err = c.Compact(dir)
	if err != nil {
		t.Fatal(err)
	}
	if res.Generation != 2 || res.SegmentsBefore != 2 || res.SegmentsAfter != 1 {
		t.Fatalf("re-compaction %+v, want generation 2 squashing 2 segments", res)
	}
	restored, err := LoadCollection(dir)
	if err != nil {
		t.Fatal(err)
	}
	if restored.Len() != len(rows) {
		t.Fatalf("restored %d records, want %d", restored.Len(), len(rows))
	}
	if got, want := canonical(restored.Snapshot().Blocks), canonical(c.Snapshot().Blocks); !sameCanonical(got, want) {
		t.Fatal("restored snapshot differs after re-compaction")
	}
}

// TestCompactConcurrentIngest compacts while ingest batches keep landing:
// the rewrite must neither lose records (the compacted generation covers a
// consistent prefix) nor corrupt the chain for the records that follow.
func TestCompactConcurrentIngest(t *testing.T) {
	_, rows := coraFixture(t, 200)
	dir := t.TempDir()
	c, err := newCollection(baseSpec("concingest", 2))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Ingest(rows[:100]); err != nil {
		t.Fatal(err)
	}
	if err := c.Save(dir); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for lo := 100; lo < len(rows); lo += 10 {
			hi := lo + 10
			if hi > len(rows) {
				hi = len(rows)
			}
			if _, err := c.Ingest(rows[lo:hi]); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	if _, err := c.Compact(dir); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	// A final checkpoint seals whatever landed after the compaction cut.
	if err := c.Save(dir); err != nil {
		t.Fatal(err)
	}
	restored, err := LoadCollection(dir)
	if err != nil {
		t.Fatal(err)
	}
	if restored.Len() != len(rows) {
		t.Fatalf("restored %d records, want %d", restored.Len(), len(rows))
	}
	if got, want := canonical(restored.Snapshot().Blocks), canonical(c.Snapshot().Blocks); !sameCanonical(got, want) {
		t.Fatal("restored snapshot differs from live collection")
	}
}

// TestAutoCompaction drives the server checkpoint loop across the
// MaxSegments threshold and watches the chain get squashed in place.
func TestAutoCompaction(t *testing.T) {
	_, rows := coraFixture(t, 180)
	dir := t.TempDir()
	s, err := New(WithDataDir(dir), WithCompaction(CompactionPolicy{MaxSegments: 2}))
	if err != nil {
		t.Fatal(err)
	}
	c, err := s.Create(baseSpec("auto", 2))
	if err != nil {
		t.Fatal(err)
	}
	for lo := 0; lo < len(rows); lo += 60 {
		if _, err := c.Ingest(rows[lo : lo+60]); err != nil {
			t.Fatal(err)
		}
		if err := s.Checkpoint(); err != nil {
			t.Fatal(err)
		}
	}
	// Three checkpointed batches crossed MaxSegments=2; the next checkpoint
	// pass must compact *instead of* appending another segment (compaction
	// subsumes the checkpoint): the chain is short again and a generation
	// was burned.
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	st := c.Stats()
	if st.Generation == 0 || st.Segments > 2 {
		t.Fatalf("auto-compaction never fired: %+v", st)
	}
	if st.PersistedRecords != len(rows) {
		t.Fatalf("persisted %d records, want %d", st.PersistedRecords, len(rows))
	}
	var buf strings.Builder
	s.writeMetrics(&buf)
	if !strings.Contains(buf.String(), "semblock_compactions_total 1") {
		t.Errorf("metrics do not count the compaction:\n%s", grepMetrics(buf.String(), "compact"))
	}
	if !strings.Contains(buf.String(), fmt.Sprintf("semblock_collection_generation{collection=%q} %d", "auto", st.Generation)) {
		t.Errorf("metrics miss the generation gauge:\n%s", grepMetrics(buf.String(), "generation"))
	}

	// Restore-on-boot from the compacted chain.
	s2, err := New(WithDataDir(dir))
	if err != nil {
		t.Fatal(err)
	}
	restored, ok := s2.Collection("auto")
	if !ok || restored.Len() != len(rows) {
		t.Fatalf("restore after auto-compaction: ok=%v records=%d", ok, restored.Len())
	}
	if got, want := canonical(restored.Snapshot().Blocks), canonical(c.Snapshot().Blocks); !sameCanonical(got, want) {
		t.Fatal("restored snapshot differs after auto-compaction")
	}
}

func grepMetrics(metrics, substr string) string {
	var out []string
	for _, line := range strings.Split(metrics, "\n") {
		if strings.Contains(line, substr) {
			out = append(out, line)
		}
	}
	return strings.Join(out, "\n")
}

// TestCompactionPolicyByteTriggerRearms pins the MaxBytes semantics: the
// trigger measures the tail appended since the last compaction, so a
// freshly compacted chain — whose total size never shrinks below the log
// itself — does not re-trigger on every subsequent checkpoint.
func TestCompactionPolicyByteTriggerRearms(t *testing.T) {
	_, rows := coraFixture(t, 120)
	dir := t.TempDir()
	c, err := newCollection(baseSpec("rearm", 1))
	if err != nil {
		t.Fatal(err)
	}
	policy := CompactionPolicy{MaxBytes: 1} // any tail at all crosses it
	if _, err := c.Ingest(rows[:80]); err != nil {
		t.Fatal(err)
	}
	if err := c.Save(dir); err != nil {
		t.Fatal(err)
	}
	// Never-compacted chain: the whole chain is the tail, even a single
	// segment — there is no compacted base to exclude yet.
	if !c.needsCompaction(policy) {
		t.Fatalf("byte trigger ignored a generation-0 chain (stats %+v)", c.Stats())
	}
	if _, err := c.Compact(dir); err != nil {
		t.Fatal(err)
	}
	if c.needsCompaction(policy) {
		t.Fatalf("byte trigger fired on a tail-less compacted chain (stats %+v)", c.Stats())
	}
	if _, err := c.Ingest(rows[80:]); err != nil {
		t.Fatal(err)
	}
	if err := c.Save(dir); err != nil {
		t.Fatal(err)
	}
	if !c.needsCompaction(policy) {
		t.Fatalf("byte trigger missed an appended tail (stats %+v)", c.Stats())
	}
	if _, err := c.Compact(dir); err != nil {
		t.Fatal(err)
	}
	if c.needsCompaction(policy) {
		t.Fatal("byte trigger did not re-arm after the compaction")
	}

	// An empty compaction writes no base segment; the first segment a later
	// checkpoint appends is ordinary data and must count toward the tail.
	dir2 := t.TempDir()
	c2, err := newCollection(baseSpec("rearm2", 1))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c2.Compact(dir2); err != nil {
		t.Fatal(err)
	}
	if _, err := c2.Ingest(rows[:40]); err != nil {
		t.Fatal(err)
	}
	if err := c2.Save(dir2); err != nil {
		t.Fatal(err)
	}
	if !c2.needsCompaction(policy) {
		t.Fatalf("byte trigger excluded an ordinary first segment after an empty compaction (stats %+v)", c2.Stats())
	}
}

// TestDrainCandidatesPanicRequeues pins the panic path: a deliver callback
// that panics (net/http swallows handler panics, so the process keeps
// serving) must count as a failed delivery — pairs requeued, the in-flight
// count released — not as a silent loss.
func TestDrainCandidatesPanicRequeues(t *testing.T) {
	_, rows := coraFixture(t, 120)
	c, err := newCollection(baseSpec("panic", 2))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Ingest(rows); err != nil {
		t.Fatal(err)
	}
	before := c.Stats()
	if before.PendingPairs == 0 {
		t.Fatal("nothing pending; fixture too small")
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("panic did not propagate out of DrainConsumer")
			}
		}()
		_, _ = c.DrainConsumer(DefaultConsumer, func(ConsumerBatch) error { panic("connection handler died") })
	}()
	after := c.Stats()
	if after.PendingPairs != before.PendingPairs {
		t.Fatalf("after the panic %d pairs pending, want all %d requeued", after.PendingPairs, before.PendingPairs)
	}
	if after.DrainedPairs != 0 {
		t.Fatalf("drain cursor leaked %d pairs through the panicked delivery", after.DrainedPairs)
	}
	// The drain slot is free again and a clean delivery succeeds.
	if _, err := c.DrainConsumer(DefaultConsumer, func(ConsumerBatch) error { return nil }); err != nil {
		t.Fatal(err)
	}
	if got := c.Stats(); got.DrainedPairs != got.Pairs {
		t.Fatalf("post-panic drain delivered %d of %d pairs", got.DrainedPairs, got.Pairs)
	}
}

// TestCompactCollectionNeedsDataDir pins the guard on the exported method:
// compacting through an in-memory server must refuse instead of writing a
// collection directory into the process CWD.
func TestCompactCollectionNeedsDataDir(t *testing.T) {
	s, err := New()
	if err != nil {
		t.Fatal(err)
	}
	c, err := s.Create(CollectionSpec{Name: "mem", Attrs: []string{"name"}, Q: 2, K: 2, L: 4})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.CompactCollection(c); err == nil || !strings.Contains(err.Error(), "data dir") {
		t.Fatalf("CompactCollection without a data dir: %v", err)
	}
	if _, err := os.Stat("mem"); !os.IsNotExist(err) {
		t.Fatal("CompactCollection scribbled a directory into the CWD")
	}
}

// TestCompactEndpoint drives POST /v1/collections/{name}/compact, including
// the no-data-dir refusal.
func TestCompactEndpoint(t *testing.T) {
	dir := t.TempDir()
	s, err := New(WithDataDir(dir))
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	cl := ts.Client()

	spec := `{"name":"pubs","attrs":["name"],"q":2,"k":2,"l":8,"seed":1,"shards":2}`
	if code := doJSON(t, cl, "POST", ts.URL+"/v1/collections", strings.NewReader(spec), "application/json", nil); code != 201 {
		t.Fatalf("create status %d", code)
	}
	rowsBody := "{\"attrs\":{\"name\":\"robert smith\"}}\n{\"attrs\":{\"name\":\"robert smyth\"}}\n"
	if code := doJSON(t, cl, "POST", ts.URL+"/v1/collections/pubs/records", strings.NewReader(rowsBody), "application/x-ndjson", nil); code != 200 {
		t.Fatalf("ingest status %d", code)
	}
	var out struct {
		Compaction CompactionResult `json:"compaction"`
		Stats      Stats            `json:"stats"`
	}
	if code := doJSON(t, cl, "POST", ts.URL+"/v1/collections/pubs/compact", nil, "", &out); code != 200 {
		t.Fatalf("compact status %d", code)
	}
	if out.Compaction.Generation != 1 || out.Compaction.Records != 2 {
		t.Fatalf("compact response %+v", out.Compaction)
	}
	if out.Stats.Segments != 1 || out.Stats.Generation != 1 || out.Stats.PersistedRecords != 2 {
		t.Fatalf("post-compaction stats %+v", out.Stats)
	}
	if code := doJSON(t, cl, "POST", ts.URL+"/v1/collections/ghost/compact", nil, "", nil); code != 404 {
		t.Errorf("compact of missing collection: status %d, want 404", code)
	}

	noDisk, err := New()
	if err != nil {
		t.Fatal(err)
	}
	ts2 := httptest.NewServer(noDisk.Handler())
	defer ts2.Close()
	if code := doJSON(t, ts2.Client(), "POST", ts2.URL+"/v1/collections", strings.NewReader(spec), "application/json", nil); code != 201 {
		t.Fatal("create on diskless server failed")
	}
	if code := doJSON(t, ts2.Client(), "POST", ts2.URL+"/v1/collections/pubs/compact", nil, "", nil); code != 409 {
		t.Errorf("compact without data dir: status %d, want 409", code)
	}
}

// TestLoadCollectionLogsOrphans pins the unknown-file fix: stray files in a
// collection directory are logged with ErrOrphanFile and skipped, and the
// next compaction sweeps them.
func TestLoadCollectionLogsOrphans(t *testing.T) {
	_, rows := coraFixture(t, 90)
	dir := t.TempDir()
	c, err := newCollection(baseSpec("orphans", 1))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Ingest(rows); err != nil {
		t.Fatal(err)
	}
	if err := c.Save(dir); err != nil {
		t.Fatal(err)
	}
	for _, junk := range []string{segmentName(9, 1), ".tmp-crashed"} {
		if err := os.WriteFile(filepath.Join(dir, junk), []byte("{}\n"), 0o644); err != nil {
			t.Fatal(err)
		}
	}

	var warnings []string
	warnf = func(format string, args ...any) {
		warnings = append(warnings, fmt.Sprintf(format, args...))
	}
	defer func() { warnf = slogWarnf }()
	restored, err := LoadCollection(dir)
	if err != nil {
		t.Fatal(err)
	}
	warnf = slogWarnf
	if restored.Len() != len(rows) {
		t.Fatalf("restored %d records, want %d", restored.Len(), len(rows))
	}
	joined := strings.Join(warnings, "\n")
	for _, junk := range []string{segmentName(9, 1), ".tmp-crashed"} {
		if !strings.Contains(joined, junk) || !strings.Contains(joined, ErrOrphanFile.Error()) {
			t.Errorf("orphan %s not reported; warnings: %q", junk, warnings)
		}
	}

	if _, err := restored.Compact(dir); err != nil {
		t.Fatal(err)
	}
	names := dirNames(t, dir)
	if len(names) != 2 {
		t.Fatalf("compaction left %v, want manifest + one segment", names)
	}
}

// TestManifestRejectsNegativeGeneration mirrors the negative-cursor guard.
func TestManifestRejectsNegativeGeneration(t *testing.T) {
	_, rows := coraFixture(t, 40)
	dir := t.TempDir()
	c, err := newCollection(baseSpec("neggen", 1))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Ingest(rows); err != nil {
		t.Fatal(err)
	}
	if err := c.Save(dir); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, manifestFile)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var m map[string]any
	if err := json.Unmarshal(raw, &m); err != nil {
		t.Fatal(err)
	}
	m["generation"] = -1
	bad, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, bad, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadCollection(dir); err == nil || !strings.Contains(err.Error(), "generation") {
		t.Fatalf("negative generation accepted: %v", err)
	}
}
