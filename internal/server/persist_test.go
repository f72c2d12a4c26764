package server

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"semblock/internal/lsh"
	"semblock/internal/record"
)

// TestSaveLoadIdenticalSnapshot checkpoints twice (two segments) and checks
// the restored collection reproduces the identical snapshot and candidate
// set.
func TestSaveLoadIdenticalSnapshot(t *testing.T) {
	_, rows := coraFixture(t, 250)
	dir := t.TempDir()
	c, err := newCollection(baseSpec("snap", 3))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Ingest(rows[:150]); err != nil {
		t.Fatal(err)
	}
	if err := c.Save(dir); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Ingest(rows[150:]); err != nil {
		t.Fatal(err)
	}
	if err := c.Save(dir); err != nil {
		t.Fatal(err)
	}
	for _, seg := range []string{"segment-000001.jsonl", "segment-000002.jsonl"} {
		if _, err := os.Stat(filepath.Join(dir, seg)); err != nil {
			t.Fatalf("expected segment %s: %v", seg, err)
		}
	}

	restored, err := LoadCollection(dir)
	if err != nil {
		t.Fatal(err)
	}
	if restored.Len() != c.Len() {
		t.Fatalf("restored %d records, want %d", restored.Len(), c.Len())
	}
	if restored.Spec().Name != c.Spec().Name || restored.Spec().Shards != c.Spec().Shards {
		t.Errorf("restored spec %+v, want %+v", restored.Spec(), c.Spec())
	}
	got, want := canonical(restored.Snapshot().Blocks), canonical(c.Snapshot().Blocks)
	if !sameCanonical(got, want) {
		t.Fatalf("restored snapshot has %d blocks, original %d", len(got), len(want))
	}
	if restored.PairCount() != c.PairCount() {
		t.Errorf("restored PairCount %d, want %d", restored.PairCount(), c.PairCount())
	}
	// Nothing was drained before the checkpoints, so the cursor is zero and
	// the restored drain delivers every pair.
	if drained := restored.Candidates(); len(drained) != restored.PairCount() {
		t.Errorf("restored drain returned %d pairs, want the full %d", len(drained), restored.PairCount())
	}
}

// TestRestoreDrainCursor is the drain-cursor acceptance test: pairs drained
// before a checkpoint are never redelivered after a kill/restart from it,
// and nothing is lost either — every pair of the checkpointed record prefix
// is delivered exactly once across the crash. Runs under -race in CI like
// the rest of the suite.
func TestRestoreDrainCursor(t *testing.T) {
	_, rows := coraFixture(t, 240)
	dir := t.TempDir()
	c, err := newCollection(baseSpec("cursor", 3))
	if err != nil {
		t.Fatal(err)
	}

	// Phase 1: ingest + drain (these deliveries must survive the crash).
	if _, err := c.Ingest(rows[:150]); err != nil {
		t.Fatal(err)
	}
	delivered := c.Candidates()
	if len(delivered) == 0 {
		t.Fatal("phase 1 drained nothing; fixture too small")
	}
	// Phase 2: more records whose pairs are emitted but NOT drained.
	if _, err := c.Ingest(rows[150:200]); err != nil {
		t.Fatal(err)
	}
	if err := c.Save(dir); err != nil {
		t.Fatal(err)
	}
	undelivered := c.PairCount() - len(delivered)
	// Phase 3: records past the checkpoint die with the process.
	if _, err := c.Ingest(rows[200:]); err != nil {
		t.Fatal(err)
	}

	restored, err := LoadCollection(dir)
	if err != nil {
		t.Fatal(err)
	}
	if restored.Len() != 200 {
		t.Fatalf("restored %d records, checkpoint had 200", restored.Len())
	}
	next := restored.Candidates()
	if len(next) != undelivered {
		t.Fatalf("restored drain returned %d pairs, want the %d undelivered at checkpoint", len(next), undelivered)
	}
	deliveredSet := record.NewPairSet(len(delivered))
	for _, p := range delivered {
		deliveredSet.AddPair(p)
	}
	for _, p := range next {
		if _, dup := deliveredSet[p]; dup {
			t.Fatalf("pair (%d,%d) redelivered after restore", p.Left(), p.Right())
		}
		deliveredSet.AddPair(p)
	}
	// Exactly-once across the crash: pre-crash drains plus the restored
	// drain cover the full candidate set of the checkpointed prefix.
	if deliveredSet.Len() != restored.PairCount() {
		t.Fatalf("crash-spanning deliveries cover %d distinct pairs, index emitted %d",
			deliveredSet.Len(), restored.PairCount())
	}
	if got := restored.Stats(); got.DrainedPairs != got.Pairs {
		t.Errorf("after the post-restore drain, DrainedPairs %d != Pairs %d", got.DrainedPairs, got.Pairs)
	}

	// A second checkpoint/restore cycle with everything drained: the next
	// restore must deliver nothing new.
	if err := restored.Save(dir); err != nil {
		t.Fatal(err)
	}
	again, err := LoadCollection(dir)
	if err != nil {
		t.Fatal(err)
	}
	if extra := again.Candidates(); len(extra) != 0 {
		t.Fatalf("fully drained checkpoint redelivered %d pairs after restore", len(extra))
	}
}

// TestDrainCursorExcludesInflight pins the drain-vs-checkpoint race: a
// checkpoint taken while a DrainConsumer hand-off is in flight must not
// count the popped pairs as delivered — if the hand-off then fails and the
// process dies before another checkpoint, the pairs would otherwise be
// skipped on restore and lost forever.
func TestDrainCursorExcludesInflight(t *testing.T) {
	_, rows := coraFixture(t, 150)
	dir := t.TempDir()
	c, err := newCollection(baseSpec("window", 2))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Ingest(rows); err != nil {
		t.Fatal(err)
	}
	popped := 0
	_, derr := c.DrainConsumer(DefaultConsumer, func(b ConsumerBatch) error {
		popped = len(b.Pairs)
		// The periodic checkpoint races the in-flight delivery...
		if err := c.Save(dir); err != nil {
			t.Fatal(err)
		}
		// ...and the delivery then dies mid-write.
		return fmt.Errorf("connection reset")
	})
	if derr == nil {
		t.Fatal("delivery error not propagated")
	}
	if popped == 0 {
		t.Fatal("nothing drained; fixture too small")
	}
	// Live path: the failed hand-off was requeued, nothing lost.
	if got := c.Stats().PendingPairs; got != popped {
		t.Fatalf("after failed delivery %d pairs pending, popped %d", got, popped)
	}
	// Crash path: restore from the mid-flight checkpoint redelivers every
	// pair of the failed hand-off (cursor excluded the in-flight pairs).
	restored, err := LoadCollection(dir)
	if err != nil {
		t.Fatal(err)
	}
	if next := restored.Candidates(); len(next) != popped {
		t.Fatalf("restore redelivered %d pairs, want all %d from the failed hand-off", len(next), popped)
	}

	// A successful delivery does advance the cursor.
	if _, err := c.DrainConsumer(DefaultConsumer, func(ConsumerBatch) error { return nil }); err != nil {
		t.Fatal(err)
	}
	if err := c.Save(dir); err != nil {
		t.Fatal(err)
	}
	restored, err = LoadCollection(dir)
	if err != nil {
		t.Fatal(err)
	}
	if next := restored.Candidates(); len(next) != 0 {
		t.Fatalf("acknowledged pairs redelivered after restore: %d", len(next))
	}
}

// TestRestoreDrainCursorBatchBoundaries replays with segment boundaries
// that differ from the original ingest batches: the canonical emission
// order must make the cursor line up regardless.
func TestRestoreDrainCursorBatchBoundaries(t *testing.T) {
	_, rows := coraFixture(t, 220)
	dir := t.TempDir()
	c, err := newCollection(baseSpec("boundaries", 2))
	if err != nil {
		t.Fatal(err)
	}
	// Uneven ingest batches, draining after each, checkpointing twice so
	// the segment layout (2 segments) differs from the batch layout.
	var delivered []record.Pair
	for lo, step := 0, 7; lo < 180; lo += step {
		hi := lo + step
		if hi > 180 {
			hi = 180
		}
		if _, err := c.Ingest(rows[lo:hi]); err != nil {
			t.Fatal(err)
		}
		delivered = append(delivered, c.Candidates()...)
		if hi == 63 {
			if err := c.Save(dir); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := c.Save(dir); err != nil {
		t.Fatal(err)
	}

	restored, err := LoadCollection(dir)
	if err != nil {
		t.Fatal(err)
	}
	if next := restored.Candidates(); len(next) != 0 {
		t.Fatalf("every pair was drained before the checkpoint, restore redelivered %d", len(next))
	}
	if restored.PairCount() != len(delivered) {
		t.Fatalf("restored PairCount %d, drained %d before the crash", restored.PairCount(), len(delivered))
	}
}

// TestManifestRejectsOtherVersions: LoadCollection reads exactly
// manifestVersion. A checkpoint that is valid in every other respect fails
// to load once its version field says anything else — older (the drain
// cursors in it index another hash family's emission sequence) or newer —
// with an error naming the found and the supported version, and loads again
// once the field is put back.
func TestManifestRejectsOtherVersions(t *testing.T) {
	_, rows := coraFixture(t, 60)
	dir := t.TempDir()
	c, err := newCollection(baseSpec("versions", 2))
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
	load := func(version int) (*Collection, error) {
		t.Helper()
		m["version"] = version
		body, err := json.Marshal(m)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, body, 0o644); err != nil {
			t.Fatal(err)
		}
		return LoadCollection(dir)
	}
	for _, version := range []int{1, 4, manifestVersion + 1} {
		got, err := load(version)
		if got != nil {
			t.Errorf("version %d: LoadCollection returned a collection", version)
		}
		if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("version %d,", version)) ||
			!strings.Contains(err.Error(), fmt.Sprintf("version %d", manifestVersion)) {
			t.Errorf("version %d: err %v, want one naming versions %d and %d", version, err, version, manifestVersion)
		}
	}
	if got, err := load(manifestVersion); err != nil || got.Len() != len(rows) {
		t.Errorf("version %d: err %v, want the %d records back", manifestVersion, err, len(rows))
	}
}

// TestManifestSegmentChecked checks that restore, which streams each
// segment into replay batches, still refuses a segment whose record count
// disagrees with the manifest (including a nonsensical negative count) and
// a segment with an undecodable line, naming the segment either way.
func TestManifestSegmentChecked(t *testing.T) {
	_, rows := coraFixture(t, 60)
	dir := t.TempDir()
	c, err := newCollection(baseSpec("segcheck", 2))
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
	var m manifest
	if err := json.Unmarshal(raw, &m); err != nil {
		t.Fatal(err)
	}
	seg := m.Segments[0].Name
	for _, records := range []int{len(rows) - 1, len(rows) + 1, -1} {
		m.Segments[0].Records = records
		if err := writeManifest(dir, m); err != nil {
			t.Fatal(err)
		}
		if _, err := LoadCollection(dir); err == nil || !strings.Contains(err.Error(), seg) ||
			!strings.Contains(err.Error(), fmt.Sprintf("manifest says %d", records)) {
			t.Errorf("segment count %d: err %v, want one naming %s and the manifest's count", records, err, seg)
		}
	}
	m.Segments[0].Records = len(rows)
	if err := writeManifest(dir, m); err != nil {
		t.Fatal(err)
	}
	if got, err := LoadCollection(dir); err != nil || got.Len() != len(rows) {
		t.Fatalf("restored manifest: err %v, want the %d records back", err, len(rows))
	}
	f, err := os.OpenFile(filepath.Join(dir, seg), os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString("{\"attrs\":{\"title\":1}}\n"); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	want := fmt.Sprintf("jsonl line %d", len(rows)+1)
	if _, err := LoadCollection(dir); err == nil || !strings.Contains(err.Error(), seg) || !strings.Contains(err.Error(), want) {
		t.Errorf("corrupt segment: err %v, want one naming %s and %q", err, seg, want)
	}
}

// TestKillRestartFromCheckpoint is the acceptance-criterion test: a restore
// from the latest checkpoint reproduces the checkpointed state exactly
// (batch-parity by replay), and catching the restored collection up yields
// the same index the uninterrupted collection has.
func TestKillRestartFromCheckpoint(t *testing.T) {
	d, rows := coraFixture(t, 260)
	dir := t.TempDir()
	c, err := newCollection(baseSpec("kill", 2))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Ingest(rows[:160]); err != nil {
		t.Fatal(err)
	}
	if err := c.Save(dir); err != nil {
		t.Fatal(err)
	}
	// Records past the checkpoint die with the process.
	if _, err := c.Ingest(rows[160:]); err != nil {
		t.Fatal(err)
	}

	restored, err := LoadCollection(dir)
	if err != nil {
		t.Fatal(err)
	}
	if restored.Len() != 160 {
		t.Fatalf("restored %d records, checkpoint had 160", restored.Len())
	}
	// The restored snapshot equals a batch Block over the checkpointed
	// record prefix.
	cfg, err := baseSpec("kill", 2).buildConfig()
	if err != nil {
		t.Fatal(err)
	}
	blocker, err := lsh.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	want, err := blocker.Block(d.Subset(160))
	if err != nil {
		t.Fatal(err)
	}
	if got, w := canonical(restored.Snapshot().Blocks), canonical(want.Blocks); !sameCanonical(got, w) {
		t.Fatalf("restored snapshot differs from batch over the checkpointed prefix: %d vs %d blocks", len(got), len(w))
	}

	// Re-ingesting the lost tail reproduces the uninterrupted index.
	if _, err := restored.Ingest(rows[160:]); err != nil {
		t.Fatal(err)
	}
	if got, w := canonical(restored.Snapshot().Blocks), canonical(c.Snapshot().Blocks); !sameCanonical(got, w) {
		t.Fatalf("caught-up snapshot differs from the uninterrupted collection: %d vs %d blocks", len(got), len(w))
	}
}

// TestServerRestoreOnBoot round-trips two collections through a server
// restart and exercises Create-persists-config and Delete-removes-data.
func TestServerRestoreOnBoot(t *testing.T) {
	_, rows := coraFixture(t, 120)
	dir := t.TempDir()
	s1, err := New(WithDataDir(dir), WithDefaultShards(2))
	if err != nil {
		t.Fatal(err)
	}
	a, err := s1.Create(baseSpec("alpha", 2))
	if err != nil {
		t.Fatal(err)
	}
	spec := CollectionSpec{Name: "beta", Attrs: []string{"title"}, Q: 2, K: 2, L: 8, Seed: 3}
	if _, err := s1.Create(spec); err != nil {
		t.Fatal(err)
	}
	if _, err := a.Ingest(rows); err != nil {
		t.Fatal(err)
	}
	if err := s1.Checkpoint(); err != nil {
		t.Fatal(err)
	}

	s2, err := New(WithDataDir(dir))
	if err != nil {
		t.Fatal(err)
	}
	names := s2.List()
	if len(names) != 2 || names[0] != "alpha" || names[1] != "beta" {
		t.Fatalf("restored collections %v, want [alpha beta]", names)
	}
	restored, ok := s2.Collection("alpha")
	if !ok {
		t.Fatal("alpha missing after restore")
	}
	if got, want := canonical(restored.Snapshot().Blocks), canonical(a.Snapshot().Blocks); !sameCanonical(got, want) {
		t.Fatalf("restored alpha snapshot differs: %d vs %d blocks", len(got), len(want))
	}
	// beta was created but never ingested into; its config alone survived.
	beta, ok := s2.Collection("beta")
	if !ok || beta.Len() != 0 {
		t.Fatalf("beta restored %v with %d records, want empty", ok, beta.Len())
	}

	if err := s2.Delete("beta"); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, "beta")); !os.IsNotExist(err) {
		t.Errorf("beta data dir still present after Delete: %v", err)
	}
	if _, ok := s2.Collection("beta"); ok {
		t.Error("beta still listed after Delete")
	}
}
