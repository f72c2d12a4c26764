package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"os"
	"path/filepath"

	"semblock/internal/record"
	"semblock/internal/stream"
)

// Persistence layout: each collection owns one directory under the server
// data dir,
//
//	<data-dir>/<collection>/manifest.json
//	<data-dir>/<collection>/segment-000001.jsonl
//	<data-dir>/<collection>/segment-000002.jsonl
//	...
//
// The manifest holds the versioned CollectionSpec, the ordered segment
// list, and the durable drain cursor; each segment is an immutable JSONL
// run of records (the same wire format the bulk-ingest endpoint speaks,
// record.WriteJSONL). A checkpoint appends exactly the records ingested
// since the previous checkpoint as a new segment and rewrites the manifest;
// both writes are atomic AND durable (temp file, fsync, rename, directory
// fsync), so a crash mid-checkpoint leaves the previous checkpoint intact
// and a completed checkpoint survives power loss.
//
// Restore replays the segments in order through the same shared-log engine
// an ingest uses, which is what guarantees a reloaded collection reproduces
// the identical snapshot: batch/stream parity is enforced by construction
// in internal/engine, so equal records in equal order ⇒ equal buckets ⇒
// equal blocks. Because the collection queues candidate pairs in a
// canonical emission order that depends only on the record sequence (see
// Collection), replay regenerates the exact pre-crash pair sequence — and
// the manifest's drain cursor (the count of pairs already delivered to
// consumers when the checkpoint was taken) tells restore how long a prefix
// of it to discard instead of redelivering.
const (
	// manifestVersion names the on-disk layout AND the hash-family
	// generation the cursors in it were counted under — the only version
	// LoadCollection reads. A cursor is an index into the canonical emission
	// sequence, and that sequence is a function of the bucket contents, hence
	// of the family: a cursor counted under another family would skip the
	// first `cursor` pairs of a sequence it was never counted in. Bump the
	// version whenever the layout or the emission sequence changes.
	manifestVersion = 5
)

// manifestFile is the manifest's file name inside a collection directory.
const manifestFile = "manifest.json"

// slogWarnf routes a printf-style diagnostic through the process's
// structured logger (slog.Default — the serve subcommand installs the
// configured handler there).
func slogWarnf(format string, args ...any) {
	slog.Warn(fmt.Sprintf(format, args...))
}

// warnf reports non-fatal restore diagnostics. Package-level so tests can
// capture it.
var warnf = slogWarnf

// manifest is the versioned on-disk description of a collection.
type manifest struct {
	Version int            `json:"version"`
	Spec    CollectionSpec `json:"spec"`
	Records int            `json:"records"`
	// Drained is the minimum of the per-group cursors in Consumers — the
	// prefix of the canonical emission sequence every group has
	// acknowledged when the checkpoint was taken. Written for humans and
	// diagnostics; restore reads only Consumers.
	Drained int `json:"drained,omitempty"`
	// Consumers are the named consumer groups and their durable cursors. A
	// manifest without the default group gets it at zero.
	Consumers []consumerManifest `json:"consumers,omitempty"`
	// Generation is the compaction generation of the segment chain: 0 until
	// the first compaction, then incremented by every Compact. Segment file
	// names embed the generation (see segmentName), so the files of two
	// generations can never collide and the manifest rename is the single
	// atomic commit point that flips a directory from one generation to the
	// next (see compact.go).
	Generation int           `json:"generation,omitempty"`
	Segments   []segmentInfo `json:"segments"`
}

// consumerManifest is one consumer group's durable state: its acknowledged
// cursor into the canonical emission sequence and, when push delivery is
// configured, its webhook sink. Cursors are captured under the collection
// mutex and only ever count acknowledged deliveries (in-flight windows are
// excluded by construction — a group cursor moves after deliver succeeds),
// so persisting one can never lose an unacknowledged pair.
type consumerManifest struct {
	Name    string       `json:"name"`
	Cursor  int          `json:"cursor"`
	Webhook *WebhookSpec `json:"webhook,omitempty"`
}

// segmentInfo names one immutable record segment.
type segmentInfo struct {
	Name    string `json:"name"`
	Records int    `json:"records"`
	// Drained is the manifest-level Drained of the checkpoint that sealed
	// this segment (a compacted segment carries that of the checkpoint state
	// it folded in): an epoch mark for diagnostics, never read by restore.
	Drained int `json:"drained,omitempty"`
	// Bytes is the segment file size, recorded so the compaction byte
	// threshold can be evaluated without statting the chain on every
	// checkpoint.
	Bytes int64 `json:"bytes,omitempty"`
	// Compacted marks a segment written by Compact (the squashed base of
	// its generation) as opposed to an ordinary checkpoint append. The
	// MaxBytes auto-compaction trigger excludes exactly the compacted base
	// from the "appended since the last compaction" tail — a marker, not
	// an inference from position or generation, because a compaction of an
	// empty collection writes no base at all.
	Compacted bool `json:"compacted,omitempty"`
}

// segmentName returns the file name of segment idx (1-based) in a
// compaction generation. Generation 0, a never-compacted chain, uses the
// plain name; later generations embed the generation number, which
// guarantees a compaction never overwrites a live segment of the generation
// it is replacing.
func segmentName(generation, idx int) string {
	if generation == 0 {
		return fmt.Sprintf("segment-%06d.jsonl", idx)
	}
	return fmt.Sprintf("segment-g%03d-%06d.jsonl", generation, idx)
}

// Save checkpoints the collection into dir: records ingested since the last
// Save are appended as a new segment and the manifest — including the
// current drain cursor — is rewritten. It is a no-op (beyond ensuring the
// manifest exists) when nothing changed. Safe for concurrent use with
// ingestion and drains — the checkpoint covers a consistent
// (records, cursor) snapshot, and the serving path is never blocked on
// disk: the index mutex is held only to capture the un-persisted record
// span and the cursor, all file I/O happens outside it (saveMu serialises
// concurrent Saves so segment numbering stays consistent).
func (c *Collection) Save(dir string) error {
	c.saveMu.Lock()
	defer c.saveMu.Unlock()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("server: create collection dir: %w", err)
	}

	// Capture the un-persisted span and the consumer cursors under the
	// index mutex; records are immutable once appended, so the pointers
	// stay valid outside it. Each group cursor counts only acknowledged
	// deliveries — a window popped by an in-flight hand-off whose outcome
	// is unknown has not advanced it (counting those as delivered would
	// lose them if the hand-off fails and the process dies). The capture is
	// consistent with the record count because ingest commits both under
	// the same mutex. The legacy manifest-level cursor is the minimum
	// across groups — the prefix everyone has acknowledged.
	c.mu.Lock()
	n := c.log.Len()
	consumers := c.consumerManifestsLocked()
	drained := c.minCursorLocked()
	persisted := c.persisted
	generation := c.generation
	segments := append([]segmentInfo(nil), c.segments...)
	var pending []*record.Record
	if n > persisted {
		pending = append(pending, c.log.Records()[persisted:n]...)
	}
	c.mu.Unlock()

	if len(pending) > 0 {
		seg := segmentInfo{
			Name:    segmentName(generation, len(segments)+1),
			Records: len(pending),
			Drained: drained,
		}
		var err error
		if seg.Bytes, err = writeSegment(filepath.Join(dir, seg.Name), pending); err != nil {
			return err
		}
		segments = append(segments, seg)
		persisted = n
	}
	m := manifest{
		Version: manifestVersion, Spec: c.spec,
		Records: persisted, Drained: drained, Consumers: consumers,
		Generation: generation, Segments: segments,
	}
	if err := writeManifest(dir, m); err != nil {
		return err
	}
	c.mu.Lock()
	c.segments = segments
	c.persisted = persisted
	c.mu.Unlock()
	return nil
}

// ErrOrphanFile marks a file found in a collection directory that the
// manifest does not reference. Orphans are expected debris of a crash
// between a compaction's segment writes and its manifest commit (or
// between the commit and the old generation's removal): the manifest
// rename is the atomic flip, so whichever generation it names is complete
// and everything else is dead weight. LoadCollection logs each orphan with
// this error and skips it — restoring from the live generation — and the
// next successful compaction sweeps them.
var ErrOrphanFile = errors.New("file not referenced by the collection manifest")

// replayChunk bounds how many records one replay batch stages at once, so
// restoring a compacted chain (typically one large segment) does not hold
// the whole log's staging buffers in memory at the same time.
const replayChunk = 4096

// LoadCollection restores a collection from its directory: the manifest's
// spec rebuilds the shared log and its table shards, and the live
// generation's segments are replayed through them in order via the
// pair-free replay path (stream.ReplayStaged); the candidate ledger is
// then reconstructed in one pass from the final table contents
// (Collection.rebuildLedger). The restored snapshot is identical to the
// saved collection's at its last checkpoint (batch-parity by replay), and
// the candidate drain resumes exactly at the manifest's durable cursor:
// pairs delivered before the checkpoint are discarded from the
// reconstructed sequence instead of redelivered. Files the manifest does
// not reference — debris of a crashed compaction — are logged with
// ErrOrphanFile and skipped. A manifest of any version other than
// manifestVersion is rejected.
func LoadCollection(dir string) (*Collection, error) {
	raw, err := os.ReadFile(filepath.Join(dir, manifestFile))
	if err != nil {
		return nil, fmt.Errorf("server: read manifest: %w", err)
	}
	var m manifest
	if err := json.Unmarshal(raw, &m); err != nil {
		return nil, fmt.Errorf("server: parse manifest %s: %w", dir, err)
	}
	if m.Version != manifestVersion {
		return nil, fmt.Errorf("server: manifest %s has version %d, this build reads only version %d",
			dir, m.Version, manifestVersion)
	}
	if m.Generation < 0 {
		return nil, fmt.Errorf("server: manifest %s has negative generation %d", dir, m.Generation)
	}
	logOrphans(dir, &m)
	c, err := newCollection(m.Spec)
	if err != nil {
		return nil, err
	}
	for _, seg := range m.Segments {
		if err := c.replaySegment(dir, seg); err != nil {
			return nil, err
		}
	}
	if c.Len() != m.Records {
		return nil, fmt.Errorf("server: collection %s replayed %d records, manifest says %d",
			m.Spec.Name, c.Len(), m.Records)
	}
	// Rebuild the pair ledger from the replayed tables and resume every
	// consumer group at its durable cursor: the canonical emission sequence
	// is a pure function of the table contents, of which each group's first
	// Cursor pairs were already delivered before the checkpoint.
	if err := c.rebuildLedger(m.Consumers); err != nil {
		return nil, err
	}
	c.segments = m.Segments
	c.persisted = m.Records
	c.generation = m.Generation
	return c, nil
}

// replaySegment streams one segment file through record.ScanJSONL straight
// into replayChunk-row replay batches — no intermediate Dataset — and
// checks its record count against the manifest's.
func (c *Collection) replaySegment(dir string, seg segmentInfo) error {
	f, err := os.Open(filepath.Join(dir, seg.Name))
	if err != nil {
		return fmt.Errorf("server: open segment: %w", err)
	}
	defer f.Close()
	n := 0
	rows := make([]stream.Row, 0, replayChunk)
	err = record.ScanJSONL(f, func(entity record.EntityID, attrs map[string]string) {
		rows = append(rows, stream.Row{Entity: entity, Attrs: attrs})
		if len(rows) == replayChunk {
			c.replayRows(rows)
			n += len(rows)
			rows = rows[:0]
		}
	})
	if err != nil {
		return fmt.Errorf("server: segment %s: %w", seg.Name, err)
	}
	c.replayRows(rows)
	if n += len(rows); n != seg.Records {
		return fmt.Errorf("server: segment %s holds %d records, manifest says %d",
			seg.Name, n, seg.Records)
	}
	return nil
}

// liveFiles returns the set of file names a manifest references — the only
// files that belong in its collection directory. Keep this the single
// definition of "live": both the orphan diagnostics at load and the sweep
// after a compaction derive from it, so they can never disagree about what
// is debris.
func liveFiles(m *manifest) map[string]bool {
	live := make(map[string]bool, len(m.Segments)+1)
	live[manifestFile] = true
	for _, seg := range m.Segments {
		live[seg.Name] = true
	}
	return live
}

// forEachUnreferenced calls fn for every plain file in dir the manifest
// does not reference.
func forEachUnreferenced(dir string, m *manifest, fn func(name string)) error {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return err
	}
	live := liveFiles(m)
	for _, e := range entries {
		if e.IsDir() || live[e.Name()] {
			continue
		}
		fn(e.Name())
	}
	return nil
}

// logOrphans reports (and skips) files in a collection directory that the
// manifest does not reference. Before this check a half-written compaction
// generation left by a crash was silently invisible; now every stray file
// is named once at load, wrapped in ErrOrphanFile, so the debris is
// diagnosable. Unreadable directories are ignored — restore itself will
// surface any real I/O problem.
func logOrphans(dir string, m *manifest) {
	_ = forEachUnreferenced(dir, m, func(name string) {
		warnf("server: collection %s: skipping %s: %v (likely debris of an interrupted compaction or checkpoint; the next compaction removes it)",
			m.Spec.Name, name, ErrOrphanFile)
	})
}

// writeSegment atomically writes one JSONL record segment and returns its
// size, which the manifest records so the compaction byte threshold never
// has to stat the chain. It serialises straight from the immutable log
// span — no copying into an intermediate dataset, which matters when a
// compaction rewrites a multi-million-record log.
func writeSegment(path string, recs []*record.Record) (int64, error) {
	var size int64
	err := writeFileAtomic(path, func(f *os.File) error {
		if err := record.WriteJSONLRecords(f, recs); err != nil {
			return err
		}
		st, err := f.Stat()
		if err != nil {
			return err
		}
		size = st.Size()
		return nil
	})
	return size, err
}

// writeManifest atomically writes the manifest of a collection directory.
// Its rename is the commit point of both checkpoints and compactions.
func writeManifest(dir string, m manifest) error {
	return writeFileAtomic(filepath.Join(dir, manifestFile), func(f *os.File) error {
		enc := json.NewEncoder(f)
		enc.SetIndent("", "  ")
		return enc.Encode(m)
	})
}

// writeFileAtomic writes path via a temp file in the same directory plus a
// rename, fsyncing the temp file before the rename and the directory after
// it. Readers never observe a partial file; a crash before the rename
// preserves the previous version, and once writeFileAtomic returns the new
// version survives power loss — without the fsyncs, a crash shortly after
// the rename could surface an empty or partially written file even though
// the checkpoint had reported success.
func writeFileAtomic(path string, write func(*os.File) error) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, ".tmp-*")
	if err != nil {
		return fmt.Errorf("server: create temp file: %w", err)
	}
	defer os.Remove(tmp.Name())
	if err := write(tmp); err != nil {
		tmp.Close()
		return fmt.Errorf("server: write %s: %w", filepath.Base(path), err)
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return fmt.Errorf("server: sync %s: %w", filepath.Base(path), err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("server: close %s: %w", filepath.Base(path), err)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return fmt.Errorf("server: rename into place: %w", err)
	}
	return syncDir(dir)
}

// syncDir fsyncs a directory so a just-renamed entry is durable, not only
// ordered: rename makes the new name visible atomically, but the directory
// update itself can still be lost on power failure until it is synced.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("server: open dir for sync: %w", err)
	}
	if err := d.Sync(); err != nil {
		d.Close()
		return fmt.Errorf("server: sync dir %s: %w", dir, err)
	}
	if err := d.Close(); err != nil {
		return fmt.Errorf("server: close dir %s: %w", dir, err)
	}
	return nil
}
