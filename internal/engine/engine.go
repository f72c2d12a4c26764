// Package engine implements the shared parallel table-build core of the
// (SA-)LSH blocking paths: each of the l hash tables is built as one task
// from precomputed per-record key material, and a merge step concatenates
// the per-table blocks in table order so the output is fully deterministic
// for a fixed configuration.
//
// It also owns the tree's one parallel primitive, ParallelTasks: every
// batch, resolve and ingest stage cuts its work into numbered tasks and
// writes each task's output to a slot of its own, so results come out in
// task order however the tasks were scheduled.
//
// The package owns the one bucket data structure both construction modes
// share. The batch path (lsh.Blocker.Block) fills fresh Tables in parallel,
// one task per table; the streaming path (stream.Indexer) fills the same
// Tables incrementally inside its shards and exports them on Snapshot. Both
// paths file a record under at most one key per table with Table.Insert
// and export through lsh.Signer.AppendBlocks (AppendBlocks here, or its
// per-bit split of each bucket in SA-LSH's OR mode), which is what enforces
// the batch/stream parity guarantee by construction: a streamed snapshot
// and a batch build over the same records run the same bucketing and the
// same export code, so they can only differ if the per-record band keys
// differ — and those come from the single shared lsh.Signer.BandKeys.
package engine

import (
	"runtime"
	"slices"
	"sync"

	"semblock/internal/record"
)

// Table is one hash table's bucket store: a flat, slice-backed
// open-addressing index over buckets whose member IDs live in chunked
// arenas instead of one heap allocation per bucket. Compared to the
// map[uint64]int32 + per-bucket []record.ID layout it replaced, inserting n
// records costs O(1) amortised allocations instead of O(n): the slot array
// and the bucket metadata grow geometrically, and member storage is carved
// from shared chunks. Buckets remember first-touch order (the order their
// keys were first inserted), so exports are deterministic regardless of
// hash order. The zero value is not usable; construct with NewTable.
//
// A Table is not safe for concurrent use; the streaming shards guard theirs
// with a mutex and the batch engine gives every worker its own.
type Table struct {
	// slots is the open-addressing index: each slot holds 1+bucket index,
	// 0 marks an empty slot. Capacity is a power of two; the table rehashes
	// at 3/4 load. Keys are diffused once more before probing so that
	// callers feeding unmixed keys (the fuzzer does) still probe well.
	slots []uint32
	mask  uint64

	buckets []bucket
	arena   idArena
	shared  int // buckets with at least two members
}

// bucket is one key's member list. ids points into the table's arena
// chunks; growth allocates a fresh, larger arena region and abandons the
// old one (amortised like append, but without a heap allocation per
// bucket).
type bucket struct {
	key uint64
	ids []record.ID
}

// idArena hands out record.ID storage in geometrically growing chunks, so
// bucket member lists cost one bump-pointer carve instead of a heap
// allocation each. Abandoned regions (left behind when a bucket outgrows
// its carve) are reclaimed only when the whole table is dropped or Reset —
// bounded by the doubling schedule at less than the live storage.
type idArena struct {
	chunk     []record.ID // current chunk, carved by re-slicing
	chunkSize int
}

// arenaMinChunk is the first chunk's capacity; chunks double up to
// arenaMaxChunk so huge tables do not over-reserve on their last chunk.
const (
	arenaMinChunk = 1024
	arenaMaxChunk = 1 << 18
)

// alloc carves a zero-length slice with the given capacity from the arena.
//
//semblock:hotpath
func (a *idArena) alloc(capacity int) []record.ID {
	if cap(a.chunk)-len(a.chunk) < capacity {
		size := a.chunkSize * 2
		if size < arenaMinChunk {
			size = arenaMinChunk
		}
		if size > arenaMaxChunk {
			size = arenaMaxChunk
		}
		if size < capacity {
			size = capacity
		}
		a.chunkSize = size
		a.chunk = make([]record.ID, 0, size)
	}
	off := len(a.chunk)
	a.chunk = a.chunk[:off+capacity]
	return a.chunk[off : off : off+capacity]
}

// reset drops every chunk so the arena starts fresh.
func (a *idArena) reset() {
	a.chunk = nil
	a.chunkSize = 0
}

// mix64 is the SplitMix64 finalizer, applied to keys before probing so the
// slot distribution does not depend on callers pre-mixing their keys.
//
//semblock:hotpath
func mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// NewTable returns an empty table. sizeHint is the expected number of
// distinct keys — pass the dataset cardinality for batch builds (each
// record files under at most one key per table) or 0 when unknown.
func NewTable(sizeHint int) *Table {
	t := &Table{}
	slots := 16
	for slots*3/4 < sizeHint {
		slots *= 2
	}
	t.slots = make([]uint32, slots)
	t.mask = uint64(slots - 1)
	if sizeHint > 0 {
		t.buckets = make([]bucket, 0, sizeHint)
	}
	return t
}

// Reset empties the table for reuse, keeping the slot array's capacity (the
// arena chunks are dropped — their buckets are gone). Exported blocks that
// alias bucket storage must not be used across a Reset.
func (t *Table) Reset() {
	for i := range t.slots {
		t.slots[i] = 0
	}
	t.buckets = t.buckets[:0]
	t.arena.reset()
	t.shared = 0
}

// grow doubles the slot array and re-files every bucket.
func (t *Table) grow() {
	slots := make([]uint32, len(t.slots)*2)
	mask := uint64(len(slots) - 1)
	for i := range t.buckets {
		j := mix64(t.buckets[i].key) & mask
		for slots[j] != 0 {
			j = (j + 1) & mask
		}
		slots[j] = uint32(i) + 1
	}
	t.slots = slots
	t.mask = mask
}

// Insert files id under key and returns the bucket's previous members —
// the records id now collides with. The returned slice is shared with the
// table; callers must only read it, and only until the next Insert.
//
//semblock:hotpath
func (t *Table) Insert(key uint64, id record.ID) []record.ID {
	j := mix64(key) & t.mask
	for {
		s := t.slots[j]
		if s == 0 {
			break
		}
		if b := &t.buckets[s-1]; b.key == key {
			prior := b.ids
			if len(prior) == 1 {
				t.shared++
			}
			if len(b.ids) == cap(b.ids) {
				grown := t.arena.alloc(2 * cap(b.ids))
				grown = grown[:len(b.ids)]
				copy(grown, b.ids)
				b.ids = grown
				// prior still points at the abandoned region, whose
				// contents stay intact until the next Reset.
			}
			b.ids = append(b.ids, id)
			return prior
		}
		j = (j + 1) & t.mask
	}
	// New bucket. Grow first if filing it would cross 3/4 load, then
	// re-probe (the grow moved every slot).
	if (len(t.buckets)+1)*4 > len(t.slots)*3 {
		t.grow()
		j = mix64(key) & t.mask
		for t.slots[j] != 0 {
			j = (j + 1) & t.mask
		}
	}
	ids := t.arena.alloc(2)[:1]
	ids[0] = id
	t.buckets = append(t.buckets, bucket{key: key, ids: ids})
	t.slots[j] = uint32(len(t.buckets))
	return nil
}

// Len returns the number of distinct buckets (including singletons).
func (t *Table) Len() int { return len(t.buckets) }

// Shared returns the number of buckets with at least two members — the
// blocks AppendBlocks exports at minSize 2, and what exports size their
// output by.
func (t *Table) Shared() int { return t.shared }

// Buckets calls fn for every bucket in first-touch order. The ids slice is
// shared with the table; fn must not mutate it, and may retain it only as
// AppendBlocks aliases bucket storage: until the table is Reset.
func (t *Table) Buckets(fn func(key uint64, ids []record.ID)) {
	for i := range t.buckets {
		fn(t.buckets[i].key, t.buckets[i].ids)
	}
}

// AppendBlocks appends every bucket of t with at least minSize members to
// dst, in first-touch order, and returns the extended slice. When copyIDs
// is true the member slices are copied, for exports that must outlive
// subsequent inserts (streaming snapshots); batch builds, whose tables are
// discarded after the merge, pass false and alias the bucket storage.
//
// This is the block export of plain LSH and AND mode, for both
// construction modes; SA-LSH's OR mode splits each bucket into per-bit
// blocks instead (lsh.Signer.AppendBlocks chooses).
func AppendBlocks(dst [][]record.ID, t *Table, minSize int, copyIDs bool) [][]record.ID {
	if minSize == 2 {
		dst = slices.Grow(dst, t.shared)
	}
	for i := range t.buckets {
		ids := t.buckets[i].ids
		if len(ids) < minSize {
			continue
		}
		if copyIDs {
			ids = append([]record.ID(nil), ids...)
		}
		dst = append(dst, ids)
	}
	return dst
}

// KeyFunc returns the one bucket key a record files under in a hash table,
// and false when the record files under no key there. It must be safe for
// concurrent calls: Build invokes it from every worker.
type KeyFunc func(table int, id record.ID) (key uint64, ok bool)

// ExportFunc turns one finished table into its blocks. It must be safe for
// concurrent calls on distinct tables.
type ExportFunc func(table int, t *Table) [][]record.ID

// Spec describes one parallel table build.
type Spec struct {
	// Tables is the number of hash tables (the blocker's l).
	Tables int
	// Records is the dataset cardinality n; every table sees records
	// 0..n-1 in ID order. It also sizes each table's bucket map.
	Records int
	// Key yields a record's bucket key in a table.
	Key KeyFunc
	// Export turns each finished table into its blocks.
	Export ExportFunc
	// Workers is the build's width (0 = GOMAXPROCS). Build never uses
	// more workers than tables. The worker count does not change the
	// output, only how the tables are spread over goroutines.
	Workers int
}

// Build constructs every table of the spec concurrently, one ParallelTasks
// task per table, and returns the concatenation of the per-table blocks
// (Export) in table order. Every table sees records 0..n-1 in ID order, so
// with a deterministic Export — AppendBlocks keeps bucket first-touch
// order and members in ID order — the result is byte-for-byte
// deterministic for a fixed configuration, independent of the worker
// count.
func Build(spec Spec) [][]record.ID {
	if spec.Tables <= 0 {
		return nil
	}
	perTable := make([][][]record.ID, spec.Tables)
	ParallelTasks(spec.Tables, Workers(spec.Workers), func(_, t int) {
		tb := NewTable(spec.Records)
		for id := 0; id < spec.Records; id++ {
			if key, ok := spec.Key(t, record.ID(id)); ok {
				tb.Insert(key, record.ID(id))
			}
		}
		perTable[t] = spec.Export(t, tb)
	})
	return slices.Concat(perTable...)
}

// Workers resolves a worker-count setting: n when positive, otherwise
// GOMAXPROCS — the CPUs the scheduler will actually run goroutines on, which
// a CPU quota or GOMAXPROCS=1 benchmark run sets below the machine's core
// count. Every worker pool in the tree sizes its default through it.
func Workers(n int) int {
	if n > 0 {
		return n
	}
	return runtime.GOMAXPROCS(0)
}

// ParallelTasks runs fn(w, t) for every task t in [0,n) on min(workers, n)
// goroutines and returns when all have finished. w is the running
// goroutine's index below min(workers, n), so a caller can give each
// worker its own scratch (scratch[w]) and each task its own output slot
// (out[t]); no two calls with the same w overlap. The caller hands the
// tasks out in index order over an unbuffered channel, so uneven tasks
// balance, and a worker between tasks waits for the hand-off: a batch
// stage that fills every CPU then still lets the scheduler run request
// handlers and poll the network between tasks, rather than only when a
// time slice ends. With workers <= 1 (or a single task) every task runs
// inline on the caller's goroutine with w = 0, in order.
//
// It is the only place in internal/ that starts goroutines for batch work
// (semlint's gostmt analyzer enforces it).
func ParallelTasks(n, workers int, fn func(w, t int)) {
	workers = min(workers, n)
	if workers <= 1 {
		for t := 0; t < n; t++ {
			fn(0, t)
		}
		return
	}
	tasks := make(chan int)
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func(w int) {
			defer wg.Done()
			for t := range tasks {
				fn(w, t)
			}
		}(w)
	}
	for t := 0; t < n; t++ {
		tasks <- t
	}
	close(tasks)
	wg.Wait()
}
