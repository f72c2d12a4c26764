package engine

import (
	"fmt"
	"reflect"
	"slices"
	"sync/atomic"
	"testing"

	"semblock/internal/record"
)

// modKeys files record id under id % (table+2): a tiny deterministic
// multi-table keying with collisions in every table.
func modKeys(table int, id record.ID) (uint64, bool) {
	return uint64(int(id) % (table + 2)), true
}

// buckets exports every bucket with at least two members, aliased.
func buckets(_ int, t *Table) [][]record.ID { return AppendBlocks(nil, t, 2, false) }

func TestTableInsertOrder(t *testing.T) {
	tb := NewTable(8)
	if got := tb.Insert(7, 0); got != nil {
		t.Fatalf("first insert returned members %v", got)
	}
	if got := tb.Insert(9, 1); got != nil {
		t.Fatalf("fresh key returned members %v", got)
	}
	got := tb.Insert(7, 2)
	if !reflect.DeepEqual(got, []record.ID{0}) {
		t.Fatalf("collision returned %v, want [0]", got)
	}
	if tb.Len() != 2 {
		t.Fatalf("table has %d buckets, want 2", tb.Len())
	}
	// Export preserves first-touch key order (7 before 9) and member order.
	blocks := AppendBlocks(nil, tb, 1, false)
	want := [][]record.ID{{0, 2}, {1}}
	if !reflect.DeepEqual(blocks, want) {
		t.Fatalf("blocks %v, want %v", blocks, want)
	}
	if blocks = AppendBlocks(nil, tb, 2, false); len(blocks) != 1 {
		t.Fatalf("minSize=2 kept %d blocks, want 1", len(blocks))
	}
}

func TestAppendBlocksCopy(t *testing.T) {
	tb := NewTable(0)
	tb.Insert(1, 0)
	tb.Insert(1, 1)
	snap := AppendBlocks(nil, tb, 2, true)
	tb.Insert(1, 2) // grow the bucket after the snapshot
	if !reflect.DeepEqual(snap[0], []record.ID{0, 1}) {
		t.Fatalf("copied snapshot mutated: %v", snap[0])
	}
}

// TestBuildDeterministic asserts the worker count never changes the output,
// block-for-block in order — the engine's core guarantee.
func TestBuildDeterministic(t *testing.T) {
	const tables, records = 17, 500
	base := Build(Spec{Tables: tables, Records: records, Key: modKeys, Export: buckets, Workers: 1})
	if len(base) == 0 {
		t.Fatal("serial build produced no blocks")
	}
	for _, workers := range []int{2, 3, 8, 64} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			got := Build(Spec{Tables: tables, Records: records, Key: modKeys, Export: buckets, Workers: workers})
			if !reflect.DeepEqual(got, base) {
				t.Fatalf("parallel build (workers=%d) differs from serial: %d vs %d blocks",
					workers, len(got), len(base))
			}
		})
	}
}

// TestBuildFinish checks how Build finishes a table: every bucket with at
// least two members becomes a block, singletons are dropped, blocks keep
// bucket first-touch order and the tables' blocks land merged in table order.
func TestBuildFinish(t *testing.T) {
	const tables, records = 5, 10
	var want [][]record.ID
	for tab := 0; tab < tables; tab++ {
		mod := tab + 2 // modKeys: first touch of key r is record r
		for r := 0; r < mod; r++ {
			var ids []record.ID
			for id := r; id < records; id += mod {
				ids = append(ids, record.ID(id))
			}
			if len(ids) >= 2 {
				want = append(want, ids)
			}
		}
	}
	got := Build(Spec{Tables: tables, Records: records, Key: modKeys, Export: buckets, Workers: 3})
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Build = %v, want %v", got, want)
	}
}

// TestBuildConcurrent is the -race exercise over concurrent table builds:
// many tables, shared KeyFunc closure, maximum worker fan-out.
func TestBuildConcurrent(t *testing.T) {
	const tables, records = 64, 300
	blocks := Build(Spec{Tables: tables, Records: records, Key: modKeys, Export: buckets, Workers: 32})
	// Every table t buckets ids mod (t+2), so table t contributes exactly
	// t+2 blocks (records >> tables) and the total is known.
	want := 0
	for tab := 0; tab < tables; tab++ {
		want += tab + 2
	}
	if len(blocks) != want {
		t.Fatalf("concurrent build produced %d blocks, want %d", len(blocks), want)
	}
}

func TestBuildEdgeCases(t *testing.T) {
	if got := Build(Spec{Tables: 0, Records: 5, Key: modKeys, Export: buckets}); got != nil {
		t.Errorf("zero tables produced %v", got)
	}
	if got := Build(Spec{Tables: 3, Records: 0, Key: modKeys, Export: buckets}); len(got) != 0 {
		t.Errorf("zero records produced %v", got)
	}
	// Keys yielding nothing (e.g. AND mode excluding all records).
	none := func(int, record.ID) (uint64, bool) { return 0, false }
	if got := Build(Spec{Tables: 3, Records: 5, Key: none, Export: buckets}); len(got) != 0 {
		t.Errorf("empty keying produced %v", got)
	}
}

// TestParallelTasksRunsEachTaskOnce checks every task runs exactly once,
// on a goroutine index below min(workers, n) — for no tasks, more workers
// than tasks, and widths of 1 or less, which run inline, in order, with
// w = 0.
func TestParallelTasksRunsEachTaskOnce(t *testing.T) {
	for _, tc := range []struct{ n, workers int }{
		{0, 4}, {0, 0}, {1, 4}, {3, 8}, {5, 1}, {5, 0}, {5, -2}, {7, 3}, {100, 16},
	} {
		width := max(1, min(tc.workers, tc.n))
		runs := make([]atomic.Int32, tc.n)
		var bad atomic.Int32
		ParallelTasks(tc.n, tc.workers, func(w, task int) {
			if w < 0 || w >= width {
				bad.Add(1)
			}
			runs[task].Add(1)
		})
		if bad.Load() != 0 {
			t.Errorf("n=%d workers=%d: %d tasks ran on an out-of-range worker index", tc.n, tc.workers, bad.Load())
		}
		for task := range runs {
			if got := runs[task].Load(); got != 1 {
				t.Errorf("n=%d workers=%d: task %d ran %d times", tc.n, tc.workers, task, got)
			}
		}
		if tc.workers > 1 {
			continue
		}
		// Inline: no synchronisation needed, and the order is the task order.
		var order, want []int
		ParallelTasks(tc.n, tc.workers, func(_, task int) { order = append(order, task) })
		for task := 0; task < tc.n; task++ {
			want = append(want, task)
		}
		if !slices.Equal(order, want) {
			t.Errorf("n=%d workers=%d: inline run order %v", tc.n, tc.workers, order)
		}
	}
}
