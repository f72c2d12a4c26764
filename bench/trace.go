package main

import (
	"encoding/json"
	"fmt"
	"os"
	"time"
)

// span is one timed call into a layer's public function, recorded by the
// benchmark around the call (spans inside the program are a later change).
// Start and End are nanoseconds since the tracer was created; Parent is the
// index of the enclosing span, -1 at the top.
type span struct {
	Name     string `json:"name"`
	Start    int64  `json:"start"`
	End      int64  `json:"end"`
	Parent   int    `json:"parent"`
	Workload string `json:"workload"`
	Batch    int    `json:"batch"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, which is how the untraced reference passes run the same code.
// It is used from one goroutine: the layer replay is single-threaded by
// design and the composite spans wrap whole parallel calls from outside.
type tracer struct {
	workload string
	t0       time.Time
	spans    []span
	open     []int // stack of open span indices
}

func newTracer(workload string) *tracer {
	return &tracer{workload: workload, t0: time.Now()}
}

// begin opens a span under the innermost open one and returns its index.
func (t *tracer) begin(name string, batch int) int {
	if t == nil {
		return -1
	}
	parent := -1
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	t.spans = append(t.spans, span{Name: name, Parent: parent, Workload: t.workload, Batch: batch})
	id := len(t.spans) - 1
	t.open = append(t.open, id)
	t.spans[id].Start = int64(time.Since(t.t0))
	return id
}

// end closes the span begin returned; spans close innermost first.
func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	now := int64(time.Since(t.t0))
	if n := len(t.open); n == 0 || t.open[n-1] != id {
		panic(fmt.Sprintf("bench: span %d closed out of order", id))
	}
	t.spans[id].End = now
	t.open = t.open[:len(t.open)-1]
}

// layerTime is one span name's totals over a run.
type layerTime struct {
	Calls int
	Total time.Duration // sum of span durations
	Self  time.Duration // Total minus the part covered by child spans
}

// totals aggregates spans by name. A span's self time is its duration minus
// its direct children's durations (children never overlap: one goroutine).
func (t *tracer) totals() map[string]layerTime {
	out := map[string]layerTime{}
	if t == nil {
		return out
	}
	child := make([]int64, len(t.spans))
	for _, s := range t.spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	for i, s := range t.spans {
		lt := out[s.Name]
		lt.Calls++
		lt.Total += time.Duration(s.End - s.Start)
		lt.Self += time.Duration(s.End - s.Start - child[i])
		out[s.Name] = lt
	}
	return out
}

// write stores the spans as one JSON array.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	if err := enc.Encode(t.spans); err != nil {
		f.Close()
		return fmt.Errorf("write trace %s: %w", path, err)
	}
	return f.Close()
}
