package main

import "time"

// clock is the time source of the open-loop sender; tests inject a fake one
// to stall the sender or the operation at will.
type clock interface {
	Now() time.Time
	Sleep(time.Duration)
}

type wallClock struct{}

func (wallClock) Now() time.Time        { return time.Now() }
func (wallClock) Sleep(d time.Duration) { time.Sleep(d) }

// openLoopStats is what one open-loop run recorded, operation by operation.
type openLoopStats struct {
	// Latency is completion minus *due* time: an operation that had to wait
	// because an earlier one overran is charged that wait, exactly as a
	// user arriving on schedule would be (no coordinated omission).
	Latency []time.Duration
	// Done is each operation's completion offset from the schedule start.
	Done []time.Duration
	// GenLate is how long the generator itself sat on a due operation: the
	// send time minus the later of the due time and the previous
	// operation's completion. Waiting behind a slow operation is the
	// system's fault and is not counted here; oversleeping is.
	GenLate []time.Duration
	Failed  int
}

// maxGenLate is the generator's worst own lateness.
func (s *openLoopStats) maxGenLate() time.Duration {
	var m time.Duration
	for _, d := range s.GenLate {
		if d > m {
			m = d
		}
	}
	return m
}

// lateShare is the share of operations the generator itself sent more than
// limit late.
func (s *openLoopStats) lateShare(limit time.Duration) float64 {
	if len(s.GenLate) == 0 {
		return 0
	}
	n := 0
	for _, d := range s.GenLate {
		if d > limit {
			n++
		}
	}
	return float64(n) / float64(len(s.GenLate))
}

// runOpenLoop issues n operations on a fixed schedule — operation i is due
// at start + i·interval — over one synchronous caller (one connection), and
// returns the per-operation accounting. The schedule never slows down for a
// slow system: when an operation overruns, the following ones go out back
// to back until the sender has caught up, and each is timed from when it
// was due. stop, when non-nil, ends the run early once closed.
func runOpenLoop(clk clock, start time.Time, interval time.Duration, n int, stop <-chan struct{}, op func(i int) error) *openLoopStats {
	st := &openLoopStats{
		Latency: make([]time.Duration, 0, n),
		Done:    make([]time.Duration, 0, n),
		GenLate: make([]time.Duration, 0, n),
	}
	free := start // when the sender became able to send
	for i := 0; i < n; i++ {
		select {
		case <-stop:
			return st
		default:
		}
		due := start.Add(time.Duration(i) * interval)
		now := clk.Now()
		if wait := due.Sub(now); wait > 0 {
			clk.Sleep(wait)
			now = clk.Now()
		}
		ready := due
		if free.After(ready) {
			ready = free
		}
		st.GenLate = append(st.GenLate, now.Sub(ready))
		if err := op(i); err != nil {
			st.Failed++
		}
		done := clk.Now()
		free = done
		st.Latency = append(st.Latency, done.Sub(due))
		st.Done = append(st.Done, done.Sub(start))
	}
	return st
}
