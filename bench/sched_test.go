package main

import (
	"testing"
	"time"
)

// fakeClock is a manual clock: Sleep advances it (plus oversleep, to model a
// generator that wakes late), and an operation advances it by calling run.
type fakeClock struct {
	now       time.Time
	oversleep time.Duration
}

func (c *fakeClock) Now() time.Time { return c.now }
func (c *fakeClock) Sleep(d time.Duration) {
	c.now = c.now.Add(d + c.oversleep)
}
func (c *fakeClock) run(d time.Duration) { c.now = c.now.Add(d) }

const tick = 10 * time.Millisecond

// TestOpenLoopChargesStallFromDueTime injects one slow operation: the
// operations scheduled behind it go out late, and each must be charged from
// when it was due, not from when it was finally sent — the wait a stall
// imposes on later arrivals is the system's latency, not an excuse.
func TestOpenLoopChargesStallFromDueTime(t *testing.T) {
	clk := &fakeClock{now: time.Unix(1000, 0)}
	start := clk.now
	cost := func(i int) time.Duration {
		if i == 2 {
			return 35 * time.Millisecond // 3.5 intervals
		}
		return time.Millisecond
	}
	st := runOpenLoop(clk, start, tick, 8, nil, func(i int) error {
		clk.run(cost(i))
		return nil
	})
	// Operation 2 is due at 20 ms and completes at 55 ms. 3 (due 30), 4 (due
	// 40) and 5 (due 50) are already overdue and go back to back at 56, 57
	// and 58 ms; 6 (due 60) is on time again.
	want := []time.Duration{1, 1, 35, 26, 17, 8, 1, 1}
	for i, w := range want {
		if got := st.Latency[i]; got != w*time.Millisecond {
			t.Errorf("latency[%d] = %v, want %v ms (timed from the due time)", i, got, w)
		}
	}
	// None of that lateness is the generator's: it sent every operation the
	// moment it was both due and free.
	if late := st.maxGenLate(); late != 0 {
		t.Errorf("generator lateness %v, want 0: it was blocked behind the system, not idle", late)
	}
	if got := st.Done[7]; got != 71*time.Millisecond {
		t.Errorf("last completion at %v, want 71ms", got)
	}
	if st.Failed != 0 || len(st.Latency) != 8 {
		t.Errorf("failed %d, ops %d", st.Failed, len(st.Latency))
	}
}

// TestOpenLoopRecordsGeneratorLateness makes the generator itself wake late:
// that is its own lateness, reported and counted against the validity limit.
func TestOpenLoopRecordsGeneratorLateness(t *testing.T) {
	clk := &fakeClock{now: time.Unix(1000, 0), oversleep: 15 * time.Millisecond}
	start := clk.now.Add(tick)
	st := runOpenLoop(clk, start, tick, 4, nil, func(int) error {
		clk.run(time.Millisecond)
		return nil
	})
	// Every sleep overshoots by 15 ms, one and a half intervals.
	if got := st.GenLate[0]; got != 15*time.Millisecond {
		t.Errorf("GenLate[0] = %v, want 15ms", got)
	}
	if share := st.lateShare(tick); share == 0 {
		t.Errorf("lateShare(%v) = 0 with sleeps overshooting by 15ms: %v", tick, st.GenLate)
	}
	if got := st.Latency[0]; got != 16*time.Millisecond {
		t.Errorf("latency[0] = %v, want 16ms: lateness still counts from the due time", got)
	}
}

func TestOpenLoopStopsAndCountsFailures(t *testing.T) {
	clk := &fakeClock{now: time.Unix(1000, 0)}
	stop := make(chan struct{})
	st := runOpenLoop(clk, clk.now, tick, 100, stop, func(i int) error {
		clk.run(time.Millisecond)
		if i == 4 {
			close(stop)
		}
		if i%2 == 1 {
			return errFake
		}
		return nil
	})
	if len(st.Latency) != 5 || st.Failed != 2 {
		t.Errorf("ran %d operations with %d failures, want 5 and 2", len(st.Latency), st.Failed)
	}
}

var errFake = fakeErr{}

type fakeErr struct{}

func (fakeErr) Error() string { return "fake" }
