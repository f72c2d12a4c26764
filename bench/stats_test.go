package main

import (
	"math"
	"testing"
	"time"
)

func near(a, b float64) bool { return math.Abs(a-b) <= 1e-9*math.Max(1, math.Abs(b)) }

func TestPercentile(t *testing.T) {
	v := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for _, c := range []struct{ p, want float64 }{
		{0, 1}, {50, 5.5}, {90, 9.1}, {99, 9.91}, {100, 10},
	} {
		if got := percentile(v, c.p); !near(got, c.want) {
			t.Errorf("percentile(1..10, %v) = %v, want %v", c.p, got, c.want)
		}
	}
	if got := percentile([]float64{7}, 90); got != 7 {
		t.Errorf("percentile of one sample = %v, want it", got)
	}
	if got := percentile(nil, 50); !math.IsNaN(got) {
		t.Errorf("percentile of nothing = %v, want NaN", got)
	}
	if got := median([]float64{9, 1, 5}); got != 5 {
		t.Errorf("median does not sort: got %v", got)
	}
}

func TestWeightedPercentile(t *testing.T) {
	// 1 x3, 10 x1, 100 x6: the multiset 1 1 1 10 100 100 100 100 100 100.
	s := []wsample{{100, 6}, {1, 3}, {10, 1}}
	for _, c := range []struct{ p, want float64 }{
		{10, 1}, {30, 1}, {31, 10}, {40, 10}, {41, 100}, {50, 100}, {100, 100},
	} {
		if got := weightedPercentile(s, c.p); got != c.want {
			t.Errorf("weightedPercentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if got := weightedPercentile(nil, 50); !math.IsNaN(got) {
		t.Errorf("weightedPercentile of nothing = %v, want NaN", got)
	}
	// Weights are what make one frame's thousand pairs count a thousand
	// times: the same values unweighted give another median.
	if weightedPercentile(s, 50) == weightedPercentile([]wsample{{100, 1}, {1, 1}, {10, 1}}, 50) {
		t.Error("weights ignored")
	}
}

// TestWindowRates: throughput per window of consecutive operations, so that
// one stalled operation slows one window and leaves the median alone.
func TestWindowRates(t *testing.T) {
	// Ten operations of 100 units, 10 ms each, except a 500 ms stall in
	// operation 4.
	var done []time.Duration
	var units []int
	at := time.Duration(0)
	for i := 0; i < 10; i++ {
		at += 10 * time.Millisecond
		if i == 4 {
			at += 490 * time.Millisecond
		}
		done = append(done, at)
		units = append(units, 100)
	}
	got := windowRates(done, units, 3)
	// Windows [0,3) [3,6) [6,9); operation 9 alone is a partial window.
	want := []float64{10000, 300 / 0.52, 10000}
	if len(got) != len(want) {
		t.Fatalf("windowRates = %v, want %v", got, want)
	}
	for i := range want {
		if !near(got[i], want[i]) {
			t.Errorf("window %d: %v units/s, want %v", i, got[i], want[i])
		}
	}
	if m := median(got); !near(m, 10000) {
		t.Errorf("median window %v, want 10000: the stall must not move it", m)
	}
	if whole := 1000 / at.Seconds(); whole > 2000 {
		t.Errorf("whole-run throughput %v should show the stall", whole)
	}
	// Fewer operations than one window: the run is the window.
	if got := windowRates(done[:2], units[:2], 8); len(got) != 1 || !near(got[0], 10000) {
		t.Errorf("short run: %v", got)
	}
	if got := windowRates(nil, nil, 8); got != nil {
		t.Errorf("empty run: %v", got)
	}
}

func TestSpinCV(t *testing.T) {
	if cv := spinCV(20 * time.Millisecond); cv < 0 || math.IsNaN(cv) {
		t.Errorf("spinCV = %v", cv)
	}
}
