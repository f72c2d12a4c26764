package main

import (
	"math"
	"sort"
	"time"
)

// percentile returns the p-th percentile (0..100) of an ascending slice by
// linear interpolation between closest ranks; NaN on an empty slice.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	if len(sorted) == 1 {
		return sorted[0]
	}
	rank := p / 100 * float64(len(sorted)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	return sorted[lo] + (sorted[hi]-sorted[lo])*(rank-float64(lo))
}

// sortedCopy returns an ascending copy of v.
func sortedCopy(v []float64) []float64 {
	out := append([]float64(nil), v...)
	sort.Float64s(out)
	return out
}

func median(v []float64) float64 { return percentile(sortedCopy(v), 50) }

// wsample is one latency observation standing for weight identical events:
// every pair of one SSE frame that belongs to the same ingest batch shares
// one latency, so a frame contributes a handful of weighted samples instead
// of thousands of equal ones.
type wsample struct {
	v float64
	w int
}

// weightedPercentile is the p-th percentile (0..100) of the multiset in
// which each sample occurs w times: the smallest value whose cumulative
// weight reaches p percent of the total. NaN when the total weight is zero.
func weightedPercentile(s []wsample, p float64) float64 {
	total := 0
	for _, x := range s {
		total += x.w
	}
	if total == 0 {
		return math.NaN()
	}
	sorted := append([]wsample(nil), s...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].v < sorted[j].v })
	need := p / 100 * float64(total)
	cum := 0
	for _, x := range sorted {
		cum += x.w
		if float64(cum) >= need {
			return x.v
		}
	}
	return sorted[len(sorted)-1].v
}

// windowRates cuts a closed-loop run into windows of size consecutive
// operations and returns each window's throughput in units per second.
// done[i] is operation i's completion offset from the run start (operation
// 0 started at 0, every other when its predecessor completed) and units[i]
// what it carried. A trailing partial window is dropped unless it is the
// only one. The median of the windows is a throughput that a stall shorter
// than half the run — a GC pause, a table growth, a burst from a
// neighbouring tenant — does not move.
func windowRates(done []time.Duration, units []int, size int) []float64 {
	var rates []float64
	for lo := 0; lo < len(done); lo += size {
		hi := lo + size
		if hi > len(done) {
			if lo > 0 {
				break
			}
			hi = len(done)
		}
		var from time.Duration
		if lo > 0 {
			from = done[lo-1]
		}
		n := 0
		for _, u := range units[lo:hi] {
			n += u
		}
		rates = append(rates, float64(n)/(done[hi-1]-from).Seconds())
	}
	return rates
}

// spinCV runs a fixed arithmetic kernel back to back for about d and
// returns the coefficient of variation of the kernel's wall time: near zero
// on a quiet host, large when other tenants steal the CPU. It is printed
// beside any metric that failed to repeat so a noisy host can be told from
// a noisy metric.
func spinCV(d time.Duration) float64 {
	var times []float64
	deadline := time.Now().Add(d)
	x := uint64(88172645463325252)
	for time.Now().Before(deadline) {
		t0 := time.Now()
		for i := 0; i < 200_000; i++ {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
		}
		times = append(times, float64(time.Since(t0)))
	}
	spinSink = x
	if len(times) < 2 {
		return 0
	}
	mean := 0.0
	for _, t := range times {
		mean += t
	}
	mean /= float64(len(times))
	ss := 0.0
	for _, t := range times {
		ss += (t - mean) * (t - mean)
	}
	return math.Sqrt(ss/float64(len(times)-1)) / mean
}

// spinSink keeps the spin kernel's result live so the loop is not removed.
var spinSink uint64

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
