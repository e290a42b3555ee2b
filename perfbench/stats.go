package main

import (
	"math"
	"math/rand"
	"sort"
	"time"
)

// minBeyond is how many samples must lie beyond a reported percentile
// for it to be worth reporting: with fewer, one outlier moves it.
const minBeyond = 10

// quantile returns the q-quantile (0 ≤ q ≤ 1) of xs by linear
// interpolation between closest ranks. xs need not be sorted; it is not
// modified. It returns NaN for an empty sample.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// median is quantile(xs, 0.5).
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// tailPercentile returns the highest of the conventional percentiles
// (50, 90, 95, 99, 99.9) that has at least minBeyond of n samples beyond
// it, or 0 when not even the median has.
func tailPercentile(n int) float64 {
	best := 0
	for _, permille := range []int{500, 900, 950, 990, 999} {
		if n*(1000-permille) >= minBeyond*1000 {
			best = permille
		}
	}
	return float64(best) / 10
}

// jitteredSchedule returns n send offsets over [0, span): the span is cut
// into n equal slots and each send falls at a uniform random point of
// its own slot. The offered load is the same in every run, and bursts
// stay short: two sends are never more than two slots apart or closer
// together than chance within adjacent slots allows.
func jitteredSchedule(n int, span time.Duration, seed int64) []time.Duration {
	rng := rand.New(rand.NewSource(seed))
	slot := int64(span) / int64(n)
	out := make([]time.Duration, n)
	for i := range out {
		out[i] = time.Duration(int64(i)*slot + rng.Int63n(slot))
	}
	return out
}

// lagLimit is how late a send may start against its schedule before the
// generator counts as fallen behind. It is about one mean inter-arrival gap at
// the serve-open rate: later than that, the offered load is no longer
// the scheduled one and the run is invalid.
const lagLimit = 250 * time.Millisecond

// openLoopStats summarises an open-loop run. Latencies are measured from
// each request's scheduled (due) time, so a stall also charges the wait
// it imposes on requests queued behind it; a refused or failed request
// counts as a miss and contributes no latency sample.
type openLoopStats struct {
	Latencies []float64 // seconds, completed requests only
	Misses    int       // refused (429) or failed requests
	Lags      []float64 // seconds each send started after its due time
}

// maxLag is the largest send lag in seconds.
func (s *openLoopStats) maxLag() float64 {
	m := 0.0
	for _, l := range s.Lags {
		m = math.Max(m, l)
	}
	return m
}

// valid reports whether the generator kept to its schedule.
func (s *openLoopStats) valid() bool { return s.maxLag() <= lagLimit.Seconds() }
