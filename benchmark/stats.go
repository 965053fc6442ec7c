package main

import (
	"math"
	"sort"
)

// percentile returns the q-quantile (0..1) of sorted by the
// nearest-rank rule; 0 for an empty sample.
func percentile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

// median returns the median of vs (mean of the middle pair for an even
// count) without reordering the caller's slice; 0 for an empty sample.
func median(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first and third quartile of vs exactly as
// Python's statistics.quantiles(vs, n=4) does (the "exclusive" method),
// which is what the acceptance runs are judged by. Fewer than two
// values have no spread: both quartiles are the single value (or 0).
func quartiles(vs []float64) (q1, q3 float64) {
	n := len(vs)
	if n == 0 {
		return 0, 0
	}
	if n == 1 {
		return vs[0], vs[0]
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	at := func(k int) float64 {
		j := k * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(k*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(3)
}

// latWindow holds one window's operation latencies as measured, in a
// fixed footprint: once windowSamples are held it keeps every second
// one and from then on records every second arrival, and so on — a
// systematic sample, which leaves percentiles where they were. (Raw
// samples of a whole 30 s run outweighed the program under test in
// rss_peak_mb; a histogram's bucket edges made deterministic
// workloads' percentiles read identically run after run.)
type latWindow struct {
	us     []float64 // kept samples, microseconds
	stride int       // one arrival in stride is kept
	skip   int       // arrivals to pass over before the next kept one
	n      int64     // arrivals, kept or not
	sumUS  float64   // over all arrivals
}

const windowSamples = 1 << 15

func (w *latWindow) add(us float64) {
	w.n++
	w.sumUS += us
	if w.skip > 0 {
		w.skip--
		return
	}
	if w.us == nil {
		w.us, w.stride = make([]float64, 0, windowSamples), 1
	}
	if len(w.us) == windowSamples {
		for i := 0; i < windowSamples/2; i++ {
			w.us[i] = w.us[2*i]
		}
		w.us = w.us[:windowSamples/2]
		w.stride *= 2
	}
	w.us = append(w.us, us)
	w.skip = w.stride - 1
}

// secondBest returns the best-but-one of vs: the second lowest, or
// with higherBetter the second highest (the only value, if there is
// one; 0 if none). It is how a run reads its windows. Whatever else
// the host is doing only ever slows a window down, in spells that last
// seconds to a minute, so the least disturbed windows say what the
// code costs and the run's median window says what the neighbours were
// doing; one window is passed over in case it was merely lucky.
func secondBest(vs []float64, higherBetter bool) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := sortedCopy(vs)
	if len(s) == 1 {
		return s[0]
	}
	if higherBetter {
		return s[len(s)-2]
	}
	return s[1]
}

// ratio is num/den with a zero denominator reading 0: a counter-delta
// ratio over a layer the workload never entered is "none", not NaN.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// spreadRatio is max÷min of vs (0 when empty or when min is 0).
func spreadRatio(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	lo, hi := vs[0], vs[0]
	for _, v := range vs[1:] {
		lo = math.Min(lo, v)
		hi = math.Max(hi, v)
	}
	return ratio(hi, lo)
}

// sortedCopy returns vs sorted ascending, leaving vs alone.
func sortedCopy(vs []float64) []float64 {
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	return s
}
