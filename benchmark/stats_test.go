package main

import (
	"math"
	"testing"
	"time"
)

func near(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestPercentileNearestRank(t *testing.T) {
	s := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for _, tc := range []struct{ q, want float64 }{{0.5, 5}, {0.99, 10}, {0.1, 1}, {0, 1}, {1, 10}} {
		if got := percentile(s, tc.q); got != tc.want {
			t.Errorf("percentile(%v) = %v, want %v", tc.q, got, tc.want)
		}
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("percentile of nothing = %v, want 0", got)
	}
}

func TestMedian(t *testing.T) {
	in := []float64{9, 1, 5}
	if got := median(in); got != 5 {
		t.Errorf("odd median = %v, want 5", got)
	}
	if in[0] != 9 {
		t.Error("median reordered its input")
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("even median = %v, want 2.5", got)
	}
	if got := median(nil); got != 0 {
		t.Errorf("median of nothing = %v, want 0", got)
	}
}

// The expected values are statistics.quantiles(vs, n=4) from Python.
func TestQuartilesMatchPython(t *testing.T) {
	for _, tc := range []struct {
		vs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{10, 30, 20}, 10, 30},
		{[]float64{3, 1}, 0.5, 3.5},
		{[]float64{5, 1, 4, 2}, 1.25, 4.75},
		{[]float64{7}, 7, 7},
	} {
		q1, q3 := quartiles(tc.vs)
		if !near(q1, tc.q1) || !near(q3, tc.q3) {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", tc.vs, q1, q3, tc.q1, tc.q3)
		}
	}
}

func TestLatWindowKeepsPercentiles(t *testing.T) {
	// Ten times what a window holds: the footprint stays fixed, count
	// and mean stay exact, and the percentiles of the systematic sample
	// stay within a per cent of the exact ones.
	var w latWindow
	var exact []float64
	var sum float64
	for i := 0; i < 10*windowSamples; i++ {
		// A Weyl sequence: equidistributed along every stride.
		us := 5 + float64(uint32(i)*2654435761)/(1<<32)*1000
		w.add(us)
		exact = append(exact, us)
		sum += us
	}
	if len(w.us) > windowSamples || len(w.us) < windowSamples/2 {
		t.Errorf("holds %d samples, want between %d and %d", len(w.us), windowSamples/2, windowSamples)
	}
	if w.n != int64(len(exact)) || !near(w.sumUS, sum) {
		t.Errorf("count %d sum %v, want %d %v", w.n, w.sumUS, len(exact), sum)
	}
	exact, kept := sortedCopy(exact), sortedCopy(w.us)
	for _, q := range []float64{0.5, 0.9, 0.99} {
		got, want := percentile(kept, q), percentile(exact, q)
		if math.Abs(got-want) > 0.01*want {
			t.Errorf("q=%v: sample %v, exact %v", q, got, want)
		}
	}
	var few latWindow
	for _, us := range []float64{3, 1, 2} {
		few.add(us)
	}
	if len(few.us) != 3 || few.us[0] != 3 {
		t.Errorf("below the cap every sample is kept as measured: %v", few.us)
	}
}

func TestSecondBest(t *testing.T) {
	vs := []float64{14, 10.2, 13, 9.9, 10.1}
	if got := secondBest(vs, false); got != 10.1 {
		t.Errorf("second lowest = %v, want 10.1", got)
	}
	if got := secondBest(vs, true); got != 13 {
		t.Errorf("second highest = %v, want 13", got)
	}
	if vs[0] != 14 {
		t.Error("secondBest reordered its input")
	}
	if secondBest([]float64{7}, true) != 7 || secondBest(nil, false) != 0 {
		t.Error("one value is itself, none is 0")
	}
}

func TestReadTimes(t *testing.T) {
	// Three 2 s windows: two quiet, one where the host was busy.
	r := loopResult{winSpan: 2, elapsed: 6, delivered: 500, wins: []window{
		{us: []float64{10, 10, 11, 50}, ops: 200, cpu: 2 * time.Millisecond},
		{us: []float64{14, 15, 15, 90}, ops: 100, cpu: 2 * time.Millisecond},
		{us: []float64{10, 11, 11, 60}, ops: 200, cpu: 3 * time.Millisecond},
		{}, // a window that completed nothing is left out
	}}
	got := readTimes(workload{}, &r)
	if got.rate != 100 || got.p50 != 11 || got.p99 != 60 || got.cpuPerOp != 15 {
		t.Errorf("by window: %+v, want rate 100, p50 11, p99 60, cpu 15", got)
	}
	// A patterned workload reads throughput and the tail whole-leg.
	got = readTimes(workload{patterned: true}, &r)
	if !near(got.rate, 500.0/6) || got.p99 != 90 || got.p50 != 11 {
		t.Errorf("patterned: %+v, want rate 83.3, p99 90, p50 11", got)
	}
}

func TestRatioZeroDenominator(t *testing.T) {
	if got := ratio(7, 0); got != 0 {
		t.Errorf("ratio(7, 0) = %v, want 0", got)
	}
	if got := ratio(6, 4); got != 1.5 {
		t.Errorf("ratio(6, 4) = %v, want 1.5", got)
	}
	if got := spreadRatio([]float64{2, 8, 4}); got != 4 {
		t.Errorf("spreadRatio = %v, want 4", got)
	}
	if got := spreadRatio([]float64{0, 8}); got != 0 {
		t.Errorf("spreadRatio with a zero minimum = %v, want 0", got)
	}
}

func TestSelfTime(t *testing.T) {
	spans := []span{
		{Op: 1, Name: "op", Start: 0, End: 100},
		{Op: 1, Name: "client.send", Parent: "op", Start: 10, End: 40},
		{Op: 1, Name: "client.recv", Parent: "op", Start: 30, End: 70},    // overlaps send by 10
		{Op: 1, Name: "server.send", Parent: "op", Start: 90, End: 120},   // runs past its parent
		{Op: 2, Name: "client.send", Parent: "op", Start: 0, End: 100},    // another op's child
		{Op: 1, Name: "replay.buf", Parent: "", Start: 200, End: 250},     // a root of its own
		{Op: 1, Name: "inner", Parent: "client.send", Start: 15, End: 20}, // grandchild of op
	}
	self := selfTimes(spans)
	// op 1: children cover [10,70) and [90,100) = 70 of 100.
	if self[0] != 30 {
		t.Errorf("op self time = %d, want 30", self[0])
	}
	if self[1] != 25 {
		t.Errorf("client.send self time = %d, want 25 (30 minus the inner 5)", self[1])
	}
	if self[2] != 40 || self[5] != 50 {
		t.Errorf("leaf self times = %d, %d; want their durations 40, 50", self[2], self[5])
	}
	for i, s := range self {
		if s < 0 {
			t.Errorf("span %d has negative self time %d", i, s)
		}
	}
}

func TestStampVerify(t *testing.T) {
	for _, size := range []int{64, 1024, 16 * 1024, 256 * 1024} {
		p := payloadBase(9, size)
		stamp(p, 9, 42)
		if err := verify(p, size, 9, 42); err != nil {
			t.Fatalf("size %d: fresh stamp does not verify: %v", size, err)
		}
		if verify(p, size, 9, 43) == nil || verify(p, size, 8, 42) == nil || verify(p[:size-1], size, 9, 42) == nil {
			t.Errorf("size %d: a wrong id, seed or length passed", size)
		}
		if size > stampStride {
			// A segment of another message in the last SDU's place.
			q := append([]byte(nil), p...)
			stamp(q[size-stampStride:], 9, 41)
			if verify(q, size, 9, 42) == nil {
				t.Errorf("size %d: a foreign last SDU passed", size)
			}
		}
	}
}

func TestJudge(t *testing.T) {
	lower := metricSpec{Name: "lat", Better: "lower", Bound: 0.10}
	higher := metricSpec{Name: "rate", Better: "higher", Bound: 0.10}
	a := []float64{100, 101, 99}
	for _, tc := range []struct {
		name string
		b    []float64
		ms   metricSpec
		want string
	}{
		{"same", []float64{100, 102, 98}, lower, "ok"},
		{"slower beyond the bound", []float64{115, 116, 114}, lower, "regressed"},
		{"faster", []float64{80, 81, 79}, lower, "ok"},
		{"rate fell beyond the bound", []float64{85, 86, 84}, higher, "regressed"},
		{"rate rose", []float64{120, 121, 119}, higher, "ok"},
		{"too noisy to tell", []float64{90, 130, 110}, lower, "unresolved"},
		{"noisy but every run better", []float64{50, 70, 90}, lower, "ok"},
	} {
		if got := judge(a, tc.b, tc.ms).verdict; got != tc.want {
			t.Errorf("%s: verdict %q, want %q", tc.name, got, tc.want)
		}
	}
}
