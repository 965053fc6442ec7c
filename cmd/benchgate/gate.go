package main

import (
	"bufio"
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"
)

// sample is one benchmark line's gated metrics.
type sample struct {
	nsPerOp      float64
	allocsPerOp  float64
	hasAllocs    bool
	bytesPerConn float64 // custom "bytes/idleconn" metric (ReportMetric)
	hasBytes     bool
}

// bench aggregates repeated runs (-count=N) of one benchmark.
type bench struct {
	times  []float64
	allocs []float64
	bytes  []float64 // bytes/idleconn samples
}

// parseFile reads Go benchmark output: lines of the form
//
//	BenchmarkName-8  92341  12345 ns/op  67 B/op  8 allocs/op
//
// keyed by benchmark name with the trailing -GOMAXPROCS stripped, so a
// baseline recorded on an 8-core machine compares against a 4-core
// run.
func parseFile(path string) (map[string]*bench, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out := make(map[string]*bench)
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	for sc.Scan() {
		name, s, ok := parseLine(sc.Text())
		if !ok {
			continue
		}
		b := out[name]
		if b == nil {
			b = &bench{}
			out[name] = b
		}
		b.times = append(b.times, s.nsPerOp)
		if s.hasAllocs {
			b.allocs = append(b.allocs, s.allocsPerOp)
		}
		if s.hasBytes {
			b.bytes = append(b.bytes, s.bytesPerConn)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("%s: no benchmark lines found", path)
	}
	return out, nil
}

// parseLine extracts one benchmark result line; ok is false for
// non-benchmark lines (headers, PASS, etc.).
func parseLine(line string) (name string, s sample, ok bool) {
	fields := strings.Fields(line)
	if len(fields) < 4 || !strings.HasPrefix(fields[0], "Benchmark") {
		return "", sample{}, false
	}
	name = stripProcs(fields[0])
	for i := 2; i+1 < len(fields); i++ {
		v, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			continue
		}
		switch fields[i+1] {
		case "ns/op":
			s.nsPerOp = v
			ok = true
		case "allocs/op":
			s.allocsPerOp = v
			s.hasAllocs = true
		case "bytes/idleconn":
			// The idle-memory benchmark's custom metric (ReportMetric):
			// estimated heap bytes per established-but-quiet connection.
			s.bytesPerConn = v
			s.hasBytes = true
			ok = true
		}
	}
	return name, s, ok
}

// stripProcs removes the -GOMAXPROCS suffix from a benchmark name.
func stripProcs(name string) string {
	i := strings.LastIndex(name, "-")
	if i < 0 {
		return name
	}
	if _, err := strconv.Atoi(name[i+1:]); err != nil {
		return name
	}
	return name[:i]
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// compare gates cur against base, returning a human-readable report
// and whether any gate failed. allocs/op (any increase of the median)
// and bytes/idleconn (a median regression beyond memThreshold) gate:
// both are properties of the code, the same on every machine and in
// every speed state of one machine. ns/op is printed with its delta
// and never fails — a time claim needs paired parent/head runs (see
// benchmark/README.md), not a comparison against a number recorded
// some other day.
func compare(base, cur map[string]*bench, memThreshold float64) (string, bool) {
	names := make([]string, 0, len(cur))
	for name := range cur {
		names = append(names, name)
	}
	sort.Strings(names)

	var b strings.Builder
	failed := false
	for _, name := range names {
		c := cur[name]
		bl, inBase := base[name]
		if !inBase {
			fmt.Fprintf(&b, "NEW    %s: no baseline (refresh testdata/bench-baseline.txt to start gating it)\n", name)
			continue
		}
		if ct, bt := median(c.times), median(bl.times); bt > 0 {
			fmt.Fprintf(&b, "time   %s: %.0fns/op vs baseline %.0fns (%+.1f%%, not gated)\n",
				name, ct, bt, 100*(ct/bt-1))
		}
		if len(c.allocs) > 0 && len(bl.allocs) > 0 {
			ca, ba := median(c.allocs), median(bl.allocs)
			if ca > ba {
				fmt.Fprintf(&b, "FAIL   %s: allocs/op %.0f vs baseline %.0f — the pooled pipeline lost an optimisation\n",
					name, ca, ba)
				failed = true
			}
		}
		if len(c.bytes) > 0 && len(bl.bytes) > 0 {
			cm, bm := median(c.bytes), median(bl.bytes)
			if bm > 0 && cm > bm*(1+memThreshold) {
				fmt.Fprintf(&b, "FAIL   %s: bytes/idleconn %.0f vs baseline %.0f (+%.1f%%, threshold %.0f%%) — idle connections got fatter\n",
					name, cm, bm, 100*(cm/bm-1), 100*memThreshold)
				failed = true
			}
		}
	}
	for name := range base {
		if _, ok := cur[name]; !ok {
			fmt.Fprintf(&b, "GONE   %s: in baseline but not in this run\n", name)
		}
	}
	if failed {
		b.WriteString("benchgate: REGRESSION — see FAIL lines above\n")
	} else {
		b.WriteString("benchgate: all gates passed\n")
	}
	return b.String(), failed
}
