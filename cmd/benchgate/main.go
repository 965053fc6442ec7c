// Command benchgate is the CI benchmark-regression gate: it compares
// two Go benchmark output files (a checked-in baseline and a fresh
// run, both produced with -benchmem, ideally -count=6 or more) and
// exits nonzero when the fresh run regresses.
//
// Gates:
//
//   - allocs/op: any increase of the median fails. Allocation counts
//     are deterministic enough that a +1 is a real regression (a lost
//     pooling or staging optimisation), which is exactly what the
//     pooled-buffer pipeline's acceptance numbers protect.
//   - ns/op: never gates. The median and its delta are printed for
//     the job log; absolute time is not comparable across machines,
//     nor across the speed states of one shared machine, so a time
//     claim goes through paired parent/head runs instead (see
//     benchmark/README.md).
//   - bytes/idleconn: a median regression beyond -mem-threshold
//     (default 10%) fails. This custom metric (ReportMetric from the
//     idle-memory benchmark) is the heap cost of one established,
//     quiet connection — the number the 100k-connection scale work
//     drove down — and, like allocs/op, it is CPU-independent, so it
//     gates across machines.
//
// Benchmarks present in only one file are reported but do not fail
// the gate: a brand-new benchmark has no baseline yet (refresh the
// baseline to start gating it — see README "Scaling" for the refresh
// command), and a deleted one gates nothing.
//
// Usage:
//
//	benchgate [-mem-threshold 0.10] baseline.txt current.txt
//
// benchstat (golang.org/x/perf) renders a nicer statistical comparison
// of the same two files; benchgate exists to turn the comparison into
// a reliable pass/fail without parsing benchstat's output format.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
)

func main() {
	memThreshold := flag.Float64("mem-threshold", 0.10, "fail when median bytes/idleconn regresses more than this fraction")
	flag.Parse()
	if flag.NArg() != 2 {
		fmt.Fprintln(os.Stderr, "usage: benchgate [-mem-threshold 0.10] baseline.txt current.txt")
		os.Exit(2)
	}
	os.Exit(gate(flag.Arg(0), flag.Arg(1), *memThreshold, os.Stdout, os.Stderr))
}

// gate compares the two files and returns the process exit code: 0 when
// every gate passed, 1 on a regression, 2 when a file cannot be used.
func gate(basePath, curPath string, memThreshold float64, stdout, stderr io.Writer) int {
	base, err := parseFile(basePath)
	if err != nil {
		fmt.Fprintln(stderr, "benchgate:", err)
		return 2
	}
	cur, err := parseFile(curPath)
	if err != nil {
		fmt.Fprintln(stderr, "benchgate:", err)
		return 2
	}
	report, failed := compare(base, cur, memThreshold)
	fmt.Fprint(stdout, report)
	if failed {
		return 1
	}
	return 0
}
