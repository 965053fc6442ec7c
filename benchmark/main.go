// Command benchmark is the repository's one end-to-end and per-layer
// benchmark: four closed-loop workloads over the NCS runtime at
// GOMAXPROCS=2, measured from outside the program. See README.md.
//
// Given -workload and -trace it is one run, and prints that run's
// result as the last line of standard output. Without -trace it is the
// suite: it re-executes itself once per workload and leg, one child
// process at a time, prints every metric and writes out/result.json.
// With -compare it judges two result files by the bounds in
// BENCHMARK.json.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"time"
)

// procs is the GOMAXPROCS every run pins: the smallest count on which
// the cross-core wake-up costs this benchmark exists to show appear.
const procs = 2

// logOut takes the human-readable progress lines; the result line has
// standard output to itself.
var logOut io.Writer = os.Stderr

func main() {
	var (
		name    = flag.String("workload", "", "workload to run (default: all, as a suite)")
		seed    = flag.Int64("seed", 1, "seed for payload bytes")
		seconds = flag.Float64("seconds", 30, "measured seconds per run")
		trace   = flag.Int("trace", -1, "0: one untraced end-to-end run; 1: one traced per-layer run; unset: suite of both")
		runs    = flag.Int("runs", 1, "suite: runs per workload, seeds seed, seed+1, ...")
		outDir  = flag.String("out", "benchmark/out", "directory for result.json and trace files")
		spec    = flag.String("spec", "BENCHMARK.json", "the benchmark's metric and bound definitions")
		compare = flag.Bool("compare", false, "compare two result files: -compare a.json b.json")
	)
	flag.Parse()
	if err := run(*name, *seed, *seconds, *trace, *runs, *outDir, *spec, *compare, flag.Args()); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

func run(name string, seed int64, seconds float64, trace, runs int, outDir, specPath string, compare bool, args []string) error {
	sp, err := loadSpec(specPath)
	if err != nil {
		return err
	}
	if compare {
		if len(args) != 2 {
			return fmt.Errorf("-compare takes two result files")
		}
		return compareFiles(sp, args[0], args[1], os.Stdout)
	}
	if len(args) > 0 {
		return fmt.Errorf("unexpected argument %q", args[0])
	}
	if seconds < 1 {
		return fmt.Errorf("-seconds must be at least 1")
	}
	if name == "" || trace < 0 {
		return suite(sp, name, seed, seconds, runs, outDir, specPath)
	}

	w, ok := findWorkload(name)
	if !ok {
		return fmt.Errorf("unknown workload %q", name)
	}
	if runtime.NumCPU() < procs {
		return fmt.Errorf("this host has %d CPU; the benchmark pins GOMAXPROCS=%d and refuses to run with fewer", runtime.NumCPU(), procs)
	}
	runtime.GOMAXPROCS(procs)
	fmt.Fprintf(logOut, "%s seed %d, %gs, trace %d: %s\n", name, seed, seconds, trace, envelope())

	dur := time.Duration(seconds * float64(time.Second))
	var res runResult
	var want []metricSpec
	if trace == 1 {
		res, err = measureTraced(w, seed, dur, outDir)
		want = sp.PerLayer
	} else {
		res, err = measureUntraced(w, seed, dur)
		want = sp.EndToEnd
	}
	if err != nil {
		return err
	}
	if err := checkEmitted(res.Metrics, want); err != nil {
		return err
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}
