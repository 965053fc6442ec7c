package main

import (
	"fmt"
	"runtime"
	"syscall"
	"time"

	"ncs/internal/buf"
	"ncs/internal/flowctl"
)

// windows splits every timed leg; see secondBest for how a run reads
// them.
const windows = 15

// setupReps is how many times one run sets the workload up (build, the
// fixed warm-up count, settle); setup_s is the median, and the last
// instance built is the one measured. A variable, like settle, so the
// smoke test can run one short set-up.
var setupReps = 5

// settle ends every set-up: deferred work the build and the warm-up
// left behind (retry timers, lazily started goroutines, the previous
// instance's garbage) lands inside set-up, not inside the measured
// interval. It also keeps setup_s from being a few milliseconds of
// pure scheduling noise on workloads whose warm-up is that short.
var settle = 250 * time.Millisecond

// metric is one named measurement with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runResult is one run's contract output: the last line of stdout.
type runResult struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// usage is the process's CPU time and voluntary context switches.
type usage struct {
	cpu  time.Duration
	vcsw int64
	rss  float64 // peak resident set, MB
}

func getUsage() usage {
	var ru syscall.Rusage
	// Getrusage cannot fail for RUSAGE_SELF with a valid pointer.
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	tv := func(t syscall.Timeval) time.Duration {
		return time.Duration(t.Sec)*time.Second + time.Duration(t.Usec)*time.Microsecond
	}
	return usage{
		cpu:  tv(ru.Utime) + tv(ru.Stime),
		vcsw: ru.Nvcsw,
		rss:  float64(ru.Maxrss) / 1024, // Linux reports kilobytes
	}
}

// liveCheck is the audit's first half, run while the connections are
// still open: every endpoint's terminal error must be clean.
func liveCheck(g *loadgen) error {
	for _, conn := range g.in.conns {
		if err := conn.Err(); err != nil {
			return fmt.Errorf("audit: connection %d to %s: %w", conn.ID(), conn.Peer(), err)
		}
	}
	return nil
}

// audit is the end-of-workload check, run after teardown: no pooled
// buffer still checked out, no flow-control timer still armed, no
// goroutine left behind. Teardown is asynchronous in places (a
// fast-path connection reaps its sessions from a goroutine), so the
// state gets a short while to settle before a violation counts.
// goroutines is the count before the workload was built.
func audit(goroutines int) error {
	deadline := time.Now().Add(3 * time.Second)
	for {
		bufs, timers, gor := buf.Outstanding(), flowctl.PendingTimers(), runtime.NumGoroutine()
		if bufs == 0 && timers == 0 && gor <= goroutines {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("audit: after teardown %d buffers outstanding, %d flow-control timers armed, %d goroutines (started with %d)",
				bufs, timers, gor, goroutines)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// setUp builds the workload, runs its fixed warm-up count and lets it
// settle.
func setUp(w workload, seed int64, sl *spanLog) (*loadgen, error) {
	g, err := newLoadgen(w, seed, sl)
	if err != nil {
		return nil, err
	}
	if r := g.run(w.warm, 0, nil); r.failed > 0 {
		g.in.stop()
		return nil, fmt.Errorf("warm-up: %w", r.err)
	}
	time.Sleep(settle)
	return g, nil
}

// tearDown checks the live connections, stops the instance and audits
// what it left behind.
func tearDown(g *loadgen, goroutines int) error {
	err := liveCheck(g)
	g.in.stop()
	if aerr := audit(goroutines); err == nil {
		err = aerr
	}
	return err
}

// measureUntraced is the end-to-end leg: set-up setupReps times, then
// dur of closed-loop traffic with the lifecycle tracer off.
func measureUntraced(w workload, seed int64, dur time.Duration) (runResult, error) {
	base := runtime.NumGoroutine()
	var (
		setups []float64
		g      *loadgen
	)
	for rep := 0; rep < setupReps; rep++ {
		t0 := time.Now()
		var err error
		if g, err = setUp(w, seed, nil); err != nil {
			return runResult{}, err
		}
		setups = append(setups, time.Since(t0).Seconds())
		if rep < setupReps-1 {
			if err := tearDown(g, base); err != nil {
				return runResult{}, err
			}
		}
	}

	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	r := g.run(0, dur, nil)
	runtime.ReadMemStats(&m1)
	rss := getUsage().rss
	if err := tearDown(g, base); err != nil {
		return runResult{}, err
	}

	res := runResult{Correct: r.failed == 0, Attempted: r.attempted, Failed: r.failed, Metrics: map[string]metric{}}
	if r.err != nil {
		fmt.Fprintln(logOut, "failure:", r.err)
	}
	ops := float64(r.delivered)
	res.Metrics["setup_s"] = metric{median(setups), "s"}
	res.Metrics["allocs_per_op"] = metric{ratio(float64(m1.Mallocs-m0.Mallocs), ops), "count"}
	res.Metrics["alloc_bytes_per_op"] = metric{ratio(float64(m1.TotalAlloc-m0.TotalAlloc), ops), "B"}
	res.Metrics["rss_peak_mb"] = metric{rss, "MB"}
	// The time-derived figures are not bounded metrics on this host
	// (README, "What is bounded"); the traced run reports them as
	// client.*. They are logged here because this is the longer leg.
	t := readTimes(w, &r)
	fmt.Fprintf(logOut, "%s: %d ops in %.2fs, %d windows of %.1fs; best-but-one window: %.0f ops/s, p50 %.2f us, p99 %.2f us, cpu %.2f us/op\n  window rates  %.0f\n  window p50 us %.2f\n  set-ups s     %.4f\n",
		w.name, r.delivered, r.elapsed, windows, r.winSpan, t.rate, t.p50, t.p99, t.cpuPerOp, r.rates(), r.percentiles(0.5), setups)
	return res, nil
}

// times are a leg's time-derived figures.
type times struct{ rate, p50, p99, cpuPerOp float64 }

// readTimes reads a leg's windows: each figure is its best-but-one
// window's (see secondBest). A patterned workload's windows differ by
// design, so its throughput and tail latency are whole-leg instead.
func readTimes(w workload, r *loopResult) times {
	t := times{
		rate:     secondBest(r.rates(), true),
		p50:      secondBest(r.percentiles(0.50), false),
		p99:      secondBest(r.percentiles(0.99), false),
		cpuPerOp: secondBest(r.cpuPerOp(), false),
	}
	if w.patterned {
		var all []float64
		for i := range r.wins {
			all = append(all, r.wins[i].us...)
		}
		t.rate = ratio(float64(r.delivered), r.elapsed)
		t.p99 = percentile(sortedCopy(all), 0.99)
	}
	return t
}
