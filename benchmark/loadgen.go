package main

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// opTimeout is how long one operation may take before the watchdog
// counts it failed and tears the connections down to unblock it.
const opTimeout = 5 * time.Second

// loadgen drives one built instance with closed-loop callers: each
// caller sends its next operation only after the previous one
// completed. Operation ids keep rising across warm-up and measured
// legs so the echo side's in-order, exactly-once check spans them.
type loadgen struct {
	w    workload
	in   *instance
	seed int64
	seq  []uint64 // per caller: last sequence number used
	bufs [][]byte // per caller: payload, re-stamped for every op
}

func newLoadgen(w workload, seed int64, sl *spanLog) (*loadgen, error) {
	in, err := w.build(seed, sl)
	if err != nil {
		return nil, fmt.Errorf("%s: set-up: %w", w.name, err)
	}
	g := &loadgen{w: w, in: in, seed: seed, seq: make([]uint64, len(in.ops))}
	base := payloadBase(seed, w.size)
	for range in.ops {
		g.bufs = append(g.bufs, append([]byte(nil), base...))
	}
	return g, nil
}

// window is what one window of a leg measured.
type window struct {
	us  []float64     // operation latency samples, microseconds
	ops int64         // operations completed in the window
	cpu time.Duration // process CPU time (user+sys) spent during it
}

// loopResult is what one leg of closed-loop traffic measured.
type loopResult struct {
	wins      []window
	winSpan   float64 // seconds per window
	meanUS    float64 // mean latency over every completed operation
	completed int64   // operations whose caller saw them complete
	elapsed   float64 // seconds from the leg's start to its last completion
	attempted int64
	failed    int64
	delivered int64 // verified deliveries (one-way: by the receiver)
	err       error // first failure, if any
}

// perWindow returns f of every window that completed an operation.
func (r *loopResult) perWindow(f func(w *window) float64) []float64 {
	var out []float64
	for i := range r.wins {
		if r.wins[i].ops > 0 {
			out = append(out, f(&r.wins[i]))
		}
	}
	return out
}

func (r *loopResult) rates() []float64 {
	return r.perWindow(func(w *window) float64 { return float64(w.ops) / r.winSpan })
}

func (r *loopResult) cpuPerOp() []float64 {
	return r.perWindow(func(w *window) float64 { return float64(w.cpu) / 1e3 / float64(w.ops) })
}

func (r *loopResult) percentiles(q float64) []float64 {
	return r.perWindow(func(w *window) float64 { return percentile(sortedCopy(w.us), q) })
}

// run drives every caller until each has completed count operations
// (count > 0, the warm-up: nothing is recorded) or dur has passed
// (count == 0: latencies, operation counts and CPU time go into
// windows equal windows of dur). Operations of the traced leg record
// spans into sl.
func (g *loadgen) run(count int, dur time.Duration, sl *spanLog) loopResult {
	type callerState struct {
		wins              []latWindow
		completed         int64
		last              time.Duration // completion time of the last op
		attempted, failed int64
		err               error
		opStart           atomic.Int64 // ns into the leg; 0 between ops
	}
	n := len(g.in.ops)
	states := make([]*callerState, n)
	for i := range states {
		states[i] = &callerState{}
		if count == 0 {
			states[i].wins = make([]latWindow, windows)
		}
	}
	var deliveredBefore int64
	if g.in.delivered != nil {
		deliveredBefore = g.in.delivered.Load()
	}

	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < n; c++ {
		wg.Add(1)
		go func(c int, st *callerState) {
			defer wg.Done()
			op, payload := g.in.ops[c], g.bufs[c]
			for i := 0; count == 0 || i < count; i++ {
				g.seq[c]++
				id := uint64(c)<<48 | g.seq[c]
				stamp(payload, g.seed, id)
				t0 := time.Now()
				st.opStart.Store(int64(t0.Sub(start)) + 1)
				st.attempted++
				err := op(id, payload, sl)
				t1 := time.Now()
				st.opStart.Store(0)
				if err != nil {
					st.failed++
					st.err = fmt.Errorf("%s: caller %d op %#x: %w", g.w.name, c, id, err)
					return
				}
				if sampled(sl, id) {
					sl.add(id, "op", "", int64(t0.Sub(sl.base)), int64(t1.Sub(sl.base)))
				}
				st.completed++
				st.last = t1.Sub(start)
				if count > 0 {
					continue
				}
				if st.last >= dur {
					st.wins[windows-1].add(float64(t1.Sub(t0)) / 1e3)
					return
				}
				st.wins[int(st.last*windows/dur)].add(float64(t1.Sub(t0)) / 1e3)
			}
		}(c, states[c])
	}

	// Watchdog: an operation outstanding longer than opTimeout is a
	// failed operation; closing the connections is what unblocks it.
	// The same goroutine reads the process's CPU time at every window
	// boundary.
	cpuAt := make([]time.Duration, 1, windows+1)
	cpuAt[0] = getUsage().cpu
	stopDog := make(chan struct{})
	var dog sync.WaitGroup
	dog.Add(1)
	go func() {
		defer dog.Done()
		tick := time.NewTicker(250 * time.Millisecond)
		defer tick.Stop()
		var boundary <-chan time.Time
		if count == 0 {
			edge := time.NewTicker(dur / windows)
			defer edge.Stop()
			boundary = edge.C
		}
		for {
			select {
			case <-stopDog:
				return
			case <-boundary:
				if len(cpuAt) < windows {
					cpuAt = append(cpuAt, getUsage().cpu)
				}
			case now := <-tick.C:
				for _, st := range states {
					if s := st.opStart.Load(); s != 0 && now.Sub(start)-time.Duration(s) > opTimeout {
						g.in.fail(fmt.Errorf("%s: operation exceeded %v", g.w.name, opTimeout))
						for _, conn := range g.in.conns {
							conn.Close()
						}
						return
					}
				}
			}
		}
	}()
	wg.Wait()
	close(stopDog)
	dog.Wait()

	cpuAt = append(cpuAt, getUsage().cpu) // the leg's end closes the last window
	r := loopResult{wins: make([]window, windows), winSpan: dur.Seconds() / windows}
	for i := 1; i < len(cpuAt) && count == 0; i++ {
		r.wins[i-1].cpu = cpuAt[i] - cpuAt[i-1]
	}
	var sumUS float64
	for _, st := range states {
		// Callers run at near-equal rates, so their windows hold
		// samples at near-equal strides and merge without weighting.
		for i := range st.wins {
			r.wins[i].us = append(r.wins[i].us, st.wins[i].us...)
			r.wins[i].ops += st.wins[i].n
			sumUS += st.wins[i].sumUS
		}
		r.completed += st.completed
		r.attempted += st.attempted
		r.failed += st.failed
		if r.err == nil {
			r.err = st.err
		}
		if s := st.last.Seconds(); s > r.elapsed {
			r.elapsed = s
		}
	}
	r.meanUS = ratio(sumUS, float64(r.completed))
	r.delivered = r.completed
	if g.in.delivered != nil {
		// One-way: Send returned because the transfer was acknowledged,
		// so the receiver has the message; give its goroutine a moment
		// to finish verifying the last one.
		want := deliveredBefore + r.completed
		for wait := time.Now(); g.in.delivered.Load() < want && time.Since(wait) < opTimeout; {
			time.Sleep(time.Millisecond)
		}
		r.delivered = g.in.delivered.Load() - deliveredBefore
		if miss := r.completed - r.delivered; miss > 0 {
			r.failed += miss
		}
	}
	if err := g.in.sideErr(); err != nil {
		if r.failed == 0 {
			r.failed = 1
		}
		if r.err == nil {
			r.err = err
		}
	}
	return r
}
