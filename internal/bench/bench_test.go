package bench

import (
	"strings"
	"testing"
	"time"

	"ncs/internal/platform"
	"ncs/internal/telemetry"
	"ncs/internal/thread"
)

func TestMedianAndMeanTrimmed(t *testing.T) {
	ds := []time.Duration{5, 1, 100, 3, 4} // best=1 worst=100 dropped
	if m := median(ds); m != 4 {
		t.Fatalf("median = %v", m)
	}
	if m := meanTrimmed(ds); m != 4 {
		t.Fatalf("meanTrimmed = %v", m)
	}
	if meanTrimmed(nil) != 0 || median(nil) != 0 {
		t.Fatal("empty inputs should give 0")
	}
	if m := meanTrimmed([]time.Duration{6, 8}); m != 7 {
		t.Fatalf("meanTrimmed(2) = %v", m)
	}
}

func TestFigureRender(t *testing.T) {
	f := Figure{
		Title:  "test",
		YLabel: "time",
		Series: []Series{
			{Label: "a", Points: []Point{{1, time.Microsecond}, {1024, time.Millisecond}}},
			{Label: "b", Points: []Point{{1, 2 * time.Microsecond}, {1024, time.Second}}},
		},
	}
	out := f.Render()
	for _, want := range []string{"test", "a", "b", "1K", "1.00ms", "1.00s"} {
		if !strings.Contains(out, want) {
			t.Fatalf("Render missing %q:\n%s", want, out)
		}
	}
	ratio := f.RenderRatio(f.Series[0])
	if !strings.Contains(ratio, "2.00") {
		t.Fatalf("RenderRatio missing ratio:\n%s", ratio)
	}
}

func TestMiniSendPathBothModels(t *testing.T) {
	for _, model := range []thread.Model{thread.UserLevel, thread.KernelLevel} {
		t.Run(model.String(), func(t *testing.T) {
			pkg := thread.New(model)
			defer pkg.Shutdown()
			sink := newWriteSink()
			mini, err := newMiniSendPath(pkg, sink)
			if err != nil {
				t.Fatal(err)
			}
			th, err := pkg.Spawn("caller", func() {
				for i := 1; i <= 3; i++ {
					mini.sendSync(make([]byte, 64*i))
				}
			})
			if err != nil {
				t.Fatal(err)
			}
			th.Join()
			mini.close()
			if n := mini.sent.Load(); n != 3 {
				t.Fatalf("transmissions = %d, want 3", n)
			}
			if len(sink.buf) != 192 {
				t.Fatalf("last write = %d bytes, want 192 (sends reordered or dropped)", len(sink.buf))
			}
		})
	}
}

// TestFigure10Shape asserts the paper's qualitative result as a count,
// not a time: at 64 KB (past the socket buffer) no compute quantum of
// the user-level package ever finishes while a send is in progress — a
// blocked send stalls the whole process — while the kernel-level
// package overlaps them.
func TestFigure10Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second experiment")
	}
	cfg := Fig10Config{Iterations: 10}.withDefaults()
	if _, n := fig10Run(cfg, thread.UserLevel, 65536); n != 0 {
		t.Errorf("user-level: %d of %d compute quanta overlapped a send in progress, want 0", n, cfg.Iterations)
	}
	if _, n := fig10Run(cfg, thread.KernelLevel, 65536); n == 0 {
		t.Errorf("kernel-level: no compute quantum of %d overlapped a send in progress", cfg.Iterations)
	}

	fig := Figure10(Fig10Config{Sizes: []int{64, 1024}, Iterations: 2})
	checkSeries(t, fig.Series, []string{"user-level", "kernel-level"}, []int{64, 1024})
	if out := fig.Render(); !strings.Contains(out, "Figure 10") || !strings.Contains(out, "1K") {
		t.Errorf("Render:\n%s", out)
	}
}

// checkSeries asserts a figure's structure: the labelled series in
// order, each with one point per swept size.
func checkSeries(t *testing.T, got []Series, labels []string, sizes []int) {
	t.Helper()
	if len(got) != len(labels) {
		t.Fatalf("series = %d, want %d", len(got), len(labels))
	}
	for i, s := range got {
		if s.Label != labels[i] || len(s.Points) != len(sizes) {
			t.Fatalf("series %d = %q with %d points, want %q with %d", i, s.Label, len(s.Points), labels[i], len(sizes))
		}
		for j, p := range s.Points {
			if p.Size != sizes[j] {
				t.Errorf("%s point %d: size %d, want %d", s.Label, j, p.Size, sizes[j])
			}
		}
	}
}

// TestFigure11Shape checks structure only: the overhead ratio is a
// quotient of two wall-clock means, which is the report's to print and
// no test's to judge.
func TestFigure11Shape(t *testing.T) {
	sizes := []int{1, 65536}
	data := Figure11(Fig11Config{Sizes: sizes, Iterations: 5})
	checkSeries(t, []Series{data.Native}, []string{"native"}, sizes)
	checkSeries(t, data.Fig.Series, []string{"user-level", "kernel-level"}, sizes)
	out := data.Fig.RenderRatio(data.Native)
	for _, want := range []string{"Figure 11", "user-level", "kernel-level", "64K"} {
		if !strings.Contains(out, want) {
			t.Errorf("RenderRatio missing %q:\n%s", want, out)
		}
	}
}

func TestTableI(t *testing.T) {
	res, err := TableI(TableIConfig{Iterations: 50})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 5 {
		t.Fatalf("rows = %d, want 5", len(res.Rows))
	}
	// A paced 1-byte send finds the Send Thread idle and its caller writes
	// it: that path has no queue and no switch to the Send Thread.
	var session float64
	for i, r := range res.Rows[:4] {
		session += r.PaperUS
		if handOff := i == 1 || i == 2; r.NotTaken != handOff {
			t.Errorf("row %q: not taken = %v, want %v: paced 1-byte sends are written inline", r.Activity, r.NotTaken, handOff)
		}
		if r.NotTaken {
			if r.Measured != 0 {
				t.Errorf("row %q was not taken yet measured %v", r.Activity, r.Measured)
			}
		} else if r.Measured <= 0 {
			t.Errorf("row %q measured %v: a stage delta read off the lifecycle stamps must be positive", r.Activity, r.Measured)
		}
	}
	if session != res.PaperSessionUS || res.Rows[4].PaperUS != res.PaperDataUS {
		t.Fatalf("paper columns: session rows sum to %v (want %v), data row %v (want %v)",
			session, res.PaperSessionUS, res.Rows[4].PaperUS, res.PaperDataUS)
	}
	if res.DataTransfer <= 0 || res.Total != res.SessionOverhead+res.DataTransfer {
		t.Fatalf("data transfer %v, session overhead %v, total %v", res.DataTransfer, res.SessionOverhead, res.Total)
	}
	if telemetry.TracingEnabled() {
		t.Fatal("TableI left the process-global tracer on")
	}
	out := res.Render()
	for _, want := range []string{"Table I", "entry + header", "Queuing", "Context switch to Send Thread", "switch back",
		"Transmitting", "session overhead total", "108", "274", "383", "not taken (inline)"} {
		if !strings.Contains(out, want) {
			t.Fatalf("Render missing %q:\n%s", want, out)
		}
	}
}

// chargedPerEcho runs iters echoes of one size and returns what the
// platform model billed per echo (the platform.Charged delta): syscall
// and copy taxes, XDR conversion, calibrated cross-stack stalls — as
// asked for, not as slept, so host scheduling cannot move it. The
// shape tests order systems by this; round-trip time is the report's.
func chargedPerEcho(t *testing.T, sys SystemKind, local, remote platform.Platform, size, iters int) time.Duration {
	t.Helper()
	before := platform.Charged()
	series, err := RunEcho(EchoConfig{
		System:     sys,
		Local:      local,
		Remote:     remote,
		Sizes:      []int{size},
		Iterations: iters,
	})
	if err != nil {
		t.Fatal(err)
	}
	checkSeries(t, []Series{series}, []string{sys.String()}, []int{size})
	return (platform.Charged() - before) / time.Duration(iters)
}

func TestEchoSmokeAllSystems(t *testing.T) {
	for _, sys := range AllSystems {
		t.Run(sys.String(), func(t *testing.T) {
			small := chargedPerEcho(t, sys, platform.RS6000, platform.RS6000, 1, 3)
			large := chargedPerEcho(t, sys, platform.RS6000, platform.RS6000, 65536, 3)
			if small == 0 || large <= small {
				t.Fatalf("charged per echo: 1B = %v, 64K = %v; want 0 < 1B < 64K", small, large)
			}
		})
	}
}

// TestFigure12Shape asserts the RS6000 pair the model determines: p4
// beats PVM (daemon hop + unconditional XDR). NCS and PVM round trips
// are both link-bound here and land within noise of each other; the
// report prints that pair and no test judges it.
func TestFigure12Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second experiment")
	}
	p4c := chargedPerEcho(t, SysP4, platform.RS6000, platform.RS6000, 65536, 5)
	pvmc := chargedPerEcho(t, SysPVM, platform.RS6000, platform.RS6000, 65536, 5)
	if p4c >= pvmc {
		t.Errorf("RS6000 64KB charged per echo: p4 (%v) should be below PVM (%v)", p4c, pvmc)
	}
}

// TestFigure13Shape asserts the heterogeneous ordering: NCS cheapest,
// MPI dearest by at least 2x.
func TestFigure13Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second experiment")
	}
	cost := map[SystemKind]time.Duration{}
	for _, sys := range []SystemKind{SysNCS, SysP4, SysMPI} {
		cost[sys] = chargedPerEcho(t, sys, platform.SUN4, platform.RS6000, 65536, 4)
	}
	ncs, p4c, mpic := cost[SysNCS], cost[SysP4], cost[SysMPI]
	if !(ncs < p4c && p4c < mpic) {
		t.Errorf("hetero 64KB charged per echo: want NCS (%v) < p4 (%v) < MPI (%v)", ncs, p4c, mpic)
	}
	if mpic < 2*ncs {
		t.Errorf("hetero 64KB charged per echo: MPI (%v) should be >= 2x NCS (%v)", mpic, ncs)
	}
}
