package bench

import (
	"time"

	"ncs/internal/netsim"
	"ncs/internal/thread"
)

// Fig10Config parameterises the Figure 10 reproduction. The defaults
// are a time-scaled version of the paper's setup (100 ms compute load,
// 100 iterations, 32 KB socket buffer): the compute load shrinks from
// 100 ms to 2 ms and the iteration count from 100 to 20 so the sweep
// finishes in seconds, and the socket drain rate is set so that the
// structural crossover — the message size where cumulative production
// first outruns buffer-plus-drain and the user-level package starts
// stalling in the kernel — lands at 4 KB, where the paper observed it:
//
//	N·msg > Buf + drain·N·L  ⇒  msg* = Buf/N + drain·L
//
// With N=20, Buf=32 KB, L=2 ms: drain = (4096 − 32768/20)/0.002 ≈ 1.23 MB/s.
type Fig10Config struct {
	// Sizes is the message sweep; defaults to ThreadSweepSizes.
	Sizes []int
	// Iterations per size (the paper's 100). Default 20.
	Iterations int
	// ComputeLoad is the post-send computation (the paper's 100 ms).
	// Default 2 ms.
	ComputeLoad time.Duration
	// SocketBuffer is the kernel send buffer. Default 32 KB (paper).
	SocketBuffer int
	// DrainBytesPerSec is the rate the peer drains the socket.
	// Default 1.23 MB/s (calibrated crossover at 4 KB; see above).
	DrainBytesPerSec int64
}

func (c Fig10Config) withDefaults() Fig10Config {
	if len(c.Sizes) == 0 {
		c.Sizes = ThreadSweepSizes
	}
	if c.Iterations <= 0 {
		c.Iterations = 20
	}
	if c.ComputeLoad <= 0 {
		c.ComputeLoad = 2 * time.Millisecond
	}
	if c.SocketBuffer <= 0 {
		c.SocketBuffer = 32 * 1024
	}
	if c.DrainBytesPerSec <= 0 {
		c.DrainBytesPerSec = 1_230_000
	}
	return c
}

// Figure10 reproduces the §4.1 experiment: the Figure 9 test program —
// NCS_send followed by a fixed computation, repeated — on the
// user-level and kernel-level thread packages, over a socket with a
// bounded send buffer. The reported value is the average time per
// iteration. The expected shape: both curves sit near the compute load
// for small messages; past the crossover the user-level curve climbs
// steeply (a blocking send stalls the whole process) while the
// kernel-level curve stays flat (the blocked Send Thread overlaps the
// computation).
func Figure10(cfg Fig10Config) Figure {
	cfg = cfg.withDefaults()
	fig := Figure{
		Title:  "Figure 10: user-level vs kernel-level thread package (scaled)",
		YLabel: "avg time per send+compute iteration",
	}
	for _, model := range []thread.Model{thread.UserLevel, thread.KernelLevel} {
		s := Series{Label: model.String()}
		for _, size := range cfg.Sizes {
			perIter, _ := fig10Run(cfg, model, size)
			s.Points = append(s.Points, Point{Size: size, Value: perIter})
		}
		fig.Series = append(fig.Series, s)
	}
	return fig
}

// fig10Run returns the average time per iteration and, as the count
// behind the figure's shape, how many compute quanta finished while the
// Send Thread was still inside a transmission: structurally zero on the
// user-level package (a blocked send holds the only processor), most of
// them on the kernel-level package once the socket buffer is full.
func fig10Run(cfg Fig10Config, model thread.Model, size int) (perIter time.Duration, overlapped int) {
	pkg := thread.New(model)
	defer pkg.Shutdown()

	a, b := netsim.Pipe(netsim.Params{
		Bandwidth:   cfg.DrainBytesPerSec,
		BufferBytes: cfg.SocketBuffer,
	}, netsim.Params{})
	defer a.Close()
	defer b.Close()

	// The peer host drains the socket (an ordinary OS process, so a
	// plain goroutine regardless of the thread package under test).
	drainDone := make(chan struct{})
	go func() {
		defer close(drainDone)
		for {
			if _, err := b.Recv(); err != nil {
				return
			}
		}
	}()

	mini, err := newMiniSendPath(pkg, a)
	if err != nil {
		return 0, 0
	}

	msg := make([]byte, size)
	var elapsed time.Duration
	computeDone := make(chan struct{})
	computeThread, err := pkg.Spawn("compute", func() {
		defer close(computeDone)
		start := time.Now()
		for i := 0; i < cfg.Iterations; i++ {
			mini.send(msg)
			time.Sleep(cfg.ComputeLoad) // Computation(L)
			if mini.sending.Load() {
				overlapped++
			}
		}
		elapsed = time.Since(start)
	})
	if err != nil {
		mini.close()
		return 0, 0
	}
	computeThread.Join()
	<-computeDone
	// Abort the undrained backlog before joining the Send Thread:
	// closing the endpoint fails pending sends immediately instead of
	// draining them at the simulated line rate.
	a.Close()
	mini.close()
	<-drainDone
	return elapsed / time.Duration(cfg.Iterations), overlapped
}
