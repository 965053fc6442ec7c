package bench

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strings"
	"sync/atomic"
	"time"

	"ncs/internal/core"
	"ncs/internal/flowctl"
	"ncs/internal/netsim"
	"ncs/internal/rpc"
	"ncs/internal/telemetry"
	"ncs/internal/transport"
)

// The streams experiment is the head-of-line-blocking demonstration
// for multiplexed streams: a latency-sensitive RPC workload and a
// bulk transfer share ONE connection over a constrained link, with
// the bulk riding its own stream (its own credit window) rather than
// interleaving with the RPC frames on the default channel.
//
// Each transport runs two phases. The baseline phase measures RPC
// echo latency on an otherwise idle connection; the contended phase
// repeats the measurement while a bulk sender floods a dedicated
// stream as fast as its credits allow. Because every stream has an
// independent credit window and the runtimes interleave sends at SDU
// granularity, an RPC frame waits behind at most a few bulk SDUs on
// the wire — never behind a whole bulk message or the bulk stream's
// backlog. The verdict: contended p99 must stay within MaxRatio (2×
// by default) of the baseline p99, on both the in-process simulator
// (with an explicitly paced, bounded-buffer link) and real UDP
// loopback sockets.

// StreamsConfig parameterises the experiment.
type StreamsConfig struct {
	// Calls is the number of measured RPC round trips per phase (a
	// contended phase makes more if it must, until the bulk stream has
	// delivered a chunk). Default 1000 — p99 of a smaller sample is the
	// worst two or three calls, too noisy to gate on.
	Calls int
	// ReqSize is the RPC request/response payload size. Default 64.
	ReqSize int
	// BulkChunk is the bulk stream's per-message size. Default 256KB.
	BulkChunk int
	// MaxRatio is the verdict ceiling: each transport's contended p99
	// must be at most MaxRatio times its baseline p99. Default 2.0.
	MaxRatio float64
	// MinBaseMicros floors the verdict's denominator. On a fast
	// loopback an unloaded baseline p99 is tens of µs and fluctuates
	// 2× run to run on scheduler jitter alone; gating a ratio on that
	// denominator makes the verdict a coin flip. Below the floor the
	// ratio is computed against MinBaseMicros instead, so the ceiling
	// becomes an absolute budget (MaxRatio × floor) that still fails
	// loudly on real head-of-line regressions. Default 100.
	MinBaseMicros int64
	// Bandwidth paces the simulated link, bytes/second (netsim cells
	// only; UDP rides real loopback sockets). Default 100 MB/s.
	Bandwidth int64
	// Delay is the simulated link's one-way propagation delay (netsim
	// cells only). Default 300µs, so the baseline RTT is dominated by
	// a real link property rather than scheduler noise.
	Delay time.Duration
	// BufferBytes bounds the simulated link's sender buffer (netsim
	// cells only): the wire queue an RPC frame can find ahead of
	// itself. Default 32KB.
	BufferBytes int
}

func (c StreamsConfig) withDefaults() StreamsConfig {
	if c.Calls <= 0 {
		c.Calls = 1000
	}
	if c.ReqSize <= 0 {
		c.ReqSize = 64
	}
	if c.BulkChunk <= 0 {
		c.BulkChunk = 256 * 1024
	}
	if c.MaxRatio <= 0 {
		c.MaxRatio = 2.0
	}
	if c.Bandwidth <= 0 {
		c.Bandwidth = 100 << 20
	}
	if c.Delay <= 0 {
		c.Delay = 300 * time.Microsecond
	}
	if c.BufferBytes <= 0 {
		c.BufferBytes = 32 * 1024
	}
	if c.MinBaseMicros <= 0 {
		c.MinBaseMicros = 100
	}
	return c
}

// StreamsPoint is one measured phase on one transport.
type StreamsPoint struct {
	Transport string `json:"transport"` // "netsim" or "udp"
	Phase     string `json:"phase"`     // "baseline" or "contended"
	Calls     int    `json:"calls"`
	P50Micros int64  `json:"p50_micros"`
	P99Micros int64  `json:"p99_micros"`
	MaxMicros int64  `json:"max_micros"`
	// BulkBytes is the bulk payload delivered during the measurement
	// window (zero in baseline phases); BulkThroughput is that volume
	// over the window's wall clock. A contended phase with zero bulk
	// delivery measured nothing and fails the verdict.
	BulkBytes      int64   `json:"bulk_bytes"`
	BulkThroughput float64 `json:"bulk_throughput_bytes_per_sec"`
}

// StreamsResult is the full experiment plus its config.
type StreamsResult struct {
	Config    StreamsConfig       `json:"config"`
	Points    []StreamsPoint      `json:"points"`
	Telemetry *telemetry.Snapshot `json:"telemetry,omitempty"`
}

// StreamsSweep runs both phases on both transports.
func StreamsSweep(cfg StreamsConfig) (*StreamsResult, error) {
	cfg = cfg.withDefaults()
	res := &StreamsResult{Config: cfg}
	for _, tr := range []string{"netsim", "udp"} {
		for _, contended := range []bool{false, true} {
			pt, err := streamsCell(cfg, tr, contended)
			if err != nil {
				return res, fmt.Errorf("streams %s %s: %w", tr, pt.Phase, err)
			}
			res.Points = append(res.Points, pt)
		}
	}
	return res, nil
}

func streamsOptions(cfg StreamsConfig, tr string) core.Options {
	// The credit window is sized near the link's bandwidth-delay
	// product rather than left at the deep default: the window is also
	// the bulk stream's standing in-flight, which is exactly the queue
	// a latency-sensitive frame can find ahead of itself at the
	// receiver's demux. Loopback's BDP is roughly one SDU (tens of µs
	// RTT at 100 MB/s), so the UDP cell runs an even tighter window
	// than the simulated 300µs link and still sustains full rate.
	switch tr {
	case "udp":
		fc := flowctl.Config{InitialCredits: 4, MaxCredits: 8}
		return core.Options{Interface: transport.UDP, FlowConfig: fc}
	default:
		fc := flowctl.Config{InitialCredits: 8, MaxCredits: 16}
		return core.Options{
			Interface:  transport.HPI,
			FlowConfig: fc,
			HPILink: &netsim.Params{
				Bandwidth:   cfg.Bandwidth,
				Delay:       cfg.Delay,
				BufferBytes: cfg.BufferBytes,
			},
		}
	}
}

// bulkStallLimit bounds how long a contended phase keeps calling past
// cfg.Calls for the bulk stream's first delivery.
const bulkStallLimit = 30 * time.Second

func streamsCell(cfg StreamsConfig, tr string, contended bool) (StreamsPoint, error) {
	pt := StreamsPoint{Transport: tr, Phase: "baseline"}
	if contended {
		pt.Phase = "contended"
	}

	nw := core.NewNetwork()
	defer nw.Close()
	a, err := nw.NewSystem("streams-a")
	if err != nil {
		return pt, err
	}
	b, err := nw.NewSystem("streams-b")
	if err != nil {
		return pt, err
	}
	conn, err := a.Connect("streams-b", streamsOptions(cfg, tr))
	if err != nil {
		return pt, err
	}
	peer, err := b.AcceptTimeout(5 * time.Second)
	if err != nil {
		return pt, err
	}

	srv := rpc.NewServer(rpc.ServerOptions{Workers: 2})
	defer srv.Shutdown()
	srv.Handle("echo", func(_ context.Context, req []byte) ([]byte, error) {
		return req, nil
	})
	srv.ServeConn(peer)

	cli := rpc.NewClient(conn)
	defer cli.Close()

	// The bulk flow: a dedicated stream carrying BulkChunk-sized
	// messages for as long as the measurement runs, drained on the
	// peer so its credit window keeps refilling. delivered counts
	// consumption, so the contended verdict gates on bulk actually
	// moving during the window.
	//
	// The sender paces its offered load to cfg.Bandwidth on both
	// transports. The netsim link enforces that pace anyway; UDP
	// loopback does not, and an unpaced sender there turns the cell
	// into a CPU-timesharing benchmark (on a small runner the memcpy
	// and syscall flood saturates the cores, so the RPC tail measures
	// scheduler preemption, not the stack). Equal offered load keeps
	// the two cells comparable and keeps the verdict about queueing.
	var delivered atomic.Int64
	stop := make(chan struct{})
	senderDone := make(chan error, 1)
	if contended {
		drainReady := make(chan error, 1)
		go func() {
			st, err := peer.AcceptStreamTimeout(5 * time.Second)
			drainReady <- err
			if err != nil {
				return
			}
			for {
				data, err := st.Recv()
				if err != nil {
					return
				}
				delivered.Add(int64(len(data)))
			}
		}()
		st, err := conn.OpenStream()
		if err != nil {
			return pt, err
		}
		defer st.Close()
		go func() {
			chunk := make([]byte, cfg.BulkChunk)
			interval := time.Duration(float64(cfg.BulkChunk) / float64(cfg.Bandwidth) * float64(time.Second))
			next := time.Now()
			for {
				select {
				case <-stop:
					senderDone <- nil
					return
				default:
				}
				if err := st.Send(chunk); err != nil {
					senderDone <- err
					return
				}
				next = next.Add(interval)
				if d := time.Until(next); d > 0 {
					time.Sleep(d)
				} else if d < -interval {
					// Fell behind (credit stall); restart the schedule
					// instead of banking an unpaced burst.
					next = time.Now()
				}
			}
		}()
		if err := <-drainReady; err != nil {
			return pt, err
		}
	}

	ctx := context.Background()
	req := make([]byte, cfg.ReqSize)
	for i := 0; i < 20; i++ { // warmup: connection + stream credit ramp
		if _, err := cli.Call(ctx, "echo", req); err != nil {
			return pt, fmt.Errorf("warmup call: %w", err)
		}
	}

	// A contended window must contain contention. A fast host finishes
	// cfg.Calls before the paced bulk stream has delivered its first
	// chunk, so the phase keeps calling until one chunk has been consumed
	// inside the window — a count, whatever the host's speed. The bound
	// turns a bulk stream that never moves into an error, not a hang.
	samples := make([]time.Duration, 0, cfg.Calls)
	bulkStart := delivered.Load()
	start := time.Now()
	for i := 0; i < cfg.Calls || (contended && delivered.Load() == bulkStart); i++ {
		if i >= cfg.Calls && time.Since(start) > bulkStallLimit {
			return pt, fmt.Errorf("bulk stream stalled: no %d-byte chunk delivered in %v (%d calls made)",
				cfg.BulkChunk, bulkStallLimit, i)
		}
		t0 := time.Now()
		if _, err := cli.Call(ctx, "echo", req); err != nil {
			return pt, fmt.Errorf("call %d: %w", i, err)
		}
		samples = append(samples, time.Since(t0))
	}
	elapsed := time.Since(start)
	pt.BulkBytes = delivered.Load() - bulkStart

	if contended {
		close(stop)
		if err := <-senderDone; err != nil {
			return pt, fmt.Errorf("bulk sender: %w", err)
		}
	}

	sort.Slice(samples, func(i, j int) bool { return samples[i] < samples[j] })
	pt.Calls = len(samples)
	pt.P50Micros = samples[len(samples)/2].Microseconds()
	pt.P99Micros = samples[len(samples)*99/100].Microseconds()
	pt.MaxMicros = samples[len(samples)-1].Microseconds()
	pt.BulkThroughput = float64(pt.BulkBytes) / elapsed.Seconds()
	return pt, nil
}

// verdict compares one transport's phases, with the baseline p99
// floored at MinBaseMicros (see StreamsConfig). ok is false when the
// sweep lacks usable cells or the contended phase moved no bulk
// (nothing was demonstrated).
func (r *StreamsResult) verdict(tr string) (ratio float64, ok bool) {
	var base, cont *StreamsPoint
	for i := range r.Points {
		p := &r.Points[i]
		if p.Transport != tr {
			continue
		}
		switch p.Phase {
		case "baseline":
			base = p
		case "contended":
			cont = p
		}
	}
	if base == nil || cont == nil || base.P99Micros <= 0 || cont.BulkBytes <= 0 {
		return 0, false
	}
	denom := base.P99Micros
	if denom < r.Config.MinBaseMicros {
		denom = r.Config.MinBaseMicros
	}
	return float64(cont.P99Micros) / float64(denom), true
}

// Regressed reports whether any transport broke the isolation bound:
// contended p99 beyond MaxRatio × baseline p99, or a contended phase
// that failed to generate contention.
func (r *StreamsResult) Regressed() bool {
	for _, tr := range []string{"netsim", "udp"} {
		ratio, ok := r.verdict(tr)
		if !ok || ratio > r.Config.MaxRatio {
			return true
		}
	}
	return false
}

// floorNote annotates a verdict line when the transport's baseline p99
// was below MinBaseMicros and the ratio was computed against the floor.
func (r *StreamsResult) floorNote(tr string) string {
	for i := range r.Points {
		p := &r.Points[i]
		if p.Transport == tr && p.Phase == "baseline" && p.P99Micros > 0 && p.P99Micros < r.Config.MinBaseMicros {
			return fmt.Sprintf(" (floored to %dµs)", r.Config.MinBaseMicros)
		}
	}
	return ""
}

// Render formats the phase table and per-transport verdicts.
func (r *StreamsResult) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Streams HOL isolation: %d-call RPC echo vs %dKB bulk chunks on a sibling stream\n",
		r.Config.Calls, r.Config.BulkChunk/1024)
	fmt.Fprintf(&b, "%-9s %-10s %7s %9s %9s %9s %12s %12s\n",
		"transport", "phase", "calls", "p50", "p99", "max", "bulk", "bulk rate")
	for _, p := range r.Points {
		fmt.Fprintf(&b, "%-9s %-10s %7d %7dµs %7dµs %7dµs %9.1f MB %9.1f MB/s\n",
			p.Transport, p.Phase, p.Calls, p.P50Micros, p.P99Micros, p.MaxMicros,
			float64(p.BulkBytes)/1e6, p.BulkThroughput/1e6)
	}
	for _, tr := range []string{"netsim", "udp"} {
		switch ratio, ok := r.verdict(tr); {
		case !ok:
			fmt.Fprintf(&b, "verdict: FAIL %s (missing cells or no bulk delivered under contention)\n", tr)
		case ratio <= r.Config.MaxRatio:
			fmt.Fprintf(&b, "verdict: PASS %s: contended p99 = %.2fx baseline%s (ceiling %.1fx)\n",
				tr, ratio, r.floorNote(tr), r.Config.MaxRatio)
		default:
			fmt.Fprintf(&b, "verdict: FAIL %s: contended p99 = %.2fx baseline%s (ceiling %.1fx)\n",
				tr, ratio, r.floorNote(tr), r.Config.MaxRatio)
		}
	}
	return b.String()
}

// WriteJSON writes the machine-readable result for CI archival.
func (r *StreamsResult) WriteJSON(path string) error {
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
