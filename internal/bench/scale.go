package bench

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"ncs/internal/core"
	"ncs/internal/telemetry"
	"ncs/internal/transport"
)

// The scale experiment is the first many-connection workload: a
// fan-out/fan-in echo sweep comparing the two runtime architectures as
// the connection count climbs from tens to thousands. One process
// hosts both sides: a client system fanning requests out over N HPI
// connections (one echo outstanding per connection) and a server
// system fanning them in through a shared Inbox served by a fixed
// worker pool. Per point it reports sustained throughput, p50/p99
// round-trip latency, the process goroutine count at steady state
// (the headline difference: O(connections) threaded vs O(shards)
// sharded), and allocations per echo.
//
// Results render as a table and serialise to machine-readable JSON
// (BENCH_scale.json by default) so CI can archive them per run.

// ThreadedConnCap is the largest connection count a threaded point
// runs at: beyond it the paper's thread-per-connection architecture is
// ~8 goroutines per connection and exists only to be compared against,
// so the 16k–100k points run sharded only. The sweep logs every
// skipped threaded point rather than capping silently.
const ThreadedConnCap = 4096

// ScaleConfig parameterises the sweep.
type ScaleConfig struct {
	// Conns is the connection-count axis.
	// Default 16, 64, 256, 1024, 2048, 4096.
	Conns []int
	// Runtimes compared. Default threaded and sharded.
	Runtimes []core.Runtime
	// MsgSize is the echo payload; default 512 bytes (single-SDU).
	MsgSize int
	// Duration is the measured interval per point; default 400ms.
	Duration time.Duration
	// Workers sizes the client and server worker pools; default
	// GOMAXPROCS each.
	Workers int
}

func (c ScaleConfig) withDefaults() ScaleConfig {
	if len(c.Conns) == 0 {
		c.Conns = []int{16, 64, 256, 1024, 2048, 4096}
	}
	if len(c.Runtimes) == 0 {
		c.Runtimes = []core.Runtime{core.RuntimeThreaded, core.RuntimeSharded}
	}
	if c.MsgSize < 16 {
		c.MsgSize = 512
	}
	if c.Duration <= 0 {
		c.Duration = 400 * time.Millisecond
	}
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	return c
}

// ScalePoint is one measured cell of the sweep.
type ScalePoint struct {
	Runtime    string  `json:"runtime"`
	Conns      int     `json:"conns"`
	Messages   int64   `json:"messages"`
	Throughput float64 `json:"throughput_msgs_per_sec"`
	P50Micros  float64 `json:"p50_us"`
	P99Micros  float64 `json:"p99_us"`
	Goroutines int     `json:"goroutines"`
	AllocsPer  float64 `json:"allocs_per_op"`
	// IdleBytesPerConn is the measured heap cost of one idle
	// connection endpoint: the GC-settled HeapAlloc growth of
	// establishing the full mesh, divided by the 2×conns endpoints the
	// process hosts, sampled before any traffic. This is the number
	// the per-connection memory diet moves and the one benchgate
	// guards (BenchmarkAllocIdleConnBytes).
	IdleBytesPerConn float64 `json:"idle_bytes_per_conn"`
	// IdleGoroutines is the process goroutine count at the same idle
	// sample: threaded points grow ~8×conns, sharded points must not
	// grow with conns at all.
	IdleGoroutines int `json:"idle_goroutines"`
	// PendingTimers counts armed System-level timers at idle across
	// both systems. Idle connections must contribute zero — the one
	// liveness sweep per System is armed only while a heartbeat
	// connection lives.
	PendingTimers int `json:"pending_timers"`
	// EstBytesPerConn is System.Telemetry().Mem's structural estimate for the
	// same endpoints — a cross-check that the estimator tracks the
	// measured heap cost.
	EstBytesPerConn float64 `json:"est_bytes_per_conn"`
	// Shards and PacketsPerBatch describe the sharded runtime's pool
	// (zero on threaded points).
	Shards          int     `json:"shards,omitempty"`
	PacketsPerBatch float64 `json:"packets_per_batch,omitempty"`
}

// ScaleResult is the full sweep.
type ScaleResult struct {
	GOMAXPROCS int          `json:"gomaxprocs"`
	MsgSize    int          `json:"msg_size"`
	DurationMS int64        `json:"duration_ms_per_point"`
	Points     []ScalePoint `json:"points"`
	// Telemetry, when the caller sets it (ncs-bench -telemetry), embeds
	// the process-global instrument delta captured across the sweep, so
	// the archived artifact carries the stack's own counters next to
	// the measured series.
	Telemetry *telemetry.Snapshot `json:"telemetry,omitempty"`
}

// ScaleSweep runs the experiment.
func ScaleSweep(cfg ScaleConfig) (*ScaleResult, error) {
	cfg = cfg.withDefaults()
	res := &ScaleResult{
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		MsgSize:    cfg.MsgSize,
		DurationMS: cfg.Duration.Milliseconds(),
	}
	base := runtime.NumGoroutine()
	for _, rt := range cfg.Runtimes {
		for _, n := range cfg.Conns {
			if rt == core.RuntimeThreaded && n > ThreadedConnCap {
				// Never a silent cap: a threaded point costs ~8
				// goroutines per connection, so the big points are
				// sharded-only by design, and the skip is announced.
				fmt.Fprintf(os.Stderr, "scale: skipping threaded %d conns (threaded cap %d; larger points run sharded only)\n",
					n, ThreadedConnCap)
				continue
			}
			pt, err := runScalePoint(rt, n, cfg)
			if err != nil {
				return nil, fmt.Errorf("scale %v/%d conns: %w", rt, n, err)
			}
			res.Points = append(res.Points, pt)
			// Let the previous point's teardown drain before the next
			// point samples its goroutine count, or a threaded point's
			// tens of thousands of exiting threads bleed into its
			// successor's measurement.
			awaitGoroutines(base+8, 10*time.Second)
		}
	}
	return res, nil
}

// awaitGoroutines polls until the process goroutine count drops to
// limit (or patience runs out — the next point's measurement then
// simply carries the residue).
func awaitGoroutines(limit int, patience time.Duration) {
	deadline := time.Now().Add(patience)
	for runtime.NumGoroutine() > limit && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
}

// runScalePoint measures one (runtime, connection count) cell.
func runScalePoint(rt core.Runtime, conns int, cfg ScaleConfig) (ScalePoint, error) {
	nw := core.NewNetwork()
	defer nw.Close()
	client, err := nw.NewSystem("scale-client")
	if err != nil {
		return ScalePoint{}, err
	}
	server, err := nw.NewSystem("scale-server")
	if err != nil {
		return ScalePoint{}, err
	}

	// Heap floor before any connection exists: the idle-bytes sample
	// below charges establishment (and nothing else) to the endpoints.
	runtime.GC()
	var h0 runtime.MemStats
	runtime.ReadMemStats(&h0)

	// Server side: every accepted connection feeds one Inbox; a fixed
	// pool echoes. No per-connection goroutines on either runtime —
	// the server app scales the same way the sharded core does.
	serverIB := core.NewInbox(4 * conns)
	defer serverIB.Close()
	acceptErr := make(chan error, 1)
	go func() {
		for i := 0; i < conns; i++ {
			p, err := server.Accept()
			if err != nil {
				acceptErr <- err
				return
			}
			if err := p.BindInbox(serverIB); err != nil {
				acceptErr <- err
				return
			}
		}
		acceptErr <- nil
	}()

	opts := core.Options{Interface: transport.HPI, Runtime: rt}
	clientIB := core.NewInbox(4 * conns)
	defer clientIB.Close()
	cc := make([]*core.Connection, conns)
	for i := range cc {
		c, err := client.Connect("scale-server", opts)
		if err != nil {
			return ScalePoint{}, fmt.Errorf("connect %d: %w", i, err)
		}
		if err := c.BindInbox(clientIB); err != nil {
			return ScalePoint{}, err
		}
		cc[i] = c
	}
	if err := <-acceptErr; err != nil {
		return ScalePoint{}, err
	}

	// Idle sample: the whole mesh is up, nothing has sent. This is the
	// 100k-idle-connections number — bytes, goroutines, and armed
	// timers per established-but-quiet endpoint.
	runtime.GC()
	var h1 runtime.MemStats
	runtime.ReadMemStats(&h1)
	idleBytesPerConn := 0.0
	if h1.HeapAlloc > h0.HeapAlloc {
		idleBytesPerConn = float64(h1.HeapAlloc-h0.HeapAlloc) / float64(2*conns)
	}
	idleGoroutines := runtime.NumGoroutine()
	cms, sms := client.Telemetry().Mem, server.Telemetry().Mem
	pendingTimers := cms.PendingTimers + sms.PendingTimers
	estBytesPerConn := float64(cms.EstimatedBytes+sms.EstimatedBytes) / float64(2*conns)

	var serverWG sync.WaitGroup
	for w := 0; w < cfg.Workers; w++ {
		serverWG.Add(1)
		go func() {
			defer serverWG.Done()
			for {
				im, err := serverIB.Recv()
				if err != nil {
					return
				}
				if err := im.Conn.Send(im.Msg.Data); err != nil {
					return
				}
			}
		}()
	}

	// Client side: one echo outstanding per connection; a worker pool
	// turns each reply into the next request. Latency rides in the
	// payload's first 8 bytes.
	var (
		stop     atomic.Bool
		sent     atomic.Int64
		received atomic.Int64
		clientWG sync.WaitGroup
	)
	samples := make([][]time.Duration, cfg.Workers)
	sendOn := func(c *core.Connection, p []byte) error {
		binary.LittleEndian.PutUint64(p[:8], uint64(time.Now().UnixNano()))
		sent.Add(1)
		return c.Send(p)
	}
	for w := 0; w < cfg.Workers; w++ {
		clientWG.Add(1)
		go func(w int) {
			defer clientWG.Done()
			for {
				im, err := clientIB.Recv()
				if err != nil {
					return
				}
				t0 := int64(binary.LittleEndian.Uint64(im.Msg.Data[:8]))
				samples[w] = append(samples[w], time.Duration(time.Now().UnixNano()-t0))
				received.Add(1)
				if stop.Load() {
					continue
				}
				// The reply buffer becomes the next request: Send
				// completes its staging before returning, so reuse is
				// safe.
				if err := sendOn(im.Conn, im.Msg.Data); err != nil {
					return
				}
			}
		}(w)
	}

	var m0 runtime.MemStats
	runtime.ReadMemStats(&m0)

	// Seed one outstanding echo per connection, then measure a clean
	// interval from the moment seeding finished.
	seed := make([]byte, cfg.MsgSize)
	for _, c := range cc {
		if err := sendOn(c, seed); err != nil {
			return ScalePoint{}, fmt.Errorf("seed send: %w", err)
		}
	}
	startCount := received.Load()
	start := time.Now()
	time.Sleep(cfg.Duration)
	goroutines := runtime.NumGoroutine()
	measured := received.Load() - startCount
	elapsed := time.Since(start)
	stop.Store(true)

	// Drain the tail: every request must come back (each connection
	// has at most one outstanding).
	deadline := time.Now().Add(10 * time.Second)
	for received.Load() < sent.Load() && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if received.Load() < sent.Load() {
		return ScalePoint{}, fmt.Errorf("drain: %d of %d echoes missing after 10s",
			sent.Load()-received.Load(), sent.Load())
	}
	var m1 runtime.MemStats
	runtime.ReadMemStats(&m1)

	st := client.Telemetry().Shards
	sst := server.Telemetry().Shards
	clientIB.Close()
	serverIB.Close()
	clientWG.Wait()
	serverWG.Wait()

	msgs := received.Load()
	if msgs == 0 || measured == 0 {
		return ScalePoint{}, errors.New("no echoes completed")
	}
	all := make([]time.Duration, 0, msgs)
	for _, s := range samples {
		all = append(all, s...)
	}
	sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
	pct := func(p float64) float64 {
		if len(all) == 0 {
			return 0
		}
		i := int(p * float64(len(all)-1))
		return float64(all[i].Nanoseconds()) / 1e3
	}
	pt := ScalePoint{
		Runtime:          rt.String(),
		Conns:            conns,
		Messages:         msgs,
		Throughput:       float64(measured) / elapsed.Seconds(),
		P50Micros:        pct(0.50),
		P99Micros:        pct(0.99),
		Goroutines:       goroutines,
		AllocsPer:        float64(m1.Mallocs-m0.Mallocs) / float64(msgs),
		IdleBytesPerConn: idleBytesPerConn,
		IdleGoroutines:   idleGoroutines,
		PendingTimers:    pendingTimers,
		EstBytesPerConn:  estBytesPerConn,
		Shards:           st.Shards + sst.Shards,
	}
	if b := st.Batches + sst.Batches; b > 0 {
		pt.PacketsPerBatch = float64(st.BatchedPackets+sst.BatchedPackets) / float64(b)
	}
	return pt, nil
}

// Render lays the sweep out as a comparison table.
func (r *ScaleResult) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Scale: fan-in/fan-out echo, %d-byte payload, %d ms per point, GOMAXPROCS=%d\n",
		r.MsgSize, r.DurationMS, r.GOMAXPROCS)
	fmt.Fprintf(&b, "%-9s %7s %12s %10s %10s %11s %10s %10s %9s %7s %8s\n",
		"runtime", "conns", "msgs/sec", "p50 µs", "p99 µs", "goroutines", "allocs/op", "idle B/cn", "idle gor", "timers", "pkts/wr")
	for _, p := range r.Points {
		ppb := "-"
		if p.PacketsPerBatch > 0 {
			ppb = fmt.Sprintf("%.1f", p.PacketsPerBatch)
		}
		fmt.Fprintf(&b, "%-9s %7d %12.0f %10.1f %10.1f %11d %10.1f %10.0f %9d %7d %8s\n",
			p.Runtime, p.Conns, p.Throughput, p.P50Micros, p.P99Micros,
			p.Goroutines, p.AllocsPer, p.IdleBytesPerConn, p.IdleGoroutines,
			p.PendingTimers, ppb)
	}
	b.WriteString("(goroutines: whole process at steady state — threaded grows ~8×conns, sharded stays near 2×GOMAXPROCS+workers;\n" +
		" idle B/cn, idle gor, timers: heap bytes, goroutines, and armed sweep timers per idle endpoint after establishment, before traffic)\n")
	return b.String()
}

// WriteJSON writes the machine-readable result for CI archival.
func (r *ScaleResult) WriteJSON(path string) error {
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
