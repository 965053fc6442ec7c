// Benchmarks regenerating the paper's evaluation (§4), one per table
// and figure, plus ablations of the design choices DESIGN.md calls out.
// Run them all with:
//
//	go test -bench=. -benchmem
//
// The sweep-style reports (full size ranges in the paper's layout) come
// from cmd/ncs-bench; these benchmarks time the representative points
// under the Go benchmark harness.
package ncs_test

import (
	"context"
	"fmt"
	"runtime"
	"testing"
	"time"

	"ncs"
	"ncs/internal/bench"
	"ncs/internal/platform"
	"ncs/internal/thread"
)

// ---------------------------------------------------------------------------
// Table I: session overhead of a threaded 1-byte send.

func BenchmarkTable1(b *testing.B) {
	var res *bench.TableIResult
	for i := 0; i < b.N; i++ {
		var err error
		if res, err = bench.TableI(bench.TableIConfig{}); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(res.SessionOverhead.Nanoseconds()), "session-ns")
	b.ReportMetric(float64(res.DataTransfer.Nanoseconds()), "transfer-ns")
}

// ---------------------------------------------------------------------------
// Figure 10: user-level vs kernel-level thread package. Each iteration
// is one full scaled run at the given message size; the reported metric
// is the per-send-iteration time the figure plots.

func BenchmarkFigure10(b *testing.B) {
	for _, model := range []thread.Model{thread.UserLevel, thread.KernelLevel} {
		for _, size := range []int{1024, 65536} {
			b.Run(fmt.Sprintf("%s/%s", model, sizeName(size)), func(b *testing.B) {
				var total time.Duration
				for i := 0; i < b.N; i++ {
					fig := bench.Figure10(bench.Fig10Config{
						Sizes:      []int{size},
						Iterations: 10,
					})
					for _, s := range fig.Series {
						if s.Label == model.String() {
							total += s.Points[0].Value
						}
					}
				}
				b.ReportMetric(float64(total.Nanoseconds())/float64(b.N), "ns/send-iter")
			})
		}
	}
}

// ---------------------------------------------------------------------------
// Figure 11: threaded send vs native socket.

func BenchmarkFigure11(b *testing.B) {
	for _, model := range []thread.Model{thread.UserLevel, thread.KernelLevel} {
		for _, size := range []int{1, 65536} {
			b.Run(fmt.Sprintf("%s/%s", model, sizeName(size)), func(b *testing.B) {
				data := bench.Figure11(bench.Fig11Config{Sizes: []int{size}, Iterations: b.N})
				for _, s := range data.Fig.Series {
					if s.Label == model.String() && data.Native.Points[0].Value > 0 {
						ratio := float64(s.Points[0].Value) / float64(data.Native.Points[0].Value)
						b.ReportMetric(ratio, "ratio-to-native")
					}
				}
			})
		}
	}
}

// ---------------------------------------------------------------------------
// Figures 12 and 13: echo round trips, NCS vs p4/MPI/PVM.

func benchmarkEcho(b *testing.B, sys bench.SystemKind, local, remote platform.Platform, size int) {
	b.Helper()
	series, err := bench.RunEcho(bench.EchoConfig{
		System:     sys,
		Local:      local,
		Remote:     remote,
		Sizes:      []int{size},
		Iterations: b.N,
	})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(float64(series.Points[0].Value.Nanoseconds()), "rtt-ns")
}

func BenchmarkFigure12_SUN4(b *testing.B) {
	for _, sys := range bench.AllSystems {
		for _, size := range []int{4096, 65536} {
			b.Run(fmt.Sprintf("%v/%s", sys, sizeName(size)), func(b *testing.B) {
				benchmarkEcho(b, sys, platform.SUN4, platform.SUN4, size)
			})
		}
	}
}

func BenchmarkFigure12_RS6000(b *testing.B) {
	for _, sys := range bench.AllSystems {
		for _, size := range []int{4096, 65536} {
			b.Run(fmt.Sprintf("%v/%s", sys, sizeName(size)), func(b *testing.B) {
				benchmarkEcho(b, sys, platform.RS6000, platform.RS6000, size)
			})
		}
	}
}

func BenchmarkFigure13_Heterogeneous(b *testing.B) {
	for _, sys := range bench.AllSystems {
		for _, size := range []int{4096, 65536} {
			b.Run(fmt.Sprintf("%v/%s", sys, sizeName(size)), func(b *testing.B) {
				benchmarkEcho(b, sys, platform.SUN4, platform.RS6000, size)
			})
		}
	}
}

// ---------------------------------------------------------------------------
// Core NCS micro-benchmarks: raw send/recv across interfaces.

func BenchmarkNCSSendRecv(b *testing.B) {
	kinds := map[string]ncs.Options{
		"HPI":          {Interface: ncs.HPI},
		"SCI":          {Interface: ncs.SCI},
		"ACI":          {Interface: ncs.ACI},
		"HPI-fastpath": {Interface: ncs.HPI, FastPath: true},
	}
	for name, opts := range kinds {
		for _, size := range []int{1, 4096, 65536} {
			b.Run(fmt.Sprintf("%s/%s", name, sizeName(size)), func(b *testing.B) {
				nw := ncs.NewNetwork()
				defer nw.Close()
				conn, peer, err := ncs.Pair(nw, "bench-a", "bench-b", opts)
				if err != nil {
					b.Fatal(err)
				}
				go func() {
					for {
						m, err := peer.Recv()
						if err != nil {
							return
						}
						if err := peer.Send(m[:1]); err != nil {
							return
						}
					}
				}()
				msg := make([]byte, size)
				b.SetBytes(int64(size))
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if err := conn.Send(msg); err != nil {
						b.Fatal(err)
					}
					if _, err := conn.Recv(); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// ---------------------------------------------------------------------------
// Ablations (DESIGN.md §6).

// BenchmarkAblationFastPath quantifies §4.2: the session overhead
// removed by replacing the per-connection threads with procedures.
func BenchmarkAblationFastPath(b *testing.B) {
	for _, mode := range []string{"threaded", "fastpath"} {
		for _, size := range []int{1, 65536} {
			b.Run(fmt.Sprintf("%s/%s", mode, sizeName(size)), func(b *testing.B) {
				nw := ncs.NewNetwork()
				defer nw.Close()
				conn, peer, err := ncs.Pair(nw, "ab-a", "ab-b", ncs.Options{
					Interface: ncs.HPI,
					FastPath:  mode == "fastpath",
				})
				if err != nil {
					b.Fatal(err)
				}
				done := make(chan struct{})
				go func() {
					defer close(done)
					for {
						if _, err := peer.Recv(); err != nil {
							return
						}
					}
				}()
				msg := make([]byte, size)
				b.SetBytes(int64(size))
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if err := conn.Send(msg); err != nil {
						b.Fatal(err)
					}
				}
				b.StopTimer()
				conn.Close()
				peer.Close()
				<-done
			})
		}
	}
}

// BenchmarkAblationControlPlane quantifies the §2 separation: split
// control/data connections versus control multiplexed in-band.
func BenchmarkAblationControlPlane(b *testing.B) {
	for _, mode := range []string{"separate", "inband"} {
		b.Run(mode, func(b *testing.B) {
			nw := ncs.NewNetwork()
			defer nw.Close()
			conn, peer, err := ncs.Pair(nw, "cp-a", "cp-b", ncs.Options{
				Interface:     ncs.ACI,
				FlowControl:   ncs.FlowCredit,
				ErrorControl:  ncs.ErrorSelectiveRepeat,
				SDUSize:       2048,
				InbandControl: mode == "inband",
			})
			if err != nil {
				b.Fatal(err)
			}
			go func() {
				for {
					m, err := peer.Recv()
					if err != nil {
						return
					}
					if err := peer.Send(m[:1]); err != nil {
						return
					}
				}
			}()
			msg := make([]byte, 32*1024)
			b.SetBytes(int64(len(msg)))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := conn.Send(msg); err != nil {
					b.Fatal(err)
				}
				if _, err := conn.Recv(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationSDU sweeps the §3.2 segmentation trade-off.
func BenchmarkAblationSDU(b *testing.B) {
	for _, sdu := range []int{1024, 4096, 16384, 60000} {
		b.Run(fmt.Sprintf("sdu-%s", sizeName(sdu)), func(b *testing.B) {
			nw := ncs.NewNetwork()
			defer nw.Close()
			conn, peer, err := ncs.Pair(nw, "sdu-a", "sdu-b", ncs.Options{
				Interface: ncs.ACI,
				SDUSize:   sdu,
			})
			if err != nil {
				b.Fatal(err)
			}
			go func() {
				for {
					m, err := peer.Recv()
					if err != nil {
						return
					}
					if err := peer.Send(m[:1]); err != nil {
						return
					}
				}
			}()
			msg := make([]byte, 64*1024)
			b.SetBytes(int64(len(msg)))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := conn.Send(msg); err != nil {
					b.Fatal(err)
				}
				if _, err := conn.Recv(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationCredits compares starvation-prone small windows with
// ample static credit over a high-latency path (§3.3's dynamic credit
// motivation).
func BenchmarkAblationCredits(b *testing.B) {
	for _, credits := range []int{1, 4, 32} {
		b.Run(fmt.Sprintf("initial-%d", credits), func(b *testing.B) {
			nw := ncs.NewNetwork()
			defer nw.Close()
			conn, peer, err := ncs.Pair(nw, "cr-a", "cr-b", ncs.Options{
				Interface:    ncs.ACI,
				FlowControl:  ncs.FlowCredit,
				ErrorControl: ncs.ErrorSelectiveRepeat,
				SDUSize:      1024,
				FlowConfig:   ncs.FlowConfig{InitialCredits: credits, MaxCredits: 64},
				QoS:          ncs.QoS{Delay: time.Millisecond},
			})
			if err != nil {
				b.Fatal(err)
			}
			go func() {
				for {
					m, err := peer.Recv()
					if err != nil {
						return
					}
					if err := peer.Send(m[:1]); err != nil {
						return
					}
				}
			}()
			msg := make([]byte, 16*1024)
			b.SetBytes(int64(len(msg)))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := conn.Send(msg); err != nil {
					b.Fatal(err)
				}
				if _, err := conn.Recv(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkGroupCollectives covers the two multicast algorithms.
func BenchmarkGroupCollectives(b *testing.B) {
	for _, algName := range []string{"spanning-tree", "repetitive"} {
		b.Run("broadcast-"+algName, func(b *testing.B) {
			alg := ncs.MulticastSpanningTree
			if algName == "repetitive" {
				alg = ncs.MulticastRepetitive
			}
			nw := ncs.NewNetwork()
			defer nw.Close()
			names := make([]string, 8)
			for i := range names {
				names[i] = fmt.Sprintf("bm-%s-%d", algName, i)
			}
			groups, err := ncs.BuildGroup(nw, names, ncs.Options{Interface: ncs.HPI}, alg)
			if err != nil {
				b.Fatal(err)
			}
			payload := make([]byte, 4096)
			b.SetBytes(int64(len(payload)))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				errCh := make(chan error, len(groups))
				for _, g := range groups {
					go func(g *ncs.Group) {
						var msg []byte
						if g.Rank() == 0 {
							msg = payload
						}
						_, err := g.Broadcast(0, msg)
						errCh <- err
					}(g)
				}
				for range groups {
					if err := <-errCh; err != nil {
						b.Fatal(err)
					}
				}
			}
		})
	}
}

// ---------------------------------------------------------------------------
// Allocation-regression benchmarks for the pooled buffer pipeline.
// These two points are the acceptance gates for internal/buf: the HPI
// fast-path echo (§4.2's thread-bypassing procedures) and a threaded
// SCI 4KB send. Track them with:
//
//	go test -bench='BenchmarkAlloc' -benchmem -count=10 | benchstat
//
// BenchmarkAllocHPIFastpathEcho measures one full echo round trip
// (Send + Recv on both sides) over the in-process HPI with the fast
// path enabled on both endpoints.
func BenchmarkAllocHPIFastpathEcho(b *testing.B) {
	runAllocEcho(b, "fp", ncs.Options{Interface: ncs.HPI, FastPath: true}, 4096)
}

// BenchmarkAllocTelemetryHotPath is the telemetry layer's acceptance
// gate: the identical fast-path 4KB echo, but with lifecycle tracing
// sampling every message on top of the always-on metrics counters. The
// baseline holds it to the same allocs/op as the plain echo — the
// unified telemetry layer must add zero allocations to the hot path.
func BenchmarkAllocTelemetryHotPath(b *testing.B) {
	ncs.EnableTracing(1, 256)
	defer ncs.DisableTracing()
	runAllocEcho(b, "tel", ncs.Options{Interface: ncs.HPI, FastPath: true}, 4096)
}

// runAllocEcho is the shared body of the echo alloc gates: one echo
// round trip of size bytes per iteration (Send + Recv on both sides)
// over a connection pair built with opts.
func runAllocEcho(b *testing.B, tag string, opts ncs.Options, size int) {
	nw := ncs.NewNetwork()
	defer nw.Close()
	conn, peer, err := ncs.Pair(nw, "alloc-"+tag+"-a", "alloc-"+tag+"-b", opts)
	if err != nil {
		b.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for {
			m, err := peer.Recv()
			if err != nil {
				return
			}
			if err := peer.Send(m); err != nil {
				return
			}
		}
	}()
	msg := make([]byte, size)
	b.SetBytes(int64(len(msg)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := conn.Send(msg); err != nil {
			b.Fatal(err)
		}
		if _, err := conn.Recv(); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	conn.Close()
	peer.Close()
	<-done
}

// BenchmarkAllocHPIShardedEcho measures the same echo round trip on
// the sharded runtime: both endpoints driven by their systems' shard
// pools instead of per-connection threads. The gate keeps the shard
// path's queue hop from growing per-message allocations.
func BenchmarkAllocHPIShardedEcho(b *testing.B) {
	runAllocEcho(b, "sh", ncs.Options{Interface: ncs.HPI, Runtime: ncs.RuntimeSharded}, 4096)
}

// BenchmarkAllocInboxFanIn is the sharded echo through the accept-side
// pattern: two sharded HPI connections bound to one Inbox, one worker
// looping on Inbox.Recv and echoing on the connection each delivery
// names (the shape of the benchmark's rpc_fanin, without the RPC layer).
// The worker releases each delivery once it has echoed it, so the gate
// holds the path to the one copy left: the client's Recv.
func BenchmarkAllocInboxFanIn(b *testing.B) {
	nw := ncs.NewNetwork()
	defer nw.Close()
	client, err := nw.NewSystem("alloc-inbox-a")
	if err != nil {
		b.Fatal(err)
	}
	server, err := nw.NewSystem("alloc-inbox-b")
	if err != nil {
		b.Fatal(err)
	}
	ib := ncs.NewInbox(0)
	var conns [2]*ncs.Connection
	for i := range conns {
		conn, err := client.Connect("alloc-inbox-b", ncs.Options{Interface: ncs.HPI, Runtime: ncs.RuntimeSharded})
		if err != nil {
			b.Fatal(err)
		}
		peer, err := server.Accept()
		if err == nil {
			err = peer.BindInbox(ib)
		}
		if err != nil {
			b.Fatal(err)
		}
		conns[i] = conn
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for {
			im, err := ib.Recv()
			if err != nil {
				return
			}
			err = im.Conn.Send(im.Msg.Data)
			im.Msg.Release()
			if err != nil {
				return
			}
		}
	}()
	msg := make([]byte, 4096)
	b.SetBytes(int64(len(msg)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		conn := conns[i&1]
		if err := conn.Send(msg); err != nil {
			b.Fatal(err)
		}
		if _, err := conn.Recv(); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	ib.Close()
	<-done
}

// The reliable-path gates. HPI's defaults bypass error and flow control,
// so the gates above never enter them; these force selective repeat (or
// go-back-N) and credits on, as a connection over a lossy interface
// runs, and hold a reliable message to what an unreliable one costs —
// the delivered copy — on every runtime: pooled error-control sessions,
// one pooled send session, control bodies borrowed until emit returns.

// reliableOpts is HPI with selective repeat and credits forced on.
func reliableOpts() ncs.Options {
	return ncs.Options{Interface: ncs.HPI, ErrorControl: ncs.ErrorSelectiveRepeat, FlowControl: ncs.FlowCredit}
}

// BenchmarkAllocReliableEcho is a 64 B echo on the threaded runtime,
// the shape of the benchmark's rtt_small.
func BenchmarkAllocReliableEcho(b *testing.B) {
	runAllocEcho(b, "rel", reliableOpts(), 64)
}

// BenchmarkAllocReliableEchoReleased is BenchmarkAllocReliableEcho with
// both sides on RecvMessage → Release instead of Recv: a one-SDU message
// is delivered as the buffer it arrived in, so nothing is allocated.
func BenchmarkAllocReliableEchoReleased(b *testing.B) {
	nw := ncs.NewNetwork()
	defer nw.Close()
	conn, peer, err := ncs.Pair(nw, "alloc-relrel-a", "alloc-relrel-b", reliableOpts())
	if err != nil {
		b.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for {
			m, err := peer.RecvMessage()
			if err != nil {
				return
			}
			err = peer.Send(m.Data)
			m.Release()
			if err != nil {
				return
			}
		}
	}()
	msg := make([]byte, 64)
	b.SetBytes(int64(len(msg)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := conn.Send(msg); err != nil {
			b.Fatal(err)
		}
		m, err := conn.RecvMessage()
		if err != nil {
			b.Fatal(err)
		}
		m.Release()
	}
	b.StopTimer()
	conn.Close()
	peer.Close()
	<-done
}

// BenchmarkAllocReliableGoBackNEcho is the same echo under go-back-N.
func BenchmarkAllocReliableGoBackNEcho(b *testing.B) {
	opts := reliableOpts()
	opts.ErrorControl = ncs.ErrorGoBackN
	runAllocEcho(b, "rel-gbn", opts, 64)
}

// BenchmarkAllocReliableShardedEcho is the same echo on the sharded
// runtime.
func BenchmarkAllocReliableShardedEcho(b *testing.B) {
	opts := reliableOpts()
	opts.Runtime = ncs.RuntimeSharded
	runAllocEcho(b, "rel-sh", opts, 64)
}

// BenchmarkAllocReliableFastpathEcho16K is a 16 KB (4 SDU) echo on the
// fast path, the shape of the benchmark's lossy_echo on a clean link.
func BenchmarkAllocReliableFastpathEcho16K(b *testing.B) {
	opts := reliableOpts()
	opts.FastPath = true
	runAllocEcho(b, "rel-fp", opts, 16*1024)
}

// BenchmarkAllocSCISend4KB measures a threaded 4KB send over SCI (TCP
// loopback), the configuration where the Send Thread's staging and the
// transport framing dominate per-message allocation.
func BenchmarkAllocSCISend4KB(b *testing.B) {
	nw := ncs.NewNetwork()
	defer nw.Close()
	conn, peer, err := ncs.Pair(nw, "alloc-sci-a", "alloc-sci-b", ncs.Options{
		Interface: ncs.SCI,
	})
	if err != nil {
		b.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for {
			if _, err := peer.Recv(); err != nil {
				return
			}
		}
	}()
	msg := make([]byte, 4096)
	b.SetBytes(int64(len(msg)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := conn.Send(msg); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	conn.Close()
	peer.Close()
	<-done
}

// BenchmarkAllocCreditSend gates the credit flow-control path: a
// threaded 4KB HPI send with receiver-advertised credits on, so every
// iteration crosses admission (grant check + controller window),
// arrival accounting, threshold refills, and piggybacked grants. The
// baseline holds the whole credit machinery — including its telemetry
// — to the same steady-state allocations as an ungated send: the
// per-refill grant frame is the only permitted extra, amortised across
// the refill interval.
func BenchmarkAllocCreditSend(b *testing.B) {
	nw := ncs.NewNetwork()
	defer nw.Close()
	conn, peer, err := ncs.Pair(nw, "alloc-credit-a", "alloc-credit-b", ncs.Options{
		Interface:   ncs.HPI,
		FlowControl: ncs.FlowCredit,
	})
	if err != nil {
		b.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for {
			if _, err := peer.Recv(); err != nil {
				return
			}
		}
	}()
	msg := make([]byte, 4096)
	b.SetBytes(int64(len(msg)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := conn.Send(msg); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	conn.Close()
	peer.Close()
	<-done
}

// BenchmarkAllocStreamSend gates the multiplexed-stream send path: the
// same threaded 4KB HPI credit-controlled send as
// BenchmarkAllocCreditSend, but on a stream opened with OpenStream —
// per-stream admission (the stream's own credit engine), the stream ID
// in the frame header, the queue-residency slot, and the receive-side
// demux into the stream's parking queue. The baseline holds the
// per-stream path within one allocation of the stream-0 path.
func BenchmarkAllocStreamSend(b *testing.B) {
	nw := ncs.NewNetwork()
	defer nw.Close()
	conn, peer, err := ncs.Pair(nw, "alloc-stream-a", "alloc-stream-b", ncs.Options{
		Interface:   ncs.HPI,
		FlowControl: ncs.FlowCredit,
	})
	if err != nil {
		b.Fatal(err)
	}
	st, err := conn.OpenStream()
	if err != nil {
		b.Fatal(err)
	}
	accepted := make(chan *ncs.Stream, 1)
	done := make(chan struct{})
	go func() {
		defer close(done)
		rst, err := peer.AcceptStream()
		if err != nil {
			return
		}
		accepted <- rst
		for {
			if _, err := rst.Recv(); err != nil {
				return
			}
		}
	}()
	msg := make([]byte, 4096)
	if err := st.Send(msg); err != nil { // open the stream on the peer
		b.Fatal(err)
	}
	<-accepted
	b.SetBytes(int64(len(msg)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := st.Send(msg); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	conn.Close()
	peer.Close()
	<-done
}

// BenchmarkAllocUDPSend gates the real-wire send path: a 4KB send over
// a UDP loopback connection under the interface's defaults (selective
// repeat + credit flow control, since the wire itself is unreliable).
// Every iteration crosses SDU staging, the frame header prepend (an
// iovec, not a copy), the batched sendmmsg path, and the receive side's
// pooled-slot refill — the steady state must stay at fixed allocations
// per message.
func BenchmarkAllocUDPSend(b *testing.B) {
	nw := ncs.NewNetwork()
	defer nw.Close()
	conn, peer, err := ncs.Pair(nw, "alloc-udp-a", "alloc-udp-b", ncs.Options{
		Interface: ncs.UDP,
	})
	if err != nil {
		b.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for {
			if _, err := peer.Recv(); err != nil {
				return
			}
		}
	}()
	msg := make([]byte, 4096)
	b.SetBytes(int64(len(msg)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := conn.Send(msg); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	conn.Close()
	peer.Close()
	<-done
}

// BenchmarkAllocUDPEcho measures the full wire round trip: 4KB out and
// 4KB back through real loopback sockets, covering both directions of
// the framing, demux, and pooled receive queue.
func BenchmarkAllocUDPEcho(b *testing.B) {
	nw := ncs.NewNetwork()
	defer nw.Close()
	conn, peer, err := ncs.Pair(nw, "alloc-udpecho-a", "alloc-udpecho-b", ncs.Options{
		Interface: ncs.UDP,
	})
	if err != nil {
		b.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for {
			m, err := peer.Recv()
			if err != nil {
				return
			}
			if err := peer.Send(m); err != nil {
				return
			}
		}
	}()
	msg := make([]byte, 4096)
	b.SetBytes(int64(len(msg)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := conn.Send(msg); err != nil {
			b.Fatal(err)
		}
		if _, err := conn.Recv(); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	conn.Close()
	peer.Close()
	<-done
}

// runCollectiveBench drives one collective op across every member of a
// prebuilt group and waits for the stragglers, reporting errors.
func runCollectiveBench(b *testing.B, groups []*ncs.Group, op func(*ncs.Group) error) {
	b.Helper()
	errCh := make(chan error, len(groups))
	for _, g := range groups {
		go func(g *ncs.Group) { errCh <- op(g) }(g)
	}
	for range groups {
		if err := <-errCh; err != nil {
			b.Fatal(err)
		}
	}
}

// allocGroup builds the 4-member HPI spanning-tree group the collective
// alloc gates run on.
func allocGroup(b *testing.B, tag string) []*ncs.Group {
	b.Helper()
	nw := ncs.NewNetwork()
	b.Cleanup(nw.Close)
	names := make([]string, 4)
	for i := range names {
		names[i] = fmt.Sprintf("alloc-coll-%s-%d", tag, i)
	}
	groups, err := ncs.BuildGroup(nw, names, ncs.Options{Interface: ncs.HPI},
		ncs.MulticastSpanningTree)
	if err != nil {
		b.Fatal(err)
	}
	return groups
}

// BenchmarkAllocCollectiveBroadcast gates the collective engine's
// allocation behaviour: one 4 KB broadcast across a 4-member group —
// frame staging through the pooled pipeline, inbox demultiplexing, and
// payload views instead of copies. The count covers the whole group
// (all four members' work), not one endpoint.
func BenchmarkAllocCollectiveBroadcast(b *testing.B) {
	groups := allocGroup(b, "bcast")
	payload := make([]byte, 4096)
	b.SetBytes(int64(len(payload)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		runCollectiveBench(b, groups, func(g *ncs.Group) error {
			var msg []byte
			if g.Rank() == 0 {
				msg = payload
			}
			_, err := g.Broadcast(0, msg)
			return err
		})
	}
}

// BenchmarkAllocCollectiveAllReduce gates the combining-tree path: a
// 512-byte allreduce (reduce up the rank-ordered tree, broadcast down).
func BenchmarkAllocCollectiveAllReduce(b *testing.B) {
	groups := allocGroup(b, "allred")
	value := make([]byte, 512)
	keep := func(a, _ []byte) []byte { return a }
	b.SetBytes(int64(len(value)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		runCollectiveBench(b, groups, func(g *ncs.Group) error {
			_, err := g.AllReduce(value, keep)
			return err
		})
	}
}

// BenchmarkAllocIdleConnBytes measures the heap cost of one
// established-but-quiet sharded connection: the number the
// per-connection memory diet (lazy sessions, one sweep timer per System)
// drives down, and the one benchgate's bytes/idleconn gate protects.
// The measurement is a single GC-fenced HeapAlloc delta across
// building idleConnSample connection pairs — not a timed loop — so
// the benchmark reports ns/op as 0 and the time gate skips it, while
// the custom metric gates across machines.
func BenchmarkAllocIdleConnBytes(b *testing.B) {
	const idleConnSample = 256
	nw := ncs.NewNetwork()
	defer nw.Close()
	opts := ncs.Options{Interface: ncs.HPI, Runtime: ncs.RuntimeSharded}

	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)

	conns := make([]*ncs.Connection, 0, 2*idleConnSample)
	for i := 0; i < idleConnSample; i++ {
		c, p, err := ncs.Pair(nw, fmt.Sprintf("idle-a-%d", i), fmt.Sprintf("idle-b-%d", i), opts)
		if err != nil {
			b.Fatal(err)
		}
		conns = append(conns, c, p)
	}

	runtime.GC()
	runtime.ReadMemStats(&after)
	per := 0.0
	if after.HeapAlloc > before.HeapAlloc {
		per = float64(after.HeapAlloc-before.HeapAlloc) / float64(len(conns))
	}

	for i := 0; i < b.N; i++ {
		// The measurement above is one-shot; nothing meaningful to time.
	}
	runtime.KeepAlive(conns)
	b.ReportMetric(per, "bytes/idleconn")
	b.ReportMetric(0, "ns/op")
}

// ---------------------------------------------------------------------------
// RPC layer benchmarks. BenchmarkAllocRPCEchoHPIFastpath is the alloc
// acceptance gate for the RPC subsystem: one full call round trip
// (encode, multiplex, dispatch on the worker pool, reply, demultiplex)
// must stay in low single-digit allocs/op — the pooled call states,
// XDR encoders, and buffer pipeline doing their job.

// rpcEchoPair builds an RPC client/server echo pair over one connection.
func rpcEchoPair(b *testing.B, nw *ncs.Network, opts ncs.Options) (*ncs.RPCClient, *ncs.RPCServer) {
	b.Helper()
	conn, peer, err := ncs.Pair(nw, "rpc-bench-a", "rpc-bench-b", opts)
	if err != nil {
		b.Fatal(err)
	}
	srv := ncs.NewServer(ncs.RPCServerOptions{Workers: 4})
	srv.Handle("echo", func(_ context.Context, req []byte) ([]byte, error) {
		return req, nil
	})
	srv.ServeConn(peer)
	b.Cleanup(srv.Shutdown)
	cli := ncs.NewClient(conn)
	b.Cleanup(func() { cli.Close() })
	return cli, srv
}

func benchmarkRPCEcho(b *testing.B, opts ncs.Options, size int) {
	b.Helper()
	nw := ncs.NewNetwork()
	defer nw.Close()
	cli, _ := rpcEchoPair(b, nw, opts)
	req := make([]byte, size)
	ctx := context.Background()
	b.SetBytes(int64(size))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := cli.Call(ctx, "echo", req); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAllocRPCEchoHPIFastpath: the acceptance gate — an RPC echo
// round trip over the §4.2 fast path must cost at most 8 allocs/op.
func BenchmarkAllocRPCEchoHPIFastpath(b *testing.B) {
	benchmarkRPCEcho(b, ncs.Options{Interface: ncs.HPI, FastPath: true}, 4096)
}

// BenchmarkAllocRPCEcho1KSharded is the benchmark's rpc_fanin with one
// caller at a time: 1 KB echo calls alternating over two sharded HPI
// connections, both bound to the one Inbox one server serves. The server
// releases each request after its reply, so a call costs the one slice
// Call returns.
func BenchmarkAllocRPCEcho1KSharded(b *testing.B) {
	clients := rpcFanIn(b)
	req := make([]byte, 1024)
	ctx := context.Background()
	b.SetBytes(int64(len(req)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := clients[i&1].Call(ctx, "echo", req); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAllocRPCFanIn2 is rpc_fanin's shape itself: two callers at
// once, one on each sharded connection, into the one Inbox. Its calls
// contend — inline writes against shard flushes, inbox readers against
// each other — so a hand-off that allocates only under contention shows
// here and not in BenchmarkAllocRPCEcho1KSharded. Still the one slice
// per call.
func BenchmarkAllocRPCFanIn2(b *testing.B) {
	clients := rpcFanIn(b)
	req := make([]byte, 1024)
	ctx := context.Background()
	errs := make(chan error, len(clients))
	b.SetBytes(int64(len(req)))
	b.ReportAllocs()
	b.ResetTimer()
	for c, cli := range clients {
		go func() {
			for i := c; i < b.N; i += len(clients) {
				if _, err := cli.Call(ctx, "echo", req); err != nil {
					errs <- err
					return
				}
			}
			errs <- nil
		}()
	}
	for range clients {
		if err := <-errs; err != nil {
			b.Fatal(err)
		}
	}
}

// rpcFanIn is rpc_fanin's set-up: one server serving one Inbox, two
// sharded HPI connections bound to it, a client on each; all torn down
// with b.
func rpcFanIn(b *testing.B) [2]*ncs.RPCClient {
	nw := ncs.NewNetwork()
	b.Cleanup(nw.Close)
	sa, err := nw.NewSystem("rpc-fanin-a")
	if err != nil {
		b.Fatal(err)
	}
	sb, err := nw.NewSystem("rpc-fanin-b")
	if err != nil {
		b.Fatal(err)
	}
	srv := ncs.NewServer(ncs.RPCServerOptions{})
	srv.Handle("echo", func(_ context.Context, req []byte) ([]byte, error) { return req, nil })
	ib := ncs.NewInbox(0)
	srv.ServeInbox(ib)
	b.Cleanup(srv.Shutdown)
	var clients [2]*ncs.RPCClient
	for i := range clients {
		conn, err := sa.Connect("rpc-fanin-b", ncs.Options{Interface: ncs.HPI, Runtime: ncs.RuntimeSharded})
		if err != nil {
			b.Fatal(err)
		}
		peer, err := sb.Accept()
		if err == nil {
			err = peer.BindInbox(ib)
		}
		if err != nil {
			b.Fatal(err)
		}
		clients[i] = ncs.NewClient(conn)
		b.Cleanup(func() { clients[i].Close() })
	}
	return clients
}

// BenchmarkAllocRPCEchoSCI tracks the threaded TCP-loopback variant.
func BenchmarkAllocRPCEchoSCI(b *testing.B) {
	benchmarkRPCEcho(b, ncs.Options{Interface: ncs.SCI}, 4096)
}

// BenchmarkAllocRPCStreamChunk gates the streaming-call chunk path: one
// chunk round trip on an established bidirectional call (client Send,
// handler echo, client Recv) over the threaded HPI runtime. Call setup
// and teardown stay outside the timed region — the steady-state cost is
// what a long-lived stream pays per chunk.
func BenchmarkAllocRPCStreamChunk(b *testing.B) {
	nw := ncs.NewNetwork()
	defer nw.Close()
	conn, peer, err := ncs.Pair(nw, "rpc-chunk-a", "rpc-chunk-b", ncs.Options{
		Interface: ncs.HPI,
	})
	if err != nil {
		b.Fatal(err)
	}
	srv := ncs.NewServer(ncs.RPCServerOptions{Workers: 2})
	srv.HandleStream("chunkecho", func(_ context.Context, _ []byte, sc *ncs.RPCServerCall) ([]byte, error) {
		for {
			chunk, err := sc.Recv()
			if err != nil {
				return nil, nil
			}
			if err := sc.Send(chunk); err != nil {
				return nil, nil
			}
		}
	})
	srv.ServeConn(peer)
	defer srv.Shutdown()
	c := ncs.NewClient(conn)
	defer c.Close()
	ctx := context.Background()
	cc, err := c.OpenBidiStream(ctx, "chunkecho", nil)
	if err != nil {
		b.Fatal(err)
	}
	chunk := make([]byte, 4096)
	if err := cc.Send(chunk); err != nil { // warm the chunk pipeline
		b.Fatal(err)
	}
	if _, err := cc.Recv(); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(chunk)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := cc.Send(chunk); err != nil {
			b.Fatal(err)
		}
		if _, err := cc.Recv(); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	cc.CloseSend()
	if _, err := cc.Result(ctx); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkRPCEchoSizes sweeps payload sizes over the fast path.
func BenchmarkRPCEchoSizes(b *testing.B) {
	for _, size := range []int{64, 4096, 65536} {
		b.Run(sizeName(size), func(b *testing.B) {
			benchmarkRPCEcho(b, ncs.Options{Interface: ncs.HPI, FastPath: true}, size)
		})
	}
}

// BenchmarkRPCEchoConcurrent measures multiplexed throughput: many
// goroutines share one threaded HPI connection and its server pool.
func BenchmarkRPCEchoConcurrent(b *testing.B) {
	nw := ncs.NewNetwork()
	defer nw.Close()
	cli, _ := rpcEchoPair(b, nw, ncs.Options{Interface: ncs.HPI})
	req := make([]byte, 512)
	b.SetBytes(int64(len(req)))
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		ctx := context.Background()
		for pb.Next() {
			if _, err := cli.Call(ctx, "echo", req); err != nil {
				b.Fatal(err)
			}
		}
	})
}

func sizeName(n int) string {
	if n >= 1024 && n%1024 == 0 {
		return fmt.Sprintf("%dKB", n/1024)
	}
	return fmt.Sprintf("%dB", n)
}
