package ncs_test

import (
	"context"
	"runtime"
	"testing"

	"ncs"
)

// The message path's recycled state — buffers, error-control state
// machines, send sessions, RPC encoders and call records — waits in
// free lists the message path owns, so what a message allocates must not
// depend on how often the collector runs. These tests force a cycle
// every 16th operation, which would empty a collector-owned pool each
// time, and hold the long-run allocations per operation to the delivered
// copies plus a margin for the runtime's own background allocations.

// mallocsPer runs op n times, forcing a collection every 16th, and
// returns heap allocations per operation. A forced cycle allocates a
// little of its own (about two objects); the same loop around an empty
// op measures that, and it is subtracted.
func mallocsPer(t *testing.T, n int, op func()) float64 {
	t.Helper()
	for i := 0; i < 64; i++ {
		op() // warm the free lists
	}
	loop := func(op func()) uint64 {
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		for i := 0; i < n; i++ {
			op()
			if i%16 == 15 {
				runtime.GC()
			}
		}
		runtime.ReadMemStats(&m1)
		return m1.Mallocs - m0.Mallocs
	}
	cycles := loop(func() {})
	return (float64(loop(op)) - float64(cycles)) / float64(n)
}

func reliablePair(t *testing.T, tag string) (conn, peer *ncs.Connection) {
	t.Helper()
	nw := ncs.NewNetwork()
	t.Cleanup(nw.Close)
	conn, peer, err := ncs.Pair(nw, tag+"-a", tag+"-b", ncs.Options{
		Interface: ncs.HPI, ErrorControl: ncs.ErrorSelectiveRepeat, FlowControl: ncs.FlowCredit,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close(); peer.Close() })
	return conn, peer
}

func TestMessagePathAllocationsSurviveTheCollector(t *testing.T) {
	t.Run("bulk one-way 64 SDUs", func(t *testing.T) {
		conn, peer := reliablePair(t, "gc-bulk")
		msg := make([]byte, 64*4096)
		got := mallocsPer(t, 2000, func() {
			if err := conn.Send(msg); err != nil {
				t.Fatal(err)
			}
			if m, err := peer.Recv(); err != nil || len(m) != len(msg) {
				t.Fatalf("recv: %d bytes, %v", len(m), err)
			}
		})
		t.Logf("%.3f allocs per 256 KB message", got)
		if got > 1.2 {
			t.Errorf("%.3f allocs per message with a forced GC every 16th, want ≤ 1.2 (the delivered copy)", got)
		}
	})
	t.Run("64 B echo", func(t *testing.T) {
		conn, peer := reliablePair(t, "gc-echo")
		go func() {
			for {
				m, err := peer.Recv()
				if err != nil || peer.Send(m) != nil {
					return
				}
			}
		}()
		msg := make([]byte, 64)
		got := mallocsPer(t, 2000, func() {
			if err := conn.Send(msg); err != nil {
				t.Fatal(err)
			}
			if _, err := conn.Recv(); err != nil {
				t.Fatal(err)
			}
		})
		t.Logf("%.3f allocs per echo", got)
		if got > 2.1 {
			t.Errorf("%.3f allocs per echo with a forced GC every 16th, want ≤ 2.1 (two delivered copies)", got)
		}
	})
	t.Run("rpc 1 KB echo", func(t *testing.T) {
		nw := ncs.NewNetwork()
		defer nw.Close()
		conn, peer, err := ncs.Pair(nw, "gc-rpc-a", "gc-rpc-b", ncs.Options{Interface: ncs.HPI, Runtime: ncs.RuntimeSharded})
		if err != nil {
			t.Fatal(err)
		}
		srv := ncs.NewServer(ncs.RPCServerOptions{Workers: 2})
		srv.Handle("echo", func(_ context.Context, req []byte) ([]byte, error) { return req, nil })
		srv.ServeConn(peer)
		defer srv.Shutdown()
		cli := ncs.NewClient(conn)
		defer cli.Close()
		req := make([]byte, 1024)
		ctx := context.Background()
		got := mallocsPer(t, 2000, func() {
			if _, err := cli.Call(ctx, "echo", req); err != nil {
				t.Fatal(err)
			}
		})
		t.Logf("%.3f allocs per call", got)
		if got > 2.1 {
			t.Errorf("%.3f allocs per call with a forced GC every 16th, want ≤ 2.1 (request and reply copies)", got)
		}
	})
}
