package rpc

import (
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"sync"
	"testing"
	"time"

	"ncs/internal/buf"
	"ncs/internal/core"
	"ncs/internal/transport"
	"ncs/internal/xdr"
)

// The server borrows each request from the connection and hands its
// buffer back once the reply is sent. These tests run with released
// storage poisoned, so a release that comes too early — before the reply
// is framed, while a handler still reads req — corrupts a reply, and one
// that never comes shows in buf.Outstanding.

// stamp fills p with a pattern only call (caller, seq) produces.
func stamp(p []byte, caller, seq uint32) {
	binary.BigEndian.PutUint32(p, caller)
	binary.BigEndian.PutUint32(p[4:], seq)
	for i := 8; i < len(p); i++ {
		p[i] = byte(caller*131 + seq*7 + uint32(i))
	}
}

// TestEchoHandlerMayReturnItsRequest: a handler that returns req itself
// is the common echo, and req is the arrival buffer. Eight callers keep
// distinct 1 KB payloads in flight on each runtime; every reply must be
// its own request, byte for byte.
func TestEchoHandlerMayReturnItsRequest(t *testing.T) {
	buf.PoisonReleased(true)
	defer buf.PoisonReleased(false)
	const callers, size = 8, 1024
	calls := 2000
	if testing.Short() {
		calls = 200
	}
	for _, rt := range []struct {
		name string
		opts core.Options
	}{
		{"threaded", core.Options{Interface: transport.HPI}},
		{"sharded", core.Options{Interface: transport.HPI, Runtime: core.RuntimeSharded}},
		{"fastpath", core.Options{Interface: transport.HPI, FastPath: true}},
	} {
		t.Run(rt.name, func(t *testing.T) {
			cli, _ := startEcho(t, rt.opts, ServerOptions{Workers: 4}, nil)
			var wg sync.WaitGroup
			errs := make(chan error, callers)
			for c := uint32(0); c < callers; c++ {
				wg.Add(1)
				go func(c uint32) {
					defer wg.Done()
					req, want := make([]byte, size), make([]byte, size)
					for seq := uint32(0); seq < uint32(calls); seq++ {
						stamp(req, c, seq)
						copy(want, req)
						got, err := cli.Call(context.Background(), "echo", req)
						if err != nil {
							errs <- fmt.Errorf("caller %d call %d: %w", c, seq, err)
							return
						}
						if !bytes.Equal(got, want) {
							errs <- fmt.Errorf("caller %d call %d: the reply is not the request (first bytes % x, want % x)", c, seq, got[:12], want[:12])
							return
						}
					}
				}(c)
			}
			wg.Wait()
			close(errs)
			for err := range errs {
				t.Error(err)
			}
		})
	}
}

// TestAdmitReleasesOnEveryExit drives each way a received frame can
// leave Server.take — dropped, refused, or admitted and served by the
// worker that replies — and requires the frame's buffer back afterwards.
// The peer is served by nobody: the test takes each frame off it,
// through take, and one goroutine serves what take admits, so a held
// handler holds the call behind it as a busy worker would.
func TestAdmitReleasesOnEveryExit(t *testing.T) {
	buf.PoisonReleased(true)
	defer buf.PoisonReleased(false)
	conn, peer := pair(t, core.Options{Interface: transport.HPI})
	srv := NewServer(ServerOptions{Workers: 1})
	defer srv.Shutdown()
	gate := make(chan struct{})
	srv.Handle("echo", func(_ context.Context, req []byte) ([]byte, error) { return req, nil })
	srv.Handle("gate", func(_ context.Context, req []byte) ([]byte, error) { <-gate; return req, nil })
	srv.Handle("panic", func(context.Context, []byte) ([]byte, error) { panic("handler bug") })
	srv.HandleStream("sink", func(_ context.Context, req []byte, _ *ServerCall) ([]byte, error) { return req, nil })
	admitted := make(chan request, 2) // the held gate call and the expired call behind it
	defer close(admitted)             // before Shutdown, which waits for what was admitted
	go func() {
		for req := range admitted {
			srv.serve(req)
		}
	}()

	const id = 7
	call := func(id uint64, method string, deadline time.Duration) []byte {
		enc := xdr.NewEncoder(64)
		appendCall(enc, id, method, deadline, []byte("payload"))
		return enc.Bytes()
	}
	streamCall := xdr.NewEncoder(64)
	appendStreamCall(streamCall, id, "sink", 0, ClientStream, 1, []byte("payload"))
	badKind := xdr.NewEncoder(8)
	badKind.PutUint32(99)
	// deliver carries one frame to the server's side and through take.
	deliver := func(frame []byte, doctor func(*core.Message)) {
		t.Helper()
		before := buf.Outstanding()
		if err := conn.Send(frame); err != nil {
			t.Fatal(err)
		}
		m, err := peer.RecvMessageTimeout(5 * time.Second)
		if err != nil {
			t.Fatal(err)
		}
		// A credit grant of the default lane's window may still be on
		// its way back to conn: wait for what is in flight to land.
		for deadline := time.Now().Add(5 * time.Second); buf.Outstanding()-before != 1; time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatalf("the received frame pins %d buffers, want the one it arrived in", buf.Outstanding()-before)
			}
		}
		if doctor != nil {
			doctor(&m)
		}
		if req, ok := srv.take(core.InboxMessage{Conn: peer, Msg: m, At: time.Now()}); ok {
			admitted <- req
		}
	}

	for _, exit := range []struct {
		name   string
		frame  []byte
		doctor func(*core.Message) // alters the received message before take sees it
		pre    func()              // runs before the frame is sent
		post   func()              // runs once take has returned
		status uint32              // the reply's, when one is sent
		reply  bool
	}{
		{name: "lost SDUs", frame: call(id, "echo", 0), doctor: func(m *core.Message) { m.Lost = 1 }},
		{name: "bad kind", frame: badKind.Bytes()},
		{name: "truncated call", frame: call(id, "echo", 0)[:10]},
		{name: "unary call", frame: call(id, "echo", 0), reply: true, status: statusOK},
		{name: "stream call", frame: streamCall.Bytes(), reply: true, status: statusOK,
			// The server ends the chunk flow on the stream the call named;
			// read that marker, or it stays parked on the client's side.
			post: func() { conn.StreamByID(1).RecvTimeout(5 * time.Second) }},
		{name: "no such method", frame: call(id, "nobody", 0), reply: true, status: statusNoMethod},
		{name: "expired deadline", frame: call(id, "echo", time.Microsecond), reply: true, status: statusDeadlineExceeded,
			// The serving goroutine is held while the call's microsecond passes.
			pre:  func() { deliver(call(id+1, "gate", 0), nil) },
			post: func() { time.Sleep(time.Millisecond); close(gate) }},
		{name: "handler panic", frame: call(id, "panic", 0), reply: true, status: statusError},
		{name: "draining refusal", frame: call(id, "echo", 0), reply: true, status: statusShuttingDown,
			pre: func() { srv.qmu.Lock(); srv.draining = true; srv.qmu.Unlock() }},
	} {
		t.Run(exit.name, func(t *testing.T) {
			start := buf.Outstanding()
			if exit.pre != nil {
				exit.pre()
			}
			deliver(exit.frame, exit.doctor)
			if exit.post != nil {
				exit.post()
			}
			for exit.reply {
				raw, err := conn.RecvTimeout(5 * time.Second)
				if err != nil {
					t.Fatalf("no reply: %v", err)
				}
				d := xdr.NewDecoder(raw)
				if k, err := parseKind(d); err != nil || k != kindReply {
					t.Fatalf("reply kind %d, %v", k, err)
				}
				rf, err := parseReply(d)
				if err != nil {
					t.Fatal(err)
				}
				if rf.id != id {
					continue // the gate call's
				}
				if rf.status != exit.status || (rf.status == statusOK && string(rf.payload) != "payload") {
					t.Fatalf("reply status %d payload %q, want status %d", rf.status, rf.payload, exit.status)
				}
				break
			}
			deadline := time.Now().Add(5 * time.Second)
			for buf.Outstanding() != start {
				if time.Now().After(deadline) {
					t.Fatalf("%d buffers still pinned after the frame left take", buf.Outstanding()-start)
				}
				time.Sleep(time.Millisecond)
			}
		})
	}
}
