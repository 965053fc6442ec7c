package rpc

import (
	"context"
	"fmt"
	"io"
	"sync"
	"testing"
	"time"

	"ncs/internal/core"
	"ncs/internal/transport"
)

// everyRuntime is the runtime matrix of the probes below.
func everyRuntime() map[string]core.Options {
	return map[string]core.Options{
		"threaded": {Interface: transport.HPI},
		"sharded":  {Interface: transport.HPI, Runtime: core.RuntimeSharded},
		"fastpath": {Interface: transport.HPI, FastPath: true},
	}
}

// awaitQueued waits, up to 20 s, for conn's default lane to hold n
// messages unread, as /debug/ncs/conns reads it: in its own mailbox, or
// in the inbox it is bound to.
func awaitQueued(t *testing.T, conn *core.Connection, n int) {
	t.Helper()
	for deadline := time.Now().Add(20 * time.Second); ; time.Sleep(time.Millisecond) {
		for _, ci := range core.Conns() {
			if ci.ID == conn.ID() && ci.Peer == conn.Peer() && ci.Queued >= n {
				return
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("the default lane never held %d messages unread", n)
		}
	}
}

// TestChunkWaitBehindUnreadReplies: a chunk wait is not stopped by the
// final replies of other calls left unread on the default lane. One
// server-stream call waits for its chunk while 133 others end, their
// replies unread, past the lane's depth of 128; then its handler sends
// the chunk. The verdict is the wait's return, on every runtime; its
// fail-safe is 20 s. The other calls' results are read after, every one.
func TestChunkWaitBehindUnreadReplies(t *testing.T) {
	const others = 128 + 5
	for name, opts := range everyRuntime() {
		t.Run(name, func(t *testing.T) {
			conn, peer := pair(t, opts)
			release := make(chan struct{})
			srv := NewServer(ServerOptions{})
			srv.HandleStream("gated", func(_ context.Context, _ []byte, sc *ServerCall) ([]byte, error) {
				<-release
				return []byte("gated"), sc.Send([]byte("chunk"))
			})
			srv.HandleStream("done", func(context.Context, []byte, *ServerCall) ([]byte, error) {
				return []byte("done"), nil
			})
			srv.ServeConn(peer)
			t.Cleanup(srv.Shutdown)
			cli := NewClient(conn)
			t.Cleanup(func() { cli.Close() })
			ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
			defer cancel()

			gated, err := cli.OpenServerStream(ctx, "gated", nil)
			if err != nil {
				t.Fatal(err)
			}
			chunk := make(chan error, 1)
			go func() {
				c, err := gated.Recv()
				if err == nil && string(c) != "chunk" {
					err = fmt.Errorf("chunk %q", c)
				}
				chunk <- err
			}()
			// Let the wait sweep the lane before the replies arrive (its
			// verdict does not depend on this; whether the defect shows does).
			time.Sleep(20 * time.Millisecond)
			calls := make([]*ClientCall, others)
			for i := range calls {
				if calls[i], err = cli.OpenServerStream(ctx, "done", nil); err != nil {
					t.Fatal(err)
				}
			}
			awaitQueued(t, conn, 128) // the other calls' replies fill the default lane
			close(release)
			select {
			case err := <-chunk:
				if err != nil {
					t.Fatal(err)
				}
			case <-ctx.Done():
				t.Fatal("the chunk wait never returned behind the unread replies")
			}
			for i, cc := range append(calls, gated) {
				for {
					if _, err := cc.Recv(); err == io.EOF {
						break
					} else if err != nil {
						t.Fatalf("call %d: %v", i, err)
					}
				}
				if _, err := cc.Result(ctx); err != nil {
					t.Fatalf("call %d: Result %v", i, err)
				}
			}
		})
	}
}

// TestUploadBehindFloodedServer: one connection's flood does not stall
// another's upload on a server that serves both through its own Inbox.
// The upload's handler holds the only worker and waits for its chunks;
// the other connection sends 1 100 unary calls, past the Inbox's depth
// of 1 024; then the upload sends its chunks. The verdict is
// ClientCall.Result's return, on every runtime; its fail-safe is 20 s.
// Then every unary call is answered.
func TestUploadBehindFloodedServer(t *testing.T) {
	const calls = 1100
	for name, opts := range everyRuntime() {
		t.Run(name, func(t *testing.T) {
			nw := core.NewNetwork()
			t.Cleanup(nw.Close)
			a, _ := nw.NewSystem("flood-a")
			b, _ := nw.NewSystem("flood-b")
			srv := NewServer(ServerOptions{Workers: 1})
			srv.Handle("echo", func(_ context.Context, req []byte) ([]byte, error) { return req, nil })
			holding := make(chan struct{})
			srv.HandleStream("upload", func(_ context.Context, _ []byte, sc *ServerCall) ([]byte, error) {
				close(holding)
				n := 0
				for {
					if _, err := sc.Recv(); err == io.EOF {
						return []byte(fmt.Sprint(n)), nil
					} else if err != nil {
						return nil, err
					}
					n++
				}
			})
			t.Cleanup(srv.Shutdown)
			var clients [2]*Client
			var served [2]*core.Connection
			for i := range clients {
				conn, err := a.Connect("flood-b", opts)
				if err != nil {
					t.Fatal(err)
				}
				if served[i], err = b.AcceptTimeout(5 * time.Second); err != nil {
					t.Fatal(err)
				}
				srv.ServeConn(served[i])
				clients[i] = NewClient(conn)
				t.Cleanup(func() { clients[i].Close() })
			}
			ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
			defer cancel()

			up, err := clients[0].OpenClientStream(ctx, "upload", nil)
			if err != nil {
				t.Fatal(err)
			}
			select {
			case <-holding: // the upload's handler holds the only worker
			case <-ctx.Done():
				t.Fatal("the upload's handler never started")
			}
			var wg sync.WaitGroup
			errs := make(chan error, calls)
			for i := 0; i < calls; i++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					if _, err := clients[1].Call(ctx, "echo", []byte("flood")); err != nil {
						errs <- err
					}
				}()
			}
			awaitQueued(t, served[1], 1024) // the flood fills the server's inbox
			for i := 0; i < 3; i++ {
				if err := up.Send([]byte("chunk")); err != nil {
					t.Fatal(err)
				}
			}
			if err := up.CloseSend(); err != nil {
				t.Fatal(err)
			}
			if reply, err := up.Result(ctx); err != nil || string(reply) != "3" {
				t.Fatalf("the upload behind the flood: Result %q, %v", reply, err)
			}
			wg.Wait()
			close(errs)
			for err := range errs {
				t.Fatalf("a unary call of the flood: %v", err)
			}
		})
	}
}
