package rpc

import (
	"bytes"
	"context"
	"errors"
	"go/ast"
	"go/parser"
	"go/token"
	"io"
	"runtime"
	"sync"
	"testing"
	"time"

	"ncs/internal/core"
	"ncs/internal/errctl"
	"ncs/internal/flowctl"
	"ncs/internal/netsim"
	"ncs/internal/transport"
)

// The caller reads its own reply: of the calls in flight on a Client,
// the one holding the lead token reads the connection. These tests hold
// handlers on channels and watch the Client's own state (its registry,
// its token) instead of the clock, so each verdict follows from the
// order of events alone.

// gatedServer serves method "hold" on peer: the handler announces its
// request on entered, then waits for the request's gate before echoing
// it. A gate the test left shut opens before the server shuts down.
func gatedServer(t *testing.T, peer *core.Connection, gates map[string]chan struct{}) <-chan string {
	t.Helper()
	entered := make(chan string, len(gates))
	srv := NewServer(ServerOptions{Workers: 4})
	srv.Handle("hold", func(_ context.Context, req []byte) ([]byte, error) {
		name := string(req)
		entered <- name
		<-gates[name]
		return req, nil
	})
	srv.ServeConn(peer)
	t.Cleanup(srv.Shutdown)
	t.Cleanup(func() {
		for _, g := range gates {
			select {
			case <-g:
			default:
				close(g)
			}
		}
	})
	return entered
}

// until spins — yielding, with no clock — until cond holds.
func until(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for i := 0; !cond(); i++ {
		if i == 1_000_000 {
			t.Fatalf("never: %s", what)
		}
		runtime.Gosched()
	}
}

func (c *Client) registered() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.calls)
}

type result struct {
	reply []byte
	err   error
}

func goCall(cli *Client, ctx context.Context, req string) <-chan result {
	done := make(chan result, 1)
	go func() {
		reply, err := cli.Call(ctx, "hold", []byte(req))
		done <- result{reply, err}
	}()
	return done
}

// TestLeadHandsOnWhenCallerGivesUp: call A leads, call B waits behind
// it. A's caller cancels its context while A's handler is held: A
// returns context.Canceled and hands the lead on, B takes it (it leaves
// the registry before any reply exists) and reads its own reply, and
// A's late reply — read by B ahead of B's own — reaches nobody.
func TestLeadHandsOnWhenCallerGivesUp(t *testing.T) {
	conn, peer := pair(t, core.Options{Interface: transport.HPI})
	gates := map[string]chan struct{}{"A": make(chan struct{}), "B": make(chan struct{}), "C": make(chan struct{})}
	close(gates["C"])
	entered := gatedServer(t, peer, gates)
	cli := NewClient(conn)
	defer cli.Close()

	ctxA, cancelA := context.WithCancel(context.Background())
	defer cancelA()
	doneA := goCall(cli, ctxA, "A")
	if got := <-entered; got != "A" {
		t.Fatalf("handler entered for %q, want A", got)
	}
	if len(cli.lead) != 0 {
		t.Fatal("A is in flight and the lead token is still free")
	}
	doneB := goCall(cli, context.Background(), "B")
	if got := <-entered; got != "B" {
		t.Fatalf("handler entered for %q, want B", got)
	}
	if n := cli.registered(); n != 1 {
		t.Fatalf("%d calls registered behind the lead, want B alone", n)
	}

	cancelA()
	if r := <-doneA; !errors.Is(r.err, context.Canceled) {
		t.Fatalf("A: reply %q, err %v, want context.Canceled", r.reply, r.err)
	}
	until(t, "B takes the lead", func() bool { return cli.registered() == 0 })

	received := conn.Stats().MessagesReceived
	close(gates["A"]) // A's late reply
	until(t, "A's late reply arrives", func() bool { return conn.Stats().MessagesReceived > received })
	close(gates["B"])
	if r := <-doneB; r.err != nil || string(r.reply) != "B" {
		t.Fatalf("B: reply %q, err %v, want its own reply", r.reply, r.err)
	}
	if r := <-goCall(cli, context.Background(), "C"); r.err != nil || string(r.reply) != "C" {
		t.Fatalf("C: reply %q, err %v, want its own reply", r.reply, r.err)
	}
	if n := cli.registered(); n != 0 || len(cli.lead) != 1 {
		t.Fatalf("at rest: %d calls registered, lead token free %v", n, len(cli.lead) == 1)
	}
}

// TestFollowerGetsConnectionError: the connection dies while call A
// leads and B waits behind it. The lead's read fails, fails B first, and
// both return the connection's error — not ErrClientClosed, and without
// hanging.
func TestFollowerGetsConnectionError(t *testing.T) {
	conn, peer := pair(t, core.Options{Interface: transport.HPI})
	gates := map[string]chan struct{}{"A": make(chan struct{}), "B": make(chan struct{})}
	entered := gatedServer(t, peer, gates)
	cli := NewClient(conn)
	defer cli.Close()

	doneA := goCall(cli, context.Background(), "A")
	<-entered
	doneB := goCall(cli, context.Background(), "B")
	<-entered
	if n := cli.registered(); n != 1 {
		t.Fatalf("%d calls registered behind the lead, want B alone", n)
	}
	peer.Close()
	for name, done := range map[string]<-chan result{"A": doneA, "B": doneB} {
		r := <-done
		if r.err == nil || errors.Is(r.err, ErrClientClosed) || r.err != conn.Err() {
			t.Fatalf("%s: err %v, want the connection's error %v", name, r.err, conn.Err())
		}
	}
}

// runtimes are the three a connection can run on, over HPI.
var runtimes = map[string]core.Options{
	"threaded": {Interface: transport.HPI},
	"sharded":  {Interface: transport.HPI, Runtime: core.RuntimeSharded},
	"fastpath": {Interface: transport.HPI, FastPath: true},
}

// TestClientGoroutines: NewClient starts no goroutine on any runtime —
// every connection has a pump of last resort, so a Client needs no
// reader of its own. A Close with calls in flight fails them with
// ErrClientClosed and leaves no goroutine behind. Nobody serves the
// peer, so only Close ends the calls.
func TestClientGoroutines(t *testing.T) {
	for name, opts := range runtimes {
		t.Run(name, func(t *testing.T) {
			conn, _ := pair(t, opts)
			base := runtime.NumGoroutine()
			cli := NewClient(conn)
			if n := runtime.NumGoroutine() - base; n != 0 {
				t.Fatalf("NewClient started %d goroutines, want 0", n)
			}
			var wg sync.WaitGroup
			errs := make(chan error, 2)
			call := func() {
				defer wg.Done()
				_, err := cli.Call(context.Background(), "echo", nil)
				errs <- err
			}
			wg.Add(2)
			go call()
			go call()
			until(t, "both calls wait", func() bool { return cli.registered()+(1-len(cli.lead)) == 2 })
			cli.Close()
			wg.Wait()
			for range 2 {
				if err := <-errs; !errors.Is(err, ErrClientClosed) {
					t.Fatalf("in-flight call: err %v, want ErrClientClosed", err)
				}
			}
			until(t, "every goroutine exits", func() bool { return runtime.NumGoroutine() <= base })
		})
	}
}

// TestClientGoStatements pins the Client's shape: a call reads its own
// reply, on every runtime, so client.go has no go statement.
func TestClientGoStatements(t *testing.T) { noGoStatements(t, "client.go") }

// TestServerGoStatements pins the Server's shape: its workers read their
// inboxes themselves, a served connection's among them, so server.go
// has no go statement.
func TestServerGoStatements(t *testing.T) { noGoStatements(t, "server.go") }

func noGoStatements(t *testing.T, file string) {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, file, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	ast.Inspect(f, func(n ast.Node) bool {
		if g, ok := n.(*ast.GoStmt); ok {
			t.Errorf("%s: a go statement in %s", fset.Position(g.Pos()), file)
		}
		return true
	})
}

// TestServerGoroutines: ServeConn starts no goroutine on any runtime —
// the connection's pump of last resort delivers its calls into the
// server's inbox, whose workers NewServer started — and Shutdown leaves
// none behind.
func TestServerGoroutines(t *testing.T) {
	for name, opts := range runtimes {
		t.Run(name, func(t *testing.T) {
			conn, peer := pair(t, opts)
			base := runtime.NumGoroutine()
			srv := NewServer(ServerOptions{})
			srv.Handle("echo", func(_ context.Context, req []byte) ([]byte, error) { return req, nil })
			workers := runtime.NumGoroutine()
			srv.ServeConn(peer)
			if n := runtime.NumGoroutine() - workers; n != 0 {
				t.Fatalf("ServeConn started %d goroutines, want 0", n)
			}
			cli := NewClient(conn)
			defer cli.Close()
			if _, err := cli.Call(context.Background(), "echo", []byte("served")); err != nil {
				t.Fatal(err)
			}
			srv.Shutdown()
			until(t, "every goroutine exits", func() bool { return runtime.NumGoroutine() <= base })
		})
	}
}

// TestUnreadRepliesDoNotStopChunks: one past the connection's delivery
// depth (core's deliveredQueueDepth, 128) of server-stream calls are
// open at once, each read to io.EOF before any Result, with no unary
// call meanwhile. Their final replies arrive on the connection's default
// lane, which no call is reading; the server's four workers run the
// handlers in turn, so the last handlers' chunks come after 128 of those
// replies. A chunk wait sweeps the replies to their calls, so they never
// hold the lane at depth and stop the data wire the chunks ride.
func TestUnreadRepliesDoNotStopChunks(t *testing.T) {
	const calls = 128 + 5
	for name, opts := range streamOptsMatrix() {
		t.Run(name, func(t *testing.T) {
			cli := streamServer(t, opts)
			ccs := make([]*ClientCall, calls)
			for i := range ccs {
				cc, err := cli.OpenServerStream(context.Background(), "download", []byte{1})
				if err != nil {
					t.Fatal(err)
				}
				ccs[i] = cc
			}
			done := make(chan error, 1)
			go func() {
				for _, cc := range ccs {
					for {
						if _, err := cc.Recv(); err == io.EOF {
							break
						} else if err != nil {
							done <- err
							return
						}
					}
				}
				done <- nil
			}()
			select {
			case err := <-done:
				if err != nil {
					t.Fatal(err)
				}
			case <-time.After(20 * time.Second):
				t.Fatal("a chunk wait hung behind unread replies")
			}
			for i, cc := range ccs {
				if reply, err := cc.Result(context.Background()); err != nil || string(reply) != "sent" {
					t.Fatalf("call %d: Result %q, %v", i, reply, err)
				}
			}
		})
	}
}

// TestSendHoldsNoLeadAnotherNeeds: a unary call that starts while a
// streaming call waits for its final reply does not lead from its start,
// so its Send — held here by a partitioned link — keeps the lead from
// nobody: the streaming call's Result takes it and reads its own reply
// while that Send is still blocked.
func TestSendHoldsNoLeadAnotherNeeds(t *testing.T) {
	cli := streamServer(t, core.Options{Interface: transport.HPI, ErrorControl: errctl.SelectiveRepeat, FlowControl: flowctl.Credit})
	conn := cli.Conn()
	up, err := cli.OpenClientStream(context.Background(), "upload", []byte("up"))
	if err != nil {
		t.Fatal(err)
	}
	if err := up.CloseSend(); err != nil {
		t.Fatal(err)
	}
	// The handler's end of chunks and its final reply.
	until(t, "the upload's final reply arrives", func() bool { return conn.Stats().MessagesReceived >= 2 })

	if !conn.ImpairData(netsim.Impairments{Partitioned: true}) {
		t.Fatal("no simulated link to partition")
	}
	blocked := make(chan error, 1)
	go func() {
		_, err := cli.Call(context.Background(), "none", make([]byte, 64*1024))
		blocked <- err
	}()
	until(t, "the unary call begins", func() bool { return cli.registered() == 2 || len(cli.lead) == 0 })

	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	if reply, err := up.Result(ctx); err != nil || string(reply) != "up:0" {
		t.Fatalf("upload: Result %q, %v — want its reply while the other call's Send is blocked", reply, err)
	}
	select {
	case err := <-blocked:
		t.Fatalf("the unary call ended (%v) before the link healed: its Send was never blocked", err)
	default:
	}
	conn.ImpairData(netsim.Impairments{})
	if err := <-blocked; !errors.Is(err, ErrNoMethod) {
		t.Fatalf("the unary call: err %v, want ErrNoMethod once the link healed", err)
	}
}

// TestReplyKeepsOnlyItsPayload: a 1 KB reply that arrived in one SDU is
// copied out of its arrival buffer at its exact size — the slice Call
// returns is the payload, not the frame around it.
func TestReplyKeepsOnlyItsPayload(t *testing.T) {
	cli, _ := startEcho(t, core.Options{Interface: transport.HPI}, ServerOptions{}, nil)
	req := make([]byte, 1024)
	for i := range req {
		req[i] = byte(i * 7)
	}
	reply, err := cli.Call(context.Background(), "echo", req)
	if err != nil {
		t.Fatal(err)
	}
	if len(reply) != 1024 || cap(reply) != 1024 || !bytes.Equal(reply, req) {
		t.Fatalf("reply len %d cap %d, want the request's 1024 bytes at cap 1024", len(reply), cap(reply))
	}
}
