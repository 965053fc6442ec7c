package rpc

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"ncs/internal/core"
	"ncs/internal/thread"
	"ncs/internal/transport"
	"ncs/internal/xdr"
)

// pair returns both ends of a connection between two fresh systems on a
// fresh network, cleaned up with the test.
func pair(t *testing.T, opts core.Options) (*core.Connection, *core.Connection) {
	t.Helper()
	nw := core.NewNetwork()
	t.Cleanup(nw.Close)
	sa, err := nw.NewSystem("rpc-a")
	if err != nil {
		t.Fatal(err)
	}
	sb, err := nw.NewSystem("rpc-b")
	if err != nil {
		t.Fatal(err)
	}
	conn, err := sa.Connect("rpc-b", opts)
	if err != nil {
		t.Fatal(err)
	}
	peer, err := sb.Accept()
	if err != nil {
		t.Fatal(err)
	}
	return conn, peer
}

// startEcho serves an echo method (plus any extra handlers) on peer and
// returns a client on conn. Both are torn down with the test.
func startEcho(t *testing.T, opts core.Options, srvOpts ServerOptions, extra map[string]Handler) (*Client, *Server) {
	t.Helper()
	conn, peer := pair(t, opts)
	srv := NewServer(srvOpts)
	srv.Handle("echo", func(_ context.Context, req []byte) ([]byte, error) {
		return req, nil
	})
	for m, h := range extra {
		srv.Handle(m, h)
	}
	srv.ServeConn(peer)
	t.Cleanup(srv.Shutdown)
	cli := NewClient(conn)
	t.Cleanup(func() { cli.Close() })
	return cli, srv
}

// interfaces the round-trip tests sweep: every transport kind plus the
// §4.2 fast path.
var interfaceMatrix = []struct {
	name string
	opts core.Options
}{
	{"HPI", core.Options{Interface: transport.HPI}},
	{"HPI-fastpath", core.Options{Interface: transport.HPI, FastPath: true}},
	{"HPI-sharded", core.Options{Interface: transport.HPI, Runtime: core.RuntimeSharded}},
	{"SCI", core.Options{Interface: transport.SCI}},
	{"SCI-sharded", core.Options{Interface: transport.SCI, Runtime: core.RuntimeSharded}},
	{"ACI", core.Options{Interface: transport.ACI}},
}

// TestServeInboxShardedFanIn serves many sharded connections through
// ONE inbox, read by the server's workers themselves: every client's
// calls must complete even though the server parks no goroutine per
// connection.
func TestServeInboxShardedFanIn(t *testing.T) {
	const conns = 8
	nw := core.NewNetwork()
	t.Cleanup(nw.Close)
	sa, err := nw.NewSystem("rpc-fan-a")
	if err != nil {
		t.Fatal(err)
	}
	sb, err := nw.NewSystem("rpc-fan-b")
	if err != nil {
		t.Fatal(err)
	}

	srv := NewServer(ServerOptions{Workers: 4})
	srv.Handle("echo", func(_ context.Context, req []byte) ([]byte, error) {
		return req, nil
	})
	ib := core.NewInbox(0)
	srv.ServeInbox(ib)
	t.Cleanup(srv.Shutdown)

	opts := core.Options{Interface: transport.HPI, Runtime: core.RuntimeSharded}
	ready := make(chan error, 1)
	go func() {
		for i := 0; i < conns; i++ {
			peer, err := sb.Accept()
			if err != nil {
				ready <- err
				return
			}
			if err := peer.BindInbox(ib); err != nil {
				ready <- err
				return
			}
		}
		ready <- nil
	}()
	clients := make([]*Client, conns)
	for i := range clients {
		conn, err := sa.Connect("rpc-fan-b", opts)
		if err != nil {
			t.Fatal(err)
		}
		clients[i] = NewClient(conn)
		t.Cleanup(func() { clients[i].Close() })
	}
	if err := <-ready; err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	errCh := make(chan error, conns*4)
	for i, cli := range clients {
		for j := 0; j < 4; j++ {
			wg.Add(1)
			go func(i, j int, cli *Client) {
				defer wg.Done()
				req := []byte(fmt.Sprintf("fan %d/%d", i, j))
				resp, err := cli.Call(context.Background(), "echo", req)
				if err != nil {
					errCh <- fmt.Errorf("conn %d call %d: %w", i, j, err)
					return
				}
				if !bytes.Equal(resp, req) {
					errCh <- fmt.Errorf("conn %d call %d: got %q", i, j, resp)
				}
			}(i, j, cli)
		}
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
}

func TestCallRoundTrip(t *testing.T) {
	for _, tc := range interfaceMatrix {
		t.Run(tc.name, func(t *testing.T) {
			cli, _ := startEcho(t, tc.opts, ServerOptions{}, nil)
			for _, size := range []int{0, 1, 512, 64 * 1024} {
				req := bytes.Repeat([]byte{0xAB}, size)
				resp, err := cli.Call(context.Background(), "echo", req)
				if err != nil {
					t.Fatalf("size %d: %v", size, err)
				}
				if !bytes.Equal(resp, req) {
					t.Fatalf("size %d: response mismatch (%d bytes back)", size, len(resp))
				}
			}
		})
	}
}

// TestConcurrentInFlight floods one connection with concurrent calls
// whose responses must each match their request — the multiplexing
// correctness test.
func TestConcurrentInFlight(t *testing.T) {
	for _, tc := range interfaceMatrix {
		t.Run(tc.name, func(t *testing.T) {
			cli, _ := startEcho(t, tc.opts, ServerOptions{Workers: 8}, nil)
			const callers = 16
			const callsEach = 25
			var wg sync.WaitGroup
			errCh := make(chan error, callers)
			for g := 0; g < callers; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					for i := 0; i < callsEach; i++ {
						req := []byte(fmt.Sprintf("caller-%d-call-%d", g, i))
						resp, err := cli.Call(context.Background(), "echo", req)
						if err != nil {
							errCh <- fmt.Errorf("caller %d call %d: %w", g, i, err)
							return
						}
						if !bytes.Equal(resp, req) {
							errCh <- fmt.Errorf("caller %d call %d: got %q want %q", g, i, resp, req)
							return
						}
					}
				}(g)
			}
			wg.Wait()
			close(errCh)
			for err := range errCh {
				t.Fatal(err)
			}
		})
	}
}

// TestSlowCallDoesNotBlockFast verifies multiplexing in time, not just
// in correctness: a deliberately slow call and a fast call share the
// connection, and the fast one completes while the slow one is parked.
func TestSlowCallDoesNotBlockFast(t *testing.T) {
	release := make(chan struct{})
	slow := func(_ context.Context, req []byte) ([]byte, error) {
		<-release
		return req, nil
	}
	cli, _ := startEcho(t, core.Options{Interface: transport.HPI}, ServerOptions{Workers: 4},
		map[string]Handler{"slow": slow})

	slowDone := make(chan error, 1)
	go func() {
		_, err := cli.Call(context.Background(), "slow", []byte("s"))
		slowDone <- err
	}()

	// The fast call must complete while "slow" is still parked.
	if _, err := cli.Call(context.Background(), "echo", []byte("f")); err != nil {
		t.Fatalf("fast call: %v", err)
	}
	select {
	case err := <-slowDone:
		t.Fatalf("slow call finished before release: %v", err)
	default:
	}
	close(release)
	if err := <-slowDone; err != nil {
		t.Fatalf("slow call: %v", err)
	}
}

func TestDeadlineExpiry(t *testing.T) {
	block := make(chan struct{})
	defer close(block)
	stuck := func(ctx context.Context, req []byte) ([]byte, error) {
		select {
		case <-block:
		case <-ctx.Done():
		}
		return nil, ctx.Err()
	}
	cli, _ := startEcho(t, core.Options{Interface: transport.HPI}, ServerOptions{},
		map[string]Handler{"stuck": stuck})

	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := cli.Call(ctx, "stuck", nil)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want DeadlineExceeded", err)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("deadline took %v to fire", elapsed)
	}

	// The connection must still be usable after an abandoned call.
	if _, err := cli.Call(context.Background(), "echo", []byte("after")); err != nil {
		t.Fatalf("call after expiry: %v", err)
	}
}

// TestHandlerDeadlineIsDeadlineStatus pins the server half of
// TestDeadlineExpiry with only one timer in play: the call frame is sent
// raw, so nothing on the caller's side can expire, and the handler
// returns its context's deadline error. The reply must carry
// statusDeadlineExceeded — which the client maps to
// context.DeadlineExceeded, the same verdict its own timer gives — while
// a deadline error the handler did not get from its context stays an
// application error.
func TestHandlerDeadlineIsDeadlineStatus(t *testing.T) {
	conn, peer := pair(t, core.Options{Interface: transport.HPI})
	srv := NewServer(ServerOptions{})
	srv.Handle("stuck", func(ctx context.Context, _ []byte) ([]byte, error) {
		<-ctx.Done()
		return nil, fmt.Errorf("gave up: %w", ctx.Err())
	})
	srv.Handle("elsewhere", func(context.Context, []byte) ([]byte, error) {
		return nil, context.DeadlineExceeded
	})
	srv.ServeConn(peer)
	defer srv.Shutdown()

	call := func(id uint64, method string) replyFrame {
		t.Helper()
		enc := xdr.NewEncoder(64)
		appendCall(enc, id, method, 20*time.Millisecond, nil)
		if err := conn.Send(enc.Bytes()); err != nil {
			t.Fatal(err)
		}
		m, err := conn.RecvTimeout(10 * time.Second)
		if err != nil {
			t.Fatal(err)
		}
		d := xdr.NewDecoder(m)
		if k, err := parseKind(d); err != nil || k != kindReply {
			t.Fatalf("kind = %d, %v, want a reply", k, err)
		}
		rf, err := parseReply(d)
		if err != nil || rf.id != id {
			t.Fatalf("reply id = %d, %v, want %d", rf.id, err, id)
		}
		return rf
	}

	expired := mDeadlineExpired.Value()
	if rf := call(1, "stuck"); rf.status != statusDeadlineExceeded {
		t.Fatalf("handler returned its context's deadline error: status = %d (%q), want statusDeadlineExceeded", rf.status, rf.errmsg)
	}
	if got := mDeadlineExpired.Value() - expired; got != 1 {
		t.Fatalf("rpc.server.deadline_expired_total moved by %d, want 1", got)
	}
	if rf := call(2, "elsewhere"); rf.status != statusError {
		t.Fatalf("handler returned a foreign deadline error with its own budget left: status = %d, want statusError", rf.status)
	}
	if _, err := (reply{status: statusDeadlineExceeded}).result("stuck"); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("client maps statusDeadlineExceeded to %v, want context.DeadlineExceeded", err)
	}
}

// TestExpiredBeforeSend: a context already past its deadline never
// reaches the wire.
func TestExpiredBeforeSend(t *testing.T) {
	cli, _ := startEcho(t, core.Options{Interface: transport.HPI}, ServerOptions{}, nil)
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	if _, err := cli.Call(ctx, "echo", nil); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want DeadlineExceeded", err)
	}
}

// sources are the two ways a server is given calls: a served connection,
// bound to the server's own inbox, and an inbox the caller bound and
// served. serveBy attaches peer to srv through one of them.
var sources = []string{"conn", "inbox"}

func serveBy(t *testing.T, srv *Server, peer *core.Connection, source string) {
	t.Helper()
	if source == "conn" {
		srv.ServeConn(peer)
		return
	}
	ib := core.NewInbox(0)
	if err := peer.BindInbox(ib); err != nil {
		t.Fatal(err)
	}
	srv.ServeInbox(ib)
}

// TestServerSkipsExpiredWork: the propagated deadline lets the server
// refuse work whose caller has already given up, counting from the
// call's arrival, whichever source it came from.
func TestServerSkipsExpiredWork(t *testing.T) {
	for _, source := range sources {
		t.Run(source, func(t *testing.T) {
			ran := make(chan struct{}, 8)
			gate := make(chan struct{})
			slow := func(_ context.Context, req []byte) ([]byte, error) {
				ran <- struct{}{}
				<-gate
				return req, nil
			}
			// One worker: the first (slow) call occupies it, so the second
			// call's budget expires while it waits in the inbox.
			conn, peer := pair(t, core.Options{Interface: transport.HPI})
			srv := NewServer(ServerOptions{Workers: 1})
			t.Cleanup(srv.Shutdown)
			srv.Handle("slow", slow)
			serveBy(t, srv, peer, source)
			cli := NewClient(conn)
			t.Cleanup(func() { cli.Close() })

			go cli.Call(context.Background(), "slow", nil)
			<-ran

			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
			defer cancel()
			if _, err := cli.Call(ctx, "slow", nil); !errors.Is(err, context.DeadlineExceeded) {
				t.Fatalf("queued call err = %v, want DeadlineExceeded", err)
			}
			close(gate)

			// The worker must NOT have run the expired request: it replies
			// DeadlineExceeded without dispatching the handler.
			time.Sleep(20 * time.Millisecond)
			select {
			case <-ran:
				t.Fatal("server ran a request whose deadline had expired in queue")
			default:
			}
		})
	}
}

// TestCallBeforeServeConnIsServed: calls that reached the served end
// before ServeConn — queued on the connection's own lane — are answered
// once it runs: the bind hands them to the server's inbox.
func TestCallBeforeServeConnIsServed(t *testing.T) {
	const calls = 8
	for _, tc := range interfaceMatrix {
		t.Run(tc.name, func(t *testing.T) {
			conn, peer := pair(t, tc.opts)
			srv := NewServer(ServerOptions{})
			t.Cleanup(srv.Shutdown)
			srv.Handle("echo", func(_ context.Context, req []byte) ([]byte, error) { return req, nil })
			cli := NewClient(conn)
			t.Cleanup(func() { cli.Close() })

			errs := make(chan error, calls)
			for i := range calls {
				go func() {
					ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
					defer cancel()
					req := fmt.Appendf(nil, "early %d", i)
					resp, err := cli.Call(ctx, "echo", req)
					if err == nil && !bytes.Equal(resp, req) {
						err = fmt.Errorf("got %q", resp)
					}
					if err != nil {
						err = fmt.Errorf("call %d: %w", i, err)
					}
					errs <- err
				}()
			}
			deadline := time.Now().Add(5 * time.Second)
			for peer.Stats().MessagesReceived < calls {
				if time.Now().After(deadline) {
					t.Fatalf("%d of %d calls reached the served end", peer.Stats().MessagesReceived, calls)
				}
				time.Sleep(time.Millisecond)
			}
			srv.ServeConn(peer)
			for range calls {
				if err := <-errs; err != nil {
					t.Error(err)
				}
			}
		})
	}
}

func TestServerSideError(t *testing.T) {
	boom := func(_ context.Context, _ []byte) ([]byte, error) {
		return nil, errors.New("kaboom")
	}
	panicky := func(_ context.Context, _ []byte) ([]byte, error) {
		panic("worse")
	}
	cli, _ := startEcho(t, core.Options{Interface: transport.HPI}, ServerOptions{},
		map[string]Handler{"boom": boom, "panic": panicky})

	_, err := cli.Call(context.Background(), "boom", nil)
	var se *ServerError
	if !errors.As(err, &se) {
		t.Fatalf("err = %v (%T), want *ServerError", err, err)
	}
	if se.Method != "boom" || se.Message != "kaboom" {
		t.Fatalf("ServerError = %+v", se)
	}

	// A handler panic surfaces as an application error, and the worker
	// pool survives it.
	if _, err := cli.Call(context.Background(), "panic", nil); err == nil {
		t.Fatal("panic handler returned nil error")
	}
	if _, err := cli.Call(context.Background(), "echo", []byte("alive")); err != nil {
		t.Fatalf("call after panic: %v", err)
	}
}

func TestUnknownMethod(t *testing.T) {
	cli, _ := startEcho(t, core.Options{Interface: transport.HPI}, ServerOptions{}, nil)
	if _, err := cli.Call(context.Background(), "nope", nil); !errors.Is(err, ErrNoMethod) {
		t.Fatalf("err = %v, want ErrNoMethod", err)
	}
}

// TestGracefulShutdown: calls in flight when Shutdown begins complete
// with their replies; calls arriving during the drain are refused.
func TestGracefulShutdown(t *testing.T) {
	// Each source of calls: a served connection, whose calls the
	// server's own inbox threads take, and a served inbox, whose own
	// threads take them.
	for _, source := range sources {
		t.Run(source, func(t *testing.T) {
			started := make(chan struct{})
			release := make(chan struct{})
			slow := func(_ context.Context, req []byte) ([]byte, error) {
				close(started)
				<-release
				return req, nil
			}
			conn, peerConn := pair(t, core.Options{Interface: transport.HPI})
			srv := NewServer(ServerOptions{Workers: 2})
			srv.Handle("slow", slow)
			serveBy(t, srv, peerConn, source)
			cli := NewClient(conn)
			defer cli.Close()

			inflight := make(chan error, 1)
			var resp []byte
			go func() {
				var err error
				resp, err = cli.Call(context.Background(), "slow", []byte("drain-me"))
				inflight <- err
			}()
			<-started

			shutdownDone := make(chan struct{})
			go func() {
				srv.Shutdown()
				close(shutdownDone)
			}()

			// Shutdown must be draining, not done: the slow call still holds it.
			select {
			case <-shutdownDone:
				t.Fatal("Shutdown returned while a call was in flight")
			case <-time.After(50 * time.Millisecond):
			}

			// A new call during the drain is refused.
			ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
			defer cancel()
			if _, err := cli.Call(ctx, "slow", nil); !errors.Is(err, ErrShuttingDown) {
				t.Fatalf("call during drain: err = %v, want ErrShuttingDown", err)
			}

			close(release)
			if err := <-inflight; err != nil {
				t.Fatalf("in-flight call failed across shutdown: %v", err)
			}
			if string(resp) != "drain-me" {
				t.Fatalf("in-flight call response = %q", resp)
			}
			<-shutdownDone
		})
	}
}

// TestShutdownIdempotent: double Shutdown and Shutdown with queued work
// across thread models.
func TestShutdownIdempotent(t *testing.T) {
	for _, model := range []thread.Model{thread.KernelLevel, thread.UserLevel} {
		t.Run(model.String(), func(t *testing.T) {
			cli, srv := startEcho(t, core.Options{Interface: transport.HPI},
				ServerOptions{Workers: 2, Threads: model}, nil)
			if _, err := cli.Call(context.Background(), "echo", []byte("x")); err != nil {
				t.Fatal(err)
			}
			srv.Shutdown()
			srv.Shutdown()
			if _, err := cli.Call(context.Background(), "echo", nil); err == nil {
				t.Fatal("call after shutdown succeeded")
			}
		})
	}
}

// TestUserLevelDispatch runs the concurrency suite's core on the
// cooperative user-level scheduler: handlers execute run-to-block, but
// every call must still complete and match.
func TestUserLevelDispatch(t *testing.T) {
	cli, _ := startEcho(t, core.Options{Interface: transport.HPI},
		ServerOptions{Workers: 4, Threads: thread.UserLevel}, nil)
	var wg sync.WaitGroup
	errCh := make(chan error, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				req := []byte(fmt.Sprintf("ul-%d-%d", g, i))
				resp, err := cli.Call(context.Background(), "echo", req)
				if err != nil {
					errCh <- err
					return
				}
				if !bytes.Equal(resp, req) {
					errCh <- fmt.Errorf("got %q want %q", resp, req)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
}

// TestUserLevelServesConnAndInbox: a user-level server's workers wait
// for calls in a jacket (thread.Package.Block), so one serving a
// connection and an inbox at once completes calls from both. Without the
// jacket the first worker to run would hold the cooperative processor
// while it waited on its own source, and the other source's calls
// would starve.
func TestUserLevelServesConnAndInbox(t *testing.T) {
	srv := NewServer(ServerOptions{Workers: 2, Threads: thread.UserLevel})
	t.Cleanup(srv.Shutdown)
	srv.Handle("echo", func(_ context.Context, req []byte) ([]byte, error) { return req, nil })

	connSide, served := pair(t, core.Options{Interface: transport.HPI})
	srv.ServeConn(served)
	inboxSide, bound := pair(t, core.Options{Interface: transport.HPI, Runtime: core.RuntimeSharded})
	ib := core.NewInbox(0)
	if err := bound.BindInbox(ib); err != nil {
		t.Fatal(err)
	}
	srv.ServeInbox(ib)

	clients := map[string]*Client{"conn": NewClient(connSide), "inbox": NewClient(inboxSide)}
	errs := make(chan error, 2*len(clients))
	for source, cli := range clients {
		t.Cleanup(func() { cli.Close() })
		for i := 0; i < 2; i++ {
			go func() {
				ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
				defer cancel()
				req := []byte(fmt.Sprintf("%s-%d", source, i))
				resp, err := cli.Call(ctx, "echo", req)
				if err == nil && !bytes.Equal(resp, req) {
					err = fmt.Errorf("got %q", resp)
				}
				if err != nil {
					err = fmt.Errorf("call %d through the %s: %w", i, source, err)
				}
				errs <- err
			}()
		}
	}
	for range 2 * len(clients) {
		if err := <-errs; err != nil {
			t.Error(err)
		}
	}
}

// TestClientCloseFailsInFlight: closing the client (which closes the
// connection) fails parked calls with ErrClientClosed.
func TestClientCloseFailsInFlight(t *testing.T) {
	release := make(chan struct{})
	defer close(release)
	slow := func(_ context.Context, req []byte) ([]byte, error) {
		<-release
		return req, nil
	}
	cli, _ := startEcho(t, core.Options{Interface: transport.HPI}, ServerOptions{},
		map[string]Handler{"slow": slow})

	started := make(chan struct{})
	done := make(chan error, 1)
	go func() {
		close(started)
		_, err := cli.Call(context.Background(), "slow", nil)
		done <- err
	}()
	<-started
	time.Sleep(20 * time.Millisecond) // let the call reach the wire
	cli.Close()
	if err := <-done; !errors.Is(err, ErrClientClosed) {
		t.Fatalf("in-flight err = %v, want ErrClientClosed", err)
	}
	if _, err := cli.Call(context.Background(), "slow", nil); !errors.Is(err, ErrClientClosed) {
		t.Fatalf("post-close err = %v, want ErrClientClosed", err)
	}
}

// TestDeadConnDeregistered: a connection that died leaves the server's
// connection table at the next ServeConn, so a long-lived server serving
// client after client holds the live ones only, though no goroutine
// watches any connection.
func TestDeadConnDeregistered(t *testing.T) {
	nw := core.NewNetwork()
	t.Cleanup(nw.Close)
	sa, _ := nw.NewSystem("dead-a")
	sb, _ := nw.NewSystem("dead-b")
	srv := NewServer(ServerOptions{})
	defer srv.Shutdown()
	srv.Handle("echo", func(_ context.Context, req []byte) ([]byte, error) { return req, nil })

	for i := 0; i < 20; i++ {
		conn, err := sa.Connect("dead-b", core.Options{Interface: transport.HPI})
		if err != nil {
			t.Fatal(err)
		}
		peer, err := sb.Accept()
		if err != nil {
			t.Fatal(err)
		}
		srv.ServeConn(peer)
		srv.cmu.Lock()
		_, served := srv.conns[peer]
		n := len(srv.conns)
		srv.cmu.Unlock()
		if !served || n != 1 {
			t.Fatalf("client %d: the server tracks %d connections (the live one among them: %v), want only the live one", i, n, served)
		}

		cli := NewClient(conn)
		if _, err := cli.Call(context.Background(), "echo", []byte("x")); err != nil {
			t.Fatalf("client %d: %v", i, err)
		}
		cli.Close()
		select {
		case <-peer.Done():
		case <-time.After(2 * time.Second):
			t.Fatalf("client %d: the served end never saw its peer close", i)
		}
	}
}

// TestServeConnAfterShutdown: a connection offered to a stopped server
// is closed immediately rather than silently leaked — and Shutdown
// cannot hang on it.
func TestServeConnAfterShutdown(t *testing.T) {
	srv := NewServer(ServerOptions{})
	srv.Shutdown()

	conn, peerConn := pair(t, core.Options{Interface: transport.HPI})
	srv.ServeConn(peerConn)
	select {
	case <-peerConn.Done():
	case <-time.After(2 * time.Second):
		t.Fatal("connection offered after Shutdown was not closed")
	}
	conn.Close()
	srv.Shutdown() // must not hang
}

// TestConnectionStateHooks covers the core hooks the RPC layer rides
// on: Done and Err reflect teardown.
func TestConnectionStateHooks(t *testing.T) {
	conn, peer := pair(t, core.Options{Interface: transport.HPI})
	select {
	case <-conn.Done():
		t.Fatal("Done closed on a live connection")
	default:
	}
	if err := conn.Err(); err != nil {
		t.Fatalf("Err on live connection = %v", err)
	}
	conn.Close()
	peer.Close()
	select {
	case <-conn.Done():
	case <-time.After(time.Second):
		t.Fatal("Done not closed after Close")
	}
	if !errors.Is(conn.Err(), core.ErrConnClosed) {
		t.Fatalf("Err after close = %v", conn.Err())
	}
}

// TestFastPathPeerTeardown: fast-path connections have no threads to
// observe transport death, so the inline procedures propagate it; the
// RPC client must report the connection error, not a local close.
func TestFastPathPeerTeardown(t *testing.T) {
	conn, peerConn := pair(t, core.Options{Interface: transport.HPI, FastPath: true})
	cli := NewClient(conn)
	defer cli.Close()

	peerConn.Close()
	select {
	case <-conn.Done():
	case <-time.After(2 * time.Second):
		t.Fatal("fast-path connection did not observe peer teardown")
	}
	if _, err := cli.Call(context.Background(), "echo", nil); !errors.Is(err, core.ErrConnClosed) {
		t.Fatalf("call after peer teardown: err = %v, want ErrConnClosed", err)
	}
}

// TestMalformedFramesIgnored injects garbage and truncated RPC frames
// straight onto the connection: the server must drop them (no panic, no
// reply) and keep serving well-formed calls.
func TestMalformedFramesIgnored(t *testing.T) {
	conn, peerConn := pair(t, core.Options{Interface: transport.HPI})
	srv := NewServer(ServerOptions{})
	srv.Handle("echo", func(_ context.Context, req []byte) ([]byte, error) { return req, nil })
	srv.ServeConn(peerConn)
	defer srv.Shutdown()

	// A frame whose deadline field would overflow the duration
	// conversion: kind=1, id, 4-byte method "echo", deadline-µs with
	// the top bit set, empty payload. Must be dropped, not dispatched
	// deadline-free.
	overflow := []byte{
		0, 0, 0, 1, // kind = call
		0, 0, 0, 0, 0, 0, 0, 1, // id
		0, 0, 0, 4, 'e', 'c', 'h', 'o', // method
		0x80, 0, 0, 0, 0, 0, 0, 0, // deadline-µs = 1<<63
		0, 0, 0, 0, // payload: empty
	}
	for _, raw := range [][]byte{
		{},                          // empty
		{0xFF},                      // short of a kind word
		{0, 0, 0, 1},                // call kind, then nothing
		{0, 0, 0, 1, 0, 0, 0, 0},    // call kind, truncated id
		{0, 0, 0, 9, 1, 2, 3, 4},    // unknown kind
		overflow,                    // deadline overflow
		bytes.Repeat([]byte{7}, 64), // noise
	} {
		if err := conn.Send(raw); err != nil {
			t.Fatal(err)
		}
	}

	// A well-formed call still round-trips after the garbage.
	cli := NewClient(conn)
	defer cli.Close()
	resp, err := cli.Call(context.Background(), "echo", []byte("still here"))
	if err != nil {
		t.Fatal(err)
	}
	if string(resp) != "still here" {
		t.Fatalf("resp = %q", resp)
	}
}

// TestLargeConcurrentMix stresses mixed sizes over SCI with several
// workers — the closest test to real request traffic.
func TestLargeConcurrentMix(t *testing.T) {
	cli, _ := startEcho(t, core.Options{Interface: transport.SCI}, ServerOptions{Workers: 8}, nil)
	sizes := []int{1, 100, 4096, 20000}
	var wg sync.WaitGroup
	errCh := make(chan error, len(sizes))
	for _, size := range sizes {
		wg.Add(1)
		go func(size int) {
			defer wg.Done()
			req := bytes.Repeat([]byte{byte(size)}, size)
			for i := 0; i < 20; i++ {
				resp, err := cli.Call(context.Background(), "echo", req)
				if err != nil {
					errCh <- fmt.Errorf("size %d: %w", size, err)
					return
				}
				if !bytes.Equal(resp, req) {
					errCh <- fmt.Errorf("size %d: mismatch", size)
					return
				}
			}
		}(size)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
}
