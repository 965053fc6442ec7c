package core

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"ncs/internal/buf"
	"ncs/internal/errctl"
	"ncs/internal/flowctl"
	"ncs/internal/transport"
)

// streamRuntimes enumerates the three runtime architectures a stream
// must behave identically on.
func streamRuntimes() map[string]Options {
	return map[string]Options{
		"threaded": {Interface: transport.HPI},
		"sharded":  {Interface: transport.HPI, Runtime: RuntimeSharded},
		"fastpath": {Interface: transport.HPI, FastPath: true},
	}
}

func TestStreamEchoAllRuntimes(t *testing.T) {
	for name, opts := range streamRuntimes() {
		t.Run(name, func(t *testing.T) {
			conn, peer, cleanup := newPairT(t, opts)
			defer cleanup()

			st, err := conn.OpenStream()
			if err != nil {
				t.Fatal(err)
			}
			if st.ID()%2 != 1 {
				t.Fatalf("dialer-opened stream id = %d, want odd", st.ID())
			}

			done := make(chan error, 1)
			go func() {
				ps, err := peer.AcceptStreamTimeout(5 * time.Second)
				if err != nil {
					done <- err
					return
				}
				for {
					m, err := ps.Recv()
					if err != nil {
						done <- err
						return
					}
					if string(m) == "done" {
						done <- nil
						return
					}
					if err := ps.Send(append([]byte("echo:"), m...)); err != nil {
						done <- err
						return
					}
				}
			}()

			// Sizes spanning one SDU through multi-SDU reassembly.
			for _, size := range []int{1, 100, 4096, 5000, 70000} {
				msg := bytes.Repeat([]byte{byte(size % 251)}, size)
				if err := st.Send(msg); err != nil {
					t.Fatalf("stream send %d: %v", size, err)
				}
				got, err := st.RecvTimeout(5 * time.Second)
				if err != nil {
					t.Fatalf("stream recv %d: %v", size, err)
				}
				if len(got) != size+5 || !bytes.Equal(got[5:], msg) {
					t.Fatalf("size %d: echo mismatch (got %d bytes)", size, len(got))
				}
			}
			if err := st.Send([]byte("done")); err != nil {
				t.Fatal(err)
			}
			if err := <-done; err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestStreamIsolation is the head-of-line-blocking contract: a stream
// nobody consumes exhausts only its own credit window; its siblings —
// another stream and the connection's default channel — keep flowing.
func TestStreamIsolation(t *testing.T) {
	for name, opts := range streamRuntimes() {
		t.Run(name, func(t *testing.T) {
			opts.FlowControl = flowctl.Credit
			opts.FlowConfig = flowctl.Config{InitialCredits: 4, MaxCredits: 16}
			conn, peer, cleanup := newPairT(t, opts)
			defer cleanup()

			stale, err := conn.OpenStream()
			if err != nil {
				t.Fatal(err)
			}
			live, err := conn.OpenStream()
			if err != nil {
				t.Fatal(err)
			}

			// Fill the unconsumed stream up to its initial window (its
			// messages are single-SDU, so each costs one credit). Nobody
			// ever reads it.
			for i := 0; i < 4; i++ {
				if err := stale.Send([]byte("stuck")); err != nil {
					t.Fatalf("stale send %d: %v", i, err)
				}
			}

			// The peer never accepts `stale`; it consumes only `live` and
			// stream 0. Both must flow indefinitely past the stale
			// stream's exhausted window.
			peerErr := make(chan error, 1)
			go func() {
				ls, err := peer.AcceptStreamTimeout(5 * time.Second)
				if err != nil {
					peerErr <- err
					return
				}
				for ls.ID() != live.ID() {
					// The stale stream may be accepted first; skip it
					// without ever receiving from it.
					ls, err = peer.AcceptStreamTimeout(5 * time.Second)
					if err != nil {
						peerErr <- err
						return
					}
				}
				for i := 0; i < 32; i++ {
					if _, err := ls.RecvTimeout(5 * time.Second); err != nil {
						peerErr <- fmt.Errorf("live stream recv %d: %w", i, err)
						return
					}
					if _, err := peer.RecvTimeout(5 * time.Second); err != nil {
						peerErr <- fmt.Errorf("stream-0 recv %d: %w", i, err)
						return
					}
				}
				peerErr <- nil
			}()

			msg := bytes.Repeat([]byte("x"), 2000)
			for i := 0; i < 32; i++ {
				if err := live.Send(msg); err != nil {
					t.Fatalf("live stream send %d: %v", i, err)
				}
				if err := conn.Send(msg); err != nil {
					t.Fatalf("stream-0 send %d: %v", i, err)
				}
			}
			if err := <-peerErr; err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestStreamConcurrentSenders drives several streams from independent
// goroutines at once: per-stream ordering must hold even though the
// connection interleaves their SDUs.
func TestStreamConcurrentSenders(t *testing.T) {
	for _, name := range []string{"threaded", "sharded"} {
		opts := streamRuntimes()[name]
		t.Run(name, func(t *testing.T) {
			conn, peer, cleanup := newPairT(t, opts)
			defer cleanup()

			const streams, msgs = 3, 16
			var wg sync.WaitGroup
			sendErr := make(chan error, streams)
			for i := 0; i < streams; i++ {
				st, err := conn.OpenStream()
				if err != nil {
					t.Fatal(err)
				}
				wg.Add(1)
				go func(st *Stream, tag int) {
					defer wg.Done()
					for n := 0; n < msgs; n++ {
						msg := bytes.Repeat([]byte{byte(tag)}, 1000*(n%5+1))
						msg = append(msg, byte(n))
						if err := st.Send(msg); err != nil {
							sendErr <- err
							return
						}
					}
				}(st, i)
			}

			recvErr := make(chan error, streams)
			for i := 0; i < streams; i++ {
				ps, err := peer.AcceptStreamTimeout(5 * time.Second)
				if err != nil {
					t.Fatal(err)
				}
				go func(ps *Stream) {
					for n := 0; n < msgs; n++ {
						m, err := ps.RecvTimeout(10 * time.Second)
						if err != nil {
							recvErr <- fmt.Errorf("stream %d msg %d: %w", ps.ID(), n, err)
							return
						}
						if int(m[len(m)-1]) != n {
							recvErr <- fmt.Errorf("stream %d: got seq %d, want %d (ordering broken)", ps.ID(), m[len(m)-1], n)
							return
						}
					}
					recvErr <- nil
				}(ps)
			}
			for i := 0; i < streams; i++ {
				if err := <-recvErr; err != nil {
					t.Fatal(err)
				}
			}
			wg.Wait()
			select {
			case err := <-sendErr:
				t.Fatal(err)
			default:
			}
		})
	}
}

// TestStreamClose: closing a stream surfaces ErrStreamClosed to the
// local sender immediately and to the peer's receiver once drained.
func TestStreamClose(t *testing.T) {
	for _, name := range []string{"threaded", "sharded"} {
		opts := streamRuntimes()[name]
		t.Run(name, func(t *testing.T) {
			conn, peer, cleanup := newPairT(t, opts)
			defer cleanup()

			st, err := conn.OpenStream()
			if err != nil {
				t.Fatal(err)
			}
			if err := st.Send([]byte("before close")); err != nil {
				t.Fatal(err)
			}
			ps, err := peer.AcceptStreamTimeout(5 * time.Second)
			if err != nil {
				t.Fatal(err)
			}
			// The close rides the control connection and may overtake data
			// still queued on the data connection (an unreliable Send
			// returns at hand-off): let the message land first.
			awaitCond(t, "pre-close message never arrived", func() bool { return peer.Stats().MessagesReceived == 1 })
			if err := st.Close(); err != nil {
				t.Fatal(err)
			}
			if err := st.Send([]byte("after")); !errors.Is(err, ErrStreamClosed) {
				t.Fatalf("send on closed stream: err = %v, want ErrStreamClosed", err)
			}

			// The peer drains the pre-close message, then observes close.
			m, err := ps.RecvTimeout(5 * time.Second)
			if err != nil {
				t.Fatalf("pre-close message lost: %v", err)
			}
			if string(m) != "before close" {
				t.Fatalf("got %q", m)
			}
			deadline := time.Now().Add(5 * time.Second)
			for {
				_, err = ps.RecvTimeout(100 * time.Millisecond)
				if errors.Is(err, ErrStreamClosed) {
					break
				}
				if time.Now().After(deadline) {
					t.Fatalf("peer receiver never observed close (last err %v)", err)
				}
			}
			// The peer's sender stops too (the close travelled).
			if err := ps.Send([]byte("x")); !errors.Is(err, ErrStreamClosed) {
				t.Fatalf("peer send after remote close: err = %v, want ErrStreamClosed", err)
			}
		})
	}
}

// TestStreamUnconsumedReleasedAtConnClose: messages parked on a stream
// nobody reads — including incomplete reassembly — must release their
// pooled buffers when the connection closes. The package TestMain's
// quiescence audit enforces the global invariant; this test pins the
// per-connection delta.
func TestStreamUnconsumedReleasedAtConnClose(t *testing.T) {
	for name, opts := range streamRuntimes() {
		t.Run(name, func(t *testing.T) {
			before := buf.Outstanding()
			conn, _, cleanup := newPairT(t, opts)

			st, err := conn.OpenStream()
			if err != nil {
				t.Fatal(err)
			}
			// Multi-SDU messages so the peer's reassembly retains pooled
			// segment buffers, parked until... never.
			msg := bytes.Repeat([]byte("retain"), 2000)
			for i := 0; i < 3; i++ {
				if err := st.Send(msg); err != nil {
					t.Fatalf("send %d: %v", i, err)
				}
			}
			time.Sleep(100 * time.Millisecond)
			cleanup()

			deadline := time.Now().Add(5 * time.Second)
			for buf.Outstanding() != before {
				if time.Now().After(deadline) {
					t.Fatalf("pooled buffers leaked by unconsumed stream: %d outstanding, baseline %d",
						buf.Outstanding(), before)
				}
				time.Sleep(10 * time.Millisecond)
			}
		})
	}
}

// TestStreamFrameForUnknownConnDefaults: a legacy peer that never
// stamps StreamID produces frames for stream 0 — the existing
// Send/Recv path — by construction. Pin that a stream-0 exchange works
// when the connection also carries streams (no cross-contamination of
// credit spaces).
func TestStreamZeroUnaffected(t *testing.T) {
	opts := Options{Interface: transport.HPI, FlowControl: flowctl.Credit,
		FlowConfig: flowctl.Config{InitialCredits: 4, MaxCredits: 16},
		SDUSize:    512}
	conn, peer, cleanup := newPairT(t, opts)
	defer cleanup()

	st, err := conn.OpenStream()
	if err != nil {
		t.Fatal(err)
	}
	ps, err := peer.AcceptStreamTimeout(5 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	// Interleave stream and stream-0 traffic; both multi-SDU so both
	// credit engines cycle through grants.
	msg := bytes.Repeat([]byte("i"), 3000)
	for i := 0; i < 8; i++ {
		if err := st.Send(msg); err != nil {
			t.Fatal(err)
		}
		if err := conn.Send(msg); err != nil {
			t.Fatal(err)
		}
		if _, err := ps.RecvTimeout(5 * time.Second); err != nil {
			t.Fatalf("stream recv %d: %v", i, err)
		}
		if _, err := peer.RecvTimeout(5 * time.Second); err != nil {
			t.Fatalf("stream-0 recv %d: %v", i, err)
		}
	}
}

// TestStreamErrCtlModes runs a stream exchange under each error-control
// algorithm: stream reliability state is per-stream (sessions live in
// the stream's own table), and unreliable streams deliver with loss
// metadata exactly like stream 0.
func TestStreamErrCtlModes(t *testing.T) {
	for _, ec := range []errctl.Algorithm{errctl.None, errctl.SelectiveRepeat, errctl.GoBackN} {
		t.Run(ec.String(), func(t *testing.T) {
			conn, peer, cleanup := newPairT(t, Options{Interface: transport.HPI, ErrorControl: ec})
			defer cleanup()

			st, err := conn.OpenStream()
			if err != nil {
				t.Fatal(err)
			}
			ps, err := peer.AcceptStreamTimeout(5 * time.Second)
			if err != nil {
				t.Fatal(err)
			}
			msg := bytes.Repeat([]byte("e"), 9000)
			for i := 0; i < 4; i++ {
				if err := st.Send(msg); err != nil {
					t.Fatal(err)
				}
				m, err := ps.RecvMessageTimeout(5 * time.Second)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(m.Data, msg) || m.Lost != 0 {
					t.Fatalf("round %d: %d bytes (want %d), lost %d", i, len(m.Data), len(msg), m.Lost)
				}
				m.Release()
			}
		})
	}
}
