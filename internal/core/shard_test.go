package core

import (
	"bytes"
	"errors"
	"fmt"
	"runtime"
	"testing"
	"time"

	"ncs/internal/errctl"
	"ncs/internal/flowctl"
	"ncs/internal/transport"
)

// TestShardedSendRecvAllInterfaces runs the basic duplex exchange over
// every interface with the sharded runtime on both ends: pollable HPI,
// pumped SCI and ACI.
func TestShardedSendRecvAllInterfaces(t *testing.T) {
	for _, kind := range []transport.Kind{transport.HPI, transport.SCI, transport.ACI} {
		t.Run(kind.String(), func(t *testing.T) {
			conn, peer, cleanup := newPairT(t, Options{
				Interface: kind,
				Runtime:   RuntimeSharded,
				SDUSize:   512,
			})
			defer cleanup()

			msg := bytes.Repeat([]byte("shard!"), 700) // multi-SDU
			errCh := make(chan error, 1)
			go func() { errCh <- conn.Send(msg) }()
			got, err := peer.RecvTimeout(5 * time.Second)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, msg) {
				t.Fatalf("got %d bytes, want %d", len(got), len(msg))
			}
			if err := <-errCh; err != nil {
				t.Fatal(err)
			}

			// Reverse direction over the same connection.
			go func() { errCh <- peer.Send([]byte("reply")) }()
			back, err := conn.RecvTimeout(5 * time.Second)
			if err != nil || string(back) != "reply" {
				t.Fatalf("reverse: %q, %v", back, err)
			}
			if err := <-errCh; err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestShardedErrorControl drives the full reliable protocol — selective
// repeat plus credit flow control, so acknowledgments and credits cross
// the shard's control path — through a sharded connection.
func TestShardedErrorControl(t *testing.T) {
	conn, peer, cleanup := newPairT(t, Options{
		Interface:    transport.HPI,
		Runtime:      RuntimeSharded,
		ErrorControl: errctl.SelectiveRepeat,
		FlowControl:  flowctl.Credit,
		SDUSize:      256,
		AckTimeout:   50 * time.Millisecond,
	})
	defer cleanup()

	for i := 0; i < 8; i++ {
		msg := bytes.Repeat([]byte{byte('a' + i)}, 300+i*700)
		errCh := make(chan error, 1)
		go func() { errCh <- conn.Send(msg) }()
		got, err := peer.RecvTimeout(5 * time.Second)
		if err != nil {
			t.Fatalf("message %d: %v", i, err)
		}
		if !bytes.Equal(got, msg) {
			t.Fatalf("message %d corrupted: %d bytes, want %d", i, len(got), len(msg))
		}
		if err := <-errCh; err != nil {
			t.Fatalf("message %d send: %v", i, err)
		}
	}
}

// TestShardedGoroutinesStayFlat is the runtime's reason to exist: many
// open sharded HPI connections must cost O(shards) goroutines, not
// O(connections).
func TestShardedGoroutinesStayFlat(t *testing.T) {
	const conns = 256
	base := runtime.NumGoroutine()

	nw := NewNetwork()
	defer nw.Close()
	a, err := nw.NewSystem("flat-a")
	if err != nil {
		t.Fatal(err)
	}
	b, err := nw.NewSystem("flat-b")
	if err != nil {
		t.Fatal(err)
	}
	accepted := make(chan *Connection, conns)
	go func() {
		for i := 0; i < conns; i++ {
			c, err := b.Accept()
			if err != nil {
				return
			}
			accepted <- c
		}
	}()
	opts := Options{Interface: transport.HPI, Runtime: RuntimeSharded}
	for i := 0; i < conns; i++ {
		c, err := a.Connect("flat-b", opts)
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
	}
	for i := 0; i < conns; i++ {
		select {
		case c := <-accepted:
			defer c.Close()
		case <-time.After(5 * time.Second):
			t.Fatalf("only %d connections accepted", i)
		}
	}

	// Two systems each run at most GOMAXPROCS shards plus a master
	// thread; everything beyond that slack is a per-connection
	// goroutine that should not exist.
	limit := base + 2*runtime.GOMAXPROCS(0) + 8
	if n := runtime.NumGoroutine(); n > limit {
		t.Fatalf("%d goroutines for %d sharded connections (baseline %d, limit %d): O(conns), want O(shards)",
			n, conns, base, limit)
	}
}

// TestInboxFanIn binds many sharded connections to one Inbox and
// serves them with a single worker — the accept-side pattern the
// sharded runtime exists for.
func TestInboxFanIn(t *testing.T) {
	for _, rt := range []Runtime{RuntimeThreaded, RuntimeSharded} {
		t.Run(rt.String(), func(t *testing.T) {
			const conns = 16
			nw := NewNetwork()
			defer nw.Close()
			a, _ := nw.NewSystem("fan-a-" + rt.String())
			b, _ := nw.NewSystem("fan-b-" + rt.String())

			ib := NewInbox(0)
			defer ib.Close()

			ready := make(chan struct{})
			go func() {
				for i := 0; i < conns; i++ {
					c, err := b.Accept()
					if err != nil {
						return
					}
					if err := c.BindInbox(ib); err != nil {
						t.Error(err)
					}
				}
				close(ready)
			}()

			clients := make([]*Connection, conns)
			opts := Options{Interface: transport.HPI, Runtime: rt}
			for i := range clients {
				c, err := a.Connect("fan-b-"+rt.String(), opts)
				if err != nil {
					t.Fatal(err)
				}
				clients[i] = c
			}
			<-ready

			// One echo worker serves every connection.
			go func() {
				for {
					im, err := ib.Recv()
					if err != nil {
						return
					}
					if err := im.Conn.Send(im.Msg.Data); err != nil {
						return
					}
				}
			}()

			errCh := make(chan error, conns)
			for i, c := range clients {
				go func(i int, c *Connection) {
					msg := []byte(fmt.Sprintf("fan-in %d", i))
					if err := c.Send(msg); err != nil {
						errCh <- err
						return
					}
					got, err := c.RecvTimeout(5 * time.Second)
					if err != nil {
						errCh <- fmt.Errorf("conn %d: %w", i, err)
						return
					}
					if !bytes.Equal(got, msg) {
						errCh <- fmt.Errorf("conn %d: echo %q, want %q", i, got, msg)
						return
					}
					errCh <- nil
				}(i, c)
			}
			for range clients {
				if err := <-errCh; err != nil {
					t.Fatal(err)
				}
			}
		})
	}
}

// TestShardedDeliveryBackpressure floods a sharded connection far past
// its delivery queue depth before the consumer reads anything: the
// overflow must park on the stall list (without wedging the shard) and
// drain, in order, once the consumer starts.
func TestShardedDeliveryBackpressure(t *testing.T) {
	conn, peer, cleanup := newPairT(t, Options{
		Interface: transport.HPI,
		Runtime:   RuntimeSharded,
	})
	defer cleanup()

	const msgs = deliveredQueueDepth + 200
	errCh := make(chan error, 1)
	go func() {
		for i := 0; i < msgs; i++ {
			if err := conn.Send([]byte{byte(i), byte(i >> 8)}); err != nil {
				errCh <- err
				return
			}
		}
		errCh <- nil
	}()
	if err := <-errCh; err != nil {
		t.Fatal(err)
	}

	// The shard must still be alive for other work while this
	// connection is stalled: a second connection's traffic flows.
	c2, p2, cleanup2 := newPairT(t, Options{Interface: transport.HPI, Runtime: RuntimeSharded})
	defer cleanup2()
	go c2.Send([]byte("unstalled"))
	if m, err := p2.RecvTimeout(5 * time.Second); err != nil || string(m) != "unstalled" {
		t.Fatalf("second connection blocked by first's backpressure: %q, %v", m, err)
	}

	for i := 0; i < msgs; i++ {
		m, err := peer.RecvTimeout(5 * time.Second)
		if err != nil {
			t.Fatalf("message %d/%d: %v", i+1, msgs, err)
		}
		if got := int(m[0]) | int(m[1])<<8; got != i {
			t.Fatalf("message %d out of order (got %d)", i, got)
		}
	}
}

// TestShardStats checks the pool's counters move and batching occurs.
func TestShardStats(t *testing.T) {
	nw := NewNetwork()
	defer nw.Close()
	a, _ := nw.NewSystem("stats-a")
	b, _ := nw.NewSystem("stats-b")
	if err := a.SetShards(2); err != nil {
		t.Fatal(err)
	}
	conn, err := a.Connect("stats-b", Options{Interface: transport.HPI, Runtime: RuntimeSharded, SDUSize: 256})
	if err != nil {
		t.Fatal(err)
	}
	peer, err := b.Accept()
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		for {
			if _, err := peer.Recv(); err != nil {
				return
			}
		}
	}()
	if err := conn.Send(bytes.Repeat([]byte("x"), 8*256)); err != nil {
		t.Fatal(err)
	}

	st := a.Telemetry().Shards
	if st.Shards != 2 {
		t.Fatalf("Shards = %d, want 2", st.Shards)
	}
	if st.Conns != 1 {
		t.Fatalf("Conns = %d, want 1", st.Conns)
	}
	if st.Batches == 0 || st.BatchedPackets < 8 {
		t.Fatalf("batching counters did not move: %+v", st)
	}
	if err := a.SetShards(4); err == nil {
		t.Fatal("SetShards accepted after the pool started")
	}
}

// TestShardedHeartbeat covers both heartbeat outcomes on the sharded
// runtime: a silent peer is declared unreachable, and a healthy idle
// connection stays up (pongs flow through the shard loop).
func TestShardedHeartbeat(t *testing.T) {
	t.Run("silent-peer", func(t *testing.T) {
		nw := NewNetwork()
		defer nw.Close()
		sys, err := nw.NewSystem("hb-sharded")
		if err != nil {
			t.Fatal(err)
		}
		data, silentData := transport.HPIPair()
		ctrl, silentCtrl := transport.HPIPair()
		defer silentData.Close()
		defer silentCtrl.Close()

		opts := Options{
			Interface: transport.HPI,
			Runtime:   RuntimeSharded,
			Heartbeat: 20 * time.Millisecond,
		}.withDefaults()
		conn := newConnection(sys, "silent-peer", 1, opts, data, ctrl, true)
		defer conn.Close()

		_, err = conn.RecvTimeout(5 * time.Second)
		if !errors.Is(err, ErrPeerUnreachable) {
			t.Fatalf("err = %v, want ErrPeerUnreachable", err)
		}
	})
	t.Run("healthy-idle", func(t *testing.T) {
		conn, peer, cleanup := newPairT(t, Options{
			Interface: transport.HPI,
			Runtime:   RuntimeSharded,
			Heartbeat: 15 * time.Millisecond,
		})
		defer cleanup()
		time.Sleep(150 * time.Millisecond)
		errCh := make(chan error, 1)
		go func() { errCh <- conn.Send([]byte("still alive")) }()
		m, err := peer.RecvTimeout(2 * time.Second)
		if err != nil || string(m) != "still alive" {
			t.Fatalf("recv after idle: %q, %v", m, err)
		}
		if err := <-errCh; err != nil {
			t.Fatal(err)
		}
		if conn.Stats().ControlReceived == 0 {
			t.Fatal("no pongs observed during idle period")
		}
	})
}

// TestShardedInstrumentedSend checks the Table I trace stamps survive
// the shard path (queued → dequeued → transmitted → returned).
func TestShardedInstrumentedSend(t *testing.T) {
	conn, peer, cleanup := newPairT(t, Options{
		Interface: transport.SCI,
		Runtime:   RuntimeSharded,
	})
	defer cleanup()
	go func() {
		for {
			if _, err := peer.Recv(); err != nil {
				return
			}
		}
	}()
	tr, err := conn.SendInstrumented([]byte("trace me"))
	if err != nil {
		t.Fatal(err)
	}
	if tr.SessionOverhead() < 0 || tr.DataTransfer() < 0 {
		t.Fatalf("negative trace stages: %+v", tr)
	}
}
