package core

import (
	"bytes"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ncs/internal/buf"
	"ncs/internal/errctl"
	"ncs/internal/flowctl"
	"ncs/internal/platform"
	"ncs/internal/telemetry"
	"ncs/internal/transport"
)

// TestShardedSendRecvAllInterfaces runs the basic duplex exchange over
// every interface with the sharded runtime on both ends: HPI, SCI and
// ACI, each read through its notify hook.
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
// open sharded connections must cost O(shards) goroutines, not
// O(connections), on every transport — each is read through its notify
// hook, so core parks no goroutine per connection, a taxed platform and
// ATM's cell reassembly included. SCI's socket readers, one per wire
// end, are the transport's own, and counted apart.
func TestShardedGoroutinesStayFlat(t *testing.T) {
	plat := platform.RS6000
	for _, cell := range []struct {
		name  string
		opts  Options
		conns int
	}{
		{"HPI", Options{Interface: transport.HPI}, 256},
		{"HPI-platform", Options{Interface: transport.HPI, Platform: &plat, PeerPlatform: &plat}, 256},
		{"ACI", Options{Interface: transport.ACI}, 256},
		{"SCI", Options{Interface: transport.SCI}, 32},
	} {
		t.Run(cell.name, func(t *testing.T) {
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
			accepted := make(chan *Connection, cell.conns)
			go func() {
				for i := 0; i < cell.conns; i++ {
					c, err := b.Accept()
					if err != nil {
						return
					}
					accepted <- c
				}
			}()
			opts := cell.opts
			opts.Runtime = RuntimeSharded
			for i := 0; i < cell.conns; i++ {
				c, err := a.Connect("flat-b", opts)
				if err != nil {
					t.Fatal(err)
				}
				defer c.Close()
			}
			for i := 0; i < cell.conns; i++ {
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
			readers := goroutinesIn("transport.(*sciConn).readLoop")
			if most := 4 * cell.conns; readers > most {
				t.Fatalf("%d SCI socket readers for %d connections, want at most one per wire end (%d)", readers, cell.conns, most)
			}
			limit := base + 2*runtime.GOMAXPROCS(0) + 8
			if n := runtime.NumGoroutine() - readers; n > limit {
				t.Fatalf("%d goroutines besides %d socket readers for %d sharded connections (baseline %d, limit %d): O(conns), want O(shards)",
					n, readers, cell.conns, base, limit)
			}
		})
	}
}

// goroutinesIn counts the goroutines whose stack runs through fn.
func goroutinesIn(fn string) int {
	stacks := make([]byte, 1<<20)
	for {
		n := runtime.Stack(stacks, true)
		if n < len(stacks) {
			return bytes.Count(stacks[:n], []byte(fn+"("))
		}
		stacks = make([]byte, 2*len(stacks))
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
					err = im.Conn.Send(im.Msg.Data)
					im.Msg.Release()
					if err != nil {
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

// TestSlowConsumerFanInBudget is the sender-OOM scenario credit flow
// control exists to prevent: a wide sharded fan-in of producers, error
// control off, into one Inbox nobody reads. Admission credits are the
// only thing between the producers and unbounded buffering, so once
// every producer is blocked in admission the pooled-buffer population
// must sit under a fixed per-connection budget — and draining the inbox
// must then let every message through.
func TestSlowConsumerFanInBudget(t *testing.T) {
	const (
		conns = 256
		// budgetPerConn covers the credit window (every admitted SDU
		// stages one pooled buffer end to end) plus the shard send-queue
		// and transport-pipe depths a connection can fill while cut off;
		// budgetSlack the process-wide constant population (control
		// packets in flight, per-shard staging).
		budgetPerConn = 192
		budgetSlack   = 4096
		budget        = conns*budgetPerConn + budgetSlack
	)
	buffersBefore := buf.Outstanding()
	waitsBefore := telemetry.Capture().Counters["flowctl.credit.wait_total"]
	parkedBefore := mParkedConns.Value()

	var (
		stop      atomic.Bool
		sent      atomic.Int64
		producers sync.WaitGroup
	)
	nw := NewNetwork()
	ib := NewInbox(2 * conns)
	defer func() {
		// On a failure path producers are still blocked in Send: closing
		// the network releases them before the test returns.
		stop.Store(true)
		ib.Close()
		nw.Close()
		producers.Wait()
	}()
	a, _ := nw.NewSystem("budget-a")
	b, _ := nw.NewSystem("budget-b")
	bound := make(chan error, 1)
	go func() {
		for i := 0; i < conns; i++ {
			c, err := b.Accept()
			if err == nil {
				err = c.BindInbox(ib)
			}
			if err != nil {
				bound <- err
				return
			}
		}
		bound <- nil
	}()
	opts := Options{
		Interface:   transport.HPI,
		Runtime:     RuntimeSharded,
		FlowControl: flowctl.Credit,
		FlowConfig:  flowctl.Config{InitialCredits: 8, MaxCredits: 32},
		SDUSize:     512,
	}
	clients := make([]*Connection, conns)
	for i := range clients {
		c, err := a.Connect("budget-b", opts)
		if err != nil {
			t.Fatal(err)
		}
		clients[i] = c
	}
	if err := <-bound; err != nil {
		t.Fatal(err)
	}

	msg := make([]byte, 512)
	for _, c := range clients {
		producers.Add(1)
		go func(c *Connection) {
			defer producers.Done()
			for !stop.Load() {
				if err := c.Send(msg); err != nil {
					if !stop.Load() {
						t.Error(err)
					}
					return
				}
				sent.Add(1)
			}
		}(c)
	}

	// Every producer blocked in admission: its grants are spent, it has
	// entered an admission wait, and the peer, behind the unread inbox,
	// withholds every grant after.
	creditWaits := func() int64 {
		return telemetry.Capture().Counters["flowctl.credit.wait_total"] - waitsBefore
	}
	allBlocked := func() bool {
		for _, c := range clients {
			if st, ok := c.FlowStats(); !ok || st.Available() > 0 {
				return false
			}
		}
		return mParkedConns.Value()-parkedBefore == conns && creditWaits() >= conns
	}
	deadline := time.Now().Add(30 * time.Second)
	for !allBlocked() {
		if n := buf.Outstanding() - buffersBefore; n > budget {
			t.Fatalf("%d pooled buffers outstanding with producers still being admitted (budget %d)", n, budget)
		}
		if time.Now().After(deadline) {
			t.Fatalf("producers never all blocked in admission (%d messages sent, %d credit waits, %d of %d withholding behind the inbox)",
				sent.Load(), creditWaits(), mParkedConns.Value()-parkedBefore, conns)
		}
		time.Sleep(time.Millisecond)
	}
	held := buf.Outstanding() - buffersBefore
	if held <= 0 || held > budget {
		t.Fatalf("%d pooled buffers outstanding behind an unread inbox, want (0, %d]", held, budget)
	}
	t.Logf("%d conns blocked: %d buffers outstanding (%.1f/conn, budget %d), %d messages admitted",
		conns, held, float64(held)/conns, budget, sent.Load())

	// Drain: the blocked sends complete, and everything sent arrives.
	stop.Store(true)
	var received atomic.Int64
	go func() {
		for {
			im, err := ib.Recv()
			if err != nil {
				return // ib.Close, deferred above
			}
			im.Msg.Release()
			received.Add(1)
		}
	}()
	drained := make(chan struct{})
	go func() { producers.Wait(); close(drained) }()
	select {
	case <-drained:
	case <-time.After(30 * time.Second):
		t.Fatalf("producers still blocked with the inbox draining (%d of %d received)", received.Load(), sent.Load())
	}
	for deadline := time.Now().Add(30 * time.Second); received.Load() < sent.Load(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("drain stalled at %d of %d messages", received.Load(), sent.Load())
		}
	}
}

// TestShardedDeliveryBackpressure floods a sharded connection far past
// its delivery queue depth before the consumer reads anything: the lane
// withholds its peer's credit at depth (without wedging the shard), and
// the flood drains, in order, once the consumer starts.
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
	awaitCond(t, "the lane never withheld its grant", func() bool { return withheld(peer) })

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
	if err := <-errCh; err != nil {
		t.Fatal(err)
	}
}

// TestShardStats checks the pool's counters move and batching occurs.
// Batch depth has one count, core.send.coalesce_depth: a write of one
// packet lands in its bucket 1, so what the other buckets hold are the
// vectored writes.
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
	before := telemetry.Capture().Histograms["core.send.coalesce_depth"]
	if err := conn.Send(bytes.Repeat([]byte("x"), 8*256)); err != nil {
		t.Fatal(err)
	}

	tel := a.Telemetry()
	st, depth := tel.Shards, tel.Metrics.Histograms["core.send.coalesce_depth"]
	if st.Shards != 2 {
		t.Fatalf("Shards = %d, want 2", st.Shards)
	}
	if st.Conns != 1 {
		t.Fatalf("Conns = %d, want 1", st.Conns)
	}
	batches := depth.Count - before.Count - (depth.Buckets[0] - before.Buckets[0]) - (depth.Buckets[1] - before.Buckets[1])
	if packets := depth.Sum - before.Sum - (depth.Buckets[1] - before.Buckets[1]); batches == 0 || packets < 8 {
		t.Fatalf("batching did not show: %d vectored writes carried %d packets", batches, packets)
	}
	if err := a.SetShards(4); err == nil {
		t.Fatal("SetShards accepted after the pool started")
	}
}

// TestFastPathStartsThePool: a fast-path connection joins its System's
// shard pool, so the first one starts it, as a sharded one does, and
// SetShards refuses from then on.
func TestFastPathStartsThePool(t *testing.T) {
	nw := NewNetwork()
	defer nw.Close()
	a, _ := nw.NewSystem("fp-pool-a")
	b, _ := nw.NewSystem("fp-pool-b")
	if err := a.SetShards(2); err != nil {
		t.Fatal(err)
	}
	if _, err := a.Connect("fp-pool-b", Options{Interface: transport.HPI, FastPath: true}); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Accept(); err != nil {
		t.Fatal(err)
	}
	if st := a.Telemetry().Shards; st.Shards != 2 || st.Conns != 1 {
		t.Fatalf("Shards = %+v after one fast-path Connect, want 2 shards serving 1 connection", st)
	}
	if err := a.SetShards(4); !errors.Is(err, errShardsStarted) {
		t.Fatalf("SetShards after a fast-path Connect = %v, want errShardsStarted", err)
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

// TestShardedInstrumentedSend: the same stamps, at the same sites, in
// the same order on a shard as on the threaded runtime
// (TestThreadedSendStages): a lone SDU on an idle connection is written
// by its caller, with no queue; a two-SDU send is dequeued and written
// by the shard loop's flush.
func TestShardedInstrumentedSend(t *testing.T) {
	conn, peer, cleanup := newPairT(t, Options{
		Interface: transport.SCI,
		Runtime:   RuntimeSharded,
	})
	defer cleanup()
	traces, calls := tracedSends(t, conn, peer, 1, []byte("trace me"))
	checkSenderStages(t, traces[0], calls[0], false)
	traces, calls = tracedSends(t, conn, peer, 1, make([]byte, conn.opts.SDUSize+1))
	checkSenderStages(t, traces[0], calls[0], true)
}

// TestShardedWaitersReadTheirWires: a receiver or sender that waits
// reads its own wires, and its shard's loop — the runtime's pump of last
// resort, one of the System's pool or a threaded connection's private
// one — is rung only when nobody waits. Through 200 reliable 64 B
// echoes, each end keeps one goroutine blocked in Recv and another in
// Send, so an arrival finds a waiter, and the two ends' loops wake for
// fewer than half of the echoes. A loop that read every arrival would
// wake at least once per echo. The wake-ups are the one count of them,
// core.shard.wakeups_total, which counts private loops and the pool's
// alike.
func TestShardedWaitersReadTheirWires(t *testing.T) {
	const echoes = 200
	for _, rt := range allRuntimes {
		t.Run(rt.name, func(t *testing.T) {
			opts := Options{
				Interface:    transport.HPI,
				ErrorControl: errctl.SelectiveRepeat,
				FlowControl:  flowctl.Credit,
			}
			rt.set(&opts)
			conn, peer, cleanup := newPairT(t, opts)
			defer cleanup()
			before := mShardWakeups.Value()
			errs := make(chan error, 2)
			relay := make(chan []byte, echoes)
			go func() { // the peer's receiver
				defer close(relay)
				for i := 0; i < echoes; i++ {
					m, err := peer.RecvTimeout(5 * time.Second)
					if err != nil {
						errs <- fmt.Errorf("peer recv %d: %w", i, err)
						return
					}
					relay <- m
				}
			}()
			go func() { // the peer's sender
				for m := range relay {
					if err := peer.Send(m); err != nil {
						errs <- fmt.Errorf("echo: %w", err)
						return
					}
				}
				errs <- nil
			}()
			replies := make(chan error, echoes)
			go func() { // the caller's receiver
				for i := 0; i < echoes; i++ {
					got, err := conn.RecvTimeout(5 * time.Second)
					if err == nil && len(got) != 64 {
						err = fmt.Errorf("%d bytes", len(got))
					}
					replies <- err
				}
			}()
			msg := bytes.Repeat([]byte{0x5a}, 64)
			for i := 0; i < echoes; i++ {
				if err := conn.Send(msg); err != nil {
					t.Fatalf("send %d: %v", i, err)
				}
				if err := <-replies; err != nil {
					t.Fatalf("reply %d: %v", i, err)
				}
			}
			if err := <-errs; err != nil {
				t.Fatal(err)
			}
			n := mShardWakeups.Value() - before
			t.Logf("the loops woke %d times over %d echoes", n, echoes)
			if n >= echoes/2 {
				t.Fatalf("the shard loops woke %d times over %d echoes whose ends all waited, want fewer than %d", n, echoes, echoes/2)
			}
		})
	}
}

// TestPrivateLoopWakeupsCounted: loop wake-ups have one count,
// core.shard.wakeups_total, and a threaded connection's private loop adds
// to it as the pool's loops do — System.Telemetry's Shards describes the
// pool alone and is empty here. Messages sent while the peer waits for
// none are read by the peer's loop, which must wake (the test waits
// until the peer's books show them all).
func TestPrivateLoopWakeupsCounted(t *testing.T) {
	conn, peer, cleanup := newPairT(t, Options{Interface: transport.HPI})
	defer cleanup()
	before := conn.sys.Telemetry().Metrics.Counters["core.shard.wakeups_total"]
	const n = 8
	for i := 0; i < n; i++ {
		if err := conn.Send([]byte("wake the peer's loop")); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; peer.Stats().MessagesReceived < n; i++ { // nobody waits: the loop reads them
		if i == 1_000_000 {
			t.Fatalf("the peer's loop read %d of %d messages", peer.Stats().MessagesReceived, n)
		}
		runtime.Gosched()
	}
	for i := 0; i < n; i++ {
		if _, err := peer.RecvTimeout(5 * time.Second); err != nil {
			t.Fatal(err)
		}
	}
	tel := conn.sys.Telemetry()
	if tel.Shards != (ShardStats{}) {
		t.Fatalf("Shards = %+v: a threaded connection built a pool", tel.Shards)
	}
	if after := tel.Metrics.Counters["core.shard.wakeups_total"]; after <= before {
		t.Fatalf("core.shard.wakeups_total %d → %d: the peer's private loop read %d messages uncounted", before, after, n)
	}
}
