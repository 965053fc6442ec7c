package core

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"ncs/internal/atm"
	"ncs/internal/errctl"
	"ncs/internal/flowctl"
	"ncs/internal/telemetry"
	"ncs/internal/transport"
)

// newPairT builds a connected two-system fabric with one connection.
func newPairT(t *testing.T, opts Options) (client, server *Connection, cleanup func()) {
	t.Helper()
	nw := NewNetwork()
	a, err := nw.NewSystem("client")
	if err != nil {
		t.Fatal(err)
	}
	b, err := nw.NewSystem("server")
	if err != nil {
		t.Fatal(err)
	}
	conn, err := a.Connect("server", opts)
	if err != nil {
		t.Fatal(err)
	}
	peer, err := b.AcceptTimeout(5 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	return conn, peer, func() { nw.Close() }
}

func TestSendRecvAllInterfaces(t *testing.T) {
	for _, kind := range []transport.Kind{transport.SCI, transport.ACI, transport.HPI} {
		t.Run(kind.String(), func(t *testing.T) {
			conn, peer, cleanup := newPairT(t, Options{Interface: kind})
			defer cleanup()

			for _, size := range []int{0, 1, 100, 4096, 5000, 70000} {
				msg := bytes.Repeat([]byte{byte(size % 251)}, size)
				if err := conn.Send(msg); err != nil {
					t.Fatalf("send %d: %v", size, err)
				}
				got, err := peer.Recv()
				if err != nil {
					t.Fatalf("recv %d: %v", size, err)
				}
				if !bytes.Equal(got, msg) {
					t.Fatalf("size %d: message mismatch (got %d bytes)", size, len(got))
				}
			}
		})
	}
}

// TestUnreliableSendTooLarge: an unreliable message spanning more
// segments than the receiver's dense reassembly tracks is refused at
// Send rather than transmitted and silently never delivered.
func TestUnreliableSendTooLarge(t *testing.T) {
	// Small SDUs keep the oversized message affordable: 65537 segments
	// of 64 bytes. One segment fewer must still be accepted by the
	// size check (delivery itself is exercised elsewhere).
	conn, _, cleanup := newPairT(t, Options{Interface: transport.HPI, SDUSize: 64})
	defer cleanup()
	tooBig := make([]byte, (errctl.MaxUnreliableSegments+1)*64)
	if err := conn.Send(tooBig); !errors.Is(err, ErrSendTooLarge) {
		t.Fatalf("oversized unreliable send: err = %v, want ErrSendTooLarge", err)
	}
	if err := conn.checkSendSize(tooBig[:errctl.MaxUnreliableSegments*64]); err != nil {
		t.Fatalf("max-sized unreliable send refused: %v", err)
	}
}

func TestDuplexExchange(t *testing.T) {
	conn, peer, cleanup := newPairT(t, Options{Interface: transport.HPI})
	defer cleanup()

	done := make(chan error, 1)
	go func() {
		m, err := peer.Recv()
		if err != nil {
			done <- err
			return
		}
		done <- peer.Send(append([]byte("echo:"), m...))
	}()
	if err := conn.Send([]byte("hello")); err != nil {
		t.Fatal(err)
	}
	got, err := conn.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "echo:hello" {
		t.Fatalf("got %q", got)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}

func TestAllAlgorithmCombinations(t *testing.T) {
	flows := []flowctl.Algorithm{flowctl.None, flowctl.Credit, flowctl.Window, flowctl.Rate}
	errs := []errctl.Algorithm{errctl.None, errctl.SelectiveRepeat, errctl.GoBackN}
	msg := bytes.Repeat([]byte("combo"), 2000) // 10 KB, multiple SDUs

	for _, fc := range flows {
		for _, ec := range errs {
			name := fmt.Sprintf("%v_%v", fc, ec)
			t.Run(name, func(t *testing.T) {
				conn, peer, cleanup := newPairT(t, Options{
					Interface:    transport.HPI,
					FlowControl:  fc,
					ErrorControl: ec,
					SDUSize:      1024,
					FlowConfig:   flowctl.Config{RatePerSec: 1e6},
				})
				defer cleanup()

				errCh := make(chan error, 1)
				go func() { errCh <- conn.Send(msg) }()
				got, err := peer.Recv()
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(got, msg) {
					t.Fatal("message mismatch")
				}
				if err := <-errCh; err != nil {
					t.Fatal(err)
				}
			})
		}
	}
}

func TestReliableDeliveryOverLossyATM(t *testing.T) {
	for _, ec := range []errctl.Algorithm{errctl.SelectiveRepeat, errctl.GoBackN} {
		t.Run(ec.String(), func(t *testing.T) {
			conn, peer, cleanup := newPairT(t, Options{
				Interface:    transport.ACI,
				ErrorControl: ec,
				FlowControl:  flowctl.Credit,
				SDUSize:      512,
				AckTimeout:   50 * time.Millisecond,
				QoS:          atm.QoS{CellLossRate: 0.05, Seed: 21},
			})
			defer cleanup()

			msg := make([]byte, 20000)
			for i := range msg {
				msg[i] = byte(i * 13)
			}
			errCh := make(chan error, 1)
			go func() { errCh <- conn.Send(msg) }()
			got, err := peer.Recv()
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, msg) {
				t.Fatal("message corrupted across lossy ATM")
			}
			if err := <-errCh; err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestUnreliableStreamToleratesLoss(t *testing.T) {
	conn, peer, cleanup := newPairT(t, Options{
		Interface:    transport.ACI,
		ErrorControl: errctl.None,
		FlowControl:  flowctl.None,
		SDUSize:      256,
		QoS:          atm.QoS{CellLossRate: 0.10, Seed: 17},
	})
	defer cleanup()

	// Stream 30 "video frames"; some SDUs will vanish. Completion relies
	// on end SDUs surviving, so retry frames until enough arrive.
	const frames = 30
	received := 0
	var lostTotal int
	for i := 0; i < frames; i++ {
		frame := bytes.Repeat([]byte{byte(i)}, 2048)
		if err := conn.Send(frame); err != nil {
			t.Fatal(err)
		}
		m, err := peer.RecvTimeout(200 * time.Millisecond)
		if err != nil {
			continue // frame's end SDU lost: the stream skips it
		}
		_ = m
		received++
		// Loss metadata is on RecvMessage; use it for a few frames.
	}
	if received == 0 {
		t.Fatal("no frames survived 10% cell loss")
	}
	_ = lostTotal
}

func TestFastPathSendRecv(t *testing.T) {
	for _, kind := range []transport.Kind{transport.SCI, transport.HPI} {
		t.Run(kind.String(), func(t *testing.T) {
			conn, peer, cleanup := newPairT(t, Options{
				Interface: kind,
				FastPath:  true,
			})
			defer cleanup()

			for _, size := range []int{1, 4096, 50000} {
				msg := bytes.Repeat([]byte{0xcd}, size)
				errCh := make(chan error, 1)
				go func() { errCh <- conn.Send(msg) }()
				got, err := peer.Recv()
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(got, msg) {
					t.Fatalf("size %d mismatch", size)
				}
				if err := <-errCh; err != nil {
					t.Fatal(err)
				}
			}
		})
	}
}

func TestFastPathReliableOverLossyATM(t *testing.T) {
	conn, peer, cleanup := newPairT(t, Options{
		Interface:    transport.ACI,
		FastPath:     true,
		ErrorControl: errctl.SelectiveRepeat,
		FlowControl:  flowctl.None,
		SDUSize:      512,
		AckTimeout:   50 * time.Millisecond,
		QoS:          atm.QoS{CellLossRate: 0.05, Seed: 5},
	})
	defer cleanup()

	msg := make([]byte, 8000)
	for i := range msg {
		msg[i] = byte(i)
	}
	errCh := make(chan error, 1)
	go func() { errCh <- conn.Send(msg) }()
	got, err := peer.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if err := <-errCh; err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, msg) {
		t.Fatal("fast path failed to recover losses")
	}
}

func TestFastPathCreditFlow(t *testing.T) {
	conn, peer, cleanup := newPairT(t, Options{
		Interface:    transport.HPI,
		FastPath:     true,
		FlowControl:  flowctl.Credit,
		ErrorControl: errctl.SelectiveRepeat,
		SDUSize:      256,
		FlowConfig:   flowctl.Config{InitialCredits: 2, MaxCredits: 8},
	})
	defer cleanup()

	msg := bytes.Repeat([]byte{9}, 5000) // 20 SDUs >> 2 initial credits
	errCh := make(chan error, 1)
	go func() { errCh <- conn.Send(msg) }()
	got, err := peer.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if err := <-errCh; err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, msg) {
		t.Fatal("credit-gated fast path corrupted message")
	}
}

func TestConcurrentSendersOneConnection(t *testing.T) {
	conn, peer, cleanup := newPairT(t, Options{
		Interface: transport.HPI,
		SDUSize:   512,
	})
	defer cleanup()

	const senders = 8
	var wg sync.WaitGroup
	for i := 0; i < senders; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			msg := bytes.Repeat([]byte{byte(i + 1)}, 3000)
			if err := conn.Send(msg); err != nil {
				t.Errorf("send %d: %v", i, err)
			}
		}(i)
	}
	seen := make(map[byte]bool)
	for i := 0; i < senders; i++ {
		m, err := peer.Recv()
		if err != nil {
			t.Fatal(err)
		}
		if len(m) != 3000 {
			t.Fatalf("message %d: len %d", i, len(m))
		}
		for _, b := range m {
			if b != m[0] {
				t.Fatal("interleaved sessions corrupted a message")
			}
		}
		seen[m[0]] = true
	}
	wg.Wait()
	if len(seen) != senders {
		t.Fatalf("got %d distinct messages, want %d", len(seen), senders)
	}
}

func TestMultipleConnectionsBetweenSameSystems(t *testing.T) {
	nw := NewNetwork()
	defer nw.Close()
	a, _ := nw.NewSystem("a")
	b, _ := nw.NewSystem("b")

	// Figure 2's multimedia pattern: one reliable, one unreliable
	// connection between the same pair.
	reliable, err := a.Connect("b", Options{Interface: transport.HPI})
	if err != nil {
		t.Fatal(err)
	}
	unreliable, err := a.Connect("b", Options{
		Interface:    transport.HPI,
		ErrorControl: errctl.None,
		FlowControl:  flowctl.None,
	})
	if err != nil {
		t.Fatal(err)
	}
	pr, err := b.AcceptTimeout(time.Second)
	if err != nil {
		t.Fatal(err)
	}
	pu, err := b.AcceptTimeout(time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if pr.ID() != reliable.ID() || pu.ID() != unreliable.ID() {
		t.Fatal("accept order/IDs mismatched")
	}

	if err := reliable.Send([]byte("data")); err != nil {
		t.Fatal(err)
	}
	if err := unreliable.Send([]byte("video")); err != nil {
		t.Fatal(err)
	}
	if m, _ := pr.Recv(); string(m) != "data" {
		t.Fatalf("reliable conn got %q", m)
	}
	if m, _ := pu.Recv(); string(m) != "video" {
		t.Fatalf("unreliable conn got %q", m)
	}
}

func TestRecvTimeout(t *testing.T) {
	conn, peer, cleanup := newPairT(t, Options{Interface: transport.HPI})
	defer cleanup()
	_ = conn

	start := time.Now()
	_, err := peer.RecvTimeout(30 * time.Millisecond)
	if err != ErrRecvTimeout {
		t.Fatalf("err = %v, want ErrRecvTimeout", err)
	}
	if time.Since(start) < 25*time.Millisecond {
		t.Fatal("timeout returned too early")
	}
}

// senderStages is the order the sender's lifecycle stamps come in,
// whichever runtime makes them: each is stamped at one site (TestOneTracer).
// Queued is stamped only when the first SDU waited in its wire's queue;
// a lone one its sender wrote at once goes from Staged straight to
// Dequeued.
var senderStages = []telemetry.TraceStage{
	telemetry.StageEnqueued, telemetry.StageStaged, telemetry.StageQueued, telemetry.StageDequeued, telemetry.StageWireOut,
}

// tracedSends sends paced messages over conn — each is delivered to peer
// before the next starts — with every message sampled, until n of their
// traces carry every sender-side stamp, and returns those next to each
// one's Send's entry and exit on the tracer's clock. (WireOut is stamped
// before the write starts, so every completed trace carries it; one
// without it would be sent again.)
func tracedSends(t *testing.T, conn, peer *Connection, n int, msg []byte) (traces []telemetry.Trace, calls [][2]int64) {
	t.Helper()
	telemetry.EnableTracing(1, 16)
	defer telemetry.DisableTracing()
	for i := 0; len(traces) < n; i++ {
		if i == 20*n+50 {
			t.Fatalf("%d sends, every one sampled, completed %d traces with a wire-out stamp", i, len(traces))
		}
		sent := make(chan error, 1)
		enter := telemetry.TraceNow()
		go func() { sent <- conn.Send(msg) }() // a fast-path reliable Send needs its peer in Recv
		if _, err := peer.RecvTimeout(5 * time.Second); err != nil {
			t.Fatalf("recv %d: %v", i, err)
		}
		if err := <-sent; err != nil {
			t.Fatalf("send %d: %v", i, err)
		}
		exit := telemetry.TraceNow()
		for _, tr := range telemetry.TakeTraces() {
			if tr.ConnID == conn.ID() && tr.Stage(telemetry.StageWireOut) != 0 {
				traces, calls = append(traces, tr), append(calls, [2]int64{enter, exit})
			}
		}
	}
	return traces, calls
}

// checkSenderStages holds one trace to the sender-side order, inside
// the Send call that made it, and to the path its first SDU took: through
// a queue (queued) or written inline.
func checkSenderStages(t *testing.T, tr telemetry.Trace, call [2]int64, queued bool) {
	t.Helper()
	prev := call[0]
	for _, st := range senderStages {
		at := tr.Stage(st)
		if st == telemetry.StageQueued && !queued {
			if at != 0 {
				t.Fatalf("the first SDU was queued at %d; want it written inline: %+v", at, tr)
			}
			continue
		}
		if at == 0 || at < prev {
			t.Fatalf("stage %v stamped at %d after %d (0: never): Send entered at %d; %+v", st, at, prev, call[0], tr)
		}
		prev = at
	}
	if call[1] < prev || tr.Stage(telemetry.StageDelivered) < prev {
		t.Fatalf("wire-out at %d, yet Send returned at %d and delivery was at %d", prev, call[1], tr.Stage(telemetry.StageDelivered))
	}
}

// TestThreadedSendStages: Table I's breakdown of a threaded 1-byte send —
// entry, queue, switch to the Send Thread, transfer, switch back — is
// read off the lifecycle tracer's stamps and a bracket on its clock. A
// paced 1-byte send finds its wire free and is written by the caller,
// so it has no queue and no switch; a two-SDU send's first SDU waits in
// the queue while the second is admitted, and has both.
func TestThreadedSendStages(t *testing.T) {
	conn, peer, cleanup := newPairT(t, Options{
		Interface: transport.SCI,
	})
	defer cleanup()
	traces, calls := tracedSends(t, conn, peer, 1, []byte{1})
	checkSenderStages(t, traces[0], calls[0], false)
	if traces[0].Bytes != 1 {
		t.Fatalf("trace of a 1-byte send records %d bytes", traces[0].Bytes)
	}
	traces, calls = tracedSends(t, conn, peer, 1, make([]byte, conn.opts.SDUSize+1))
	checkSenderStages(t, traces[0], calls[0], true)
}

func TestCloseUnblocksEverything(t *testing.T) {
	conn, peer, cleanup := newPairT(t, Options{Interface: transport.HPI})
	defer cleanup()

	recvErr := make(chan error, 1)
	go func() {
		_, err := peer.Recv()
		recvErr <- err
	}()
	time.Sleep(5 * time.Millisecond)
	conn.Close()
	peer.Close()
	select {
	case err := <-recvErr:
		if err == nil {
			t.Fatal("Recv returned nil after close")
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Recv never unblocked")
	}
	if err := conn.Send([]byte("x")); err == nil {
		t.Fatal("Send after close succeeded")
	}
}

func TestConnectUnknownSystem(t *testing.T) {
	nw := NewNetwork()
	defer nw.Close()
	a, _ := nw.NewSystem("a")
	if _, err := a.Connect("ghost", Options{Interface: transport.HPI}); err == nil {
		t.Fatal("connect to unknown system succeeded")
	}
}

func TestDuplicateSystemName(t *testing.T) {
	nw := NewNetwork()
	defer nw.Close()
	if _, err := nw.NewSystem("dup"); err != nil {
		t.Fatal(err)
	}
	if _, err := nw.NewSystem("dup"); err == nil {
		t.Fatal("duplicate system name accepted")
	}
}

func TestSystemCloseRejectsNewWork(t *testing.T) {
	nw := NewNetwork()
	defer nw.Close()
	a, _ := nw.NewSystem("a")
	b, _ := nw.NewSystem("b")
	_ = b
	a.Close()
	if _, err := a.Connect("b", Options{Interface: transport.HPI}); err != ErrSystemClosed {
		t.Fatalf("err = %v, want ErrSystemClosed", err)
	}
	if _, err := a.Accept(); err != ErrSystemClosed {
		t.Fatalf("Accept err = %v, want ErrSystemClosed", err)
	}
}

func TestManyMessagesSequential(t *testing.T) {
	conn, peer, cleanup := newPairT(t, Options{Interface: transport.HPI, SDUSize: 128})
	defer cleanup()

	// Far more sessions than errctl.MaxTrackedSessions, to exercise pruning.
	const n = 200
	errCh := make(chan error, 1)
	go func() {
		for i := 0; i < n; i++ {
			if err := conn.Send([]byte{byte(i), byte(i >> 8)}); err != nil {
				errCh <- err
				return
			}
		}
		errCh <- nil
	}()
	for i := 0; i < n; i++ {
		m, err := peer.Recv()
		if err != nil {
			t.Fatal(err)
		}
		if m[0] != byte(i) || m[1] != byte(i>>8) {
			t.Fatalf("message %d out of order: % x", i, m)
		}
	}
	if err := <-errCh; err != nil {
		t.Fatal(err)
	}
}

func TestInbandControlAblation(t *testing.T) {
	// The ablation mode must still deliver reliably over a lossy link,
	// just with control competing against data.
	conn, peer, cleanup := newPairT(t, Options{
		Interface:     transport.ACI,
		ErrorControl:  errctl.SelectiveRepeat,
		FlowControl:   flowctl.Credit,
		InbandControl: true,
		SDUSize:       512,
		AckTimeout:    50 * time.Millisecond,
		QoS:           atm.QoS{CellLossRate: 0.03, Seed: 13},
	})
	defer cleanup()

	msg := make([]byte, 10000)
	for i := range msg {
		msg[i] = byte(i * 11)
	}
	errCh := make(chan error, 1)
	go func() { errCh <- conn.Send(msg) }()
	got, err := peer.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if err := <-errCh; err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, msg) {
		t.Fatal("in-band mode corrupted message")
	}
}

func TestOptionsDefaults(t *testing.T) {
	o := Options{}.withDefaults()
	if o.Interface != transport.SCI {
		t.Errorf("default interface = %v", o.Interface)
	}
	if o.FlowControl != flowctl.None || o.ErrorControl != errctl.None {
		t.Errorf("reliable interface should default to no flow/error control: %v/%v",
			o.FlowControl, o.ErrorControl)
	}
	o = Options{Interface: transport.ACI}.withDefaults()
	if o.FlowControl != flowctl.Credit || o.ErrorControl != errctl.SelectiveRepeat {
		t.Errorf("ACI defaults wrong: %v/%v", o.FlowControl, o.ErrorControl)
	}
	if o.SDUSize != errctl.DefaultSDUSize {
		t.Errorf("SDU default = %d", o.SDUSize)
	}
}
