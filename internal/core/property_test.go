package core

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"
	"time"

	"ncs/internal/atm"
	"ncs/internal/errctl"
	"ncs/internal/flowctl"
	"ncs/internal/telemetry"
	"ncs/internal/transport"
)

// TestPropertyReliableDeliveryRandomised sends randomly sized messages
// over randomly lossy ATM circuits with randomly chosen reliable
// configurations; every message must arrive intact and in order.
func TestPropertyReliableDeliveryRandomised(t *testing.T) {
	if testing.Short() {
		t.Skip("randomised soak test")
	}
	rng := rand.New(rand.NewSource(2024))

	for trial := 0; trial < 8; trial++ {
		ec := []errctl.Algorithm{errctl.SelectiveRepeat, errctl.GoBackN}[rng.Intn(2)]
		fc := []flowctl.Algorithm{flowctl.None, flowctl.Credit, flowctl.Window}[rng.Intn(3)]
		loss := rng.Float64() * 0.08
		sdu := 256 << rng.Intn(3) // 256, 512, 1024

		opts := Options{
			Interface:    transport.ACI,
			ErrorControl: ec,
			FlowControl:  fc,
			SDUSize:      sdu,
			AckTimeout:   40 * time.Millisecond,
			QoS:          atm.QoS{CellLossRate: loss, Seed: rng.Int63() + 1},
		}
		conn, peer, cleanup := newPairT(t, opts)

		const messages = 5
		sent := make([][]byte, messages)
		for i := range sent {
			msg := make([]byte, 1+rng.Intn(8000))
			rng.Read(msg)
			sent[i] = msg
		}
		errCh := make(chan error, 1)
		go func() {
			for _, m := range sent {
				if err := conn.Send(m); err != nil {
					errCh <- err
					return
				}
			}
			errCh <- nil
		}()
		for i := range sent {
			got, err := peer.Recv()
			if err != nil {
				t.Fatalf("trial %d (ec=%v fc=%v loss=%.3f): recv %d: %v",
					trial, ec, fc, loss, i, err)
			}
			if !bytes.Equal(got, sent[i]) {
				t.Fatalf("trial %d (ec=%v fc=%v loss=%.3f sdu=%d): message %d corrupted",
					trial, ec, fc, loss, sdu, i)
			}
		}
		if err := <-errCh; err != nil {
			t.Fatalf("trial %d: send: %v", trial, err)
		}
		cleanup()
	}
}

// TestUnreliableLossMetadata verifies the Lost counter on unreliable
// transfers: with forced SDU loss, delivered messages report their
// missing segments.
func TestUnreliableLossMetadata(t *testing.T) {
	conn, peer, cleanup := newPairT(t, Options{
		Interface:    transport.ACI,
		ErrorControl: errctl.None,
		FlowControl:  flowctl.None,
		SDUSize:      256,
		QoS:          atm.QoS{CellLossRate: 0.12, Seed: 77},
	})
	defer cleanup()

	var delivered, lostSDUs int
	for i := 0; i < 40; i++ {
		if err := conn.Send(make([]byte, 4096)); err != nil {
			t.Fatal(err)
		}
		// A frame whose end SDU vanished never completes; the playout
		// deadline skips it.
		m, err := peer.RecvMessageTimeout(100 * time.Millisecond)
		if err == nil {
			delivered++
			lostSDUs += m.Lost
			m.Release()
		}
	}
	if delivered == 0 {
		t.Fatal("no messages delivered at 12% cell loss")
	}
	if lostSDUs == 0 {
		t.Fatal("Lost metadata never reported missing SDUs despite loss")
	}
}

// TestUnreliableLossSpendsNoCredit: on a lossy link without error
// control, an SDU the link loses frees its credit as soon as a later one
// of its lane arrives — the window counts the sender's transmit indices —
// so a lane that loses many times its window never stalls waiting for a
// resynchronisation. Each cell sends 600 one-SDU messages, about half of
// them lost, to a consumer that keeps up. Were lost credit only written
// off by Resync, every loss past the window's 64 would cost an
// AckTimeout: a minute or more per cell, where the bound is 25.
func TestUnreliableLossSpendsNoCredit(t *testing.T) {
	const msgs, window = 600, 64
	for _, alg := range []flowctl.Algorithm{flowctl.None, flowctl.Credit, flowctl.Window, flowctl.Rate} {
		t.Run(alg.String(), func(t *testing.T) {
			conn, peer, cleanup := newPairT(t, Options{
				Interface:    transport.ACI,
				ErrorControl: errctl.None,
				FlowControl:  alg,
				FlowConfig:   flowctl.Config{MaxCredits: window},
				SDUSize:      256,
				QoS:          atm.QoS{CellLossRate: 0.12, Seed: 77},
			})
			defer cleanup()
			go func() {
				for {
					m, err := peer.RecvMessage()
					if err != nil {
						return
					}
					m.Release()
				}
			}()
			start, most := time.Now(), 25*conn.opts.AckTimeout
			for i := 0; i < msgs; i++ {
				if err := conn.Send(make([]byte, 200)); err != nil {
					t.Fatal(err)
				}
				if took := time.Since(start); took > most {
					t.Fatalf("%d of %d sends took %v, want all under %v: lost SDUs held their credit", i+1, msgs, took, most)
				}
			}
			received := peer.Stats().SDUsReceived
			awaitCond(t, "the peer never stopped receiving", func() bool {
				time.Sleep(50 * time.Millisecond)
				n := peer.Stats().SDUsReceived
				defer func() { received = n }()
				return n == received
			})
			if lost := msgs - int(received); lost <= 2*window {
				t.Fatalf("the link lost %d of %d SDUs; the cell needs more than twice the window", lost, msgs)
			}
		})
	}
}

// TestFastPathInterleavedWithThreaded ensures a system can hold both
// kinds of connections at once.
func TestFastPathInterleavedWithThreaded(t *testing.T) {
	nw := NewNetwork()
	defer nw.Close()
	a, _ := nw.NewSystem("mix-a")
	b, _ := nw.NewSystem("mix-b")

	threaded, err := a.Connect("mix-b", Options{Interface: transport.HPI})
	if err != nil {
		t.Fatal(err)
	}
	fast, err := a.Connect("mix-b", Options{Interface: transport.HPI, FastPath: true})
	if err != nil {
		t.Fatal(err)
	}
	pt, err := b.AcceptTimeout(time.Second)
	if err != nil {
		t.Fatal(err)
	}
	pf, err := b.AcceptTimeout(time.Second)
	if err != nil {
		t.Fatal(err)
	}

	for i := 0; i < 10; i++ {
		if err := threaded.Send([]byte("threaded")); err != nil {
			t.Fatal(err)
		}
		errCh := make(chan error, 1)
		go func() { errCh <- fast.Send([]byte("fast")) }()
		if m, err := pt.Recv(); err != nil || string(m) != "threaded" {
			t.Fatalf("threaded recv: %q, %v", m, err)
		}
		if m, err := pf.Recv(); err != nil || string(m) != "fast" {
			t.Fatalf("fast recv: %q, %v", m, err)
		}
		if err := <-errCh; err != nil {
			t.Fatal(err)
		}
	}
}

// TestSessionPruningBounded verifies long-lived connections do not
// accumulate unbounded reassembly state.
func TestSessionPruningBounded(t *testing.T) {
	conn, peer, cleanup := newPairT(t, Options{Interface: transport.HPI})
	defer cleanup()

	errCh := make(chan error, 1)
	const n = errctl.MaxTrackedSessions * 3
	go func() {
		for i := 0; i < n; i++ {
			if err := conn.Send([]byte{1}); err != nil {
				errCh <- err
				return
			}
		}
		errCh <- nil
	}()
	for i := 0; i < n; i++ {
		if _, err := peer.Recv(); err != nil {
			t.Fatal(err)
		}
	}
	if err := <-errCh; err != nil {
		t.Fatal(err)
	}
	tracked := peer.inbound.Len()
	if tracked > errctl.MaxTrackedSessions+8 {
		t.Fatalf("session table grew to %d entries (bound %d)", tracked, errctl.MaxTrackedSessions)
	}
}

// TestWindowFlowControlSpansSessions is a regression test: flow control
// indexes transmissions with a connection-lifetime counter, so the
// window keeps pacing across many small messages whose per-session SDU
// sequence numbers all restart at zero.
func TestWindowFlowControlSpansSessions(t *testing.T) {
	conn, peer, cleanup := newPairT(t, Options{
		Interface:    transport.HPI,
		FlowControl:  flowctl.Window,
		ErrorControl: errctl.SelectiveRepeat,
		FlowConfig:   flowctl.Config{WindowSize: 4},
		SDUSize:      64,
	})
	defer cleanup()

	errCh := make(chan error, 1)
	go func() {
		for i := 0; i < 50; i++ {
			if err := conn.Send([]byte{byte(i)}); err != nil {
				errCh <- err
				return
			}
		}
		errCh <- nil
	}()
	for i := 0; i < 50; i++ {
		m, err := peer.Recv()
		if err != nil {
			t.Fatal(err)
		}
		if m[0] != byte(i) {
			t.Fatalf("message %d out of order", i)
		}
	}
	if err := <-errCh; err != nil {
		t.Fatal(err)
	}
}

// TestHeartbeatDetectsSilentPeer builds a connection whose "peer" is a
// raw transport that never answers: the heartbeat must declare it
// unreachable and fail blocked receivers with ErrPeerUnreachable.
func TestHeartbeatDetectsSilentPeer(t *testing.T) {
	nw := NewNetwork()
	defer nw.Close()
	sys, err := nw.NewSystem("hb-threaded")
	if err != nil {
		t.Fatal(err)
	}
	data, silentData := transport.HPIPair()
	ctrl, silentCtrl := transport.HPIPair()
	defer silentData.Close()
	defer silentCtrl.Close()

	opts := Options{
		Interface: transport.HPI,
		Heartbeat: 20 * time.Millisecond,
	}.withDefaults()
	conn := newConnection(sys, "silent-peer", 1, opts, data, ctrl, true)
	defer conn.Close()

	start := time.Now()
	_, err = conn.Recv()
	if !errors.Is(err, ErrPeerUnreachable) {
		t.Fatalf("err = %v, want ErrPeerUnreachable", err)
	}
	elapsed := time.Since(start)
	if elapsed < 60*time.Millisecond || elapsed > 2*time.Second {
		t.Fatalf("detection took %v, want ≈3 heartbeat intervals", elapsed)
	}
}

// TestHeartbeatKeepsHealthyConnectionAlive verifies pings/pongs flow
// and an idle-but-healthy connection is not declared dead.
func TestHeartbeatKeepsHealthyConnectionAlive(t *testing.T) {
	conn, peer, cleanup := newPairT(t, Options{
		Interface: transport.HPI,
		Heartbeat: 15 * time.Millisecond,
	})
	defer cleanup()

	// Idle across many intervals, then exchange a message: both
	// directions must still work.
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
}

// TestTraceStagesMonotonic checks the lifecycle stamps are internally
// consistent across many sends, on every runtime: the sender's in order
// inside the Send that made them — no Queued: a paced one-SDU send finds
// the wire free and is written inline, on every runtime — and the six
// path stages in path order.
func TestTraceStagesMonotonic(t *testing.T) {
	for _, rt := range allRuntimes {
		t.Run(rt.name, func(t *testing.T) {
			opts := Options{Interface: transport.HPI}
			rt.set(&opts)
			conn, peer, cleanup := newPairT(t, opts)
			defer cleanup()
			traces, calls := tracedSends(t, conn, peer, 100, []byte{9})
			for i, tr := range traces {
				checkSenderStages(t, tr, calls[i], false)
				var prev int64
				for st := telemetry.StageEnqueued; st <= telemetry.StageDelivered; st++ {
					if tr.Stage(st) < prev || tr.Stage(st) == 0 {
						t.Fatalf("send %d: path stage %v out of order: %+v", i, st, tr)
					}
					prev = tr.Stage(st)
				}
			}
		})
	}
}
