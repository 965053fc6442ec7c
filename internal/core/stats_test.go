package core

import (
	"errors"
	"testing"
	"time"

	"ncs/internal/atm"
	"ncs/internal/errctl"
	"ncs/internal/flowctl"
	"ncs/internal/packet"
	"ncs/internal/transport"
)

func TestStatsCountReliableTraffic(t *testing.T) {
	conn, peer, cleanup := newPairT(t, Options{
		Interface:    transport.HPI,
		FlowControl:  flowctl.Credit,
		ErrorControl: errctl.SelectiveRepeat,
		SDUSize:      1024,
	})
	defer cleanup()

	const messages, msgSize = 5, 4096
	errCh := make(chan error, 1)
	go func() {
		for i := 0; i < messages; i++ {
			if err := conn.Send(make([]byte, msgSize)); err != nil {
				errCh <- err
				return
			}
		}
		errCh <- nil
	}()
	for i := 0; i < messages; i++ {
		if _, err := peer.Recv(); err != nil {
			t.Fatal(err)
		}
	}
	if err := <-errCh; err != nil {
		t.Fatal(err)
	}

	s := conn.Stats()
	if s.MessagesSent != messages {
		t.Errorf("MessagesSent = %d, want %d", s.MessagesSent, messages)
	}
	wantSDUs := uint64(messages * msgSize / 1024)
	if s.SDUsSent != wantSDUs {
		t.Errorf("SDUsSent = %d, want %d (lossless path)", s.SDUsSent, wantSDUs)
	}
	if s.BytesSent != messages*msgSize {
		t.Errorf("BytesSent = %d, want %d", s.BytesSent, messages*msgSize)
	}
	if s.Retransmissions != 0 {
		t.Errorf("Retransmissions = %d on a lossless link", s.Retransmissions)
	}
	if s.ControlReceived == 0 {
		t.Error("ControlReceived = 0; credits/acks expected")
	}

	p := peer.Stats()
	if p.MessagesReceived != messages {
		t.Errorf("peer MessagesReceived = %d, want %d", p.MessagesReceived, messages)
	}
	if p.SDUsReceived != wantSDUs {
		t.Errorf("peer SDUsReceived = %d, want %d", p.SDUsReceived, wantSDUs)
	}
	if p.BytesReceived != messages*msgSize {
		t.Errorf("peer BytesReceived = %d, want %d", p.BytesReceived, messages*msgSize)
	}
	if p.ControlSent == 0 {
		t.Error("peer ControlSent = 0; acks expected")
	}
}

func TestStatsCountRetransmissions(t *testing.T) {
	conn, peer, cleanup := newPairT(t, Options{
		Interface:    transport.ACI,
		ErrorControl: errctl.SelectiveRepeat,
		FlowControl:  flowctl.None,
		SDUSize:      256,
		AckTimeout:   40 * time.Millisecond,
		QoS:          atm.QoS{CellLossRate: 0.15, Seed: 31},
	})
	defer cleanup()

	errCh := make(chan error, 1)
	go func() { errCh <- conn.Send(make([]byte, 8192)) }()
	if _, err := peer.Recv(); err != nil {
		t.Fatal(err)
	}
	if err := <-errCh; err != nil {
		t.Fatal(err)
	}
	s := conn.Stats()
	if s.Retransmissions == 0 {
		t.Error("Retransmissions = 0 at 15% cell loss; error control idle?")
	}
	if s.SDUsSent <= 8192/256 {
		t.Errorf("SDUsSent = %d; should exceed the %d originals", s.SDUsSent, 8192/256)
	}
}

func TestStatsFastPath(t *testing.T) {
	conn, peer, cleanup := newPairT(t, Options{
		Interface: transport.HPI,
		FastPath:  true,
	})
	defer cleanup()

	errCh := make(chan error, 1)
	go func() { errCh <- conn.Send(make([]byte, 2048)) }()
	if _, err := peer.Recv(); err != nil {
		t.Fatal(err)
	}
	if err := <-errCh; err != nil {
		t.Fatal(err)
	}
	s := conn.Stats()
	if s.MessagesSent != 1 || s.BytesSent != 2048 {
		t.Errorf("fast path stats: %+v", s)
	}
	if p := peer.Stats(); p.MessagesReceived != 1 || p.BytesReceived != 2048 {
		t.Errorf("fast path peer stats: %+v", p)
	}
}

// TestStatsControlBooksBalance: every control packet the peer sent is
// one the sender counted, on every runtime — the fast path's admission
// pump included (it used to consume packets without counting them).
// The transfer is multi-SDU and starts with two credits, so the sender
// spends most of it waiting for grants.
func TestStatsControlBooksBalance(t *testing.T) {
	for _, rt := range allRuntimes {
		t.Run(rt.name, func(t *testing.T) {
			opts := Options{
				Interface:    transport.HPI,
				FlowControl:  flowctl.Credit,
				ErrorControl: errctl.SelectiveRepeat,
				SDUSize:      256,
				FlowConfig:   flowctl.Config{InitialCredits: 2, MaxCredits: 8},
			}
			rt.set(&opts)
			conn, peer, cleanup := newPairT(t, opts)
			defer cleanup()
			for i := 0; i < 3; i++ {
				errCh := make(chan error, 1)
				go func() { errCh <- conn.Send(make([]byte, 5000)) }() // 20 SDUs
				if _, err := peer.Recv(); err != nil {
					t.Fatal(err)
				}
				if err := <-errCh; err != nil {
					t.Fatal(err)
				}
			}
			deadline := time.Now().Add(5 * time.Second)
			for {
				got, want := conn.Stats().ControlReceived, peer.Stats().ControlSent
				if got == want && want > 0 {
					return
				}
				if time.Now().After(deadline) {
					t.Fatalf("ControlReceived = %d, peer ControlSent = %d", got, want)
				}
				time.Sleep(5 * time.Millisecond)
			}
		})
	}
}

// TestFastPathAdmissionPumpRoutesControl: what arrives on the control
// connection while a sender waits for credits goes through the one
// control demux — an acknowledgment lands on its session's channel, a
// ping is answered with a pong, and both are counted — and the admission
// wait is still running once they have been routed. Whether the parked
// sender or its shard's loop read them is the scheduler's choice; both
// call the same demux. The test reads the answer off the peer's control
// wire itself, holding that wire's pump token so no loop of the peer's
// reads it first.
func TestFastPathAdmissionPumpRoutesControl(t *testing.T) {
	conn, peer, cleanup := newPairT(t, Options{
		Interface:    transport.HPI,
		FastPath:     true,
		FlowControl:  flowctl.Credit,
		ErrorControl: errctl.SelectiveRepeat,
		FlowConfig:   flowctl.Config{InitialCredits: 2, MaxCredits: 8},
		AckTimeout:   time.Minute, // the wait ends with the close below
	})
	defer cleanup()
	peerCtrl := &peer.in[wireCtrl].pump
	peerCtrl.Lock()
	defer peerCtrl.Unlock()

	lane := conn.lane0()
	for lane.fc.TryAcquire(lane.tx.Add(1) - 1) {
	}
	const sess = 77
	ss := conn.beginSend(lane, []byte("x"), sess)
	defer conn.endSend(ss, sess)
	admitted := make(chan error, 1)
	go func() { admitted <- conn.admit(lane, conn.rto()) }()
	awaitCond(t, "the sender never parked", func() bool {
		conn.waitMu.Lock()
		defer conn.waitMu.Unlock()
		return conn.waiting != nil
	})
	peer.emitCtrl(packet.Control{Type: packet.CtrlPing, ConnID: peer.id})
	peer.emitCtrl(packet.Control{Type: packet.CtrlAck, ConnID: peer.id, SessionID: sess})

	awaitCond(t, "the acknowledgment never reached the session's channel", func() bool { return len(ss.ackCh) == 1 })
	b, err := peer.ctrl.RecvBufTimeout(5 * time.Second)
	if err != nil {
		t.Fatalf("no answer to the ping: %v", err)
	}
	ctl, err := packet.UnmarshalControl(b.B)
	b.Release()
	if err != nil || ctl.Type != packet.CtrlPong {
		t.Errorf("answer to the ping = %+v (err %v), want a pong", ctl, err)
	}
	if got := conn.Stats().ControlReceived; got != 2 {
		t.Errorf("ControlReceived = %d, want 2 (ping, ack)", got)
	}
	select {
	case err := <-admitted:
		t.Fatalf("the admission wait ended (%v) before the test closed the connection", err)
	default:
	}
	conn.Close()
	if err := <-admitted; !errors.Is(err, ErrConnClosed) {
		t.Errorf("admission wait across Close: %v, want ErrConnClosed", err)
	}
}
