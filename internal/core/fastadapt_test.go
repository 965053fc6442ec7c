package core

import (
	"bytes"
	"errors"
	"testing"
	"time"

	"ncs/internal/errctl"
	"ncs/internal/flowctl"
	"ncs/internal/netsim"
	"ncs/internal/packet"
	"ncs/internal/transport"
)

// The fast path's timers do not adapt yet: rto() returns the configured
// AckTimeout there whatever AdaptiveTimeout says, because the change
// that makes it adapt costs lossy_echo more peak RSS than its bound
// allows (ROADMAP, "Let the fast path adapt"). These tests pin what that
// change has to keep true, in values and counts — which timeout rto()
// returns, that losses are recovered, how many admission rounds a
// give-up made — never in how long anything took.

func fastReliable(adaptive bool) Options {
	return Options{
		Interface:       transport.HPI,
		FastPath:        true,
		ErrorControl:    errctl.SelectiveRepeat,
		FlowControl:     flowctl.Credit,
		AdaptiveTimeout: adaptive,
	}
}

// echoN runs n verified echoes of size bytes against an echoing peer.
func echoN(t *testing.T, conn, peer *Connection, n, size int) {
	t.Helper()
	go func() {
		for {
			m, err := peer.Recv()
			if err != nil || peer.Send(m) != nil {
				return
			}
		}
	}()
	msg := make([]byte, size)
	for i := 0; i < n; i++ {
		for j := range msg {
			msg[j] = byte(i + j)
		}
		if err := conn.Send(msg); err != nil {
			t.Fatalf("echo %d: send: %v", i, err)
		}
		got, err := conn.Recv()
		if err != nil {
			t.Fatalf("echo %d: recv: %v", i, err)
		}
		if !bytes.Equal(got, msg) {
			t.Fatalf("echo %d: payload corrupted", i)
		}
	}
}

// TestFastPathTimeoutStaysConfigured: a fast-path connection waits the
// configured AckTimeout with AdaptiveTimeout on or off — while its
// estimator is fed all the same, so the day rto() honours it the
// estimate is already there and inside [floor, ceiling).
func TestFastPathTimeoutStaysConfigured(t *testing.T) {
	for _, adaptive := range []bool{true, false} {
		conn, peer, cleanup := newPairT(t, fastReliable(adaptive))
		echoN(t, conn, peer, 200, 64)
		if rto := conn.rto(); rto != conn.opts.AckTimeout {
			t.Errorf("fast path, AdaptiveTimeout=%v: rto = %v, want AckTimeout %v", adaptive, rto, conn.opts.AckTimeout)
		}
		est := conn.rtt.timeout(conn.opts.AckTimeout, minAdaptiveTimeout)
		if adaptive && (conn.RTT() == 0 || est < minAdaptiveTimeout || est >= conn.opts.AckTimeout) {
			t.Errorf("estimate after 200 clean echoes: rtt %v, timeout %v, want in [%v, %v)", conn.RTT(), est, minAdaptiveTimeout, conn.opts.AckTimeout)
		}
		cleanup()
	}
}

// TestFastPathAdaptiveRecoversLoss: 500 four-SDU echoes over a link
// that drops 2 % of the data packets in each direction all arrive
// intact, and some of them needed a retransmission.
func TestFastPathAdaptiveRecoversLoss(t *testing.T) {
	opts := fastReliable(true)
	opts.AckTimeout = 10 * time.Millisecond
	opts.HPILink = &netsim.Params{LossRate: 0.02}
	conn, peer, cleanup := newPairT(t, opts)
	defer cleanup()
	echoN(t, conn, peer, 500, 16*1024)
	if conn.Stats().Retransmissions+peer.Stats().Retransmissions == 0 {
		t.Error("no retransmission over a 2 % loss link: the losses were not exercised")
	}
}

// neverAdmits is a flow-control sender that refuses every transmission
// and counts how often it was asked to resynchronise.
type neverAdmits struct{ resyncs int }

func (*neverAdmits) AcquireTimeout(uint32, time.Duration) error { return flowctl.ErrAcquireTimeout }
func (*neverAdmits) TryAcquire(uint32) bool                     { return false }
func (s *neverAdmits) Resync()                                  { s.resyncs++ }
func (*neverAdmits) OnControl(packet.Control)                   {}
func (*neverAdmits) Close()                                     {}

// TestFastPathAdmissionBudgetIsTime: a fast-path sender whose admission
// never comes gives up with ErrRecvTimeout after maxCreditWait waits of
// AckTimeout. Whatever AdaptiveTimeout does to the pace of those waits,
// it may only raise the number of poll/Resync rounds made before the
// give-up, never cut the budget: an attempt count left as it is while
// the wait adapts would shrink the budget a hundredfold.
func TestFastPathAdmissionBudgetIsTime(t *testing.T) {
	rounds := func(adaptive bool) int {
		opts := fastReliable(adaptive)
		opts.AckTimeout = 10 * minAdaptiveTimeout
		conn, _, cleanup := newPairT(t, opts)
		defer cleanup()
		for i := 0; i < 8; i++ {
			conn.rtt.observe(50 * time.Microsecond) // a LAN-like estimate: rto() sits at its floor
		}
		fc := &neverAdmits{}
		lane := conn.lane0()
		lane.fc = fc
		if err := conn.admit(lane, conn.rto()); !errors.Is(err, ErrRecvTimeout) {
			t.Fatalf("adaptive=%v: admit = %v, want ErrRecvTimeout", adaptive, err)
		}
		return fc.resyncs
	}
	fixed, adaptive := rounds(false), rounds(true)
	if fixed < 1 {
		t.Fatalf("fixed pace: gave up after %d rounds, want at least 1", fixed)
	}
	if adaptive < fixed {
		t.Errorf("adaptive pace made %d poll/Resync rounds before giving up, the fixed pace %d: the budget was cut", adaptive, fixed)
	}
	t.Logf("rounds before give-up: fixed pace %d, adaptive pace %d", fixed, adaptive)
}
