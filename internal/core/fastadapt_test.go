package core

import (
	"bytes"
	"testing"
	"time"

	"ncs/internal/errctl"
	"ncs/internal/flowctl"
	"ncs/internal/netsim"
	"ncs/internal/transport"
)

// TestFastPathAdaptiveRecoversLoss: 500 four-SDU echoes on a fast-path
// connection with AdaptiveTimeout set, over a link that drops 2 % of the
// data packets in each direction, all arrive intact, and some of them
// needed a retransmission. The verdict is in counts, never in how long
// anything took. (The fast path's timers do not adapt yet — rto() returns
// the configured AckTimeout there, see ROADMAP "Let the fast path adapt";
// the tests of the adaptive value and of admit's give-up budget arrive
// with the change they test.)
func TestFastPathAdaptiveRecoversLoss(t *testing.T) {
	conn, peer, cleanup := newPairT(t, Options{
		Interface:       transport.HPI,
		HPILink:         &netsim.Params{LossRate: 0.02},
		FastPath:        true,
		ErrorControl:    errctl.SelectiveRepeat,
		FlowControl:     flowctl.Credit,
		AdaptiveTimeout: true,
		AckTimeout:      10 * time.Millisecond,
	})
	defer cleanup()
	go func() {
		for {
			m, err := peer.Recv()
			if err != nil || peer.Send(m) != nil {
				return
			}
		}
	}()
	msg := make([]byte, 16*1024)
	for i := 0; i < 500; i++ {
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
	if conn.Stats().Retransmissions+peer.Stats().Retransmissions == 0 {
		t.Error("no retransmission over a 2 % loss link: the losses were not exercised")
	}
}
