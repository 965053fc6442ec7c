package core

import (
	"errors"
	"fmt"
	"runtime"
	"testing"
	"time"

	"ncs/internal/buf"
	"ncs/internal/flowctl"
	"ncs/internal/transport"
)

// TestQueuedDeliveriesSurviveAndReturnAtClose: a one-SDU message waits
// in its mailbox as the buffer it arrived in, so each one queued pins a
// pooled buffer — until its owner closes. Then, unread, the buffers go
// back at once: a closed connection's default lane and a closed inbox
// keep their messages readable (as copies of their own — storage is
// poisoned on release here, so a stale view would show), and a reaped
// stream drops them. Every cell leaves the pool, the goroutine count and
// the flow-control timers where it found them.
func TestQueuedDeliveriesSurviveAndReturnAtClose(t *testing.T) {
	buf.PoisonReleased(true)
	defer buf.PoisonReleased(false)
	const msgs = 16
	for _, rt := range allRuntimes {
		for _, lane := range []string{"lane0", "stream", "inbox"} {
			t.Run(rt.name+"/"+lane, func(t *testing.T) {
				goroutines, bufs := runtime.NumGoroutine(), buf.Outstanding()
				// The window covers every message: nothing here is read, so
				// no grant follows the first.
				opts := Options{Interface: transport.HPI, FlowConfig: flowctl.Config{InitialCredits: 2 * msgs}}
				rt.set(&opts)
				conn, peer, cleanup := newPairT(t, opts)
				defer cleanup()
				ib := NewInbox(0)
				defer ib.Close()
				var err error
				if lane == "inbox" {
					if err = peer.BindInbox(ib); err != nil {
						t.Fatal(err)
					}
				}
				// want: pooled buffers pinned once everything is queued.
				send, want := conn.Send, int64(msgs)
				var in *Stream
				if lane == "stream" {
					out, err := conn.OpenStream()
					if err != nil {
						t.Fatal(err)
					}
					send = out.Send
				}
				for i := uint32(0); i < msgs; i++ {
					if err := send(reuseMsg(0, i, 64)); err != nil {
						t.Fatal(err)
					}
				}
				if lane == "stream" {
					// Accepting finds the stream at its first frame.
					if in, err = peer.AcceptStreamTimeout(5 * time.Second); err != nil {
						t.Fatal(err)
					}
				}
				queued := peer.box.Len
				switch lane {
				case "stream":
					queued = in.st.Box().Len
				case "inbox":
					queued = ib.box.Len
				}
				awaitCond(t, "not every message reached its mailbox", func() bool { return queued() == msgs })
				// A control packet on its way — the stream's announcement, which
				// its sender wrote itself — pins a buffer until the peer's
				// shard has read it.
				awaitCond(t, fmt.Sprintf("%d queued one-SDU messages never pinned exactly %d pooled buffers", msgs, want),
					func() bool { return buf.Outstanding()-bufs == want })

				// Close the owner, nothing read.
				switch lane {
				case "lane0":
					peer.Close()
				case "stream":
					in.Close()
				case "inbox":
					ib.Close()
				}
				awaitCond(t, "the closed owner still pins pooled buffers", func() bool { return buf.Outstanding() == bufs })

				recv, closed := peer.RecvMessage, ErrConnClosed
				switch lane {
				case "stream":
					recv, closed = in.RecvMessage, ErrStreamClosed
				case "inbox":
					recv, closed = func() (Message, error) { im, err := ib.Recv(); return im.Msg, err }, ErrInboxClosed
				}
				if lane != "stream" { // a reaped stream drops what it held
					for i := uint32(0); i < msgs; i++ {
						m, err := recv()
						if err != nil {
							t.Fatalf("message %d of %d, queued before the close: %v", i, msgs, err)
						}
						if err := checkReuseMsg(m.Data, 0, i); err != nil {
							t.Fatalf("after the close: %v", err)
						}
						m.Release()
					}
				}
				if _, err := recv(); !errors.Is(err, closed) {
					t.Fatalf("drained and closed: err = %v, want %v", err, closed)
				}

				cleanup()
				ib.Close()
				if err := awaitQuiescence(goroutines, 5*time.Second); err != nil {
					t.Fatal(err)
				}
			})
		}
	}
}
