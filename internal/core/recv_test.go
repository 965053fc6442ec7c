package core

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"ncs/internal/errctl"
	"ncs/internal/flowctl"
	"ncs/internal/transport"
)

// awaitCond polls until ok reports true; after 5 s it fails the test
// with what.
func awaitCond(t *testing.T, what string, ok func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !ok() {
		if time.Now().After(deadline) {
			t.Fatal(what)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestRecvDrainsBeforeReportingClose: messages completed before Close
// are delivered, in order, by every receive variant on every runtime
// before any of them reports the close. The timed variants used to pick
// at random between a ready message and the ready close.
func TestRecvDrainsBeforeReportingClose(t *testing.T) {
	const msgs = 24
	for _, rt := range allRuntimes {
		for _, timed := range []bool{false, true} {
			name := rt.name + "/Recv"
			if timed {
				name += "Timeout"
			}
			t.Run(name, func(t *testing.T) {
				opts := Options{Interface: transport.HPI}
				rt.set(&opts)
				conn, peer, cleanup := newPairT(t, opts)
				defer cleanup()
				for i := 0; i < msgs; i++ {
					if err := conn.Send(reuseMsg(0, uint32(i), 16)); err != nil {
						t.Fatal(err)
					}
				}
				awaitCond(t, "not every message reached the mailbox", func() bool { return peer.box.Len() == msgs })
				peer.Close()

				recv := peer.Recv
				if timed {
					recv = func() ([]byte, error) { return peer.RecvTimeout(5 * time.Second) }
				}
				for i := 0; i < msgs; i++ {
					m, err := recv()
					if err != nil {
						t.Fatalf("message %d of %d completed before Close: %v", i, msgs, err)
					}
					if err := checkReuseMsg(m, 0, uint32(i)); err != nil {
						t.Fatal(err)
					}
				}
				if _, err := recv(); !errors.Is(err, ErrConnClosed) {
					t.Fatalf("drained, closed connection: err = %v, want ErrConnClosed", err)
				}
			})
		}
	}
}

// TestTimedRecvOfWaitingMessageAllocatesNothing: a deadline costs a
// timer only when the receiver actually has to wait. internal/group
// makes one timed receive per collective step; each used to allocate a
// time.After timer whether or not its message was already there.
func TestTimedRecvOfWaitingMessageAllocatesNothing(t *testing.T) {
	const runs = 40 // AllocsPerRun calls once more, to warm up
	t.Run("Connection", func(t *testing.T) {
		for _, rt := range allRuntimes {
			t.Run(rt.name, func(t *testing.T) {
				opts := Options{Interface: transport.HPI}
				rt.set(&opts)
				conn, peer, cleanup := newPairT(t, opts)
				defer cleanup()
				for i := 0; i < 2*(runs+1); i++ {
					if err := conn.Send([]byte("waiting")); err != nil {
						t.Fatal(err)
					}
				}
				awaitCond(t, "not every message reached the mailbox", func() bool { return peer.box.Len() == 2*(runs+1) })
				untimed := testing.AllocsPerRun(runs, func() {
					m, err := peer.RecvMessage()
					if err != nil {
						t.Fatal(err)
					}
					m.Release()
				})
				timed := testing.AllocsPerRun(runs, func() {
					m, err := peer.RecvMessageTimeout(time.Minute)
					if err != nil {
						t.Fatal(err)
					}
					m.Release()
				})
				if timed > untimed {
					t.Fatalf("RecvMessageTimeout of a waiting message allocates %v times, RecvMessage %v", timed, untimed)
				}
			})
		}
	})
	t.Run("Inbox", func(t *testing.T) {
		conn, peer, cleanup := newPairT(t, Options{Interface: transport.HPI})
		defer cleanup()
		ib := NewInbox(0)
		defer ib.Close()
		if err := peer.BindInbox(ib); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 2*(runs+1); i++ {
			if err := conn.Send([]byte("waiting")); err != nil {
				t.Fatal(err)
			}
		}
		awaitCond(t, "not every message reached the inbox", func() bool { return ib.box.Len() == 2*(runs+1) })
		untimed := testing.AllocsPerRun(runs, func() {
			im, err := ib.Recv()
			if err != nil {
				t.Fatal(err)
			}
			im.Msg.Release()
		})
		timed := testing.AllocsPerRun(runs, func() {
			im, err := ib.RecvTimeout(time.Minute)
			if err != nil {
				t.Fatal(err)
			}
			im.Msg.Release()
		})
		if timed > untimed || timed != 0 {
			t.Fatalf("Inbox.RecvTimeout of a waiting message allocates %v times (a timer?), Inbox.Recv %v; want 0", timed, untimed)
		}
	})
}

// TestNonPositiveTimeoutMeansNoDeadline: every timed receive reads
// d ≤ 0 as "no deadline" — they all sleep in one loop, so they agree.
// (Inbox.RecvTimeout used to build a zero timer and time out at once.)
// Each entry point is called with nothing to take; it must still be
// waiting when what it waits for is supplied, and return that.
func TestNonPositiveTimeoutMeansNoDeadline(t *testing.T) {
	for _, d := range []time.Duration{0, -time.Second} {
		nw := NewNetwork()
		defer nw.Close()
		a, _ := nw.NewSystem("nodeadline-a")
		b, _ := nw.NewSystem("nodeadline-b")
		opts := Options{Interface: transport.HPI}
		conn, err := a.Connect("nodeadline-b", opts)
		if err != nil {
			t.Fatal(err)
		}
		peer, err := b.AcceptTimeout(5 * time.Second)
		if err != nil {
			t.Fatal(err)
		}
		bound, err := a.Connect("nodeadline-b", opts)
		if err != nil {
			t.Fatal(err)
		}
		boundPeer, err := b.AcceptTimeout(5 * time.Second)
		if err != nil {
			t.Fatal(err)
		}
		ib := NewInbox(0)
		defer ib.Close()
		if err := boundPeer.BindInbox(ib); err != nil {
			t.Fatal(err)
		}
		out, err := conn.OpenStream()
		if err != nil {
			t.Fatal(err)
		}
		in, err := peer.AcceptStreamTimeout(5 * time.Second)
		if err != nil {
			t.Fatal(err)
		}

		for _, entry := range []struct {
			name   string
			wait   func() error // the timed receive under test
			supply func() error // what ends its wait
		}{
			{"Connection.RecvTimeout",
				func() error { _, err := peer.RecvTimeout(d); return err },
				func() error { return conn.Send([]byte("lane 0")) }},
			{"Stream.RecvTimeout",
				func() error { _, err := in.RecvTimeout(d); return err },
				func() error { return out.Send([]byte("stream")) }},
			{"Connection.AcceptStreamTimeout",
				func() error { _, err := peer.AcceptStreamTimeout(d); return err },
				func() error { _, err := conn.OpenStream(); return err }},
			{"System.AcceptTimeout",
				func() error { _, err := b.AcceptTimeout(d); return err },
				func() error { _, err := a.Connect("nodeadline-b", opts); return err }},
			{"Inbox.RecvTimeout",
				func() error { im, err := ib.RecvTimeout(d); im.Msg.Release(); return err },
				func() error { return bound.Send([]byte("inbox")) }},
		} {
			t.Run(fmt.Sprintf("%s(%v)", entry.name, d), func(t *testing.T) {
				got := make(chan error, 1)
				go func() { got <- entry.wait() }()
				select {
				case err := <-got:
					t.Fatalf("returned %v with nothing to take: d <= 0 must mean no deadline", err)
				case <-time.After(30 * time.Millisecond):
				}
				if err := entry.supply(); err != nil {
					t.Fatal(err)
				}
				select {
				case err := <-got:
					if err != nil {
						t.Fatalf("after its wait was answered: %v", err)
					}
				case <-time.After(5 * time.Second):
					t.Fatal("still waiting after what it waits for arrived")
				}
			})
		}
	}
}

// TestAsyncProgress pins what the pump of last resort — a shard's loop,
// private or pooled — is for: on every runtime a
// reliable, credit-controlled sender
// completes every Send while the peer application never calls Recv —
// its acknowledgments and grants flow although nobody waits on the
// peer's wires — with more messages than the credit window admits at
// once and no more than the default lane holds. In the mid-stream cells
// the peer's receiver enters Recv halfway and reads the wire itself from
// then on; either way every message arrives exactly once, in order.
func TestAsyncProgress(t *testing.T) {
	const msgs, window = 64, 4
	for _, rt := range allRuntimes {
		for _, midstream := range []bool{false, true} {
			name := rt.name + "/unread"
			if midstream {
				name = rt.name + "/midstream"
			}
			t.Run(name, func(t *testing.T) {
				opts := Options{
					Interface:    transport.HPI,
					ErrorControl: errctl.SelectiveRepeat,
					FlowControl:  flowctl.Credit,
					FlowConfig:   flowctl.Config{InitialCredits: window, MaxCredits: window},
					SDUSize:      256,
				}
				rt.set(&opts)
				conn, peer, cleanup := newPairT(t, opts)
				defer cleanup()
				sent := make(chan int, msgs)
				errs := make(chan error, 1)
				go func() {
					for i := 0; i < msgs; i++ {
						if err := conn.Send(reuseMsg(0, uint32(i), 600)); err != nil { // 3 SDUs
							errs <- fmt.Errorf("send %d: %w", i, err)
							return
						}
						sent <- i
					}
					errs <- nil
				}()
				if midstream {
					for i := 0; i < msgs/2; i++ {
						<-sent
					}
				}
				recv := func(from int) {
					for seq := from; seq < msgs; seq++ {
						m, err := peer.RecvTimeout(10 * time.Second)
						if err == nil {
							err = checkReuseMsg(m, 0, uint32(seq))
						}
						if err != nil {
							t.Fatalf("recv %d: %v", seq, err)
						}
					}
					if _, err := peer.RecvTimeout(20 * time.Millisecond); err == nil {
						t.Fatal("a message was delivered twice")
					}
				}
				if midstream {
					recv(0)
				}
				select {
				case err := <-errs:
					if err != nil {
						t.Fatal(err)
					}
				case <-time.After(20 * time.Second):
					t.Fatalf("%d of %d sends completed while the peer did not receive", len(sent), msgs)
				}
				if !midstream {
					if n := peer.box.Len(); n != msgs {
						t.Fatalf("%d messages wait in the peer's mailbox, want all %d", n, msgs)
					}
					recv(0)
				}
			})
		}
	}
}
