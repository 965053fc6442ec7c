package core

import (
	"errors"
	"fmt"
	"runtime"
	"testing"
	"time"

	"ncs/internal/flowctl"
	"ncs/internal/transport"
)

// inboxFlood is the fixture of the Inbox conformance cells: conns
// connections from one system to another, every accepting end bound to
// one small inbox, plus one unbound pair (on the same, single shard)
// that must keep flowing whatever the inbox does. Each client floods
// msgs messages from its own goroutine, under a credit window of fixed
// size.
type inboxFlood struct {
	t       *testing.T
	nw      *Network
	ib      *Inbox
	peers   []*Connection       // accepting ends, bound to ib
	index   map[*Connection]int // peer → its position in peers
	next    []uint32            // per peer: the sequence number due next
	other   *Connection         // the unbound pair
	otherP  *Connection
	sendErr chan error
}

const (
	floodConns  = 8
	floodMsgs   = 300
	floodDepth  = 4
	floodWindow = 8
)

// withheld reports whether c's default lane withholds its peer's grant.
func withheld(c *Connection) bool {
	l := c.lane.Load()
	return l != nil && l.Held()
}

func startInboxFlood(t *testing.T, rt Runtime) *inboxFlood {
	t.Helper()
	f := &inboxFlood{
		t:       t,
		nw:      NewNetwork(),
		ib:      NewInbox(floodDepth),
		index:   make(map[*Connection]int),
		next:    make([]uint32, floodConns),
		sendErr: make(chan error, floodConns),
	}
	a, _ := f.nw.NewSystem("flood-a")
	b, _ := f.nw.NewSystem("flood-b")
	a.SetShards(1)
	b.SetShards(1)
	opts := Options{
		Interface:  transport.HPI,
		Runtime:    rt,
		FlowConfig: flowctl.Config{InitialCredits: floodWindow, MaxCredits: floodWindow},
	}
	connect := func() (*Connection, *Connection) {
		c, err := a.Connect("flood-b", opts)
		if err != nil {
			t.Fatal(err)
		}
		p, err := b.AcceptTimeout(5 * time.Second)
		if err != nil {
			t.Fatal(err)
		}
		return c, p
	}
	f.other, f.otherP = connect()
	for i := 0; i < floodConns; i++ {
		c, p := connect()
		if err := p.BindInbox(f.ib); err != nil {
			t.Fatal(err)
		}
		f.index[p] = i
		f.peers = append(f.peers, p)
		go func(i int) {
			for seq := uint32(0); seq < floodMsgs; seq++ {
				if err := c.Send(reuseMsg(byte(i), seq, 16)); err != nil {
					f.sendErr <- fmt.Errorf("connection %d, message %d: %w", i, seq, err)
					return
				}
			}
			f.sendErr <- nil
		}(i)
	}
	return f
}

// observe is called wherever a cell looks at the inbox: it is never
// deeper than the bound withheld credit sets — its depth, plus per
// connection the window its peer was granted before the grant was
// withheld and the message that granted it, plus what each stalled
// sender's resynchronisation repairs (repairs).
func (f *inboxFlood) observe() {
	f.t.Helper()
	r := repairs(f.peers[0].opts.AckTimeout)
	if n, bound := f.ib.box.Len(), floodDepth+floodConns*(floodWindow+1+r); n > bound {
		f.t.Fatalf("inbox holds %d messages, want at most %d: depth %d + %d connections × (window %d + 1 + %d repairs)",
			n, bound, floodDepth, floodConns, floodWindow, r)
	}
}

// awaitAllWithheld waits for the flood to fill the inbox and for every
// producer's peer to have been cut off behind it: each bound connection
// withholds its grant.
func (f *inboxFlood) awaitAllWithheld() {
	f.t.Helper()
	awaitCond(f.t, "the bound connections never all withheld their grants behind the full inbox", func() bool {
		f.observe()
		for _, p := range f.peers {
			if !withheld(p) {
				return false
			}
		}
		return f.ib.box.Len() >= floodDepth
	})
}

// took checks one delivery against its connection's sequence: exactly
// once, in order.
func (f *inboxFlood) took(p *Connection, data []byte) {
	f.t.Helper()
	i, ok := f.index[p]
	if !ok {
		f.t.Fatalf("delivery attributed to connection %d, which is not bound", p.ID())
	}
	if err := checkReuseMsg(data, byte(i), f.next[i]); err != nil {
		f.t.Fatalf("connection %d: %v", i, err)
	}
	f.next[i]++
}

// finish requires every message of every connection to have been taken
// and every sender to have finished.
func (f *inboxFlood) finish() {
	f.t.Helper()
	for i, n := range f.next {
		if n != floodMsgs {
			f.t.Fatalf("connection %d: %d of %d messages arrived", i, n, floodMsgs)
		}
	}
	for range f.peers {
		if err := <-f.sendErr; err != nil {
			f.t.Fatal(err)
		}
	}
}

// TestInboxConformance floods a small inbox from many connections ahead
// of a consumer that starts late, on both runtimes that can bind one and
// through both receive variants: every message arrives exactly once and
// in its connection's order, the inbox never outgrows the bound withheld
// credit sets, only the bound connections withhold, each is counted in
// the gauge once however often it is serviced, and a finished cell leaves
// no withheld grant, goroutine, pooled buffer or timer behind. The
// closed cells close the inbox mid-flood: what it held drains through
// it, and the rest arrives on the connections' own Recv.
func TestInboxConformance(t *testing.T) {
	for _, rt := range []Runtime{RuntimeThreaded, RuntimeSharded} {
		for _, variant := range []string{"Recv", "RecvTimeout", "closed"} {
			t.Run(rt.String()+"/"+variant, func(t *testing.T) {
				goroutines := runtime.NumGoroutine()
				parkedBefore := mParkedConns.Value()
				f := startInboxFlood(t, rt)
				defer f.nw.Close()
				defer f.ib.Close()
				recv := f.ib.Recv
				if variant == "RecvTimeout" {
					recv = func() (InboxMessage, error) { return f.ib.RecvTimeout(10 * time.Second) }
				}

				f.awaitAllWithheld()
				if rt == RuntimeSharded {
					// A withholding connection is still serviced (its wires
					// are read); each pass must find its grant withheld once.
					for round := 0; round < 3; round++ {
						for _, p := range f.peers {
							p.sh.requeue(p)
						}
						awaitCond(t, "the shard never serviced the re-queued connections", func() bool {
							for _, p := range f.peers {
								if p.queued.Load() {
									return false
								}
							}
							return true
						})
					}
				}
				if got, want := mParkedConns.Value()-parkedBefore, int64(floodConns); got != want {
					t.Fatalf("core.shard.parked_conns rose by %d behind the full inbox, want %d", got, want)
				}
				go f.other.Send([]byte("still flowing"))
				if m, err := f.otherP.RecvTimeout(5 * time.Second); err != nil || string(m) != "still flowing" {
					t.Fatalf("an unbound connection on the same shard: %q, %v", m, err)
				}
				if withheld(f.otherP) {
					t.Fatal("the unbound connection withholds its grant")
				}

				// The late consumer.
				total := floodConns * floodMsgs
				if variant == "closed" {
					total = floodMsgs / 2 // no connection can have delivered everything yet
				}
				for i := 0; i < total; i++ {
					im, err := recv()
					if err != nil {
						t.Fatalf("recv %d of %d: %v", i, total, err)
					}
					f.took(im.Conn, im.Msg.Data)
					im.Msg.Release()
					f.observe()
				}
				if variant == "closed" {
					// Close with every producer cut off, so none is between
					// its check and its Put: what the inbox holds drains
					// through it, everything after lands on the connection.
					f.awaitAllWithheld()
					f.ib.Close()
					for {
						im, err := f.ib.Recv()
						if errors.Is(err, ErrInboxClosed) {
							break
						}
						if err != nil {
							t.Fatal(err)
						}
						f.took(im.Conn, im.Msg.Data)
						im.Msg.Release()
					}
					for i, p := range f.peers {
						for f.next[i] < floodMsgs {
							m, err := p.RecvTimeout(10 * time.Second)
							if err != nil {
								t.Fatalf("connection %d after the unbind, message %d: %v", i, f.next[i], err)
							}
							f.took(p, m)
						}
					}
				}
				f.finish()
				if im, err := f.ib.RecvTimeout(20 * time.Millisecond); err == nil {
					t.Fatalf("a message arrived twice: connection %d delivered %q after its last", f.index[im.Conn], im.Msg.Data)
				}
				awaitCond(t, "core.shard.parked_conns did not return to where it started", func() bool {
					return mParkedConns.Value() == parkedBefore
				})

				f.nw.Close()
				if err := awaitQuiescence(goroutines, 5*time.Second); err != nil {
					t.Fatal(err)
				}
			})
		}
	}
}

// TestParkedGaugeSurvivesClosePaused: a sharded connection closed while
// it withholds its peer's grant — behind a full inbox, or at
// deliveredQueueDepth — leaves core.shard.parked_conns where it found it.
func TestParkedGaugeSurvivesClosePaused(t *testing.T) {
	for _, lane := range []string{"inbox", "lane0"} {
		t.Run(lane, func(t *testing.T) {
			before := mParkedConns.Value()
			conn, peer, cleanup := newPairT(t, Options{Interface: transport.HPI, Runtime: RuntimeSharded})
			defer cleanup()
			if lane == "inbox" {
				ib := NewInbox(1)
				defer ib.Close()
				if err := peer.BindInbox(ib); err != nil {
					t.Fatal(err)
				}
			}
			go func() {
				for conn.Send([]byte("unread")) == nil { // until the cleanup closes it
				}
			}()
			awaitCond(t, "the connection never withheld its grant", func() bool { return mParkedConns.Value() == before+1 })
			peer.Close()
			if got := mParkedConns.Value(); got != before {
				t.Fatalf("core.shard.parked_conns = %d after closing the withholding connection, want %d", got, before)
			}
		})
	}
}

// TestCloseLeavesInboxParkedList: a connection closed while it withholds
// its grant behind a full Inbox nobody reads leaves nothing behind,
// whatever its runtime. Its gate is shut; the gauge counts only the live
// connection, still cut off behind the inbox that is still full; the
// inbox keeps no list of connections, so the closed one is referenced
// only by the messages it delivered before its close, and once they are
// read nothing is; and closing the rest leaves no pooled buffer,
// goroutine or timer behind.
func TestCloseLeavesInboxParkedList(t *testing.T) {
	for _, rt := range allRuntimes {
		t.Run(rt.name, func(t *testing.T) {
			goroutines := runtime.NumGoroutine()
			gauge := mParkedConns.Value()
			opts := Options{Interface: transport.HPI}
			rt.set(&opts)
			nw := NewNetwork()
			defer nw.Close()
			a, _ := nw.NewSystem("parked-a")
			b, _ := nw.NewSystem("parked-b")
			ib := NewInbox(2)
			defer ib.Close()
			var peers []*Connection
			for i := 0; i < 2; i++ {
				conn, err := a.Connect("parked-b", opts)
				if err != nil {
					t.Fatal(err)
				}
				peer, err := b.AcceptTimeout(5 * time.Second)
				if err != nil {
					t.Fatal(err)
				}
				if err := peer.BindInbox(ib); err != nil {
					t.Fatal(err)
				}
				peers = append(peers, peer)
				go func() {
					for conn.Send([]byte("nobody reads this")) == nil { // until the network closes
					}
				}()
			}
			awaitCond(t, "the two connections never withheld their grants behind the full inbox", func() bool {
				return withheld(peers[0]) && withheld(peers[1])
			})

			peers[0].Close()
			if withheld(peers[0]) {
				t.Fatal("the closed connection still withholds a grant")
			}
			if peers[1].Err() != nil || !withheld(peers[1]) {
				t.Fatalf("the live connection: Err %v, withheld %v; want it cut off behind the still-full inbox", peers[1].Err(), withheld(peers[1]))
			}
			if got, wantGauge := mParkedConns.Value(), gauge+1; got != wantGauge {
				t.Fatalf("core.shard.parked_conns = %d with one connection closed and one withholding, want %d", got, wantGauge)
			}
			refers := func() (n int) {
				ib.box.Each(func(im *InboxMessage) {
					if im.Conn == peers[0] {
						n++
					}
				})
				return n
			}
			for refers() > 0 {
				im, err := ib.RecvTimeout(5 * time.Second)
				if err != nil {
					t.Fatal(err)
				}
				im.Msg.Release()
			}
			peers[1].Close()
			if got := mParkedConns.Value(); got != gauge {
				t.Fatalf("core.shard.parked_conns = %d after both closed, started at %d", got, gauge)
			}
			ib.Close()
			nw.Close()
			if err := awaitQuiescence(goroutines, 5*time.Second); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestBindMovesTheBacklog: a connection bound while its default lane is
// at depth — deliveredQueueDepth messages queued on it or more, the rest
// held back by the grant it withholds — delivers every message through
// the inbox, in order, on every runtime. The bind moves what its own mailbox
// holds into the inbox, ahead of anything read after; without the move
// the first message would never arrive there.
func TestBindMovesTheBacklog(t *testing.T) {
	const msgs = deliveredQueueDepth + 50
	for _, rt := range allRuntimes {
		t.Run(rt.name, func(t *testing.T) {
			opts := Options{Interface: transport.HPI}
			rt.set(&opts)
			conn, peer, cleanup := newPairT(t, opts)
			defer cleanup()
			sent := make(chan error, 1)
			go func() {
				for seq := uint32(0); seq < msgs; seq++ {
					if err := conn.Send(reuseMsg(1, seq, 16)); err != nil {
						sent <- fmt.Errorf("message %d: %w", seq, err)
						return
					}
				}
				sent <- nil
			}()
			awaitCond(t, "the default lane never reached its depth", func() bool {
				return peer.box.Len() >= deliveredQueueDepth
			})

			ib := NewInbox(0)
			defer ib.Close()
			if err := peer.BindInbox(ib); err != nil {
				t.Fatal(err)
			}
			for seq := uint32(0); seq < msgs; seq++ {
				im, err := ib.RecvTimeout(5 * time.Second)
				if err != nil {
					t.Fatalf("message %d of %d: %v", seq, msgs, err)
				}
				if im.Conn != peer {
					t.Fatalf("message %d attributed to connection %d", seq, im.Conn.ID())
				}
				if err := checkReuseMsg(im.Msg.Data, 1, seq); err != nil {
					t.Fatal(err)
				}
				im.Msg.Release()
			}
			if err := <-sent; err != nil {
				t.Fatal(err)
			}
			if n := peer.box.Len(); n != 0 {
				t.Fatalf("%d messages stayed on the connection's own lane", n)
			}
		})
	}
}
