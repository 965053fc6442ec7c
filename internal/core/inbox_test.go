package core

import (
	"errors"
	"fmt"
	"runtime"
	"slices"
	"testing"
	"time"

	"ncs/internal/transport"
)

// inboxFlood is the fixture of the Inbox conformance cells: conns
// connections from one system to another, every accepting end bound to
// one small inbox, plus one unbound pair (on the same, single shard)
// that must keep flowing whatever the inbox does. Each client floods
// msgs messages from its own goroutine.
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
	floodConns = 8
	floodMsgs  = 300
	floodDepth = 4
)

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
	opts := Options{Interface: transport.HPI, Runtime: rt}
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
// deeper than its depth plus one message per producer already past the
// check when the last slot filled.
func (f *inboxFlood) observe() {
	f.t.Helper()
	if n := f.ib.box.Len(); n > floodDepth+floodConns {
		f.t.Fatalf("inbox holds %d messages, want at most depth %d + %d producers", n, floodDepth, floodConns)
	}
}

// awaitAllPaused waits for the flood to fill the inbox and for every
// producer to have stopped behind it.
func (f *inboxFlood) awaitAllPaused() {
	f.t.Helper()
	awaitCond(f.t, "the producers never all paused behind the full inbox", func() bool {
		f.observe()
		for _, p := range f.peers {
			if !p.paused.Load() {
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
// in its connection's order, the inbox never outgrows its bound, only
// the bound connections pause, each producer is registered for its
// wake-up once however often it is serviced, and a finished cell leaves
// no paused connection, goroutine, pooled buffer or timer behind. The
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

				f.awaitAllPaused()
				if rt == RuntimeSharded {
					// A paused connection is still serviced (control keeps
					// arriving); each pass must find it already registered.
					for round := 0; round < 3; round++ {
						for _, p := range f.peers {
							p.sh.shard.requeue(p)
						}
						awaitCond(t, "the shard never serviced the re-queued connections", func() bool {
							for _, p := range f.peers {
								if p.sh.queued.Load() {
									return false
								}
							}
							return true
						})
					}
					if got, want := mParkedConns.Value()-parkedBefore, int64(floodConns); got != want {
						t.Fatalf("core.shard.parked_conns rose by %d behind the full inbox, want %d", got, want)
					}
				}
				if n := f.ib.parked.Len(); n != floodConns {
					t.Fatalf("%d producers registered with the inbox, want each of %d once", n, floodConns)
				}
				go f.other.Send([]byte("still flowing"))
				if m, err := f.otherP.RecvTimeout(5 * time.Second); err != nil || string(m) != "still flowing" {
					t.Fatalf("an unbound connection on the same shard: %q, %v", m, err)
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
					// Close with every producer stopped, so none is between
					// its check and its Put: what the inbox holds drains
					// through it, everything after lands on the connection.
					f.awaitAllPaused()
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
// paused behind a full inbox leaves core.shard.parked_conns where it
// found it, exactly as one closed while paused at deliveredQueueDepth.
func TestParkedGaugeSurvivesClosePaused(t *testing.T) {
	for _, lane := range []string{"inbox", "lane0"} {
		t.Run(lane, func(t *testing.T) {
			before := mParkedConns.Value()
			conn, peer, cleanup := newPairT(t, Options{Interface: transport.HPI, Runtime: RuntimeSharded})
			defer cleanup()
			msgs := deliveredQueueDepth + 2
			if lane == "inbox" {
				ib := NewInbox(1)
				defer ib.Close()
				if err := peer.BindInbox(ib); err != nil {
					t.Fatal(err)
				}
				msgs = 3
			}
			for i := 0; i < msgs; i++ {
				if err := conn.Send([]byte("unread")); err != nil {
					t.Fatal(err)
				}
			}
			awaitCond(t, "the connection never paused", func() bool { return mParkedConns.Value() == before+1 })
			peer.Close()
			if got := mParkedConns.Value(); got != before {
				t.Fatalf("core.shard.parked_conns = %d after closing the paused connection, want %d", got, before)
			}
		})
	}
}

// TestCloseLeavesInboxParkedList: a connection closed while parked on a
// full Inbox nobody reads must not stay referenced from Inbox.parked
// until a Recv that may never come. Its Close wakes the inbox's parked
// producers: the closed one is gone from the list, a live one parks
// again behind the inbox that is still full, and core.shard.parked_conns
// counts it, whatever its runtime.
func TestCloseLeavesInboxParkedList(t *testing.T) {
	for _, rt := range allRuntimes[:2] { // fast-path connections cannot bind an Inbox
		t.Run(rt.name, func(t *testing.T) {
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
				for j := 0; j < 4; j++ {
					if err := conn.Send([]byte("nobody reads this")); err != nil {
						t.Fatal(err)
					}
				}
			}
			parked := func() (list []*Connection) {
				ib.parked.Each(func(c **Connection) { list = append(list, *c) })
				return list
			}
			awaitCond(t, "the two producers never parked on the full inbox", func() bool { return len(parked()) == 2 })

			peers[0].Close()
			awaitCond(t, "the live producer did not park again", func() bool { return slices.Equal(parked(), peers[1:]) })
			if peers[1].Err() != nil || !peers[1].paused.Load() {
				t.Fatalf("the live connection: Err %v, paused %v; want it parked behind the still-full inbox", peers[1].Err(), peers[1].paused.Load())
			}
			if got, wantGauge := mParkedConns.Value(), gauge+1; got != wantGauge { // the live one, on every runtime
				t.Fatalf("core.shard.parked_conns = %d with one connection closed and one parked, want %d", got, wantGauge)
			}
			peers[1].Close()
			if list := parked(); len(list) != 0 {
				t.Fatalf("Inbox.parked still references %d closed connections", len(list))
			}
			if got := mParkedConns.Value(); got != gauge {
				t.Fatalf("core.shard.parked_conns = %d after both closed, started at %d", got, gauge)
			}
		})
	}
}
