package core

import (
	"sync"
	"sync/atomic"
	"time"

	"ncs/internal/buf"
	"ncs/internal/stream"
	"ncs/internal/transport"
)

// The receive side is one engine, and §4.2's conclusion — "all threads
// can be replaced by procedures" — taken as far as asynchronous progress
// allows. Each wire a connection reads (control and data; in-band control
// rides the data wire) has one pump token, one receive — the transport's
// TryRecvBuf — and one readiness source, its notify hook (SetRecvNotify;
// every transport.Conn has both). The source rings a goroutine that waits
// on the connection — a receiver in await, a sender in awaitCtrl — and
// that goroutine takes the token and reads the wire itself (pump): the
// packet it waits for is read by the goroutine that wants it, with no
// hand-off, and a sender waiting for its acknowledgment reads the reply
// that overtakes it. Only when nobody waits does the source ring the
// wire's pump of last resort, which takes the token like any other
// reader, drains the wire and sleeps again. It is there so that acks,
// grants, a bound Inbox and back-pressure progress while the application
// is busy elsewhere.
//
// Every connection has one, a shard's loop: the source re-queues the
// connection on its shard, whose loop pumps it (shard.go) — a private
// shard on the threaded runtime, one of the System's pool on the sharded
// runtime and the fast path (Options.FastPath). The runtimes differ in
// nothing else but the fast path's policies (rto, admit's give-up).

// pumpBudget bounds how many packets one drain reads, so that under a
// busy wire a waiter still looks again at what it waits for, the token
// changes hands, and a shard serves its other connections.
const pumpBudget = 64

// The index of each wire in Connection.in: a waiter reads control first.
const wireCtrl, wireData = 0, 1

// inWire is one transport as its readers share it, with its pump token.
type inWire struct {
	c    *Connection
	t    transport.Conn
	last func() // rings the pump of last resort

	pump    sync.Mutex  // the pump token: its holder reads the wire
	pending atomic.Bool // the source fired since the holder's drain began
}

// waiter is one goroutine parked on a connection (Connection.waiting).
// A reliable sender's is its session's; the others recycle through
// idleWaiters. Either way a wait allocates nothing.
type waiter struct {
	ring  chan struct{} // cap 1: rung to pump the wires, or to look again
	timer *time.Timer   // raises fired and rings ring at at (sleep)
	fired atomic.Bool
	at    time.Time // when timer is due, unless fired; zero: never armed. The owner's.
	blind bool      // waits for flow control, which rings no channel
	next  *waiter
}

func newWaiter() *waiter {
	wt := &waiter{ring: make(chan struct{}, 1)}
	wt.timer = time.AfterFunc(time.Hour, func() { wt.fired.Store(true); ring(wt.ring) })
	wt.timer.Stop()
	return wt
}

// idleWaiters keeps up to 256 idle waiters — one per goroutine waiting
// at once — each a channel and a timer, ≈ 0.3 KB: ≈ 80 KB.
var idleWaiters = buf.NewFreeList(256, newWaiter)

// sleep blocks until wt is rung, and reports false once deadline has
// passed. The timer rings wt too. It is re-armed only when it fired or
// for a deadline earlier than the one it is armed for, and never
// stopped: a waiter whose deadlines keep moving later — a sender's
// retransmission timeout, wait after wait — pays no timer operation and
// no clock read, only one spurious ring per timeout's length. fired, not
// the ring, tells it fired — its ring may come while nobody sleeps, and
// go to a receiver's wait (await) instead — and stays up until the next
// sleep re-arms.
func (wt *waiter) sleep(deadline time.Time) bool {
	if wt.fired.Swap(false) || wt.at.IsZero() || deadline.Before(wt.at) {
		wt.at = deadline
		wt.timer.Reset(time.Until(deadline))
	}
	<-wt.ring
	return !wt.fired.Load() || time.Now().Before(deadline)
}

func ring(ch chan struct{}) {
	select {
	case ch <- struct{}{}:
	default:
	}
}

// listen builds the connection's wires and hooks their readiness
// sources, which call arrived. last is the wires' pump of last resort:
// what arrived rings it when nobody waits.
func (c *Connection) listen(last func()) {
	data := &inWire{c: c, t: c.data, last: last}
	ctrl := data // in-band: control rides the data wire
	if !c.opts.InbandControl {
		ctrl = &inWire{c: c, t: c.ctrl, last: last}
	}
	c.in = [2]*inWire{ctrl, data}
	for _, w := range c.in {
		w.t.SetRecvNotify(w.arrived) // fires once now: nothing that came first is missed
	}
}

// arrived is the wire's readiness source firing: a packet may be waiting,
// or the transport died. It rings the newest waiter, or the pump of last
// resort when nobody waits, and never blocks.
func (w *inWire) arrived() {
	w.pending.Store(true)
	w.c.waitMu.Lock()
	if p := w.c.waiting; p != nil {
		ring(p.ring)
	} else {
		w.last()
	}
	w.c.waitMu.Unlock()
}

// park registers wt as waiting on c. A waiter parks before it looks at
// what it waits for, so nothing that happens after the look can go by
// unrung.
func (c *Connection) park(wt *waiter, blind bool) {
	if wt.blind = blind; blind {
		c.blind.Add(1)
	}
	c.waitMu.Lock()
	wt.next, c.waiting = c.waiting, wt
	c.waitMu.Unlock()
}

// unpark ends wt's wait. A ring it left unanswered may have been the only
// one for a packet still unread: unpark hands that on. (One that comes
// after costs the waiter's next wait a spurious look.)
func (c *Connection) unpark(wt *waiter) {
	c.waitMu.Lock()
	for p := &c.waiting; *p != nil; p = &(*p).next {
		if *p == wt {
			*p = wt.next
			break
		}
	}
	c.waitMu.Unlock()
	if wt.blind {
		c.blind.Add(-1)
	}
	for _, w := range c.in {
		if w.pending.Load() {
			w.arrived()
		}
	}
}

// wakeAll rings every waiter — with blind set, only the blind ones,
// the senders waiting for flow control to admit them: a grant announces
// itself on no channel, so every flow-control packet read off the wire,
// and a stream's close, rings them.
func (c *Connection) wakeAll(blind bool) {
	if blind && c.blind.Load() == 0 {
		return
	}
	c.waitMu.Lock()
	for p := c.waiting; p != nil; p = p.next {
		if p.blind || !blind {
			ring(p.ring)
		}
	}
	c.waitMu.Unlock()
}

// pump is a waiter's — or the pump of last resort's, a shard's loop —
// turn at the connection's wires: each whose source fired and
// whose token is free, it reads (readIn) holding the token, control
// first, so a sender reads the data that overtakes its acknowledgment
// and a receiver the grants that trail its message. A message completing
// on want, the caller's own lane whose mailbox it found empty, is
// returned directly (got). read reports that packets were read: the
// caller looks again at what it waits for, and pumps again before it
// sleeps. A holder leaving a wire that may hold more — the drain's
// budget ran out, or it stopped at an acknowledgment for the caller —
// marks it pending again; one that finds the source fired during a drain
// that read nothing takes the token again; one whose try fails can
// sleep, for the holder looks again. A sender with an acknowledgment
// still on ack reads nothing.
func (c *Connection) pump(want *stream.Mailbox[Message], ack chan ctrlEvent) (m Message, got, read bool) {
	for _, w := range c.in {
		for len(ack) == 0 && w.pending.Load() && w.pump.TryLock() {
			w.pending.Store(false)
			mm, ok, n := c.readIn(w, want, ack)
			if n == pumpBudget || len(ack) > 0 {
				w.pending.Store(true)
			}
			w.pump.Unlock()
			if ok {
				m, got, want = mm, true, nil
			}
			if n > 0 {
				read = true
				break
			}
		}
	}
	return m, got, read
}

// readIn is the one drain, run by pump under the wire's token: it reads
// what waits on w, at most pumpBudget packets (n), through ingest (the
// data wire, in-band control with it) or demuxControl. It stops early
// when the default lane is at depth (dataPaused; the consumer that frees
// a slot fires the source again, resume), and at the first
// acknowledgment deposited on ack, a sender's own channel, which it
// takes before it reads on: a channel left to fill would drop what
// overflows, and the peer re-acknowledges only as it reads. Once the connection closed it reads nothing: Close's
// barrier is the token, and nothing may touch the lanes past it.
func (c *Connection) readIn(w *inWire, want *stream.Mailbox[Message], ack chan ctrlEvent) (m Message, got bool, n int) {
	data := w == c.in[wireData]
	for ; n < pumpBudget && len(ack) == 0 && c.Err() == nil && !(data && c.dataPaused()); n++ {
		b, err := w.t.TryRecvBuf()
		if err != nil {
			go c.Close() // transport death is connection death
		}
		if b == nil {
			break
		}
		if !data {
			c.demuxControl(b)
			b.Release()
		} else if mm, ok := c.ingest(b, want); ok {
			m, got, want = mm, true, nil
		}
	}
	return m, got, n
}

// awaitCtrl is a sender's wait on the connection, parked as wt: for
// its session's next acknowledgment (ack), or — ack nil — for flow
// control to admit it (admitted). Parked, it reads the wires itself
// whenever rung with a pump free (pump), so the packet it waits for is
// usually read by the goroutine that wants it. Everything it waits for
// rings wt: an acknowledgment deposited on ack (routeControl), a grant
// (wakeAll), the close. Having its acknowledgment, a sender reads what
// is still pending behind it — the rest of the peer's ack burst, the
// peer's reply — rather than leave it to the pump of last resort. ok is
// false when d passed first.
func (c *Connection) awaitCtrl(wt *waiter, ack chan ctrlEvent, admitted func() bool, d time.Duration) (ev ctrlEvent, ok bool, err error) {
	c.park(wt, ack == nil)
	defer c.unpark(wt)
	deadline := time.Now().Add(d)
	for {
		if !ok {
			select {
			case ev = <-ack: // a nil channel: never
				ok = true
			default:
				ok = admitted != nil && admitted()
			}
		}
		_, _, read := c.pump(nil, ack)
		switch {
		case ok:
			return ev, true, nil
		case read:
			continue
		case c.Err() != nil:
			return ev, false, ErrConnClosed
		case !wt.sleep(deadline):
			return ev, false, nil
		}
	}
}
