package core

import (
	"errors"
	"sync"
	"sync/atomic"
	"time"
)

// ErrInboxClosed is returned by Inbox receives after Close once the
// queue has drained.
var ErrInboxClosed = errors.New("ncs: inbox closed")

// InboxMessage is one delivery through an Inbox: the message plus the
// connection it arrived on (the reply path for request/response
// servers).
type InboxMessage struct {
	Conn *Connection
	Msg  Message
}

// Inbox is a shared delivery queue: any number of connections bind to
// it (Connection.BindInbox) and their completed messages merge into
// one stream. It is the accept-side counterpart of the sharded
// runtime: a fixed pool of workers looping on Inbox.Recv can serve
// thousands of connections, where one Recv goroutine per connection
// would undo everything the shards saved. Threaded connections may
// bind too — their Receive Threads deliver into the inbox directly.
//
// On sharded connections a full inbox never blocks a shard: the
// connection holds the one message the inbox refused, its data path
// pauses, and the next Inbox.Recv wakes it — per-connection
// backpressure with collective delivery.
type Inbox struct {
	ch   chan InboxMessage
	done chan struct{}

	closeOnce sync.Once

	// waiterN mirrors len(waiters) so the per-message wake check on
	// the Recv hot path stays lock-free when nothing is stalled (the
	// overwhelmingly common case).
	waiterN atomic.Int32

	mu      sync.Mutex
	waiters []*Connection // sharded conns holding a message this inbox refused
}

// NewInbox creates an inbox holding up to depth undelivered messages
// (default 1024 when depth <= 0). The caller owns it and should Close
// it when the consumers stop.
func NewInbox(depth int) *Inbox {
	if depth <= 0 {
		depth = 1024
	}
	return &Inbox{
		ch:   make(chan InboxMessage, depth),
		done: make(chan struct{}),
	}
}

// Recv blocks for the next delivery from any bound connection. After
// Close it drains the remaining queue, then returns ErrInboxClosed.
func (ib *Inbox) Recv() (InboxMessage, error) { return ib.recv(nil) }

// RecvTimeout is Recv with a deadline.
func (ib *Inbox) RecvTimeout(d time.Duration) (InboxMessage, error) {
	// A delivery already queued needs no timer.
	select {
	case m := <-ib.ch:
		ib.wakeWaiters()
		return m, nil
	default:
	}
	t := time.NewTimer(d)
	defer t.Stop()
	return ib.recv(t.C)
}

func (ib *Inbox) recv(timeout <-chan time.Time) (InboxMessage, error) {
	select {
	case m := <-ib.ch:
		ib.wakeWaiters()
		return m, nil
	case <-ib.done:
		select {
		case m := <-ib.ch:
			ib.wakeWaiters()
			return m, nil
		default:
			return InboxMessage{}, ErrInboxClosed
		}
	case <-timeout:
		return InboxMessage{}, ErrRecvTimeout
	}
}

// Close stops the inbox: pending Recv calls drain what is queued and
// then observe ErrInboxClosed. Waiting connections are woken so their
// held messages fall back to their own mailboxes.
func (ib *Inbox) Close() {
	ib.closeOnce.Do(func() {
		close(ib.done)
		ib.wakeWaiters()
	})
}

// Done returns a channel closed when the inbox is closed.
func (ib *Inbox) Done() <-chan struct{} { return ib.done }

// put delivers m, completed on c's default lane; false means the inbox
// (or the connection) closed first and m is still the caller's. A
// Receive Thread waits for room — that is its backpressure. A shard
// must not: the message a full inbox refuses is held on the connection,
// whose data path pauses (shardConn.dataPaused) until a Recv wakes it.
func (ib *Inbox) put(c *Connection, m Message) bool {
	im := InboxMessage{Conn: c, Msg: m}
	if sc := c.sh; sc != nil {
		select {
		case <-ib.done:
			return false
		default:
		}
		if !ib.offer(c, im) {
			sc.held, sc.holding = m, true
		}
		return true
	}
	select {
	case ib.ch <- im:
		return true
	case <-c.closedCh:
		return false
	case <-ib.done:
		return false
	}
}

// offer is the sharded runtime's non-blocking delivery. On failure the
// connection registers as a waiter (once) so the next Recv re-queues
// it on its shard; a recheck after registration closes the race with a
// concurrently draining consumer.
func (ib *Inbox) offer(c *Connection, im InboxMessage) bool {
	select {
	case ib.ch <- im:
		return true
	default:
	}
	sc := c.sh
	if !sc.inboxWaiting.Swap(true) {
		ib.mu.Lock()
		ib.waiters = append(ib.waiters, c)
		ib.waiterN.Store(int32(len(ib.waiters)))
		ib.mu.Unlock()
	}
	select {
	case ib.ch <- im:
		// Delivered after all; the pending wake just re-services the
		// connection, which finds nothing held.
		return true
	default:
		return false
	}
}

// wakeWaiters re-queues every connection a full inbox made wait.
// The lock-free empty check is safe against a concurrent registration:
// offer re-attempts its delivery after registering, so a waiter this
// wake misses either delivered after all or is woken by the next Recv.
func (ib *Inbox) wakeWaiters() {
	if ib.waiterN.Load() == 0 {
		return
	}
	ib.mu.Lock()
	if len(ib.waiters) == 0 {
		ib.mu.Unlock()
		return
	}
	ws := ib.waiters
	ib.waiters = nil
	ib.waiterN.Store(0)
	ib.mu.Unlock()
	for _, c := range ws {
		c.sh.inboxWaiting.Store(false)
		c.sh.shard.requeue(c)
	}
}
