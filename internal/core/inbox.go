package core

import (
	"errors"
	"sync"
	"time"

	"ncs/internal/stream"
)

// ErrInboxClosed is returned by Inbox receives after Close once the
// queue has drained.
var ErrInboxClosed = errors.New("ncs: inbox closed")

// InboxMessage is one delivery through an Inbox: the message plus the
// connection it arrived on (the reply path for request/response
// servers). Msg is borrowed, as RecvMessage's is: read-only, and the
// receiver's to Release exactly once (or to own with Bytes). At is when
// the message entered the inbox, so a consumer can count the time it
// waited there (an RPC server charges it to the call's deadline).
type InboxMessage struct {
	Conn *Connection
	Msg  Message
	At   time.Time
}

// Inbox is a shared delivery queue: any number of connections bind to
// it (Connection.BindInbox) and their completed messages merge into
// one stream. It is the accept-side counterpart of the sharded
// runtime: a fixed pool of workers looping on Inbox.Recv can serve
// thousands of connections, where one Recv goroutine per connection
// would undo everything the shards saved. Threaded and fast-path
// connections may bind too — their shards, private or pooled, deliver
// into the inbox directly.
//
// It is a lane's receive end shared: the same mailbox, bounded the same
// way, by credit. While the inbox is at depth, a bound connection with a
// message still queued in it withholds its peer's grants
// (Connection.atDepth), and the Recv that pops that connection's
// message flushes them (Connection.took) — through the connection the
// message names: the inbox keeps no list of connections. Every bound
// connection's wire is always read. So the inbox holds at most depth,
// plus the window each bound connection's peer was granted before it was
// withheld and the message that granted it (one window of credit plus
// one message per connection), plus what each stalled sender's
// resynchronisation repairs — one message after 1, 2, 4, 8… AckTimeouts
// without a grant, ⌊log₂ n⌋+1 in a stall of n — plus the backlog each
// connection bound late brought with it (BindInbox; at most
// deliveredQueueDepth and a window, what its own mailbox held).
type Inbox struct {
	box   stream.Mailbox[InboxMessage]
	depth int

	done      chan struct{}
	closeOnce sync.Once
}

// NewInbox creates an inbox holding up to depth undelivered messages
// (default 1024 when depth <= 0). The caller owns it and should Close
// it when the consumers stop.
func NewInbox(depth int) *Inbox {
	if depth <= 0 {
		depth = 1024
	}
	return &Inbox{depth: depth, done: make(chan struct{})}
}

// Recv blocks for the next delivery from any bound connection, whose
// Msg the caller releases. After Close it drains the remaining queue,
// then returns ErrInboxClosed.
func (ib *Inbox) Recv() (InboxMessage, error) { return ib.RecvTimeout(0) }

// RecvTimeout is Recv with a deadline (d > 0; otherwise none, as on
// every other timed receive).
func (ib *Inbox) RecvTimeout(d time.Duration) (InboxMessage, error) {
	im, err := stream.Await(ib.box.Bell, nil, ib.done, d, func() (InboxMessage, bool, error) {
		im, ok := ib.box.Pop()
		if ok {
			im.Conn.took(true)
		}
		return im, ok, nil
	})
	return im, awaitErr(err, ErrInboxClosed)
}

// Close stops the inbox: pending Recv calls drain what is queued and
// then observe ErrInboxClosed. What is queued is owned in place first,
// so a closed inbox nobody drains pins no pooled buffer. A closed inbox
// is never at depth, so every connection with a message queued — among
// them each that withholds a grant — flushes it: what its peer sends
// next lands in the connection's own mailbox (Connection.deliver0
// unbinds).
func (ib *Inbox) Close() {
	ib.closeOnce.Do(func() {
		close(ib.done)
		queued := make(map[*Connection]bool)
		ib.box.Each(func(im *InboxMessage) {
			ownDelivery(im)
			queued[im.Conn] = true
		})
		for c := range queued {
			c.took(false)
		}
	})
}

// ownDelivery turns a queued delivery into a copy its eventual reader
// owns, handing the borrowed buffer back.
func ownDelivery(im *InboxMessage) { im.Msg.Bytes() }

// Done returns a channel closed when the inbox is closed.
func (ib *Inbox) Done() <-chan struct{} { return ib.done }

func (ib *Inbox) closed() bool {
	select {
	case <-ib.done:
		return true
	default:
		return false
	}
}

// put delivers m, completed on c's default lane; false means the inbox
// closed first and m is still the caller's.
func (ib *Inbox) put(c *Connection, m Message) bool {
	if ib.closed() {
		return false
	}
	c.credit().inboxed.Add(1)
	ib.box.Put(InboxMessage{Conn: c, Msg: m, At: time.Now()}, false)
	if ib.closed() {
		ib.box.Each(ownDelivery) // m landed behind Close's sweep
	}
	return true
}
