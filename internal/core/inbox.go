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
// receiver's to Release exactly once (or to own with Bytes).
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
// bind too — their private shards deliver into the inbox directly.
//
// It is a lane's receive end shared: the same mailbox, bounded the same
// way. A bound connection's producer asks before it reads the wire
// (Connection.atDepth) and, finding the inbox at depth, stops — a
// shard pauses the connection's data path and serves its others —
// after registering once in parked; the Recv that
// frees a slot wakes every parked producer. So a message is in the
// inbox or still on the wire, never in between, and the inbox holds at
// most depth plus one message per producer already past the check.
type Inbox struct {
	box    stream.Mailbox[InboxMessage]
	parked stream.Mailbox[*Connection] // producers stopped at depth, each once per pause
	depth  int

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
			ib.wake()
		}
		return im, ok, nil
	})
	return im, awaitErr(err, ErrInboxClosed)
}

// Close stops the inbox: pending Recv calls drain what is queued and
// then observe ErrInboxClosed. What is queued is owned in place first,
// so a closed inbox nobody drains pins no pooled buffer. Parked
// producers are woken: a closed inbox is never at depth, and what they
// read next lands in their own connections' mailboxes
// (Connection.deliver0 unbinds).
func (ib *Inbox) Close() {
	ib.closeOnce.Do(func() {
		close(ib.done)
		ib.box.Each(ownDelivery)
		ib.wake()
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
	ib.box.Put(InboxMessage{Conn: c, Msg: m}, false)
	if ib.closed() {
		ib.box.Each(ownDelivery) // m landed behind Close's sweep
	}
	return true
}

// wake resumes every parked producer: all of them, because one may have
// nothing left to read, and waking only it would strand the rest behind
// a slot nobody fills. Ending the pause here — not where the producer
// finds room — is what makes one that finds the inbox full again
// register again. With nobody parked it costs one atomic load.
func (ib *Inbox) wake() {
	for {
		c, ok := ib.parked.Pop()
		if !ok {
			return
		}
		c.unpause()
		c.resume()
	}
}
