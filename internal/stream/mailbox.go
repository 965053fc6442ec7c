package stream

import (
	"sync"
	"sync/atomic"
)

// Mailbox is a lane's receive end: completed messages wait in it, in
// order, for the lane's consumer. Every lane — a connection's default
// channel and each stream — owns one, on every runtime. It is a ring
// that keeps its storage across drains, so a steady put/pop allocates
// nothing; nothing is built until the first Put (or the first wait), so
// a lane that never receives costs its zero value.
//
// The mailbox itself never refuses a message. What bounds it is the
// lane's producer: core pauses the default lane's at a fixed depth, and
// a stream's backlog withholds its peer's credit grants.
type Mailbox struct {
	mu   sync.Mutex
	ring []Msg // circular, len a power of two
	head uint32
	n    atomic.Int32  // queued messages, readable without mu
	bell chan struct{} // cap 1: rung by Put and Ring
}

// mailboxMinRing is the ring's first size; it doubles when full.
const mailboxMinRing = 4

// Len reports the number of queued messages; one atomic load.
func (b *Mailbox) Len() int { return int(b.n.Load()) }

// Cap reports the ring's size in messages: the storage the mailbox
// retains, queued or drained.
func (b *Mailbox) Cap() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return len(b.ring)
}

// Bell returns the doorbell a blocked consumer waits on: rung
// (capacity-1, non-blocking) whenever a message is queued, one stays
// queued behind a Pop, or the lane's owner calls Ring.
func (b *Mailbox) Bell() <-chan struct{} {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.bellLocked()
}

func (b *Mailbox) bellLocked() chan struct{} {
	if b.bell == nil {
		b.bell = make(chan struct{}, 1)
	}
	return b.bell
}

// Ring wakes a blocked consumer to re-check its lane: the owner calls
// it when the lane's lifecycle changes.
func (b *Mailbox) Ring() {
	b.mu.Lock()
	bell := b.bellLocked()
	b.mu.Unlock()
	ring(bell)
}

func ring(bell chan struct{}) {
	select {
	case bell <- struct{}{}:
	default:
	}
}

// Put queues m and rings the bell. direct is set by a producer that is
// also this lane's consumer (the fast path's pump reading for its own
// caller): when nothing is queued ahead of m it skips the queue — Put
// reports false and the caller keeps m. A lane has one producer at a
// time, so an empty mailbox cannot fill between that check and the
// caller's return.
func (b *Mailbox) Put(m Msg, direct bool) (queued bool) {
	if direct && b.n.Load() == 0 {
		return false
	}
	b.mu.Lock()
	n := uint32(b.n.Load())
	if int(n) == len(b.ring) {
		b.grow(n)
	}
	b.ring[(b.head+n)&uint32(len(b.ring)-1)] = m
	b.n.Store(int32(n + 1))
	bell := b.bellLocked()
	b.mu.Unlock()
	ring(bell)
	return true
}

// grow doubles the full ring (or builds it), unrolling the n queued
// messages to its front.
func (b *Mailbox) grow(n uint32) {
	next := make([]Msg, max(2*n, mailboxMinRing))
	for i := uint32(0); i < n; i++ {
		next[i] = b.ring[(b.head+i)&(n-1)]
	}
	b.ring, b.head = next, 0
}

// Pop takes the oldest queued message. An empty mailbox costs exactly
// the leading atomic load.
func (b *Mailbox) Pop() (Msg, bool) {
	if b.n.Load() == 0 {
		return Msg{}, false
	}
	b.mu.Lock()
	n := b.n.Load()
	if n == 0 {
		b.mu.Unlock()
		return Msg{}, false
	}
	m := b.ring[b.head]
	b.ring[b.head] = Msg{} // the ring must not pin a consumed payload
	b.head = (b.head + 1) & uint32(len(b.ring)-1)
	b.n.Store(n - 1)
	bell := b.bell
	b.mu.Unlock()
	if n > 1 {
		// The bell is capacity-1: two Puts may have rung it once. Re-ring
		// for the messages still queued so a second consumer blocked on it
		// is not stranded.
		ring(bell)
	}
	return m, true
}

// Drop discards everything queued and the ring's storage: the lane is
// being torn down.
func (b *Mailbox) Drop() {
	b.mu.Lock()
	b.ring, b.head = nil, 0
	b.n.Store(0)
	b.mu.Unlock()
}
