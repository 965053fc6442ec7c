package stream

import (
	"errors"
	"sync"
	"sync/atomic"
	"time"
)

// Mailbox is the one queue with a bell: whatever waits, in order, for a
// consumer that may be asleep waits in one. Completed messages do, on
// every lane — a connection's default channel and each stream — and on
// a shared core.Inbox; so do the producers an inbox made stop, and the
// peer-opened streams nobody has accepted yet. It is a ring that keeps
// its storage across drains, so a steady put/pop allocates nothing;
// nothing is built until the first Put (or the first wait), so a lane
// that never receives costs its zero value.
//
// The mailbox itself never refuses an element. What bounds it is its
// producer: core pauses the default lane's at a fixed depth (a bound
// inbox's at the inbox's), and a stream's backlog withholds its peer's
// credit grants.
type Mailbox[T any] struct {
	mu   sync.Mutex
	ring []T // circular, len a power of two
	head uint32
	n    atomic.Int32  // queued elements, readable without mu
	bell chan struct{} // cap 1: rung by Put and Ring
}

// mailboxMinRing is the ring's first size; it doubles when full.
const mailboxMinRing = 4

// Len reports the number of queued elements; one atomic load.
func (b *Mailbox[T]) Len() int { return int(b.n.Load()) }

// Cap reports the ring's size in elements: the storage the mailbox
// retains, queued or drained.
func (b *Mailbox[T]) Cap() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return len(b.ring)
}

// Bell returns the doorbell a blocked consumer waits on: rung
// (capacity-1, non-blocking) whenever an element is queued, one stays
// queued behind a Pop, or the mailbox's owner calls Ring.
func (b *Mailbox[T]) Bell() <-chan struct{} {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.bellLocked()
}

func (b *Mailbox[T]) bellLocked() chan struct{} {
	if b.bell == nil {
		b.bell = make(chan struct{}, 1)
	}
	return b.bell
}

// Ring wakes a blocked consumer to re-check: the owner calls it when
// what the consumer waits on changed its lifecycle (closed, reaped).
func (b *Mailbox[T]) Ring() {
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
// also this lane's consumer (a receiver reading the wire for itself):
// when nothing is queued ahead of m it skips the queue — Put
// reports false and the caller keeps m. A lane has one producer at a
// time, so an empty mailbox cannot fill between that check and the
// caller's return.
func (b *Mailbox[T]) Put(m T, direct bool) (queued bool) {
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
// elements to its front.
func (b *Mailbox[T]) grow(n uint32) {
	next := make([]T, max(2*n, mailboxMinRing))
	for i := uint32(0); i < n; i++ {
		next[i] = b.ring[(b.head+i)&(n-1)]
	}
	b.ring, b.head = next, 0
}

// Pop takes the oldest queued element. An empty mailbox costs exactly
// the leading atomic load.
func (b *Mailbox[T]) Pop() (m T, ok bool) {
	if b.n.Load() == 0 {
		return m, false
	}
	b.mu.Lock()
	n := b.n.Load()
	if n == 0 {
		b.mu.Unlock()
		return m, false
	}
	var zero T
	m, b.ring[b.head] = b.ring[b.head], zero // the ring must not pin what was consumed
	b.head = (b.head + 1) & uint32(len(b.ring)-1)
	b.n.Store(n - 1)
	bell := b.bell
	b.mu.Unlock()
	if n > 1 {
		// The bell is capacity-1: two Puts may have rung it once. Re-ring
		// for the elements still queued so a second consumer blocked on it
		// is not stranded.
		ring(bell)
	}
	return m, true
}

// Each visits every queued element in place, oldest first, under the
// mailbox's lock: an owner closing uses it to settle what its elements
// borrowed — before a Drop, or in place of one where they stay readable.
func (b *Mailbox[T]) Each(visit func(*T)) {
	b.mu.Lock()
	defer b.mu.Unlock()
	for i, n := uint32(0), uint32(b.n.Load()); i < n; i++ {
		visit(&b.ring[(b.head+i)&uint32(len(b.ring)-1)])
	}
}

// Drop discards everything queued and the ring's storage: the lane is
// being torn down.
func (b *Mailbox[T]) Drop() {
	b.mu.Lock()
	b.ring, b.head = nil, 0
	b.n.Store(0)
	b.mu.Unlock()
}

// What ends an Await that try did not: the owner closed, or the
// deadline passed. Callers map them to their own errors.
var (
	ErrClosed  = errors.New("stream: closed while waiting")
	ErrTimeout = errors.New("stream: wait deadline passed")
)

// Await is the one wait loop, beside the one queue: every blocking
// receive — a message on any lane or inbox, a peer-opened stream — is
// try, then sleep. try takes what the caller waits for, or reports the
// error that ends the wait. When it finds nothing the caller sleeps on
// the mailbox's bell (asked for only then: Bell builds it), a second
// doorbell (nil: none), the owner's close or the deadline (d > 0;
// otherwise none), then tries again. The timer is built on the first
// sleep — a timed receive that finds its message waiting pays for none —
// and runs to the deadline across re-checks. A close drains once more,
// taking what completed before it, then reports itself.
func Await[T any](bell func() <-chan struct{}, also, closed <-chan struct{}, d time.Duration,
	try func() (T, bool, error)) (T, error) {
	var (
		zero     T
		deadline time.Time
		timer    *time.Timer
		timeout  <-chan time.Time
	)
	if d > 0 {
		deadline = time.Now().Add(d)
	}
	defer func() {
		if timer != nil {
			timer.Stop()
		}
	}()
	for {
		if v, ok, err := try(); ok || err != nil {
			return v, err
		}
		if d > 0 && timer == nil {
			timer = time.NewTimer(time.Until(deadline))
			timeout = timer.C
		}
		select {
		case <-bell():
		case <-also:
		case <-closed:
			if v, ok, _ := try(); ok {
				return v, nil
			}
			return zero, ErrClosed
		case <-timeout:
			return zero, ErrTimeout
		}
	}
}
