// Package netsim simulates point-to-point network links with finite
// bandwidth, propagation delay, packet loss, corruption, and a bounded
// sender-side buffer.
//
// The paper's testbed is the NYNET ATM network; we cannot attach to 1998
// ATM hardware, so every transport in this repository runs over either a
// real TCP socket or a netsim link. A netsim link preserves the
// behaviours the NCS protocol machinery reacts to:
//
//   - finite bandwidth: transmission time grows with message size,
//   - propagation delay: the latency/bandwidth trade-off of WAN computing
//     that motivates overlap (§1, §2 of the paper),
//   - loss and corruption: exercise the error-control algorithms,
//   - a bounded send buffer: writes block when the buffer fills, which is
//     the kernel socket-buffer behaviour behind Figure 10's crossover.
//
// Beyond the steady-state Params, each direction accepts programmable
// impairments (Impairments): duplication, reordering via delay jitter,
// Gilbert–Elliott burst loss, and link partition/heal — mutable mid-run
// either deterministically through a packet-count-keyed Schedule of
// Phases or programmatically through Endpoint.SetImpairments. Every
// stochastic decision comes from the direction's seeded RNG in a fixed
// per-packet order, so a failure run replays exactly from its seed;
// ImpairStats exposes the decisions for replay assertions.
//
// Links are full-duplex pipes of discrete packets; each direction has its
// own Params. Packet boundaries are preserved (datagram semantics): the
// stream-vs-datagram distinction is layered above, in transport.
package netsim

import (
	"errors"
	"math/rand"
	"sync"
	"time"

	"ncs/internal/buf"
)

// Errors returned by endpoint operations.
var (
	// ErrClosed is returned by operations on a closed endpoint.
	ErrClosed = errors.New("netsim: endpoint closed")
	// ErrTimeout is returned by RecvTimeout when the deadline passes.
	ErrTimeout = errors.New("netsim: receive timeout")
)

// Params configures one direction of a link.
type Params struct {
	// Bandwidth is the link rate in bytes per second. Zero means
	// infinitely fast transmission.
	Bandwidth int64
	// Delay is the one-way propagation delay.
	Delay time.Duration
	// LossRate is the probability in [0,1] that a packet is silently
	// dropped on the wire.
	LossRate float64
	// CorruptRate is the probability in [0,1] that one byte of a packet
	// is flipped in transit. Corruption is only meaningful under a
	// transport with integrity checking (e.g. AAL5 CRC).
	CorruptRate float64
	// BufferBytes bounds the sender-side buffer. A Send blocks while the
	// buffer is full, exactly like a kernel socket send buffer. Zero
	// means unbounded.
	BufferBytes int
	// Seed seeds the loss/corruption/impairment generator so failure
	// runs are reproducible. Zero selects a fixed default seed.
	Seed int64
	// Impair configures the direction's programmable impairments
	// (duplication, reordering, burst loss, partition). Ignored when
	// Schedule is non-empty.
	Impair Impairments
	// Schedule, when non-empty, drives the impairments through a
	// deterministic sequence of packet-count-keyed phases; the final
	// phase holds forever. See Phase.
	Schedule []Phase
}

// Endpoint is one side of a duplex link.
type Endpoint struct {
	send *direction // traffic we transmit
	recv *direction // traffic we receive

	closeOnce sync.Once
}

// Pipe creates a duplex link. aToB configures the a→b direction and bToA
// the reverse. Both returned endpoints must be closed by the caller.
func Pipe(aToB, bToA Params) (a, b *Endpoint) {
	d1 := newDirection(aToB)
	d2 := newDirection(bToA)
	return &Endpoint{send: d1, recv: d2}, &Endpoint{send: d2, recv: d1}
}

// LoopbackParams returns Params resembling a fast local link: no loss,
// no delay, unbounded buffer — useful for tests and the HPI transport.
func LoopbackParams() Params { return Params{} }

// Send transmits one packet. It blocks while the send buffer is full and
// returns ErrClosed after Close. The packet is copied (into a pooled
// buffer); the caller may reuse p.
func (e *Endpoint) Send(p []byte) error {
	cp := buf.Get(len(p))
	copy(cp.B, p)
	if err := e.send.enqueue(cp); err != nil {
		cp.Release()
		return err
	}
	return nil
}

// SendBuf is the zero-copy Send: it transfers ownership of b (one
// reference) to the link — the wire mutates and eventually releases it.
// The caller must not touch b afterwards unless it retained it first.
func (e *Endpoint) SendBuf(b *buf.Buffer) error {
	if err := e.send.enqueue(b); err != nil {
		b.Release()
		return err
	}
	return nil
}

// Recv returns the next delivered packet, blocking until one arrives or
// the link closes.
func (e *Endpoint) Recv() ([]byte, error) {
	b, err := e.recv.dequeue()
	if err != nil {
		return nil, err
	}
	return b.TakeBytes(), nil
}

// RecvBuf is the pooled Recv: the returned buffer is owned by the
// caller, who must Release it.
func (e *Endpoint) RecvBuf() (*buf.Buffer, error) { return e.recv.dequeue() }

// RecvTimeout is Recv with a deadline; it returns ErrTimeout when no
// packet arrives within d.
func (e *Endpoint) RecvTimeout(d time.Duration) ([]byte, error) {
	b, err := e.recv.dequeueTimeout(d)
	if err != nil {
		return nil, err
	}
	return b.TakeBytes(), nil
}

// RecvBufTimeout is RecvBuf with a deadline.
func (e *Endpoint) RecvBufTimeout(d time.Duration) (*buf.Buffer, error) {
	return e.recv.dequeueTimeout(d)
}

// TryRecvBuf is the non-blocking RecvBuf: it returns (nil, nil) when no
// packet has arrived yet and ErrClosed once the link is closed and
// drained. Together with SetRecvNotify it is the readiness interface a
// reactor-style poller drives many endpoints from.
func (e *Endpoint) TryRecvBuf() (*buf.Buffer, error) { return e.recv.tryDequeue() }

// SetRecvNotify registers fn to be invoked whenever a packet becomes
// available to TryRecvBuf and whenever the link transitions toward
// closed. The hook runs outside the endpoint's locks and must not
// block; a doorbell write (non-blocking channel send) is the intended
// body. It fires once immediately on registration so packets that
// arrived earlier are never missed. One hook per endpoint; nil clears.
func (e *Endpoint) SetRecvNotify(fn func()) { e.recv.setNotify(fn) }

// TrySend is a non-blocking Send: it returns (false, nil) when the send
// buffer has no room, which lets user-level thread schedulers avoid
// blocking the whole process (§4.1). The packet is copied only once
// accepted, so a busy-polling sender pays nothing for rejections.
func (e *Endpoint) TrySend(p []byte) (bool, error) {
	return e.send.tryEnqueueCopy(p)
}

// Buffered reports the bytes currently occupying the send buffer.
func (e *Endpoint) Buffered() int { return e.send.buffered() }

// SetImpairments replaces the impairments applied to traffic this
// endpoint transmits, taking effect from the next packet the wire
// processes. It cancels any remaining Schedule: a programmatic
// mutation means the caller has taken manual control of the link's
// failure process. Impairing both directions of a link requires a call
// on each endpoint.
func (e *Endpoint) SetImpairments(imp Impairments) { e.send.setImpairments(imp) }

// Partition cuts this endpoint's transmit direction: every packet is
// silently dropped until Heal (or a SetImpairments that clears
// Partitioned). Other active impairments are preserved.
func (e *Endpoint) Partition() { e.send.setPartitioned(true) }

// Heal reopens a transmit direction cut by Partition.
func (e *Endpoint) Heal() { e.send.setPartitioned(false) }

// ImpairStats reports the impairment decisions made on traffic this
// endpoint has transmitted. Decisions are RNG-driven, so two runs with
// the same seed, configuration, and packet sequence report identical
// stats — the hook deterministic replay tests key on.
func (e *Endpoint) ImpairStats() ImpairStats { return e.send.impairStats() }

// Close shuts down the endpoint: its transmit direction drains and
// closes (waking blocked receivers on the peer), and its own receive
// side is invalidated so local Recv calls return ErrClosed — the same
// semantics as closing a socket. Close is idempotent.
func (e *Endpoint) Close() error {
	e.closeOnce.Do(func() {
		e.recv.closeRecv()
		e.send.close()
	})
	return nil
}

// direction is a unidirectional simulated wire.
//
// A direction runs in one of two modes. A link whose parameters involve
// time or failure — bandwidth, delay, bounded buffer, loss, corruption,
// impairments, a schedule — is ASYNC: a wire goroutine paces
// transmission and a delivery goroutine realises arrival deadlines
// (reordering included). A link with none of those (LoopbackParams: the
// HPI default and every control channel) is INLINE: enqueue pushes the
// packet straight onto the arrived queue under the lock, with no
// goroutines at all. Inline mode is what lets an endpoint hold
// thousands of idle HPI connections without thousands of simulator
// goroutines; a later SetImpairments/Partition call upgrades the
// direction to async on the spot.
type direction struct {
	p    Params
	seed int64 // resolved RNG seed; the RNG itself is async-only

	mu         sync.Mutex
	sendCond   *sync.Cond // waits for buffer space; created on first wait
	recvCond   *sync.Cond // waits for arrivals; created on first wait
	inflight   int        // bytes occupying the send buffer
	queue      bufDeque   // packets accepted but not yet on the wire
	arrived    bufDeque   // packets delivered to the receiver
	closed     bool
	recvClosed bool // the receiving endpoint closed locally

	// rng and ip exist only in async mode: an inline direction makes no
	// stochastic decisions, and the RNG's internal state (~5KB) is the
	// single largest piece of an idle simulated link. Four directions
	// back every NCS connection, so creating them with the wire
	// goroutine instead of at Pipe time is most of the cheap-idle-link
	// budget.
	rng    *rand.Rand
	ip     *impairer
	notify func() // receive-readiness hook (see setNotify)
	async  bool   // wire/delivery goroutines are running

	// recvDL is the direction's receive-deadline timer, built by the
	// first timed receive that has to wait (an idle or polled link
	// carries none).
	recvDL *recvDeadline

	wireWake chan struct{} // signals the wire goroutine (async mode)
	done     chan struct{} // wire goroutine exited (async mode)

	deliveries   chan timedPacket // wire → delivery goroutine (async mode)
	deliveryDone chan struct{}
}

// needsAsync reports whether the parameters require the wire/delivery
// goroutines: anything that spends time (bandwidth, delay, a bounded
// buffer that drains over time) or decides fates (loss, corruption,
// impairments, schedules). A direction with none of these is a pure
// FIFO handoff and runs inline.
func needsAsync(p Params) bool {
	return p.Bandwidth > 0 || p.Delay > 0 || p.BufferBytes > 0 ||
		p.LossRate > 0 || p.CorruptRate > 0 ||
		len(p.Schedule) > 0 || p.Impair != (Impairments{})
}

// timedPacket is a packet with its computed arrival deadline.
type timedPacket struct {
	payload  *buf.Buffer
	arriveAt time.Time
}

// bufDeque is a head-indexed FIFO of buffers: popping advances a head
// index instead of re-slicing, so the backing array is reused once
// drained rather than abandoned to the allocator on every refill.
// Callers synchronise externally (direction.mu).
type bufDeque struct {
	items []*buf.Buffer
	head  int
}

func (q *bufDeque) empty() bool { return q.head == len(q.items) }

func (q *bufDeque) push(p *buf.Buffer) {
	if q.head > 0 && q.head == len(q.items) {
		q.items = q.items[:0]
		q.head = 0
	}
	q.items = append(q.items, p)
}

// pop removes the head packet; callers check empty first. A
// long-lagging head is compacted away so a deque that never fully
// drains cannot grow its array without bound.
func (q *bufDeque) pop() *buf.Buffer {
	p := q.items[q.head]
	q.items[q.head] = nil
	q.head++
	if q.head >= 64 && q.head*2 >= len(q.items) {
		n := copy(q.items, q.items[q.head:])
		clear(q.items[n:])
		q.items = q.items[:n]
		q.head = 0
	}
	return p
}

func newDirection(p Params) *direction {
	seed := p.Seed
	if seed == 0 {
		seed = 42
	}
	d := &direction{p: p, seed: seed}
	if needsAsync(p) {
		d.startAsyncLocked()
	}
	return d
}

// startAsyncLocked switches the direction to async mode, building the
// stochastic machinery (RNG, impairer) and spawning the wire and
// delivery goroutines. Safe on a fresh direction (newDirection) or
// under mu when upgrading an inline direction mid-run.
func (d *direction) startAsyncLocked() {
	if d.async {
		return
	}
	d.async = true
	d.rng = rand.New(rand.NewSource(d.seed))
	d.ip = newImpairer(d.p.Impair, d.p.Schedule)
	d.wireWake = make(chan struct{}, 1)
	d.done = make(chan struct{})
	d.deliveries = make(chan timedPacket, 64)
	d.deliveryDone = make(chan struct{})
	go d.wire()
	go d.deliveryLoop()
}

// sendCondLocked and recvCondLocked return the direction's condition
// variables, created on first wait. Signal/broadcast sites skip a nil
// cond: no waiter can exist before the first Wait created it, and
// every cond access happens under mu, so the check is race-free.
func (d *direction) sendCondLocked() *sync.Cond {
	if d.sendCond == nil {
		d.sendCond = sync.NewCond(&d.mu)
	}
	return d.sendCond
}

func (d *direction) recvCondLocked() *sync.Cond {
	if d.recvCond == nil {
		d.recvCond = sync.NewCond(&d.mu)
	}
	return d.recvCond
}

// wakeSendLocked and wakeRecvLocked broadcast/signal if a waiter has
// ever existed. Caller holds mu.
func (d *direction) wakeSendLocked() {
	if d.sendCond != nil {
		d.sendCond.Broadcast()
	}
}

func (d *direction) wakeRecvLocked(all bool) {
	if d.recvCond == nil {
		return
	}
	if all {
		d.recvCond.Broadcast()
	} else {
		d.recvCond.Signal()
	}
}

// enqueue takes ownership of p's reference; the caller handles release
// on error (so the Endpoint wrappers can keep uniform consume-on-error
// semantics without a double release here).
func (d *direction) enqueue(p *buf.Buffer) error {
	d.mu.Lock()
	if !d.async {
		// Inline mode: the wire is instantaneous and faultless, so the
		// packet arrives right here — no goroutine hops on the hot path.
		if d.closed {
			d.mu.Unlock()
			return ErrClosed
		}
		d.deliverLocked(p)
		notify := d.notify
		d.mu.Unlock()
		if notify != nil {
			notify()
		}
		return nil
	}
	for !d.closed && d.p.BufferBytes > 0 && d.inflight > 0 &&
		d.inflight+p.Len() > d.p.BufferBytes {
		d.sendCondLocked().Wait()
	}
	if d.closed {
		d.mu.Unlock()
		return ErrClosed
	}
	d.queue.push(p)
	d.inflight += p.Len()
	d.mu.Unlock()
	d.kick()
	return nil
}

// deliverLocked lands a packet on the receiver. Caller holds mu.
func (d *direction) deliverLocked(pkt *buf.Buffer) {
	if d.recvClosed {
		pkt.Release()
		return
	}
	d.arrived.push(pkt)
	d.wakeRecvLocked(false)
}

// tryEnqueueCopy admits p non-blockingly, copying it into a pooled
// buffer only after the room check succeeds.
func (d *direction) tryEnqueueCopy(p []byte) (bool, error) {
	d.mu.Lock()
	if d.closed {
		d.mu.Unlock()
		return false, ErrClosed
	}
	if !d.async {
		cp := buf.Get(len(p))
		copy(cp.B, p)
		d.deliverLocked(cp)
		notify := d.notify
		d.mu.Unlock()
		if notify != nil {
			notify()
		}
		return true, nil
	}
	if d.p.BufferBytes > 0 && d.inflight > 0 && d.inflight+len(p) > d.p.BufferBytes {
		d.mu.Unlock()
		return false, nil
	}
	cp := buf.Get(len(p))
	copy(cp.B, p)
	d.queue.push(cp)
	d.inflight += cp.Len()
	d.mu.Unlock()
	d.kick()
	return true, nil
}

func (d *direction) kick() {
	select {
	case d.wireWake <- struct{}{}:
	default:
	}
}

func (d *direction) buffered() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.inflight
}

// wire drains the send queue at link speed, applies loss/corruption, and
// hands each surviving packet to the delivery goroutine stamped with its
// arrival deadline. Transmission time is serialised here (the line is
// occupied packet by packet); propagation pipelines because the delivery
// goroutine sleeps per deadline, and deadlines are monotone in send
// order, so ordering is preserved.
func (d *direction) wire() {
	defer close(d.done)
	defer close(d.deliveries)
	// lineFree tracks when the line finishes transmitting everything
	// accepted so far. Pacing sleeps only when the accumulated deficit
	// exceeds a scheduling quantum, so small packets (ATM cells) are
	// paced accurately on average instead of per-packet, where sleep
	// granularity would inflate them ~20×. The quantum also bounds how
	// far a sender can overrun the line before the send buffer pushes
	// back: a whole quantum's worth of bytes drains without blocking,
	// so it is kept well under typical message transmission times or a
	// fan-out sender (a multicast root) would never feel its links
	// serialise.
	var lineFree time.Time
	const pacingQuantum = 250 * time.Microsecond
	for {
		d.mu.Lock()
		for d.queue.empty() && !d.closed {
			d.mu.Unlock()
			<-d.wireWake
			d.mu.Lock()
		}
		if d.queue.empty() && d.closed {
			d.mu.Unlock()
			break
		}
		pkt := d.queue.pop()
		d.mu.Unlock()

		// Occupy the line for the transmission time.
		if d.p.Bandwidth > 0 {
			tx := time.Duration(int64(pkt.Len()) * int64(time.Second) / d.p.Bandwidth)
			now := time.Now()
			if lineFree.Before(now) {
				lineFree = now
			}
			lineFree = lineFree.Add(tx)
			if deficit := lineFree.Sub(now); deficit > pacingQuantum {
				time.Sleep(deficit)
			}
		}

		// The packet has left the send buffer once fully transmitted.
		d.mu.Lock()
		d.inflight -= pkt.Len()
		dec := d.ip.decide(d.rng, d.p.LossRate, d.p.CorruptRate)
		if dec.corrupt && pkt.Len() > 0 {
			// Safe to mutate: the sender transferred its reference, so
			// the wire is the sole owner here.
			pkt.B[d.rng.Intn(pkt.Len())] ^= 0xff
		}
		d.wakeSendLocked()
		d.mu.Unlock()

		if dec.drop {
			pkt.Release()
			continue
		}
		arriveBase := time.Now()
		if d.p.Bandwidth > 0 && lineFree.After(arriveBase) {
			arriveBase = lineFree
		}
		arriveAt := arriveBase.Add(d.p.Delay + dec.jitter)
		if dec.dup {
			// The duplicate shares the original's storage: take its
			// reference BEFORE publishing the original, which the
			// receiver may otherwise fully consume first.
			pkt.Retain()
		}
		d.deliveries <- timedPacket{payload: pkt, arriveAt: arriveAt}
		if dec.dup {
			d.deliveries <- timedPacket{payload: pkt, arriveAt: arriveAt}
		}
	}
}

// deliveryLoop delivers packets at their arrival deadlines, earliest
// deadline first (send order breaking ties: the wire goroutine feeds
// the channel in send order). Unjittered packets have monotone deadlines
// and keep FIFO order; a jittered (reordered) packet waits in the heap
// while later packets overtake it.
func (d *direction) deliveryLoop() {
	defer close(d.deliveryDone)
	var pending DueHeap[*buf.Buffer]
	// One timer reused across wakeups: it is always quiescent (fired
	// and drained, or stopped and drained) before the next Reset, per
	// the Timer.Reset contract.
	var timer *time.Timer
	open := true
	for open || pending.Len() > 0 {
		if pending.Len() == 0 {
			tp, ok := <-d.deliveries
			if !ok {
				open = false
				continue
			}
			pending.Push(tp.arriveAt, tp.payload)
			continue
		}
		wait := time.Until(pending.Next())
		if wait <= 0 {
			d.deliver(pending.Pop())
			continue
		}
		if !open {
			time.Sleep(wait)
			continue
		}
		if timer == nil {
			timer = time.NewTimer(wait)
		} else {
			timer.Reset(wait)
		}
		select {
		case tp, ok := <-d.deliveries:
			if !timer.Stop() {
				<-timer.C
			}
			if !ok {
				open = false
			} else {
				pending.Push(tp.arriveAt, tp.payload)
			}
		case <-timer.C:
		}
	}
	d.mu.Lock()
	d.wakeRecvLocked(true)
	d.wakeSendLocked()
	d.mu.Unlock()
}

func (d *direction) deliver(pkt *buf.Buffer) {
	d.mu.Lock()
	if d.recvClosed {
		// The receiving endpoint is gone; releasing here (instead of
		// parking the packet on a queue nobody will drain) keeps the
		// pooled-buffer audit clean after Close.
		d.mu.Unlock()
		pkt.Release()
		return
	}
	d.arrived.push(pkt)
	d.wakeRecvLocked(false)
	notify := d.notify
	d.mu.Unlock()
	if notify != nil {
		notify()
	}
}

// setNotify registers fn as the receive-readiness hook: it is invoked
// (outside the direction lock) whenever a packet lands on the arrived
// queue and whenever the link transitions toward closed, so a poller
// that owns many endpoints can sleep on one doorbell instead of
// blocking a goroutine per endpoint. One hook per direction; nil
// clears it. The hook fires once immediately so a registration cannot
// miss packets that arrived before it.
func (d *direction) setNotify(fn func()) {
	d.mu.Lock()
	d.notify = fn
	d.mu.Unlock()
	if fn != nil {
		fn()
	}
}

// tryDequeue returns the next arrived packet without blocking:
// (nil, nil) when nothing has arrived yet, ErrClosed once the link is
// closed and drained.
func (d *direction) tryDequeue() (*buf.Buffer, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.recvClosed {
		return nil, ErrClosed
	}
	if !d.arrived.empty() {
		return d.arrived.pop(), nil
	}
	if d.closed && d.drainedLocked() {
		return nil, ErrClosed
	}
	return nil, nil
}

// setImpairments replaces the active impairments (see
// Endpoint.SetImpairments). An inline direction upgrades to async
// first: impairment decisions belong to the wire goroutine.
func (d *direction) setImpairments(imp Impairments) {
	d.mu.Lock()
	d.startAsyncLocked()
	d.ip.set(imp)
	d.mu.Unlock()
}

// setPartitioned toggles only the partition bit, preserving the other
// active impairments (it still cancels a running schedule — the caller
// has taken manual control).
func (d *direction) setPartitioned(on bool) {
	d.mu.Lock()
	d.startAsyncLocked()
	imp := d.ip.imp
	imp.Partitioned = on
	d.ip.set(imp)
	d.mu.Unlock()
}

func (d *direction) impairStats() ImpairStats {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.ip == nil {
		// Inline direction: the wire never ran, so no decisions were
		// ever made (inline delivery has always bypassed the counters).
		return ImpairStats{}
	}
	return d.ip.stats
}

func (d *direction) dequeue() (*buf.Buffer, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	for d.arrived.empty() || d.recvClosed {
		if d.recvClosed || (d.closed && d.drainedLocked()) {
			return nil, ErrClosed
		}
		d.recvCondLocked().Wait()
	}
	return d.arrived.pop(), nil
}

// closeRecv invalidates the receiving side locally, waking any blocked
// Recv with ErrClosed and releasing packets already delivered but
// never read (the local endpoint abandoned them by closing).
func (d *direction) closeRecv() {
	d.mu.Lock()
	d.recvClosed = true
	for !d.arrived.empty() {
		d.arrived.pop().Release()
	}
	d.wakeRecvLocked(true)
	notify := d.notify
	d.mu.Unlock()
	if notify != nil {
		notify()
	}
}

// recvDeadline is a direction's one deadline timer, shared by every
// dequeueTimeout blocked on it and re-armed, not re-created: its firing
// wakes every waiter, and each re-arms for itself if it still has time
// left. Guarded by the direction's mu.
type recvDeadline struct {
	timer   *time.Timer
	at      time.Time // when timer is due; zero when no waiter needs it
	waiters int
}

// dequeueTimeout is dequeue with a deadline. A packet already queued is
// returned without touching a timer; a receiver that must wait arms the
// direction's shared timer for its own deadline.
func (d *direction) dequeueTimeout(timeout time.Duration) (*buf.Buffer, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	var deadline time.Time // set once the receiver has to wait
	defer func() {
		// The last timed receiver to leave stops the timer.
		if dl := d.recvDL; !deadline.IsZero() {
			if dl.waiters--; dl.waiters == 0 && !dl.at.IsZero() {
				dl.at = time.Time{}
				dl.timer.Stop()
			}
		}
	}()
	for d.arrived.empty() || d.recvClosed {
		if d.recvClosed || (d.closed && d.drainedLocked()) {
			return nil, ErrClosed
		}
		now := time.Now()
		if deadline.IsZero() {
			deadline = now.Add(timeout)
			if d.recvDL == nil {
				d.recvDL = new(recvDeadline)
			}
			d.recvDL.waiters++
		}
		if !now.Before(deadline) {
			return nil, ErrTimeout
		}
		if dl := d.recvDL; dl.at.IsZero() || deadline.Before(dl.at) {
			dl.at = deadline
			if dl.timer == nil {
				dl.timer = time.AfterFunc(deadline.Sub(now), d.recvDeadlineFire)
			} else {
				dl.timer.Reset(deadline.Sub(now))
			}
		}
		d.recvCondLocked().Wait()
	}
	return d.arrived.pop(), nil
}

func (d *direction) recvDeadlineFire() {
	d.mu.Lock()
	d.recvDL.at = time.Time{}
	d.wakeRecvLocked(true)
	d.mu.Unlock()
}

// drainedLocked reports whether no packets remain in flight. Caller holds mu.
func (d *direction) drainedLocked() bool {
	if !d.async {
		// Inline delivery: nothing is ever in flight beyond arrived.
		return true
	}
	select {
	case <-d.deliveryDone:
		return d.arrived.empty()
	default:
		return false
	}
}

func (d *direction) close() {
	d.mu.Lock()
	d.closed = true
	d.wakeSendLocked()
	d.wakeRecvLocked(true)
	async := d.async
	notify := d.notify
	d.mu.Unlock()
	if !async {
		if notify != nil {
			notify()
		}
		return
	}
	d.kick()
	<-d.done
	<-d.deliveryDone
	// Wake any receiver that raced with the delivery goroutine's exit.
	d.mu.Lock()
	d.wakeRecvLocked(true)
	notify = d.notify
	d.mu.Unlock()
	if notify != nil {
		notify()
	}
}
