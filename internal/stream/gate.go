package stream

import (
	"encoding/binary"
	"sync"
	"sync/atomic"

	"ncs/internal/flowctl"
	"ncs/internal/packet"
)

// Credit is one lane's receive-side credit, the one way a receiver bounds
// what it queues. Every grant of the lane passes its gate: a grant
// offered while the lane's backlog stands (backlogged, asked under the
// gate's lock) is withheld — the latest replaces the one before, for
// grants are cumulative — and the pop that ends the backlog flushes it
// (Flush), so the peer's sender stops once the credit it already holds is
// spent, while the receiver goes on reading. A consumer pops before it
// flushes, so a grant is withheld only behind a queued message whose pop
// takes the lock after the decision and finds it. The gate holds one
// grant at most, by value: the body an offer lends is borrowed.
//
// The window is the credit engine of internal/flowctl, its grants framed
// as the lane's CtrlStreamGrant. Every lane runs one, whatever the
// connection's algorithm: per-lane isolation is the point. On a
// connection's default lane (stream 0) under Credit, it is that §3.3
// algorithm; under any other, the algorithm paces the lane on top of it.
//
// The window counts the sender's transmit indices (DataHeader.Tx), not
// arrivals: every index up to the highest seen is spent, whether its SDU
// arrived or the link lost it. So a loss that nothing retransmits — a
// lane without error control — costs no credit for good, and a
// duplicate earns none.
type Credit struct {
	id         uint32
	backlogged func() bool
	emit       func(packet.Control) bool

	send flowctl.Sender
	recv flowctl.Receiver
	// rx is how many of the sender's indices the window has counted; the
	// receive path (Arrived) alone touches it.
	rx uint32
	// scratch frames the receive path's grants (Arrived), borrowed until
	// the offer returns; Arrived runs on one goroutine at a time. retry
	// frames the refill retry's, from a timer goroutine: the receiver
	// lets one retry emit at a time.
	scratch, retry grantBody

	mu   sync.Mutex
	held grantBody // the withheld grant: its body and length
	n    uint8
	shut bool
	// has is raised while a grant is withheld, and also while an offer
	// asks the backlog: a pop the answer saw finds it raised and takes
	// the lock to flush, and any other pop costs one load.
	has atomic.Bool
}

// grantBody is the storage of one encoded grant body.
type grantBody [packet.StreamGrantSize]byte

// Init readies lane id's window, configured by window, and its gate:
// backlogged is the gate's condition, emit sends a grant on (stamping
// the connection and serialising it before it returns).
func (c *Credit) Init(id uint32, window flowctl.Config, backlogged func() bool, emit func(packet.Control) bool) {
	c.id, c.backlogged, c.emit = id, backlogged, emit
	c.send = flowctl.NewSender(flowctl.Credit, window)
	c.recv = flowctl.NewReceiver(flowctl.Credit, window)
	// The refill retry re-advertises through the gate too.
	flowctl.SetEmitter(c.recv, func(ctl packet.Control) bool {
		c.offer(c.wrap(&c.retry, ctl))
		return true
	})
}

// Sender returns the window's credit sender, for the lane's admission.
func (c *Credit) Sender() flowctl.Sender { return c.send }

// wrap frames a grant of the window's receiver as the lane's
// CtrlStreamGrant, in dst.
func (c *Credit) wrap(dst *grantBody, ctl packet.Control) packet.Control {
	body := binary.BigEndian.AppendUint32(dst[:0], c.id)
	return packet.Control{Type: packet.CtrlStreamGrant, SessionID: ctl.SessionID, Body: append(body, ctl.Body...)}
}

// OnGrant feeds the peer's CtrlStreamGrant for this lane into the
// window's sender. The body is parsed synchronously; it may alias a
// pooled receive buffer the caller releases afterwards.
func (c *Credit) OnGrant(ctl packet.Control) {
	if len(ctl.Body) < packet.StreamGrantSize {
		return
	}
	c.send.OnControl(packet.Control{Type: packet.CtrlCreditGrant, ConnID: ctl.ConnID, SessionID: ctl.SessionID, Body: ctl.Body[4:]})
}

// Arrived counts an arrived SDU of session, its sender's index tx, in
// the window — with every index before it not counted yet — and offers
// the grant that produces; acked, the SDU's acknowledgments carry the
// window's current grant as well — the consumed-count refresh retires
// the peer's in-flight without a dedicated packet. Counting on arrival
// is what lets a message larger than the window complete: the window
// slides as its own SDUs land.
//
// tx is the low half of the index. The sender stays within a window of
// what was last granted, so the index is the one nearest what the window
// counted: ahead of it by less than 1<<15, or behind it (a reordered SDU
// or a duplicate, counted already).
func (c *Credit) Arrived(session uint32, tx uint16, acked bool) {
	for ahead := int32(c.Index(tx) - c.rx); ahead >= 0; ahead-- {
		for _, ctl := range c.recv.OnData(c.rx) {
			c.offer(c.wrap(&c.scratch, ctl))
		}
		c.rx++
	}
	if !acked {
		return
	}
	if g, ok := flowctl.Piggyback(c.recv); ok {
		g.SessionID = session
		c.offer(c.wrap(&c.scratch, g))
	}
}

// Index returns the sender's whole transmit index of which tx is the
// low half, as Arrived reads it; it changes nothing.
func (c *Credit) Index(tx uint16) uint32 { return c.rx + uint32(int16(tx-uint16(c.rx))) }

// offer emits a grant of the lane unless its backlog stands; then it is
// withheld, in place of any withheld before. A shut gate drops it.
func (c *Credit) offer(ctl packet.Control) {
	c.mu.Lock()
	if c.shut {
		c.mu.Unlock()
		return
	}
	c.has.Store(true)
	if c.backlogged() {
		c.n = uint8(copy(c.held[:], ctl.Body))
		c.mu.Unlock()
		return
	}
	c.has.Store(false)
	c.mu.Unlock()
	c.emit(ctl)
}

// Flush emits the withheld grant once the backlog no longer stands. A
// consumer calls it after every pop.
func (c *Credit) Flush() {
	if !c.has.Load() {
		return
	}
	c.mu.Lock()
	if !c.has.Load() || c.backlogged() { // a shut gate holds nothing
		c.mu.Unlock()
		return
	}
	// A copy of its own: the receive path may withhold the next grant
	// while this one is still being emitted.
	body := c.held
	ctl := packet.Control{Type: packet.CtrlStreamGrant, Body: body[:c.n]}
	c.has.Store(false)
	c.mu.Unlock()
	c.emit(ctl)
}

// Held reports whether the gate withholds a grant.
func (c *Credit) Held() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.has.Load()
}

// Close shuts the gate with its lane — what it withholds is dropped, and
// so is every later offer — and its window: an admission waiter stops,
// and the retry timer drains.
func (c *Credit) Close() {
	c.mu.Lock()
	c.has.Store(false)
	c.shut = true
	c.mu.Unlock()
	c.send.Close()
	c.recv.Close()
}
