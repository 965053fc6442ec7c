// Package stream multiplexes a Connection into independent ordered
// message channels. Each stream carries its own receiver-advertised
// cumulative credit window (the credit engine of internal/flowctl,
// instantiated per stream), its own reliability sessions, and its own
// mailbox of completed messages — so an unconsumed stream exhausts only
// its own credits and can never head-of-line-block the connection or
// its sibling streams, the netchan/HTTP/2 discipline.
//
// The division of labour with internal/core: core owns the wire (send
// threads, receive demux, control routing) and calls into this package
// with parsed frames; this package owns everything per-stream — credit
// state, reassembly sessions, parking. Stream 0 is the connection's
// default channel: its reassembly and its mailbox are core's, but its
// credit window and gate are this package's Credit, as every stream's
// are, and its receive end is the same Mailbox.
//
// The package also owns the one queue and the one sleep of the receive
// side (mailbox.go). Mailbox[T] is a ring with a doorbell, generic over
// what waits in it: a lane's messages, a core.Inbox's deliveries, this
// package's accept queue. Await is the wait
// loop every blocking receive runs — try, else sleep on the bell, a
// second doorbell, the owner's close or the deadline — on a lane, an
// inbox or the accept queue alike, so they cannot disagree about
// deadlines or about draining before a close is reported.
//
// A stream's credit receiver observes SDUs on arrival — so a large
// message flows at wire speed, its window sliding as its SDUs land —
// but the grants it produces pass its gate (Credit, gate.go), which
// emits them only while the stream's delivery backlog is empty. The
// moment a completed message parks unconsumed, further grants are
// withheld (latest wins — grants are cumulative) and the peer's sender
// runs out of window once the already-granted credits are spent; TryPop
// flushes the withheld grant when the consumer drains the backlog. A
// stream nobody reads therefore parks at most a credit window of SDUs,
// and the few its stalled sender's backed-off resynchronisation repairs
// (flowctl), while siblings flow on. The connection's default lane bounds itself
// with a Credit of its own, at its depth: no lane ever stops the wire
// they all share.
package stream

import (
	"sync"
	"sync/atomic"

	"ncs/internal/buf"
	"ncs/internal/errctl"
	"ncs/internal/flowctl"
	"ncs/internal/packet"
)

// Msg is a message delivered on a stream, as its session table
// completed it. Lost reports SDUs missing from an unreliable transfer,
// as core.Message does for stream 0.
type Msg = errctl.Delivery

// Config fixes the per-stream protocol machinery: the credit window
// configuration each stream's flow control is built from, and the
// error-control algorithm its reassembly sessions run.
type Config struct {
	Flow flowctl.Config
	Err  errctl.Algorithm
}

// State is one stream's receive- and send-side protocol state. Core
// routes frames here by the StreamID of their data header; the
// application side (core's Stream type) sends through FlowSender and
// receives through TryPop, waiting on the mailbox's bell.
type State struct {
	id uint32

	// sendMu serialises Send calls so the stream is an ordered channel:
	// a reliable message completes before the next begins.
	sendMu sync.Mutex

	// tx is the stream-lifetime transmit index fed to the credit
	// sender.
	tx atomic.Uint32

	// cr is the stream's credit window and the gate its grants pass: the
	// backlog that withholds them is the mailbox's length.
	cr Credit

	// inbound is the stream's reassembly session table — the same type
	// the connection's default lane runs.
	inbound errctl.SessionTable

	// box is the stream's receive end; its length is the backlog that
	// gates grants.
	box Mailbox[Msg]

	// claimed: Take attached this stream out of band, so it must not
	// surface to AcceptStream (PopAccept skips it).
	claimed atomic.Bool

	mu     sync.Mutex
	local  bool // opened here (vs announced by the peer)
	reaped bool // Reap ran: drop further frames
	remote bool // peer announced close
}

// ID returns the stream identifier carried in the data headers.
func (s *State) ID() uint32 { return s.id }

// LockSend serialises message sends on the stream; core's Stream.Send
// holds it across the whole transfer so the channel stays ordered.
func (s *State) LockSend() { s.sendMu.Lock() }

// UnlockSend releases LockSend.
func (s *State) UnlockSend() { s.sendMu.Unlock() }

// TxCounter exposes the stream-lifetime transmit index core's send
// path feeds to this stream's credit sender.
func (s *State) TxCounter() *atomic.Uint32 { return &s.tx }

// Box returns the stream's receive end. Its bell also rings when the
// stream's lifecycle changes, so a blocked receiver re-checks.
func (s *State) Box() *Mailbox[Msg] { return &s.box }

// FlowSender returns the stream's credit sender for core's transmit
// admission.
func (s *State) FlowSender() flowctl.Sender { return s.cr.Sender() }

// OnGrant feeds a CtrlStreamGrant addressed to this stream into its
// credit sender.
func (s *State) OnGrant(ctl packet.Control) { s.cr.OnGrant(ctl) }

// OnData runs one arriving SDU through the stream's reassembly,
// emitting error-control acks (and a piggybacked stream credit grant)
// via emit, which must stamp the connection id and serialise the
// packet before it returns: every body is borrowed until then. payload
// aliases ref, which the caller still owns; reassembly retains it as
// needed. When the SDU completes a message, OnData reports done and
// puts the message in the stream's mailbox, where receivers collect it
// with TryPop — unless direct is set (the caller is reading for this
// stream's own receiver) and nothing is queued ahead of it: then the
// message is returned instead, and direct comes back true.
//
// Frames for a reaped (closed) stream are dropped: the peer was told
// via CtrlStreamClose, so anything still arriving is a straggler.
func (s *State) OnData(h packet.DataHeader, payload []byte, ref *buf.Buffer, emit func(packet.Control) bool, direct bool) (m Msg, done, handed bool) {
	s.mu.Lock()
	if s.reaped {
		s.mu.Unlock()
		return Msg{}, false, false
	}
	s.mu.Unlock()

	acks, d, done := s.inbound.OnData(h, payload, ref)
	for _, a := range acks {
		a.SessionID = h.SessionID
		if !emit(a) {
			d.Release() // the connection closed under a completed message
			return Msg{}, false, false
		}
	}
	// Delivery before crediting: when this SDU completes a message that
	// nobody is consuming, the gate withholds the grant.
	if done && !s.park(d, direct) {
		m, handed = d, true
	}
	s.cr.Arrived(h.SessionID, h.Tx, len(acks) > 0)
	return m, done, handed
}

// backlogged is the stream's gate condition: a completed message waits
// unconsumed.
func (s *State) backlogged() bool { return s.box.Len() > 0 }

// park queues a completed message for TryPop (a reaped stream drops
// it, releasing what it borrowed); it reports false when the direct
// rule left the message with the caller (see Mailbox.Put). A park onto
// an already non-empty backlog is exactly the situation where
// single-flow delivery would have head-of-line-blocked the connection;
// count it.
func (s *State) park(m Msg, direct bool) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.reaped {
		m.Release()
		return true
	}
	if s.box.Len() > 0 {
		mHOLAvoided.Inc()
	}
	return s.box.Put(m, direct)
}

// TryPop takes the oldest parked message, which the caller must Release
// (or own with Bytes) when done with it. Draining the backlog is what
// reopens the stream's credit flow: the pop that empties the mailbox
// flushes the grant withheld while messages sat unconsumed, and the
// peer's stalled sender resumes.
func (s *State) TryPop() (Msg, bool) {
	m, ok := s.box.Pop()
	if ok {
		s.cr.Flush()
	}
	return m, ok
}

// Closed reports that the stream was reaped locally.
func (s *State) Closed() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.reaped
}

// Over reports that the stream's lifecycle ended: it was reaped
// locally, or the peer announced close.
func (s *State) Over() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.reaped || s.remote
}

// RemoteClose handles the peer's CtrlStreamClose: in-flight sessions
// are abandoned (releasing the pooled buffers their reassembly
// retained — no more frames will complete them), the credit sender
// unblocks any admission waiter, and parked messages stay readable
// until drained.
func (s *State) RemoteClose() {
	s.mu.Lock()
	if s.remote || s.reaped {
		s.mu.Unlock()
		return
	}
	s.remote = true
	s.inbound.Reap()
	s.mu.Unlock()
	s.cr.Close()
	s.box.Ring()
}

// Reap tears the stream down: incomplete sessions release their
// retained buffers, parked messages are released and dropped, and both
// credit halves close (draining their retry timers, so the leak audits'
// flowctl.PendingTimers sees zero). Idempotent.
func (s *State) Reap() {
	s.mu.Lock()
	if s.reaped {
		s.mu.Unlock()
		return
	}
	s.reaped = true
	s.inbound.Reap()
	s.box.Each((*Msg).Release)
	s.box.Drop()
	s.mu.Unlock()
	s.cr.Close()
	mOpenStreams.Dec()
	s.box.Ring()
}
