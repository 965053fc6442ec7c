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
// default channel and keeps its own flow control (the connection's
// negotiated algorithm, which speaks different control frames than a
// stream's grants); its receive end is the same Mailbox every stream
// has.
//
// The package also owns the one queue and the one sleep of the receive
// side (mailbox.go). Mailbox[T] is a ring with a doorbell, generic over
// what waits in it: a lane's messages, a core.Inbox's deliveries and the
// producers it made stop, this package's accept queue. Await is the wait
// loop every blocking receive runs — try, else sleep on the bell, a
// second doorbell, the owner's close or the deadline — on a lane, an
// inbox or the accept queue alike, so they cannot disagree about
// deadlines or about draining before a close is reported.
//
// A stream's credit receiver observes SDUs on arrival — so a large
// message flows at wire speed, its window sliding as its SDUs land —
// but the grants it produces are only EMITTED while the stream's
// delivery backlog is empty. The moment a completed message parks
// unconsumed, further grants are withheld (latest wins — grants are
// cumulative) and the peer's sender runs out of window once the
// already-granted credits are spent; TryPop flushes the withheld grant
// when the consumer drains the backlog. A stream nobody reads
// therefore parks at most a credit window of SDUs while siblings flow
// on.
package stream

import (
	"encoding/binary"
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
	id  uint32
	mux *Mux

	// sendMu serialises Send calls so the stream is an ordered channel:
	// a reliable message completes before the next begins.
	sendMu sync.Mutex

	// tx is the stream-lifetime transmit index fed to the credit
	// sender; rx the arrival index fed to the credit receiver.
	tx atomic.Uint32
	rx atomic.Uint32

	fcOnce sync.Once
	fcSend flowctl.Sender
	fcRecv flowctl.Receiver

	// inbound is the stream's reassembly session table — the same type
	// the connection's default lane runs.
	inbound errctl.SessionTable

	// box is the stream's receive end. Its length is the backlog that
	// gates grants: park queues under mu and offerGrant reads the length
	// under mu, so a grant is withheld only behind a message whose pop
	// will take mu after it and flush.
	box Mailbox[Msg]

	// claimed: Take attached this stream out of band, so it must not
	// surface to AcceptStream (PopAccept skips it).
	claimed atomic.Bool

	mu      sync.Mutex
	held    grantBody // latest grant withheld while backlogged
	hasHeld bool
	local   bool // opened here (vs announced by the peer)
	reaped  bool // Reap ran: drop further frames
	remote  bool // peer announced close

	// rxGrant is the scratch the receive path's grants (arrival refills,
	// the ack piggyback) are framed in. Like every control body it is
	// borrowed until emit returns; OnData is its only user, and runs on
	// one goroutine at a time.
	rxGrant grantBody
}

// grantBody is the storage of one encoded CtrlStreamGrant body.
type grantBody [packet.StreamGrantSize]byte

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

// ensureFC builds the stream's credit flow-control halves on first
// use. Streams always run the credit engine regardless of the
// connection-level algorithm: per-stream isolation is the point, and
// cumulative credit grants are the only scheme whose control traffic
// the stream layer wraps (CtrlStreamGrant).
func (s *State) ensureFC() {
	s.fcOnce.Do(func() {
		s.fcSend = flowctl.NewSender(flowctl.Credit, s.mux.cfg.Flow)
		s.fcRecv = flowctl.NewReceiver(flowctl.Credit, s.mux.cfg.Flow)
		// Timer-driven refresh grants go through the same backlog gate
		// as arrival grants: an unconsumed stream must not be re-granted
		// by the refresh path either. They arrive on a timer goroutine,
		// so they are framed in storage of their own, never in rxGrant.
		flowctl.SetEmitter(s.fcRecv, func(ctl packet.Control) bool {
			s.offerGrant(s.wrapGrant(new(grantBody), ctl))
			return true
		})
	})
}

// FlowSender returns the stream's credit sender for core's transmit
// admission.
func (s *State) FlowSender() flowctl.Sender {
	s.ensureFC()
	return s.fcSend
}

// wrapGrant converts a connection-shaped credit grant emitted by the
// stream's receiver into its stream-scoped wire form, framed in dst.
func (s *State) wrapGrant(dst *grantBody, ctl packet.Control) packet.Control {
	body := binary.BigEndian.AppendUint32(dst[:0], s.id)
	body = append(body, ctl.Body...)
	return packet.Control{
		Type:      packet.CtrlStreamGrant,
		ConnID:    ctl.ConnID,
		SessionID: ctl.SessionID,
		Body:      body,
	}
}

// OnGrant feeds a CtrlStreamGrant addressed to this stream into its
// credit sender. The body is parsed synchronously; it may alias a
// pooled receive buffer the caller releases afterwards.
func (s *State) OnGrant(ctl packet.Control) {
	if len(ctl.Body) < packet.StreamGrantSize {
		return
	}
	s.ensureFC()
	s.fcSend.OnControl(packet.Control{
		Type:      packet.CtrlCreditGrant,
		ConnID:    ctl.ConnID,
		SessionID: ctl.SessionID,
		Body:      ctl.Body[4:],
	})
}

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
	// nobody is consuming, the backlog gate below withholds the grant.
	if done && !s.park(d, direct) {
		m, handed = d, true
	}
	s.creditArrival()
	if len(acks) > 0 && s.box.Len() == 0 {
		// Piggyback the stream's credit state on the ack burst, exactly
		// as the connection level does — the consumed-count refresh
		// retires the peer's in-flight without a dedicated packet. Under
		// a backlog the refresh is withheld with the rest of the grants.
		s.ensureFC()
		if g, ok := flowctl.Piggyback(s.fcRecv); ok {
			g.SessionID = h.SessionID
			emit(s.wrapGrant(&s.rxGrant, g))
		}
	}
	return m, done, handed
}

// creditArrival advances the stream's credit receiver for one arrived
// SDU and offers whatever grants it produces to the backlog gate.
// Arrival counting (the connection-level discipline) is what lets a
// message larger than the credit window complete: its window slides as
// its own SDUs land, without waiting for anything to be consumed.
func (s *State) creditArrival() {
	s.ensureFC()
	idx := s.rx.Add(1) - 1
	for _, ctl := range s.fcRecv.OnData(idx) {
		s.offerGrant(s.wrapGrant(&s.rxGrant, ctl))
	}
}

// offerGrant emits a grant while the stream's backlog is empty, and
// withholds it otherwise (latest wins — grants are cumulative), so an
// unconsumed stream stops being granted once its already-granted
// window is spent. TryPop flushes the withheld grant when the
// consumer drains the backlog. Only the body of a withheld grant is
// kept, by value: ctl's is borrowed.
func (s *State) offerGrant(ctl packet.Control) {
	s.mu.Lock()
	if s.reaped {
		s.mu.Unlock()
		return
	}
	if s.box.Len() > 0 {
		copy(s.held[:], ctl.Body)
		s.hasHeld = true
		s.mu.Unlock()
		return
	}
	s.mu.Unlock()
	s.mux.emit(ctl)
}

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
	if !ok {
		return Msg{}, false
	}
	var flush *grantBody
	s.mu.Lock()
	if s.box.Len() == 0 && s.hasHeld && !s.reaped {
		// A copy of its own: the receive path may withhold the next
		// grant while this one is still being emitted.
		flush = new(grantBody)
		*flush = s.held
		s.hasHeld = false
	}
	s.mu.Unlock()
	if flush != nil {
		s.mux.emit(packet.Control{Type: packet.CtrlStreamGrant, Body: flush[:]})
	}
	return m, true
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
	s.ensureFC() // build-then-close: FlowSender can never observe nil
	s.fcSend.Close()
	s.fcRecv.Close()
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
	s.hasHeld = false
	s.mu.Unlock()
	s.ensureFC() // build-then-close: FlowSender can never observe nil
	s.fcSend.Close()
	s.fcRecv.Close()
	mOpenStreams.Dec()
	s.box.Ring()
}
