package core

import (
	"time"

	"ncs/internal/packet"
	"ncs/internal/stream"
)

// This file is the core side of stream multiplexing: the lazy per-
// connection mux, the control routing for the three stream control
// types, and the application-facing Stream handle.
//
// The layering mirrors the rest of the core: internal/stream owns all
// per-stream protocol state (credits, reassembly sessions, the
// mailbox); this file owns the wire — which thread a frame arrives on
// and which queue a control packet leaves through. A blocked receiver
// waits where the default lane's does (Connection.await).

// muxIfAny returns the connection's stream mux if one exists. Frame
// and control routing use it where a missing mux means "no stream ever
// existed here" and the event can be dropped or must create one.
func (c *Connection) muxIfAny() *stream.Mux { return c.muxp.Load() }

// mux returns the connection's stream mux, creating it on first use —
// the first OpenStream, AcceptStream, or inbound stream frame. The
// construction mirrors the lazy flow-control constructors: c.mu
// serialises builders, and a mux built concurrently with Close is
// reaped immediately so no stream can outlive its connection.
func (c *Connection) mux() *stream.Mux {
	if m := c.muxp.Load(); m != nil {
		return m
	}
	c.mu.Lock()
	if m := c.muxp.Load(); m != nil {
		c.mu.Unlock()
		return m
	}
	m := stream.NewMux(c.initiator, stream.Config{
		Flow: c.opts.FlowConfig,
		Err:  c.opts.ErrorControl,
	})
	m.SetEmitter(c.emitStamped)
	c.muxp.Store(m)
	var closed bool
	select {
	case <-c.closedCh:
		closed = true
	default:
	}
	c.mu.Unlock()
	if closed {
		m.ReapAll()
	}
	return m
}

// emitStamped sends one control packet stamped with the connection's
// id over its control path. It is the emitter of the stream mux (grants,
// open and close announcements) and of the credit receiver's refill
// timer, so it also runs on consumer and timer goroutines — a TryPop
// that refills the peer's credit window emits from whatever goroutine
// popped.
func (c *Connection) emitStamped(ctl packet.Control) bool {
	ctl.ConnID = c.id
	return c.emitCtrl(ctl)
}

// routeStreamCtrl dispatches one stream-scoped control packet. Bodies
// alias the pooled receive buffer; every branch parses synchronously.
func (c *Connection) routeStreamCtrl(ctl packet.Control) {
	switch ctl.Type {
	case packet.CtrlStreamGrant:
		// A grant can only answer data we sent, so the mux must exist;
		// if it does not (or the stream is unknown), the grant is a
		// straggler for a torn-down stream.
		m := c.muxIfAny()
		if m == nil {
			return
		}
		id, _, err := packet.ParseStreamGrant(ctl.Body)
		if err != nil {
			return
		}
		if st, ok := m.Lookup(id); ok {
			st.OnGrant(ctl)
		}
	case packet.CtrlStreamOpen:
		id, err := packet.ParseStreamID(ctl.Body)
		if err != nil {
			return
		}
		// Create-on-announce: the stream lands on the accept queue
		// before its first data frame, so AcceptStream can return for
		// streams the peer opened but has not written to yet.
		c.mux().Get(id)
	case packet.CtrlStreamClose:
		m := c.muxIfAny()
		if m == nil {
			return
		}
		id, err := packet.ParseStreamID(ctl.Body)
		if err != nil {
			return
		}
		if st, ok := m.Lookup(id); ok {
			st.RemoteClose()
		}
	}
}

// streamSendable reports why a stream send should stop retrying
// admission: ErrStreamClosed once the stream was closed locally or by
// the peer (whose grants will never come), nil while it is live.
func (c *Connection) streamSendable(id uint32) error {
	m := c.muxIfAny()
	if m == nil {
		return nil
	}
	st, ok := m.Lookup(id)
	if !ok {
		return nil
	}
	if st.Over() {
		return ErrStreamClosed
	}
	return nil
}

// ---------------------------------------------------------------------------
// The application-facing stream handle.

// Stream is one ordered message channel multiplexed over a Connection.
// Each stream has its own receiver-advertised credit window and its
// own reliability sessions, so a slow or unconsumed stream exhausts
// only its own credits: siblings — and the connection's default
// channel (stream 0, the plain Send/Recv API) — keep flowing.
//
// Send and Recv follow Connection semantics: Send blocks until the
// transfer completes (reliable) or is handed to the interface
// (unreliable); Recv blocks for the next fully received message.
// Streams are created with OpenStream and surface to the peer via
// AcceptStream.
type Stream struct {
	c  *Connection
	st *stream.State
}

// ID returns the stream identifier carried in its data frames. The
// connection's dialing side opens odd ids, the accepting side even.
func (s *Stream) ID() uint32 { return s.st.ID() }

// Conn returns the connection this stream is multiplexed over.
func (s *Stream) Conn() *Connection { return s.c }

// OpenStream opens a new ordered channel over the connection and
// announces it to the peer, which collects it with AcceptStream.
func (c *Connection) OpenStream() (*Stream, error) {
	m := c.mux()
	st, ok := m.Open()
	if !ok {
		return nil, c.closeErr()
	}
	// The announcement is advisory — the first data frame would create
	// the peer state too — but it lets the peer accept before traffic.
	c.emitStamped(packet.Control{
		Type: packet.CtrlStreamOpen,
		Body: packet.StreamIDBody(st.ID()),
	})
	return &Stream{c: c, st: st}, nil
}

// AcceptStream blocks for the next stream the peer opened.
func (c *Connection) AcceptStream() (*Stream, error) {
	return c.AcceptStreamTimeout(0)
}

// AcceptStreamTimeout is AcceptStream with a deadline (d > 0); it
// returns ErrRecvTimeout when no stream arrives in time. Like any
// receiver, the acceptor reads the wires while it waits; a stream is
// accepted from the peer's CtrlStreamOpen or its first data frame,
// whichever is read first.
func (c *Connection) AcceptStreamTimeout(d time.Duration) (*Stream, error) {
	m := c.mux()
	var st *stream.State
	_, err := c.await(nil, m.AcceptBell, func() (_ Message, ok bool, err error) {
		if st, ok = m.PopAccept(); !ok && m.Closed() {
			err = c.closeErr()
		}
		return
	}, nil, d)
	if err != nil {
		return nil, err
	}
	return &Stream{c: c, st: st}, nil
}

// StreamByID returns the stream with the given id, creating it if
// needed and claiming it away from the accept queue. Layered
// protocols that communicate stream ids out of band — the RPC layer's
// streaming calls carry theirs in the call frame — use it to attach
// to a peer-opened stream without racing AcceptStream.
func (c *Connection) StreamByID(id uint32) *Stream {
	return &Stream{c: c, st: c.mux().Take(id)}
}

// Send transmits msg on the stream, reliably or unreliably per the
// connection's error-control configuration. Sends on one stream are
// serialised (it is an ordered channel); sends on different streams
// proceed independently, each against its own credit window.
func (s *Stream) Send(msg []byte) error {
	st := s.st
	st.LockSend()
	defer st.UnlockSend()
	if st.Over() {
		return ErrStreamClosed
	}
	return s.c.send(sendLane{streamID: st.ID(), fc: st.FlowSender(), tx: st.TxCounter()}, msg)
}

// Recv blocks for the next fully received message on the stream and
// returns it as a slice the caller owns.
func (s *Stream) Recv() ([]byte, error) { return owned(s.c.recv(s.st, nil, 0)) }

// RecvMessage is Recv with loss metadata and without its copy: the
// message is borrowed, as Connection.RecvMessage's is — read-only, and
// the caller's to Release exactly once.
func (s *Stream) RecvMessage() (Message, error) { return s.c.recv(s.st, nil, 0) }

// RecvTimeout is Recv with a deadline.
func (s *Stream) RecvTimeout(d time.Duration) ([]byte, error) { return owned(s.c.recv(s.st, nil, d)) }

// RecvMessageTimeout is RecvMessage with a deadline; the caller
// releases the message.
func (s *Stream) RecvMessageTimeout(d time.Duration) (Message, error) {
	return s.c.recv(s.st, nil, d)
}

// Close tears the stream down on this side and announces the close to
// the peer, whose receivers observe ErrStreamClosed once drained and
// whose blocked senders stop retrying admission. Retained buffers —
// parked messages, incomplete reassembly — release immediately. Close
// a stream only after its senders have quiesced; frames still in
// flight for a closed stream are dropped on arrival.
func (s *Stream) Close() error {
	if s.st.Closed() {
		return nil
	}
	s.st.Reap()
	s.c.wakeAll(true) // a sender waiting for its credits stops
	s.c.emitStamped(packet.Control{
		Type: packet.CtrlStreamClose,
		Body: packet.StreamIDBody(s.st.ID()),
	})
	return nil
}

// Closed reports whether the stream was closed locally or by the peer.
func (s *Stream) Closed() bool {
	return s.st.Over()
}
