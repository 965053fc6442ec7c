package core

import (
	"errors"
	"time"

	"ncs/internal/buf"
	"ncs/internal/errctl"
	"ncs/internal/flowctl"
	"ncs/internal/packet"
	"ncs/internal/stream"
	"ncs/internal/telemetry"
	"ncs/internal/transport"
)

// The fast path implements §4.2's conclusion: "another version of
// NCS_send() and NCS_recv() primitives, which bypasses all NCS threads
// ... and transmits or receives directly ... In this case, all threads
// can be replaced by procedures. These procedures include flow control,
// error control, multicasting algorithms, and low-level communication
// primitives."
//
// The flow- and error-control state machines are the same objects the
// threads drive; here they execute inline on the caller's goroutine.
// FastPath takes precedence over Options.Runtime: a fast-path
// connection bypasses the sharded runtime's event loops (shard.go)
// exactly as it bypasses the per-connection threads — there is nothing
// between the caller and the transport either way.
// With no threads to observe transport death, the inline procedures
// propagate it themselves: any non-timeout transport failure closes
// the connection, so Done/Err observers (the RPC layer, select loops)
// see fast-path teardown exactly as they see threaded teardown.
// Full duplex is preserved — Send reads only the control connection and
// writes the data connection; Recv reads the data connection and writes
// the control connection — so an echo exchange may run Send and Recv
// from different goroutines concurrently.
//
// Packets stage through the pooled buffers of internal/buf end to end:
// on HPI the SDU written here is the very storage the peer's receive
// procedure parses (a true zero-copy handoff), and steady-state sends
// allocate nothing.
//
// Streams and the fast path: with no receive threads, whichever
// receiver reaches the data transport first becomes the pump — it
// holds fastRecvMu, reads the wire for everyone, and dispatches each
// frame wherever it belongs: its own channel's completions return (or
// stop the pump), other channels' completions park on their stream (or
// on park0 for stream 0) and ring that channel's doorbell. Receivers
// that find the pump busy wait on their doorbell plus pumpFree, which
// is rung whenever the pump hands off. The no-stream single-receiver
// hot path degenerates to exactly the pre-stream loop — one atomic
// backlog check, an uncontended TryLock, and the same blocking RecvBuf
// — preserving its allocation profile.
//
// Sends on all channels serialise on fastSendMu (the procedure-call
// model has one caller in the protocol at a time), so a fast-path
// stream send that exhausts its credit window can delay siblings for
// up to the bounded admission wait; keep unconsumed fast-path streams
// within their initial credit window. The threaded and sharded
// runtimes have no such coupling.

// maxCreditWait bounds how long a fast-path sender waits for flow
// control admission before giving up, in multiples of AckTimeout.
const maxCreditWait = 10

func (c *Connection) sendFast(msg []byte, tr *SendTrace) error {
	return c.sendFastOn(c.lane0(), msg, tr)
}

// sendFastOn is the §4.2 send procedure against an arbitrary send
// lane: stream 0 uses the connection's flow-control state, any other
// stream its own credit engine, so admission blocks only the lane
// whose window is exhausted.
func (c *Connection) sendFastOn(lane sendLane, msg []byte, tr *SendTrace) error {
	if err := c.checkSendSize(msg); err != nil {
		return err
	}
	c.fastSendMu.Lock()
	defer c.fastSendMu.Unlock()

	sess := c.nextSession.Add(1)
	telemetry.TraceStart(c.id, sess, len(msg))
	if c.opts.ErrorControl == errctl.None {
		// Unreliable transfer: flow-control admission, one pooled
		// staging buffer, one transport write per SDU — the procedure
		// call §4.2 promises, with no per-message protocol objects.
		// Segmentation happens inline; nothing allocates.
		sduSize, n := c.unreliableSegments(msg)
		for i := 0; i < n; i++ {
			lo := i * sduSize
			hi := lo + sduSize
			if hi > len(msg) {
				hi = len(msg)
			}
			if err := c.fastAdmitOn(lane, sess, nil); err != nil {
				return err
			}
			telemetry.TraceStamp(c.id, sess, telemetry.StageStaged)
			sdu := c.unreliableSDU(msg[lo:hi], lane.streamID, sess, i, n)
			sb := buf.GetCap(packet.DataHeaderSize + len(sdu.Payload))
			sb.B = packet.AppendSDU(sb.B, sdu.Header, sdu.Payload)
			if err := c.data.SendBuf(sb); err != nil {
				c.Close()
				return ErrConnClosed
			}
			c.stats.sdusSent.Add(1)
			c.stats.bytesSent.Add(uint64(len(sdu.Payload)))
			mSendSDUs.IncAt(c.id)
			mSendBytes.AddAt(c.id, int64(len(sdu.Payload)))
			telemetry.TraceStamp(c.id, sess, telemetry.StageWireOut)
		}
		c.stats.messagesSent.Add(1)
		mSendMsgs.IncAt(c.id)
		return nil
	}
	// The fast path has no waiter to register and no timer of its own
	// (the control transport's timed receive is both), so of the pooled
	// send session it takes only the sender.
	snd := errctl.NewSenderStream(c.opts.ErrorControl, msg, c.opts.SDUSize, c.id, lane.streamID, sess)
	defer errctl.Release(snd)

	queue := snd.Initial()
	for {
		// Transmit the queued SDUs, processing control traffic inline
		// whenever flow control withholds admission. Retransmissions in
		// the queue are presumed losses: return their credits first so
		// the write-off funds the resend (see Connection.transmitOn).
		rtx := 0
		for _, sdu := range queue {
			if sdu.Header.Flags&packet.FlagRetransmit != 0 {
				rtx++
			}
		}
		if rtx > 0 {
			flowctl.NoteLoss(lane.fc, rtx)
		}
		for _, sdu := range queue {
			if err := c.fastAdmitOn(lane, sess, snd); err != nil {
				return err
			}
			telemetry.TraceStamp(c.id, sess, telemetry.StageStaged)
			sb := buf.GetCap(packet.DataHeaderSize + len(sdu.Payload))
			sb.B = packet.AppendSDU(sb.B, sdu.Header, sdu.Payload)
			if err := c.data.SendBuf(sb); err != nil {
				c.Close()
				return ErrConnClosed
			}
			c.stats.sdusSent.Add(1)
			c.stats.bytesSent.Add(uint64(len(sdu.Payload)))
			mSendSDUs.IncAt(c.id)
			mSendBytes.AddAt(c.id, int64(len(sdu.Payload)))
			telemetry.TraceStamp(c.id, sess, telemetry.StageWireOut)
			if sdu.Header.Flags&packet.FlagRetransmit != 0 {
				c.stats.retransmissions.Add(1)
			}
		}
		queue = queue[:0]
		if snd.Done() {
			c.stats.messagesSent.Add(1)
			mSendMsgs.IncAt(c.id)
			return nil
		}

		// Await the acknowledgment (or retransmit on timeout).
		cb, err := c.ctrl.RecvBufTimeout(c.opts.AckTimeout)
		switch {
		case errors.Is(err, transport.ErrRecvTimeout):
			queue = snd.OnTimeout()
			continue
		case err != nil:
			c.Close()
			return ErrConnClosed
		}
		pkt, perr := packet.UnmarshalControl(cb.B)
		if perr != nil {
			cb.Release()
			continue
		}
		c.stats.controlReceived.Add(1)
		var (
			rt      []errctl.SDU
			done    bool
			ackErr  error
			matched bool
		)
		switch pkt.Type {
		case packet.CtrlCredit, packet.CtrlCreditGrant, packet.CtrlRate, packet.CtrlWinAck:
			c.flowSend().OnControl(pkt)
		case packet.CtrlStreamGrant, packet.CtrlStreamOpen, packet.CtrlStreamClose:
			c.routeStreamCtrl(pkt)
		case packet.CtrlAck, packet.CtrlNack:
			if pkt.SessionID == sess {
				matched = true
				rt, done, ackErr = snd.OnAck(pkt)
			}
			// Otherwise: stale ack from an earlier session; ignore.
			// (fastSendMu serialises senders, so no concurrent session's
			// acknowledgments can arrive here.)
		}
		// Control handling is synchronous; the receive buffer can
		// recycle before we act on the outcome.
		cb.Release()
		if !matched {
			continue
		}
		if ackErr != nil && !errors.Is(ackErr, errctl.ErrSessionDone) {
			return ackErr
		}
		if done {
			c.stats.messagesSent.Add(1)
			mSendMsgs.IncAt(c.id)
			return nil
		}
		queue = rt
	}
}

// fastAdmitOn blocks until the lane's flow control admits the next
// transmission, pumping the control connection while it waits. Stream
// lanes that burn a full wait interval with no grant record the credit
// wait and check for a closed stream, so a send toward a peer that
// closed the stream surfaces ErrStreamClosed instead of spinning out
// the whole admission budget.
func (c *Connection) fastAdmitOn(lane sendLane, sess uint32, snd errctl.Sender) error {
	fc := lane.fc
	idx := lane.tx.Add(1) - 1
	if fc.TryAcquire(idx) {
		return nil
	}
	// The fast path bypasses the Sender's blocking entry points, so it
	// reports its admission wait to flow control's instruments itself.
	blockedAt := time.Now()
	defer func() { flowctl.NoteFastPathWait(c.opts.FlowControl, time.Since(blockedAt)) }()
	for attempt := 0; attempt < maxCreditWait; attempt++ {
		cb, err := c.ctrl.RecvBufTimeout(c.opts.AckTimeout)
		if errors.Is(err, transport.ErrRecvTimeout) {
			// No control traffic at all: assume credit loss and resync.
			if lane.streamID != 0 {
				stream.NoteCreditWait()
				if serr := c.streamSendable(lane.streamID); serr != nil {
					return serr
				}
			}
			fc.Resync()
			if fc.TryAcquire(idx) {
				return nil
			}
			continue
		}
		if err != nil {
			c.Close()
			return ErrConnClosed
		}
		pkt, perr := packet.UnmarshalControl(cb.B)
		if perr == nil {
			switch pkt.Type {
			case packet.CtrlStreamGrant, packet.CtrlStreamOpen, packet.CtrlStreamClose:
				// Stream grants route through the mux to their stream's
				// credit engine — including, when addressed to it, this
				// very lane's.
				c.routeStreamCtrl(pkt)
			default:
				// Connection-scoped control feeds the connection's flow
				// sender, never a stream lane's: the two credit spaces
				// must not contaminate each other.
				c.flowSend().OnControl(pkt)
				// Acks that arrive while we wait for credits still belong
				// to the active session's error control. Processing them
				// here would reorder the protocol; the sender sees them
				// after the batch. Selective repeat and go-back-N both
				// tolerate delayed acks via their timers.
				_ = snd
				_ = sess
			}
		}
		cb.Release()
		if fc.TryAcquire(idx) {
			return nil
		}
	}
	return ErrRecvTimeout
}

// ---------------------------------------------------------------------------
// Fast-path receive: the shared pump.

// pumpRelease deposits the hand-off token that wakes one receiver
// blocked waiting for the pump. It is rung when the pump is released
// and after any parked-message pop, so a backlog left by a departing
// receiver always has a successor to drain it.
func (c *Connection) pumpRelease() {
	select {
	case c.pumpFree <- struct{}{}:
	default:
	}
}

// park0Put parks a completed stream-0 message pumped up by a stream
// receiver (or acceptor) for whoever is blocked in Recv.
func (c *Connection) park0Put(m Message) {
	c.park0Mu.Lock()
	c.park0 = append(c.park0, m)
	c.nPark0.Store(int32(len(c.park0)))
	c.park0Mu.Unlock()
	select {
	case c.bell0 <- struct{}{}:
	default:
	}
}

// park0Pop takes the oldest parked stream-0 message. The no-stream hot
// path costs exactly the leading atomic load.
func (c *Connection) park0Pop() (Message, bool) {
	if c.nPark0.Load() == 0 {
		return Message{}, false
	}
	c.park0Mu.Lock()
	if len(c.park0) == 0 {
		c.park0Mu.Unlock()
		return Message{}, false
	}
	m := c.park0[0]
	c.park0[0] = Message{}
	c.park0 = c.park0[1:]
	if len(c.park0) == 0 {
		c.park0 = nil
	}
	remaining := len(c.park0)
	c.nPark0.Store(int32(remaining))
	c.park0Mu.Unlock()
	if remaining > 0 {
		// bell0 is capacity-1; re-ring for the rest of the backlog.
		select {
		case c.bell0 <- struct{}{}:
		default:
		}
	}
	return m, true
}

// fastPump reads the data transport with fastRecvMu held (the caller
// acquires it), dispatching every arriving frame: stream frames to
// their streams, stream-0 completions either returned directly (the
// stream-0 receiver's own pump, direct=true) or parked on park0. It
// returns when direct delivery succeeds, when stop — checked before
// each blocking read — reports the caller's condition was met
// elsewhere (its stream's backlog grew, an accept arrived), when the
// deadline passes (ErrRecvTimeout), or when the transport dies.
func (c *Connection) fastPump(direct bool, stop func() bool, deadline time.Time) (Message, bool, error) {
	for {
		if stop != nil && stop() {
			return Message{}, false, nil
		}
		var b *buf.Buffer
		var err error
		if !deadline.IsZero() {
			remain := time.Until(deadline)
			if remain <= 0 {
				return Message{}, false, ErrRecvTimeout
			}
			b, err = c.data.RecvBufTimeout(remain)
			if errors.Is(err, transport.ErrRecvTimeout) {
				return Message{}, false, ErrRecvTimeout
			}
		} else {
			b, err = c.data.RecvBuf()
		}
		if err != nil {
			c.Close()
			return Message{}, false, ErrConnClosed
		}
		h, payload, perr := packet.SplitData(b.B)
		if perr != nil {
			b.Release()
			continue
		}
		m, ok := c.dispatchData(h, payload, b, c.emitCtrl)
		b.Release()
		if ok {
			telemetry.TraceFinish(c.id, h.SessionID)
			if direct {
				return m, true, nil
			}
			c.park0Put(m)
		}
	}
}

// fastWait blocks a receiver that found the pump busy until its
// doorbell rings, the pump frees up, the connection closes, or the
// deadline passes. A nil error means "re-check and retry".
func (c *Connection) fastWait(bell <-chan struct{}, deadline time.Time) error {
	if deadline.IsZero() {
		select {
		case <-bell:
		case <-c.pumpFree:
		case <-c.closedCh:
			return c.closeErr()
		}
		return nil
	}
	remain := time.Until(deadline)
	if remain <= 0 {
		return ErrRecvTimeout
	}
	t := time.NewTimer(remain)
	defer t.Stop()
	select {
	case <-bell:
	case <-c.pumpFree:
	case <-c.closedCh:
		return c.closeErr()
	case <-t.C:
		return ErrRecvTimeout
	}
	return nil
}

// recvFast is the §4.2 receive procedure for stream 0.
func (c *Connection) recvFast(timeout time.Duration) (Message, error) {
	var deadline time.Time
	if timeout > 0 {
		deadline = time.Now().Add(timeout)
	}
	for {
		if m, ok := c.park0Pop(); ok {
			c.pumpRelease()
			return m, nil
		}
		if c.fastRecvMu.TryLock() {
			m, got, err := c.fastPump(true, nil, deadline)
			c.fastRecvMu.Unlock()
			c.pumpRelease()
			if err != nil {
				return Message{}, err
			}
			if got {
				return m, nil
			}
			continue
		}
		if err := c.fastWait(c.bell0, deadline); err != nil {
			return Message{}, err
		}
	}
}

// recvStreamFast is the receive procedure for a multiplexed stream:
// pop the stream's backlog, else pump (stopping as soon as the
// backlog grows — possibly via a sibling pump parking into it), else
// wait on the stream's doorbell.
func (c *Connection) recvStreamFast(st *stream.State, timeout time.Duration) (Message, error) {
	var deadline time.Time
	if timeout > 0 {
		deadline = time.Now().Add(timeout)
	}
	for {
		if m, ok := st.TryPop(); ok {
			c.pumpRelease()
			return Message{Data: m.Data, Lost: m.Lost}, nil
		}
		if st.Closed() || st.RemoteClosed() {
			return Message{}, ErrStreamClosed
		}
		if c.fastRecvMu.TryLock() {
			_, _, err := c.fastPump(false, st.Ready, deadline)
			c.fastRecvMu.Unlock()
			c.pumpRelease()
			if err != nil {
				return Message{}, err
			}
			continue
		}
		if err := c.fastWait(st.Bell(), deadline); err != nil {
			return Message{}, err
		}
	}
}

// acceptFast waits for a peer-initiated stream on the fast path,
// pumping the data transport when no one else is: the peer's
// CtrlStreamOpen rides the control connection (which only senders
// read), so fast-path accepts materialise from the stream's first
// data frame instead.
func (c *Connection) acceptFast(m *stream.Mux, deadline time.Time) (*stream.State, error) {
	for {
		if st, ok := m.PopAccept(); ok {
			c.pumpRelease()
			return st, nil
		}
		if m.Closed() {
			return nil, c.closeErr()
		}
		if c.fastRecvMu.TryLock() {
			_, _, err := c.fastPump(false, m.HasAccept, deadline)
			c.fastRecvMu.Unlock()
			c.pumpRelease()
			if err != nil {
				return nil, err
			}
			continue
		}
		if err := c.fastWait(m.AcceptBell(), deadline); err != nil {
			return nil, err
		}
	}
}
