package core

import (
	"errors"
	"time"

	"ncs/internal/buf"
	"ncs/internal/stream"
	"ncs/internal/transport"
)

// The fast path is §4.2's conclusion: "another version of NCS_send() and
// NCS_recv() primitives, which bypasses all NCS threads ... In this
// case, all threads can be replaced by procedures." The procedures are
// the ones the threads run — Connection.send and Connection.ingest —
// executing inline on the caller's goroutine; the sender's inline
// primitives sit beside their threaded forms in conn.go (admit, put,
// awaitAck, pumpCtrl). FastPath takes precedence over Options.Runtime.
// Full duplex is preserved — Send reads only the control connection and
// writes the data connection; Recv reads the data connection and writes
// the control connection — so an echo exchange may run Send and Recv
// from different goroutines concurrently.
//
// What is left here is the one thing only the fast path needs: with no
// receive threads, whichever receiver reaches the data transport first
// becomes the pump — it holds fastRecvMu, reads the wire for everyone,
// and dispatches each frame wherever it belongs: its own channel's
// completions return (or stop the pump), other channels' completions
// park on their stream (or on park0 for stream 0) and ring that
// channel's doorbell. Receivers that find the pump busy wait on their
// doorbell plus pumpFree, which is rung whenever the pump hands off.
// The no-stream single-receiver hot path degenerates to one atomic
// backlog check, an uncontended TryLock, and a blocking RecvBuf.

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
		if m, ok := c.ingest(b); ok {
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
