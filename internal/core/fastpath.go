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
// the ones the threads run — Connection.send, Connection.ingest and the
// one wait loop, Connection.await — executing inline on the caller's
// goroutine. FastPath takes precedence over Options.Runtime. Full duplex
// is preserved — Send reads only the control connection and writes the
// data connection; Recv reads the data connection and writes the
// control connection — so an echo exchange may run Send and Recv from
// different goroutines concurrently.
//
// What is left here is the one thing only the fast path needs: with no
// receive threads, whichever receiver reaches the data transport first
// becomes the pump — it holds fastRecvMu and reads the wire for
// everyone. Receivers that find the pump busy wait on their lane's bell
// plus pumpFree, which is rung whenever the pump changes hands.

// pumpRelease deposits the hand-off token that wakes one receiver
// blocked waiting for the pump. It is rung when the pump is released
// and after any take from a mailbox, so a backlog left by a departing
// receiver always has a successor to drain it.
func (c *Connection) pumpRelease() {
	select {
	case c.pumpFree <- struct{}{}:
	default:
	}
}

// fastPump reads the data transport with fastRecvMu held (the caller
// acquires it), running every arriving frame through ingest: a message
// completing on want — the caller's own lane, whose mailbox it found
// empty — is returned directly, so the single-receiver hot path touches
// no queue; every other completion lands in its lane's mailbox and
// rings that lane's bell. It also returns when stop — checked before
// each blocking read — reports the caller's wait is over (its stream's
// lifecycle ended, an accept arrived), when the deadline passes
// (ErrRecvTimeout), or when the transport dies.
func (c *Connection) fastPump(want *stream.Mailbox[Message], stop func() bool, deadline time.Time) (Message, bool, error) {
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
		if m, ok := c.ingest(b, want); ok {
			return m, true, nil
		}
	}
}
