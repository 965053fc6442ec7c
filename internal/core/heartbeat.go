package core

import (
	"time"

	"ncs/internal/packet"
)

// Fault detection is a use of the separated control path (§2), not a
// thread of its own: a System runs one liveness sweep over its
// connection registry, on one timer armed at the smallest Heartbeat
// among the registered connections and only while there is one. The
// sweep runs on the timer's transient goroutine, so a heartbeat costs a
// threaded connection no thread of its own and a System with none no
// timer.
//
// The verdict is a count, not a clock reading. Every inbound packet
// raises the connection's heard flag; each sweep a connection is due for
// lowers it again, and counts a miss when it was not up. A starved
// sweeper therefore accrues no misses — sweeps that did not run cannot
// count against the peer — and sweep can be driven with synthetic times.

// maxMisses is how many consecutive due sweeps may find a connection
// silent; the next one fails it, 4×Heartbeat after the last packet.
const maxMisses = 3

// track enters a fully built connection in its System's registry and,
// when it asks for a heartbeat, in the sweep. Construction may already
// have started threads that met a dead transport: a connection closed
// before it got here stays out, and its Close found nothing to remove.
func (s *System) track(c *Connection) {
	s.mu.Lock()
	defer s.mu.Unlock()
	select {
	case <-c.closedCh:
		return
	default:
	}
	c.slot = int32(len(s.conns))
	s.conns = append(s.conns, c)
	hb := c.opts.Heartbeat
	if hb <= 0 || c.opts.FastPath || s.closed {
		return
	}
	c.hbDue = time.Now().Add(hb).UnixNano()
	s.sweepConns++
	if s.sweepEvery == 0 || hb < s.sweepEvery {
		s.armSweep(hb)
	}
}

// untrack drops a closing connection from the registry — the last one
// takes its slot — folding what it has counted so far into the process's
// books in the same critical section (conns.go), and disarms the sweep
// when no heartbeat connection is left.
func (s *System) untrack(c *Connection) {
	books.mu.Lock()
	defer books.mu.Unlock()
	s.mu.Lock()
	defer s.mu.Unlock()
	c.folded = new(connTotals)
	c.fold()
	if c.slot < 0 {
		return
	}
	defer s.leave()
	last := len(s.conns) - 1
	moved := s.conns[last]
	s.conns[c.slot], moved.slot = moved, c.slot
	s.conns[last] = nil
	s.conns = s.conns[:last]
	c.slot = -1
	if c.hbDue == 0 {
		return
	}
	if s.sweepConns--; s.sweepConns == 0 {
		s.armSweep(0)
	}
}

// armSweep moves the sweep timer to the given interval; zero disarms
// it. The caller holds s.mu.
func (s *System) armSweep(every time.Duration) {
	s.sweepEvery = every
	switch {
	case every == 0:
		if s.sweepTimer != nil {
			s.sweepTimer.Stop()
		}
	case s.sweepTimer == nil:
		s.sweepTimer = time.AfterFunc(every, func() { s.sweep(time.Now()) })
	default:
		s.sweepTimer.Reset(every)
	}
}

// sweep is one pass over the registry: every heartbeat connection that
// is due is either pinged or, after maxMisses silent intervals, failed
// with ErrPeerUnreachable; then the timer is re-armed at the smallest
// interval seen. It holds s.mu throughout, so a connection cannot leave
// the registry mid-sweep, and it never waits on a connection: a ping
// waits for no queue room and is written by the connection's shard
// (emitCtrl). A connection whose Close is already under way is harmless
// to ping — emitCtrl refuses.
func (s *System) sweep(now time.Time) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return // Close disarmed the timer; its teardown owns the connections
	}
	at := now.UnixNano()
	var every time.Duration
	for _, c := range s.conns {
		if c.hbDue == 0 {
			continue
		}
		hb := c.opts.Heartbeat
		if every == 0 || hb < every {
			every = hb
		}
		if at < c.hbDue {
			continue
		}
		c.hbDue = at + int64(hb)
		if c.heard.Swap(false) {
			c.misses = 0
		} else if c.misses++; c.misses > maxMisses {
			c.failed.Store(true)
			go c.Close() // untracks, which needs s.mu
			continue
		}
		c.emitCtrl(packet.Control{Type: packet.CtrlPing, ConnID: c.id})
	}
	s.armSweep(every)
}
