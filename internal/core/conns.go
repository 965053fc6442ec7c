package core

import (
	"slices"
	"sync"
	"time"
	"unsafe"

	"ncs/internal/buf"
	"ncs/internal/flowctl"
	"ncs/internal/stream"
)

// books is the process's registry of Systems and the one walk over
// their live connections. It has two process-wide readers — the computed
// core.conn.* counters (telemetry.go) and Conns, which /debug/ncs/conns
// prints — and both read what the runtime itself keeps: a connection's
// Stats are the only count of its traffic. A System enters at NewSystem
// and leaves once it is closed and empty; gone is what the connections
// that left had counted.
//
// Lock order: books.mu, then a System's mu. A connection leaves its
// registry and folds its counts into gone under both, so a reader
// holding books.mu finds every count exactly once — on a live
// connection or in gone — and a total never runs backwards.
var books struct {
	mu      sync.Mutex
	systems []*System
	gone    connTotals
}

// walk visits every live connection in the process and returns what
// the departed ones had counted. The visitor runs with books.mu and its
// connection's System's mu held — every track, untrack and sweep in the
// process waits for it — so it reads the connection's Stats or takes
// the pointer, and leaves the rest to its caller.
func walk(visit func(*Connection)) connTotals {
	books.mu.Lock()
	defer books.mu.Unlock()
	for _, s := range books.systems {
		s.mu.Lock()
		for _, c := range s.conns {
			visit(c)
		}
		s.mu.Unlock()
	}
	return books.gone
}

// fold adds to gone what c has counted beyond what it folded before.
// The caller holds books.mu.
func (c *Connection) fold() {
	now := c.stats.snapshot().totals()
	for i := range now {
		books.gone[i] += now[i] - c.folded[i]
	}
	*c.folded = now
}

// settle folds what a closed connection has counted since it left the
// registry, where untrack's fold took everything up to then. Close
// closes closedCh before it untracks, so a count made on a connection
// whose Err is still nil precedes that fold; what can follow it are the
// connection's own readers, which Close settles for once it has joined
// them (reapInbound), and a Send the application left running across
// Close, which settles as it returns (send).
func (c *Connection) settle() {
	if c.Err() == nil {
		return
	}
	books.mu.Lock()
	if c.folded != nil {
		c.fold()
	}
	books.mu.Unlock()
}

// leave drops a closed System whose last connection has gone from the
// process registry. The caller holds books.mu and s.mu.
func (s *System) leave() {
	if i := slices.Index(books.systems, s); i >= 0 && s.closed && len(s.conns) == 0 {
		books.systems = slices.Delete(books.systems, i, i+1)
	}
}

// ConnInfo is one live connection's state as the runtime itself holds
// it — a block of /debug/ncs/conns, and what System.Telemetry().Mem is
// summed from. Nothing in it is counted for the purpose.
type ConnInfo struct {
	System, Peer string
	ID           uint32
	Opts         Options
	Stats        Stats
	RTO, RTT     time.Duration
	Misses       int  // consecutive heartbeat sweeps that heard nothing
	Withheld     bool // the default lane withholds its peer's grant: Queued is at Depth
	// Queued counts the messages unread on the default lane and Depth is
	// where it starts withholding: deliveredQueueDepth, or a bound Inbox's
	// depth — Queued then counts the inbox's messages.
	Queued, Depth int
	Sessions      int        // inbound reassembly sessions held
	Waiters       int        // sends waiting for an acknowledgment
	Err           error      // non-nil once failed or closing
	Bytes         uint64     // estimated retained heap (MemStats)
	Lanes         []LaneInfo // the default lane, then every open stream (Conns only)
}

// LaneInfo is one lane's two ends: the messages queued unread on this
// side — a backlog withholds the peer's grants — and this side's credit
// sender (Credit false: the default lane has seen no traffic yet).
type LaneInfo struct {
	Stream uint32
	Queued int
	Flow   flowctl.SenderStats
	Credit bool
}

// info snapshots c, its lanes excepted. It takes the locks that guard
// what it reads one at a time, holds none when it returns and allocates
// nothing.
func (c *Connection) info() ConnInfo {
	ci := ConnInfo{
		System:   c.sys.name,
		Peer:     c.peer,
		ID:       c.id,
		Opts:     c.opts,
		Stats:    c.stats.snapshot(),
		RTO:      c.rto(),
		RTT:      c.RTT(),
		Queued:   c.box.Len(),
		Depth:    deliveredQueueDepth,
		Sessions: c.inbound.Len(),
		Err:      c.Err(),
	}
	if ib := c.inbox.Load(); ib != nil {
		ci.Queued = ib.box.Len()
		ci.Depth = ib.depth
	}
	if l := c.lane.Load(); l != nil {
		ci.Withheld = l.Held()
	}
	c.sys.mu.Lock()
	ci.Misses = int(c.misses)
	c.sys.mu.Unlock()
	c.mu.Lock()
	ci.Waiters = len(c.waiters)
	c.mu.Unlock()
	// The struct plus every piece of lazily built state it has actually
	// built: what stays nil contributes nothing, which is the point.
	ci.Bytes = uint64(unsafe.Sizeof(*c)) +
		c.dataW.bytes() + c.ctrlW.bytes() +
		uint64(c.box.Cap())*uint64(unsafe.Sizeof(Message{})) +
		uint64(ci.Sessions)*sessionEstimate +
		uint64(ci.Waiters)*waiterEstimate
	if c.fcSend.Load() != nil {
		ci.Bytes += flowHalfEstimate
	}
	if c.fcRecv.Load() != nil {
		ci.Bytes += flowHalfEstimate
	}
	ci.Bytes += c.privateShardBytes()
	return ci
}

// lanes lists the default lane, queued messages unread on it, and every
// open stream.
func (c *Connection) lanes(queued int) []LaneInfo {
	lane0 := LaneInfo{Queued: queued}
	lane0.Flow, lane0.Credit = c.FlowStats()
	out := []LaneInfo{lane0}
	if m := c.muxIfAny(); m != nil {
		m.Each(func(st *stream.State) {
			if !st.Closed() {
				fs, ok := flowctl.SenderStatsOf(st.FlowSender())
				out = append(out, LaneInfo{st.ID(), st.Box().Len(), fs, ok})
			}
		})
	}
	return out
}

// Conns snapshots every live connection of every System in the process.
// The walk only collects them: each is snapshotted after the registries'
// locks are released, and one that closed in between is left out like
// any other closed connection.
func Conns() []ConnInfo {
	var conns []*Connection
	walk(func(c *Connection) { conns = append(conns, c) })
	out := make([]ConnInfo, 0, len(conns))
	for _, c := range conns {
		if ci := c.info(); ci.Err == nil {
			ci.Lanes = c.lanes(ci.Queued)
			out = append(out, ci)
		}
	}
	return out
}

// bytes estimates what w's queue retains once built: the queue and the
// owner's batch, which swap places and so grow alike, and one write's
// buffer list.
func (w *wire) bytes() uint64 {
	q := w.q.Load()
	if q == nil {
		return 0
	}
	q.mu.Lock()
	defer q.mu.Unlock()
	return uint64(unsafe.Sizeof(*q)) + 2*uint64(cap(q.items))*uint64(unsafe.Sizeof(outItem{})) +
		sendBatchMax*uint64(unsafe.Sizeof((*buf.Buffer)(nil)))
}
