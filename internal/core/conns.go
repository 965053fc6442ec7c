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

// walk visits every live connection in the process, its System's mu
// held, and returns what the departed ones had counted.
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

// settle folds what a connection that has left the registry (untrack's
// fold took everything up to then) has counted since: its own threads,
// until teardown joined them (reapInbound), and a Send the application
// left running across Close, which may complete and count after that
// (endSend). On a connection still in the registry it does nothing: the
// walk reads that one live.
func (c *Connection) settle() {
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
	Lanes        []LaneInfo // the default lane, then every open stream
	RTO, RTT     time.Duration
	Misses       int  // consecutive heartbeat sweeps that heard nothing
	Paused       bool // the default lane's producer stopped reading the wire: Lanes[0] is at Depth
	// Depth is where it stops: deliveredQueueDepth, or a bound Inbox's
	// depth — Lanes[0].Queued then counts the inbox's messages.
	Depth    int
	Sessions int    // inbound reassembly sessions held
	Waiters  int    // sends waiting for an acknowledgment
	Err      error  // non-nil once failed or closing
	Bytes    uint64 // estimated retained heap (MemStats)
}

// LaneInfo is one lane's two ends: the messages queued unread on this
// side — on a stream they withhold the peer's grants — and this side's
// credit sender (Credit false: the lane runs none, or has not sent).
type LaneInfo struct {
	Stream uint32
	Queued int
	Flow   flowctl.SenderStats
	Credit bool
}

// info snapshots c. The caller holds c.sys.mu, which guards misses; no
// lock of c's own is held when it returns.
func (c *Connection) info() ConnInfo {
	ci := ConnInfo{System: c.sys.name, Peer: c.peer, ID: c.id, Opts: c.opts, Stats: c.stats.snapshot(),
		RTO: c.rto(), RTT: c.RTT(), Misses: int(c.misses), Paused: c.paused.Load(), Sessions: c.inbound.Len(), Err: c.Err()}
	lane0 := LaneInfo{Queued: c.box.Len()}
	ci.Depth = deliveredQueueDepth
	if ib := c.inbox.Load(); ib != nil {
		lane0.Queued, ci.Depth = ib.box.Len(), ib.depth
	}
	lane0.Flow, lane0.Credit = c.FlowStats()
	ci.Lanes = append(ci.Lanes, lane0)
	if m := c.muxIfAny(); m != nil {
		m.Each(func(st *stream.State) {
			if !st.Closed() {
				fs, ok := flowctl.SenderStatsOf(st.FlowSender())
				ci.Lanes = append(ci.Lanes, LaneInfo{st.ID(), st.Box().Len(), fs, ok})
			}
		})
	}
	c.mu.Lock()
	ci.Waiters = len(c.waiters)
	c.mu.Unlock()
	// The struct plus every piece of lazily built state it has actually
	// built: what stays nil contributes nothing, which is the point.
	ci.Bytes = uint64(unsafe.Sizeof(*c)) + uint64(cap(c.sendQ))*uint64(unsafe.Sizeof(outItem{})) +
		uint64(cap(c.ctrlQ))*uint64(unsafe.Sizeof((*buf.Buffer)(nil))) + uint64(c.box.Cap())*uint64(unsafe.Sizeof(Message{})) +
		uint64(ci.Sessions)*sessionEstimate + uint64(ci.Waiters)*waiterEstimate
	for _, half := range []bool{c.fcSend.Load() != nil, c.fcRecv.Load() != nil} {
		if half {
			ci.Bytes += flowHalfEstimate
		}
	}
	if c.sh != nil {
		ci.Bytes += uint64(unsafe.Sizeof(*c.sh))
	}
	return ci
}

// Conns snapshots every live connection of every System in the process;
// a closed connection is absent.
func Conns() []ConnInfo {
	var out []ConnInfo
	walk(func(c *Connection) { out = append(out, c.info()) })
	return out
}
