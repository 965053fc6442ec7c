package core

import (
	"unsafe"

	"ncs/internal/buf"
)

// Rough heap sizes of lazily-built state that lives in other packages,
// where unsafe.Sizeof cannot reach. They only need to be honest enough
// for capacity planning: MemStats is an estimator, not an allocator
// audit (the alloc-precise numbers live in the benchmark suite).
const (
	// flowHalfEstimate approximates one flow-control half (sender or
	// receiver): a small struct of counters plus its mutex/cond.
	flowHalfEstimate = 128
	// sessionEstimate approximates one inbound reassembly session's
	// bookkeeping (errctl receiver state, map entry, age ring slot),
	// excluding the payload buffers it stages, which are pooled and
	// accounted by internal/buf.
	sessionEstimate = 256
	// waiterEstimate approximates one outbound ack-waiter registration
	// (map entry plus its buffered channel).
	waiterEstimate = 128
)

// MemStats is a snapshot of a System's per-connection memory footprint
// — the capacity-planning companion to ShardStats, read as
// System.Telemetry().Mem. All byte figures are
// estimates of retained heap, summed from each connection's struct plus
// whatever lazy state (queues, flow control, session tables) it has
// actually materialised; an idle connection that never sent or received
// counts little more than its bare struct.
type MemStats struct {
	// Conns is the number of live connections: Close drops a connection
	// from the System's registry.
	Conns int
	// EstimatedBytes is the estimated retained heap across those
	// connections.
	EstimatedBytes uint64
	// LiveSessions counts inbound reassembly sessions currently held
	// across all connections (bounded per connection by the session
	// pruning table).
	LiveSessions int
	// PendingTimers counts the System-level timers currently armed: the
	// one liveness sweep (heartbeat.go) while any live connection asks
	// for a heartbeat, else zero. Idle connections contribute none.
	PendingTimers int
}

// BytesPerConn reports the mean estimated footprint per connection.
func (m MemStats) BytesPerConn() float64 {
	if m.Conns == 0 {
		return 0
	}
	return float64(m.EstimatedBytes) / float64(m.Conns)
}

// memStats estimates the System's per-connection memory footprint —
// the Mem field of System.Telemetry. It walks every tracked connection,
// so it is a diagnostic to sample, not a hot-path counter.
func (s *System) memStats() MemStats {
	s.mu.Lock()
	conns := make([]*Connection, len(s.conns))
	copy(conns, s.conns)
	st := MemStats{Conns: len(conns)}
	if s.sweepEvery > 0 {
		st.PendingTimers = 1
	}
	s.mu.Unlock()

	for _, c := range conns {
		bytes, sessions := c.memEstimate()
		st.EstimatedBytes += bytes
		st.LiveSessions += sessions
	}
	return st
}

// memEstimate sizes one connection: the struct itself plus every piece
// of lazily-allocated state it has actually built. The estimate tracks
// the memory-diet work directly — state that stays nil contributes
// nothing, which is the point.
func (c *Connection) memEstimate() (bytes uint64, sessions int) {
	bytes = uint64(unsafe.Sizeof(*c))
	if c.sendQ != nil {
		bytes += uint64(cap(c.sendQ)) * uint64(unsafe.Sizeof(outItem{}))
	}
	if c.ctrlQ != nil {
		bytes += uint64(cap(c.ctrlQ)) * uint64(unsafe.Sizeof((*buf.Buffer)(nil)))
	}
	bytes += uint64(c.box.Cap()) * uint64(unsafe.Sizeof(Message{}))
	if c.fcSend.Load() != nil {
		bytes += flowHalfEstimate
	}
	if c.fcRecv.Load() != nil {
		bytes += flowHalfEstimate
	}

	sessions = c.inbound.Len()
	bytes += uint64(sessions) * sessionEstimate
	c.mu.Lock()
	bytes += uint64(len(c.waiters)) * waiterEstimate
	c.mu.Unlock()

	if c.sh != nil {
		bytes += uint64(unsafe.Sizeof(*c.sh))
	}
	return bytes, sessions
}
