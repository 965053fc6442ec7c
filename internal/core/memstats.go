package core

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
// the Mem field of System.Telemetry — from the snapshot /debug/ncs/conns
// prints (Connection.info). It sizes every tracked connection, outside
// the registry's lock, so it is a diagnostic to sample, not a hot-path
// counter.
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
		ci := c.info()
		st.EstimatedBytes += ci.Bytes
		st.LiveSessions += ci.Sessions
	}
	return st
}
