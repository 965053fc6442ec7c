package core

import "sync/atomic"

// Stats are cumulative per-connection counters. All fields are safe to
// read while the connection operates.
type Stats struct {
	// MessagesSent counts completed NCS_send calls.
	MessagesSent uint64
	// MessagesReceived counts messages delivered to NCS_recv.
	MessagesReceived uint64
	// SDUsSent counts data-plane packets transmitted, including
	// retransmissions.
	SDUsSent uint64
	// SDUsReceived counts data-plane packets accepted by whoever read
	// the data wire: a waiting receiver or sender, or the shard's loop.
	SDUsReceived uint64
	// Retransmissions counts SDUs re-sent by error control.
	Retransmissions uint64
	// ControlSent and ControlReceived count control-plane packets
	// (credits, acks, rate updates) in each direction.
	ControlSent     uint64
	ControlReceived uint64
	// BytesSent and BytesReceived count data-plane payload bytes.
	BytesSent     uint64
	BytesReceived uint64
}

// statCounters is the live atomic representation inside Connection.
type statCounters struct {
	messagesSent     atomic.Uint64
	messagesReceived atomic.Uint64
	sdusSent         atomic.Uint64
	sdusReceived     atomic.Uint64
	retransmissions  atomic.Uint64
	controlSent      atomic.Uint64
	controlReceived  atomic.Uint64
	bytesSent        atomic.Uint64
	bytesReceived    atomic.Uint64
}

func (s *statCounters) snapshot() Stats {
	return Stats{
		MessagesSent:     s.messagesSent.Load(),
		MessagesReceived: s.messagesReceived.Load(),
		SDUsSent:         s.sdusSent.Load(),
		SDUsReceived:     s.sdusReceived.Load(),
		Retransmissions:  s.retransmissions.Load(),
		ControlSent:      s.controlSent.Load(),
		ControlReceived:  s.controlReceived.Load(),
		BytesSent:        s.bytesSent.Load(),
		BytesReceived:    s.bytesReceived.Load(),
	}
}

// connTotals are the six Stats that core.conn.* sums over every
// connection that ever existed, in the order telemetry.go names them.
type connTotals [6]int64

func (s Stats) totals() connTotals {
	return connTotals{int64(s.MessagesSent), int64(s.SDUsSent), int64(s.BytesSent),
		int64(s.MessagesReceived), int64(s.SDUsReceived), int64(s.BytesReceived)}
}

// Stats returns a snapshot of the connection's counters.
func (c *Connection) Stats() Stats { return c.stats.snapshot() }

// ShardStats is a snapshot of a System's sharded-runtime pool: how
// many event loops it runs and how many connections they carry. How
// often loops wake is core.shard.wakeups_total and how deep vectored
// writes run is core.send.coalesce_depth, both process-wide and on
// every runtime.
type ShardStats struct {
	// Shards is the pool size; zero until the first sharded or
	// fast-path connection.
	Shards int
	// Conns is the number of connections on the pool: sharded and
	// fast-path ones.
	Conns int
}

// shardStats snapshots the System's shard pool — the Shards field of
// System.Telemetry.
func (s *System) shardStats() ShardStats {
	s.shardMu.Lock()
	shards := s.shards
	s.shardMu.Unlock()
	st := ShardStats{Shards: len(shards)}
	for _, sh := range shards {
		sh.mu.Lock()
		st.Conns += len(sh.conns)
		sh.mu.Unlock()
	}
	return st
}
