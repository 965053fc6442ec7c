package core

import (
	"ncs/internal/netsim"
	"ncs/internal/telemetry"
	"ncs/internal/transport"
)

// Core-runtime telemetry (catalogue in internal/telemetry doc.go).
var (
	// core.conn.* is computed, not counted: at each capture, one walk
	// sums the Stats of every live connection and adds what the closed
	// ones left behind (conns.go). A connection's own Stats are the only
	// hot-path count of its traffic.
	_ = telemetry.NewFuncCounters(func(vals []int64) {
		add := func(t connTotals) {
			for i, n := range t {
				vals[i] += n
			}
		}
		add(walk(func(c *Connection) { add(c.stats.snapshot().totals()) }))
	},
		"core.conn.send_msgs_total", "core.conn.send_sdus_total", "core.conn.send_bytes_total",
		"core.conn.recv_msgs_total", "core.conn.recv_sdus_total", "core.conn.recv_bytes_total")

	// mShardCycles counts event-loop turns; mShardWakeups counts
	// doorbell-triggered loop wakeups (1:1 with cycles today, kept
	// separate so batched-cycle variants stay observable). Both count
	// every loop, a threaded connection's private one as well as the
	// pool's: the one count of loop wake-ups (System.Telemetry's Shards
	// is the pool's size alone).
	mShardCycles  = telemetry.NewCounter("core.shard.cycles_total")
	mShardWakeups = telemetry.NewCounter("core.shard.wakeups_total")
	// mParkedConns is the number of connections, on every runtime, whose
	// data path is paused: the default lane's mailbox is at depth, or the
	// bound inbox refused a message (Connection.pause).
	mParkedConns = telemetry.NewGauge("core.shard.parked_conns")

	// mCoalesceDepth observes how many packets each data-connection
	// write carried (Connection.drain, on every runtime); mSendQDepth
	// observes the data wire's queue occupancy at each SDU's push.
	mCoalesceDepth = telemetry.NewHistogram("core.send.coalesce_depth")
	mSendQDepth    = telemetry.NewHistogram("core.send.sendq_depth")
)

// Telemetry is a System-wide observability snapshot: the memory and
// shard-pool summaries that previously lived behind separate accessors,
// plus a reading of every registered instrument across all layers
// (buf, flowctl, errctl, core, rpc, group).
type Telemetry struct {
	Mem     MemStats           `json:"mem"`
	Shards  ShardStats         `json:"shards"`
	Metrics telemetry.Snapshot `json:"metrics"`
}

// Telemetry captures the System's unified observability snapshot. Note
// that Metrics is process-global (instruments are package-level), so on
// a process hosting several Systems the counter section spans all of
// them, while Mem and Shards are this System's own.
func (s *System) Telemetry() Telemetry {
	return Telemetry{
		Mem:     s.memStats(),
		Shards:  s.shardStats(),
		Metrics: telemetry.Capture(),
	}
}

// ImpairStats reports the impairment decisions made on the data
// packets this connection has transmitted, when its data path rides a
// simulated link (HPI or ACI; false otherwise). The chaos harness
// reconciles these against the error-control instruments: every
// dropped data packet on a reliable connection must show up as at
// least one retransmission.
func (c *Connection) ImpairStats() (netsim.ImpairStats, bool) {
	return transport.ImpairStats(c.data)
}
