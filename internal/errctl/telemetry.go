package errctl

import "ncs/internal/telemetry"

// Error-control telemetry (catalogue in internal/telemetry doc.go).
// The counters live here, in the protocol state machines, so every
// runtime — threaded, sharded, fast path — reports identically.
var (
	// mRetransmitSDUs counts SDUs queued for retransmission by any
	// scheme (selective-repeat bitmap gaps, timeouts, go-back-N
	// replays). On a lossy link it reconciles against the link's
	// ImpairStats: each lost data packet forces at least one entry.
	mRetransmitSDUs = telemetry.NewCounter("errctl.send.retransmit_sdus_total")
	// mNackReplay counts go-back-N window replays triggered by a NACK
	// (deduplicated per base value; see gbnSender.nackedAt).
	mNackReplay = telemetry.NewCounter("errctl.gbn.nack_replay_total")
	// mRecvDup counts duplicate SDU arrivals discarded by a receiver.
	mRecvDup = telemetry.NewCounter("errctl.recv.dup_total")
	// mRecvOOO counts out-of-order arrivals a go-back-N receiver
	// answered with a NACK.
	mRecvOOO = telemetry.NewCounter("errctl.recv.out_of_order_total")
	// mRecvDirect counts messages a session table completed by the
	// single-SDU arrival shortcut (no session, no reassembly);
	// mRecvSession counts messages that went through a reassembly
	// session. Their sum is core.conn.recv_msgs_total.
	mRecvDirect  = telemetry.NewCounter("errctl.recv.direct_total")
	mRecvSession = telemetry.NewCounter("errctl.recv.session_total")
)
