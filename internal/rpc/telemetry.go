package rpc

import "ncs/internal/telemetry"

// RPC-layer telemetry (catalogue in internal/telemetry doc.go).
var (
	// mClientInflight is the number of calls issued and not yet
	// resolved (replied, failed, or abandoned) across all Clients.
	mClientInflight = telemetry.NewGauge("rpc.client.inflight")
	// mCallNS observes end-to-end call latency in nanoseconds for
	// calls that received a reply.
	mCallNS = telemetry.NewHistogram("rpc.client.call_ns")
	// mServerInflight is the number of admitted requests not yet
	// replied to across all Servers.
	mServerInflight = telemetry.NewGauge("rpc.server.inflight")
	// mDeadlineExpired counts calls the propagated deadline ended on the
	// server: already past when a worker picked the call up (work skipped
	// because the caller gave up), or fired inside a handler that then
	// returned its context's error (errStatus).
	mDeadlineExpired = telemetry.NewCounter("rpc.server.deadline_expired_total")
)
