// Package telemetry is the unified observability layer for NCS: a
// zero-allocation metrics core (counters, gauges, latency histograms),
// an optional sampled message-lifecycle tracer, and snapshot/export
// plumbing that every subsystem reports through.
//
// The paper's evaluation hinges on knowing exactly where time goes
// inside the multithreaded pipeline — send thread, error/flow control,
// AAL5, wire (§4.3, Table I). This package is that visibility as a
// production feature rather than ad-hoc one-offs: instruments are
// registered once at package init, incremented with plain atomics on
// the hot path (no maps, no interface boxing, no allocation), and read
// by Capture, which walks the registry and materialises a Snapshot. A
// total its owners already keep is not counted a second time: it is
// registered as a computed counter (NewFuncCounters) and summed from the
// owners' books when a snapshot is captured.
//
// # Instrument naming conventions
//
// Every instrument name has the form
//
//	layer.subsystem.metric
//
// where layer is the owning package (core, errctl, flowctl, buf, rpc,
// group, stream, transport), subsystem narrows it to a component (conn,
// shard, pool, recv, send, client, server, collective, window,
// credit, mux, udp), and
// metric is the measured quantity. Names are lowercase; words within a
// segment join with underscores. Conventions, following the Prometheus
// style:
//
//   - Monotonic counters end in _total: core.conn.send_msgs_total.
//   - Quantities carry their unit as a suffix: _bytes, _ns.
//   - Gauges are instantaneous levels and carry no _total suffix:
//     buf.pool.outstanding, rpc.client.inflight.
//   - Histograms name the recorded quantity, with its unit suffix:
//     rpc.client.call_ns, core.send.coalesce_depth.
//
// Registration panics on a duplicate or ill-formed name, so a naming
// collision is caught by the first test that imports both packages.
//
// # The instrument catalogue
//
// Counters:
//
//	buf.pool.hit_total                 idle buffer reused from its tier's free list
//	buf.pool.miss_total                none idle in the tier, buffer allocated
//	buf.pool.oversize_total            request above the largest tier
//	errctl.send.retransmit_sdus_total  SDUs retransmitted (SR + GBN)
//	errctl.gbn.nack_replay_total       go-back-N window replays
//	errctl.recv.dup_total              duplicate SDUs discarded
//	errctl.recv.out_of_order_total     out-of-order arrivals (GBN NACK)
//	errctl.recv.direct_total           single-SDU unreliable deliveries (no session)
//	errctl.recv.session_total          reassembly-session deliveries
//	flowctl.window.stall_total         window-sender admission stalls
//	flowctl.credit.wait_total          credit-sender admission waits
//	flowctl.credit.granted_total       credits advertised by receivers
//	flowctl.credit.consumed_total      credited arrivals at receivers
//	flowctl.credit.refill_total        standalone refill grant frames
//	flowctl.credit.piggyback_total     grants piggybacked on outgoing acks
//	flowctl.credit.resync_total        sender resync probes (wedge escape)
//	flowctl.send.blocked_ns_total      total ns senders spent blocked
//	core.conn.send_msgs_total          messages sent              (computed: the six
//	core.conn.send_sdus_total          SDUs sent                   core.conn.* are summed
//	core.conn.send_bytes_total         payload bytes sent          at capture, in one walk,
//	core.conn.recv_msgs_total          messages delivered          from every connection's
//	core.conn.recv_sdus_total          SDUs received               own Stats, live or
//	core.conn.recv_bytes_total         payload bytes received      closed; never lower)
//	core.shard.cycles_total            shard service cycles
//	core.shard.wakeups_total           shard doorbell wakeups
//	rpc.server.deadline_expired_total  calls whose propagated deadline
//	                                   expired: before dispatch, or in the
//	                                   handler that then returned it
//	stream.send.credit_wait_total      per-stream credit admission timeouts
//	stream.recv.hol_avoided_total      messages parked behind an unconsumed
//	                                   backlog (single-flow delivery would
//	                                   have head-of-line blocked here)
//	group.collective.chunks_total      pipelined broadcast chunks
//	group.collective.mismatch_total    ErrMismatch frames observed
//	group.collective.deadline_total    ErrDeadline collective failures
//	transport.udp.send_datagrams_total datagrams handed to the kernel
//	transport.udp.recv_datagrams_total datagrams received off the wire
//	transport.udp.send_syscalls_total  sendmmsg/sendto calls issued
//	transport.udp.recv_syscalls_total  recvmmsg/recvfrom calls issued
//	transport.udp.eagain_total         reader wakeups with empty socket
//	transport.udp.trunc_total          oversize datagrams truncated+dropped
//	transport.udp.demux_drop_total     datagrams for unknown channels
//	transport.udp.queue_drop_total     datagrams dropped on full recv queue
//
// Gauges:
//
//	buf.pool.outstanding               buffers checked out of the tiers
//	buf.pool.retained_bytes            idle storage the tiers' free lists hold
//	                                   (bounded: see buf.tierIdle, ≈ 4.4 MB)
//	core.shard.parked_conns            live conns whose default lane withholds its
//	                                   peer's credit grant, any runtime (their own
//	                                   mailbox or a bound Inbox at depth)
//	rpc.client.inflight                calls awaiting replies
//	rpc.server.inflight                requests admitted, not replied
//	stream.mux.open                    streams currently open (all conns)
//
// Histograms (power-of-two buckets):
//
//	core.send.coalesce_depth           SDUs per data-connection write: a Send
//	                                   Thread batch, a shard flush, or 1 for
//	                                   an SDU its sender wrote inline
//	core.send.sendq_depth              send-queue occupancy at enqueue (an
//	                                   inline write never enqueues)
//	transport.udp.send_batch_depth     datagrams per send syscall
//	transport.udp.recv_batch_depth     datagrams per receive syscall
//	flowctl.send.credit_wait_ns        time blocked awaiting credits
//	rpc.client.call_ns                 request→reply latency
//	group.collective.op_ns             collective operation latency
//
// # Lifecycle tracing
//
// EnableTracing arms a global sampled tracer; every Nth traced message
// gets monotonic stamps at the Enqueued → Staged → WireOut → WireIn →
// Reassembled → Delivered stages as it crosses the stack (TraceStage
// values 0–5, in path order), and the completed Trace lands in a fixed
// ring drained by TakeTraces. Two stages were appended after those and
// are not in path order — Queued and Dequeued, the sender's hand-off to
// the runtime that writes the SDU, between Staged and WireOut: Table I's
// queue and context-switch rows are their deltas, read against a
// bracket on the tracer's clock (TraceNow). An SDU its sender wrote
// inline, the wire being free, is Dequeued (picked up by its writer)
// but never Queued: a zero Queued stamp marks that path. A sampled
// message that never reaches delivery gives its slot up to a later
// one. Tracing is off by default and free when off: every stamp site is
// a single atomic pointer load and nil check.
package telemetry
