// Package ncs is a Go implementation of NCS — the NYNET Communication
// System — the multithreaded message-passing system for high performance
// distributed computing described in:
//
//	Park, Lee, Hariri. "A Multithreaded Message-Passing System for High
//	Performance Distributed Computing Applications." Syracuse
//	University, 1998.
//
// NCS provides low-latency, high-throughput communication services whose
// behaviour is selected per connection at runtime:
//
//   - four communication interfaces: SCI (sockets, portable), ACI
//     (ATM virtual circuits with per-connection QoS, simulated), HPI
//     (a trap-style in-process interface for tightly coupled
//     clusters), and UDP (real datagram sockets with batched
//     sendmmsg/recvmmsg syscalls and optional seeded wire impairment);
//   - flow control algorithms: credit-based (default), window-based,
//     rate-based, or none;
//   - error control algorithms: selective repeat (default), go-back-N,
//     or none;
//   - multicast algorithms for group communication: repetitive
//     send/receive or a binomial spanning tree, under a full collective
//     repertoire (Broadcast, Reduce, Barrier, Scatter, Gather,
//     AllGather, ReduceScatter, AllToAll) with per-operation deadlines,
//     tagged frames that detect members falling out of step,
//     chunk-pipelined large broadcasts, and nonblocking variants
//     (IBroadcast, IAllReduce, IAllGather) returning awaitable handles
//     so one member keeps thousands of collectives in flight;
//   - separated control and data connections: acknowledgments and
//     credits never compete with payload for data-path bandwidth;
//   - a thread-per-function runtime (Master, Flow Control, Error
//     Control; a connection's Receive and Control Receive threads are
//     one loop that reads only what nobody waits on, and sending is a
//     procedure on every runtime) plus a thread-bypassing fast path for
//     latency-critical connections (§4.2 of the paper);
//   - an RPC layer on top of any connection: multiplexed named-method
//     request/response calls with per-call deadlines, application-error
//     propagation, and a worker-pool dispatcher running on either
//     thread architecture (NewClient, NewServer), plus streaming calls
//     (client-stream, server-stream, bidi) whose chunk flows ride
//     dedicated multiplexed streams;
//   - multiplexed streams: any connection carries N independent ordered
//     channels (Connection.OpenStream / AcceptStream), each with its
//     own receiver-advertised credit window, so bulk transfer on one
//     stream never head-of-line-blocks latency-sensitive traffic on
//     another.
//
// # Quick start
//
//	nw := ncs.NewNetwork()
//	defer nw.Close()
//
//	alice, _ := nw.NewSystem("alice")
//	bob, _ := nw.NewSystem("bob")
//
//	conn, _ := alice.Connect("bob", ncs.Options{Interface: ncs.HPI})
//	peer, _ := bob.Accept()
//
//	go conn.Send([]byte("hello, NCS"))
//	msg, _ := peer.Recv()
//
// Connections are full duplex; Send blocks until the transfer completes
// under the connection's error control scheme. Group communication
// (broadcast, reduce, scatter/gather, all-to-all, barrier) is built
// with BuildGroup; BuildGroupConfig additionally tunes the collective
// engine's deadline and broadcast chunk size.
//
// For request/response workloads, attach the RPC layer to both ends of
// a connection instead of hand-rolling matching over Send/Recv:
//
//	srv := ncs.NewServer(ncs.RPCServerOptions{})
//	srv.Handle("echo", func(ctx context.Context, req []byte) ([]byte, error) {
//		return req, nil
//	})
//	srv.ServeConn(peer)
//	defer srv.Shutdown()
//
//	cli := ncs.NewClient(conn)
//	defer cli.Close()
//	resp, _ := cli.Call(context.Background(), "echo", []byte("hi"))
//
// To carry independent message flows over one connection without
// head-of-line blocking, open additional streams. Stream 0 is the
// connection's default Send/Recv channel; each further stream has its
// own ordered delivery and its own credit window:
//
//	bulk, _ := conn.OpenStream()       // dialer side
//	go bulk.Send(largePayload)         // never starves conn.Send/Recv
//
//	st, _ := peer.AcceptStream()       // acceptor side
//	data, _ := st.Recv()
package ncs

import (
	"ncs/internal/atm"
	"ncs/internal/core"
	"ncs/internal/errctl"
	"ncs/internal/flowctl"
	"ncs/internal/group"
	"ncs/internal/mcast"
	"ncs/internal/netsim"
	"ncs/internal/rpc"
	"ncs/internal/telemetry"
	"ncs/internal/thread"
	"ncs/internal/transport"
)

// Core runtime types.
type (
	// Network is the signaling fabric binding Systems together.
	Network = core.Network
	// System is one NCS process attached to a Network.
	System = core.System
	// Connection is a configured point-to-point NCS connection.
	Connection = core.Connection
	// Options selects a connection's interface, flow control, error
	// control, SDU size, QoS, and fast-path mode.
	Options = core.Options
	// Message is a received payload plus loss metadata (unreliable
	// connections report how many SDUs never arrived). One returned by
	// RecvMessage* or an Inbox is BORROWED: a message that arrived in one
	// SDU is the buffer it arrived in, not a copy, so its receiver reads
	// Data without writing it and calls Release exactly once when done
	// (forgetting costs the pool that one buffer; twice is a bug) — or
	// Bytes, which returns a copy to keep and releases. Recv/RecvTimeout
	// are RecvMessage + Bytes: they return a slice the caller owns.
	Message = core.Message
	// Runtime selects a connection's runtime architecture: the paper's
	// thread-per-connection model (RuntimeThreaded) or the System's
	// shard pool (RuntimeSharded), which scales to thousands of
	// concurrent connections at O(shards) goroutines.
	Runtime = core.Runtime
	// Inbox is a shared delivery queue: connections bound to one
	// (Connection.BindInbox) merge their deliveries into a single
	// stream, so a fixed worker pool can serve thousands of
	// connections without a receive goroutine per connection. Its
	// RecvTimeout(d) reads d <= 0 as "no deadline", like every other
	// timed receive (it used to time out at once).
	Inbox = core.Inbox
	// InboxMessage is one Inbox delivery: the message, the connection
	// it arrived on, and At, when it entered the inbox (an RPC server
	// counts a call's wait there against its deadline). Msg is borrowed
	// (see Message): whoever took it from Inbox.Recv* releases it.
	InboxMessage = core.InboxMessage
	// ShardStats snapshots a System's shard pool (System.Telemetry().Shards).
	ShardStats = core.ShardStats
	// MemStats estimates a System's per-connection memory footprint —
	// live connections (Close drops a connection from the count),
	// retained heap per connection, live reassembly sessions, and the
	// armed liveness-sweep timer: one per System while any connection
	// asks for a heartbeat, else none (System.Telemetry().Mem). The
	// capacity-planning companion to ShardStats: idle connections on the
	// sharded runtime should hold their estimated bytes near the
	// bare-struct floor and contribute zero pending timers.
	MemStats = core.MemStats
	// Stats are the cumulative per-connection counters returned by
	// Connection.Stats.
	Stats = core.Stats
	// Stream is one ordered message channel multiplexed over a
	// Connection (Connection.OpenStream / AcceptStream). Each stream
	// carries its own receiver-advertised credit window, so a slow or
	// unconsumed stream never head-of-line-blocks its siblings or the
	// connection's default Send/Recv channel.
	Stream = core.Stream
	// QoS is the ATM traffic contract applied to ACI connections.
	QoS = atm.QoS
	// Topology is a switched ATM fabric: switches, capacity-managed
	// links, and host attachments. ACI connections over a topology are
	// routed hop by hop and admitted against link capacity.
	Topology = atm.Topology
	// LinkSpec describes one physical link of a Topology.
	LinkSpec = atm.LinkSpec
	// Group is a process group supporting the collective repertoire —
	// Broadcast, Reduce, AllReduce, Barrier, Scatter, Gather,
	// AllGather, ReduceScatter, AllToAll — over a selectable multicast
	// algorithm, with per-operation deadlines and tagged frames that
	// detect members falling out of step.
	Group = group.Group
	// GroupConfig tunes a group's collective engine: multicast
	// algorithm, per-operation deadline, broadcast pipelining chunk.
	GroupConfig = group.Config
	// GroupHandle is one in-flight nonblocking collective, returned by
	// Group.IBroadcast, Group.IAllReduce, and Group.IAllGather. Await
	// it with Wait, poll with Done/Err, and read results with
	// Data/Parts once complete. A member may keep thousands of
	// operations in flight; they execute in submission order on one
	// engine goroutine per member, not one per operation.
	GroupHandle = group.Handle
	// ReduceOp combines two partial reduction values. It must be
	// associative; partials always combine in ascending rank order, so
	// non-commutative operations are deterministic.
	ReduceOp = group.ReduceOp
	// FlowConfig tunes the selected flow control algorithm.
	FlowConfig = flowctl.Config
)

// Fault-injection types (internal/netsim), re-exported so applications
// and tests can put a hostile network under a connection: configure a
// simulated HPI link via Options.HPILink, or cell-level circuit
// impairments via QoS.Impair / QoS.Schedule and Topology LinkSpecs.
// Every impairment decision is drawn from the link's seeded RNG, so a
// failure run replays exactly from its seed.
type (
	// LinkParams configures one direction of a simulated link:
	// bandwidth, delay, loss, and programmable impairments.
	LinkParams = netsim.Params
	// Impairments selects the programmable failure modes of a link:
	// duplication, reordering, Gilbert–Elliott burst loss, partition.
	Impairments = netsim.Impairments
	// GilbertElliott parameterises two-state burst loss.
	GilbertElliott = netsim.GilbertElliott
	// ImpairPhase is one packet-count-keyed step of a deterministic
	// impairment schedule.
	ImpairPhase = netsim.Phase
	// ImpairStats counts the impairment decisions a link has made.
	ImpairStats = netsim.ImpairStats
)

// Interface kinds (§2, "Multiple Communication Interfaces").
const (
	// SCI is the Socket Communication Interface: TCP, maximally
	// portable; NCS flow/error control is bypassed (TCP provides both).
	SCI = transport.SCI
	// ACI is the ATM Communication Interface: AAL5 frames over
	// simulated virtual circuits with per-connection QoS.
	ACI = transport.ACI
	// HPI is the High Performance Interface: an in-process, trap-style
	// path with minimal per-message overhead.
	HPI = transport.HPI
	// UDP is the real-wire datagram interface: framed SDUs over UDP
	// sockets with syscall batching (sendmmsg/recvmmsg on Linux) and
	// optional seeded impairment at the socket boundary. Unreliable at
	// the wire, so connections default to selective-repeat error
	// control and credit flow control, like ACI.
	UDP = transport.UDP
)

// Real-wire UDP transport (internal/transport): the same Conn contract
// the in-process interfaces implement, carried over real sockets.
// Options.Interface = UDP gives a core Connection a loopback UDP data
// path (tuned via Options.UDPLink); DialUDP/ListenUDP expose the raw
// transport directly for wire-level tools and tests.
type (
	// UDPLink tunes a UDP transport: syscall batch depth, datagram
	// size cap, socket buffers, and the seeded wire impairment the
	// chaos harness drives.
	UDPLink = transport.UDPLink
	// TransportConn is the transport-level connection contract
	// (Send/Recv of whole datagrams with pooled-buffer variants) that
	// DialUDP and TransportListener.Accept return.
	TransportConn = transport.Conn
	// TransportListener accepts transport-level connections
	// (ListenUDP).
	TransportListener = transport.Listener
)

// DialUDP connects to a UDP transport listener and completes the open
// handshake, retrying against loss until the listener answers or the
// retry budget is spent.
func DialUDP(addr string, link *UDPLink) (TransportConn, error) {
	return transport.DialUDP(addr, link)
}

// ListenUDP binds a UDP transport listener on addr (e.g.
// "127.0.0.1:0"). Closing the listener tears down its accepted conns,
// which share the listener's socket.
func ListenUDP(addr string, link *UDPLink) (TransportListener, error) {
	return transport.ListenUDP(addr, link)
}

// BatchSyscallsSupported reports whether this platform sends and
// receives UDP datagrams in batched syscalls (sendmmsg/recvmmsg);
// elsewhere the transport falls back to one syscall per datagram.
func BatchSyscallsSupported() bool { return transport.BatchSyscallsSupported() }

// Flow control algorithms (§3.3).
const (
	FlowNone   = flowctl.None
	FlowCredit = flowctl.Credit
	FlowWindow = flowctl.Window
	FlowRate   = flowctl.Rate
)

// Congestion controllers for credit flow control, selected via
// Options.FlowConfig.Controller. The controller sits between the
// receiver's credit grants and the wire: a grant is necessary but not
// sufficient for admission — in-flight must also fit the controller's
// window. Static admits everything granted (the receiver's buffer is
// the only limit); AIMD probes additively and halves on loss; RTT
// backs off when grant round trips inflate past the observed minimum.
const (
	FlowControllerStatic = flowctl.ControllerStatic
	FlowControllerAIMD   = flowctl.ControllerAIMD
	FlowControllerRTT    = flowctl.ControllerRTT
)

// FlowControllerKind selects a congestion controller in FlowConfig.
type FlowControllerKind = flowctl.ControllerKind

// Error control algorithms (§3.2).
const (
	ErrorNone            = errctl.None
	ErrorSelectiveRepeat = errctl.SelectiveRepeat
	ErrorGoBackN         = errctl.GoBackN
)

// Multicast algorithms (§2).
const (
	MulticastRepetitive   = mcast.Repetitive
	MulticastSpanningTree = mcast.SpanningTree
)

// Runtime architectures (Options.Runtime).
const (
	// RuntimeThreaded is the paper's architecture with its threads
	// replaced by procedures (§4.2): the Send and Control Send threads
	// are the sender's own writes, the Receive and Control Receive
	// threads one loop per connection that reads only what nobody waits
	// on. The default; lowest latency at modest connection counts.
	RuntimeThreaded = core.RuntimeThreaded
	// RuntimeSharded drives connections from a fixed pool of I/O
	// shards (default GOMAXPROCS, see System.SetShards) that
	// demultiplex receives and coalesce sends across all sharded
	// connections — the many-connection scale-out.
	RuntimeSharded = core.RuntimeSharded
)

// NewInbox creates a shared delivery queue holding up to depth
// undelivered messages (default 1024 when depth <= 0); see Inbox.
func NewInbox(depth int) *Inbox { return core.NewInbox(depth) }

// Errors re-exported for matching with errors.Is.
var (
	ErrSystemClosed    = core.ErrSystemClosed
	ErrConnClosed      = core.ErrConnClosed
	ErrRecvTimeout     = core.ErrRecvTimeout
	ErrPeerUnreachable = core.ErrPeerUnreachable
	ErrInboxClosed     = core.ErrInboxClosed
	ErrStreamClosed    = core.ErrStreamClosed
	// ErrGroupDeadline reports a collective that did not complete
	// within the group's per-operation deadline.
	ErrGroupDeadline = group.ErrDeadline
	// ErrGroupMismatch reports group members whose collective calls
	// fell out of step.
	ErrGroupMismatch = group.ErrMismatch
)

// RPC layer (internal/rpc): multiplexed request/response calls over any
// NCS connection.
type (
	// RPCClient issues multiplexed named-method calls over one
	// connection; create one with NewClient.
	RPCClient = rpc.Client
	// RPCServer dispatches calls from any number of connections onto a
	// worker pool; create one with NewServer.
	RPCServer = rpc.Server
	// RPCHandler services one call on the server. req is lent: the
	// server releases the request's buffer once the reply is sent, so a
	// handler reads req (or returns it) freely and copies what it keeps.
	RPCHandler = rpc.Handler
	// RPCServerOptions sizes the server's dispatcher and selects its
	// thread architecture.
	RPCServerOptions = rpc.ServerOptions
	// RPCClientCall is an open streaming call on an RPCClient
	// (OpenClientStream / OpenServerStream / OpenBidiStream): chunks
	// move with Send/Recv on a dedicated multiplexed stream, and
	// Result collects the handler's final reply.
	RPCClientCall = rpc.ClientCall
	// RPCServerCall is the handler-side end of a streaming call's
	// chunk flow (see RPCStreamHandler).
	RPCServerCall = rpc.ServerCall
	// RPCStreamHandler services one streaming call registered with
	// RPCServer.HandleStream; req is lent as RPCHandler's is, until the
	// final reply is sent.
	RPCStreamHandler = rpc.StreamHandler
	// RPCStreamMode declares a streaming call's chunk-flow directions.
	RPCStreamMode = rpc.StreamMode
	// RPCServerError is an application error propagated from a handler
	// to the caller; match it with errors.As.
	RPCServerError = rpc.ServerError
)

// Streaming-call modes (values for RPCStreamMode).
const (
	// RPCClientStream: the client Sends chunks, the server replies once.
	RPCClientStream = rpc.ClientStream
	// RPCServerStream: the client requests once, the server Sends chunks.
	RPCServerStream = rpc.ServerStream
	// RPCBidiStream: both directions chunk concurrently.
	RPCBidiStream = rpc.BidiStream
)

// RPC errors re-exported for matching with errors.Is.
var (
	ErrRPCNoMethod      = rpc.ErrNoMethod
	ErrRPCShuttingDown  = rpc.ErrShuttingDown
	ErrRPCClientClosed  = rpc.ErrClientClosed
	ErrRPCStreamAborted = rpc.ErrStreamAborted
)

// NewClient attaches an RPC client to an established connection. The
// client owns the connection's receive side — its calls read their own
// replies, so it runs no goroutine — and tears the connection down on
// Close.
func NewClient(conn *Connection) *RPCClient { return rpc.NewClient(conn) }

// NewServer creates an RPC server and starts the worker pool of its own
// inbox. Register handlers with Handle, attach accepted connections
// with ServeConn (which binds each to that inbox and starts no
// goroutine), and stop with Shutdown (which drains in-flight calls).
func NewServer(opts RPCServerOptions) *RPCServer { return rpc.NewServer(opts) }

// Multithreading services (§2: "thread synchronization, thread
// management"). Compute Threads run application work and use NCS
// primitives to communicate; the two package architectures correspond
// to §4.1's QuickThreads-style user-level scheduler and Pthread-style
// kernel-level threads.
type (
	// ThreadPackage provides Spawn, Yield, and synchronisation
	// primitives for Compute Threads.
	ThreadPackage = thread.Package
	// Thread is a handle on a spawned Compute Thread.
	Thread = thread.Thread
	// Mutex is a lock usable from Compute Threads.
	Mutex = thread.Mutex
	// Semaphore is a counting semaphore usable from Compute Threads.
	Semaphore = thread.Semaphore
)

// Thread package architectures.
const (
	// KernelLevelThreads maps Compute Threads onto goroutines: blocking
	// calls suspend only the calling thread.
	KernelLevelThreads = thread.KernelLevel
	// UserLevelThreads is a cooperative run-to-block scheduler with
	// very cheap context switches; one blocking system call stalls
	// every thread in the package (§4.1).
	UserLevelThreads = thread.UserLevel
)

// NewThreads creates a Compute Thread package of the given
// architecture. Shut it down after all threads finish.
func NewThreads(model thread.Model) ThreadPackage { return thread.New(model) }

// NewNetwork creates a fabric on which Systems are registered. The
// caller owns it and must Close it.
func NewNetwork() *Network { return core.NewNetwork() }

// NewTopology creates an empty switched ATM fabric description.
func NewTopology() *Topology { return atm.NewTopology() }

// NewNetworkWithTopology creates a fabric whose ACI connections are
// routed over the given switched topology with connection admission
// control. Attach each system's name to a switch with
// Topology.AttachHost before connecting over ACI.
func NewNetworkWithTopology(t *Topology) *Network {
	return core.NewNetworkWithTopology(t)
}

// BuildGroup registers one system per name on the network and connects
// them in a full mesh with the given per-connection options, returning
// one Group handle per member, indexed by rank. The multicast algorithm
// governs Broadcast/Reduce dissemination; pass 0 for the spanning-tree
// default.
func BuildGroup(nw *Network, names []string, opts Options, alg mcast.Algorithm) ([]*Group, error) {
	return group.Build(nw, names, opts, alg)
}

// ConnectGroup builds a group over already-registered systems.
func ConnectGroup(systems []*System, opts Options, alg mcast.Algorithm) ([]*Group, error) {
	return group.Connect(systems, opts, alg)
}

// BuildGroupConfig is BuildGroup with full collective-engine
// configuration: multicast algorithm, per-operation deadline, and the
// broadcast pipelining chunk size.
func BuildGroupConfig(nw *Network, names []string, opts Options, cfg GroupConfig) ([]*Group, error) {
	return group.BuildConfig(nw, names, opts, cfg)
}

// ConnectGroupConfig is ConnectGroup with full collective-engine
// configuration.
func ConnectGroupConfig(systems []*System, opts Options, cfg GroupConfig) ([]*Group, error) {
	return group.ConnectConfig(systems, opts, cfg)
}

// Observability (internal/telemetry): the unified metrics, lifecycle
// tracing, and snapshot layer. Instrument names and semantics are
// catalogued in internal/telemetry's package documentation; serve them
// live with ServeDebug or capture them programmatically here.
type (
	// Telemetry is a System-wide observability snapshot
	// (System.Telemetry): per-System memory and shard summaries plus a
	// reading of every registered instrument across all layers.
	Telemetry = core.Telemetry
	// MetricsSnapshot is a point-in-time reading of every registered
	// instrument — counters, gauges, and latency histograms. Diff two
	// with Delta, export one with WritePrometheus.
	MetricsSnapshot = telemetry.Snapshot
	// Trace is one sampled message's lifecycle record: monotonic
	// nanosecond stamps at each TraceStage from send enqueue to
	// application delivery. On an in-process (HPI) connection both
	// sides stamp the same record, so one Trace spans the full path.
	Trace = telemetry.Trace
	// TraceStage is one point in a traced message's life.
	TraceStage = telemetry.TraceStage
)

// Lifecycle trace stages. The first six, values 0–5, are the path in
// path order. StageQueued and StageDequeued were appended after them and
// are not in path order: both are sender-side, between StageStaged and
// StageWireOut — the SDU pushed onto its wire's queue to wait, and the
// wire's owner picking it up. A lone SDU that its own sender writes at
// once, the wire being free, is picked up without ever waiting:
// StageQueued stays 0. StageWireOut is stamped just before the write
// starts. Table I's hand-off rows are their deltas.
const (
	StageEnqueued    = telemetry.StageEnqueued
	StageStaged      = telemetry.StageStaged
	StageWireOut     = telemetry.StageWireOut
	StageWireIn      = telemetry.StageWireIn
	StageReassembled = telemetry.StageReassembled
	StageDelivered   = telemetry.StageDelivered
	StageQueued      = telemetry.StageQueued
	StageDequeued    = telemetry.StageDequeued
)

// CaptureMetrics reads every registered instrument. The snapshot is
// process-global: one reading covers every System, connection, and
// layer in the process.
func CaptureMetrics() MetricsSnapshot { return telemetry.Capture() }

// EnableTracing turns on sampled message-lifecycle tracing: every
// every-th sent message (minimum 1: trace everything) is stamped
// through the stack and its completed Trace is kept in a ring holding
// the most recent capacity records (default 256). Tracing is
// process-global and off by default; when off the per-message cost is
// a single nil check.
func EnableTracing(every, capacity int) { telemetry.EnableTracing(every, capacity) }

// DisableTracing turns sampled tracing back off and discards the
// collected traces.
func DisableTracing() { telemetry.DisableTracing() }

// TraceNow reads the clock Trace stamps are on (0 when tracing is off),
// so a caller can bracket a Send and subtract its stamps from the ends.
func TraceNow() int64 { return telemetry.TraceNow() }

// TakeTraces drains and returns the completed traces collected since
// the last call (newest last). It returns nil when tracing is off.
func TakeTraces() []Trace { return telemetry.TakeTraces() }

// Pair is a convenience for examples, tests and benchmarks: it creates
// two systems on the network and returns both ends of a connection
// between them.
func Pair(nw *Network, a, b string, opts Options) (*Connection, *Connection, error) {
	sa, err := nw.NewSystem(a)
	if err != nil {
		return nil, nil, err
	}
	sb, err := nw.NewSystem(b)
	if err != nil {
		return nil, nil, err
	}
	conn, err := sa.Connect(b, opts)
	if err != nil {
		return nil, nil, err
	}
	peer, err := sb.Accept()
	if err != nil {
		return nil, nil, err
	}
	return conn, peer, nil
}
