// Package core implements the NCS runtime: the multithreaded
// message-passing system of the paper, with its control plane (Master
// Thread, Flow/Error Control, Control Send/Receive Threads) and data
// plane (per-connection Send and Receive Threads), separate control and
// data connections, per-connection algorithm selection, and the
// thread-bypassing fast path of §4.2.
//
// A System is one NCS process. Systems attach to a Network, which plays
// the role of the signaling fabric: it names systems, routes connection
// setup requests to the target's Master Thread, and mints the two
// transport connections (control + data) that every NCS connection owns.
//
// # Deviations from the paper, and why
//
//   - The paper multiplexes all connections' control traffic through one
//     Control Send Thread and one Control Receive Thread per process
//     (Figure 1). Here each connection owns its control connection, read
//     like its data connection: the wire-level property the paper
//     argues for — control information never competes with data for a
//     data connection's bandwidth — is identical, and per-connection
//     control channels make teardown and the fast path simpler.
//   - The Send and Control Send Threads are procedures on every runtime,
//     as §4.2 says they can be: a packet is pushed onto its wire's queue,
//     and whoever holds the wire's owner writes the queue
//     (Connection.flush) — the goroutine that made the packet, when the
//     wire is free. The Receive and Control Receive Threads are one pump
//     of last resort: the goroutine that waits on a wire reads it, and a
//     shard's loop only when nobody does — on the threaded runtime a
//     private shard that serves the connection alone (pump.go, shard.go).
//   - NCS worker threads are goroutines (kernel-level threads in the
//     paper's taxonomy). The user-level/kernel-level comparison of §4.1
//     is reproduced in internal/bench with the internal/thread package,
//     where the scheduling semantics are the experiment itself.
package core

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"ncs/internal/atm"
	"ncs/internal/errctl"
	"ncs/internal/flowctl"
	"ncs/internal/netsim"
	"ncs/internal/platform"
	"ncs/internal/transport"
)

// Errors surfaced by the runtime.
var (
	ErrSystemClosed    = errors.New("ncs: system closed")
	ErrUnknownSystem   = errors.New("ncs: unknown system")
	ErrConnClosed      = errors.New("ncs: connection closed")
	ErrSendTooLarge    = errors.New("ncs: message exceeds connection limit")
	ErrRecvTimeout     = errors.New("ncs: receive timed out")
	ErrFastPathOnly    = errors.New("ncs: connection configured for fast path")
	ErrPeerUnreachable = errors.New("ncs: peer unreachable (heartbeat timeout)")
	ErrStreamClosed    = errors.New("ncs: stream closed")

	errShardsStarted = errors.New("ncs: shard pool already started")
)

// Options configures one NCS connection at establishment time — the
// per-connection QoS selection that is the heart of the paper's
// flexibility claims (§2, §3).
type Options struct {
	// Interface selects SCI, ACI, HPI, or the real-wire UDP interface.
	// Default SCI.
	Interface transport.Kind
	// FlowControl selects the flow control algorithm. Default: Credit
	// for unreliable interfaces, None for reliable ones (the §3.1
	// bypass).
	FlowControl flowctl.Algorithm
	// ErrorControl selects the error control algorithm. Default:
	// SelectiveRepeat for unreliable interfaces, None for reliable ones.
	ErrorControl errctl.Algorithm
	// FlowConfig tunes the chosen flow control algorithm.
	FlowConfig flowctl.Config
	// SDUSize is the segmentation unit (§3.2). Default 4096.
	SDUSize int
	// QoS configures the ATM virtual circuits for ACI connections.
	QoS atm.QoS
	// HPILink, when non-nil, configures the simulated link under an HPI
	// connection's data path (both directions): bandwidth, delay, loss,
	// and the programmable impairments of internal/netsim — the hook
	// the chaos harness uses to put a hostile network under the full
	// protocol stack without the ATM cell machinery. The control
	// connection stays clean, mirroring the loss-free control circuit
	// ACI connections get (the paper's separated control plane).
	HPILink *netsim.Params
	// UDPLink, when non-nil, configures the real-wire loopback sockets
	// under a UDP connection's data path: syscall batching, packet
	// budget, and the seeded netsim-style impairments applied to each
	// direction's outbound datagrams. As with HPI and ACI, the control
	// connection rides a clean, unimpaired UDP pair. nil gives clean
	// defaults when Interface is transport.UDP.
	UDPLink *transport.UDPLink
	// Runtime selects the connection's runtime architecture:
	// RuntimeThreaded (default) gives it the paper's per-connection
	// receive threads as one private shard's loop, its pump of last
	// resort; RuntimeSharded drives it from the System's fixed pool of
	// I/O shards, which demultiplex receives and coalesce sends across
	// every sharded connection — the many-connection scale-out.
	// FastPath takes precedence: a fast-path connection has no shard,
	// private or pooled. The option travels through signaling, so both
	// endpoints run the architecture the dialer chose.
	Runtime Runtime
	// FastPath selects the §4.2 procedure variant: the threaded
	// runtime without its pump of last resort. On every runtime, Send
	// and Recv read the wire they wait on themselves; on the fast path
	// nothing else does, so what arrives
	// while nobody waits stays on the wire. Its policies differ too: a
	// fixed retransmission timeout, an admission wait that gives up, no
	// Inbox and no heartbeat. (The three booleans sit together so they
	// pack: every Connection holds a copy of its Options.)
	FastPath bool
	// InbandControl multiplexes control packets onto the data
	// connection instead of the separate control connection. This is
	// the architecture the paper argues AGAINST (§2, "Separation of
	// Control and Data Functions"); it exists for the ablation
	// benchmark that quantifies the separation's benefit.
	InbandControl bool
	// AdaptiveTimeout derives the retransmission timer from observed
	// acknowledgment round trips (Jacobson/Karels estimation, Karn's
	// rule); AckTimeout then acts as the ceiling and initial value.
	AdaptiveTimeout bool
	// AckTimeout is the retransmission timer (§3.2 step 5).
	// Default 200 ms.
	AckTimeout time.Duration
	// Heartbeat, when positive, probes the peer over the control
	// connection at this interval and fails the connection with
	// ErrPeerUnreachable once the peer has stayed silent through more
	// than three of them — the fault-tolerance hook §2 attributes to the
	// separated control path. Silence is counted in sweeps, not read off
	// a clock: the System's one liveness sweep (heartbeat.go) pings each
	// such connection once per interval, on either runtime, and the
	// fourth in a row to find that nothing at all arrived since the one
	// before passes the verdict. Ignored on the fast path: nobody reads
	// an idle fast-path control connection, so a pong could not be heard.
	Heartbeat time.Duration
	// Platform, when non-nil, charges this side's per-operation CPU
	// costs (copies, system calls) on the connection's transports — the
	// benchmark harness's stand-in for 1998 hardware. PeerPlatform
	// applies to the accepting side; the signaling exchange swaps them
	// so each endpoint pays its own costs.
	Platform     *platform.Platform
	PeerPlatform *platform.Platform
}

func (o Options) withDefaults() Options {
	if o.Interface == 0 {
		o.Interface = transport.SCI
	}
	if o.FlowControl == 0 {
		if o.Interface.Reliable() {
			o.FlowControl = flowctl.None
		} else {
			o.FlowControl = flowctl.Credit
		}
	}
	if o.ErrorControl == 0 {
		if o.Interface.Reliable() {
			o.ErrorControl = errctl.None
		} else {
			o.ErrorControl = errctl.SelectiveRepeat
		}
	}
	if o.SDUSize <= 0 {
		o.SDUSize = errctl.DefaultSDUSize
	}
	if o.AckTimeout <= 0 {
		o.AckTimeout = 200 * time.Millisecond
	}
	return o
}

// QoSForLink derives an ATM traffic contract matching a link of the
// given byte rate and one-way propagation delay.
func QoSForLink(bytesPerSec int64, delay time.Duration) atm.QoS {
	var pcr int64
	if bytesPerSec > 0 {
		pcr = bytesPerSec / atm.CellSize
	}
	return atm.QoS{PeakCellRate: pcr, Delay: delay}
}

// Network is the signaling fabric binding Systems together.
type Network struct {
	mu      sync.Mutex
	systems map[string]*System
	atmNet  *atm.Network
	nextID  atomic.Uint32
	closed  bool

	// vcMu serialises ATM VC establishment: a VC is paired by matching
	// one Dial with one Accept on the target host, so two concurrent
	// Connects to the same system could otherwise cross their circuits
	// (A's data VC delivered as B's control VC). Held only during
	// signaling.
	vcMu sync.Mutex
}

// NewNetwork creates an empty fabric with a collapsed ATM network
// (every ACI circuit receives exactly its requested QoS).
func NewNetwork() *Network {
	return &Network{
		systems: make(map[string]*System),
		atmNet:  atm.NewNetwork(),
	}
}

// NewNetworkWithTopology creates a fabric whose ACI circuits are routed
// over the given switched ATM topology with connection admission
// control. Systems must be attached to switches (Topology.AttachHost,
// keyed by system name) before they establish ACI connections.
func NewNetworkWithTopology(t *atm.Topology) *Network {
	return &Network{
		systems: make(map[string]*System),
		atmNet:  atm.NewNetworkWithTopology(t),
	}
}

// NewSystem registers a named NCS process on the fabric and starts its
// Master Thread.
func (n *Network) NewSystem(name string) (*System, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.closed {
		return nil, ErrSystemClosed
	}
	if _, dup := n.systems[name]; dup {
		return nil, fmt.Errorf("ncs: system %q already exists", name)
	}
	s := &System{
		name:    name,
		network: n,
		atmHost: n.atmNet.Host(name),
		setups:  make(chan *setupRequest, 16),
		accepts: make(chan *Connection, 16),
		done:    make(chan struct{}),
	}
	n.systems[name] = s
	books.mu.Lock()
	books.systems = append(books.systems, s)
	books.mu.Unlock()
	go s.master()
	return s, nil
}

// Close shuts down every system and the underlying fabrics.
func (n *Network) Close() {
	n.mu.Lock()
	systems := make([]*System, 0, len(n.systems))
	for _, s := range n.systems {
		systems = append(systems, s)
	}
	n.closed = true
	n.mu.Unlock()
	for _, s := range systems {
		s.Close()
	}
	n.atmNet.Close()
}

func (n *Network) lookup(name string) (*System, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	s, ok := n.systems[name]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrUnknownSystem, name)
	}
	return s, nil
}

// newConnPair mints the data and control transport connections between
// two systems for the requested interface kind. The first return value
// of each pair belongs to the dialing side.
func (n *Network) newConnPair(from, to *System, opts Options) (data, peerData, ctrl, peerCtrl transport.Conn, err error) {
	switch opts.Interface {
	case transport.HPI:
		if opts.HPILink != nil {
			data, peerData = transport.HPIPairWithParams(*opts.HPILink, *opts.HPILink)
		} else {
			data, peerData = transport.HPIPair()
		}
		ctrl, peerCtrl = transport.HPIPair()
		return data, peerData, ctrl, peerCtrl, nil

	case transport.ACI:
		// Two VCs per connection: the separated data and control
		// circuits of Figure 4. Control rides a loss-free, unimpaired
		// circuit with the same propagation profile: in NYNET terms, a
		// low-bandwidth high-priority VC. Loss on the control VC would
		// only slow convergence (timeout retransmission), not
		// correctness, but a clean control channel matches the paper's
		// architecture.
		dataQoS := opts.QoS
		ctrlQoS := opts.QoS
		ctrlQoS.CellLossRate = 0
		ctrlQoS.CellCorruptRate = 0
		ctrlQoS.Impair = netsim.Impairments{}
		ctrlQoS.Schedule = nil
		dvc, dpeer, err := n.dialVC(from, to, dataQoS)
		if err != nil {
			return nil, nil, nil, nil, err
		}
		cvc, cpeer, err := n.dialVC(from, to, ctrlQoS)
		if err != nil {
			dvc.Close()
			dpeer.Close()
			return nil, nil, nil, nil, err
		}
		return transport.NewACI(dvc), transport.NewACI(dpeer),
			transport.NewACI(cvc), transport.NewACI(cpeer), nil

	case transport.UDP:
		// Real loopback sockets. Impairments from UDPLink apply to the
		// data pair only; control always gets a clean link, mirroring
		// the separated loss-free control circuit of the other
		// interfaces.
		d1, d2, err := transport.UDPPair(opts.UDPLink)
		if err != nil {
			return nil, nil, nil, nil, err
		}
		var ctrlLink *transport.UDPLink
		if opts.UDPLink != nil {
			clean := *opts.UDPLink
			clean.Impair = netsim.Impairments{}
			clean.Schedule = nil
			ctrlLink = &clean
		}
		c1, c2, err := transport.UDPPair(ctrlLink)
		if err != nil {
			d1.Close()
			d2.Close()
			return nil, nil, nil, nil, err
		}
		return d1, d2, c1, c2, nil

	case transport.SCI:
		d1, d2, err := n.sciPair(to)
		if err != nil {
			return nil, nil, nil, nil, err
		}
		c1, c2, err := n.sciPair(to)
		if err != nil {
			d1.Close()
			d2.Close()
			return nil, nil, nil, nil, err
		}
		return d1, d2, c1, c2, nil

	default:
		return nil, nil, nil, nil, fmt.Errorf("ncs: unsupported interface %v", opts.Interface)
	}
}

// dialVC establishes one ATM VC between two systems' hosts. The
// network-wide lock keeps the Dial/Accept pairing atomic under
// concurrent connection setup.
func (n *Network) dialVC(from, to *System, qos atm.QoS) (*atm.VC, *atm.VC, error) {
	n.vcMu.Lock()
	defer n.vcMu.Unlock()
	acceptCh := make(chan *atm.VC, 1)
	errCh := make(chan error, 1)
	go func() {
		vc, err := to.atmHost.Accept()
		if err != nil {
			errCh <- err
			return
		}
		acceptCh <- vc
	}()
	local, err := from.atmHost.Dial(to.name, qos)
	if err != nil {
		return nil, nil, err
	}
	select {
	case remote := <-acceptCh:
		return local, remote, nil
	case err := <-errCh:
		local.Close()
		return nil, nil, err
	}
}

// sciPair mints a connected TCP pair via an ephemeral loopback listener.
func (n *Network) sciPair(to *System) (transport.Conn, transport.Conn, error) {
	l, err := transport.ListenSCI("127.0.0.1:0")
	if err != nil {
		return nil, nil, err
	}
	defer l.Close()
	connCh := make(chan transport.Conn, 1)
	errCh := make(chan error, 1)
	go func() {
		c, err := l.Accept()
		if err != nil {
			errCh <- err
			return
		}
		connCh <- c
	}()
	out, err := transport.DialSCI(l.Addr())
	if err != nil {
		return nil, nil, err
	}
	select {
	case in := <-connCh:
		return out, in, nil
	case err := <-errCh:
		out.Close()
		return nil, nil, err
	}
}

// setupRequest is the signaling message handled by the Master Thread.
type setupRequest struct {
	from   string
	connID uint32
	opts   Options
	data   transport.Conn
	ctrl   transport.Conn
}

// System is one NCS process: a set of connections, an accept queue, and
// a Master Thread that services connection management signaling.
type System struct {
	name    string
	network *Network
	atmHost *atm.Host

	setups  chan *setupRequest
	accepts chan *Connection
	done    chan struct{}

	// conns is the registry of live connections — what Close tears down,
	// memStats sizes and the liveness sweep walks. A connection enters it
	// when built and leaves it on Close (heartbeat.go).
	mu     sync.Mutex
	conns  []*Connection
	closed bool

	// The liveness sweep's one timer (heartbeat.go), guarded by mu.
	sweepConns int           // registered connections the sweep covers
	sweepEvery time.Duration // the interval the timer is armed at; 0: not armed
	sweepTimer *time.Timer   // built by the first such connection

	// The sharded runtime's I/O pool, built lazily on the first
	// RuntimeSharded connection (see shard.go).
	shardMu      sync.Mutex
	shards       []*shard
	shardN       int
	shardStopped bool
	shardWG      sync.WaitGroup
}

// Name returns the system's registered name.
func (s *System) Name() string { return s.name }

// master is the Master Thread: it owns connection management (§2's
// control plane list: "connection management, ... configuration
// management") and spawns the per-connection data transfer threads.
func (s *System) master() {
	for {
		select {
		case req := <-s.setups:
			conn := newConnection(s, req.from, req.connID, req.opts, req.data, req.ctrl, false)
			select {
			case s.accepts <- conn:
			case <-s.done:
				conn.Close()
				return
			}
		case <-s.done:
			return
		}
	}
}

// Connect establishes an NCS connection to the named peer system with
// the given per-connection configuration, performing the signaling
// handshake with the peer's Master Thread.
func (s *System) Connect(peer string, opts Options) (*Connection, error) {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil, ErrSystemClosed
	}
	s.mu.Unlock()

	opts = opts.withDefaults()
	target, err := s.network.lookup(peer)
	if err != nil {
		return nil, err
	}
	data, peerData, ctrl, peerCtrl, err := s.network.newConnPair(s, target, opts)
	if err != nil {
		return nil, fmt.Errorf("ncs: connect %s→%s: %w", s.name, peer, err)
	}
	connID := s.network.nextID.Add(1)

	peerOpts := opts
	peerOpts.Platform, peerOpts.PeerPlatform = opts.PeerPlatform, opts.Platform
	req := &setupRequest{
		from:   s.name,
		connID: connID,
		opts:   peerOpts,
		data:   peerData,
		ctrl:   peerCtrl,
	}
	select {
	case target.setups <- req:
	case <-target.done:
		data.Close()
		ctrl.Close()
		peerData.Close()
		peerCtrl.Close()
		return nil, ErrSystemClosed
	}

	return newConnection(s, peer, connID, opts, data, ctrl, true), nil
}

// Accept blocks until a peer establishes a connection to this system.
func (s *System) Accept() (*Connection, error) { return s.AcceptTimeout(0) }

// AcceptTimeout is Accept with a deadline (d > 0; otherwise none, as on
// every receive).
func (s *System) AcceptTimeout(d time.Duration) (*Connection, error) {
	select {
	case c := <-s.accepts:
		return c, nil
	default:
		// Only now would waiting cost a timer; it is stopped on return,
		// not left to outlive a successful accept by d.
	}
	var timeout <-chan time.Time
	if d > 0 {
		timer := time.NewTimer(d)
		defer timer.Stop()
		timeout = timer.C
	}
	select {
	case c := <-s.accepts:
		return c, nil
	case <-s.done:
		return nil, ErrSystemClosed
	case <-timeout:
		return nil, ErrRecvTimeout
	}
}

// Close tears down every connection and stops the Master Thread.
func (s *System) Close() {
	books.mu.Lock()
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		books.mu.Unlock()
		return
	}
	s.closed = true
	s.armSweep(0)
	conns := make([]*Connection, len(s.conns))
	copy(conns, s.conns)
	s.leave() // now if it is empty, else with its last connection (untrack)
	s.mu.Unlock()
	books.mu.Unlock()

	close(s.done)
	for _, c := range conns {
		c.Close()
	}
	s.stopShards()
}
