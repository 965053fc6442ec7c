package core

import (
	"runtime"
	"slices"
	"sync"
	"sync/atomic"

	"ncs/internal/buf"
	"ncs/internal/transport"
)

// The sharded runtime is the scale-out alternative to the paper's
// thread-per-function architecture. The paper gives every connection
// dedicated Send/Receive (and Control Send/Receive) threads; here the
// send side is already procedures (Connection.flush), but a threaded
// connection still costs its two receive goroutines whether it is busy
// or idle. A server facing thousands of connections wants the opposite
// trade: a small fixed pool of event loops that amortise scheduling and
// syscall cost across every connection they own.
//
// A System lazily builds one pool of I/O shards (default GOMAXPROCS;
// see SetShards). Connections established with Options.Runtime ==
// RuntimeSharded hash onto a shard by connection ID and are driven
// entirely by that shard's loop:
//
//   - receives: the shard demultiplexes arrivals across all of its
//     connections — via transport.Poller (HPI exposes its arrival queue
//     plus a readiness doorbell, so an idle connection costs zero
//     goroutines) or, for transports that cannot be polled (SCI rides a
//     kernel socket, ACI a cell reassembler), via a minimal pump
//     goroutine that feeds the loop;
//   - sends: NCS_send callers run exactly as in the threaded runtime —
//     admission, then the push onto the connection's wire queue and the
//     flush, on their own goroutine. The loop writes only what it
//     queued itself: the acks and grants it emits while serving a
//     connection stay queued, and it drains every connection it served
//     at the end of the cycle, in one vectored write per wire;
//   - flow/error control state stays strictly per-connection (the same
//     objects the threads drive); the shard serialises all receive-side
//     protocol work for a connection on one goroutine, which is the
//     same single-writer discipline the per-connection Receive Thread
//     provided;
//   - the §4.2 fast path bypasses shards exactly as it bypasses
//     threads: Options.FastPath takes precedence over Options.Runtime.
//
// Backpressure never blocks a shard: when a connection's mailbox (or
// its bound Inbox) is at depth, its data path pauses before reading the
// wire; the consumer's next Recv rings the shard's doorbell to resume.
// Control packets keep flowing while data is paused, so acknowledgment
// clocks never stop.
//
// The shard loops are plain goroutines (kernel-level threads in the
// paper's §4.1 taxonomy) on purpose: they block in transport writes,
// and a user-level package would stall every connection on the shard
// for the duration of one blocking call — the exact pathology Figure
// 10 measures.

// Runtime selects a connection's runtime architecture.
type Runtime int

const (
	// RuntimeThreaded is the paper's architecture: dedicated Receive
	// and Control Receive threads per connection, its Send and Control
	// Send threads replaced by procedures (§4.2; Connection.flush).
	// Lowest latency at modest connection counts; cost grows linearly
	// with connections. The default.
	RuntimeThreaded Runtime = iota
	// RuntimeSharded drives the connection from its System's shard
	// pool: a fixed set of event loops demultiplexing receives and
	// writing what they emit while serving in one batch per connection.
	// Goroutine count stays O(shards) regardless of connection count (on
	// pollable transports), at the price of one hop per arriving packet.
	RuntimeSharded
)

// String implements fmt.Stringer.
func (r Runtime) String() string {
	switch r {
	case RuntimeThreaded:
		return "threaded"
	case RuntimeSharded:
		return "sharded"
	default:
		return "runtime?"
	}
}

// shardRecvBudget bounds how many packets one cycle drains from a
// single connection's data (and control) path before yielding, so one
// busy connection cannot starve its shard-mates. A connection with
// leftover backlog is simply re-queued.
const shardRecvBudget = 64

// pumpDepth is the inbound queue between a pump goroutine and the
// shard loop for non-pollable transports. The pump blocks when it
// fills — per-connection backpressure toward the transport, exactly
// like a Receive Thread that stopped reading.
const pumpDepth = 64

// shardConn is a connection's attachment to its shard. Fields marked
// loop-owned are touched only by the shard loop goroutine.
type shardConn struct {
	shard *shard

	dataPoll transport.Poller // non-nil: poll the data transport directly
	ctrlPoll transport.Poller // non-nil: poll the control transport directly
	dataIn   chan *buf.Buffer // pump-fed when dataPoll is nil
	ctrlIn   chan *buf.Buffer // pump-fed when ctrlPoll is nil (nil in in-band mode)

	queued  atomic.Bool // on the shard's ready list
	serving atomic.Bool // the loop is running the connection's receive side (emitCtrl)
}

// shard is one event loop of a System's pool.
type shard struct {
	sys *System
	id  int

	doorbell chan struct{} // level-triggered wakeup, capacity 1
	quit     chan struct{}

	// serviceMu is held by the loop across each cycle. Connection.Close
	// acquires it (after deregistering) as a barrier: once it is
	// released, no in-flight cycle is still dispatching the closing
	// connection's packets, so the session table can be reaped.
	serviceMu sync.Mutex

	mu    sync.Mutex
	conns map[*Connection]struct{}
	ready []*Connection

	// Loop-owned scratch, ping-ponged with ready.
	readyScratch []*Connection

	wakeups        atomic.Uint64
	batches        atomic.Uint64
	batchedPackets atomic.Uint64
}

func newShard(sys *System, id int) *shard {
	return &shard{
		sys:      sys,
		id:       id,
		doorbell: make(chan struct{}, 1),
		quit:     make(chan struct{}),
		conns:    make(map[*Connection]struct{}),
	}
}

// ring wakes the loop; a full doorbell already guarantees a wakeup.
func (sh *shard) ring() {
	select {
	case sh.doorbell <- struct{}{}:
	default:
	}
}

// requeue flags c for service. Idempotent while the flag is pending;
// the loop clears it just before servicing, so an event arriving
// mid-service re-queues the connection for another pass. Membership is
// checked under the lock so a stale wakeup — a transport notify or an
// afterRecv drain racing Close — can never resurrect a deregistered
// connection on the ready list (the loop must not touch its state
// after unregister's barrier).
func (sh *shard) requeue(c *Connection) {
	sc := c.sh
	if sc.queued.Swap(true) {
		return
	}
	sh.mu.Lock()
	if _, registered := sh.conns[c]; !registered {
		sh.mu.Unlock()
		return
	}
	sh.ready = append(sh.ready, c)
	sh.mu.Unlock()
	sh.ring()
}

// register attaches a connection: readiness hooks ring this shard's
// doorbell, and an initial requeue catches anything that arrived
// before the hooks were installed.
func (sh *shard) register(c *Connection) {
	sc := c.sh
	sh.mu.Lock()
	sh.conns[c] = struct{}{}
	sh.mu.Unlock()
	if sc.dataPoll != nil {
		sc.dataPoll.SetRecvNotify(func() { sh.requeue(c) })
	}
	if sc.ctrlPoll != nil {
		sc.ctrlPoll.SetRecvNotify(func() { sh.requeue(c) })
	}
	sh.requeue(c)
}

// unregister detaches a closing connection and barriers against the
// cycle that may be dispatching its packets. After unregister returns,
// the loop will never run the connection's receive-side protocol again.
// The caller may then reap session state.
func (sh *shard) unregister(c *Connection) {
	sc := c.sh
	if sc.dataPoll != nil {
		sc.dataPoll.SetRecvNotify(nil)
	}
	if sc.ctrlPoll != nil {
		sc.ctrlPoll.SetRecvNotify(nil)
	}
	sh.mu.Lock()
	delete(sh.conns, c)
	sh.ready = slices.DeleteFunc(sh.ready, func(rc *Connection) bool { return rc == c })
	sh.mu.Unlock()
	sh.serviceMu.Lock()
	//lint:ignore SA2001 empty critical section: the acquire itself is the barrier.
	sh.serviceMu.Unlock()
}

// loop is the shard's event loop. Heartbeats do not wake it: the
// System's liveness sweep (heartbeat.go) pings registered connections
// directly, so an all-idle shard sleeps in this select with no timer
// armed.
func (sh *shard) loop() {
	defer sh.sys.shardWG.Done()
	for {
		select {
		case <-sh.doorbell:
		case <-sh.quit:
			return
		}
		sh.wakeups.Add(1)
		mShardWakeups.IncAt(uint32(sh.id))
		sh.cycle()
	}
}

// cycle is one turn of the loop: service every ready connection, then
// hand what those services queued (acknowledgments, credits) to the
// wire, one flush per connection, before sleeping again.
func (sh *shard) cycle() {
	sh.serviceMu.Lock()
	defer sh.serviceMu.Unlock()
	mShardCycles.IncAt(uint32(sh.id))

	sh.mu.Lock()
	ready := sh.ready
	sh.ready = sh.readyScratch[:0]
	sh.readyScratch = ready
	sh.mu.Unlock()

	for _, c := range ready {
		c.sh.queued.Store(false)
		sh.service(c)
	}
	for i, c := range ready {
		c.flush(&c.dataW, c.data, false)
		c.flush(&c.ctrlW, c.ctrl, false)
		ready[i] = nil
	}
}

// service runs one connection's receive side: drain control and data
// arrivals up to the budget. Control always runs — the ack clock must
// not stop while the data path is paused.
func (sh *shard) service(c *Connection) {
	c.sh.serving.Store(true)
	sh.pumpCtrl(c)
	sh.pumpData(c)
	c.sh.serving.Store(false)
}

// pumpCtrl drains the control path through the connection's
// demultiplexer (credits and rate updates to flow control, acks to the
// waiting sender).
func (sh *shard) pumpCtrl(c *Connection) {
	sc := c.sh
	if sc.ctrlPoll == nil && sc.ctrlIn == nil {
		return // in-band mode: control arrives on the data path
	}
	for i := 0; i < shardRecvBudget; i++ {
		b, ok := nextArrival(sc.ctrlPoll, sc.ctrlIn)
		if !ok {
			go c.Close()
			return
		}
		if b == nil {
			return
		}
		c.demuxControl(b)
		b.Release()
	}
	sh.requeue(c) // budget exhausted: likely backlog
}

// pumpData drains the data path through ingest — the same flow
// control, error control, reassembly and delivery the Receive Thread
// drives — while the default lane has room for what that may complete.
func (sh *shard) pumpData(c *Connection) {
	sc := c.sh
	for i := 0; i < shardRecvBudget; i++ {
		if sc.dataPaused(c) {
			return
		}
		b, ok := nextArrival(sc.dataPoll, sc.dataIn)
		if !ok {
			go c.Close()
			return
		}
		if b == nil {
			return
		}
		c.ingest(b, nil)
	}
	sh.requeue(c)
}

// nextArrival takes the next packet waiting on one of a connection's
// transports — from its poller, or else from its pump's channel —
// without blocking: nil when none is waiting, ok false when the
// transport died.
func nextArrival(p transport.Poller, in chan *buf.Buffer) (b *buf.Buffer, ok bool) {
	if p != nil {
		b, err := p.TryRecvBuf()
		return b, err == nil
	}
	select {
	case b = <-in:
	default:
	}
	return b, true
}

// dataPaused is the shard's backpressure: the connection's data path
// stays paused — and counted in core.shard.parked_conns — while its
// default lane is at depth. The consumer that frees a slot re-queues
// the connection (afterRecv, Inbox.wake).
func (sc *shardConn) dataPaused(c *Connection) bool {
	if c.atDepth() && c.pause() {
		return true
	}
	c.unpause()
	return false
}

// drainInbound releases pooled buffers the pumps parked after the
// connection closed. Called from Close after unregister's barrier: the
// pumps are dead and the loop no longer services this connection, so
// nothing else touches the channels.
func (sc *shardConn) drainInbound() {
	drainBufChan(sc.dataIn)
	drainBufChan(sc.ctrlIn)
}

func drainBufChan(ch chan *buf.Buffer) {
	for { // a nil channel (no pump) is never ready
		select {
		case b := <-ch:
			b.Release()
		default:
			return
		}
	}
}

// ---------------------------------------------------------------------------
// System-side pool management.

// SetShards configures the size of this System's shard pool. It must
// be called before the first sharded connection is established; the
// default is GOMAXPROCS.
func (s *System) SetShards(n int) error {
	s.shardMu.Lock()
	defer s.shardMu.Unlock()
	if s.shards != nil {
		return errShardsStarted
	}
	s.shardN = n
	return nil
}

// shardFor returns the shard owning connID, starting the pool on first
// use.
func (s *System) shardFor(connID uint32) *shard {
	s.shardMu.Lock()
	defer s.shardMu.Unlock()
	if s.shards == nil {
		n := s.shardN
		if n <= 0 {
			n = runtime.GOMAXPROCS(0)
		}
		s.shards = make([]*shard, n)
		for i := range s.shards {
			sh := newShard(s, i)
			s.shards[i] = sh
			// A Connect that raced System.Close gets inert shards:
			// registration works, nothing runs, nothing leaks.
			if !s.shardStopped {
				s.shardWG.Add(1)
				go sh.loop()
			}
		}
	}
	return s.shards[int(connID)%len(s.shards)]
}

// stopShards terminates the pool after every connection has closed.
func (s *System) stopShards() {
	s.shardMu.Lock()
	shards := s.shards
	s.shards = nil
	s.shardStopped = true
	s.shardMu.Unlock()
	for _, sh := range shards {
		close(sh.quit)
	}
	s.shardWG.Wait()
}
