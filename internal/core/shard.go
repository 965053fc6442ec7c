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
// dedicated Send/Receive (and Control Send/Receive) threads — faithful,
// and ideal up to a few hundred connections, but each connection then
// costs four goroutines and four channel hops whether it is busy or
// idle. A server facing thousands of connections wants the opposite
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
//   - sends: NCS_send callers run flow-control admission on their own
//     goroutine exactly as in the threaded runtime; a lone SDU then
//     leaves on the caller's goroutine when the wire is free
//     (Connection.writeInline), and the rest go on the shard's outbound
//     queue. Each loop cycle drains the queue and issues one vectored
//     SendBatch per connection — PR 1's per-connection 16-SDU
//     coalescing extended across connections, so one wakeup flushes
//     many connections' traffic — holding the connection's wire owner
//     across the write, as the Send Thread does, so an inline write
//     never overtakes a queued packet. The acks and grants the loop
//     itself emits ride that flush;
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
	// RuntimeThreaded is the paper's architecture: dedicated Send,
	// Receive, Control Send, and Control Receive threads per
	// connection. Lowest latency at modest connection counts; cost
	// grows linearly with connections. The default.
	RuntimeThreaded Runtime = iota
	// RuntimeSharded drives the connection from its System's shard
	// pool: a fixed set of event loops demultiplexing receives and
	// coalescing sends across all sharded connections. Goroutine count
	// stays O(shards) regardless of connection count (on pollable
	// transports), at the price of one queue hop per packet that does
	// not find its wire free.
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

	queued    atomic.Bool   // on the shard's ready list
	serving   atomic.Bool   // the loop is running the connection's receive side (emitCtrl)
	sendSlots chan struct{} // bounds outbound data SDUs in the shard queue

	// Loop-owned cycle scratch: the per-connection batches one flush
	// builds and writes.
	inCycle    bool
	data, ctrl batch
}

// batch is one wire's share of a flush: the staged packets and the
// items they came from.
type batch struct {
	bufs  []*buf.Buffer
	items []outItem
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

	mu      sync.Mutex
	conns   map[*Connection]struct{}
	ready   []*Connection
	outQ    []outItem
	stopped bool // the loop is gone (or never ran): refuse outbound items

	// Loop-owned scratch, ping-ponged with the locked slices.
	readyScratch []*Connection
	outScratch   []outItem
	active       []*Connection

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

// enqueueOut deposits one outbound item, counted in its wire's backlog
// from before the loop can see it until the flush that writes it; it
// reports false — the item, and any buffer it carries, stays the
// caller's — when the connection has closed or the loop that would flush
// it is gone.
func (sh *shard) enqueueOut(it outItem) bool {
	select {
	case <-it.c.closedCh:
		return false
	default:
	}
	w, _ := it.wire()
	w.queued.Add(1)
	sh.mu.Lock()
	if sh.stopped {
		sh.mu.Unlock()
		w.queued.Add(-1)
		return false
	}
	sh.outQ = append(sh.outQ, it)
	sh.mu.Unlock()
	sh.ring()
	return true
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
// the loop will never run the connection's receive-side protocol again
// (leftover outbound items still flush — into a closed transport,
// which releases them). The caller may then reap session state.
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

// cycle is one turn of the loop: flush outbound, service every ready
// connection, flush the outbound traffic those services produced
// (acknowledgments, credits) before sleeping again.
func (sh *shard) cycle() {
	sh.serviceMu.Lock()
	defer sh.serviceMu.Unlock()
	mShardCycles.IncAt(uint32(sh.id))

	sh.flushOut()

	sh.mu.Lock()
	ready := sh.ready
	sh.ready = sh.readyScratch[:0]
	sh.readyScratch = ready
	sh.mu.Unlock()

	for i, c := range ready {
		c.sh.queued.Store(false)
		sh.service(c)
		ready[i] = nil
	}

	sh.flushOut()
}

// flushOut drains the outbound queue, building one data batch and one
// control batch per connection, then issues one vectored SendBatch per
// batch — the cross-connection coalescing that lets a single wakeup
// flush many connections' queued SDUs.
func (sh *shard) flushOut() {
	sh.mu.Lock()
	out := sh.outQ
	sh.outQ = sh.outScratch[:0]
	sh.outScratch = out
	sh.mu.Unlock()
	if len(out) == 0 {
		return
	}

	active := sh.active[:0]
	for i := range out {
		it := &out[i]
		sc := it.c.sh
		b := &sc.data
		if it.ctrlPath {
			b = &sc.ctrl
		}
		b.bufs = append(b.bufs, it.stage())
		b.items = append(b.items, *it)
		if !sc.inCycle {
			sc.inCycle = true
			active = append(active, it.c)
		}
	}
	sh.active = active

	for i, c := range active {
		sc := c.sh
		dataFailed := sh.write(&sc.data)
		sc.inCycle = false
		if sh.write(&sc.ctrl) || dataFailed {
			// The transport died; propagate as the threaded Send
			// Thread does, from a fresh goroutine (Close barriers on
			// this loop via serviceMu).
			go c.Close()
		}
		active[i] = nil
	}

	clearItems(&out)
	sh.outScratch = out
}

// write issues a connection's batch for one wire, if it holds anything,
// with one vectored SendBatch under the wire's owner (wire.write, as the
// Send Thread does), and leaves it empty; it reports whether the
// transport failed.
func (sh *shard) write(b *batch) (failed bool) {
	if len(b.items) == 0 {
		return false
	}
	w, t := b.items[0].wire()
	if !b.items[0].ctrlPath {
		mCoalesceDepth.Observe(int64(len(b.bufs)))
	}
	sh.batches.Add(1)
	sh.batchedPackets.Add(uint64(len(b.bufs)))
	failed = w.write(t, b.bufs, b.items) != nil
	b.bufs = b.bufs[:0]
	clearItems(&b.items)
	return failed
}

// clearItems zeroes a drained item slice so payload views and done
// channels do not stay pinned until the scratch is overwritten.
func clearItems(items *[]outItem) {
	s := *items
	for i := range s {
		s[i] = outItem{}
	}
	*items = s[:0]
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
	for _, sh := range shards {
		// An emitter that passed enqueueOut's closed check just before its
		// connection closed may have queued a control packet no loop will
		// flush; release it, and refuse whatever comes later.
		sh.mu.Lock()
		sh.stopped = true
		left := sh.outQ
		sh.outQ = nil
		sh.mu.Unlock()
		for _, it := range left {
			if it.ctrl != nil {
				it.ctrl.Release()
			}
		}
	}
}
