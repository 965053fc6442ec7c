package core

import (
	"runtime"
	"slices"
	"sync"
	"unsafe"
)

// The sharded runtime is the scale-out alternative to the paper's
// thread-per-function architecture. The paper gives every connection
// dedicated Send/Receive (and Control Send/Receive) threads; here the
// send side is procedures (Connection.flush) and the receive side is
// read by whoever waits on it (pump.go). What nobody waits on, a shard's
// loop reads: its pump of last resort. A threaded connection is a shard
// of one — a private shard whose loop serves it alone, one goroutine
// whether it is busy or idle. A server facing thousands of connections
// wants the opposite trade: a small fixed pool of event loops that
// amortise scheduling and syscall cost across every connection they own.
// The runtimes differ only in whose loop pumps last: a waiting receiver
// or sender reads its own wires, on every runtime, and the loop reads
// those of the connections nobody waits on.
//
// A System lazily builds one pool of I/O shards (default GOMAXPROCS;
// see SetShards) when its first connection with Options.Runtime ==
// RuntimeSharded or Options.FastPath is established. Those connections
// hash onto a shard by connection ID, and that shard's loop is their
// pump of last resort. A shard works the same, private or
// pooled:
//
//   - receives: what arrives while nobody waits re-queues the connection
//     through the transport's notify hook — every transport has one, so
//     an idle connection costs core no goroutine (SCI's socket reader,
//     one per connection, is the transport's own) — and the loop pumps
//     it;
//   - sends: NCS_send callers run exactly as in the threaded runtime —
//     admission, then the push onto the connection's wire queue and the
//     flush, on their own goroutine. The loop writes only what it
//     queued itself: the acks and grants it emits while serving a
//     connection stay queued, and it drains every connection it served
//     at the end of the cycle, in one vectored write per wire;
//   - flow/error control state stays strictly per-connection, and a
//     wire's pump token serialises its readers, the loop among them;
//   - the §4.2 fast path is on the pool too, whatever Options.Runtime
//     says: a pool shard is no per-connection thread, and without a
//     pump of last resort nothing would answer a retransmission that
//     arrives while the application is not calling in.
//
// Backpressure never blocks a shard, nor stops it reading a wire: when a
// connection's default lane (or its bound Inbox) is at depth, the lane
// withholds its peer's credit grant, and the consumer's pop that ends
// the backlog sends it (stream.Credit). The wires are always read, so
// acknowledgment clocks and the connection's other streams never stop.
//
// The shard loops are plain goroutines (kernel-level threads in the
// paper's §4.1 taxonomy) on purpose: they block in transport writes,
// and a user-level package would stall every connection on the shard
// for the duration of one blocking call — the exact pathology Figure
// 10 measures.

// Runtime selects a connection's runtime architecture.
type Runtime int

const (
	// RuntimeThreaded is the paper's architecture with its threads
	// replaced by procedures as far as §4.2 allows: a waiting Send or
	// Recv reads the wire itself, the Send and Control Send threads are
	// gone (Connection.flush), and the Receive and Control Receive
	// threads are one private shard's loop, the connection's own pump of
	// last resort (pump.go). Lowest latency at modest connection counts;
	// cost grows linearly with connections. The default.
	RuntimeThreaded Runtime = iota
	// RuntimeSharded makes its System's shard pool the connection's
	// pump of last resort: a fixed set of event loops reading the wires
	// nobody waits on and writing what they emit while serving in one
	// batch per connection.
	// Goroutine count in core stays O(shards) regardless of connection
	// count, at the price of one hop per arriving packet when nobody
	// waits.
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

// shard is one event loop: one of a System's pool, or a threaded
// connection's private one.
type shard struct {
	id int
	wg *sync.WaitGroup // the loop's: the pool's, or the connection's

	doorbell chan struct{} // level-triggered wakeup, capacity 1
	quit     chan struct{} // the pool's, or the connection's closedCh

	mu    sync.Mutex
	conns map[*Connection]struct{}
	ready []*Connection

	// Loop-owned scratch, ping-ponged with ready.
	readyScratch []*Connection
}

// newShard builds a shard. Its owner starts the loop, counted on wg,
// which returns once quit is closed.
func newShard(id int, quit chan struct{}, wg *sync.WaitGroup) *shard {
	return &shard{
		id:       id,
		wg:       wg,
		doorbell: make(chan struct{}, 1),
		quit:     quit,
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
// afterRecv drain racing Close — never puts a deregistered connection
// back on the ready list, and one before attachShard registers it leaves
// the flag down for attachShard's own requeue.
func (sh *shard) requeue(c *Connection) {
	if c.queued.Swap(true) {
		return
	}
	sh.mu.Lock()
	if _, registered := sh.conns[c]; !registered {
		c.queued.Store(false)
		sh.mu.Unlock()
		return
	}
	sh.ready = append(sh.ready, c)
	sh.mu.Unlock()
	sh.ring()
}

// attachShard makes sh the pump of last resort of c's wires: what
// arrives while nobody waits re-queues c there, through the transports'
// notify hooks (pump.go). An initial requeue catches anything that
// arrived before c was registered.
func (c *Connection) attachShard(sh *shard) {
	c.sh = sh
	c.listen(func() { sh.requeue(c) })
	sh.mu.Lock()
	sh.conns[c] = struct{}{}
	sh.mu.Unlock()
	sh.requeue(c)
}

// detachShard unregisters a closing connection from its shard. A cycle
// may still be serving it: Close's barrier is the pump tokens, which the
// loop reads under like any other reader, and past which it reads
// nothing.
func (c *Connection) detachShard() {
	for _, w := range c.in {
		w.t.SetRecvNotify(nil)
	}
	sh := c.sh
	sh.mu.Lock()
	delete(sh.conns, c)
	sh.ready = slices.DeleteFunc(sh.ready, func(rc *Connection) bool { return rc == c })
	sh.mu.Unlock()
}

// privateShardBytes is what c's shard adds to its retained heap: a
// private shard, the connection's own, or nothing on the pool (info).
func (c *Connection) privateShardBytes() uint64 {
	if c.sh.quit != c.closedCh {
		return 0
	}
	return uint64(unsafe.Sizeof(shard{}))
}

// loop is the shard's event loop. Heartbeats do not wake it: the
// System's liveness sweep (heartbeat.go) pings registered connections
// directly, so an all-idle shard sleeps in this select with no timer
// armed.
func (sh *shard) loop() {
	defer sh.wg.Done()
	for {
		select {
		case <-sh.doorbell:
		case <-sh.quit:
			return
		}
		mShardWakeups.IncAt(uint32(sh.id))
		sh.cycle()
	}
}

// cycle is one turn of the loop: service every ready connection, then
// hand what those services queued (acknowledgments, credits) to the
// wire, one flush per connection, before sleeping again.
func (sh *shard) cycle() {
	mShardCycles.IncAt(uint32(sh.id))

	sh.mu.Lock()
	ready := sh.ready
	sh.ready = sh.readyScratch[:0]
	sh.readyScratch = ready
	sh.mu.Unlock()

	for _, c := range ready {
		c.queued.Store(false)
		sh.service(c)
	}
	for i, c := range ready {
		c.flush(&c.dataW, c.data, false)
		c.flush(&c.ctrlW, c.ctrl, false)
		ready[i] = nil
	}
}

// service is the loop's turn at one connection's wires as their pump of
// last resort: it pumps them like any reader, with serving raised so
// that the acks and grants it emits stay queued to the cycle's end. A
// wire a waiter holds is skipped, for the waiter reads it; one still
// pending once the loop read (its budget ran out) re-queues the
// connection.
func (sh *shard) service(c *Connection) {
	c.serving.Store(true)
	_, _, read := c.pump(nil, nil)
	c.serving.Store(false)
	if read && (c.in[wireCtrl].pending.Load() || c.in[wireData].pending.Load()) {
		sh.requeue(c) // likely backlog
	}
}

// ---------------------------------------------------------------------------
// System-side pool management.

// SetShards configures the size of this System's shard pool. It must
// be called before the first sharded or fast-path connection is
// established, which starts the pool; the default is GOMAXPROCS.
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
		quit := make(chan struct{}) // the pool's, closed by stopShards
		s.shards = make([]*shard, n)
		for i := range s.shards {
			sh := newShard(i, quit, &s.shardWG)
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
	if len(shards) > 0 {
		close(shards[0].quit) // the pool's, one for all
	}
	s.shardWG.Wait()
}
