package core

import (
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"ncs/internal/buf"
	"ncs/internal/errctl"
	"ncs/internal/flowctl"
	"ncs/internal/netsim"
	"ncs/internal/packet"
	"ncs/internal/platform"
	"ncs/internal/stream"
	"ncs/internal/telemetry"
	"ncs/internal/transport"
)

// deliveredQueueDepth is the number of fully reassembled messages that
// may wait for NCS_recv in the default lane's mailbox before its
// producer stops reading the data connection — the Receive Thread
// waits, a shard pauses the connection's data path — which is the
// natural backpressure toward the peer.
const deliveredQueueDepth = 128

// streamSendSlots bounds how many data SDUs from non-zero streams may
// sit in a connection's outbound queue at once. The shared queue is
// FIFO: without the bound, a bulk stream keeps it full of its own SDUs
// and every stream-0 frame (RPC calls, latency-sensitive sends) waits
// behind a whole credit window of bulk before reaching the wire. With
// it, a stream-0 SDU finds at most streamSendSlots stream SDUs ahead
// of itself, while bulk still batches deep enough to keep the wire
// busy. Slots are a single pool across all non-zero streams — they
// bound total queue residency, and the channel semaphore's FIFO
// hand-off keeps concurrent streams interleaving fairly.
const streamSendSlots = 8

// sendQueueDepth is the Send Thread's queue. Deep enough that a
// multi-SDU transfer can pipeline SDUs behind flow-control admission,
// which is what gives the Send Thread batches to coalesce.
const sendQueueDepth = 64

// sendBatchMax bounds how many queued SDUs the Send Thread coalesces
// into one vectored transport write.
const sendBatchMax = 16

// Message is a received user message. Lost reports SDUs missing from an
// unreliable (ErrorControl: None) transfer; it is always zero on
// reliable connections. One returned by RecvMessage*, a stream's or an
// Inbox's is borrowed (errctl.Delivery has the rule): Data is read-only,
// and the holder calls Release exactly once, or Bytes to own it.
type Message = errctl.Delivery

// outItem is one outbound unit on its way to a transport write: a data
// SDU, or a control packet (already marshalled; the item owns the
// reference), with the bookkeeping that follows its transmission. The
// Send Thread's queue, a shard's outbound queue and the inline write all
// carry it through the same stage and finish.
type outItem struct {
	c          *Connection
	sdu        errctl.SDU
	ctrl       *buf.Buffer   // non-nil: a control packet, not an SDU
	ctrlPath   bool          // write to the control connection (false: data)
	done       chan struct{} // non-nil: deposit a token after transmission
	slot       bool          // release one of the connection's shard send slots after transmission
	streamSlot bool          // release one of the connection's stream send slots after transmission
}

// wire is one transport as its writers share it. Whoever writes it holds
// mu across the write: a queue's writer (the Send Thread, the Control
// Send Thread, a shard's flush) for each batch, a producer writing
// inline for its one packet (writeInline). queued counts the packets
// queued for it and not yet written.
type wire struct {
	mu     sync.Mutex
	queued atomic.Int32
}

// write issues a queue writer's batch on t under the wire's owner and
// takes it from the backlog once it is written — so an inline write that
// finds the owner free and the backlog empty has nothing queued to
// overtake — then finishes the batch's items.
func (w *wire) write(t transport.Conn, bufs []*buf.Buffer, items []outItem) error {
	w.mu.Lock()
	err := t.SendBatch(bufs) // consumes the buffer refs
	w.queued.Add(-int32(len(bufs)))
	w.mu.Unlock()
	finishAll(items)
	return err
}

// wire returns the item's wire and transport: the control connection's
// or, for data and in-band control, the data connection's.
func (it *outItem) wire() (*wire, transport.Conn) {
	if it.ctrlPath {
		return &it.c.ctrlW, it.c.ctrl
	}
	return &it.c.dataW, it.c.data
}

// stage returns the marshalled packet to write: the control packet as
// queued, or the SDU serialised into a pooled buffer — the one copy of
// the payload, after which the caller's message is no longer referenced.
// Its writer picked it up (Dequeued), off a queue or inline — an inline
// write stamps no Queued.
func (it *outItem) stage() *buf.Buffer {
	if it.ctrl != nil {
		it.c.stats.controlSent.Add(1)
		return it.ctrl
	}
	telemetry.TraceStamp(it.c.id, it.sdu.Header.SessionID, telemetry.StageDequeued)
	sb := buf.GetCap(packet.DataHeaderSize + len(it.sdu.Payload))
	sb.B = packet.AppendSDU(sb.B, it.sdu.Header, it.sdu.Payload)
	return sb
}

// finish is the post-transmission bookkeeping: the trace stamp, the done
// token a synchronous sender waits on (only a queued SDU carries one),
// queue-slot releases.
func (it *outItem) finish() {
	if it.ctrl == nil {
		telemetry.TraceStamp(it.c.id, it.sdu.Header.SessionID, telemetry.StageWireOut)
	}
	if it.done != nil {
		it.done <- struct{}{} // one-token confirmation (pooled chan)
	}
	if it.slot {
		<-it.c.sh.sendSlots
	}
	if it.streamSlot {
		<-it.c.streamSlotCh()
	}
}

func finishAll(items []outItem) {
	for i := range items {
		items[i].finish()
	}
}

// ctrlEvent is a control packet leaving a receive loop for another
// goroutine. ref is the pooled receive buffer backing ctl.Body — a
// reference handed off by the receive loop (buf.Handoff) that the
// consumer must release once it is done with the body; nil when the
// body does not alias pooled storage.
type ctrlEvent struct {
	ctl packet.Control
	ref *buf.Buffer
}

// release drops the event's buffer reference, if it carries one.
func (e ctrlEvent) release() {
	if e.ref != nil {
		e.ref.Release()
	}
}

// sendSession is what one Send needs beyond the message: the
// error-control sender, the channel the connection's control demux
// deposits its acknowledgments on, the retransmission timer (idle on the
// fast path, whose timed control read is its timer) and the channel the
// Send Thread or shard confirms a queued synchronous transmission on —
// the one part an unreliable Send uses. Sessions recycle through
// idleSendSessions — channels and timer are built once and survive, the
// sender is drawn from errctl's own free list per transfer — so a steady
// stream of sends allocates nothing. What makes ackCh safe to reuse is
// endSend's order: deposits happen under c.mu against the waiter table,
// so once the session id is deleted no event can land, and the drain
// that follows leaves the channel empty. An ack for an older session
// finds no waiter under its id and is discarded, whoever holds the
// channel now. done is clean whenever put returned normally: its one
// token was consumed.
type sendSession struct {
	snd errctl.Sender
	// ackCh holds the acks that arrive while Send is busy retransmitting;
	// one that finds it full is dropped and the timer recovers.
	ackCh chan ctrlEvent
	timer *time.Timer   // stopped and drained while idle
	done  chan struct{} // one token per synchronous transmission (put)
}

// idleSendSessions keeps up to 256 idle send sessions — one serves one
// Send at a time, so 256 concurrent senders; further ones build their
// own and leave them to the collector. Budget: a session is its ack
// channel (4 events × 64 B), a stopped timer and a one-token channel,
// ≈ 0.6 KB — 256 ≈ 150 KB.
var idleSendSessions = buf.NewFreeList(256, func() *sendSession {
	t := time.NewTimer(time.Hour)
	t.Stop()
	return &sendSession{ackCh: make(chan ctrlEvent, 4), timer: t, done: make(chan struct{}, 1)}
})

// Connection is one NCS point-to-point connection: a data connection
// and a control connection, the per-connection threads of Figure 4, and
// the flow/error control configuration chosen at establishment.
type Connection struct {
	sys  *System
	peer string
	id   uint32
	slot int32 // index in sys's registry, guarded by its mu; -1: not in it (heartbeat.go)
	opts Options

	data transport.Conn
	ctrl transport.Conn

	// Flow control state is created on first use (flowSend/flowRecv):
	// an idle connection that never sends or receives a data packet
	// carries none. The pointers publish lazily-built interface values;
	// c.mu serialises construction.
	fcSend atomic.Pointer[flowctl.Sender]
	fcRecv atomic.Pointer[flowctl.Receiver]

	// sendQ and ctrlQ exist only on threaded runtimes — the sharded
	// runtime deposits on its shard's outbound queue and the fast path
	// writes inline, so neither pays for queues it never uses.
	sendQ chan outItem
	ctrlQ chan *buf.Buffer // marshalled control packets; the queue owns the references

	// box is the default lane's receive end — the same mailbox every
	// stream has. Its producer holds it to deliveredQueueDepth (or, bound
	// to an inbox, holds that to its depth — atDepth): there it raises
	// paused and stops reading the data connection, and the pop that frees
	// a slot wakes it (afterRecv, Inbox.wake). space is the Receive
	// Thread's wake-up bell, built by that thread before it first raises
	// paused; a shard is re-queued instead.
	box   stream.Mailbox[Message]
	space chan struct{}

	// mu guards the lazy constructors and the waiter table, nil until
	// the first outbound reliable send.
	mu      sync.Mutex
	waiters map[uint32]chan ctrlEvent

	// inbound is the default lane's reassembly session table (streams
	// carry their own); it allocates on the first inbound session.
	inbound errctl.SessionTable

	nextSession atomic.Uint32

	// txCounter and rxCounter are connection-lifetime packet indices fed
	// to flow control, so that window/credit state spans sessions even
	// though SDU sequence numbers restart per message.
	txCounter atomic.Uint32
	rxCounter atomic.Uint32

	paused atomic.Bool // the default lane's producer stopped at depth (see box)

	fastSendMu sync.Mutex // serialises fast-path senders
	fastRecvMu sync.Mutex // serialises fast-path pump holders

	// The data and control transports as their writers share them
	// (writeInline). In-band control rides dataW.
	dataW, ctrlW wire

	// Stream multiplexing state (see internal/stream). The mux is lazy:
	// a connection that never opens a stream carries none, and stream 0
	// — the default channel — never touches it. initiator fixes stream
	// id parity (dialer odd, acceptor even).
	muxp atomic.Pointer[stream.Mux]

	// streamSlots is the counting semaphore behind streamSendSlots,
	// shared by every non-zero stream's queued data SDUs. Lazy: built
	// by streamSlotCh on a connection's first stream send.
	streamSlotsP atomic.Pointer[chan struct{}]

	// pumpFree (cap 1) wakes one waiting receiver when the fast path's
	// pump changes hands (see fastpath.go). Built only for FastPath.
	pumpFree chan struct{}

	// sh is the connection's shard attachment (RuntimeSharded only);
	// inbox, when bound, merges this connection's deliveries into a
	// shared queue.
	sh    *shardConn
	inbox atomic.Pointer[Inbox]

	closeOnce sync.Once
	failed    atomic.Bool // the liveness sweep declared the peer dead (heartbeat.go)
	closedCh  chan struct{}
	wg        sync.WaitGroup

	stats  statCounters
	folded *connTotals // what the process's books hold of stats; nil until the connection left the registry (conns.go)
	rtt    rttEstimator

	// The liveness sweep's state (heartbeat.go); hbDue and misses are
	// guarded by the System's mu.
	hbDue  int64       // unix nanos from which a sweep pings next; 0: not swept
	heard  atomic.Bool // a packet arrived since the last due sweep
	misses uint8       // consecutive due sweeps that found heard down

	initiator bool // fixes stream id parity (see muxp)
}

func newConnection(sys *System, peer string, id uint32, opts Options, data, ctrl transport.Conn, initiator bool) *Connection {
	if opts.Platform != nil {
		data = platform.Tax(data, *opts.Platform)
		ctrl = platform.Tax(ctrl, *opts.Platform)
	}
	c := &Connection{
		sys:       sys,
		peer:      peer,
		id:        id,
		opts:      opts,
		data:      data,
		ctrl:      ctrl,
		initiator: initiator,
		closedCh:  make(chan struct{}),
		slot:      -1,
	}
	c.inbound.Alg = opts.ErrorControl
	switch {
	case opts.FastPath:
		// No threads: Send/Recv run the protocol inline (§4.2). The
		// fast path bypasses the sharded runtime exactly as it
		// bypasses the threads.
		c.pumpFree = make(chan struct{}, 1)
	case opts.Runtime == RuntimeSharded:
		// No per-connection threads either: the System's shard pool
		// drives the connection's protocol machinery (shard.go).
		c.attachShard()
	case opts.InbandControl:
		// Ablation mode: control shares the data connection, so the
		// Send Thread carries both and the Receive Thread demultiplexes
		// — exactly the per-packet demux cost the split planes avoid.
		c.sendQ = make(chan outItem, sendQueueDepth)
		c.wg.Add(2)
		go c.sendThread()
		go c.recvThread()
	default:
		// Data plane: per-connection Send and Receive Threads; control
		// plane: per-connection Control Send/Receive Threads.
		c.sendQ = make(chan outItem, sendQueueDepth)
		c.ctrlQ = make(chan *buf.Buffer, 16)
		c.wg.Add(4)
		go c.sendThread()
		go c.recvThread()
		go c.ctrlSendThread()
		go c.ctrlRecvThread()
	}
	sys.track(c)
	return c
}

// flowSend returns the connection's flow-control sender, creating it
// on first use. The fast path is one atomic load.
func (c *Connection) flowSend() flowctl.Sender {
	if p := c.fcSend.Load(); p != nil {
		return *p
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if p := c.fcSend.Load(); p != nil {
		return *p
	}
	fs := flowctl.NewSender(c.opts.FlowControl, c.opts.FlowConfig)
	select {
	case <-c.closedCh:
		// Construction raced Close (which tears flow control down under
		// this same mutex): close the newcomer so no admission waiter
		// can block on a sender teardown never saw.
		fs.Close()
	default:
	}
	c.fcSend.Store(&fs)
	return fs
}

// flowRecv returns the connection's flow-control receiver, creating it
// on first use.
func (c *Connection) flowRecv() flowctl.Receiver {
	if p := c.fcRecv.Load(); p != nil {
		return *p
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if p := c.fcRecv.Load(); p != nil {
		return *p
	}
	fr := flowctl.NewReceiver(c.opts.FlowControl, c.opts.FlowConfig)
	if !c.opts.FastPath {
		// Give a credit receiver an asynchronous emitter so its
		// refill-retry timer can re-advertise a possibly-lost grant. The
		// fast path gets none: it emits control inline on the receive
		// procedure's goroutine, and an emitterless receiver arms no
		// timers at all.
		flowctl.SetEmitter(fr, func(ctl packet.Control) bool {
			ctl.ConnID = c.id
			return c.emitCtrl(ctl)
		})
	}
	select {
	case <-c.closedCh:
		fr.Close()
	default:
	}
	c.fcRecv.Store(&fr)
	return fr
}

// FlowStats snapshots the connection's credit flow-control sender state
// (grants, in-flight, congestion window). ok is false when the
// connection does not use credit flow control or has not sent yet.
func (c *Connection) FlowStats() (flowctl.SenderStats, bool) {
	p := c.fcSend.Load()
	if p == nil {
		return flowctl.SenderStats{}, false
	}
	return flowctl.SenderStatsOf(*p)
}

// attachShard registers the connection with its System's shard pool:
// pollable transports (HPI) feed the shard's event loop directly at
// zero goroutines; others get a minimal pump goroutine per transport
// that only reads the wire — every protocol decision still runs on
// the shard.
func (c *Connection) attachShard() {
	sh := c.sys.shardFor(c.id)
	sc := &shardConn{
		shard:     sh,
		sendSlots: make(chan struct{}, sendQueueDepth),
	}
	c.sh = sc
	if p, ok := transport.AsPoller(c.data); ok {
		sc.dataPoll = p
	} else {
		sc.dataIn = make(chan *buf.Buffer, pumpDepth)
		c.wg.Add(1)
		go c.pump(c.data, sc.dataIn)
	}
	if !c.opts.InbandControl {
		if p, ok := transport.AsPoller(c.ctrl); ok {
			sc.ctrlPoll = p
		} else {
			sc.ctrlIn = make(chan *buf.Buffer, pumpDepth)
			c.wg.Add(1)
			go c.pump(c.ctrl, sc.ctrlIn)
		}
	}
	sh.register(c)
}

// pump bridges a non-pollable transport into the shard loop: it parks
// in the blocking receive (the thing the transport cannot avoid) and
// hands packets over; everything else — demux, protocol, delivery —
// happens on the shard. Blocking on a full channel is the same
// backpressure a Receive Thread applies by not reading.
func (c *Connection) pump(t transport.Conn, ch chan *buf.Buffer) {
	defer c.wg.Done()
	for {
		b, err := t.RecvBuf()
		if err != nil {
			// Transport death is connection death, as in recvThread.
			go c.Close()
			return
		}
		select {
		case ch <- b:
			c.sh.shard.requeue(c)
		case <-c.closedCh:
			b.Release()
			return
		}
	}
}

// closeErr maps connection shutdown to the caller-visible error.
func (c *Connection) closeErr() error {
	if c.failed.Load() {
		return ErrPeerUnreachable
	}
	return ErrConnClosed
}

// Done returns a channel closed when the connection has shut down —
// locally via Close or remotely via a heartbeat-declared peer failure.
// Layers above the core (the RPC client, application select loops) use
// it to observe connection state without polling.
func (c *Connection) Done() <-chan struct{} { return c.closedCh }

// Err reports the connection's terminal state: nil while it is live,
// ErrPeerUnreachable after a heartbeat failure, ErrConnClosed after any
// other shutdown.
func (c *Connection) Err() error {
	select {
	case <-c.closedCh:
		return c.closeErr()
	default:
		if c.failed.Load() {
			return ErrPeerUnreachable
		}
		return nil
	}
}

// ID returns the connection identifier assigned at setup.
func (c *Connection) ID() uint32 { return c.id }

// Peer returns the remote system name.
func (c *Connection) Peer() string { return c.peer }

// Options returns the connection's configuration.
func (c *Connection) Options() Options { return c.opts }

// ---------------------------------------------------------------------------
// Send path (steps 1–4 of Figure 4).

// Send transmits msg reliably or unreliably according to the
// connection's error control configuration, blocking until the transfer
// completes (reliable) or is fully handed to the interface (unreliable).
func (c *Connection) Send(msg []byte) error {
	return c.send(c.lane0(), msg)
}

// unreliableSDU builds the header Segment would give SDU i of n of an
// unreliable message carrying payload, on the given stream.
func (c *Connection) unreliableSDU(payload []byte, streamID, sess uint32, i, n int) errctl.SDU {
	var flags uint16 = packet.FlagUnreliable
	if i == n-1 {
		flags |= packet.FlagEnd
	}
	return errctl.SDU{
		Header: packet.DataHeader{
			Flags:     flags,
			ConnID:    c.id,
			SessionID: sess,
			Seq:       uint32(i),
			Length:    uint32(len(payload)),
			StreamID:  streamID,
		},
		Payload: payload,
	}
}

// unreliableSegments returns the segmentation arithmetic for an
// unreliable message: the effective SDU size and the SDU count (an
// empty message still takes one empty end SDU).
func (c *Connection) unreliableSegments(msg []byte) (sduSize, n int) {
	sduSize = errctl.EffectiveSDUSize(c.opts.SDUSize)
	n = (len(msg) + sduSize - 1) / sduSize
	if n == 0 {
		n = 1
	}
	return sduSize, n
}

// sendLane bundles the per-channel transmit state a send drives: the
// flow-control sender admitting each SDU and the lifetime transmit
// index it is fed. Stream 0 uses the connection's own pair; every
// other stream brings its own, which is what keeps an exhausted
// stream's admission wait from touching its siblings.
type sendLane struct {
	streamID uint32
	fc       flowctl.Sender
	tx       *atomic.Uint32
	done     chan struct{} // the running Send's confirmation channel (sendSession.done)
}

// lane0 is the connection's default (stream 0) send lane.
func (c *Connection) lane0() sendLane {
	return sendLane{fc: c.flowSend(), tx: &c.txCounter}
}

// send is the one send engine: every Send, on every lane and every
// runtime, is this procedure — §4.2's point that the threads "can be
// replaced by procedures" means flow control, error control and the
// data transfer are the same steps whoever runs them. Only three
// primitives know the runtime: admit (how a credit wait passes), put
// (how an SDU reaches the wire) and awaitAck (how the acknowledgment
// comes back).
func (c *Connection) send(lane sendLane, msg []byte) error {
	if err := c.checkSendSize(msg); err != nil {
		return err
	}
	defer c.settle() // everything a Send counts, it counts before it returns
	if c.opts.FastPath {
		// The procedure-call model has one caller in the protocol at a
		// time: sends on all lanes serialise.
		c.fastSendMu.Lock()
		defer c.fastSendMu.Unlock()
	}
	sess := c.nextSession.Add(1)
	telemetry.TraceStart(c.id, sess, len(msg))

	// A fast-path unreliable Send waits for neither acks nor a Send
	// Thread, so it alone takes no session.
	var ss *sendSession
	if c.opts.ErrorControl != errctl.None || !c.opts.FastPath {
		ss = c.beginSend(lane, msg, sess)
		defer c.endSend(ss, sess)
		lane.done = ss.done
	}
	if c.opts.ErrorControl == errctl.None {
		// A None session never retransmits, so nothing ever refers to it
		// again and the error-control sender (session state, segmentation
		// slice) is skipped: segmentation happens inline on the caller's
		// stack, and steady-state unreliable sends allocate nothing.
		sduSize, n := c.unreliableSegments(msg)
		var one [1]errctl.SDU
		for i := 0; i < n; i++ {
			lo := i * sduSize
			hi := min(lo+sduSize, len(msg))
			one[0] = c.unreliableSDU(msg[lo:hi], lane.streamID, sess, i, n)
			if err := c.transmit(lane, one[:], i == n-1); err != nil {
				return err
			}
		}
		c.stats.messagesSent.Add(1)
		return nil
	}

	if err := c.transmit(lane, ss.snd.Initial(), false); err != nil {
		return err
	}
	lastSend := time.Now()
	retransmitted := false // Karn's rule: skip samples after a retransmit
	for {
		ev, acked, err := c.awaitAck(ss)
		if err != nil {
			return err
		}
		var rt []errctl.SDU
		if acked {
			if c.opts.AdaptiveTimeout && !retransmitted {
				c.rtt.observe(time.Since(lastSend))
			}
			var done bool
			rt, done, err = ss.snd.OnAck(ev.ctl)
			// OnAck parses the body synchronously, so the handed-off
			// receive buffer can recycle now.
			ev.release()
			if err != nil && !errors.Is(err, errctl.ErrSessionDone) {
				return err
			}
			if done {
				c.stats.messagesSent.Add(1)
				return nil
			}
		} else {
			rt = ss.snd.OnTimeout()
		}
		if len(rt) > 0 {
			// Retransmissions transmit synchronously (the trailing true):
			// their payloads alias msg, which the caller may recycle the
			// moment Send returns, and the final ack can land while an
			// async duplicate still sits in the send queue. Waiting for
			// the Send Thread's confirmation — it copies the payload into
			// its own staging buffer before batching — keeps every queued
			// alias inside Send's lifetime; a lone retransmission written
			// inline is done when put returns. The original window needs
			// no such barrier: an ack proves its SDUs were already staged
			// and written.
			if err := c.transmit(lane, rt, true); err != nil {
				return err
			}
			lastSend = time.Now()
			retransmitted = true
		}
	}
}

// beginSend draws a send session for transfer sess of msg and, when the
// transfer is reliable, gives it a sender and registers its ack channel
// with the control demux.
func (c *Connection) beginSend(lane sendLane, msg []byte, sess uint32) *sendSession {
	ss := idleSendSessions.Get()
	if c.opts.ErrorControl == errctl.None {
		return ss
	}
	ss.snd = errctl.NewSenderStream(c.opts.ErrorControl, msg, c.opts.SDUSize, c.id, lane.streamID, sess)
	c.mu.Lock()
	if c.waiters == nil {
		c.waiters = make(map[uint32]chan ctrlEvent)
	}
	c.waiters[sess] = ss.ackCh
	c.mu.Unlock()
	return ss
}

// endSend retires the session: deregister, then drain (releasing the
// receive buffers buffered events retained — e.g. a duplicate final ack
// that raced the session's completion), then return every part to its
// free list. See sendSession for why this order makes the channels
// reusable. On a closed (or failed) connection the session is left to
// the collector instead: a put that gave up waiting may still be owed
// its token.
func (c *Connection) endSend(ss *sendSession, sess uint32) {
	if ss.snd != nil {
		c.mu.Lock()
		delete(c.waiters, sess)
		c.mu.Unlock()
		for len(ss.ackCh) > 0 {
			(<-ss.ackCh).release()
		}
		stopTimer(ss.timer)
		errctl.Release(ss.snd)
		ss.snd = nil
	}
	if c.Err() == nil {
		idleSendSessions.Put(ss)
	}
}

// rto is how long a sender waits before presuming loss — the
// retransmission timeout and, answering the same question, the flow
// control admission wait (a wedged grant is then repaired at round-trip
// pace): the configured AckTimeout, or the RTT estimate's when the
// connection adapts.
//
// The fast path deliberately does not adapt, and gives up admission
// after maxCreditWait waits: its waits were always the fixed AckTimeout,
// and the benchmark gate measures what that does to a lossy link
// (adapting takes lossy_echo from ~90 to ~7000 echoes/s and its peak RSS
// past the bound). Honouring AdaptiveTimeout there is its own change.
func (c *Connection) rto() time.Duration {
	if !c.opts.AdaptiveTimeout || c.opts.FastPath {
		return c.opts.AckTimeout
	}
	return c.rtt.timeout(c.opts.AckTimeout, minAdaptiveTimeout)
}

// stopTimer stops t and leaves its channel empty, whichever timer
// channel semantics the binary was built with.
func stopTimer(t *time.Timer) {
	if !t.Stop() {
		select {
		case <-t.C:
		default:
		}
	}
}

func resetTimer(t *time.Timer, d time.Duration) {
	stopTimer(t)
	t.Reset(d)
}

// awaitAck waits for the session's next acknowledgment; acked is false
// when the retransmission timeout passed first. Threaded and sharded
// senders sleep on the channel the control demux deposits on. The fast
// path has no thread reading the control connection, so the sender
// reads it itself: one packet at a time through the same demux, which
// lands this session's acks on the same channel — including those that
// arrived while admit was pumping.
func (c *Connection) awaitAck(ss *sendSession) (ev ctrlEvent, acked bool, err error) {
	if c.opts.FastPath {
		for {
			select {
			case ev = <-ss.ackCh:
				return ev, true, nil
			default:
			}
			if timedOut, err := c.pumpCtrl(c.rto()); timedOut || err != nil {
				return ev, false, err
			}
		}
	}
	resetTimer(ss.timer, c.rto())
	select {
	case ev = <-ss.ackCh:
		return ev, true, nil
	case <-ss.timer.C:
		return ev, false, nil
	case <-c.closedCh:
		return ev, false, ErrConnClosed
	}
}

// pumpCtrl is the fast path's Control Receive Thread, one packet per
// call: it reads the control connection for at most wait and routes
// what arrives. With no thread to observe transport death, it closes
// the connection on any other failure.
func (c *Connection) pumpCtrl(wait time.Duration) (timedOut bool, err error) {
	b, err := c.ctrl.RecvBufTimeout(wait)
	switch {
	case errors.Is(err, transport.ErrRecvTimeout):
		return true, nil
	case err != nil:
		c.Close()
		return false, ErrConnClosed
	}
	c.demuxControl(b)
	b.Release()
	return false, nil
}

// transmit performs the Error-Control → Flow-Control → wire hand-off
// for a batch of SDUs on a send lane: admission and the transmit index
// come from the lane, so a stream whose credit window is exhausted
// blocks only its own sender. When sync is true it returns only once
// the final SDU left the interface. This is the one place sent SDUs are
// counted: c.stats is the only book (conns.go reads it for core.conn.*).
//
// A batch of one SDU — a one-SDU message, a single retransmission — is
// alone: put writes it inline when the wire is free. Larger batches
// queue, and keep the Send Thread's or the shard's coalescing; so do an
// unreliable message's SDUs before its last, batches of one only because
// None segments on the caller's stack.
func (c *Connection) transmit(lane sendLane, sdus []errctl.SDU, sync bool) error {
	// Each retransmission is error control's verdict that one earlier
	// transmission of that sequence was lost; hand the verdict to flow
	// control first, so the credit the loss returns can fund the
	// retransmission itself. (A batch is a sender's Initial, unflagged,
	// or one of its retransmission batches, flagged throughout: errctl's
	// loss simulations check every batch — flaggedThroughout.)
	if len(sdus) > 0 && sdus[0].Header.Flags&packet.FlagRetransmit != 0 {
		flowctl.NoteLoss(lane.fc, len(sdus))
	}
	alone := len(sdus) == 1 && sdus[0].Header.Flags&(packet.FlagEnd|packet.FlagRetransmit) != 0
	wait := c.rto()
	for i, sdu := range sdus {
		if err := c.admit(lane, wait); err != nil {
			return err
		}
		c.stats.sdusSent.Add(1)
		c.stats.bytesSent.Add(uint64(len(sdu.Payload)))
		if sdu.Header.Flags&packet.FlagRetransmit != 0 {
			c.stats.retransmissions.Add(1)
		}
		telemetry.TraceStamp(c.id, sdu.Header.SessionID, telemetry.StageStaged)
		var done chan struct{}
		if sync && i == len(sdus)-1 {
			done = lane.done
		}
		if err := c.put(outItem{c: c, sdu: sdu}, done, alone); err != nil {
			return err
		}
	}
	return nil
}

// maxCreditWait bounds how long a fast-path sender waits for flow
// control admission before giving up, in multiples of AckTimeout.
const maxCreditWait = 10

// admit blocks until the lane's flow control admits its next
// transmission. Threaded and sharded senders sleep in the flow-control
// sender, which the control demux wakes; the fast path polls it,
// pumping the control connection between attempts — so a send that
// exhausts its window delays the other lanes' sends (they serialise on
// fastSendMu) by up to the bounded wait: keep unconsumed fast-path
// streams within their initial credit window.
func (c *Connection) admit(lane sendLane, wait time.Duration) error {
	fc := lane.fc
	idx := lane.tx.Add(1) - 1
	if c.opts.FastPath {
		if fc.TryAcquire(idx) {
			return nil
		}
		// Polling bypasses the Sender's blocking entry points, so the
		// admission wait is reported to flow control's instruments here.
		blockedAt := time.Now()
		defer func() { flowctl.NoteFastPathWait(c.opts.FlowControl, time.Since(blockedAt)) }()
		for attempt := 0; attempt < maxCreditWait; attempt++ {
			timedOut, err := c.pumpCtrl(wait)
			if err != nil {
				return err
			}
			if timedOut {
				if err := c.creditTimeout(lane); err != nil {
					return err
				}
			}
			if fc.TryAcquire(idx) {
				return nil
			}
		}
		return ErrRecvTimeout
	}
	for {
		err := fc.AcquireTimeout(idx, wait)
		if err == nil {
			return nil
		}
		if !errors.Is(err, flowctl.ErrAcquireTimeout) {
			if lane.streamID != 0 {
				if serr := c.streamSendable(lane.streamID); serr != nil {
					return serr
				}
			}
			return ErrConnClosed
		}
		if err := c.creditTimeout(lane); err != nil {
			return err
		}
	}
}

// creditTimeout reacts to a full admission wait that brought no grant.
// On lossy links, dropped data packets consume credits whose grants
// never return: resynchronise, and the caller retries. On a stream lane
// this is also the unconsumed-peer case, recorded as a credit wait —
// and a send toward a peer that closed the stream surfaces
// ErrStreamClosed instead of retrying for ever.
func (c *Connection) creditTimeout(lane sendLane) error {
	if lane.streamID != 0 {
		stream.NoteCreditWait()
		if err := c.streamSendable(lane.streamID); err != nil {
			return err
		}
	}
	lane.fc.Resync()
	return nil
}

// put hands one admitted SDU to the wire. A lone SDU (transmit) leaves
// on the caller's goroutine when the wire is free, and so does every
// fast-path SDU: the fast path has no queue, so it always finds the wire
// free. Otherwise the SDU joins the Send Thread's or the shard's queue —
// and put waits, when done is given, for the token that confirms it left
// the interface. An inline write is finished when it returns: no token.
//
// Having written inline, a sharded sender yields. The write woke the
// peer's reader onto this P's runnext; Gosched runs it at once and moves
// the sender to the global run queue, where an idle P takes it. Without
// the yield, that P finds only a running P's runnext to steal and backs
// off in the Go scheduler's usleep(3) — ≈ 60 µs under Linux's 50 µs
// timer slack: with two callers on two Ps, 3–5 % of rpc_fanin's calls
// took 65–80 µs. No yield follows a fast-path write or a control write
// (emitCtrl): both measured worse with one. Nor a threaded write: there
// the sender's move between Ps after each yield left the runtime's
// per-P sudog caches to refill after every collection, and a 64 B
// reliable echo allocated up to 2.11 times per echo under a forced
// collection every 16th (TestMessagePathAllocationsSurviveTheCollector;
// 2.00–2.01 without it).
func (c *Connection) put(it outItem, done chan struct{}, alone bool) error {
	if alone || c.opts.FastPath {
		if ok, err := c.writeInline(&it); ok {
			if c.sh != nil {
				runtime.Gosched()
			}
			return err
		}
	}
	telemetry.TraceStamp(c.id, it.sdu.Header.SessionID, telemetry.StageQueued)
	it.done = done
	if it.sdu.Header.StreamID != 0 {
		// Stream SDUs take a queue-residency slot so they can never
		// monopolise the outbound queue ahead of stream 0 (see
		// streamSendSlots); released after transmission.
		select {
		case c.streamSlotCh() <- struct{}{}:
			it.streamSlot = true
		case <-c.closedCh:
			return ErrConnClosed
		}
	}
	if !c.enqueueData(it) {
		if it.streamSlot {
			<-c.streamSlotCh()
		}
		return ErrConnClosed
	}
	if done != nil {
		select {
		case <-done:
		case <-c.closedCh:
			// The channel may still receive its token: endSend, seeing
			// the connection closed, will not reuse the session.
			return ErrConnClosed
		}
	}
	return nil
}

// writeInline is the one inline write: the packet leaves on the
// goroutine that made it if its wire is free — nobody is writing that
// transport and nothing is queued for it. The owner is taken before the
// backlog is read, and every queue's writer holds it across its write
// and shrinks the backlog under it, so an inline write never overtakes a
// queued packet. Only the fast path, which has no queue, waits for the
// owner. ok is false when the packet must queue instead.
func (c *Connection) writeInline(it *outItem) (ok bool, err error) {
	w, t := it.wire()
	if c.opts.FastPath {
		w.mu.Lock()
	} else if !w.mu.TryLock() {
		return false, nil
	}
	defer w.mu.Unlock()
	if w.queued.Load() > 0 {
		return false, nil
	}
	if !it.ctrlPath {
		mCoalesceDepth.Observe(1) // a batch of one
	}
	err = t.SendBuf(it.stage()) // consumes the buffer reference
	it.finish()
	if err != nil {
		go c.Close() // the writer may be a thread Close joins, or the shard it waits for
		err = ErrConnClosed
	}
	return true, err
}

// streamSlotCh returns the connection's stream send-slot semaphore,
// built on first use — a connection that never sends on a non-zero
// stream carries none.
func (c *Connection) streamSlotCh() chan struct{} {
	if p := c.streamSlotsP.Load(); p != nil {
		return *p
	}
	ch := make(chan struct{}, streamSendSlots)
	if c.streamSlotsP.CompareAndSwap(nil, &ch) {
		return ch
	}
	return *c.streamSlotsP.Load()
}

// enqueueData hands one data SDU to the connection's queue: the Send
// Thread's (threaded) or the shard's outbound queue (sharded, after
// taking one of the connection's send slots — the same depth bound
// sendQ provides). It reports false when the connection closed; the
// item's stream slot is then still the caller's to release.
func (c *Connection) enqueueData(it outItem) bool {
	if sc := c.sh; sc != nil {
		select {
		case sc.sendSlots <- struct{}{}:
		case <-c.closedCh:
			return false
		}
		mSendQDepth.Observe(int64(len(sc.sendSlots)))
		it.slot = true
		return sc.shard.enqueueOut(it)
	}
	mSendQDepth.Observe(int64(len(c.sendQ)))
	return offer(&c.dataW, c.sendQ, it, true, c.closedCh)
}

func (c *Connection) checkSendSize(msg []byte) error {
	if max := c.data.MaxPacket(); max > 0 && c.opts.SDUSize+packet.DataHeaderSize > max {
		return ErrSendTooLarge
	}
	// The receiver's dense reassembly tracks at most
	// MaxUnreliableSegments, whatever the scheme; a larger message would
	// transmit fully yet never complete on the far side, so refuse it
	// here.
	if _, n := c.unreliableSegments(msg); n > errctl.MaxUnreliableSegments {
		return ErrSendTooLarge
	}
	return nil
}

// sendThread is the per-connection Send Thread: it drains the message
// queue and performs only the data transfer for this connection. It
// drains sendQ opportunistically, coalescing up to sendBatchMax queued
// packets into one vectored transport write — under load, N SDUs share
// a single syscall and its framing cost. (A lone SDU that finds it idle
// never reaches it: writeInline.)
func (c *Connection) sendThread() {
	defer c.wg.Done()
	items := make([]outItem, 0, sendBatchMax)
	batch := make([]*buf.Buffer, 0, sendBatchMax)
	for {
		select {
		case item := <-c.sendQ:
			items = append(items[:0], item)
		drain:
			for len(items) < sendBatchMax {
				select {
				case next := <-c.sendQ:
					items = append(items, next)
				default:
					break drain
				}
			}
			batch = batch[:0]
			for i := range items {
				batch = append(batch, items[i].stage())
			}
			mCoalesceDepth.Observe(int64(len(batch)))
			if err := c.dataW.write(c.data, batch, items); err != nil {
				// The connection is going down; propagate so Send
				// callers see ErrConnClosed via closedCh.
				go c.Close()
				return
			}
		case <-c.closedCh:
			return
		}
	}
}

// ---------------------------------------------------------------------------
// Receive path (steps 5–10 of Figure 4).

// Recv blocks for the next fully received message and returns it as a
// slice the caller owns: RecvMessage, then Message.Bytes.
func (c *Connection) Recv() ([]byte, error) { return owned(c.recv(nil, 0)) }

// owned is what Recv adds to RecvMessage, on every lane: the borrowed
// message becomes a slice the caller keeps, at the price of one copy.
func owned(m Message, err error) ([]byte, error) { return m.Bytes(), err }

// RecvMessage is Recv with loss metadata (relevant for unreliable
// connections) and without Recv's copy: the message is borrowed — the
// caller reads Data, never writes it, and calls Release exactly once
// (or Bytes, to keep the contents).
func (c *Connection) RecvMessage() (Message, error) { return c.recv(nil, 0) }

// RecvTimeout is Recv with a deadline.
func (c *Connection) RecvTimeout(d time.Duration) ([]byte, error) { return owned(c.recv(nil, d)) }

// RecvMessageTimeout is RecvMessage with a deadline — the combination
// media streams need: loss metadata plus a playout deadline for frames
// whose final segment never arrived. The caller releases the message.
func (c *Connection) RecvMessageTimeout(d time.Duration) (Message, error) {
	return c.recv(nil, d)
}

// recv is the body of every message receive: the default lane's
// (st == nil) and each stream's. What differs per lane is only the pop
// — what taking a message tells the producer — and the lifecycle that
// can end the wait; the waiting itself is await's.
func (c *Connection) recv(st *stream.State, d time.Duration) (Message, error) {
	if st == nil {
		return c.await(&c.box, c.box.Bell, nil, func() (Message, bool, error) {
			m, ok := c.box.Pop()
			if ok {
				c.afterRecv()
			}
			return m, ok, nil
		}, d)
	}
	box := st.Box()
	return c.await(box, box.Bell, st.Ready, func() (Message, bool, error) {
		m, ok := st.TryPop()
		// Order matters: pop before the lifecycle check, so messages
		// parked before a remote close drain to the application first.
		if !ok && st.Over() {
			return m, false, ErrStreamClosed
		}
		return m, ok, nil
	}, d)
}

// await is every blocking receive on a connection — a message on any
// lane, a peer-opened stream on the accept queue. The wait loop is
// stream.Await's, over try, which takes what the caller is waiting for
// or reports the error that ends the wait (the lane's lifecycle is
// over). Only the fast path's part is the connection's own: there a
// receiver whose try finds nothing and who can take fastRecvMu becomes
// the pump (fastpath.go) instead of sleeping — want is its own lane's
// mailbox, nil for an acceptor, and ready the pump's stop condition —
// and every other receiver sleeps on the pump hand-off as well.
func (c *Connection) await(want *stream.Mailbox[Message], bell func() <-chan struct{}, ready func() bool,
	try func() (Message, bool, error), d time.Duration) (Message, error) {
	if c.opts.FastPath {
		var deadline time.Time
		if d > 0 {
			deadline = time.Now().Add(d)
		}
		take := try
		try = func() (Message, bool, error) {
			for {
				m, ok, err := take()
				if ok {
					// What is still queued behind this take needs a successor
					// to drain it, if its receiver left while the pump was busy.
					c.pumpRelease()
				}
				if ok || err != nil || !c.fastRecvMu.TryLock() {
					return m, ok, err
				}
				m, ok, err = c.fastPump(want, ready, deadline)
				c.fastRecvMu.Unlock()
				c.pumpRelease()
				if ok || err != nil {
					return m, ok, err
				}
			}
		}
	}
	m, err := stream.Await(bell, c.pumpFree, c.closedCh, d, try) // pumpFree is nil off the fast path
	return m, awaitErr(err, c.closeErr())
}

// awaitErr names, for the caller of a receive, the two ways
// stream.Await ends by itself.
func awaitErr(err, closed error) error {
	switch err {
	case stream.ErrClosed:
		return closed
	case stream.ErrTimeout:
		return ErrRecvTimeout
	}
	return err
}

// atDepth reports that the default lane's producer must not read the
// wire: what it may complete has nowhere to wait — the bound inbox is
// at its depth, else the connection's own mailbox at
// deliveredQueueDepth. (A closed inbox is never at depth: the next
// delivery unbinds it.)
func (c *Connection) atDepth() bool {
	if ib := c.inbox.Load(); ib != nil {
		return ib.box.Len() >= ib.depth && !ib.closed()
	}
	return c.box.Len() >= deliveredQueueDepth
}

// pause is the producer stopping at depth: once per pause it raises
// paused and, if an inbox is what filled, registers for its wake-up.
// Both happen BEFORE the re-check it returns, so a consumer draining
// concurrently either is seen here or sees the flag (afterRecv reads it
// after every pop) or the registration (Inbox.wake).
func (c *Connection) pause() (still bool) {
	if !c.paused.Swap(true) {
		if c.sh != nil {
			mParkedConns.Inc()
		}
		if ib := c.inbox.Load(); ib != nil {
			ib.parked.Put(c, false)
		}
	}
	return c.atDepth()
}

// unpause ends a pause, whoever finds it over: the producer seeing room,
// an inbox waking it, Close.
func (c *Connection) unpause() {
	if c.paused.Load() && c.paused.Swap(false) && c.sh != nil {
		mParkedConns.Dec()
	}
}

// awaitSpace is the Receive Thread's backpressure: it returns once the
// default lane is below depth, false if the connection closed first.
func (c *Connection) awaitSpace() bool {
	for c.atDepth() {
		if c.space == nil {
			c.space = make(chan struct{}, 1)
		}
		if c.pause() {
			select {
			case <-c.space:
			case <-c.closedCh:
				return false
			}
		}
		c.unpause()
	}
	return true
}

// afterRecv runs after every pop from the default lane's mailbox: if
// its producer paused at depth, wake it into the slot just freed.
func (c *Connection) afterRecv() {
	if c.paused.Load() {
		c.resume()
	}
}

// resume wakes the default lane's paused producer — the Receive Thread
// through its bell, a shard by re-queueing the connection.
func (c *Connection) resume() {
	if sc := c.sh; sc != nil {
		sc.shard.requeue(c)
		return
	}
	select {
	case c.space <- struct{}{}:
	default:
	}
}

// BindInbox merges this connection's future deliveries into ib: they
// become InboxMessages on the shared queue instead of landing in the
// connection's own mailbox. Bind before traffic starts (right
// after Connect/Accept); messages already delivered remain readable
// via Recv. Fast-path connections run delivery inline in Recv and
// cannot bind.
func (c *Connection) BindInbox(ib *Inbox) error {
	if c.opts.FastPath {
		return ErrFastPathOnly
	}
	c.inbox.Store(ib)
	return nil
}

// recvThread is the per-connection Receive Thread: it reads the data
// connection into pooled buffers and activates the flow- and
// error-control machinery, while the default lane has room for what
// that may complete.
func (c *Connection) recvThread() {
	defer c.wg.Done()
	for c.awaitSpace() {
		b, err := c.data.RecvBuf()
		if err != nil {
			// The data transport died: the peer tore the connection
			// down (or the local side is closing). Propagate to
			// connection state so blocked senders — e.g. a flow-control
			// admission retrying against a peer that will never grant
			// another credit — observe the teardown instead of spinning
			// forever. Close from a fresh goroutine: Close waits for
			// this thread via wg.Wait.
			go c.Close()
			return
		}
		c.ingest(b, nil)
	}
}

// noteHeard records that the peer is alive — all the liveness sweep
// asks of the packet path. Load-then-store: once the flag is up, a
// packet only reads it, and no clock is involved.
func (c *Connection) noteHeard() {
	if !c.heard.Load() {
		c.heard.Store(true)
	}
}

// ingest is the one receive path: every packet read off the data
// connection — by a Receive Thread, a shard loop or the fast-path pump —
// goes through it, down to the completed message landing in its lane's
// mailbox. It consumes the caller's reference to b; any layer that
// needs a payload view beyond this call (the error-control reassembly,
// a control waiter) retains the buffer. want is nil except from the
// fast-path pump, which names the lane it reads for: a message
// completing there with nothing queued ahead of it is returned instead
// of queued.
func (c *Connection) ingest(b *buf.Buffer, want *stream.Mailbox[Message]) (Message, bool) {
	defer b.Release()
	c.noteHeard()
	h, payload, err := packet.SplitData(b.B)
	if err != nil {
		// In in-band mode the data connection also carries control
		// packets; demultiplex them here (the per-packet cost the
		// separate control connection eliminates).
		if c.opts.InbandControl {
			c.demuxControl(b)
		}
		return Message{}, false
	}
	return c.dispatchData(h, payload, b, want)
}

// dispatchData keeps the receive-side books for one arriving SDU, runs
// it through its lane's flow and error control, and puts the message it
// completes in that lane's mailbox (or hands it to want's reader, see
// ingest). Stream frames route to their stream's own machinery before
// the connection-level flow control ever sees them: stream arrivals
// must not consume stream-0 credits (isolation), and an unconsumed
// stream backs up only its own mailbox, behind its own withheld grants
// — so it cannot stall the shard loop, the receive thread, or stream 0.
// The stream is created on first frame, which is what makes
// CtrlStreamOpen advisory and lets the fast path (whose control
// connection only senders read) accept streams purely from data
// arrivals. payload aliases the pooled receive buffer ref, which the
// caller still owns.
func (c *Connection) dispatchData(h packet.DataHeader, payload []byte, ref *buf.Buffer, want *stream.Mailbox[Message]) (m Message, handed bool) {
	telemetry.TraceStamp(c.id, h.SessionID, telemetry.StageWireIn)
	c.stats.sdusReceived.Add(1)
	c.stats.bytesReceived.Add(uint64(len(payload)))
	var done bool
	if h.StreamID != 0 {
		st := c.mux().Get(h.StreamID)
		m, done, handed = st.OnData(h, payload, ref, c.emitStreamCtrl, want == st.Box())
	} else {
		m, done = c.dispatchLane0(h, payload, ref)
	}
	if !done {
		return Message{}, false
	}
	c.stats.messagesReceived.Add(1)
	telemetry.TraceStamp(c.id, h.SessionID, telemetry.StageReassembled)
	// The trace completes at the delivery hand-off; a parked message
	// would otherwise pin its slot until the consumer drains, starving
	// the sampler.
	telemetry.TraceFinish(c.id, h.SessionID)
	if h.StreamID == 0 {
		handed = !c.deliver0(m, want == &c.box)
	}
	return m, handed
}

// deliver0 is the default lane's last hop: into the bound Inbox's
// mailbox if there is one, else into the lane's own. It reports false
// when the mailbox's direct rule left m with the caller (Mailbox.Put).
func (c *Connection) deliver0(m Message, direct bool) (queued bool) {
	if ib := c.inbox.Load(); ib != nil {
		if ib.put(c, m) {
			return true
		}
		// The inbox closed under a live connection: unbind and fall back
		// to the connection's own mailbox.
		c.inbox.CompareAndSwap(ib, nil)
	}
	return c.box.Put(m, direct)
}

// dispatchLane0 is the default lane's receive side. Every control
// packet's body is the scratch of the state machine that produced it,
// borrowed until emitCtrl — which serialises before it returns, on
// every runtime — has taken it.
func (c *Connection) dispatchLane0(h packet.DataHeader, payload []byte, ref *buf.Buffer) (Message, bool) {
	// Step 8–9: the Flow Control Thread updates its state and returns
	// credit/ack information over the control connection. Flow control
	// sees the connection-lifetime arrival index, not the per-session
	// SDU sequence number.
	rxIdx := c.rxCounter.Add(1) - 1
	for _, ctl := range c.flowRecv().OnData(rxIdx) {
		ctl.ConnID = c.id
		ctl.SessionID = h.SessionID
		if !c.emitCtrl(ctl) {
			return Message{}, false
		}
	}

	// Step 10: the Error Control Thread reassembles and acknowledges.
	acks, d, done := c.inbound.OnData(h, payload, ref)
	for _, a := range acks {
		a.ConnID = c.id
		a.SessionID = h.SessionID
		if !c.emitCtrl(a) {
			d.Release() // closed under a completed message
			return Message{}, false
		}
	}
	if len(acks) > 0 {
		// Piggyback the credit state on the ack burst: the consumed-count
		// refresh retires the peer's in-flight and feeds its congestion
		// controller without a dedicated control packet. Non-credit
		// receivers decline and cost one predicted branch.
		if g, ok := flowctl.Piggyback(c.flowRecv()); ok {
			g.ConnID = c.id
			g.SessionID = h.SessionID
			if !c.emitCtrl(g) {
				d.Release()
				return Message{}, false
			}
		}
	}
	return d, done
}

// emitCtrl sends one control packet: inline (writeInline) when its wire
// is free, else on the path the connection's runtime owns — the Control
// Send Thread's queue (in in-band mode the Send Thread's, where it
// competes with data) or the shard's outbound queue. It serialises the
// packet into a pooled buffer BEFORE it returns, on every runtime, which
// is what lets error and flow control lend it bodies that live in their
// scratch; the queues carry that buffer, not the packet. Safe from any
// goroutine. It reports false when the connection closed.
func (c *Connection) emitCtrl(ctl packet.Control) bool {
	sb := buf.GetCap(packet.ControlHeaderSize + len(ctl.Body))
	sb.B = ctl.Marshal(sb.B)
	it := outItem{c: c, ctrl: sb, ctrlPath: c.opts.FastPath || !c.opts.InbandControl}
	// A ping neither goes inline nor waits for queue room: the liveness
	// sweep that sends it must not block on one connection, and a full
	// control queue is control traffic in flight — the verdict reads what
	// was heard, not what was sent. The acks and grants a shard emits
	// while it serves the connection ride its flush, coalesced with the
	// rest of its cycle (its outbound queue never makes anyone wait).
	// The fast path has no queue and no sweep: everything goes inline.
	wait := ctl.Type != packet.CtrlPing
	if c.opts.FastPath || wait && (c.sh == nil || !c.sh.serving.Load()) {
		if ok, err := c.writeInline(&it); ok {
			return err == nil
		}
	}
	var queued bool
	switch {
	case c.sh != nil:
		// Control packets are bounded by the inbound budget that produced
		// them, so they take no slot.
		queued = c.sh.shard.enqueueOut(it)
	case it.ctrlPath:
		queued = offer(&c.ctrlW, c.ctrlQ, sb, wait, c.closedCh)
	default:
		queued = offer(&c.dataW, c.sendQ, it, wait, c.closedCh)
	}
	if !queued {
		sb.Release()
		return false
	}
	select {
	case <-c.closedCh:
		// Both select arms above were ready, and Close may already have
		// swept the queues: sweep again, so that the buffer just queued
		// cannot be stranded behind threads that have exited.
		c.drainCtrl()
	default:
	}
	return true
}

// offer queues v for w if q has room; if it has none and wait is set, it
// waits for room or for closed. It reports whether v was queued, and
// counts it in w's backlog from before it can be seen in q until the
// writer that dequeues it has written it.
func offer[T any](w *wire, q chan<- T, v T, wait bool, closed <-chan struct{}) bool {
	w.queued.Add(1)
	select {
	case q <- v:
		return true
	default:
	}
	if wait {
		select {
		case q <- v:
			return true
		case <-closed:
		}
	}
	w.queued.Add(-1)
	return false
}

// drainCtrl releases the marshalled control packets still queued on a
// threaded connection that closed; nothing will send them.
func (c *Connection) drainCtrl() {
	for {
		select {
		case sb := <-c.ctrlQ:
			sb.Release()
		case it := <-c.sendQ:
			if it.ctrl != nil {
				it.ctrl.Release()
			}
		default:
			return
		}
	}
}

// ctrlSendThread serialises control packets onto the control connection
// (the Control Send Thread of Figure 1).
func (c *Connection) ctrlSendThread() {
	defer c.wg.Done()
	for {
		select {
		case sb := <-c.ctrlQ:
			c.stats.controlSent.Add(1)
			c.ctrlW.mu.Lock()
			err := c.ctrl.SendBuf(sb)
			c.ctrlW.queued.Add(-1)
			c.ctrlW.mu.Unlock()
			if err != nil {
				go c.Close()
				return
			}
		case <-c.closedCh:
			return
		}
	}
}

// ctrlRecvThread reads the control connection and dispatches: flow
// control updates go to the Flow Control machinery, acknowledgments to
// the waiting Error Control session (the Control Receive Thread).
func (c *Connection) ctrlRecvThread() {
	defer c.wg.Done()
	for {
		b, err := c.ctrl.RecvBuf()
		if err != nil {
			// Control transport death is connection death: propagate,
			// as the Receive Thread does for the data connection.
			go c.Close()
			return
		}
		c.demuxControl(b)
		b.Release()
	}
}

// demuxControl parses and routes one control packet out of the pooled
// receive buffer b. The body stays aliased to b throughout: routing
// either consumes it synchronously on this goroutine (credits, rate
// and window updates, pings) or hands the waiting sender a retained
// reference (buf.Handoff) alongside the event. This is the single
// demultiplex point shared by the control-path receive loop and the
// in-band data-path receive loop, which used to duplicate a defensive
// body copy here.
func (c *Connection) demuxControl(b *buf.Buffer) {
	ctl, err := packet.UnmarshalControl(b.B)
	if err != nil {
		return
	}
	c.routeControl(ctl, b)
}

// routeControl dispatches a parsed control packet whose body aliases
// the pooled buffer ref (nil when the body has heap lifetime). The
// caller keeps its reference to ref; routeControl retains it only for
// events that cross to another goroutine.
func (c *Connection) routeControl(ctl packet.Control, ref *buf.Buffer) {
	c.stats.controlReceived.Add(1)
	c.noteHeard()
	switch ctl.Type {
	case packet.CtrlPing:
		c.emitCtrl(packet.Control{Type: packet.CtrlPong, ConnID: c.id})
	case packet.CtrlPong:
		// Heard, like everything else; nothing more to do.
	case packet.CtrlCredit, packet.CtrlCreditGrant, packet.CtrlRate, packet.CtrlWinAck:
		c.flowSend().OnControl(ctl)
	case packet.CtrlStreamGrant, packet.CtrlStreamOpen, packet.CtrlStreamClose:
		c.routeStreamCtrl(ctl)
	case packet.CtrlAck, packet.CtrlNack:
		// The deposit stays under c.mu so a completing sender can
		// delete its waiter and then drain the channel without racing a
		// late deposit (the channel is buffered; the send never blocks).
		c.mu.Lock()
		if w := c.waiters[ctl.SessionID]; w != nil {
			ev := ctrlEvent{ctl: ctl}
			if ref != nil {
				ev.ref = ref.Handoff()
			}
			select {
			case w <- ev:
			default:
				// The session is busy processing a previous ack; dropping
				// this one is safe — the sender's timer recovers.
				ev.release()
			}
		}
		c.mu.Unlock()
	}
}

// ---------------------------------------------------------------------------

// ImpairData applies programmable impairments to this side's data
// transport mid-run (see transport.Impair): packets sent from here are
// impaired from the next one onward. It reports false when the data
// transport has no simulated link (SCI).
func (c *Connection) ImpairData(imp netsim.Impairments) bool {
	return transport.Impair(c.data, imp)
}

// Close tears the connection down: both transport connections, the flow
// control state, and all four per-connection threads. Inbound sessions
// still incomplete at teardown are abandoned so the pooled receive
// buffers they retained return to their pools (reapInbound).
func (c *Connection) Close() error {
	c.closeOnce.Do(func() {
		close(c.closedCh)
		c.sys.untrack(c)
		// Serialise against the lazy flow-control constructors: after
		// closedCh is closed and this section ran, any sender/receiver
		// that exists — or is built later — has been Closed (the
		// constructors self-close when they observe closedCh).
		c.mu.Lock()
		fcs := c.fcSend.Load()
		fcr := c.fcRecv.Load()
		c.mu.Unlock()
		if fcs != nil {
			(*fcs).Close()
		}
		if fcr != nil {
			(*fcr).Close()
		}
		c.data.Close()
		c.ctrl.Close()
		c.wg.Wait()
		c.drainCtrl()
		if sc := c.sh; sc != nil {
			// Pumps have exited (wg). Deregister and barrier against
			// the cycle that may still be dispatching our packets; the
			// closed transports guarantee no new ones can surface. Then
			// drain the pump channels' pooled buffers and reap.
			sc.shard.unregister(c)
			sc.drainInbound()
		}
		if !c.opts.FastPath {
			// The receive threads have exited, a shard services the
			// connection no more: nothing touches the session table
			// concurrently.
			c.reapInbound()
			return
		}
		// No threads to join; a fast-path Recv may still be inside the
		// session machinery (possibly the very caller running this Close
		// after a transport error). Reap from a fresh goroutine once the
		// receive procedure lock frees — the closed transports unblock it
		// promptly.
		go func() {
			c.fastRecvMu.Lock()
			defer c.fastRecvMu.Unlock()
			c.reapInbound()
		}()
	})
	return nil
}

// reapInbound ends Close, once nothing produces into the connection's
// lanes any more: incomplete sessions release the buffers they retained,
// what is still queued on the default lane — readable after Close,
// perhaps never read — is owned in place, and every stream is reaped
// (releasing its retained buffers and parked messages, draining its
// credit timers), so a closed connection pins no pooled buffer. The mux
// is loaded under c.mu so this serialises with a racing mux():
// whichever side runs second observes the other's work. What the
// connection's own threads counted after it left the registry settles
// into the process's books here.
func (c *Connection) reapInbound() {
	c.settle()
	if ib := c.inbox.Load(); ib != nil && c.paused.Load() {
		// Closed while parked on a full inbox: nobody may ever read it, so
		// do not wait for a Recv to drop the reference. The live producers
		// woken with it park again if the inbox is still full.
		ib.wake()
	}
	c.unpause() // closed while paused: the gauge would keep counting it
	c.inbound.Reap()
	c.box.Each(func(m *Message) { m.Bytes() })
	c.mu.Lock()
	m := c.muxp.Load()
	c.mu.Unlock()
	if m != nil {
		m.ReapAll()
	}
}
