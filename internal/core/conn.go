package core

import (
	"cmp"
	"context"
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
// producer stops reading the data connection — whoever pumps the data
// wire leaves it, a shard pauses the connection's data path — which is
// the natural backpressure toward the peer.
const deliveredQueueDepth = 128

// streamSendSlots bounds how many data SDUs from non-zero streams may
// sit in a connection's data wire queue at once. The queue is FIFO:
// without the bound, a bulk stream keeps it full of its own SDUs and
// every stream-0 frame (RPC calls, latency-sensitive sends) waits behind
// a whole credit window of bulk before reaching the wire. With it, a
// stream-0 SDU finds at most streamSendSlots stream SDUs ahead of
// itself, while bulk still batches deep enough to keep the wire busy.
// Slots are a single pool across all non-zero streams — they bound
// total queue residency, and the channel semaphore's FIFO hand-off keeps
// concurrent streams interleaving fairly.
const streamSendSlots = 8

// sendQueueDepth bounds each wire's queue: the packets pushed for it and
// not yet taken by its owner. Deep enough that a multi-SDU transfer
// stages a whole credit window before its sender hands it to the wire,
// which is what gives the owner batches to coalesce; a producer that
// finds it full takes the owner and drains it itself.
const sendQueueDepth = 64

// sendBatchMax bounds how many queued packets the owner coalesces into
// one vectored transport write.
const sendBatchMax = 16

// Message is a received user message. Lost reports SDUs missing from an
// unreliable (ErrorControl: None) transfer; it is always zero on
// reliable connections. One returned by RecvMessage*, a stream's or an
// Inbox's is borrowed (errctl.Delivery has the rule): Data is read-only,
// and the holder calls Release exactly once, or Bytes to own it.
type Message = errctl.Delivery

// outItem is one packet queued for a wire: a data SDU, or a control
// packet (already marshalled; the item owns the reference).
type outItem struct {
	sdu        errctl.SDU
	ctrl       *buf.Buffer // non-nil: a control packet, not an SDU
	streamSlot bool        // holds one of the connection's stream send slots
}

// wire is one transport as its writers share it: a bounded FIFO of the
// packets pushed for it, and its owner. Whoever holds the owner drains
// the queue — writes everything in it, in order — and nobody else
// writes the transport (flush, writeInline), so a packet never
// overtakes one pushed before it, whichever goroutine pushed either.
type wire struct {
	mu sync.Mutex               // the owner
	q  atomic.Pointer[outQueue] // built by the first push (queue)
}

// outQueue is a wire's queue and its owner's scratch: items is guarded
// by mu, and n mirrors its length for the owner's re-check (flush);
// taken and bufs belong to whoever holds the wire's owner.
type outQueue struct {
	mu    sync.Mutex
	n     atomic.Int32
	items []outItem     // pushed, not yet taken; at most sendQueueDepth
	taken []outItem     // the owner's: the batch it took, swapped back empty
	bufs  []*buf.Buffer // the owner's: one write's staged packets
}

// queue returns w's queue, building it on first use — a connection
// that never sends on a wire carries none.
func (w *wire) queue() *outQueue {
	if q := w.q.Load(); q != nil {
		return q
	}
	w.q.CompareAndSwap(nil, new(outQueue))
	return w.q.Load()
}

// push appends it to w's queue and returns how many packets the queue
// holds with it. A full queue makes a producer with wait set take the
// owner and drain it (flush) before trying again; one without — a
// ping — is refused. It returns 0, the item still the caller's, when
// refused or when the connection closed. A pushed SDU is stamped Queued
// and its queue depth observed.
func (c *Connection) push(w *wire, t transport.Conn, it outItem, wait bool) int {
	q := w.queue()
	for {
		q.mu.Lock()
		select {
		case <-c.closedCh:
			q.mu.Unlock()
			return 0
		default:
		}
		if n := len(q.items); n < sendQueueDepth {
			if it.ctrl == nil {
				telemetry.TraceStamp(c.id, it.sdu.Header.SessionID, telemetry.StageQueued)
				mSendQDepth.Observe(int64(n))
			}
			q.items = append(q.items, it)
			q.n.Store(int32(n + 1))
			q.mu.Unlock()
			return n + 1
		}
		q.mu.Unlock()
		if !wait || c.flush(w, t, true) != nil {
			return 0
		}
	}
}

// flush hands what is queued on w to its transport: it takes the owner —
// waiting for it when wait is set, else only if it is free — takes the
// whole queue and writes it (drain); then, having released the owner,
// takes it again if the queue refilled meanwhile. A producer whose try
// finds the owner held can therefore leave: it pushed before its try
// failed, so the holder's re-check — or its successor's — sees what it
// pushed; one whose try finds the queue empty can too, for only a
// holder's take empties it. A synchronous caller (wait) returns only
// once every packet it pushed before the call has been written. A
// failed write closes the connection.
func (c *Connection) flush(w *wire, t transport.Conn, wait bool) error {
	q := w.q.Load()
	if q == nil {
		return nil // nothing was ever pushed
	}
	for {
		if wait {
			w.mu.Lock()
			wait = false
		} else if q.n.Load() == 0 || !w.mu.TryLock() {
			return nil // taken by a holder, who writes it, or left to its re-check
		}
		q.mu.Lock()
		all := q.items
		q.items, q.taken = q.taken[:0], nil
		q.n.Store(0)
		q.mu.Unlock()
		err := c.drain(q, t, w == &c.dataW, all)
		clear(all)
		q.taken = all[:0]
		w.mu.Unlock()
		if err != nil {
			go c.Close() // the writer may be a loop Close joins, or hold a pump token Close takes
			return ErrConnClosed
		}
	}
}

// writeInline is a lone packet's way to the wire when the wire is free:
// a producer that takes the owner with nothing queued writes the packet
// itself, as the head of the empty queue — the write a push and a flush
// would make, without the push and the take. ok is false when the owner
// is held or packets are queued: the producer pushes instead. Like any
// holder, it drains what was pushed while it held the owner.
func (c *Connection) writeInline(w *wire, t transport.Conn, it outItem) (ok bool, err error) {
	q := w.queue()
	if !w.mu.TryLock() {
		return false, nil
	}
	if q.n.Load() != 0 {
		w.mu.Unlock()
		return false, nil
	}
	one := [1]outItem{it}
	err = c.drain(q, t, w == &c.dataW, one[:])
	w.mu.Unlock()
	if err != nil {
		go c.Close()
		return true, ErrConnClosed
	}
	return true, c.flush(w, t, false)
}

// drain is the one write: with its wire's owner held, it writes items in
// order, at most sendBatchMax packets per vectored write. Each SDU is
// serialised into a pooled buffer (stage) — the one copy of the payload,
// after which the caller's message is no longer referenced — and
// stamped WireOut before the write starts.
func (c *Connection) drain(q *outQueue, t transport.Conn, data bool, items []outItem) (err error) {
	for len(items) > 0 && err == nil {
		batch := items[:min(len(items), sendBatchMax)]
		items = items[len(batch):]
		bufs := q.bufs[:0]
		for i := range batch {
			bufs = append(bufs, c.stage(&batch[i]))
		}
		for i := range batch {
			if batch[i].ctrl == nil {
				telemetry.TraceStamp(c.id, batch[i].sdu.Header.SessionID, telemetry.StageWireOut)
			}
		}
		if data {
			mCoalesceDepth.Observe(int64(len(bufs)))
		}
		if len(bufs) == 1 {
			err = t.SendBuf(bufs[0]) // consumes the buffer reference
		} else {
			err = t.SendBatch(bufs) // consumes the buffer references
		}
		clear(bufs)
		q.bufs = bufs[:0]
	}
	releaseItems(items) // what a failed write left unstaged
	return err
}

// stage returns the marshalled packet to write: the control packet as
// queued, or the SDU serialised into a pooled buffer. Its writer picked
// it up (Dequeued), and it leaves the queue: a stream SDU gives its
// slot back.
func (c *Connection) stage(it *outItem) *buf.Buffer {
	if it.ctrl != nil {
		c.stats.controlSent.Add(1)
		return it.ctrl
	}
	if it.streamSlot {
		<-c.streamSlotCh()
	}
	telemetry.TraceStamp(c.id, it.sdu.Header.SessionID, telemetry.StageDequeued)
	sb := buf.GetCap(packet.DataHeaderSize + len(it.sdu.Payload))
	sb.B = packet.AppendSDU(sb.B, it.sdu.Header, it.sdu.Payload)
	return sb
}

// releaseItems drops the control packets among items, which nothing
// will write.
func releaseItems(items []outItem) {
	for i := range items {
		if items[i].ctrl != nil {
			items[i].ctrl.Release()
		}
	}
}

// close empties w's queue for good once the connection closed: push
// refuses from then on, so nothing can be stranded behind it.
func (w *wire) close() {
	if q := w.q.Load(); q != nil {
		q.mu.Lock()
		releaseItems(q.items)
		q.items = nil
		q.n.Store(0)
		q.mu.Unlock()
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

// sendSession is what one reliable Send needs beyond the message: the
// error-control sender, the channel the connection's control demux
// deposits its acknowledgments on, and the sender's waiter, which every
// deposit rings. Sessions recycle through idleSendSessions — channel and
// waiter are built once and survive, the sender is drawn from errctl's
// own free list per transfer — so a steady stream of sends allocates
// nothing. What makes ackCh safe to reuse is endSend's order: deposits
// happen under c.mu against the waiter table, so once the session id is
// deleted no event can land, and the drain that follows leaves the
// channel empty. An ack for an older session finds no waiter under its
// id and is discarded, whoever holds the channel now.
type sendSession struct {
	snd errctl.Sender
	// ackCh holds the acks that arrive while Send is busy retransmitting;
	// one that finds it full is dropped and the timer recovers.
	ackCh chan ctrlEvent
	wt    *waiter
}

// idleSendSessions keeps up to 256 idle send sessions — one serves one
// Send at a time, so 256 concurrent senders; further ones build their
// own and leave them to the collector. Budget: a session is its ack
// channel (4 events × 64 B) and a waiter, ≈ 0.6 KB — 256 ≈ 150 KB.
var idleSendSessions = buf.NewFreeList(256, func() *sendSession {
	return &sendSession{ackCh: make(chan ctrlEvent, 4), wt: newWaiter()}
})

// Connection is one NCS point-to-point connection: a data connection
// and a control connection, the per-connection receive threads of
// Figure 4 as a shard's loop, its pump of last resort (pump.go; its send
// side is procedures: flush), and the flow/error control configuration
// chosen at establishment.
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

	// box is the default lane's receive end — the same mailbox every
	// stream has. Its producer holds it to deliveredQueueDepth (or, bound
	// to an inbox, holds that to its depth — atDepth): there it raises
	// paused and stops reading the data connection, and the pop that frees
	// a slot wakes it (afterRecv, Inbox.wake).
	box stream.Mailbox[Message]

	// mu guards the lazy constructors and the waiter table, nil until
	// the first outbound reliable send.
	mu      sync.Mutex
	waiters map[uint32]*sendSession

	// inbound is the default lane's reassembly session table (streams
	// carry their own); it allocates on the first inbound session.
	inbound errctl.SessionTable

	nextSession atomic.Uint32

	// txCounter and rxCounter are connection-lifetime packet indices fed
	// to flow control, so that window/credit state spans sessions even
	// though SDU sequence numbers restart per message.
	txCounter atomic.Uint32
	rxCounter atomic.Uint32

	paused  atomic.Bool // the default lane's producer stopped at depth (see box)
	queued  atomic.Bool // on its shard's ready list
	serving atomic.Bool // its shard's loop is pumping it: what it emits waits for the cycle's flush (emitCtrl)

	// The data and control transports as their writers share them
	// (flush), and as their readers do (pump.go: wireData, wireCtrl).
	// In-band control rides the data wire both ways.
	dataW, ctrlW wire
	in           [2]*inWire // built with the connection

	// The goroutines waiting on the connection, newest first — each reads
	// its wires when rung (pump.go) — and how many of them are blind.
	waitMu  sync.Mutex
	waiting *waiter
	blind   atomic.Int32

	// Stream multiplexing state (see internal/stream). The mux is lazy:
	// a connection that never opens a stream carries none, and stream 0
	// — the default channel — never touches it. initiator fixes stream
	// id parity (dialer odd, acceptor even).
	muxp atomic.Pointer[stream.Mux]

	// streamSlots is the counting semaphore behind streamSendSlots,
	// shared by every non-zero stream's queued data SDUs. Lazy: built
	// by streamSlotCh on a connection's first stream send.
	streamSlotsP atomic.Pointer[chan struct{}]

	// sh is the connection's pump of last resort: a private shard, or one
	// of the System's pool. inbox, when bound, merges this connection's
	// deliveries into a shared queue.
	sh    *shard
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
	// Whoever waits on a wire reads it; the runtimes differ in its pump of
	// last resort (pump.go), a shard's loop (shard.go): one of the System's
	// pool — a sharded or fast-path connection's — else a private one that
	// serves this connection alone and stops with it (Close's barrier is
	// c.wg). In-band control (the ablation of §2's split planes) rides the
	// data wire, whose reader demultiplexes it.
	if opts.FastPath || opts.Runtime == RuntimeSharded {
		c.attachShard(sys.shardFor(id))
	} else {
		sh := newShard(int(id), c.closedCh, &c.wg)
		c.wg.Add(1)
		go sh.loop()
		c.attachShard(sh)
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
	// A credit receiver's refill-retry timer re-advertises a possibly-lost
	// grant through this emitter.
	flowctl.SetEmitter(fr, c.emitStamped)
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

// closeErr maps connection shutdown to the caller-visible error.
func (c *Connection) closeErr() error {
	if c.failed.Load() {
		return ErrPeerUnreachable
	}
	return ErrConnClosed
}

// Done returns a channel closed when the connection has shut down —
// locally via Close or remotely via a heartbeat-declared peer failure.
// Layers above the core (application select loops) use it to observe
// connection state without polling.
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
}

// lane0 is the connection's default (stream 0) send lane.
func (c *Connection) lane0() sendLane {
	return sendLane{fc: c.flowSend(), tx: &c.txCounter}
}

// send is the one send engine: every Send, on every lane and every
// runtime, is this procedure — §4.2's point that the threads "can be
// replaced by procedures" means flow control, error control and the
// data transfer are the same steps whoever runs them. A sender waits on
// the control wire for its acknowledgments and grants and reads them
// itself (awaitCtrl); every packet reaches the wire the same way: pushed
// onto its wire's queue, written by whoever holds the wire's owner
// (flush). Sends on different lanes, or on one, may run concurrently on
// every runtime.
func (c *Connection) send(lane sendLane, msg []byte) error {
	if err := c.checkSendSize(msg); err != nil {
		return err
	}
	defer c.settle() // everything a Send counts, it counts before it returns
	sess := c.nextSession.Add(1)
	telemetry.TraceStart(c.id, sess, len(msg))

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

	ss := c.beginSend(lane, msg, sess)
	defer c.endSend(ss, sess)
	if err := c.transmit(lane, ss.snd.Initial(), false); err != nil {
		return err
	}
	lastSend := time.Now()
	retransmitted := false // Karn's rule: skip samples after a retransmit
	for {
		ev, acked, err := c.awaitCtrl(ss.wt, ss.ackCh, nil, c.rto())
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
			// async duplicate still sits in the wire's queue. Waiting for
			// the wire's owner until they are written — staging copies
			// each payload into its own buffer — keeps every queued alias
			// inside Send's lifetime. The original window needs no such
			// barrier: an ack proves its SDUs were already staged and
			// written.
			if err := c.transmit(lane, rt, true); err != nil {
				return err
			}
			lastSend = time.Now()
			retransmitted = true
		}
	}
}

// beginSend draws a send session for reliable transfer sess of msg,
// gives it a sender and registers its ack channel with the control
// demux.
func (c *Connection) beginSend(lane sendLane, msg []byte, sess uint32) *sendSession {
	ss := idleSendSessions.Get()
	ss.snd = errctl.NewSenderStream(c.opts.ErrorControl, msg, c.opts.SDUSize, c.id, lane.streamID, sess)
	c.mu.Lock()
	if c.waiters == nil {
		c.waiters = make(map[uint32]*sendSession)
	}
	c.waiters[sess] = ss
	c.mu.Unlock()
	return ss
}

// endSend retires the session: deregister, then drain (releasing the
// receive buffers buffered events retained — e.g. a duplicate final ack
// that raced the session's completion), then return every part to its
// free list. See sendSession for why this order makes the channel
// reusable.
func (c *Connection) endSend(ss *sendSession, sess uint32) {
	c.mu.Lock()
	delete(c.waiters, sess)
	c.mu.Unlock()
	for len(ss.ackCh) > 0 {
		(<-ss.ackCh).release()
	}
	errctl.Release(ss.snd)
	ss.snd = nil
	idleSendSessions.Put(ss)
}

// rto is how long a sender waits before presuming loss — the
// retransmission timeout and, answering the same question, the flow
// control admission wait (a wedged grant is then repaired at round-trip
// pace): the configured AckTimeout, or the RTT estimate's when the
// connection adapts.
//
// The fast path deliberately does not adapt, and gives up admission
// after maxCreditWait waits (admit): its waits were always the fixed
// AckTimeout, and the benchmark gate measures what that does to a lossy link
// (adapting takes lossy_echo from ~90 to ~7000 echoes/s and its peak RSS
// past the bound). Honouring AdaptiveTimeout there is its own change.
func (c *Connection) rto() time.Duration {
	if !c.opts.AdaptiveTimeout || c.opts.FastPath {
		return c.opts.AckTimeout
	}
	return c.rtt.timeout(c.opts.AckTimeout, minAdaptiveTimeout)
}

// transmit performs the Error-Control → Flow-Control → wire hand-off
// for a batch of SDUs on a send lane: admission and the transmit index
// come from the lane, so a stream whose credit window is exhausted
// blocks only its own sender. A lone SDU — a one-SDU message, a single
// retransmission, an unreliable message's last SDU — is written by its
// sender when the wire is free (writeInline). Otherwise each admitted
// SDU is pushed onto the data wire's queue, and at the end of the batch
// the sender hands the queue to the wire (flush) — when sync is true
// waiting for the owner, so that it returns only once its SDUs left the
// interface. An unreliable message's SDUs before its last are batches of
// one only because None segments on the caller's stack: they stay
// queued for the last one's flush. This is the one place sent SDUs are
// counted: c.stats is the only book (conns.go reads it for core.conn.*).
//
// Having written a lone SDU of an unreliable message inline, a sender on
// the sharded runtime yields. The write woke the peer's reader onto
// this P's runnext; Gosched runs it at once and moves the sender to the
// global run queue, where an idle P takes it. Without the yield, that P finds only a
// running P's runnext to steal and backs off in the Go scheduler's
// usleep(3) — ≈ 60 µs under Linux's 50 µs timer slack: with two callers
// on two Ps, 3–5 % of rpc_fanin's calls took 65–80 µs. A reliable sender
// does not yield: it parks for its acknowledgment next, which hands the
// P to the reader as well, and a yield would let the acknowledgment
// arrive while nobody waits, ringing the shard's loop instead of the
// sender. No yield follows a control write (emitCtrl): it measured
// worse with one. Nor a threaded write, though
// its connection has a shard too, a private one: there the sender's move
// between Ps after each yield left the runtime's per-P sudog caches to
// refill after every collection, and a 64 B reliable echo allocated up
// to 2.11 times per echo under a forced collection every 16th
// (TestMessagePathAllocationsSurviveTheCollector; 2.00–2.01 without it),
// and an unreliable one-way send took 3.2–6.2 µs instead of 2.2–3.9
// (BenchmarkAllocCreditSend and StreamSend, -cpu 1,2 on 2 CPUs). A
// fast-path connection is on the pool whatever Options.Runtime says, and
// never yields: with the yield, a 4 KB fast-path echo took 9.6 µs
// instead of 8.1–8.4 at -cpu 2 (BenchmarkAllocHPIFastpathEcho, medians
// of 10 alternating runs on 2 CPUs).
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
	for _, sdu := range sdus {
		if err := c.admit(lane, wait); err != nil {
			return err
		}
		c.stats.sdusSent.Add(1)
		c.stats.bytesSent.Add(uint64(len(sdu.Payload)))
		if sdu.Header.Flags&packet.FlagRetransmit != 0 {
			c.stats.retransmissions.Add(1)
		}
		telemetry.TraceStamp(c.id, sdu.Header.SessionID, telemetry.StageStaged)
		if alone {
			if ok, err := c.writeInline(&c.dataW, c.data, outItem{sdu: sdu}); ok {
				if err == nil && c.opts.Runtime == RuntimeSharded && !c.opts.FastPath && c.opts.ErrorControl == errctl.None {
					runtime.Gosched()
				}
				return err
			}
		}
		if err := c.put(outItem{sdu: sdu}); err != nil {
			return err
		}
	}
	if !sync && sdus[len(sdus)-1].Header.Flags&packet.FlagEnd == 0 {
		return nil
	}
	return c.flush(&c.dataW, c.data, sync)
}

// maxCreditWait bounds how long a fast-path sender waits for flow
// control admission before giving up, in multiples of AckTimeout.
const maxCreditWait = 10

// admit returns once the lane's flow control admits its next
// transmission. A sender about to wait first hands what it queued to the
// wire: the grants it waits for answer those SDUs. It then waits on the
// control wire (awaitCtrl), reading the grants itself while nobody else
// does, in waits of up to wait — however many other control packets
// arrive — after each of which without an admission it resynchronises
// flow control (creditTimeout). A rate sender's wait ends early when
// time alone refills its bucket. The fast path gives up after
// maxCreditWait waits: keep its unconsumed streams within their initial
// credit window.
func (c *Connection) admit(lane sendLane, wait time.Duration) error {
	fc := lane.fc
	idx := lane.tx.Add(1) - 1
	if fc.TryAcquire(idx) {
		return nil
	}
	if err := c.flush(&c.dataW, c.data, false); err != nil {
		return err
	}
	blockedAt := time.Now()
	defer func() { flowctl.NoteWait(c.opts.FlowControl, time.Since(blockedAt)) }()
	wt := idleWaiters.Get()
	defer idleWaiters.Put(wt)
	// Admitted — or the stream closed, which ends the wait too.
	admitted := func() bool { return fc.TryAcquire(idx) || c.streamSendable(lane.streamID) != nil }
	for attempt := 1; ; attempt++ {
		for end := time.Now().Add(wait); time.Now().Before(end); {
			d := time.Until(end)
			if r := flowctl.Refill(fc); r > 0 {
				d = min(d, r)
			}
			if _, ok, err := c.awaitCtrl(wt, nil, admitted, d); ok || err != nil {
				return cmp.Or(err, c.streamSendable(lane.streamID))
			}
		}
		if err := c.creditTimeout(lane); err != nil || fc.TryAcquire(idx) {
			return err
		}
		if c.opts.FastPath && attempt == maxCreditWait {
			return ErrRecvTimeout
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

// put pushes one admitted SDU onto the data wire's queue, and hands the
// queue to the wire once it holds a whole vectored write. A stream SDU
// first takes a queue-residency slot, so that streams can never
// monopolise the queue ahead of stream 0 (see streamSendSlots); the
// drain gives it back. A sender about to wait for a slot first hands
// what it queued to the wire: the slots it waits for may be its own.
func (c *Connection) put(it outItem) error {
	if it.sdu.Header.StreamID != 0 {
		slots := c.streamSlotCh()
		select {
		case slots <- struct{}{}:
		default:
			if err := c.flush(&c.dataW, c.data, false); err != nil {
				return err
			}
			select {
			case slots <- struct{}{}:
			case <-c.closedCh:
				return ErrConnClosed
			}
		}
		it.streamSlot = true
	}
	n := c.push(&c.dataW, c.data, it, true)
	if n == 0 {
		if it.streamSlot {
			<-c.streamSlotCh()
		}
		return ErrConnClosed
	}
	if n%sendBatchMax == 0 {
		// A whole vectored write is queued: it leaves now, so the peer
		// starts on it while the rest of the batch is admitted.
		return c.flush(&c.dataW, c.data, false)
	}
	return nil
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

// ---------------------------------------------------------------------------
// Receive path (steps 5–10 of Figure 4).

// Recv blocks for the next fully received message and returns it as a
// slice the caller owns: RecvMessage, then Message.Bytes.
func (c *Connection) Recv() ([]byte, error) { return owned(c.recv(nil, nil, 0)) }

// owned is what Recv adds to RecvMessage, on every lane: the borrowed
// message becomes a slice the caller keeps, at the price of one copy.
func owned(m Message, err error) ([]byte, error) { return m.Bytes(), err }

// RecvMessage is Recv with loss metadata (relevant for unreliable
// connections) and without Recv's copy: the message is borrowed — the
// caller reads Data, never writes it, and calls Release exactly once
// (or Bytes, to keep the contents).
func (c *Connection) RecvMessage() (Message, error) { return c.recv(nil, nil, 0) }

// RecvMessageContext is RecvMessage that also ends when ctx does, with
// ctx.Err() unless the connection failed first. An ended wait returns
// nothing but what its last try took, so no message is popped and then
// dropped; a ctx whose Done is nil (context.Background) costs what
// RecvMessage costs — no timer, no goroutine.
func (c *Connection) RecvMessageContext(ctx context.Context) (Message, error) {
	m, err := c.recv(nil, ctx.Done(), 0)
	if err != nil && c.Err() == nil && ctx.Err() != nil {
		err = ctx.Err()
	}
	return m, err
}

// RecvTimeout is Recv with a deadline.
func (c *Connection) RecvTimeout(d time.Duration) ([]byte, error) { return owned(c.recv(nil, nil, d)) }

// RecvMessageTimeout is RecvMessage with a deadline — the combination
// media streams need: loss metadata plus a playout deadline for frames
// whose final segment never arrived. The caller releases the message.
func (c *Connection) RecvMessageTimeout(d time.Duration) (Message, error) {
	return c.recv(nil, nil, d)
}

// recv is the body of every message receive: the default lane's
// (st == nil) and each stream's. What differs per lane is only the pop
// — what taking a message tells the producer — and the lifecycle that
// can end the wait; the waiting itself is await's, which done (nil: never)
// and d (<= 0: no deadline) also end.
func (c *Connection) recv(st *stream.State, done <-chan struct{}, d time.Duration) (Message, error) {
	if st == nil {
		return c.await(&c.box, c.box.Bell, func() (Message, bool, error) {
			m, ok := c.box.Pop()
			if ok {
				c.afterRecv()
			}
			return m, ok, nil
		}, done, d)
	}
	box := st.Box()
	return c.await(box, box.Bell, func() (Message, bool, error) {
		m, ok := st.TryPop()
		// Order matters: pop before the lifecycle check, so messages
		// parked before a remote close drain to the application first.
		if !ok && st.Over() {
			return m, false, ErrStreamClosed
		}
		return m, ok, nil
	}, done, d)
}

// await is every blocking receive on a connection — a message on any
// lane, a peer-opened stream on the accept queue. The wait loop is
// stream.Await's, over try, which takes what the caller is waiting for
// or reports the error that ends the wait (the lane's lifecycle is
// over); a closed done ends it as the connection's close would, after
// one last take. The connection's part is the pump: parked on the
// connection, a receiver whose try finds nothing reads the wires itself
// when it is rung and a pump is free (pump) — a message completing on
// want, its own lane's mailbox (nil for an acceptor), comes back
// directly, on every runtime alike. A message waiting already is taken
// without parking.
func (c *Connection) await(want *stream.Mailbox[Message], bell func() <-chan struct{},
	try func() (Message, bool, error), done <-chan struct{}, d time.Duration) (Message, error) {
	take := func() (m Message, ok bool, err error) {
		for read := true; read && !ok && err == nil; {
			if m, ok, err = try(); !ok && err == nil {
				m, ok, read = c.pump(want, nil)
			}
		}
		if !ok && err == nil && c.Err() != nil {
			err = stream.ErrClosed // Close rings every waiter
		}
		return m, ok, err
	}
	m, ok, err := take()
	if !ok && err == nil {
		wt := idleWaiters.Get()
		defer idleWaiters.Put(wt)
		c.park(wt, false)
		defer c.unpark(wt)
		m, err = stream.Await(bell, wt.ring, done, d, take)
	}
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

// dataPaused is the producer's backpressure, asked before each read of
// the data wire: the wire stays unread — and a sharded connection is
// counted in core.shard.parked_conns — while the default lane is at
// depth. The consumer that frees a slot resumes it (afterRecv,
// Inbox.wake).
func (c *Connection) dataPaused() bool {
	if c.atDepth() && c.pause() {
		return true
	}
	c.unpause()
	return false
}

// pause is the producer stopping at depth: once per pause it raises
// paused and, if an inbox is what filled, registers for its wake-up.
// Both happen BEFORE the re-check it returns, so a consumer draining
// concurrently either is seen here or sees the flag (afterRecv reads it
// after every pop) or the registration (Inbox.wake).
func (c *Connection) pause() (still bool) {
	if !c.paused.Swap(true) {
		mParkedConns.Inc()
		if ib := c.inbox.Load(); ib != nil {
			ib.parked.Put(c, false)
		}
	}
	return c.atDepth()
}

// unpause ends a pause, whoever finds it over: the producer seeing room,
// an inbox waking it, Close.
func (c *Connection) unpause() {
	if c.paused.Load() && c.paused.Swap(false) {
		mParkedConns.Dec()
	}
}

// afterRecv runs after every pop from the default lane's mailbox: if
// its producer paused at depth, wake it into the slot just freed.
func (c *Connection) afterRecv() {
	if c.paused.Load() {
		c.resume()
	}
}

// resume wakes the default lane's paused producer: it fires the data
// wire's source, which rings a waiter or the pump of last resort.
func (c *Connection) resume() { c.in[wireData].arrived() }

// BindInbox merges this connection's deliveries into ib: they become
// InboxMessages on the shared queue instead of landing in the
// connection's own mailbox. Binding is safe at any time, traffic
// flowing or not: under the data wire's pump token — every delivery
// runs under it — the messages already waiting in the connection's
// mailbox move into ib, in order, ahead of anything read after. Then a
// producer paused at the connection's own depth looks again, at ib's.
// Every runtime binds: while every consumer waits on the inbox, the
// connection's pump of last resort delivers.
func (c *Connection) BindInbox(ib *Inbox) error {
	w := c.in[wireData]
	w.pump.Lock()
	c.inbox.Store(ib)
	for n := c.box.Len(); n > 0; n-- {
		if m, ok := c.box.Pop(); ok {
			c.deliver0(m, false) // a closed ib unbinds: the rest re-queue in order
		}
	}
	c.unpause() // a pause at the own depth registered with no inbox
	w.pump.Unlock()
	c.resume()
	return nil
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
// connection — by a waiter, a pump of last resort or a shard loop —
// goes through it, down to the completed message landing in its lane's
// mailbox. It consumes the caller's reference to b; any layer that
// needs a payload view beyond this call (the error-control reassembly,
// a control waiter) retains the buffer. want is nil except from a
// receiver pumping for its own lane: a message completing there with
// nothing queued ahead of it is returned instead of queued.
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
// — so it cannot stall the shard's loop or stream 0.
// The stream is created on first frame, which is what makes
// CtrlStreamOpen advisory: a data frame read before it opens the stream.
// payload aliases the pooled receive buffer ref, which the caller still
// owns.
func (c *Connection) dispatchData(h packet.DataHeader, payload []byte, ref *buf.Buffer, want *stream.Mailbox[Message]) (m Message, handed bool) {
	telemetry.TraceStamp(c.id, h.SessionID, telemetry.StageWireIn)
	c.stats.sdusReceived.Add(1)
	c.stats.bytesReceived.Add(uint64(len(payload)))
	var done bool
	if h.StreamID != 0 {
		st := c.mux().Get(h.StreamID)
		m, done, handed = st.OnData(h, payload, ref, c.emitStamped, want == st.Box())
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

// emitCtrl sends one control packet on its wire — the control
// connection's, or in in-band mode the data connection's, where it
// competes with data: inline when the wire is free (writeInline), else
// pushed onto the wire's queue, which it hands to the wire (flush) if
// the owner is free by then. It serialises the packet into a
// pooled buffer BEFORE it returns, on every runtime, which is what lets
// error and flow control lend it bodies that live in their scratch; the
// queue carries that buffer, not the packet. Safe from any goroutine. It
// reports false when the connection closed.
//
// A ping neither waits for queue room nor writes: the liveness sweep
// that sends it must not block on one connection, and a full queue is
// control traffic in flight — the verdict reads what was heard, not what
// was sent. Its wire is drained by the connection's pump of last resort,
// a shard's loop, which the ping rings. The acks and grants a shard
// emits while it serves the connection stay queued, too: the loop drains
// every connection it served at the end of its cycle, coalesced with the
// rest of the cycle's output.
func (c *Connection) emitCtrl(ctl packet.Control) bool {
	sb := buf.GetCap(packet.ControlHeaderSize + len(ctl.Body))
	sb.B = ctl.Marshal(sb.B)
	w, t := &c.ctrlW, c.ctrl
	if c.opts.InbandControl {
		w, t = &c.dataW, c.data
	}
	ping := ctl.Type == packet.CtrlPing
	it := outItem{ctrl: sb}
	if !ping && !c.serving.Load() {
		if ok, err := c.writeInline(w, t, it); ok {
			return err == nil
		}
	}
	if c.push(w, t, it, !ping) == 0 {
		sb.Release()
		return false
	}
	switch {
	case ping:
		c.in[wireCtrl].last()
	case !c.serving.Load(): // read after the push: a loop done serving flushed before it
		return c.flush(w, t, false) == nil
	}
	return true
}

// demuxControl parses and routes one control packet out of the pooled
// receive buffer b. The body stays aliased to b throughout: routing
// either consumes it synchronously on this goroutine (credits, rate
// and window updates, pings) or hands the waiting sender a retained
// reference (buf.Handoff) alongside the event. This is the single
// demultiplex point of the control wire and of in-band control on the
// data wire.
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
		c.wakeAll(true)
	case packet.CtrlStreamGrant, packet.CtrlStreamOpen, packet.CtrlStreamClose:
		c.routeStreamCtrl(ctl)
		c.wakeAll(true)
	case packet.CtrlAck, packet.CtrlNack:
		// The deposit stays under c.mu so a completing sender can
		// delete its waiter and then drain the channel without racing a
		// late deposit (the channel is buffered; the send never blocks).
		c.mu.Lock()
		if ss := c.waiters[ctl.SessionID]; ss != nil {
			ev := ctrlEvent{ctl: ctl}
			if ref != nil {
				ev.ref = ref.Handoff()
			}
			select {
			case ss.ackCh <- ev:
				ring(ss.wt.ring)
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

// Close tears the connection down: both transport connections — which
// release what they received and nobody read — the flow control state,
// both wires' queues and its private shard's loop. Inbound sessions
// still incomplete at teardown are abandoned so the pooled receive
// buffers they retained return to their pools (reapInbound).
func (c *Connection) Close() error {
	c.closeOnce.Do(func() {
		close(c.closedCh)
		c.wakeAll(false)
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
		c.dataW.close()
		c.ctrlW.close()
		c.data.Close()
		c.ctrl.Close()
		c.wg.Wait()
		c.detachShard() // nothing re-queues it any more
		// A waiter or a pump of last resort may still be reading a wire;
		// once it lets the pump go, no one will (readIn checks the close
		// under it). Then nothing touches the lanes concurrently.
		for _, w := range c.in {
			w.pump.Lock()
			w.pending.Store(false) // nothing will be read again
			w.pump.Unlock()
		}
		c.reapInbound()
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
// connection's own readers counted after it left the registry settles
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
