// Real-wire UDP transport.
//
// udpConn is the first Conn in this package that moves bytes through
// the kernel instead of internal/netsim: one datagram per NCS packet
// over a loopback or real network socket, with the reliability,
// flow-control, and reassembly layers above it unchanged — exactly the
// thin unreliable substrate the paper's protocol stack was designed to
// sit on (§2: "the underlying network provides unreliable datagram
// delivery").
//
// Design points:
//
//   - Batched syscalls. On Linux the send path coalesces the core send
//     thread's vectored SendBatch into a single sendmmsg(2), and one
//     reader goroutine per socket drains arrivals recvmmsg(2)-style
//     into pooled buffers; other platforms fall back to one syscall
//     per datagram through the same interface (see udp_portable.go).
//   - Zero-copy receive. Datagrams land directly in internal/buf
//     pooled storage sized so the default SDU stage fits the 4KB pool
//     tier; the frame header is skipped by reslicing, and the same
//     buffer travels up through demux, the per-conn inbound queue, and
//     TryRecvBuf to the runtime.
//   - Poller. udpConn implements the reactor interface, so sharded
//     runtimes service UDP connections without a pump goroutine per
//     connection; the per-socket reader is the only goroutine the
//     transport adds, shared by every conn on a listener.
//   - Seeded impairment. Each conn's send side owns a
//     netsim.WireImpairer, so the chaos matrix and the flow/error
//     control property tests run their seeded drop/dup/reorder
//     schedules over genuine sockets (UDPLink.Impair / Schedule, or
//     transport.Impair mid-run).
//
// Wire format: every datagram is an 8-byte header followed by the
// packet payload:
//
//	byte 0     magic (0xD9)
//	byte 1     frame type (data, open, openack, close)
//	bytes 2-3  reserved (zero)
//	bytes 4-7  channel ID, big endian
//
// The channel ID demultiplexes conns sharing a listener socket. A
// dialer sends OPEN (channel 0) and the listener assigns a channel,
// keyed by source address so retried OPENs are idempotent, answering
// with OPENACK carrying the assignment. CLOSE is best-effort — UDP can
// lose it, so owners must still Close their end.
package transport

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"ncs/internal/buf"
	"ncs/internal/netsim"
	"ncs/internal/telemetry"
)

// UDPLink configures the real-wire UDP transport; the zero value (or a
// nil pointer) gives a clean, unimpaired link with default batching.
type UDPLink struct {
	// Batch caps the datagrams coalesced into one sendmmsg and the
	// slots offered to one recvmmsg. Default 16 (the core send thread's
	// coalescing depth); 1 forces one syscall per datagram.
	Batch int
	// MaxPacket is the largest packet payload a conn accepts, and
	// determines the receive slot size (MaxPacket + header). The
	// default, 4216, fits a default-stage SDU and lands receive slots
	// exactly on the 4KB buffer pool tier. Both ends of a link must
	// agree: a datagram larger than the receiver's slot is truncated
	// and dropped (counted by transport.udp.trunc_total).
	MaxPacket int
	// RecvBuf is the SO_RCVBUF size requested for the socket; generous
	// socket buffers stand in for link-level flow control on loopback
	// floods. Default 4MB. Best effort: the kernel may clamp it.
	RecvBuf int
	// Seed seeds each conn's send-side impairer (0 means the netsim
	// default seed), so a seed + config + send sequence replays its
	// failure decisions exactly, matching netsim semantics.
	Seed int64
	// Impair is the initial impairment set applied to outbound data
	// frames (drop, duplicate, reorder-by-delay; corruption is not
	// simulated on real sockets). Control frames are never impaired.
	Impair netsim.Impairments
	// Schedule switches impairments by outbound packet count, exactly
	// as netsim.Params.Schedule does.
	Schedule []netsim.Phase
}

const (
	defaultUDPBatch     = 16
	defaultUDPMaxPacket = 4216 // + header = 4224, the default SDU stage
	defaultUDPRecvBuf   = 4 << 20

	udpInqDepth    = 1024
	udpOpenRetries = 8
	udpOpenTimeout = 250 * time.Millisecond
)

func (l *UDPLink) withDefaults() UDPLink {
	var c UDPLink
	if l != nil {
		c = *l
	}
	if c.Batch <= 0 {
		c.Batch = defaultUDPBatch
	}
	if c.MaxPacket <= 0 {
		c.MaxPacket = defaultUDPMaxPacket
	}
	if c.RecvBuf <= 0 {
		c.RecvBuf = defaultUDPRecvBuf
	}
	return c
}

// BatchSyscallsSupported reports whether this platform coalesces
// datagrams into single sendmmsg/recvmmsg syscalls (Linux) or falls
// back to one syscall per datagram. The wire bench gates its
// batched-vs-unbatched verdict on it.
func BatchSyscallsSupported() bool { return batchSyscallsSupported }

// The transport.udp.* instruments (catalogued in telemetry/doc.go).
var (
	mUDPSendDatagrams  = telemetry.NewCounter("transport.udp.send_datagrams_total")
	mUDPRecvDatagrams  = telemetry.NewCounter("transport.udp.recv_datagrams_total")
	mUDPSendSyscalls   = telemetry.NewCounter("transport.udp.send_syscalls_total")
	mUDPRecvSyscalls   = telemetry.NewCounter("transport.udp.recv_syscalls_total")
	mUDPEagain         = telemetry.NewCounter("transport.udp.eagain_total")
	mUDPTrunc          = telemetry.NewCounter("transport.udp.trunc_total")
	mUDPDemuxDrop      = telemetry.NewCounter("transport.udp.demux_drop_total")
	mUDPQueueDrop      = telemetry.NewCounter("transport.udp.queue_drop_total")
	mUDPSendBatchDepth = telemetry.NewHistogram("transport.udp.send_batch_depth")
	mUDPRecvBatchDepth = telemetry.NewHistogram("transport.udp.recv_batch_depth")
)

// ---------------------------------------------------------------------------
// Wire framing.

const (
	udpMagic      = 0xD9
	udpHeaderSize = 8
)

const (
	frameData = iota + 1
	frameOpen
	frameOpenAck
	frameClose
	frameTypeMax = frameClose
)

// putUDPHeader writes the 8-byte frame header.
func putUDPHeader(h *[udpHeaderSize]byte, ftype byte, chanID uint32) {
	h[0] = udpMagic
	h[1] = ftype
	h[2], h[3] = 0, 0
	h[4] = byte(chanID >> 24)
	h[5] = byte(chanID >> 16)
	h[6] = byte(chanID >> 8)
	h[7] = byte(chanID)
}

// parseUDPFrame validates a received datagram and returns its frame
// type, channel ID, and payload view (aliasing p). It is the single
// entry point every arrival passes through, and the fuzz target.
func parseUDPFrame(p []byte) (ftype byte, chanID uint32, payload []byte, err error) {
	if len(p) < udpHeaderSize {
		return 0, 0, nil, errors.New("udp frame: short datagram")
	}
	if p[0] != udpMagic {
		return 0, 0, nil, errors.New("udp frame: bad magic")
	}
	ftype = p[1]
	if ftype == 0 || ftype > frameTypeMax {
		return 0, 0, nil, fmt.Errorf("udp frame: unknown type %d", ftype)
	}
	if p[2] != 0 || p[3] != 0 {
		return 0, 0, nil, errors.New("udp frame: nonzero reserved bytes")
	}
	chanID = uint32(p[4])<<24 | uint32(p[5])<<16 | uint32(p[6])<<8 | uint32(p[7])
	return ftype, chanID, p[udpHeaderSize:], nil
}

// outMsg is one outbound datagram handed to the platform batch-I/O
// layer: the frame header inline (so the Linux path can point an iovec
// at it and prepend without copying) plus the payload buffer and, on
// unconnected sockets, the destination.
type outMsg struct {
	hdr [udpHeaderSize]byte
	b   *buf.Buffer // payload; nil for control frames
	to  *wireAddr   // nil on connected sockets
}

// recvMeta describes one received datagram alongside its slot buffer.
type recvMeta struct {
	n     int  // datagram length (bytes stored in the slot)
	trunc bool // datagram exceeded the slot and was cut short
	from  addrKey
}

// addrKey is a comparable source-address key for demux maps, built
// without allocating a net.UDPAddr per datagram.
type addrKey struct {
	ip   [16]byte
	port uint16
	v4   bool
}

func addrKeyFromUDP(a *net.UDPAddr) addrKey {
	var k addrKey
	if ip4 := a.IP.To4(); ip4 != nil {
		copy(k.ip[:4], ip4)
		k.v4 = true
	} else {
		copy(k.ip[:], a.IP.To16())
	}
	k.port = uint16(a.Port)
	return k
}

func (k addrKey) udpAddr() *net.UDPAddr {
	if k.v4 {
		return &net.UDPAddr{IP: net.IP(append([]byte(nil), k.ip[:4]...)), Port: int(k.port)}
	}
	return &net.UDPAddr{IP: net.IP(append([]byte(nil), k.ip[:]...)), Port: int(k.port)}
}

// ---------------------------------------------------------------------------
// Inbound queue: the per-conn arrival buffer between the socket reader
// and the runtime, with netsim-matching Poller semantics (drain fully,
// then ErrConnClosed).

type udpInq struct {
	ch   chan *buf.Buffer
	dead chan struct{}

	mu     sync.Mutex
	closed bool
	notify func()
}

func (q *udpInq) init() {
	q.ch = make(chan *buf.Buffer, udpInqDepth)
	q.dead = make(chan struct{})
}

// push enqueues an arrival, dropping it (UDP-style) when the queue is
// full or the conn is closed. The notify hook fires outside the lock.
func (q *udpInq) push(b *buf.Buffer) {
	q.mu.Lock()
	if q.closed {
		q.mu.Unlock()
		b.Release()
		return
	}
	select {
	case q.ch <- b:
	default:
		q.mu.Unlock()
		b.Release()
		mUDPQueueDrop.Inc()
		return
	}
	fn := q.notify
	q.mu.Unlock()
	if fn != nil {
		fn()
	}
}

// shutdown closes the queue. With drain, queued buffers are released
// (the local owner is done); without, they stay readable so a peer
// close delivers everything that arrived first. Idempotent, and a
// drain shutdown after a no-drain one still drains.
func (q *udpInq) shutdown(drain bool) {
	q.mu.Lock()
	if !q.closed {
		q.closed = true
		close(q.dead)
	}
	if drain {
		for {
			select {
			case b := <-q.ch:
				b.Release()
				continue
			default:
			}
			break
		}
	}
	fn := q.notify
	q.mu.Unlock()
	if fn != nil {
		fn()
	}
}

func (q *udpInq) tryPop() (*buf.Buffer, error) {
	select {
	case b := <-q.ch:
		return b, nil
	default:
	}
	select {
	case <-q.dead:
		// Closed; anything pushed before the close flag was set is
		// still in ch — re-check so the queue drains before erroring.
		select {
		case b := <-q.ch:
			return b, nil
		default:
			return nil, ErrConnClosed
		}
	default:
		return nil, nil
	}
}

// pop blocks for the next arrival; deadline may be nil (block forever).
func (q *udpInq) pop(deadline <-chan time.Time) (*buf.Buffer, error) {
	select {
	case b := <-q.ch:
		return b, nil
	default:
	}
	select {
	case b := <-q.ch:
		return b, nil
	case <-q.dead:
		select {
		case b := <-q.ch:
			return b, nil
		default:
			return nil, ErrConnClosed
		}
	case <-deadline:
		return nil, ErrRecvTimeout
	}
}

func (q *udpInq) setNotify(fn func()) {
	q.mu.Lock()
	q.notify = fn
	q.mu.Unlock()
	if fn != nil {
		fn()
	}
}

// ---------------------------------------------------------------------------
// Endpoint: one socket, its reader goroutine, and the conns on it.

type udpEndpoint struct {
	sock      *net.UDPConn
	cfg       UDPLink
	slotSize  int
	connected bool

	// Send side: one lock serialises all conns' sends through the
	// shared scratch (outMsg slice, platform iovec/header arrays) —
	// and, as a consequence, keeps every conn's impairer draws in a
	// deterministic per-conn order.
	sendMu sync.Mutex
	io     *batchIO
	msgs   []outMsg
	one    [1]*buf.Buffer

	delay delaySender

	mu       sync.Mutex
	isClosed bool
	single   *udpConn // connected or pair endpoints: the only conn
	byChan   map[uint32]*udpConn
	byAddr   map[addrKey]*udpConn
	nextID   uint32
	lis      *udpListener
	ackCh    chan uint32 // dialer: OPENACK channel assignments

	readerDone chan struct{}
}

func newUDPEndpoint(sock *net.UDPConn, connected bool, cfg UDPLink) (*udpEndpoint, error) {
	// Best effort: loopback floods overrun default socket buffers long
	// before the protocol's own flow control engages.
	_ = sock.SetReadBuffer(cfg.RecvBuf)
	_ = sock.SetWriteBuffer(cfg.RecvBuf)
	bio, err := newBatchIO(sock, connected)
	if err != nil {
		sock.Close()
		return nil, err
	}
	ep := &udpEndpoint{
		sock:       sock,
		cfg:        cfg,
		slotSize:   cfg.MaxPacket + udpHeaderSize,
		connected:  connected,
		io:         bio,
		byChan:     make(map[uint32]*udpConn),
		byAddr:     make(map[addrKey]*udpConn),
		nextID:     1,
		readerDone: make(chan struct{}),
	}
	ep.delay.ep = ep
	ep.delay.wake = make(chan struct{}, 1)
	ep.delay.done = make(chan struct{})
	go ep.readLoop()
	return ep, nil
}

func (ep *udpEndpoint) newConn(chanID uint32, from addrKey, to *net.UDPAddr) (*udpConn, error) {
	c := &udpConn{
		ep:        ep,
		fromKey:   from,
		maxPacket: ep.cfg.MaxPacket,
		imp:       netsim.NewWireImpairer(ep.cfg.Seed, ep.cfg.Impair, ep.cfg.Schedule),
	}
	c.chanID.Store(chanID)
	c.inq.init()
	if to != nil {
		wa, err := encodeWireAddr(to)
		if err != nil {
			return nil, err
		}
		c.wa = wa
		c.to = &c.wa
	}
	return c, nil
}

// close tears the endpoint down: pending delayed sends are released
// unsent, the socket close unhooks the reader, and every conn's queue
// is marked dead (without draining — their owners' Close drains).
func (ep *udpEndpoint) close() {
	ep.mu.Lock()
	if ep.isClosed {
		ep.mu.Unlock()
		return
	}
	ep.isClosed = true
	conns := ep.collectLocked()
	ep.mu.Unlock()

	ep.delay.close()
	ep.sock.Close()
	for _, c := range conns {
		c.inq.shutdown(false)
	}
	<-ep.readerDone
}

func (ep *udpEndpoint) collectLocked() []*udpConn {
	var conns []*udpConn
	if ep.single != nil {
		conns = append(conns, ep.single)
	}
	for _, c := range ep.byChan {
		conns = append(conns, c)
	}
	return conns
}

// readLoop is the endpoint's only goroutine: it refills pooled slot
// buffers, drains the socket in recvmmsg batches, and routes each
// datagram. Exits when the socket closes or dies.
func (ep *udpEndpoint) readLoop() {
	defer close(ep.readerDone)
	batch := ep.cfg.Batch
	slots := make([]*buf.Buffer, batch)
	meta := make([]recvMeta, batch)
	defer func() {
		for i, b := range slots {
			if b != nil {
				b.Release()
				slots[i] = nil
			}
		}
		// The socket is dead: no further arrivals, so wake and close
		// every conn's queue (no-op when close() already did).
		ep.mu.Lock()
		conns := ep.collectLocked()
		ep.mu.Unlock()
		for _, c := range conns {
			c.inq.shutdown(false)
		}
	}()
	for {
		for i := range slots {
			if slots[i] == nil {
				slots[i] = buf.Get(ep.slotSize)
			}
		}
		n, err := ep.io.recvBatch(slots, meta)
		if err != nil {
			if isTransientRecvErr(err) {
				continue
			}
			return
		}
		mUDPRecvBatchDepth.Observe(int64(n))
		mUDPRecvDatagrams.Add(int64(n))
		for i := 0; i < n; i++ {
			b := slots[i]
			slots[i] = nil
			ep.dispatch(b, meta[i])
		}
	}
}

// isTransientRecvErr reports errors the reader should ride out: an
// ICMP port-unreachable surfacing on a connected socket (the peer
// closed first; our side is mid-teardown) is not a socket failure.
func isTransientRecvErr(err error) bool {
	return errors.Is(err, errConnRefused)
}

// dispatch routes one received datagram, taking ownership of b.
func (ep *udpEndpoint) dispatch(b *buf.Buffer, m recvMeta) {
	if m.trunc {
		b.Release()
		mUDPTrunc.Inc()
		return
	}
	ftype, chanID, _, err := parseUDPFrame(b.B[:m.n])
	if err != nil {
		b.Release()
		mUDPDemuxDrop.Inc()
		return
	}
	switch ftype {
	case frameData:
		c := ep.lookup(chanID, m.from)
		if c == nil {
			b.Release()
			mUDPDemuxDrop.Inc()
			return
		}
		b.B = b.B[udpHeaderSize:m.n]
		c.inq.push(b)
	case frameOpen:
		b.Release()
		ep.handleOpen(m.from)
	case frameOpenAck:
		b.Release()
		ep.mu.Lock()
		ack := ep.ackCh
		ep.mu.Unlock()
		if ack != nil {
			select {
			case ack <- chanID:
			default:
			}
		}
	case frameClose:
		b.Release()
		if c := ep.lookup(chanID, m.from); c != nil {
			ep.mu.Lock()
			if ep.byChan[chanID] == c {
				delete(ep.byChan, chanID)
				delete(ep.byAddr, c.fromKey)
			}
			ep.mu.Unlock()
			c.inq.shutdown(false)
		}
	}
}

// lookup resolves a data/close frame to its conn. Connected sockets
// (and pair endpoints) carry exactly one conn and the kernel — or the
// pair's source check — has already filtered the remote, so any
// channel ID is accepted there: a dialer can legitimately see data
// before it processes the OPENACK that tells it its own channel.
func (ep *udpEndpoint) lookup(chanID uint32, from addrKey) *udpConn {
	ep.mu.Lock()
	defer ep.mu.Unlock()
	if ep.single != nil {
		if !ep.connected && from != ep.single.fromKey {
			return nil
		}
		return ep.single
	}
	c := ep.byChan[chanID]
	if c == nil || from != c.fromKey {
		return nil
	}
	return c
}

// handleOpen mints (or re-finds) the conn for a dialer and answers
// OPENACK. Keyed by source address: a retransmitted OPEN re-acks the
// same channel instead of minting a duplicate.
func (ep *udpEndpoint) handleOpen(from addrKey) {
	ep.mu.Lock()
	if ep.lis == nil || ep.isClosed {
		ep.mu.Unlock()
		return
	}
	c := ep.byAddr[from]
	if c == nil {
		nc, err := ep.newConn(0, from, from.udpAddr())
		if err != nil {
			ep.mu.Unlock()
			return
		}
		select {
		case ep.lis.acceptCh <- nc:
			id := ep.nextID
			ep.nextID++
			nc.chanID.Store(id)
			ep.byChan[id] = nc
			ep.byAddr[from] = nc
			c = nc
		default:
			// Accept backlog full: drop the OPEN; the dialer retries.
			ep.mu.Unlock()
			return
		}
	}
	id := c.chanID.Load()
	to := c.to
	ep.mu.Unlock()
	ep.sendControl(frameOpenAck, id, to)
}

// sendControl sends one unimpaired control frame, best effort.
func (ep *udpEndpoint) sendControl(ftype byte, chanID uint32, to *wireAddr) {
	var m outMsg
	putUDPHeader(&m.hdr, ftype, chanID)
	m.to = to
	ep.sendMu.Lock()
	ep.msgs = append(ep.msgs[:0], m)
	err := ep.io.sendBatch(ep.msgs)
	ep.sendMu.Unlock()
	if err == nil {
		mUDPSendDatagrams.Inc()
	}
}

// sendDelayed transmits one reordered data frame at its deadline,
// releasing the payload reference the delay queue held.
func (ep *udpEndpoint) sendDelayed(m outMsg) {
	ep.sendMu.Lock()
	err := ep.io.sendBatch(append(ep.msgs[:0], m))
	ep.sendMu.Unlock()
	if err == nil {
		mUDPSendDatagrams.Inc()
		mUDPSendBatchDepth.Observe(1)
	}
	if m.b != nil {
		m.b.Release()
	}
}

// ---------------------------------------------------------------------------
// Delay queue: reordered datagrams wait here, letting later sends
// overtake them on the wire. One lazily-started goroutine per endpoint.

type delaySender struct {
	ep   *udpEndpoint
	wake chan struct{}
	done chan struct{}

	mu      sync.Mutex
	h       netsim.DueHeap[outMsg]
	closed  bool
	running bool
}

func (ds *delaySender) enqueue(m outMsg, due time.Time) {
	ds.mu.Lock()
	if ds.closed {
		ds.mu.Unlock()
		if m.b != nil {
			m.b.Release()
		}
		return
	}
	ds.h.Push(due, m)
	if !ds.running {
		ds.running = true
		go ds.run()
	}
	ds.mu.Unlock()
	select {
	case ds.wake <- struct{}{}:
	default:
	}
}

func (ds *delaySender) close() {
	ds.mu.Lock()
	if ds.closed {
		ds.mu.Unlock()
		return
	}
	ds.closed = true
	running := ds.running
	ds.mu.Unlock()
	select {
	case ds.wake <- struct{}{}:
	default:
	}
	if running {
		<-ds.done
	}
}

func (ds *delaySender) run() {
	defer close(ds.done)
	timer := time.NewTimer(time.Hour)
	defer timer.Stop()
	for {
		ds.mu.Lock()
		if ds.closed {
			for ds.h.Len() > 0 {
				if m := ds.h.Pop(); m.b != nil {
					m.b.Release()
				}
			}
			ds.mu.Unlock()
			return
		}
		if ds.h.Len() == 0 {
			ds.mu.Unlock()
			<-ds.wake
			continue
		}
		if wait := time.Until(ds.h.Next()); wait > 0 {
			ds.mu.Unlock()
			if !timer.Stop() {
				select {
				case <-timer.C:
				default:
				}
			}
			timer.Reset(wait)
			select {
			case <-ds.wake:
			case <-timer.C:
			}
			continue
		}
		m := ds.h.Pop()
		ds.mu.Unlock()
		ds.ep.sendDelayed(m)
	}
}

// ---------------------------------------------------------------------------
// Conn.

type udpConn struct {
	ep        *udpEndpoint
	chanID    atomic.Uint32
	fromKey   addrKey
	wa        wireAddr
	to        *wireAddr // nil on connected sockets
	maxPacket int
	imp       *netsim.WireImpairer
	inq       udpInq
	closeOnce sync.Once
}

var (
	_ Conn   = (*udpConn)(nil)
	_ Poller = (*udpConn)(nil)
)

func (c *udpConn) Kind() Kind     { return UDP }
func (c *udpConn) MaxPacket() int { return c.maxPacket }

func (c *udpConn) Send(p []byte) error {
	b := buf.GetCap(len(p))
	b.B = append(b.B, p...)
	return c.SendBuf(b)
}

func (c *udpConn) SendBuf(b *buf.Buffer) error {
	ep := c.ep
	ep.sendMu.Lock()
	defer ep.sendMu.Unlock()
	ep.one[0] = b
	return c.sendLocked(ep.one[:1])
}

func (c *udpConn) SendBatch(bs []*buf.Buffer) error {
	if len(bs) == 0 {
		return nil
	}
	ep := c.ep
	ep.sendMu.Lock()
	defer ep.sendMu.Unlock()
	return c.sendLocked(bs)
}

// sendLocked runs the batch through the impairer and flushes the
// survivors in Batch-sized sendmmsg chunks. Consumes one reference per
// buffer even on error, per the SendBatch contract: dropped packets
// release here, delayed packets hand their reference to the delay
// queue, and sent (or send-failed) packets release after the flush.
func (c *udpConn) sendLocked(bs []*buf.Buffer) error {
	ep := c.ep
	id := c.chanID.Load()
	msgs := ep.msgs[:0]
	for i, b := range bs {
		if n := b.Len(); n > c.maxPacket {
			for _, m := range msgs {
				m.b.Release()
			}
			ep.msgs = msgs[:0]
			releaseAll(bs[i:]) // b may be reused from here on: n was read first
			return fmt.Errorf("udp: packet %d bytes exceeds MaxPacket %d", n, c.maxPacket)
		}
		d := c.imp.Decide()
		if d.Drop {
			b.Release()
			continue
		}
		var m outMsg
		putUDPHeader(&m.hdr, frameData, id)
		m.b = b
		m.to = c.to
		if d.Delay > 0 {
			ep.delay.enqueue(m, time.Now().Add(d.Delay))
			continue
		}
		msgs = append(msgs, m)
		if d.Dup {
			m.b = b.Retain()
			msgs = append(msgs, m)
		}
	}
	ep.msgs = msgs // keep the grown scratch
	var sendErr error
	for off := 0; off < len(msgs); {
		end := off + ep.cfg.Batch
		if end > len(msgs) {
			end = len(msgs)
		}
		chunk := msgs[off:end]
		if sendErr == nil {
			sendErr = ep.io.sendBatch(chunk)
			if sendErr == nil {
				mUDPSendBatchDepth.Observe(int64(len(chunk)))
				mUDPSendDatagrams.Add(int64(len(chunk)))
			}
		}
		for i := range chunk {
			chunk[i].b.Release()
			chunk[i].b = nil
		}
		off = end
	}
	ep.msgs = ep.msgs[:0]
	if sendErr != nil {
		return mapUDPSendErr(sendErr)
	}
	return nil
}

func mapUDPSendErr(err error) error {
	if errors.Is(err, net.ErrClosed) || errors.Is(err, errConnRefused) {
		return ErrConnClosed
	}
	return fmt.Errorf("udp send: %w", err)
}

func (c *udpConn) Recv() ([]byte, error) {
	b, err := c.inq.pop(nil)
	if err != nil {
		return nil, err
	}
	return b.TakeBytes(), nil
}

func (c *udpConn) RecvBuf() (*buf.Buffer, error) {
	return c.inq.pop(nil)
}

func (c *udpConn) RecvTimeout(d time.Duration) ([]byte, error) {
	b, err := c.RecvBufTimeout(d)
	if err != nil {
		return nil, err
	}
	return b.TakeBytes(), nil
}

func (c *udpConn) RecvBufTimeout(d time.Duration) (*buf.Buffer, error) {
	t := time.NewTimer(d)
	defer t.Stop()
	return c.inq.pop(t.C)
}

func (c *udpConn) TryRecvBuf() (*buf.Buffer, error) { return c.inq.tryPop() }
func (c *udpConn) SetRecvNotify(fn func())          { c.inq.setNotify(fn) }

// Close tears down this conn: a best-effort CLOSE frame to the peer,
// then the local queue drains its unread arrivals back to the pool.
// On a dialer or pair endpoint the socket (and its reader) goes down
// too; on a listener the shared socket stays up for its siblings.
func (c *udpConn) Close() error {
	c.closeOnce.Do(func() {
		ep := c.ep
		ep.mu.Lock()
		id := c.chanID.Load()
		if ep.byChan[id] == c {
			delete(ep.byChan, id)
			delete(ep.byAddr, c.fromKey)
		}
		ownsEndpoint := ep.single == c
		closed := ep.isClosed
		ep.mu.Unlock()
		if !closed {
			ep.sendControl(frameClose, id, c.to)
		}
		if ownsEndpoint {
			ep.close()
		}
		c.inq.shutdown(true)
	})
	return nil
}

// setImpairments and impairStats back transport.Impair/ImpairStats.
func (c *udpConn) setImpairments(imp netsim.Impairments) { c.imp.Set(imp) }
func (c *udpConn) impairStats() netsim.ImpairStats       { return c.imp.Stats() }

// ---------------------------------------------------------------------------
// Listener, Dial, and the in-process pair constructor.

type udpListener struct {
	ep       *udpEndpoint
	acceptCh chan *udpConn
	closeOne sync.Once
}

var _ Listener = (*udpListener)(nil)

// ListenUDP binds a UDP socket and accepts NCS wire connections on it.
// Every accepted conn shares the socket (demultiplexed by channel ID),
// so closing the listener tears its accepted conns down with it —
// accept-then-close-listener does not orphan a usable conn, unlike TCP.
func ListenUDP(addr string, link *UDPLink) (Listener, error) {
	cfg := link.withDefaults()
	ua, err := net.ResolveUDPAddr("udp", addr)
	if err != nil {
		return nil, fmt.Errorf("udp listen %s: %w", addr, err)
	}
	sock, err := net.ListenUDP("udp", ua)
	if err != nil {
		return nil, fmt.Errorf("udp listen %s: %w", addr, err)
	}
	ep, err := newUDPEndpoint(sock, false, cfg)
	if err != nil {
		return nil, fmt.Errorf("udp listen %s: %w", addr, err)
	}
	l := &udpListener{ep: ep, acceptCh: make(chan *udpConn, 16)}
	ep.mu.Lock()
	ep.lis = l
	ep.mu.Unlock()
	return l, nil
}

func (l *udpListener) Accept() (Conn, error) {
	c, ok := <-l.acceptCh
	if !ok {
		return nil, ErrConnClosed
	}
	return c, nil
}

func (l *udpListener) Close() error {
	l.closeOne.Do(func() {
		l.ep.close()
		close(l.acceptCh)
		for c := range l.acceptCh {
			c.inq.shutdown(true)
		}
	})
	return nil
}

func (l *udpListener) Addr() string { return l.ep.sock.LocalAddr().String() }

// DialUDP connects to a UDP listener and completes the OPEN handshake,
// retrying against loss until the listener answers or the attempt
// budget runs out.
func DialUDP(addr string, link *UDPLink) (Conn, error) {
	cfg := link.withDefaults()
	ua, err := net.ResolveUDPAddr("udp", addr)
	if err != nil {
		return nil, fmt.Errorf("udp dial %s: %w", addr, err)
	}
	sock, err := net.DialUDP("udp", nil, ua)
	if err != nil {
		return nil, fmt.Errorf("udp dial %s: %w", addr, err)
	}
	ep, err := newUDPEndpoint(sock, true, cfg)
	if err != nil {
		return nil, fmt.Errorf("udp dial %s: %w", addr, err)
	}
	c, err := ep.newConn(0, addrKey{}, nil)
	if err != nil {
		ep.close()
		return nil, fmt.Errorf("udp dial %s: %w", addr, err)
	}
	ack := make(chan uint32, 1)
	ep.mu.Lock()
	ep.single = c
	ep.ackCh = ack
	ep.mu.Unlock()
	for try := 0; try < udpOpenRetries; try++ {
		ep.sendControl(frameOpen, 0, nil)
		select {
		case id := <-ack:
			c.chanID.Store(id)
			ep.mu.Lock()
			ep.ackCh = nil
			ep.mu.Unlock()
			return c, nil
		case <-time.After(udpOpenTimeout):
		}
	}
	ep.close()
	c.inq.shutdown(true)
	return nil, fmt.Errorf("udp dial %s: no answer after %d attempts", addr, udpOpenRetries)
}

// UDPPair returns two conns joined by real loopback sockets — the UDP
// counterpart of HPIPair, and what core mints for Interface UDP. Both
// directions get impairers built from the same link config (same seed,
// schedule), mirroring HPIPairWithParams(l, l). The sockets are
// unconnected and source-validated, so the pair works without a
// handshake and without ICMP teardown races.
func UDPPair(link *UDPLink) (Conn, Conn, error) {
	cfg := link.withDefaults()
	loop := &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)}
	sockA, err := net.ListenUDP("udp", loop)
	if err != nil {
		return nil, nil, fmt.Errorf("udp pair: %w", err)
	}
	sockB, err := net.ListenUDP("udp", loop)
	if err != nil {
		sockA.Close()
		return nil, nil, fmt.Errorf("udp pair: %w", err)
	}
	addrA := sockA.LocalAddr().(*net.UDPAddr)
	addrB := sockB.LocalAddr().(*net.UDPAddr)
	epA, err := newUDPEndpoint(sockA, false, cfg)
	if err != nil {
		sockB.Close()
		return nil, nil, fmt.Errorf("udp pair: %w", err)
	}
	epB, err := newUDPEndpoint(sockB, false, cfg)
	if err != nil {
		epA.close()
		return nil, nil, fmt.Errorf("udp pair: %w", err)
	}
	a, err := epA.newConn(1, addrKeyFromUDP(addrB), addrB)
	if err == nil {
		var b *udpConn
		b, err = epB.newConn(1, addrKeyFromUDP(addrA), addrA)
		if err == nil {
			epA.mu.Lock()
			epA.single = a
			epA.mu.Unlock()
			epB.mu.Lock()
			epB.single = b
			epB.mu.Unlock()
			return a, b, nil
		}
	}
	epA.close()
	epB.close()
	return nil, nil, fmt.Errorf("udp pair: %w", err)
}
