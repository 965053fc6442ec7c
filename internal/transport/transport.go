// Package transport provides the three NCS application communication
// interfaces behind a single abstraction:
//
//   - SCI (Socket Communication Interface): TCP with length-prefix
//     framing. Portable; flow and error control are inherited from
//     TCP/IP, so NCS connections over SCI normally bypass the Flow
//     Control and Error Control Threads (§3.1, final paragraph).
//   - ACI (ATM Communication Interface): AAL5 frames over a simulated
//     ATM virtual circuit with per-connection QoS. No built-in flow or
//     error control — precisely why NCS supplies its own, selectable
//     per connection.
//   - HPI (High Performance Interface): an in-process, trap-style
//     interface with minimal per-message overhead, standing in for the
//     modified-firmware path the paper targets at tightly-coupled
//     homogeneous clusters.
//
// A Conn is datagram-oriented: packet boundaries are preserved, because
// the NCS data plane exchanges discrete SDUs.
//
// # Readiness
//
// Every Conn can be polled: TryRecvBuf takes what has arrived without
// blocking, and SetRecvNotify's hook says when to look again, so a
// runtime reads any transport from the goroutine that waits on it and
// parks none in a blocking receive. HPI polls the in-process link's
// arrival queue and ACI the circuit's cells through its reassembler, at
// no goroutine of their own; UDP and SCI fill the package's arrival
// queue (inq) from one reader goroutine, per socket and per connection
// respectively. Chunked and platform.Tax poll the Conn they wrap.
//
// # Buffer ownership
//
// The pooled paths (SendBuf, SendBatch, TryRecvBuf, RecvBuf,
// RecvBufTimeout) move packets in reference-counted buf.Buffers so the
// hot pipeline never copies at a layer boundary. The ownership
// contract, repeated from package buf:
//
//   - SendBuf and SendBatch CONSUME one reference per buffer: the
//     transport releases it once the wire has accepted the bytes (or
//     the send failed). Callers that need the contents afterwards must
//     Retain first.
//   - TryRecvBuf, RecvBuf and RecvBufTimeout return a buffer the caller
//     OWNS: the caller must Release it when every slice aliasing it is
//     dropped.
//
// The []byte paths (Send, Recv, RecvTimeout) remain for callers
// outside the hot pipeline; they stage through the same pools where
// possible but return heap-lifetime slices.
package transport

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"time"

	"ncs/internal/atm"
	"ncs/internal/buf"
	"ncs/internal/netsim"
)

// Kind identifies which communication interface a Conn uses.
type Kind int

// The three NCS application communication interfaces, plus the
// real-wire UDP interface (udp.go), which moves the same packets over
// kernel sockets instead of the in-process simulator.
const (
	SCI Kind = iota + 1
	ACI
	HPI
	UDP
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case SCI:
		return "SCI"
	case ACI:
		return "ACI"
	case HPI:
		return "HPI"
	case UDP:
		return "UDP"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Reliable reports whether the interface provides loss-free, ordered
// delivery by itself (true only for SCI/TCP and the in-process HPI).
// Connections over unreliable interfaces need NCS error control.
func (k Kind) Reliable() bool { return k == SCI || k == HPI }

// Errors returned by Conn operations.
var (
	// ErrConnClosed is returned by operations on a closed Conn.
	ErrConnClosed = errors.New("transport: connection closed")
	// ErrRecvTimeout is returned by RecvTimeout when the deadline passes.
	ErrRecvTimeout = errors.New("transport: receive timeout")
)

// Conn is a duplex, packet-boundary-preserving connection.
type Conn interface {
	// Send transmits one packet. The implementation copies p if it
	// needs to retain it.
	Send(p []byte) error
	// SendBuf transmits one packet from a pooled buffer, consuming the
	// caller's reference (see the package comment for ownership rules).
	SendBuf(b *buf.Buffer) error
	// SendBatch transmits the packets in order, consuming one reference
	// each — even on error, every buffer is released. Packet boundaries
	// are preserved; implementations with vectored I/O (SCI) coalesce
	// the batch into a single writev so queued SDUs share the syscall
	// and framing cost.
	SendBatch(bs []*buf.Buffer) error
	// TryRecvBuf returns the next packet without blocking: (nil, nil)
	// when none is available yet, ErrConnClosed once the connection is
	// closed and drained. The returned buffer follows RecvBuf's
	// ownership rule (caller owns, must Release).
	TryRecvBuf() (*buf.Buffer, error)
	// SetRecvNotify registers fn to run whenever a packet may have
	// become available and when the connection dies. fn must not block
	// (a non-blocking doorbell send is the intended body); it fires
	// once immediately on registration. nil clears the hook.
	SetRecvNotify(fn func())
	// Recv blocks for the next packet.
	Recv() ([]byte, error)
	// RecvBuf blocks for the next packet, staged in a pooled buffer the
	// caller owns and must Release.
	RecvBuf() (*buf.Buffer, error)
	// RecvTimeout is Recv with a deadline; it returns ErrRecvTimeout if
	// no packet arrives in time.
	RecvTimeout(d time.Duration) ([]byte, error)
	// RecvBufTimeout is RecvBuf with a deadline.
	RecvBufTimeout(d time.Duration) (*buf.Buffer, error)
	// Close releases the connection. Blocked Recv calls return an error.
	Close() error
	// MaxPacket is the largest packet Send accepts; 0 means unlimited.
	MaxPacket() int
	// Kind reports the interface type.
	Kind() Kind
}

// releaseAll drops one reference from every buffer of a batch; send
// paths use it to uphold SendBatch's consume-even-on-error contract.
func releaseAll(bs []*buf.Buffer) {
	for _, b := range bs {
		b.Release()
	}
}

// sendBatchSeq is the sequential SendBatch fallback for transports
// without vectored I/O: each packet goes through send (which consumes
// its reference); on error the unsent remainder is released so the
// consume-even-on-error contract holds in exactly one place.
func sendBatchSeq(send func(*buf.Buffer) error, bs []*buf.Buffer) error {
	for i, b := range bs {
		if err := send(b); err != nil {
			releaseAll(bs[i+1:])
			return err
		}
	}
	return nil
}

// Listener accepts inbound connections for one interface kind.
type Listener interface {
	Accept() (Conn, error)
	Close() error
	// Addr returns the listener's address in a form Dial understands.
	Addr() string
}

// ---------------------------------------------------------------------------
// SCI: TCP with 4-byte big-endian length prefixes.

type sciConn struct {
	c   net.Conn
	inq // arrivals, from readLoop: the receive methods are the queue's

	lenBuf [4]byte       // readLoop's
	done   chan struct{} // closed when readLoop returns

	writeMu sync.Mutex
	// Batch-write scratch, reused under writeMu: the length prefixes
	// and the iovec for SendBatch's writev.
	prefixes []byte
	vec      net.Buffers
}

var _ Conn = (*sciConn)(nil)

// sciInqDepth bounds the packets read ahead of the runtime on one SCI
// connection; past it the socket's reader stops, and TCP's window
// pushes back on the peer.
const sciInqDepth = 64

// newSCI starts the socket's reader on an established TCP connection.
func newSCI(c net.Conn) *sciConn {
	if tc, ok := c.(*net.TCPConn); ok {
		_ = tc.SetNoDelay(true)
	}
	s := &sciConn{c: c, done: make(chan struct{})}
	s.inq.init(sciInqDepth)
	go s.readLoop()
	return s
}

// DialSCI connects to a ListenSCI address ("host:port").
func DialSCI(addr string) (Conn, error) {
	c, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("sci dial %s: %w", addr, err)
	}
	return newSCI(c), nil
}

type sciListener struct{ l net.Listener }

var _ Listener = (*sciListener)(nil)

// ListenSCI listens on a TCP address; pass "127.0.0.1:0" for an
// ephemeral local port.
func ListenSCI(addr string) (Listener, error) {
	l, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("sci listen %s: %w", addr, err)
	}
	return &sciListener{l: l}, nil
}

func (l *sciListener) Accept() (Conn, error) {
	c, err := l.l.Accept()
	if err != nil {
		return nil, err
	}
	return newSCI(c), nil
}

func (l *sciListener) Close() error { return l.l.Close() }
func (l *sciListener) Addr() string { return l.l.Addr().String() }

func (s *sciConn) Send(p []byte) error {
	s.writeMu.Lock()
	defer s.writeMu.Unlock()
	var lenBuf [4]byte
	binary.BigEndian.PutUint32(lenBuf[:], uint32(len(p)))
	if _, err := s.c.Write(lenBuf[:]); err != nil {
		return s.mapErr(err)
	}
	if _, err := s.c.Write(p); err != nil {
		return s.mapErr(err)
	}
	return nil
}

// SendBuf frames and writes one packet, then releases the buffer.
func (s *sciConn) SendBuf(b *buf.Buffer) error {
	err := s.Send(b.B)
	b.Release()
	return err
}

// SendBatch coalesces the whole batch — every length prefix and every
// payload — into one vectored write (writev on TCP), so N queued SDUs
// cost one syscall instead of 2N.
func (s *sciConn) SendBatch(bs []*buf.Buffer) error {
	defer releaseAll(bs)
	s.writeMu.Lock()
	defer s.writeMu.Unlock()
	if cap(s.prefixes) < 4*len(bs) {
		s.prefixes = make([]byte, 0, 4*len(bs))
	}
	if cap(s.vec) < 2*len(bs) {
		s.vec = make(net.Buffers, 0, 2*len(bs))
	}
	pre := s.prefixes[:0]
	vec := s.vec[:0]
	for _, b := range bs {
		off := len(pre)
		pre = binary.BigEndian.AppendUint32(pre, uint32(b.Len()))
		vec = append(vec, pre[off:off+4], b.B)
	}
	work := vec // WriteTo consumes its receiver; keep vec for reuse
	_, err := work.WriteTo(s.c)
	for i := range vec {
		vec[i] = nil // unpin the released buffers from the scratch array
	}
	if err != nil {
		return s.mapErr(err)
	}
	return nil
}

// readLoop is the connection's one socket reader: it reads each
// length-prefixed packet whole into a pooled buffer and queues it,
// waiting while the queue is full. A receive deadline is the queue's,
// so none can cut a packet in half. It ends with the socket, leaving
// what it queued readable.
func (s *sciConn) readLoop() {
	defer close(s.done)
	defer s.inq.shutdown(false)
	for {
		if _, err := io.ReadFull(s.c, s.lenBuf[:]); err != nil {
			return
		}
		b := buf.Get(int(binary.BigEndian.Uint32(s.lenBuf[:])))
		if _, err := io.ReadFull(s.c, b.B); err != nil {
			b.Release()
			return
		}
		s.inq.push(b, true)
	}
}

// Close closes the socket, which stops the reader, and releases what it
// queued unread.
func (s *sciConn) Close() error {
	err := s.c.Close()
	s.inq.shutdown(true) // a reader waiting on a full queue lets go
	<-s.done
	s.inq.shutdown(true) // what it pushed as the queue closed
	return err
}

func (s *sciConn) MaxPacket() int { return 0 }
func (s *sciConn) Kind() Kind     { return SCI }
func (s *sciConn) mapErr(err error) error {
	if errors.Is(err, io.EOF) || errors.Is(err, net.ErrClosed) {
		return ErrConnClosed
	}
	return err
}

// ---------------------------------------------------------------------------
// ACI: AAL5 frames over a simulated ATM VC.

type aciConn struct{ vc *atm.VC }

var _ Conn = (*aciConn)(nil)

// NewACI wraps an established ATM virtual circuit as a Conn.
func NewACI(vc *atm.VC) Conn { return &aciConn{vc: vc} }

func (a *aciConn) Send(p []byte) error { return aciErr(a.vc.SendFrame(p)) }

// SendBuf segments the frame into cells (staged through the cell
// pools), then releases the buffer.
func (a *aciConn) SendBuf(b *buf.Buffer) error {
	err := a.Send(b.B)
	b.Release()
	return err
}

// SendBatch sends the frames back to back; ATM cells already pipeline
// on the VC, so there is no separate vectored path to exploit.
func (a *aciConn) SendBatch(bs []*buf.Buffer) error {
	return sendBatchSeq(a.SendBuf, bs)
}

func (a *aciConn) Recv() ([]byte, error) {
	p, err := a.vc.RecvFrame()
	return p, aciErr(err)
}

// RecvBuf returns the next intact AAL5 frame in the reassembler's
// pooled staging buffer, owned by the caller.
func (a *aciConn) RecvBuf() (*buf.Buffer, error) {
	b, err := a.vc.RecvFrameBuf()
	return b, aciErr(err)
}

func (a *aciConn) RecvTimeout(d time.Duration) ([]byte, error) {
	p, err := a.vc.RecvFrameTimeout(d)
	return p, aciErr(err)
}

func (a *aciConn) RecvBufTimeout(d time.Duration) (*buf.Buffer, error) {
	b, err := a.vc.RecvFrameBufTimeout(d)
	return b, aciErr(err)
}

// TryRecvBuf pushes the cells that have arrived through the reassembler
// and returns the frame they complete, or nil.
func (a *aciConn) TryRecvBuf() (*buf.Buffer, error) {
	b, err := a.vc.TryRecvFrameBuf()
	return b, aciErr(err)
}

// SetRecvNotify hooks the circuit's cell arrivals.
func (a *aciConn) SetRecvNotify(fn func()) { a.vc.SetRecvNotify(fn) }

// aciErr maps the circuit's errors onto the package's.
func aciErr(err error) error {
	switch {
	case errors.Is(err, atm.ErrRecvTimeout):
		return ErrRecvTimeout
	case errors.Is(err, atm.ErrVCClosed):
		return ErrConnClosed
	}
	return err
}

func (a *aciConn) Close() error   { return a.vc.Close() }
func (a *aciConn) MaxPacket() int { return atm.MaxFrameSize }
func (a *aciConn) Kind() Kind     { return ACI }

// VC exposes the underlying circuit (for QoS inspection and loss stats).
func (a *aciConn) VC() *atm.VC { return a.vc }

// ACIStats extracts frame-drop statistics if c is an ACI connection.
func ACIStats(c Conn) (dropped int, ok bool) {
	a, isACI := c.(*aciConn)
	if !isACI {
		return 0, false
	}
	return a.vc.FramesDropped(), true
}

// Impair applies programmable impairments to the connection's transmit
// direction mid-run: packets (HPI) or cells (ACI) this side sends are
// impaired from the next one onward. It reports false for transports
// with no simulated link to impair (SCI rides a real TCP socket).
// Wrapped connections are unwrapped via an Unwrap() Conn method.
func Impair(c Conn, imp netsim.Impairments) bool {
	switch t := c.(type) {
	case *hpiConn:
		t.ep.SetImpairments(imp)
		return true
	case *aciConn:
		t.vc.SetImpairments(imp)
		return true
	case *udpConn:
		t.setImpairments(imp)
		return true
	}
	if u, ok := c.(interface{ Unwrap() Conn }); ok {
		return Impair(u.Unwrap(), imp)
	}
	return false
}

// ImpairStats reports the impairment decisions made on traffic the
// connection's local endpoint has transmitted, when the connection
// rides a simulated link: HPI counts SDU packets, ACI counts ATM
// cells. The second result is false for transports with no simulated
// link (SCI). Wrapped connections are unwrapped as in Impair.
func ImpairStats(c Conn) (netsim.ImpairStats, bool) {
	switch t := c.(type) {
	case *hpiConn:
		return t.ep.ImpairStats(), true
	case *aciConn:
		return t.vc.ImpairStats(), true
	case *udpConn:
		return t.impairStats(), true
	}
	if u, ok := c.(interface{ Unwrap() Conn }); ok {
		return ImpairStats(u.Unwrap())
	}
	return netsim.ImpairStats{}, false
}

// ---------------------------------------------------------------------------
// HPI: in-process shared-memory style interface.

type hpiConn struct{ ep *netsim.Endpoint }

var _ Conn = (*hpiConn)(nil)

// HPIPair returns two connected HPI endpoints. The underlying channel is
// an in-process queue with no simulated bandwidth or delay, modelling a
// trap/firmware interface on a tightly coupled cluster.
func HPIPair() (Conn, Conn) {
	a, b := netsim.Pipe(netsim.LoopbackParams(), netsim.LoopbackParams())
	return &hpiConn{ep: a}, &hpiConn{ep: b}
}

// HPIPairWithParams returns a connected HPI pair whose two directions
// use the given link parameters — useful for tests that need loss or
// bounded buffers without the ATM cell machinery.
func HPIPairWithParams(aToB, bToA netsim.Params) (Conn, Conn) {
	a, b := netsim.Pipe(aToB, bToA)
	return &hpiConn{ep: a}, &hpiConn{ep: b}
}

func (h *hpiConn) Send(p []byte) error {
	if err := h.ep.Send(p); err != nil {
		return ErrConnClosed
	}
	return nil
}

// SendBuf hands the buffer to the in-process link zero-copy: the
// receiver's RecvBuf surfaces the very same storage.
func (h *hpiConn) SendBuf(b *buf.Buffer) error {
	if err := h.ep.SendBuf(b); err != nil {
		return ErrConnClosed
	}
	return nil
}

// SendBatch enqueues the batch back to back; HPI has no syscall to
// amortise, so the win is just the zero-copy handoff per packet.
func (h *hpiConn) SendBatch(bs []*buf.Buffer) error {
	return sendBatchSeq(h.SendBuf, bs)
}

func (h *hpiConn) Recv() ([]byte, error) {
	p, err := h.ep.Recv()
	if err != nil {
		return nil, ErrConnClosed
	}
	return p, nil
}

func (h *hpiConn) RecvBuf() (*buf.Buffer, error) {
	b, err := h.ep.RecvBuf()
	if err != nil {
		return nil, ErrConnClosed
	}
	return b, nil
}

func (h *hpiConn) RecvTimeout(d time.Duration) ([]byte, error) {
	p, err := h.ep.RecvTimeout(d)
	if err != nil {
		if errors.Is(err, netsim.ErrTimeout) {
			return nil, ErrRecvTimeout
		}
		return nil, ErrConnClosed
	}
	return p, nil
}

func (h *hpiConn) RecvBufTimeout(d time.Duration) (*buf.Buffer, error) {
	b, err := h.ep.RecvBufTimeout(d)
	if err != nil {
		if errors.Is(err, netsim.ErrTimeout) {
			return nil, ErrRecvTimeout
		}
		return nil, ErrConnClosed
	}
	return b, nil
}

// TryRecvBuf polls the in-process link's arrival queue.
func (h *hpiConn) TryRecvBuf() (*buf.Buffer, error) {
	b, err := h.ep.TryRecvBuf()
	if err != nil {
		return nil, ErrConnClosed
	}
	return b, nil
}

// SetRecvNotify hooks the link; see netsim.Endpoint.SetRecvNotify.
func (h *hpiConn) SetRecvNotify(fn func()) { h.ep.SetRecvNotify(fn) }

func (h *hpiConn) Close() error   { return h.ep.Close() }
func (h *hpiConn) MaxPacket() int { return 0 }
func (h *hpiConn) Kind() Kind     { return HPI }
