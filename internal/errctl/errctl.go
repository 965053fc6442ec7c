// Package errctl implements the per-connection error control algorithms
// of §3.2: the default selective-repeat scheme of Figures 5–6, a
// go-back-N alternative, and "none" for loss-tolerant streams.
//
// An algorithm instance is a pure protocol state machine for one message
// transfer (one session): the sender half segments the user message into
// SDUs and decides what to (re)transmit in response to acknowledgments
// and timeouts; the receiver half reassembles arriving SDUs and decides
// when to emit acknowledgment packets on the control connection. All
// packet I/O and timer scheduling stay with the caller (the NCS Error
// Control Thread or the fast-path procedures).
//
// Instances recycle through bounded free lists (buf.FreeList, which the
// collector does not empty): NewSender/NewReceiver draw a state machine
// whose segment tables, bitmap and scratch survive from an earlier
// session, and Release/Recycle hand it back, so a steady stream of
// reliable messages allocates nothing here beyond what a message of
// several SDUs is assembled into (one of a single SDU is delivered as
// the buffer it arrived in: see Delivery).
// The price is that everything a state machine returns — SDU slices,
// control packets and their bodies — is BORROWED from it, for no longer
// than the doc of the method that returned it says.
package errctl

import (
	"errors"
	"fmt"
	"slices"

	"ncs/internal/buf"
	"ncs/internal/packet"
)

// Algorithm selects an error control scheme.
type Algorithm int

// The error control schemes of §3.2.
const (
	None Algorithm = iota + 1
	SelectiveRepeat
	GoBackN
)

// String implements fmt.Stringer.
func (a Algorithm) String() string {
	switch a {
	case None:
		return "none"
	case SelectiveRepeat:
		return "selective-repeat"
	case GoBackN:
		return "go-back-n"
	default:
		return fmt.Sprintf("Algorithm(%d)", int(a))
	}
}

// SDU size limits (§3.2): "The SDU size is from 4 Kbytes to 64 Kbytes
// and corresponds to the single AAL5 frame (Default SDU size is 4
// Kbytes)." MinSDUSize is relaxed below 4K so tiny-message tests can
// exercise multi-SDU paths; DefaultSDUSize matches the paper.
const (
	DefaultSDUSize = 4 * 1024
	MaxSDUSize     = 64*1024 - 256 // AAL5 frame minus headers
)

// ErrSessionDone indicates an operation on a completed session.
var ErrSessionDone = errors.New("errctl: session complete")

// SDU is one segment of a user message, ready for the flow-control and
// data-transfer layers.
type SDU struct {
	Header  packet.DataHeader
	Payload []byte
}

// Sender drives the transmit side of one message transfer. The SDU
// slices it returns are the sender's own storage: Initial's stays valid
// until Release, a retransmission batch only until the next OnAck or
// OnTimeout. Their payloads alias the caller's message.
type Sender interface {
	// Initial returns the full set of SDUs to transmit first
	// (segmentation + header generation, steps 1–3 of Figure 5).
	Initial() []SDU
	// OnAck processes an acknowledgment control packet and returns any
	// SDUs to retransmit. done reports message completion. c.Body is
	// parsed in place and not referenced after OnAck returns.
	OnAck(c packet.Control) (retransmit []SDU, done bool, err error)
	// OnTimeout handles an acknowledgment timeout and returns the SDUs
	// to retransmit (the paper's whole-message fallback for selective
	// repeat, window replay for go-back-N).
	OnTimeout() []SDU
	// Done reports whether the transfer completed.
	Done() bool
}

// Receiver drives the receive side of one message transfer.
type Receiver interface {
	// OnData consumes one arriving SDU. payload may alias the pooled
	// receive buffer ref; when ref is non-nil the receiver RETAINS it
	// to hold the segment zero-copy (releasing on delivery) instead of
	// copying — the caller keeps its own reference and releases it
	// after OnData returns. A nil ref (tests, legacy callers) falls
	// back to copying. acks carries any control packets to return to
	// the sender. The slice AND the packets' bodies are the receiver's
	// scratch, borrowed until the caller's emit returns: the caller
	// must marshal (or copy) each packet before it calls OnData again
	// or recycles the receiver, and may not hand a body to another
	// goroutine. done reports that the message is fully reassembled.
	OnData(h packet.DataHeader, payload []byte, ref *buf.Buffer) (acks []packet.Control, done bool)
	// Message returns the user message; valid once done. One of several
	// SDUs is assembled into an allocation the caller owns, the retained
	// segment buffers are released, and a repeat call finds nothing left
	// to assemble. One that arrived in a single SDU is that SDU's payload
	// as it arrived, not a copy: it aliases the receive buffer the
	// receiver still retains, so it is valid until Recycle or Abandon —
	// or for as long as the caller likes, once it has taken that
	// reference over (handOver; SessionTable does).
	Message() []byte
	// LostSDUs reports segments that were never received (only ever
	// non-zero for the None algorithm, which does not recover losses).
	LostSDUs() int
	// Abandon releases any retained segment buffers without delivering
	// the message. Callers use it when evicting an incomplete session;
	// the receiver must not be used afterwards. It is a no-op on a
	// receiver whose message was already delivered.
	Abandon()
	// handOver gives the caller the reference pinning a single-SDU
	// Message (nil if the message was assembled, or copied on arrival):
	// the caller releases it when done with the message, and the
	// receiver forgets the segment.
	handOver() *buf.Buffer
}

// segment is one received SDU payload: a byte view plus the pooled
// buffer backing it. ref is nil when the payload was copied to the
// heap instead (no pooled buffer was offered).
type segment struct {
	data []byte
	ref  *buf.Buffer
}

// holdSegment takes ownership of payload for reassembly: zero-copy via
// a retained reference on the backing buffer when one is offered,
// otherwise a heap copy.
func holdSegment(payload []byte, ref *buf.Buffer) segment {
	if ref != nil {
		return segment{data: payload, ref: ref.Retain()}
	}
	cp := make([]byte, len(payload))
	copy(cp, payload)
	return segment{data: cp}
}

// release drops the segment's buffer reference, if it holds one.
func (s segment) release() {
	if s.ref != nil {
		s.ref.Release()
	}
}

// MaxUnreliableSegments bounds the SDUs of one message, for every
// scheme: receivers drop SDUs whose sequence number reaches it and core
// refuses to send a larger message (ErrSendTooLarge) rather than let it
// transmit fully yet never complete. Reassembly is dense (indexed
// 0..total-1), so one SDU whose header carries a huge sequence number
// would otherwise force a huge allocation. 64K segments means a 256MB
// message at the default SDU size — far beyond any real transfer —
// while capping the damage of a corrupt or hostile header at ~2MB.
const MaxUnreliableSegments = 1 << 16

// maxPooledSegs bounds the segment storage an idle state machine keeps:
// one that carried a message of more SDUs (2 MB at the default SDU
// size; a near-cap sequence number) frees its tables rather than pin
// them in its free list — see stateIdle for the budget this sets. Such
// a message rebuilds them as it goes: measured on 4 MB messages (1024
// SDUs), 23 allocations and 172 KB per message more than with a bound
// of 4096, at the same messages per second — beside the ≈ 1000 buffers
// a message that size draws past the 512 the 4 KB tier keeps idle.
const maxPooledSegs = 512

// reassembly is the dense segment store every receiver assembles from:
// slices indexed by SDU sequence number and reused across sessions, not
// a fresh map per message. Segments are retained views of the pooled
// receive buffers (zero-copy), released when assemble builds the
// delivery, by Abandon, or at the latest by reset. The delivery itself
// is never kept: a store pins nothing the application was given.
type reassembly struct {
	segs []segment // segment payloads, indexed by SDU sequence
	got  []bool    // which sequence numbers ever arrived
}

// hold stores the payload of SDU seq (< MaxUnreliableSegments) unless
// that sequence number already arrived — the first copy wins and the
// duplicate is counted — and reports whether it was new.
func (a *reassembly) hold(seq int, payload []byte, ref *buf.Buffer) bool {
	// Grown element by element: append(x, make(…)…) is allocation-free
	// only while the compiler optimises the make away, which -race
	// instrumentation stops it from doing.
	for len(a.segs) <= seq {
		a.segs = append(a.segs, segment{})
		a.got = append(a.got, false)
	}
	if a.got[seq] {
		mRecvDup.Inc()
		return false
	}
	a.segs[seq] = holdSegment(payload, ref)
	a.got[seq] = true
	return true
}

// assemble returns the message of total SDUs. A single segment is the
// message, returned as it is held — nothing to concatenate, so no copy;
// its buffer stays retained until handOver, Abandon or reset. Otherwise
// the segments that arrived are concatenated into an allocation that is
// the application's from here on, and the retained buffers released.
// The got bits stay: LostSDUs still counts them.
func (a *reassembly) assemble(total int) []byte {
	if total == 1 {
		return a.segs[0].data
	}
	size := 0
	for _, s := range a.segs[:total] {
		size += len(s.data)
	}
	out := make([]byte, 0, size)
	for _, s := range a.segs[:total] {
		out = append(out, s.data...)
	}
	a.Abandon()
	return out
}

// handOver implements Receiver: after assemble only a single-segment
// message still holds its segment.
func (a *reassembly) handOver() *buf.Buffer {
	if len(a.segs) == 0 {
		return nil
	}
	ref := a.segs[0].ref
	a.segs[0] = segment{}
	return ref
}

// Abandon releases every retained segment buffer without delivering.
func (a *reassembly) Abandon() {
	for i := range a.segs {
		a.segs[i].release()
		a.segs[i] = segment{}
	}
}

// lost counts the sequence numbers below total that never arrived.
func (a *reassembly) lost(total int) int {
	n := 0
	for _, ok := range a.got[:total] {
		if !ok {
			n++
		}
	}
	return n
}

// reset returns the store to its fresh state for the free list: nothing
// of the finished session — segment references, arrival bits — carries
// over, and only modestly-sized tables are kept.
func (a *reassembly) reset() {
	a.Abandon()
	if cap(a.segs) > maxPooledSegs {
		a.segs, a.got = nil, nil
	}
	// Truncating is enough to forget the arrival bits: hold re-extends
	// the tables with explicit zero values.
	a.segs, a.got = a.segs[:0], a.got[:0]
}

// EffectiveSDUSize clamps a configured SDU size exactly the way
// Segment does, letting callers predict the segmentation (for example,
// whether a message fits in a single SDU).
func EffectiveSDUSize(n int) int {
	if n <= 0 {
		return DefaultSDUSize
	}
	if n > MaxSDUSize {
		return MaxSDUSize
	}
	return n
}

// Segment splits msg into SDU payloads of at most sduSize bytes,
// attaching sequence numbers and the end bit; it implements steps 1–2 of
// Figure 5 and is shared by all sender implementations. The SDUs are
// stamped for the connection's default stream 0.
func Segment(msg []byte, sduSize int, connID, sessionID uint32, extraFlags uint16) []SDU {
	return SegmentStream(msg, sduSize, connID, 0, sessionID, extraFlags)
}

// SegmentStream is Segment for an arbitrary stream: every SDU header
// carries streamID so the receive demux can route the session to the
// right per-stream reliability state.
func SegmentStream(msg []byte, sduSize int, connID, streamID, sessionID uint32, extraFlags uint16) []SDU {
	return appendSegments(nil, msg, sduSize, connID, streamID, sessionID, extraFlags)
}

// appendSegments is SegmentStream into caller storage: the SDUs are
// appended to sdus, which grows at most once.
func appendSegments(sdus []SDU, msg []byte, sduSize int, connID, streamID, sessionID uint32, extraFlags uint16) []SDU {
	sduSize = EffectiveSDUSize(sduSize)
	n := (len(msg) + sduSize - 1) / sduSize
	if n == 0 {
		n = 1 // an empty message still needs one (empty) end SDU
	}
	sdus = slices.Grow(sdus, n)
	for i := 0; i < n; i++ {
		lo := i * sduSize
		hi := lo + sduSize
		if hi > len(msg) {
			hi = len(msg)
		}
		var flags uint16 = extraFlags
		if i == n-1 {
			flags |= packet.FlagEnd
		}
		sdus = append(sdus, SDU{
			Header: packet.DataHeader{
				Flags:     flags,
				ConnID:    connID,
				SessionID: sessionID,
				Seq:       uint32(i),
				Length:    uint32(hi - lo),
				StreamID:  streamID,
			},
			Payload: msg[lo:hi],
		})
	}
	return sdus
}

// segmented is the state every sender shares: the message's SDUs and
// the scratch its retransmission batches are built in. Both keep their
// storage across sessions.
type segmented struct {
	sdus []SDU
	rt   []SDU
	done bool
}

func (s *segmented) Initial() []SDU { return s.sdus }

func (s *segmented) Done() bool { return s.done }

// retransmit appends sdu to the batch being built, flagged as a resend.
func (s *segmented) retransmit(sdu SDU) {
	sdu.Header.Flags |= packet.FlagRetransmit
	s.rt = append(s.rt, sdu)
}

// release forgets the finished session. Both tables are zeroed to
// their capacity — rt shrinks and regrows within a session — so a
// pooled sender never pins the previous caller's message.
func (s *segmented) release() {
	clear(s.sdus[:cap(s.sdus)])
	clear(s.rt[:cap(s.rt)])
	if cap(s.sdus) > maxPooledSegs {
		s.sdus, s.rt = nil, nil
	}
	s.sdus, s.rt, s.done = s.sdus[:0], s.rt[:0], false
}

// stateIdle is how many idle state machines of each kind the package
// keeps. One serves a message transfer from first SDU to delivery, so
// the count in use is the number of messages in flight in the process;
// beyond stateIdle idle ones, Release/Recycle leave the instance to the
// collector. Byte budget: an idle instance keeps only its tables — per
// SDU of the largest message it carried, 96 B in a sender (SDU table and
// retransmission scratch) and 33 B in a receiver, up to maxPooledSegs
// SDUs — so the six kinds × 64 retain ≈ 1.6 MB if every instance last
// carried a 256 KB message (64 SDUs), and never more than
// 3 × 64 × (48 KB + 16.5 KB) ≈ 12 MB.
const stateIdle = 64

var (
	srSenders     = buf.NewFreeList(stateIdle, func() *srSender { return new(srSender) })
	gbnSenders    = buf.NewFreeList(stateIdle, func() *gbnSender { return new(gbnSender) })
	noneSenders   = buf.NewFreeList(stateIdle, func() *noneSender { return new(noneSender) })
	srReceivers   = buf.NewFreeList(stateIdle, func() *srReceiver { return new(srReceiver) })
	gbnReceivers  = buf.NewFreeList(stateIdle, func() *gbnReceiver { return new(gbnReceiver) })
	noneReceivers = buf.NewFreeList(stateIdle, func() *noneReceiver { return new(noneReceiver) })
)

// NewSender builds the transmit side of a stream-0 session.
func NewSender(alg Algorithm, msg []byte, sduSize int, connID, sessionID uint32) Sender {
	return NewSenderStream(alg, msg, sduSize, connID, 0, sessionID)
}

// NewSenderStream builds the transmit side of a session on an
// arbitrary stream, reusing an idle sender when one is available.
func NewSenderStream(alg Algorithm, msg []byte, sduSize int, connID, streamID, sessionID uint32) Sender {
	switch alg {
	case SelectiveRepeat:
		return newSRSender(msg, sduSize, connID, streamID, sessionID)
	case GoBackN:
		return newGBNSender(msg, sduSize, connID, streamID, sessionID)
	default:
		return newNoneSender(msg, sduSize, connID, streamID, sessionID)
	}
}

// Release returns a sender to its free list once the transfer is over
// (completed or given up). The sender, and every SDU slice it returned,
// must not be used afterwards; it keeps no reference into the message.
func Release(s Sender) {
	switch s := s.(type) {
	case *srSender:
		s.release()
		srSenders.Put(s)
	case *gbnSender:
		s.release()
		gbnSenders.Put(s)
	case *noneSender:
		s.release()
		noneSenders.Put(s)
	}
}

// NewReceiver builds the receive side of a session, reusing an idle
// receiver when one is available.
func NewReceiver(alg Algorithm) Receiver {
	switch alg {
	case SelectiveRepeat:
		return srReceivers.Get()
	case GoBackN:
		return gbnReceivers.Get()
	default:
		return noneReceivers.Get()
	}
}

// Recycle returns a receiver to its free list once the caller is done
// with it (message delivered, or the session abandoned). Segment buffers
// still retained are released. The receiver must not be used after
// Recycle, and neither may the acks of its last OnData: their bodies
// are its scratch.
func Recycle(r Receiver) {
	switch r := r.(type) {
	case *srReceiver:
		r.reset()
		srReceivers.Put(r)
	case *gbnReceiver:
		r.reset()
		gbnReceivers.Put(r)
	case *noneReceiver:
		r.reset()
		noneReceivers.Put(r)
	}
}
