package errctl

import (
	"encoding/binary"

	"ncs/internal/buf"
	"ncs/internal/packet"
)

// gbnSender implements go-back-N: the receiver only accepts in-order
// SDUs and acknowledges cumulatively; on a NACK or timeout the sender
// replays everything from the first unacknowledged SDU.
type gbnSender struct {
	segmented
	base int // first unacknowledged SDU index
	// nackedAt is the base value of the last NACK-triggered replay.
	// The receiver NACKs every out-of-order arrival, so one loss inside
	// a window produces a NACK per in-flight SDU behind it; replaying
	// the window for each would answer k NACKs with k·(window) SDUs,
	// each generating a further control packet — on a fast-path sender
	// that consumes one control packet per replay batch, an unbounded
	// amplification livelock. Replaying once per base value keeps NACK
	// recovery one-shot; the retransmission timer covers a lost replay.
	nackedAt int
}

var _ Sender = (*gbnSender)(nil)

func newGBNSender(msg []byte, sduSize int, connID, streamID, sessionID uint32) *gbnSender {
	s := gbnSenders.Get()
	s.sdus = appendSegments(s.sdus, msg, sduSize, connID, streamID, sessionID, 0)
	s.base, s.nackedAt = 0, -1
	return s
}

func (s *gbnSender) OnAck(c packet.Control) ([]SDU, bool, error) {
	if s.done {
		return nil, true, ErrSessionDone
	}
	switch c.Type {
	case packet.CtrlAck:
		n, err := packet.ParseCreditBody(c.Body) // cumulative: highest in-order seq
		if err != nil {
			return nil, false, err
		}
		if int(n)+1 > s.base {
			s.base = int(n) + 1
		}
		if s.base >= len(s.sdus) {
			s.done = true
			return nil, true, nil
		}
		return nil, false, nil
	case packet.CtrlNack:
		n, err := packet.ParseCreditBody(c.Body) // expected seq
		if err != nil {
			return nil, false, err
		}
		if int(n) > s.base {
			s.base = int(n)
		}
		if s.base == s.nackedAt {
			// Duplicate or stale NACK: this base was already replayed.
			return nil, false, nil
		}
		s.nackedAt = s.base
		mNackReplay.Inc()
		return s.replay(), false, nil
	default:
		return nil, false, nil
	}
}

func (s *gbnSender) OnTimeout() []SDU {
	if s.done {
		return nil
	}
	return s.replay()
}

// replay returns copies of every SDU from base onward, marked as
// retransmissions. The final one keeps/gains the end bit so the receiver
// answers when the replayed tail arrives.
func (s *gbnSender) replay() []SDU {
	s.rt = s.rt[:0]
	for _, sdu := range s.sdus[min(s.base, len(s.sdus)):] {
		s.retransmit(sdu)
	}
	mRetransmitSDUs.Add(int64(len(s.rt)))
	return s.rt
}

// gbnReceiver accepts only the expected next SDU; anything else is
// dropped and answered with a NACK carrying the expected sequence
// number. Every accepted SDU produces a cumulative ACK. Accepted SDUs
// go into the same dense store the other schemes assemble from, which
// in-order arrival fills front to back.
type gbnReceiver struct {
	reassembly
	expected uint32
	total    int // learned from the end bit; 0 until known
	done     bool
	body     [4]byte // scratch for the staged packet's body
	ctlOut   [1]packet.Control
}

var _ Receiver = (*gbnReceiver)(nil)

func (r *gbnReceiver) reset() {
	r.reassembly.reset()
	r.expected, r.total, r.done = 0, 0, false
	r.ctlOut[0] = packet.Control{}
}

// stage puts one control packet carrying n in the receiver's scratch
// slot (borrowed by the caller, per the Receiver contract).
func (r *gbnReceiver) stage(typ packet.ControlType, h packet.DataHeader, n uint32) []packet.Control {
	binary.BigEndian.PutUint32(r.body[:], n)
	r.ctlOut[0] = packet.Control{Type: typ, ConnID: h.ConnID, SessionID: h.SessionID, Body: r.body[:]}
	return r.ctlOut[:1]
}

// ack stages the current cumulative position: an ACK for the highest
// in-order SDU, or — nothing accepted yet, so no cumulative ack exists —
// a NACK for the first.
func (r *gbnReceiver) ack(h packet.DataHeader) []packet.Control {
	if r.expected == 0 {
		return r.stage(packet.CtrlNack, h, 0)
	}
	return r.stage(packet.CtrlAck, h, r.expected-1)
}

func (r *gbnReceiver) OnData(h packet.DataHeader, payload []byte, ref *buf.Buffer) ([]packet.Control, bool) {
	if r.done {
		// A retransmission after completion means the final cumulative
		// ACK was lost; repeat it so the sender can finish.
		mRecvDup.Inc()
		return r.ack(h), true
	}
	if h.Seq != r.expected || h.Seq >= MaxUnreliableSegments {
		// Out of order: duplicate (already have it) or a gap (cells
		// were lost). A duplicate of an old SDU needs no NACK storm; a
		// gap needs the sender to go back. Both are answered with the
		// current cumulative position.
		if h.Seq > r.expected {
			mRecvOOO.Inc()
			return r.stage(packet.CtrlNack, h, r.expected), false
		}
		mRecvDup.Inc()
		return r.ack(h), false
	}
	r.hold(int(h.Seq), payload, ref)
	r.expected++
	if h.End() && (h.Flags&packet.FlagRetransmit == 0 || r.total == 0) {
		r.total = int(h.Seq) + 1
	}
	r.done = r.total > 0 && int(r.expected) >= r.total
	return r.ack(h), r.done
}

func (r *gbnReceiver) Message() []byte {
	if !r.done {
		return nil
	}
	return r.assemble(int(r.expected))
}

func (r *gbnReceiver) LostSDUs() int { return 0 }
