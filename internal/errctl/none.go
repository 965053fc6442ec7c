package errctl

import (
	"ncs/internal/buf"
	"ncs/internal/packet"
)

// noneSender transmits every SDU exactly once and never retransmits —
// the configuration the paper prescribes for audio/video streams whose
// timeliness matters more than completeness (Figure 2). SDUs are marked
// FlagUnreliable so diagnostics can tell the streams apart.
//
// The core bypasses this type on its hot paths (it segments unreliable
// messages inline, with no per-message sender object); noneSender
// remains the NewSender default for callers that want the uniform
// Sender interface.
type noneSender struct {
	segmented
}

var _ Sender = (*noneSender)(nil)

func newNoneSender(msg []byte, sduSize int, connID, streamID, sessionID uint32) *noneSender {
	s := noneSenders.Get()
	s.sdus = appendSegments(s.sdus, msg, sduSize, connID, streamID, sessionID, packet.FlagUnreliable)
	s.done = true // unreliable sessions complete as soon as the SDUs leave the sender
	return s
}

// OnAck is a no-op: nothing acknowledges an unreliable session.
func (s *noneSender) OnAck(packet.Control) ([]SDU, bool, error) { return nil, true, nil }

func (s *noneSender) OnTimeout() []SDU { return nil }

// noneReceiver reassembles whatever arrives; the message completes when
// the end-bit SDU shows up, with missing segments simply absent. The
// LostSDUs counter lets media applications observe the loss they chose
// to tolerate.
type noneReceiver struct {
	reassembly
	total int // fixed by the end-bit SDU
	done  bool
}

var _ Receiver = (*noneReceiver)(nil)

func (r *noneReceiver) reset() {
	r.reassembly.reset()
	r.total, r.done = 0, false
}

func (r *noneReceiver) OnData(h packet.DataHeader, payload []byte, ref *buf.Buffer) ([]packet.Control, bool) {
	if r.done {
		return nil, true
	}
	if h.Seq >= MaxUnreliableSegments {
		return nil, false // corrupt header; drop the SDU
	}
	r.hold(int(h.Seq), payload, ref)
	if h.End() {
		r.total = int(h.Seq) + 1
		r.done = true
	}
	return nil, r.done
}

func (r *noneReceiver) Message() []byte {
	if !r.done {
		return nil
	}
	return r.assemble(r.total)
}

func (r *noneReceiver) LostSDUs() int { return r.lost(r.total) }
