package errctl

import (
	"ncs/internal/buf"
	"ncs/internal/packet"
)

// srSender implements the sender half of Figure 6's pseudo code:
//
//	segment → transmit all → wait ACK →
//	  timeout        ⇒ retransmit everything
//	  bitmap > 0     ⇒ selective retransmission per bitmap
//	  bitmap == 0    ⇒ done
type srSender struct {
	segmented
}

var _ Sender = (*srSender)(nil)

func newSRSender(msg []byte, sduSize int, connID, streamID, sessionID uint32) *srSender {
	s := srSenders.Get()
	s.sdus = appendSegments(s.sdus, msg, sduSize, connID, streamID, sessionID, 0)
	return s
}

func (s *srSender) OnAck(c packet.Control) ([]SDU, bool, error) {
	if s.done {
		return nil, true, ErrSessionDone
	}
	if c.Type != packet.CtrlAck {
		return nil, false, nil
	}
	var bm packet.Bitmap // a view of c.Body, walked in place
	if err := bm.Decode(c.Body); err != nil {
		return nil, false, err
	}
	if !bm.AnySet() {
		s.done = true
		return nil, true, nil
	}
	s.rt = s.rt[:0]
	for seq := bm.NextSet(0); seq >= 0 && seq < len(s.sdus); seq = bm.NextSet(seq + 1) {
		s.retransmit(s.sdus[seq])
	}
	if len(s.rt) == 0 {
		return nil, false, nil
	}
	// A retransmitted batch needs a fresh trigger for the receiver's
	// ACK: mark the last retransmission as an end packet so the
	// receiving Error Control Thread answers (Figure 6 keeps the
	// original end bit; re-flagging the last of the batch is the
	// standard fix for a lost end SDU).
	s.rt[len(s.rt)-1].Header.Flags |= packet.FlagEnd
	mRetransmitSDUs.Add(int64(len(s.rt)))
	return s.rt, false, nil
}

func (s *srSender) OnTimeout() []SDU {
	if s.done {
		return nil
	}
	// "If the Error Control Thread at the sender side does not receive
	// an Acknowledgment packet within an appropriate interval, it
	// retransmits the whole packets."
	s.rt = s.rt[:0]
	for _, sdu := range s.sdus {
		s.retransmit(sdu)
	}
	mRetransmitSDUs.Add(int64(len(s.rt)))
	return s.rt
}

// srReceiver implements the receiver half: clear bitmap positions as
// SDUs arrive; when an end-bit SDU arrives, send an ACK carrying the
// bitmap; the message completes when the bitmap is empty. Segments are
// held as retained views of the pooled receive buffers (zero-copy)
// until Message assembles and releases them.
type srReceiver struct {
	reassembly
	bitmap  packet.Bitmap // doubles as the ACK body: it is its own wire image
	total   int           // SDU count, learned from the end packet
	haveEnd bool
	done    bool
	ackOut  [1]packet.Control
}

var _ Receiver = (*srReceiver)(nil)

// reset readies the receiver for the pool. The bitmap keeps its storage
// (re-initialised by the next session's end SDU) unless the session was
// unusually large.
func (r *srReceiver) reset() {
	r.reassembly.reset()
	if r.total > maxPooledSegs {
		r.bitmap = packet.Bitmap{}
	}
	r.total, r.haveEnd, r.done = 0, false, false
	r.ackOut[0] = packet.Control{}
}

// ack stages an acknowledgment in the receiver's scratch slot; its body
// is the live bitmap (borrowed by the caller, per the Receiver
// contract).
func (r *srReceiver) ack(h packet.DataHeader) []packet.Control {
	r.ackOut[0] = packet.Control{
		Type:      packet.CtrlAck,
		ConnID:    h.ConnID,
		SessionID: h.SessionID,
		Body:      r.bitmap.Bytes(),
	}
	return r.ackOut[:1]
}

func (r *srReceiver) OnData(h packet.DataHeader, payload []byte, ref *buf.Buffer) ([]packet.Control, bool) {
	if h.Seq >= MaxUnreliableSegments {
		return nil, r.done // corrupt header; drop the SDU
	}
	if r.done {
		// The sender retransmitting after completion means our final
		// ACK was lost: answer end-flagged SDUs with the (empty) bitmap
		// again so the sender can finish.
		mRecvDup.Inc()
		if h.End() {
			return r.ack(h), true
		}
		return nil, true
	}
	seq := int(h.Seq)
	r.hold(seq, payload, ref)
	// The first end-flagged SDU we see fixes the message length. Before
	// the receiver has ever acknowledged, every end-flagged packet
	// carries the true final sequence number: batch-end re-flagging only
	// happens in response to an ACK, and an ACK implies we had already
	// learned the length.
	if h.End() && !r.haveEnd {
		r.total = seq + 1
		r.haveEnd = true
		r.bitmap.Reset(r.total)
		for i, ok := range r.got[:r.total] {
			if ok {
				r.bitmap.Clear(i)
			}
		}
	} else if r.haveEnd {
		r.bitmap.Clear(seq)
	}

	// Acknowledge whenever an end-flagged SDU arrives (original end or
	// the re-flagged last packet of a retransmission batch).
	if h.End() && r.haveEnd {
		r.done = !r.bitmap.AnySet()
		return r.ack(h), r.done
	}
	return nil, false
}

func (r *srReceiver) Message() []byte {
	if !r.done {
		return nil
	}
	return r.assemble(r.total)
}

func (r *srReceiver) LostSDUs() int { return 0 }
