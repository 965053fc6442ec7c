package errctl

import (
	"encoding/binary"
	"sync"

	"ncs/internal/buf"
	"ncs/internal/packet"
)

// MaxTrackedSessions bounds a session table; beyond it the oldest
// session is pruned. A pruned session can no longer re-acknowledge
// duplicate retransmissions, which is safe: by the time this many newer
// sessions arrived, the peer's sender has long finished.
const MaxTrackedSessions = 64

// Delivery is one fully received message. Lost counts the SDUs missing
// from an unreliable (None) transfer; it is zero on reliable ones.
//
// A message that arrived in one SDU is delivered as it arrived: Data is
// that SDU's payload inside its pooled receive buffer, which the
// delivery pins until the holder hands it back. Such a delivery is
// BORROWED — Release it exactly once when done with Data (one never
// released is collected, at the price of one buffer the pool must
// re-make), or call Bytes to own the contents instead — and Data is
// READ-ONLY: on HPI it is the very storage the sender staged, and a
// duplicate the network made shares it. A message of several SDUs is
// assembled into an allocation of its own, which pins nothing; Release
// and Bytes cost it nothing, so callers need not tell the two apart.
type Delivery struct {
	Data []byte
	Lost int

	ref *buf.Buffer // pins Data when borrowed; nil when Data is the holder's own
}

// Release hands a borrowed delivery's storage back; Data must not be
// touched afterwards. On an owned delivery it does nothing.
func (d *Delivery) Release() {
	if d.ref != nil {
		d.ref.Release()
		d.ref, d.Data = nil, nil
	}
}

// Bytes returns the contents as a slice the caller owns, for good:
// Keep(0, len(d.Data)).
func (d *Delivery) Bytes() []byte { return d.Keep(0, len(d.Data)) }

// Keep returns Data[i:j] as a slice the caller owns, for good: a slice of
// Data when Data is already owned, else an exact-size copy of the range
// made before the borrowed storage goes back — the rest of the message
// is never copied. The delivery is owned from then on, and Data is what
// Keep returned.
func (d *Delivery) Keep(i, j int) []byte {
	if d.ref == nil {
		d.Data = d.Data[i:j]
		return d.Data
	}
	own := make([]byte, j-i)
	copy(own, d.Data[i:j])
	d.ref.Release()
	d.ref, d.Data = nil, own
	return own
}

// inbound is one tracked session. While it reassembles it holds its
// receiver; once its message is handed over it is a tombstone — rcv nil,
// and of the session only what a late duplicate's re-acknowledgment
// needs: ack is the SDU count under selective repeat (answered with the
// empty bitmap of that length), the last in-order sequence number under
// go-back-N, nothing under None. A tombstone pins no receiver, no
// segment and no message: what was delivered is the application's alone.
type inbound struct {
	rcv Receiver
	ack uint32
}

// tableState is what a table allocates on its first session: the age
// ring, and the scratch every acknowledgment of a delivered session —
// the one that completes it and any a duplicate draws — is staged in,
// since the session's receiver is back in its free list by then.
type tableState struct {
	// age is a fixed ring of the tracked session ids, oldest at next
	// once the table is full.
	age    [MaxTrackedSessions]uint32
	bitmap packet.Bitmap
	body   [4]byte
	ackOut [1]packet.Control
}

// SessionTable is the inbound half of one ordered channel — a
// connection's default lane or one multiplexed stream: it routes each
// arriving SDU to its reassembly session, creating sessions from the
// receiver free lists on first sight, recycling a session's receiver
// the moment its message is delivered (or it ages out incomplete) and
// keeping a tombstone in its place. The zero value with Alg set is
// ready; nothing is allocated until the first session.
//
// The table locks itself, so Len and Reap are safe beside the channel's
// receive loop; the acks OnData returns are still borrowed — from the
// session's receiver or the table's scratch — which is why one loop
// owns the channel.
type SessionTable struct {
	Alg Algorithm

	mu   sync.Mutex
	byID map[uint32]inbound
	st   *tableState
	next int
}

// OnData runs one arriving SDU through its session. acks follows the
// Receiver.OnData borrow contract. done reports that this SDU completed
// a message, handed over in d exactly once per session: d is the
// caller's — to Release, if it arrived in one SDU (see Delivery) — and
// the table keeps no reference to it.
func (t *SessionTable) OnData(h packet.DataHeader, payload []byte, ref *buf.Buffer) (acks []packet.Control, d Delivery, done bool) {
	// A one-SDU message without error control is complete on arrival: no
	// acknowledgments will follow and no retransmission can ever revive
	// the session, so the table and the reassembly machinery are skipped
	// entirely, and the SDU is the delivery.
	if h.Seq == 0 && h.End() && t.Alg == None {
		s := holdSegment(payload, ref)
		mRecvDirect.IncAt(h.ConnID)
		return nil, Delivery{Data: s.data, ref: s.ref}, true
	}

	t.mu.Lock()
	defer t.mu.Unlock()
	s, ok := t.byID[h.SessionID]
	if !ok {
		s = inbound{rcv: NewReceiver(t.Alg)}
		t.trackLocked(h.SessionID, s)
	}
	if s.rcv == nil {
		return t.reack(h, s.ack, true), Delivery{}, false
	}
	acks, complete := s.rcv.OnData(h, payload, ref)
	if !complete {
		return acks, Delivery{}, false
	}
	d = Delivery{Data: s.rcv.Message(), Lost: s.rcv.LostSDUs(), ref: s.rcv.handOver()}
	switch r := s.rcv.(type) {
	case *srReceiver:
		s.ack = uint32(r.total)
	case *gbnReceiver:
		s.ack = r.expected - 1
	}
	// The completing acknowledgment is the receiver's scratch, which
	// Recycle hands to the next session anywhere: restage it here.
	Recycle(s.rcv)
	s.rcv = nil
	t.byID[h.SessionID] = s
	mRecvSession.IncAt(h.ConnID)
	return t.reack(h, s.ack, false), d, true
}

// reack stages what a delivered session's receiver answers SDU h with —
// byte for byte what the live receiver sent, or would send a duplicate
// (dup: counted as one, as the receiver counts it) — from the
// tombstone's state.
func (t *SessionTable) reack(h packet.DataHeader, ack uint32, dup bool) []packet.Control {
	c := packet.Control{Type: packet.CtrlAck, ConnID: h.ConnID, SessionID: h.SessionID}
	switch t.Alg {
	case SelectiveRepeat:
		if h.Seq >= MaxUnreliableSegments {
			return nil // corrupt header; dropped uncounted
		}
		if dup {
			mRecvDup.Inc()
		}
		if !h.End() {
			return nil
		}
		t.st.bitmap.ResetAcked(int(ack))
		c.Body = t.st.bitmap.Bytes()
	case GoBackN:
		if dup {
			mRecvDup.Inc()
		}
		binary.BigEndian.PutUint32(t.st.body[:], ack)
		c.Body = t.st.body[:]
	default:
		return nil
	}
	t.st.ackOut[0] = c
	return t.st.ackOut[:1]
}

// trackLocked enters a new session, pruning the oldest when the table
// is full. An incomplete session that old has no live sender (a channel
// carries one outbound session at a time): retire releases the segment
// buffers it pins; pruning a tombstone releases nothing. Should a
// retransmission somehow still arrive, a fresh session restarts
// reassembly — the whole-message retransmit schemes recover from empty.
func (t *SessionTable) trackLocked(id uint32, s inbound) {
	if t.byID == nil {
		t.byID = make(map[uint32]inbound)
		t.st = new(tableState)
	}
	if n := len(t.byID); n < MaxTrackedSessions {
		t.st.age[n] = id
	} else {
		victim := t.st.age[t.next]
		retire(t.byID[victim])
		delete(t.byID, victim)
		t.st.age[t.next] = id
		t.next = (t.next + 1) % MaxTrackedSessions
	}
	t.byID[id] = s
}

// retire recycles an undelivered session's receiver, which releases the
// buffers it retained. The receive loop is the receiver's only user, so
// once the session leaves the table it can recycle. A tombstone holds
// nothing to release.
func retire(s inbound) {
	if s.rcv != nil {
		Recycle(s.rcv)
	}
}

// Reap retires every session — teardown, or a peer that announced it
// will send no more — releasing the pooled receive buffers incomplete
// reassemblies retained.
func (t *SessionTable) Reap() {
	t.mu.Lock()
	defer t.mu.Unlock()
	for id, s := range t.byID {
		retire(s)
		delete(t.byID, id)
	}
	t.next = 0
}

// Len reports how many sessions the table tracks.
func (t *SessionTable) Len() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.byID)
}
