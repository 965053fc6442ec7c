package errctl

import (
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
type Delivery struct {
	Data []byte
	Lost int
}

// inbound is one tracked session: its receiver and whether its message
// was already handed over (duplicates re-acknowledge, never re-deliver).
type inbound struct {
	rcv       Receiver
	delivered bool
}

// SessionTable is the inbound half of one ordered channel — a
// connection's default lane or one multiplexed stream: it routes each
// arriving SDU to its reassembly session, creating sessions from the
// receiver pools on first sight and recycling them as they age out. The
// zero value with Alg set is ready; nothing is allocated until the
// first session.
//
// The table locks itself, so Len and Reap are safe beside the channel's
// receive loop; the acks OnData returns are still borrowed from the
// session's receiver, which is why one loop owns the channel.
type SessionTable struct {
	Alg Algorithm

	mu   sync.Mutex
	byID map[uint32]inbound
	// age is a fixed ring of the tracked session ids, oldest at next
	// once the table is full.
	age  *[MaxTrackedSessions]uint32
	next int
}

// OnData runs one arriving SDU through its session. acks follows the
// Receiver.OnData borrow contract. done reports that this SDU completed
// a message, handed over in d exactly once per session.
func (t *SessionTable) OnData(h packet.DataHeader, payload []byte, ref *buf.Buffer) (acks []packet.Control, d Delivery, done bool) {
	// A one-SDU message without error control is complete on arrival: no
	// acknowledgments will follow and no retransmission can ever revive
	// the session, so the table and the reassembly machinery are skipped
	// entirely. Only the user-facing copy is made.
	if h.Seq == 0 && h.End() && t.Alg == None {
		out := make([]byte, len(payload))
		copy(out, payload)
		mRecvDirect.IncAt(h.ConnID)
		return nil, Delivery{Data: out}, true
	}

	t.mu.Lock()
	defer t.mu.Unlock()
	s, ok := t.byID[h.SessionID]
	if !ok {
		s = inbound{rcv: NewReceiver(t.Alg)}
		t.trackLocked(h.SessionID, s)
	}
	acks, complete := s.rcv.OnData(h, payload, ref)
	if !complete || s.delivered {
		return acks, Delivery{}, false
	}
	s.delivered = true
	t.byID[h.SessionID] = s
	mRecvSession.IncAt(h.ConnID)
	return acks, Delivery{Data: s.rcv.Message(), Lost: s.rcv.LostSDUs()}, true
}

// trackLocked enters a new session, pruning the oldest when the table
// is full. An incomplete session that old has no live sender (a channel
// carries one outbound session at a time): retire releases the segment
// buffers it pins. Should a retransmission somehow still arrive, a
// fresh session restarts reassembly — the whole-message retransmit
// schemes recover from empty.
func (t *SessionTable) trackLocked(id uint32, s inbound) {
	if t.byID == nil {
		t.byID = make(map[uint32]inbound)
		t.age = new([MaxTrackedSessions]uint32)
	}
	if n := len(t.byID); n < MaxTrackedSessions {
		t.age[n] = id
	} else {
		victim := t.age[t.next]
		retire(t.byID[victim])
		delete(t.byID, victim)
		t.age[t.next] = id
		t.next = (t.next + 1) % MaxTrackedSessions
	}
	t.byID[id] = s
}

// retire abandons an undelivered session's retained buffers and returns
// its receiver to the pool. The receive loop is the receiver's only
// user, so once the session leaves the table it can recycle.
func retire(s inbound) {
	if !s.delivered {
		s.rcv.Abandon()
	}
	Recycle(s.rcv)
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
