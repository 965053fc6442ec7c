package stream

import (
	"sync"

	"ncs/internal/packet"
)

// Mux is a connection's stream table: it allocates local stream ids,
// surfaces peer-initiated streams to AcceptStream, and owns teardown.
//
// ID allocation uses parity so the two ends never collide without a
// negotiation round trip: the connection's initiator (the dialing
// side) opens odd ids, the acceptor even ids. Stream 0 is the
// connection's default channel and never appears in the table.
type Mux struct {
	cfg       Config
	initiator bool

	// emit sends a control packet over the connection's control path,
	// stamping the connection id. Core installs it right after
	// construction, before any stream exists.
	emit func(ctl packet.Control) bool

	mu      sync.Mutex
	streams map[uint32]*State
	nextID  uint32
	closed  bool

	// accepts holds the peer-initiated streams nobody has accepted yet;
	// its bell also rings when the mux closes.
	accepts Mailbox[*State]
}

// NewMux builds the stream table for one connection end.
func NewMux(initiator bool, cfg Config) *Mux {
	first := uint32(2)
	if initiator {
		first = 1
	}
	return &Mux{cfg: cfg, initiator: initiator, nextID: first}
}

// SetEmitter installs the connection's control emitter. Must be called
// before any stream is created; core does it inside the same critical
// section that publishes the mux.
func (m *Mux) SetEmitter(emit func(ctl packet.Control) bool) { m.emit = emit }

// localParity reports whether id is one this end allocates.
func (m *Mux) localParity(id uint32) bool {
	odd := id%2 == 1
	return odd == m.initiator
}

func (m *Mux) newStateLocked(id uint32, local bool) *State {
	st := &State{
		id:    id,
		mux:   m,
		local: local,
	}
	st.inbound.Alg = m.cfg.Err
	if m.streams == nil {
		m.streams = make(map[uint32]*State)
	}
	m.streams[id] = st
	mOpenStreams.Inc()
	return st
}

// Open allocates the next local stream id and creates its state. The
// caller announces it to the peer (CtrlStreamOpen) outside the lock.
// ok is false after Close.
func (m *Mux) Open() (st *State, ok bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return nil, false
	}
	id := m.nextID
	m.nextID += 2
	return m.newStateLocked(id, true), true
}

// Get returns the stream's state, creating it if the id is unknown —
// the create-on-first-frame path that makes CtrlStreamOpen advisory.
// A peer-initiated stream created here is queued for AcceptStream.
// After Close, Get returns a reaped placeholder whose OnData drops
// frames, so late stragglers die quietly.
func (m *Mux) Get(id uint32) *State {
	m.mu.Lock()
	if st, ok := m.streams[id]; ok {
		m.mu.Unlock()
		return st
	}
	st := m.newStateLocked(id, m.localParity(id))
	closed := m.closed
	m.mu.Unlock()
	switch {
	case closed:
		st.Reap()
	case !st.local:
		m.accepts.Put(st, false)
	}
	return st
}

// Take returns the stream's state, creating it if unknown, and —
// unlike Get — claims it: a peer-initiated stream never enters the
// accept queue, and one already there is skipped by PopAccept. Layered
// protocols that communicate stream ids out of band (RPC streaming) use
// it so their streams do not surface to AcceptStream.
func (m *Mux) Take(id uint32) *State {
	m.mu.Lock()
	st, ok := m.streams[id]
	if !ok {
		st = m.newStateLocked(id, m.localParity(id))
	}
	st.claimed.Store(true)
	closed := m.closed
	m.mu.Unlock()
	if closed {
		st.Reap()
	}
	return st
}

// Lookup returns the stream's state without creating it.
func (m *Mux) Lookup(id uint32) (*State, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	st, ok := m.streams[id]
	return st, ok
}

// PopAccept takes the oldest peer-initiated stream neither accepted nor
// claimed (Take) yet.
func (m *Mux) PopAccept() (*State, bool) {
	for {
		st, ok := m.accepts.Pop()
		if !ok || !st.claimed.Load() {
			return st, ok
		}
	}
}

// AcceptBell is the accept queue's bell: rung whenever a stream lands
// on it, and when the mux closes.
func (m *Mux) AcceptBell() <-chan struct{} { return m.accepts.Bell() }

// Closed reports whether ReapAll ran.
func (m *Mux) Closed() bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.closed
}

// Each visits every stream the table holds — reaped ones included: ids
// are never reused, so a closed stream's placeholder stays — outside
// the table's lock.
func (m *Mux) Each(visit func(*State)) {
	m.mu.Lock()
	states := make([]*State, 0, len(m.streams))
	for _, st := range m.streams {
		states = append(states, st)
	}
	m.mu.Unlock()
	for _, st := range states {
		visit(st)
	}
}

// ReapAll tears every stream down (releasing retained buffers and
// draining credit retry timers) and marks the mux closed. Runs at
// Connection.Close; idempotent.
func (m *Mux) ReapAll() {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return
	}
	m.closed = true
	m.mu.Unlock()
	m.Each((*State).Reap)
	m.accepts.Drop()
	m.accepts.Ring()
}
