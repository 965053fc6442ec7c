package stream

import (
	"sync"
	"testing"

	"ncs/internal/errctl"
	"ncs/internal/flowctl"
	"ncs/internal/packet"
)

// collector captures the control packets a mux emits, in order.
type collector struct {
	mu   sync.Mutex
	ctls []packet.Control
}

func (c *collector) emit(ctl packet.Control) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	body := make([]byte, len(ctl.Body))
	copy(body, ctl.Body)
	ctl.Body = body
	c.ctls = append(c.ctls, ctl)
	return true
}

func (c *collector) grants() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := 0
	for _, ctl := range c.ctls {
		if ctl.Type == packet.CtrlStreamGrant {
			n++
		}
	}
	return n
}

func testMux(t *testing.T, initiator bool, sink *collector) *Mux {
	t.Helper()
	m := NewMux(initiator, Config{
		Flow: flowctl.Config{InitialCredits: 4, MaxCredits: 8},
		Err:  errctl.None,
	}, sink.emit)
	// Reap at test end so every stream's credit receiver drains its
	// refill-retry timers.
	t.Cleanup(m.ReapAll)
	return m
}

// TestMuxIDParity pins the collision-free id allocation: the dialing
// side opens odd ids, the accepting side even ids, so neither end ever
// allocates an id the other might mint concurrently.
func TestMuxIDParity(t *testing.T) {
	var sink collector
	dialer := testMux(t, true, &sink)
	acceptor := testMux(t, false, &sink)
	for want := uint32(1); want <= 5; want += 2 {
		st, ok := dialer.Open()
		if !ok || st.ID() != want {
			t.Fatalf("dialer Open = %v, %v; want id %d", st, ok, want)
		}
	}
	for want := uint32(2); want <= 6; want += 2 {
		st, ok := acceptor.Open()
		if !ok || st.ID() != want {
			t.Fatalf("acceptor Open = %v, %v; want id %d", st, ok, want)
		}
	}
}

// TestMuxAcceptQueue pins the create-on-first-frame discipline: a
// remote-parity id materialised by Get queues for PopAccept; a
// local-parity id does not; Take claims a stream so it never surfaces.
func TestMuxAcceptQueue(t *testing.T) {
	var sink collector
	m := testMux(t, false, &sink) // acceptor: odd ids are the peer's
	if _, ok := m.PopAccept(); ok {
		t.Fatal("fresh mux has a pending accept")
	}
	remote := m.Get(1)
	if remote.ID() != 1 {
		t.Fatalf("Get(1) id = %d", remote.ID())
	}
	got, ok := m.PopAccept()
	if !ok || got != remote {
		t.Fatalf("PopAccept = %v, %v; want the Get(1) stream", got, ok)
	}
	// A second Get of the same id must not re-queue it.
	if again := m.Get(1); again != remote {
		t.Fatal("Get(1) is not idempotent")
	}
	if _, ok := m.PopAccept(); ok {
		t.Fatal("known stream re-queued for accept")
	}
	// Take claims: stream 3 must never surface to PopAccept.
	m.Take(3)
	if _, ok := m.PopAccept(); ok {
		t.Fatal("Take-claimed stream surfaced to PopAccept")
	}
}

// TestMuxReapAll pins teardown: after ReapAll, Open refuses, stragglers
// materialised by Get arrive reaped (their frames are dropped), and the
// accept queue is gone.
func TestMuxReapAll(t *testing.T) {
	var sink collector
	m := testMux(t, false, &sink)
	m.Get(1) // queued for accept
	m.ReapAll()
	if !m.Closed() {
		t.Fatal("Closed() false after ReapAll")
	}
	if _, ok := m.Open(); ok {
		t.Fatal("Open succeeded on a closed mux")
	}
	if _, ok := m.PopAccept(); ok {
		t.Fatal("accept queue survived ReapAll")
	}
	straggler := m.Get(5)
	straggler.OnData(sdu(5, 0), []byte("late"), nil, func(packet.Control) bool { return true }, false)
	if _, ok := straggler.TryPop(); ok {
		t.Fatal("reaped stream delivered a frame")
	}
}

// sdu builds the header of one single-SDU unreliable message. Sessions
// run from 0, one SDU each, so a session is its SDU's transmit index.
func sdu(streamID, session uint32) packet.DataHeader {
	return packet.DataHeader{
		Flags:     packet.FlagEnd,
		SessionID: session,
		Seq:       0,
		Tx:        uint16(session),
		Length:    4,
		StreamID:  streamID,
	}
}

// deliver runs one single-SDU message through the stream's receive
// path, as core's demux would.
func deliver(st *State, session uint32) {
	st.OnData(sdu(st.ID(), session), []byte{1, 2, 3, 4}, nil, func(packet.Control) bool { return true }, false)
}

// TestBacklogGatesGrants is the per-stream isolation discipline in
// miniature: while the consumer keeps up, arrival-counted credit
// grants flow; the moment messages sit parked, further grants are
// withheld (latest wins); draining the backlog flushes exactly the
// withheld grant and reopens the window.
func TestBacklogGatesGrants(t *testing.T) {
	var sink collector
	m := testMux(t, false, &sink)
	st := m.Get(1)
	if _, ok := m.PopAccept(); !ok {
		t.Fatal("stream not queued for accept")
	}

	// Consumed promptly: arrivals spin the credit receiver and its
	// grants reach the wire.
	session := uint32(0)
	for i := 0; i < 8; i++ {
		deliver(st, session)
		session++
		if _, ok := st.TryPop(); !ok {
			t.Fatalf("message %d not delivered", i)
		}
	}
	flowing := sink.grants()
	if flowing == 0 {
		t.Fatal("no credit grants emitted for a promptly-consumed stream")
	}

	// Unconsumed: every further arrival parks, and no grant may escape
	// while the backlog stands.
	parked := 4
	for i := 0; i < parked; i++ {
		deliver(st, session)
		session++
	}
	if got := sink.grants(); got != flowing {
		t.Fatalf("%d grants emitted while the backlog stood (had %d)", got-flowing, parked)
	}

	// Draining flushes the withheld grant — one cumulative grant, not
	// one per suppressed emission.
	for i := 0; i < parked; i++ {
		if _, ok := st.TryPop(); !ok {
			t.Fatalf("parked message %d missing", i)
		}
	}
	if got := sink.grants(); got != flowing+1 {
		t.Fatalf("drain flushed %d grants; want exactly 1", got-flowing)
	}
	if _, ok := st.TryPop(); ok {
		t.Fatal("TryPop on a drained stream returned a message")
	}
}

// TestGrantRoundTrip pins the stream-scoped grant framing: the grant a
// receiver emits unwraps on the peer's sender as a connection-shaped
// cumulative credit grant for the same stream.
func TestGrantRoundTrip(t *testing.T) {
	var sink collector
	m := testMux(t, false, &sink)
	st := m.Get(1)
	deliver(st, 0)
	if _, ok := st.TryPop(); !ok {
		t.Fatal("message not delivered")
	}
	// Provoke grants until one is emitted (refill cadence is the
	// credit engine's business, not this test's).
	session := uint32(1)
	for sink.grants() == 0 && session < 64 {
		deliver(st, session)
		session++
		st.TryPop()
	}
	sink.mu.Lock()
	defer sink.mu.Unlock()
	if len(sink.ctls) == 0 {
		t.Fatal("no grant emitted after 64 consumed messages")
	}
	ctl := sink.ctls[0]
	if ctl.Type != packet.CtrlStreamGrant {
		t.Fatalf("emitted type %v; want CtrlStreamGrant", ctl.Type)
	}
	if len(ctl.Body) != packet.StreamGrantSize {
		t.Fatalf("grant body %d bytes; want %d", len(ctl.Body), packet.StreamGrantSize)
	}
	id := uint32(ctl.Body[0])<<24 | uint32(ctl.Body[1])<<16 | uint32(ctl.Body[2])<<8 | uint32(ctl.Body[3])
	if id != st.ID() {
		t.Fatalf("grant addressed to stream %d; want %d", id, st.ID())
	}
}

// TestWindowCountsSenderIndices: a lane's window counts its sender's
// transmit indices, not arrivals. An index the link lost is counted once
// a later one arrives, so the loss costs no credit; a reordered
// straggler or a duplicate counts nothing; and the index's low half on
// the wire unwraps past 1<<16.
func TestWindowCountsSenderIndices(t *testing.T) {
	var sink collector
	m := testMux(t, false, &sink)
	st := m.Get(1)
	counted := func() uint64 {
		return st.cr.recv.(interface{ Stats() flowctl.ReceiverStats }).Stats().Arrived
	}
	at := func(tx uint16) {
		h := sdu(st.ID(), uint32(tx))
		st.OnData(h, []byte{1, 2, 3, 4}, nil, func(packet.Control) bool { return true }, false)
		st.TryPop()
	}
	at(0)
	at(3) // 1 and 2 lost
	if got := counted(); got != 4 {
		t.Fatalf("indices 0 and 3 arrived: the window counted %d, want 4", got)
	}
	at(1) // late
	at(3) // duplicated
	if got := counted(); got != 4 {
		t.Fatalf("a straggler and a duplicate changed the count to %d, want 4", got)
	}
	st.cr.rx = 0xfffe
	before := counted()
	at(1) // 0xfffe, 0xffff, 0x10000 and 0x10001: the last arrived
	if got := counted() - before; got != 4 {
		t.Fatalf("index 0x10001 after 0xfffe counted %d, want 4", got)
	}
}
