package errctl

import (
	"bytes"
	"testing"

	"ncs/internal/buf"
	"ncs/internal/packet"
)

// deliverOne feeds one single-SDU message to the table through a pooled
// buffer, as the receive paths do, and returns the delivery.
func deliverOne(t *testing.T, tbl *SessionTable, sess uint32, msg []byte, flags uint16) Delivery {
	t.Helper()
	h := packet.DataHeader{Flags: packet.FlagEnd | flags, ConnID: 1, SessionID: sess, Length: uint32(len(msg))}
	b := buf.GetCap(len(msg))
	b.B = append(b.B, msg...)
	_, d, done := tbl.OnData(h, b.B, b)
	b.Release()
	if !done {
		t.Fatalf("session %d: single-SDU message did not complete", sess)
	}
	return d
}

// TestSessionTableSteadyStateAllocatesOnlyDeliveries: the age ring is
// fixed and sessions recycle as they age out, so a table receiving one
// reliable message after another allocates the delivered copies and
// nothing else, for ever.
func TestSessionTableSteadyStateAllocatesOnlyDeliveries(t *testing.T) {
	if raceDetector {
		t.Skip("sync.Pool drops entries at random under the race detector")
	}
	msg := bytes.Repeat([]byte("m"), 64)
	for _, alg := range []Algorithm{SelectiveRepeat, GoBackN} {
		tbl := &SessionTable{Alg: alg}
		sess := uint32(0)
		receive := func() {
			sess++
			if d := deliverOne(t, tbl, sess, msg, 0); !bytes.Equal(d.Data, msg) {
				t.Fatalf("%v: session %d delivered %q", alg, sess, d.Data)
			}
		}
		for i := 0; i < 2*MaxTrackedSessions; i++ {
			receive() // fill the table and the receiver pool
		}
		if n := testing.AllocsPerRun(1000, receive); n != 1 {
			t.Errorf("%v: %v allocs per single-SDU reliable receive, want 1 (the delivered copy)", alg, n)
		}
		if n := tbl.Len(); n != MaxTrackedSessions {
			t.Errorf("%v: table tracks %d sessions after %d, want %d", alg, n, sess, MaxTrackedSessions)
		}
		tbl.Reap()
	}
}

// TestSessionTableDeliversOnceAndPrunesOldest covers the table's
// contract: a duplicate of a delivered session re-acknowledges without
// re-delivering while the session is tracked, the oldest session leaves
// when the table is full, Reap empties it, and an unreliable single-SDU
// message bypasses it.
func TestSessionTableDeliversOnceAndPrunesOldest(t *testing.T) {
	before := buf.Outstanding()
	tbl := &SessionTable{Alg: SelectiveRepeat}
	msg := []byte("once")
	deliverOne(t, tbl, 1, msg, 0)
	sdu := Segment(msg, 1024, 1, 1, 0)[0]
	acks, _, done := tbl.OnData(sdu.Header, sdu.Payload, nil)
	if done || len(acks) == 0 {
		t.Fatalf("duplicate of a delivered session: done=%v, %d acks; want a re-acknowledgment only", done, len(acks))
	}

	// An incomplete session, then enough newer ones to push it out: its
	// retained segment must be released, and session 1 forgotten.
	two := Segment(bytes.Repeat([]byte("x"), 2048), 1024, 1, 2, 0)
	b := buf.GetCap(1024)
	b.B = append(b.B, two[0].Payload...)
	tbl.OnData(two[0].Header, b.B, b)
	b.Release()
	for sess := uint32(3); sess < 3+MaxTrackedSessions; sess++ {
		deliverOne(t, tbl, sess, msg, 0)
	}
	if n := tbl.Len(); n != MaxTrackedSessions {
		t.Fatalf("table tracks %d sessions, want %d", n, MaxTrackedSessions)
	}
	if got := buf.Outstanding(); got != before {
		t.Fatalf("%d pooled buffers still held after the incomplete session was pruned", got-before)
	}
	if _, _, done := tbl.OnData(sdu.Header, sdu.Payload, nil); !done {
		t.Fatal("session 1 still tracked after MaxTrackedSessions newer ones")
	}
	tbl.Reap()
	if n := tbl.Len(); n != 0 {
		t.Fatalf("table tracks %d sessions after Reap", n)
	}

	none := &SessionTable{Alg: None}
	if d := deliverOne(t, none, 9, msg, packet.FlagUnreliable); !bytes.Equal(d.Data, msg) || none.Len() != 0 {
		t.Fatalf("unreliable single-SDU message: delivered %q, table tracks %d sessions; want the message and no session", d.Data, none.Len())
	}
}
