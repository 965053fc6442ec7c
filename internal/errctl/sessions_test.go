package errctl

import (
	"bytes"
	"runtime"
	"slices"
	"sync/atomic"
	"testing"
	"time"

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
// nothing else, for ever — and a one-SDU message is delivered as it
// arrived, so a consumer that releases it allocates nothing at all.
func TestSessionTableSteadyStateAllocatesOnlyDeliveries(t *testing.T) {
	if raceDetector {
		t.Skip("the race detector's instrumentation allocates")
	}
	msg := bytes.Repeat([]byte("m"), 64)
	for _, alg := range []Algorithm{SelectiveRepeat, GoBackN} {
		tbl := &SessionTable{Alg: alg}
		sess := uint32(0)
		receive := func() {
			sess++
			d := deliverOne(t, tbl, sess, msg, 0)
			if !bytes.Equal(d.Data, msg) {
				t.Fatalf("%v: session %d delivered %q", alg, sess, d.Data)
			}
			d.Release()
		}
		for i := 0; i < 2*MaxTrackedSessions; i++ {
			receive() // fill the table and the receiver pool
		}
		if n := testing.AllocsPerRun(1000, receive); n != 0 {
			t.Errorf("%v: %v allocs per single-SDU reliable receive released, want 0", alg, n)
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
	deliverOnce := func(tbl *SessionTable, sess uint32, flags uint16) {
		t.Helper()
		d := deliverOne(t, tbl, sess, msg, flags)
		if !bytes.Equal(d.Data, msg) {
			t.Fatalf("%v: session %d delivered %q", tbl.Alg, sess, d.Data)
		}
		d.Release()
	}
	deliverOnce(tbl, 1, 0)
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
		deliverOnce(tbl, sess, 0)
	}
	if n := tbl.Len(); n != MaxTrackedSessions {
		t.Fatalf("table tracks %d sessions, want %d", n, MaxTrackedSessions)
	}
	if got := buf.Outstanding(); got != before {
		t.Fatalf("%d pooled buffers still held after the incomplete session was pruned", got-before)
	}
	if _, d, done := tbl.OnData(sdu.Header, sdu.Payload, nil); !done || !bytes.Equal(d.Bytes(), msg) {
		t.Fatal("session 1 still tracked after MaxTrackedSessions newer ones")
	}
	tbl.Reap()
	if n := tbl.Len(); n != 0 {
		t.Fatalf("table tracks %d sessions after Reap", n)
	}

	none := &SessionTable{Alg: None}
	if deliverOnce(none, 9, packet.FlagUnreliable); none.Len() != 0 {
		t.Fatalf("unreliable single-SDU message: table tracks %d sessions, want none", none.Len())
	}
	if got := buf.Outstanding(); got != before {
		t.Fatalf("%d pooled buffers still held after every delivery was released", got-before)
	}
}

// deliverAll feeds every SDU of one message to the table through pooled
// buffers and returns the delivery and the marshalled acknowledgments of
// the SDU that completed it.
func deliverAll(t *testing.T, tbl *SessionTable, sdus []SDU) (Delivery, [][]byte) {
	t.Helper()
	for i, s := range sdus {
		acks, d, done := replay(tbl.OnData, s)
		if done != (i == len(sdus)-1) {
			t.Fatalf("%v: SDU %d/%d: done=%v", tbl.Alg, i, len(sdus), done)
		}
		if done {
			return d, acks
		}
	}
	panic("unreachable")
}

// replay hands one SDU to a table's OnData through a pooled buffer and
// returns the acknowledgments marshalled, as emit would take them before
// the next OnData.
func replay(onData func(packet.DataHeader, []byte, *buf.Buffer) ([]packet.Control, Delivery, bool), s SDU) ([][]byte, Delivery, bool) {
	b := buf.GetCap(len(s.Payload))
	b.B = append(b.B, s.Payload...)
	acks, d, done := onData(s.Header, b.B, b)
	var wire [][]byte
	for _, a := range acks {
		wire = append(wire, a.Marshal(nil))
	}
	b.Release()
	return wire, d, done
}

func equalWire(a, b [][]byte) bool { return slices.EqualFunc(a, b, bytes.Equal) }

// TestDuplicatesAfterDeliveryAnswerAsTheLiveReceiverDid: a delivered
// session is a tombstone, and what a late duplicate draws from it — the
// acknowledgment on the wire, the duplicate count, no second delivery,
// no retained buffer — is what a live receiver driven past done answers
// the same SDU with. The expectation is captured from a bare receiver,
// which keeps that behaviour.
func TestDuplicatesAfterDeliveryAnswerAsTheLiveReceiverDid(t *testing.T) {
	for _, alg := range []Algorithm{SelectiveRepeat, GoBackN, None} {
		for _, n := range []int{1, 4, 64} {
			if alg == None && n == 1 {
				continue // complete on arrival: never enters a table
			}
			msg := make([]byte, n*100)
			for i := range msg {
				msg[i] = byte(i)
			}
			sdus := Segment(msg, 100, 7, 1, 0)
			dups := []SDU{sdus[n-1], sdus[n/2]} // the end-flagged last SDU, a middle one

			// What the live receiver answers.
			live := NewReceiver(alg)
			asTable := func(h packet.DataHeader, p []byte, ref *buf.Buffer) ([]packet.Control, Delivery, bool) {
				acks, done := live.OnData(h, p, ref)
				return acks, Delivery{}, done
			}
			var wantFinal [][]byte
			for _, s := range sdus {
				wantFinal, _, _ = replay(asTable, s)
			}
			live.Message()
			var want [][][]byte
			var wantDup []int64
			for _, s := range dups {
				d0 := mRecvDup.Value()
				w, _, _ := replay(asTable, s)
				want = append(want, w)
				wantDup = append(wantDup, mRecvDup.Value()-d0)
			}
			Recycle(live)

			before := buf.Outstanding()
			tbl := &SessionTable{Alg: alg}
			d, final := deliverAll(t, tbl, sdus)
			if !bytes.Equal(d.Data, msg) {
				t.Fatalf("%v/%d: delivered message corrupted", alg, n)
			}
			d.Release()
			if !equalWire(final, wantFinal) {
				t.Fatalf("%v/%d: completing ack %x, live receiver sent %x", alg, n, final, wantFinal)
			}
			for i, s := range dups {
				d0 := mRecvDup.Value()
				got, _, done := replay(tbl.OnData, s)
				if done {
					t.Fatalf("%v/%d: duplicate of SDU %d delivered the message again", alg, n, s.Header.Seq)
				}
				if !equalWire(got, want[i]) {
					t.Errorf("%v/%d: duplicate of SDU %d drew %x, the live receiver answers %x", alg, n, s.Header.Seq, got, want[i])
				}
				dup := mRecvDup.Value() - d0
				if dup != wantDup[i] || (alg != None && dup != 1) {
					t.Errorf("%v/%d: duplicate of SDU %d counted %d in errctl.recv.dup_total, live receiver %d", alg, n, s.Header.Seq, dup, wantDup[i])
				}
			}
			if held := buf.Outstanding() - before; held != 0 {
				t.Fatalf("%v/%d: %d pooled buffers held by a delivered session", alg, n, held)
			}

			// MaxTrackedSessions newer sessions prune the tombstone; a
			// further duplicate then starts a fresh session, as it always has.
			filler := make([]byte, 200) // two SDUs: enters the table under None too
			for sess := uint32(2); sess < 2+MaxTrackedSessions; sess++ {
				deliverAll(t, tbl, Segment(filler, 100, 7, sess, 0))
			}
			if got := tbl.Len(); got != MaxTrackedSessions {
				t.Fatalf("%v/%d: table tracks %d sessions, want %d", alg, n, got, MaxTrackedSessions)
			}
			live = NewReceiver(alg)
			wantAcks, _, wantDone := replay(asTable, dups[0])
			Recycle(live)
			got, again, done := replay(tbl.OnData, dups[0])
			again.Release() // a one-SDU message completes afresh
			if done != wantDone || !equalWire(got, wantAcks) {
				t.Errorf("%v/%d: duplicate of a pruned session: done=%v acks=%x; a fresh receiver answers done=%v acks=%x",
					alg, n, done, got, wantDone, wantAcks)
			}
			tbl.Reap()
			if held := buf.Outstanding() - before; held != 0 {
				t.Fatalf("%v/%d: %d pooled buffers held after Reap", alg, n, held)
			}
		}
	}
}

// TestNothingDeliveredStaysReachable: the table hands a message over
// and forgets it. With all eight sessions still tracked and the table
// alive, the collector must be able to take every delivered message the
// application dropped.
func TestNothingDeliveredStaysReachable(t *testing.T) {
	const msgs, size = 8, 64 * 1024
	tbl := &SessionTable{Alg: SelectiveRepeat}
	var finalized atomic.Int32
	func() {
		msg := make([]byte, size)
		for sess := uint32(1); sess <= msgs; sess++ {
			d, _ := deliverAll(t, tbl, Segment(msg, DefaultSDUSize, 1, sess, 0))
			if len(d.Data) != size {
				t.Fatalf("session %d delivered %d bytes", sess, len(d.Data))
			}
			runtime.SetFinalizer(&d.Data[0], func(*byte) { finalized.Add(1) })
		}
	}()
	runtime.GC()
	runtime.GC()
	// Finalizers run on their own goroutine after the cycle that found
	// the object dead; give it the processor, not a deadline.
	for i := 0; i < 1000 && finalized.Load() < msgs; i++ {
		runtime.Gosched()
		time.Sleep(time.Millisecond)
	}
	if got := tbl.Len(); got != msgs {
		t.Fatalf("table tracks %d sessions, want %d", got, msgs)
	}
	if got := finalized.Load(); got != msgs {
		t.Errorf("%d of %d delivered messages were collectable with their sessions still tracked", got, msgs)
	}
	tbl.Reap()
}

// TestOneSDUDeliveryIsItsArrivalBuffer: under every scheme a message
// that arrived in one SDU is delivered as that SDU — Data lies inside
// the buffer the SDU was offered in, pinned by one more reference until
// Release — and a message of two SDUs is assembled: its Data is nobody's
// buffer and its delivery pins nothing. Bytes owns either for good.
func TestOneSDUDeliveryIsItsArrivalBuffer(t *testing.T) {
	for _, alg := range []Algorithm{SelectiveRepeat, GoBackN, None} {
		before := buf.Outstanding()
		tbl := &SessionTable{Alg: alg}
		offer := func(s SDU) (*buf.Buffer, Delivery, bool) {
			b := buf.GetCap(len(s.Payload))
			b.B = append(b.B, s.Payload...)
			_, d, done := tbl.OnData(s.Header, b.B, b)
			return b, d, done
		}

		one := Segment([]byte("a message of one SDU"), 100, 1, 1, 0)[0]
		b, d, done := offer(one)
		if !done || !bytes.Equal(d.Data, one.Payload) {
			t.Fatalf("%v: one-SDU message: done=%v data=%q", alg, done, d.Data)
		}
		if &d.Data[0] != &b.B[0] || b.Refs() != 2 {
			t.Fatalf("%v: one-SDU delivery is a copy (refs=%d): want Data inside the offered buffer, retained once", alg, b.Refs())
		}
		kept := d.Bytes()
		if b.Refs() != 1 || &kept[0] == &b.B[0] || !bytes.Equal(kept, one.Payload) {
			t.Fatalf("%v: Bytes left refs=%d, returned %q", alg, b.Refs(), kept)
		}
		d.Release() // owned now: nothing to hand back
		if b.Refs() != 1 {
			t.Fatalf("%v: Release after Bytes dropped a reference it did not hold (refs=%d)", alg, b.Refs())
		}
		b.Release()

		two := Segment(bytes.Repeat([]byte("two"), 50), 100, 1, 2, 0)
		b0, _, done := offer(two[0])
		if done {
			t.Fatalf("%v: first of two SDUs completed the message", alg)
		}
		b1, d, done := offer(two[1])
		if !done || !bytes.Equal(d.Data, bytes.Repeat([]byte("two"), 50)) {
			t.Fatalf("%v: two-SDU message: done=%v, %d bytes", alg, done, len(d.Data))
		}
		if b0.Refs() != 1 || b1.Refs() != 1 {
			t.Fatalf("%v: an assembled delivery pins its segments' buffers (refs %d, %d)", alg, b0.Refs(), b1.Refs())
		}
		data := d.Data
		d.Release()
		if d.Data == nil || &d.Data[0] != &data[0] {
			t.Fatalf("%v: Release of an owned delivery took its Data away", alg)
		}
		b0.Release()
		b1.Release()
		tbl.Reap()
		if held := buf.Outstanding() - before; held != 0 {
			t.Fatalf("%v: %d pooled buffers held at the end", alg, held)
		}
	}
}

// TestKeepCopiesOnlyTheRange: Keep is Bytes for a range. A borrowed
// delivery's range comes back as an exact-size copy, and the arrival
// buffer goes back at once; an owned delivery's range is a slice of its
// Data, at no allocation.
func TestKeepCopiesOnlyTheRange(t *testing.T) {
	msg := []byte("head|payload|tail")
	before := buf.Outstanding()
	d := deliverOne(t, &SessionTable{Alg: SelectiveRepeat}, 1, msg, 0)
	if d.ref == nil {
		t.Fatal("a one-SDU delivery is not borrowed")
	}
	got := d.Keep(5, 12)
	if string(got) != "payload" || cap(got) != len(got) {
		t.Fatalf("borrowed Keep = %q (cap %d), want an exact-size %q", got, cap(got), "payload")
	}
	if d.ref != nil || string(d.Data) != "payload" {
		t.Fatalf("after Keep: borrowed %v, Data %q", d.ref != nil, d.Data)
	}
	if held := buf.Outstanding() - before; held != 0 {
		t.Fatalf("%d buffers still pinned after Keep", held)
	}

	owned := Delivery{Data: []byte("head|payload|tail")}
	var kept []byte
	if n := testing.AllocsPerRun(10, func() { o := owned; kept = o.Keep(5, 12) }); n != 0 && !raceDetector {
		t.Fatalf("owned Keep allocates %v", n)
	}
	if string(kept) != "payload" || &kept[0] != &owned.Data[5] {
		t.Fatalf("owned Keep = %q, not a slice of Data", kept)
	}
	if all := d.Bytes(); string(all) != "payload" {
		t.Fatalf("Bytes after Keep = %q", all)
	}
}
