package errctl

import (
	"bytes"
	"testing"

	"ncs/internal/buf"
	"ncs/internal/packet"
)

// The pooled state machines are held to two promises: a session cycle
// allocates nothing beyond the delivered copy, and a recycled instance
// carries nothing of the session before it.

// finalAck is the acknowledgment that completes an n-SDU session.
func finalAck(alg Algorithm, n int) packet.Control {
	if alg == GoBackN {
		return packet.Control{Type: packet.CtrlAck, Body: packet.CreditBody(uint32(n - 1))}
	}
	bm := packet.NewBitmap(n)
	for i := 0; i < n; i++ {
		bm.Clear(i)
	}
	return packet.Control{Type: packet.CtrlAck, Body: bm.Bytes()}
}

// feed delivers sdus to r through pooled buffers, as the receive paths
// do: the receiver must retain what it keeps.
func feed(r Receiver, sdus []SDU) (acks []packet.Control, done bool) {
	for _, s := range sdus {
		b := buf.GetCap(len(s.Payload))
		b.B = append(b.B, s.Payload...)
		acks, done = r.OnData(s.Header, b.B, b)
		b.Release()
	}
	return acks, done
}

func TestSenderCycleAllocatesNothing(t *testing.T) {
	if raceDetector {
		t.Skip("the race detector's instrumentation allocates")
	}
	msg := make([]byte, 4*1024)
	for _, alg := range []Algorithm{SelectiveRepeat, GoBackN} {
		ack := finalAck(alg, 4)
		cycle := func() {
			s := NewSender(alg, msg, 1024, 1, 1)
			if len(s.Initial()) != 4 {
				t.Fatalf("%v: %d SDUs, want 4", alg, len(s.Initial()))
			}
			if rt := s.OnTimeout(); len(rt) != 4 {
				t.Fatalf("%v: timeout replayed %d SDUs, want 4", alg, len(rt))
			}
			if _, done, err := s.OnAck(ack); err != nil || !done {
				t.Fatalf("%v: final ack: done=%v err=%v", alg, done, err)
			}
			Release(s)
		}
		cycle() // the first cycle builds the pooled sender's tables
		if n := testing.AllocsPerRun(200, cycle); n != 0 {
			t.Errorf("%v: acquire → segment → timeout → ack → release = %v allocs, want 0", alg, n)
		}
	}
}

func TestReceiverCycleAllocatesOnlyTheDelivery(t *testing.T) {
	if raceDetector {
		t.Skip("the race detector's instrumentation allocates")
	}
	msg := bytes.Repeat([]byte("reliable"), 512) // 4 KB
	for _, alg := range []Algorithm{SelectiveRepeat, GoBackN, None} {
		sdus := Segment(msg, 1024, 1, 1, 0)
		cycle := func() {
			r := NewReceiver(alg)
			if _, done := feed(r, sdus); !done {
				t.Fatalf("%v: not done after full delivery", alg)
			}
			if !bytes.Equal(r.Message(), msg) {
				t.Fatalf("%v: message mismatch", alg)
			}
			Recycle(r)
		}
		cycle()
		if n := testing.AllocsPerRun(200, cycle); n != 1 {
			t.Errorf("%v: receive → Message → Recycle = %v allocs, want 1 (the delivered copy)", alg, n)
		}
	}
}

// TestRecycledReceiverCarriesNothingOver alternates a 64-SDU and a
// short message through the pool. The short session loses its first
// SDU: a receiver that kept arrival bits, a length, an end flag or a
// message from the long session would complete it anyway, or deliver
// stale bytes.
func TestRecycledReceiverCarriesNothingOver(t *testing.T) {
	long := make([]byte, 64*100)
	for i := range long {
		long[i] = byte(i)
	}
	short := []byte("second-sdu-only-arrives-first")
	for _, alg := range []Algorithm{SelectiveRepeat, GoBackN, None} {
		for round := 0; round < 8; round++ {
			r := NewReceiver(alg)
			if _, done := feed(r, Segment(long, 100, 1, uint32(2*round), 0)); !done {
				t.Fatalf("%v round %d: long message incomplete", alg, round)
			}
			if !bytes.Equal(r.Message(), long) {
				t.Fatalf("%v round %d: long message corrupted", alg, round)
			}
			Recycle(r)

			r = NewReceiver(alg)
			if r.Message() != nil || r.LostSDUs() != 0 {
				t.Fatalf("%v round %d: fresh receiver already holds a message (lost=%d)", alg, round, r.LostSDUs())
			}
			sdus := Segment(short, 16, 1, uint32(2*round+1), 0) // 2 SDUs
			acks, done := feed(r, sdus[1:])
			switch alg {
			case SelectiveRepeat:
				var bm packet.Bitmap
				if done || len(acks) != 1 || bm.Decode(acks[0].Body) != nil || bm.Len() != 2 || !bm.Get(0) || bm.Get(1) {
					t.Fatalf("%v round %d: lost SDU 0 not reported missing (done=%v acks=%d)", alg, round, done, len(acks))
				}
			case GoBackN:
				if done || len(acks) != 1 || acks[0].Type != packet.CtrlNack {
					t.Fatalf("%v round %d: gap at SDU 0 not NACKed (done=%v)", alg, round, done)
				}
			case None:
				if got := r.Message(); !done || r.LostSDUs() != 1 || !bytes.Equal(got, short[16:]) {
					t.Fatalf("%v round %d: want SDU 1 alone with 1 lost, got lost=%d msg=%q", alg, round, r.LostSDUs(), got)
				}
			}
			if alg != None {
				// Recovery resends both SDUs (go-back-N discarded SDU 1).
				if _, done = feed(r, sdus); !done {
					t.Fatalf("%v round %d: short message incomplete after recovery", alg, round)
				}
				if got := r.Message(); !bytes.Equal(got, short) {
					t.Fatalf("%v round %d: short message = %q", alg, round, got)
				}
			}
			Recycle(r)
		}
	}
}

// TestAbandonRecycleReleasesBuffers: a half-received session evicted
// mid-flight must hand every retained receive buffer back.
func TestAbandonRecycleReleasesBuffers(t *testing.T) {
	msg := make([]byte, 64*100)
	for _, alg := range []Algorithm{SelectiveRepeat, GoBackN, None} {
		before := buf.Outstanding()
		r := NewReceiver(alg)
		feed(r, Segment(msg, 100, 1, 1, 0)[:32])
		if held := buf.Outstanding() - before; held != 32 {
			t.Fatalf("%v: %d buffers retained mid-session, want 32", alg, held)
		}
		r.Abandon()
		Recycle(r)
		if left := buf.Outstanding() - before; left != 0 {
			t.Fatalf("%v: %d buffers still retained after Abandon+Recycle", alg, left)
		}
		// Recycle alone must sweep too (a session never abandoned).
		r = NewReceiver(alg)
		feed(r, Segment(msg, 100, 1, 2, 0)[:8])
		Recycle(r)
		if left := buf.Outstanding() - before; left != 0 {
			t.Fatalf("%v: %d buffers still retained after Recycle", alg, left)
		}
	}
}

// TestReleasedSenderHoldsNoMessageReference: neither the SDU table nor
// the retransmission scratch — anywhere in their capacity — may still
// point into the caller's message once the sender is back in the pool.
func TestReleasedSenderHoldsNoMessageReference(t *testing.T) {
	msg := make([]byte, 16*64)
	check := func(alg Algorithm, seg *segmented) {
		t.Helper()
		for name, tab := range map[string][]SDU{"sdus": seg.sdus, "rt": seg.rt} {
			if len(tab) != 0 {
				t.Errorf("%v: released sender keeps %d entries in %s", alg, len(tab), name)
			}
			for i, sdu := range tab[:cap(tab)] {
				if sdu.Payload != nil {
					t.Fatalf("%v: %s[%d] still references the message", alg, name, i)
				}
			}
		}
		if seg.done {
			t.Errorf("%v: released sender still done", alg)
		}
	}
	sr := newSRSender(msg, 64, 1, 0, 1)
	sr.OnTimeout()                                                           // fills rt with 16 entries
	sr.OnAck(packet.Control{Type: packet.CtrlAck, Body: missingOnly(16, 3)}) // shrinks it to 1
	Release(sr)
	check(SelectiveRepeat, &sr.segmented)

	gbn := newGBNSender(msg, 64, 1, 0, 1)
	gbn.OnTimeout()
	gbn.OnAck(packet.Control{Type: packet.CtrlNack, Body: packet.CreditBody(12)})
	Release(gbn)
	check(GoBackN, &gbn.segmented)
	if again := newGBNSender(msg[:64], 64, 1, 0, 2); again.base != 0 || again.nackedAt != -1 {
		t.Errorf("go-back-n: reused sender starts at base=%d nackedAt=%d", again.base, again.nackedAt)
	}
}

// missingOnly encodes an n-SDU ack bitmap with only seq still missing.
func missingOnly(n, seq int) []byte {
	bm := packet.NewBitmap(n)
	for i := 0; i < n; i++ {
		if i != seq {
			bm.Clear(i)
		}
	}
	return bm.Bytes()
}
