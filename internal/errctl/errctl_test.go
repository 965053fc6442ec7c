package errctl

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"

	"ncs/internal/packet"
)

func TestAlgorithmString(t *testing.T) {
	want := map[Algorithm]string{
		None: "none", SelectiveRepeat: "selective-repeat", GoBackN: "go-back-n",
		Algorithm(77): "Algorithm(77)",
	}
	for a, s := range want {
		if a.String() != s {
			t.Errorf("String() = %q, want %q", a.String(), s)
		}
	}
}

func TestSegment(t *testing.T) {
	tests := []struct {
		name     string
		msgLen   int
		sduSize  int
		wantSDUs int
	}{
		{"empty", 0, 100, 1},
		{"one byte", 1, 100, 1},
		{"exact fit", 100, 100, 1},
		{"one over", 101, 100, 2},
		{"many", 1000, 100, 10},
		{"default size", 10000, 0, 3}, // 4K default
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			msg := bytes.Repeat([]byte{0xee}, tc.msgLen)
			sdus := Segment(msg, tc.sduSize, 1, 2, 0)
			if len(sdus) != tc.wantSDUs {
				t.Fatalf("got %d SDUs, want %d", len(sdus), tc.wantSDUs)
			}
			var total int
			for i, s := range sdus {
				if s.Header.Seq != uint32(i) {
					t.Fatalf("SDU %d has seq %d", i, s.Header.Seq)
				}
				if s.Header.End() != (i == len(sdus)-1) {
					t.Fatalf("SDU %d end bit wrong", i)
				}
				if int(s.Header.Length) != len(s.Payload) {
					t.Fatalf("SDU %d length mismatch", i)
				}
				total += len(s.Payload)
			}
			if total != tc.msgLen {
				t.Fatalf("segmented %d bytes, want %d", total, tc.msgLen)
			}
		})
	}
}

// keepAcks appends copies of acks to kept: ack bodies are the
// receiver's scratch, borrowed only until its next OnData.
func keepAcks(kept, acks []packet.Control) []packet.Control {
	for _, a := range acks {
		kept = append(kept, copyControl(a))
	}
	return kept
}

// deliver pushes SDUs through a receiver, returning all acks produced.
func deliver(r Receiver, sdus []SDU) (acks []packet.Control, done bool) {
	for _, s := range sdus {
		a, d := r.OnData(s.Header, s.Payload, nil)
		acks = keepAcks(acks, a)
		done = d
	}
	return acks, done
}

func TestSelectiveRepeatHappyPath(t *testing.T) {
	msg := bytes.Repeat([]byte("selectiverepeat"), 100)
	s := NewSender(SelectiveRepeat, msg, 128, 1, 1)
	r := NewReceiver(SelectiveRepeat)

	acks, done := deliver(r, s.Initial())
	if !done {
		t.Fatal("receiver not done after full delivery")
	}
	if len(acks) != 1 {
		t.Fatalf("got %d acks, want 1 (on end bit)", len(acks))
	}
	rt, sdone, err := s.OnAck(acks[0])
	if err != nil || !sdone || len(rt) != 0 {
		t.Fatalf("OnAck = %v, %v, %v", rt, sdone, err)
	}
	if !bytes.Equal(r.Message(), msg) {
		t.Fatal("message mismatch")
	}
}

func TestSelectiveRepeatRetransmitsExactlyMissing(t *testing.T) {
	msg := bytes.Repeat([]byte{1, 2, 3, 4}, 250) // 1000 bytes
	s := NewSender(SelectiveRepeat, msg, 100, 1, 1)
	r := NewReceiver(SelectiveRepeat)

	initial := s.Initial()
	if len(initial) != 10 {
		t.Fatalf("expected 10 SDUs, got %d", len(initial))
	}
	// Drop SDUs 2 and 7; keep the end SDU so the receiver acks.
	var kept []SDU
	for i, sdu := range initial {
		if i == 2 || i == 7 {
			continue
		}
		kept = append(kept, sdu)
	}
	acks, done := deliver(r, kept)
	if done {
		t.Fatal("receiver done despite missing SDUs")
	}
	if len(acks) != 1 {
		t.Fatalf("acks = %d, want 1", len(acks))
	}
	rt, sdone, err := s.OnAck(acks[0])
	if err != nil || sdone {
		t.Fatalf("OnAck: %v, %v", sdone, err)
	}
	if len(rt) != 2 || rt[0].Header.Seq != 2 || rt[1].Header.Seq != 7 {
		t.Fatalf("retransmit set wrong: %+v", rt)
	}
	for _, sdu := range rt {
		if sdu.Header.Flags&packet.FlagRetransmit == 0 {
			t.Fatal("retransmission not flagged")
		}
	}
	// The batch's last SDU must be end-flagged to trigger the next ack.
	if !rt[1].Header.End() {
		t.Fatal("last retransmitted SDU lacks end flag")
	}

	acks, done = deliver(r, rt)
	if !done {
		t.Fatal("receiver not done after retransmission")
	}
	_, sdone, err = s.OnAck(acks[len(acks)-1])
	if err != nil || !sdone {
		t.Fatalf("final OnAck: %v, %v", sdone, err)
	}
	if !bytes.Equal(r.Message(), msg) {
		t.Fatal("message corrupted by retransmission path")
	}
}

func TestSelectiveRepeatLostEndSDU(t *testing.T) {
	msg := make([]byte, 500)
	for i := range msg {
		msg[i] = byte(i)
	}
	s := NewSender(SelectiveRepeat, msg, 100, 1, 1)
	r := NewReceiver(SelectiveRepeat)

	initial := s.Initial()
	// Lose the final SDU: the receiver cannot ack, the sender times out
	// and retransmits the whole message (Figure 6).
	acks, done := deliver(r, initial[:len(initial)-1])
	if len(acks) != 0 || done {
		t.Fatalf("receiver acted without the end SDU: acks=%d done=%v", len(acks), done)
	}
	rt := s.OnTimeout()
	if len(rt) != len(initial) {
		t.Fatalf("timeout retransmitted %d SDUs, want all %d", len(rt), len(initial))
	}
	acks, done = deliver(r, rt)
	if !done {
		t.Fatal("not done after full retransmission")
	}
	if _, sdone, _ := s.OnAck(acks[len(acks)-1]); !sdone {
		t.Fatal("sender not done")
	}
	if !bytes.Equal(r.Message(), msg) {
		t.Fatal("message mismatch")
	}
}

func TestSelectiveRepeatLostAck(t *testing.T) {
	msg := make([]byte, 300)
	s := NewSender(SelectiveRepeat, msg, 100, 1, 1)
	r := NewReceiver(SelectiveRepeat)

	// Full delivery, but the ack vanishes; sender times out and resends
	// everything; receiver must tolerate duplicates and re-ack.
	_, done := deliver(r, s.Initial())
	if !done {
		t.Fatal("receiver should be done")
	}
	rt := s.OnTimeout()
	acks, _ := deliver(r, rt)
	if len(acks) == 0 {
		t.Fatal("receiver did not re-ack retransmitted end")
	}
	if _, sdone, _ := s.OnAck(acks[len(acks)-1]); !sdone {
		t.Fatal("sender stuck after duplicate-delivery ack")
	}
	if !bytes.Equal(r.Message(), msg) {
		t.Fatal("message mismatch after duplicates")
	}
}

func TestSelectiveRepeatIgnoresForeignControl(t *testing.T) {
	s := NewSender(SelectiveRepeat, []byte("x"), 10, 1, 1)
	rt, done, err := s.OnAck(packet.Control{Type: packet.CtrlCredit, Body: packet.CreditBody(1)})
	if rt != nil || done || err != nil {
		t.Fatalf("foreign control mishandled: %v %v %v", rt, done, err)
	}
}

func TestGoBackNHappyPath(t *testing.T) {
	msg := bytes.Repeat([]byte("gobackn!"), 64)
	s := NewSender(GoBackN, msg, 64, 3, 9)
	r := NewReceiver(GoBackN)

	acks, done := deliver(r, s.Initial())
	if !done {
		t.Fatal("receiver not done")
	}
	var sdone bool
	for _, a := range acks {
		_, sdone, _ = s.OnAck(a)
	}
	if !sdone {
		t.Fatal("sender not done after cumulative acks")
	}
	if !bytes.Equal(r.Message(), msg) {
		t.Fatal("message mismatch")
	}
}

func TestGoBackNGapTriggersNack(t *testing.T) {
	msg := make([]byte, 500)
	s := NewSender(GoBackN, msg, 100, 1, 1)
	r := NewReceiver(GoBackN)

	initial := s.Initial() // 5 SDUs
	// Deliver 0,1 then 3 (gap at 2).
	acks0, _ := deliver(r, initial[0:2])
	for _, a := range acks0 {
		s.OnAck(a)
	}
	acks, _ := r.OnData(initial[3].Header, initial[3].Payload, nil)
	if len(acks) != 1 || acks[0].Type != packet.CtrlNack {
		t.Fatalf("gap did not produce NACK: %+v", acks)
	}
	exp, _ := packet.ParseCreditBody(acks[0].Body)
	if exp != 2 {
		t.Fatalf("NACK expected seq = %d, want 2", exp)
	}
	rt, done, err := s.OnAck(acks[0])
	if err != nil || done {
		t.Fatal("sender mishandled NACK")
	}
	// Replay must start at 2 and run to the end.
	if len(rt) != 3 || rt[0].Header.Seq != 2 || rt[2].Header.Seq != 4 {
		t.Fatalf("replay wrong: %d SDUs starting at %d", len(rt), rt[0].Header.Seq)
	}
	facks, done := deliver(r, rt)
	if !done {
		t.Fatal("receiver not done after replay")
	}
	var sdone bool
	for _, a := range facks {
		_, sdone, _ = s.OnAck(a)
	}
	if !sdone || !bytes.Equal(r.Message(), msg) {
		t.Fatal("go-back-n recovery failed")
	}
}

func TestGoBackNTimeoutReplaysFromBase(t *testing.T) {
	msg := make([]byte, 300)
	s := NewSender(GoBackN, msg, 100, 1, 1)
	r := NewReceiver(GoBackN)

	initial := s.Initial() // 3 SDUs
	acks, _ := deliver(r, initial[:1])
	for _, a := range acks {
		s.OnAck(a)
	}
	// SDUs 1,2 lost entirely; sender times out.
	rt := s.OnTimeout()
	if len(rt) != 2 || rt[0].Header.Seq != 1 {
		t.Fatalf("timeout replay = %d SDUs from %d, want 2 from 1", len(rt), rt[0].Header.Seq)
	}
	facks, done := deliver(r, rt)
	if !done {
		t.Fatal("not done after timeout replay")
	}
	var sdone bool
	for _, a := range facks {
		_, sdone, _ = s.OnAck(a)
	}
	if !sdone {
		t.Fatal("sender not done")
	}
}

func TestNoneToleratesLoss(t *testing.T) {
	msg := bytes.Repeat([]byte{7}, 1000)
	s := NewSender(None, msg, 100, 1, 1)
	r := NewReceiver(None)

	if !s.Done() {
		t.Fatal("unreliable sender should be done immediately")
	}
	initial := s.Initial()
	for _, sdu := range initial {
		if sdu.Header.Flags&packet.FlagUnreliable == 0 {
			t.Fatal("unreliable SDU not flagged")
		}
	}
	// Drop SDUs 1 and 5, keep the rest including the end.
	var kept []SDU
	for i, sdu := range initial {
		if i == 1 || i == 5 {
			continue
		}
		kept = append(kept, sdu)
	}
	acks, done := deliver(r, kept)
	if len(acks) != 0 {
		t.Fatal("None receiver generated control traffic")
	}
	if !done {
		t.Fatal("None receiver should complete on end bit")
	}
	if got := r.LostSDUs(); got != 2 {
		t.Fatalf("LostSDUs = %d, want 2", got)
	}
	if n := len(r.Message()); n != 800 {
		t.Fatalf("message length = %d, want 800 (holes omitted)", n)
	}
}

// lossySimulate drives a sender/receiver pair over a channel that drops
// data packets and acks with the given probabilities. Returns the
// reconstructed message.
func lossySimulate(t *testing.T, alg Algorithm, msg []byte, sduSize int, dataLoss, ackLoss float64, seed int64) []byte {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	s := NewSender(alg, msg, sduSize, 1, 1)
	r := NewReceiver(alg)

	queue := s.Initial()
	flaggedThroughout(t, queue, false)
	const maxRounds = 200
	for round := 0; round < maxRounds; round++ {
		var acks []packet.Control
		progressed := false
		for _, sdu := range queue {
			if rng.Float64() < dataLoss {
				continue // dropped on the wire
			}
			progressed = true
			a, _ := r.OnData(sdu.Header, sdu.Payload, nil)
			acks = keepAcks(acks, a)
		}
		queue = nil
		sdone := s.Done()
		for _, a := range acks {
			if rng.Float64() < ackLoss {
				continue
			}
			rt, d, err := s.OnAck(a)
			if err != nil && err != ErrSessionDone {
				t.Fatalf("OnAck: %v", err)
			}
			flaggedThroughout(t, rt, true)
			queue = append(queue, rt...) // copies: rt is borrowed until the next OnAck
			sdone = sdone || d
		}
		if sdone {
			return r.Message()
		}
		if len(queue) == 0 {
			// Nothing in flight: the sender's retransmission timer fires.
			queue = s.OnTimeout()
			flaggedThroughout(t, queue, true)
			if len(queue) == 0 && !progressed {
				t.Fatalf("%v: stalled at round %d", alg, round)
			}
		}
	}
	t.Fatalf("%v: no convergence after %d rounds", alg, maxRounds)
	return nil
}

// flaggedThroughout checks what core's transmit relies on when it reads
// a whole batch's kind off its first SDU: a sender's Initial carries
// FlagRetransmit nowhere, a retransmission batch (OnAck's, OnTimeout's)
// on every SDU — each of which is one presumed loss to flow control.
func flaggedThroughout(t *testing.T, batch []SDU, want bool) {
	t.Helper()
	for i, sdu := range batch {
		if got := sdu.Header.Flags&packet.FlagRetransmit != 0; got != want {
			t.Fatalf("SDU %d of a %d-SDU batch: FlagRetransmit = %v, want %v throughout", i, len(batch), got, want)
		}
	}
}

func TestReliableAlgorithmsUnderHeavyLoss(t *testing.T) {
	msg := make([]byte, 5000)
	for i := range msg {
		msg[i] = byte(i * 31)
	}
	for _, alg := range []Algorithm{SelectiveRepeat, GoBackN} {
		t.Run(alg.String(), func(t *testing.T) {
			got := lossySimulate(t, alg, msg, 256, 0.3, 0.3, 99)
			if !bytes.Equal(got, msg) {
				t.Fatal("message corrupted under loss")
			}
		})
	}
}

// Property: both reliable algorithms deliver arbitrary messages intact
// across randomly lossy channels.
func TestQuickReliableDelivery(t *testing.T) {
	f := func(data []byte, seed int64, lossPct uint8) bool {
		if len(data) == 0 {
			data = []byte{0}
		}
		if len(data) > 4096 {
			data = data[:4096]
		}
		loss := float64(lossPct%60) / 100.0
		for _, alg := range []Algorithm{SelectiveRepeat, GoBackN} {
			s := NewSender(alg, data, 128, 1, 1)
			r := NewReceiver(alg)
			rng := rand.New(rand.NewSource(seed))
			queue := s.Initial()
			delivered := false
			for round := 0; round < 300 && !delivered; round++ {
				var acks []packet.Control
				for _, sdu := range queue {
					if rng.Float64() < loss {
						continue
					}
					a, _ := r.OnData(sdu.Header, sdu.Payload, nil)
					acks = keepAcks(acks, a)
				}
				queue = nil
				for _, a := range acks {
					if rng.Float64() < loss {
						continue
					}
					rt, d, _ := s.OnAck(a)
					queue = append(queue, rt...)
					delivered = delivered || d
				}
				if len(queue) == 0 && !delivered {
					queue = s.OnTimeout()
				}
			}
			if !delivered || !bytes.Equal(r.Message(), data) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// TestSegmentStreamStampsStreamID: every SDU of a stream session must
// carry the stream id, and the stream-0 wrapper must stamp zero.
func TestSegmentStreamStampsStreamID(t *testing.T) {
	msg := bytes.Repeat([]byte("x"), 300)
	for _, sdu := range SegmentStream(msg, 100, 7, 42, 9, 0) {
		if sdu.Header.StreamID != 42 {
			t.Fatalf("SDU %d stamped stream %d, want 42", sdu.Header.Seq, sdu.Header.StreamID)
		}
		if sdu.Header.ConnID != 7 || sdu.Header.SessionID != 9 {
			t.Fatalf("routing fields diverged: %+v", sdu.Header)
		}
	}
	for _, sdu := range Segment(msg, 100, 7, 9, 0) {
		if sdu.Header.StreamID != 0 {
			t.Fatalf("Segment stamped stream %d, want 0", sdu.Header.StreamID)
		}
	}
	for _, alg := range []Algorithm{None, SelectiveRepeat, GoBackN} {
		snd := NewSenderStream(alg, msg, 100, 7, 42, 9)
		for _, sdu := range snd.Initial() {
			if sdu.Header.StreamID != 42 {
				t.Fatalf("%v sender stamped stream %d, want 42", alg, sdu.Header.StreamID)
			}
		}
	}
}
