package errctl

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"ncs/internal/buf"
	"ncs/internal/packet"
)

// The property test drives each error-control mode's sender/receiver
// pair through seeded impairment schedules — loss, duplication, and
// reordering on both the data and the acknowledgment channel — and
// asserts the §3.2 delivery contracts:
//
//   - selective repeat and go-back-N deliver the message exactly, in
//     order, with no duplicated or missing bytes, and report zero lost
//     SDUs;
//   - None assembles exactly the segments that arrived (in sequence
//     order) and reports the missing ones via LostSDUs;
//   - every pooled buffer the receivers retain is released by delivery
//     or Abandon (checked via the buf refcount audit hook);
//   - none of it depends on a fresh state machine: each schedule draws
//     its sender and receiver from the pools and hands them back, so
//     the next schedule — another message length, SDU size, loss
//     pattern, often another completion state — runs on whatever the
//     previous ones left behind.
//
// Each schedule is one seed: the channel's drop/duplicate/reorder
// decisions all derive from it, so a failing seed replays exactly —
// rerun with -run 'TestErrctlProperty/<mode>/seed<N>'.

// propSchedule is one seeded channel behaviour.
type propSchedule struct {
	rng      *rand.Rand
	dropData float64 // per-delivery data SDU loss
	dupData  float64 // per-delivery data SDU duplication
	dropAck  float64 // per-delivery ack loss
	reorder  float64 // probability a delivery picks a random queue slot
}

// inflight carries a copied control packet (the Receiver's scratch
// slice and the ack bodies are only borrowed until the next OnData).
func copyControl(c packet.Control) packet.Control {
	body := make([]byte, len(c.Body))
	copy(body, c.Body)
	c.Body = body
	return c
}

// pick removes a queue element: usually the head (FIFO), sometimes a
// random slot (reordering).
func pickSDU(sch *propSchedule, q *[]SDU) SDU {
	i := 0
	if len(*q) > 1 && sch.rng.Float64() < sch.reorder {
		i = sch.rng.Intn(len(*q))
	}
	v := (*q)[i]
	*q = append((*q)[:i], (*q)[i+1:]...)
	return v
}

func pickCtrl(sch *propSchedule, q *[]packet.Control) packet.Control {
	i := 0
	if len(*q) > 1 && sch.rng.Float64() < sch.reorder {
		i = sch.rng.Intn(len(*q))
	}
	v := (*q)[i]
	*q = append((*q)[:i], (*q)[i+1:]...)
	return v
}

// deliverData hands one SDU to the receiver through a pooled buffer,
// mimicking the receive path's ownership contract: the receiver must
// retain the ref to keep the payload, and the caller releases its own
// reference immediately after OnData returns.
func deliverData(rcv Receiver, sdu SDU) ([]packet.Control, bool) {
	b := buf.Get(len(sdu.Payload))
	copy(b.B, sdu.Payload)
	acks, done := rcv.OnData(sdu.Header, b.B, b)
	out := make([]packet.Control, len(acks))
	for i, a := range acks {
		out[i] = copyControl(a)
	}
	b.Release()
	return out, done
}

func runPropertySchedule(t *testing.T, mode Algorithm, seed int64) {
	t.Helper()
	baseline := buf.Outstanding()
	rng := rand.New(rand.NewSource(seed))
	sch := &propSchedule{
		rng:      rng,
		dropData: 0.05 + 0.3*rng.Float64(),
		dupData:  0.2 * rng.Float64(),
		dropAck:  0.25 * rng.Float64(),
		reorder:  0.4 * rng.Float64(),
	}
	msg := make([]byte, rng.Intn(6*1024))
	rng.Read(msg)
	sduSize := 128 << rng.Intn(3) // 128, 256, 512 → multi-SDU messages

	snd := NewSender(mode, msg, sduSize, 1, 1)
	rcv := NewReceiver(mode)

	dataQ := append([]SDU(nil), snd.Initial()...)
	var ackQ []packet.Control
	seen := make(map[uint32]bool) // data seqs ever delivered (for None)
	rcvDone := false

	const budget = 200_000
	for step := 0; step < budget; step++ {
		if snd.Done() && (rcvDone || mode == None) && len(dataQ) == 0 {
			break
		}
		switch {
		case len(dataQ) > 0:
			sdu := pickSDU(sch, &dataQ)
			n := 1
			if sch.rng.Float64() < sch.dupData {
				n = 2
			}
			if sch.rng.Float64() < sch.dropData {
				n--
			}
			for ; n > 0; n-- {
				wasDone := rcvDone
				acks, done := deliverData(rcv, sdu)
				if !wasDone {
					// A None receiver ignores segments arriving after
					// the End SDU completed the session.
					seen[sdu.Header.Seq] = true
				}
				rcvDone = rcvDone || done
				ackQ = append(ackQ, acks...)
			}
		case len(ackQ) > 0:
			a := pickCtrl(sch, &ackQ)
			if sch.rng.Float64() < sch.dropAck {
				continue
			}
			rt, _, err := snd.OnAck(a)
			if err != nil && err != ErrSessionDone {
				t.Fatalf("OnAck: %v", err)
			}
			dataQ = append(dataQ, rt...)
		default:
			// Both channels idle: the retransmission timer fires.
			dataQ = append(dataQ, snd.OnTimeout()...)
		}
	}

	switch mode {
	case SelectiveRepeat, GoBackN:
		if !snd.Done() {
			t.Fatalf("sender never completed (drop=%.2f dup=%.2f ackdrop=%.2f reorder=%.2f, %d SDUs)",
				sch.dropData, sch.dupData, sch.dropAck, sch.reorder, len(Segment(msg, sduSize, 1, 1, 0)))
		}
		if !rcvDone {
			t.Fatal("receiver never completed")
		}
		got := rcv.Message()
		if !bytes.Equal(got, msg) {
			t.Fatalf("message corrupted: got %d bytes, want %d (in-order, no-duplicate delivery violated)",
				len(got), len(msg))
		}
		if lost := rcv.LostSDUs(); lost != 0 {
			t.Fatalf("reliable mode reported %d lost SDUs", lost)
		}
	case None:
		if rcvDone {
			// Honest reassembly: the message is exactly the segments
			// that arrived, in sequence order, and LostSDUs counts the
			// holes.
			sdus := Segment(msg, sduSize, 1, 1, packet.FlagUnreliable)
			var want []byte
			lost := 0
			for _, sdu := range sdus {
				if seen[sdu.Header.Seq] {
					want = append(want, sdu.Payload...)
				} else {
					lost++
				}
			}
			if got := rcv.Message(); !bytes.Equal(got, want) {
				t.Fatalf("None mode assembled %d bytes, want %d (segments out of order or duplicated)",
					len(got), len(want))
			}
			if rcv.LostSDUs() != lost {
				t.Fatalf("LostSDUs = %d, want %d", rcv.LostSDUs(), lost)
			}
		} else {
			rcv.Abandon()
		}
	}
	Release(snd)
	Recycle(rcv)
	if now := buf.Outstanding(); now != baseline {
		t.Fatalf("receiver leaked %d pooled buffer refs", now-baseline)
	}
}

func TestErrctlProperty(t *testing.T) {
	schedules := 1000
	if testing.Short() {
		schedules = 100
	}
	for _, mode := range []Algorithm{SelectiveRepeat, GoBackN, None} {
		t.Run(mode.String(), func(t *testing.T) {
			for seed := 0; seed < schedules; seed++ {
				seed := seed
				t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
					runPropertySchedule(t, mode, int64(seed))
				})
			}
		})
	}
}
