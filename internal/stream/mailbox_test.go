package stream

import (
	"testing"
)

func msgN(i int) Msg { return Msg{Data: []byte{byte(i), byte(i >> 8)}, Lost: i} }

// TestMailboxOrderAcrossGrowth pins FIFO order while the ring wraps and
// doubles under a consumer that lags by a varying amount.
func TestMailboxOrderAcrossGrowth(t *testing.T) {
	var b Mailbox
	next, want := 0, 0
	for round := 0; round < 40; round++ {
		for i := 0; i < 1+round%7; i++ {
			if !b.Put(msgN(next), false) {
				t.Fatalf("Put %d refused without direct", next)
			}
			next++
		}
		for i := 0; i < 1+round%5 && b.Len() > 0; i++ {
			m, ok := b.Pop()
			if !ok || m.Lost != want {
				t.Fatalf("Pop = %+v, %v; want message %d", m, ok, want)
			}
			want++
		}
	}
	for ; want < next; want++ {
		if m, ok := b.Pop(); !ok || m.Lost != want {
			t.Fatalf("drain Pop = %+v, %v; want message %d", m, ok, want)
		}
	}
	if _, ok := b.Pop(); ok || b.Len() != 0 {
		t.Fatal("drained mailbox still delivers")
	}
}

// TestMailboxLazyAndWarm pins the two memory properties the receive
// end is built for: a lane that never receives builds nothing, and a
// steady put/pop on a mailbox that has received allocates nothing — the
// ring keeps its storage across drains.
func TestMailboxLazyAndWarm(t *testing.T) {
	var b Mailbox
	if b.Cap() != 0 || b.bell != nil {
		t.Fatal("a mailbox built storage before its first Put")
	}
	b.Put(msgN(0), false)
	b.Pop()
	if b.Cap() == 0 {
		t.Fatal("the ring dropped its storage on drain")
	}
	m := msgN(1)
	if avg := testing.AllocsPerRun(10, func() {
		for i := 0; i < 1000; i++ {
			b.Put(m, false)
			if _, ok := b.Pop(); !ok {
				t.Fatal("Pop lost a message")
			}
		}
	}); avg != 0 {
		t.Fatalf("1000 put/pop pairs on a warm mailbox allocate %v times, want 0", avg)
	}
	b.Drop()
	if b.Cap() != 0 || b.Len() != 0 {
		t.Fatal("Drop kept storage or messages")
	}
}

// TestMailboxDirect pins the direct rule: the lane's own reader keeps a
// message only when nothing is queued ahead of it.
func TestMailboxDirect(t *testing.T) {
	var b Mailbox
	if b.Put(msgN(0), true) {
		t.Fatal("direct Put into an empty mailbox queued the message")
	}
	if b.Len() != 0 {
		t.Fatal("a message handed over directly was also queued")
	}
	b.Put(msgN(1), false)
	if !b.Put(msgN(2), true) {
		t.Fatal("direct Put jumped the queue")
	}
	for want := 1; want <= 2; want++ {
		if m, ok := b.Pop(); !ok || m.Lost != want {
			t.Fatalf("Pop = %+v, %v; want message %d", m, ok, want)
		}
	}
}

// TestMailboxBell pins the doorbell protocol two consumers of one lane
// rely on: capacity one, rung by Put, re-rung by a Pop that leaves
// messages behind, rung by Ring with nothing queued.
func TestMailboxBell(t *testing.T) {
	rung := func(b *Mailbox) bool {
		select {
		case <-b.Bell():
			return true
		default:
			return false
		}
	}
	var b Mailbox
	if rung(&b) {
		t.Fatal("a fresh bell was already rung")
	}
	b.Put(msgN(0), false)
	b.Put(msgN(1), false)
	if !rung(&b) || rung(&b) {
		t.Fatal("two Puts must leave the capacity-1 bell rung exactly once")
	}
	b.Pop()
	if !rung(&b) {
		t.Fatal("a Pop that left a message queued did not re-ring")
	}
	b.Pop()
	if rung(&b) {
		t.Fatal("the Pop that emptied the mailbox rang the bell")
	}
	b.Ring()
	if !rung(&b) {
		t.Fatal("Ring did not ring")
	}
}
