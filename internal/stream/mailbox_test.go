package stream

import (
	"runtime"
	"testing"
	"time"
)

// elem is how a mailbox test makes and reads back element i of type T.
type elem[T any] struct {
	mk func(i int) T
	id func(T) int
}

var (
	msgElem = elem[Msg]{
		mk: func(i int) Msg { return Msg{Data: []byte{byte(i), byte(i >> 8)}, Lost: i} },
		id: func(m Msg) int { return m.Lost },
	}
	ptrElem = elem[*int]{
		mk: func(i int) *int { return &i },
		id: func(p *int) int { return *p },
	}
)

// overElems runs one mailbox test over both kinds of element the
// runtime queues: a struct by value (messages, inbox deliveries) and a
// pointer (parked producers, accepted streams).
func overElems(t *testing.T, msg func(*testing.T, elem[Msg]), ptr func(*testing.T, elem[*int])) {
	t.Run("Msg", func(t *testing.T) { msg(t, msgElem) })
	t.Run("pointer", func(t *testing.T) { ptr(t, ptrElem) })
}

// TestMailboxOrderAcrossGrowth pins FIFO order while the ring wraps and
// doubles under a consumer that lags by a varying amount.
func TestMailboxOrderAcrossGrowth(t *testing.T) {
	overElems(t, orderAcrossGrowth[Msg], orderAcrossGrowth[*int])
}

func orderAcrossGrowth[T any](t *testing.T, e elem[T]) {
	var b Mailbox[T]
	next, want := 0, 0
	for round := 0; round < 40; round++ {
		for i := 0; i < 1+round%7; i++ {
			if !b.Put(e.mk(next), false) {
				t.Fatalf("Put %d refused without direct", next)
			}
			next++
		}
		for i := 0; i < 1+round%5 && b.Len() > 0; i++ {
			m, ok := b.Pop()
			if !ok || e.id(m) != want {
				t.Fatalf("Pop = %+v, %v; want element %d", m, ok, want)
			}
			want++
		}
	}
	for ; want < next; want++ {
		if m, ok := b.Pop(); !ok || e.id(m) != want {
			t.Fatalf("drain Pop = %+v, %v; want element %d", m, ok, want)
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
	overElems(t, lazyAndWarm[Msg], lazyAndWarm[*int])
}

func lazyAndWarm[T any](t *testing.T, e elem[T]) {
	var b Mailbox[T]
	if b.Cap() != 0 || b.bell != nil {
		t.Fatal("a mailbox built storage before its first Put")
	}
	b.Put(e.mk(0), false)
	b.Pop()
	if b.Cap() == 0 {
		t.Fatal("the ring dropped its storage on drain")
	}
	m := e.mk(1)
	if avg := testing.AllocsPerRun(10, func() {
		for i := 0; i < 1000; i++ {
			b.Put(m, false)
			if _, ok := b.Pop(); !ok {
				t.Fatal("Pop lost an element")
			}
		}
	}); avg != 0 {
		t.Fatalf("1000 put/pop pairs on a warm mailbox allocate %v times, want 0", avg)
	}
	b.Drop()
	if b.Cap() != 0 || b.Len() != 0 {
		t.Fatal("Drop kept storage or elements")
	}
}

// TestMailboxDirect pins the direct rule: the lane's own reader keeps a
// message only when nothing is queued ahead of it.
func TestMailboxDirect(t *testing.T) {
	overElems(t, direct[Msg], direct[*int])
}

func direct[T any](t *testing.T, e elem[T]) {
	var b Mailbox[T]
	if b.Put(e.mk(0), true) {
		t.Fatal("direct Put into an empty mailbox queued the element")
	}
	if b.Len() != 0 {
		t.Fatal("an element handed over directly was also queued")
	}
	b.Put(e.mk(1), false)
	if !b.Put(e.mk(2), true) {
		t.Fatal("direct Put jumped the queue")
	}
	for want := 1; want <= 2; want++ {
		if m, ok := b.Pop(); !ok || e.id(m) != want {
			t.Fatalf("Pop = %+v, %v; want element %d", m, ok, want)
		}
	}
}

// TestMailboxBell pins the doorbell protocol two consumers of one lane
// rely on: capacity one, rung by Put, re-rung by a Pop that leaves
// elements behind, rung by Ring with nothing queued.
func TestMailboxBell(t *testing.T) {
	overElems(t, bell[Msg], bell[*int])
}

func bell[T any](t *testing.T, e elem[T]) {
	var b Mailbox[T]
	rung := func() bool {
		select {
		case <-b.Bell():
			return true
		default:
			return false
		}
	}
	if rung() {
		t.Fatal("a fresh bell was already rung")
	}
	b.Put(e.mk(0), false)
	b.Put(e.mk(1), false)
	if !rung() || rung() {
		t.Fatal("two Puts must leave the capacity-1 bell rung exactly once")
	}
	b.Pop()
	if !rung() {
		t.Fatal("a Pop that left an element queued did not re-ring")
	}
	b.Pop()
	if rung() {
		t.Fatal("the Pop that emptied the mailbox rang the bell")
	}
	b.Ring()
	if !rung() {
		t.Fatal("Ring did not ring")
	}
}

// TestMailboxPopZeroesSlot: the ring keeps its storage across drains,
// so a popped slot must forget its element — with T's zero value,
// whatever T is — or the mailbox pins every payload it ever carried.
// The collector is the witness: a finalizer on the popped pointer runs
// while the mailbox, ring and all, is still alive.
func TestMailboxPopZeroesSlot(t *testing.T) {
	var b Mailbox[*[64]byte]
	finalized := make(chan struct{})
	func() {
		p := new([64]byte)
		runtime.SetFinalizer(p, func(*[64]byte) { close(finalized) })
		b.Put(p, false)
		if got, ok := b.Pop(); !ok || got != p {
			t.Fatal("Pop did not return the element Put queued")
		}
	}()
	deadline := time.After(5 * time.Second)
	for {
		runtime.GC()
		select {
		case <-finalized:
			if b.Cap() == 0 {
				t.Fatal("the ring dropped its storage: the slot was not what let go")
			}
			return
		case <-deadline:
			t.Fatal("the popped element was never collected: the ring still points at it")
		case <-time.After(10 * time.Millisecond):
		}
	}
}
