package buf

import (
	"sync/atomic"
	"unsafe"
)

// freeStripes is how many independently owned parts a FreeList spreads
// its values over, so that two goroutines rarely meet on one. A power
// of two.
const freeStripes = 8

// stripeBusy marks a stripe whose stack a goroutine is pushing or
// popping; the bits below it hold the stack's depth.
const stripeBusy = 1 << 31

// FreeList is a bounded free list of idle values of one kind — pooled
// buffers of one size class, protocol state machines, session records —
// owned by the message path rather than borrowed from the collector. It
// stands where a pool of package sync would, with two differences that
// are the point of it:
//
//   - It is GC-stable. The list is reachable from the package variable
//     that holds it, so a collection cycle neither empties it nor costs
//     it anything, and whether a Get allocates does not depend on how
//     often the collector runs (which, on the message path, is a
//     function of message size).
//   - It is bounded. It holds at most the capacity it was built with —
//     a constant stated, with its byte budget, where the list is
//     declared; a Put beyond it drops the value to the collector.
//
// Nobody ever waits on a FreeList. Each stripe is a front slot, taken
// and filled by one compare-and-swap, and behind it a LIFO stack
// guarded by one atomic word — a busy bit and the stack's depth — so an
// operation passes an empty, full or busy stripe without writing to it.
// It starts at the stripe its goroutine has an affinity for (see
// affinity) and moves on round the ring; at worst — every eligible
// stripe busy — a Get misses and a Put drops, both of which are merely
// an allocation. A goroutine that gets and puts in a loop therefore
// trades one value through its own front slot, in its own core's cache,
// at one atomic operation each way. (A sync.Mutex taken by TryLock per
// stripe is the plainer structure and was measured beside this one: two
// atomic operations each way, 67 against 52 ns for a buffer's get and
// release on one goroutine, 110 against 15–95 ns on two.) The zero value
// is not usable; build one with NewFreeList.
type FreeList[T any] struct {
	per     uint32    // capacity of one stripe's stack
	fresh   func() *T // builds a value when Get finds none idle
	stripes [freeStripes]freeStripe[T]
}

// freeStripe is one part of a FreeList, padded to a cache line so
// neighbouring stripes do not false-share.
type freeStripe[T any] struct {
	front atomic.Pointer[T] // one idle value, exchanged without the stack
	state atomic.Uint32     // stripeBusy | len(items)
	items []*T              // touched only with stripeBusy held
	_     [64 - 8 - 8 - 24]byte
}

// NewFreeList returns a free list holding at most capacity idle values
// (rounded up to a multiple of freeStripes); fresh builds the value Get
// returns when none is idle.
func NewFreeList[T any](capacity int, fresh func() *T) *FreeList[T] {
	// One of each stripe's values sits in its front slot.
	f := &FreeList[T]{per: uint32((capacity+freeStripes-1)/freeStripes) - 1, fresh: fresh}
	for i := range f.stripes {
		f.stripes[i].items = make([]*T, 0, f.per)
	}
	return f
}

// Get returns an idle value, or a fresh one when none is idle.
func (f *FreeList[T]) Get() *T {
	if v := f.TryGet(); v != nil {
		return v
	}
	return f.fresh()
}

// TryGet takes an idle value — a stripe's front slot first, then its
// stack, newest first — or returns nil when it found none.
func (f *FreeList[T]) TryGet() *T {
	start := affinity()
	for i := uint32(0); i < freeStripes; i++ {
		s := &f.stripes[(start+i)%freeStripes]
		if v := s.front.Load(); v != nil && s.front.CompareAndSwap(v, nil) {
			return v
		}
		n := s.state.Load()
		if n == 0 || n&stripeBusy != 0 || !s.state.CompareAndSwap(n, n|stripeBusy) {
			continue
		}
		v := s.items[n-1]
		s.items[n-1] = nil
		s.items = s.items[:n-1]
		s.state.Store(n - 1)
		return v
	}
	return nil
}

// Put leaves v for a later Get, and reports whether the list had room:
// when every stripe is full (or busy) v is dropped to the collector.
func (f *FreeList[T]) Put(v *T) bool {
	start := affinity()
	for i := uint32(0); i < freeStripes; i++ {
		s := &f.stripes[(start+i)%freeStripes]
		if s.front.Load() == nil && s.front.CompareAndSwap(nil, v) {
			return true
		}
		n := s.state.Load()
		if n >= f.per || !s.state.CompareAndSwap(n, n|stripeBusy) {
			continue // full, or busy (the bit makes n ≥ per)
		}
		s.items = append(s.items, v)
		s.state.Store(n + 1)
		return true
	}
	return false
}

// Len reports how many idle values the list holds.
func (f *FreeList[T]) Len() int {
	n := 0
	for i := range f.stripes {
		s := &f.stripes[i]
		if s.front.Load() != nil {
			n++
		}
		n += int(s.state.Load() &^ stripeBusy)
	}
	return n
}

// affinity picks the stripe an operation starts at: a hash of where the
// calling goroutine's stack is. It is only a hint — stacks move, and two
// goroutines may share a value — but it is stable from one call to the
// next on a goroutine and differs between goroutines, which is all the
// locality a free list needs, and the one thing a per-P pool has that a
// shared structure otherwise lacks.
func affinity() uint32 {
	var here byte
	return uint32(uintptr(unsafe.Pointer(&here))>>12) * 0x9E3779B1 >> 16
}
