package netsim

import "time"

// DueHeap is a min-heap of values keyed by due time; values due at the
// same instant pop in the order they were pushed. That order is what
// lets a jittered packet overtake nothing while later packets overtake
// it — and what keeps two packets delayed to one instant from swapping.
// It is hand-rolled rather than container/heap because the latter boxes
// every element into an interface, putting an allocation per packet on
// the delivery hot path. The zero value is an empty heap; callers
// synchronise externally.
type DueHeap[T any] struct {
	q   []dueEntry[T]
	seq uint64 // push counter: the tiebreak among equal due times
}

type dueEntry[T any] struct {
	due time.Time
	seq uint64
	v   T
}

func (h *DueHeap[T]) less(i, j int) bool {
	if !h.q[i].due.Equal(h.q[j].due) {
		return h.q[i].due.Before(h.q[j].due)
	}
	return h.q[i].seq < h.q[j].seq
}

// Len reports how many values are waiting.
func (h *DueHeap[T]) Len() int { return len(h.q) }

// Push adds v, due at the given time.
func (h *DueHeap[T]) Push(due time.Time, v T) {
	h.q = append(h.q, dueEntry[T]{due: due, seq: h.seq, v: v})
	h.seq++
	i := len(h.q) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !h.less(i, parent) {
			break
		}
		h.q[i], h.q[parent] = h.q[parent], h.q[i]
		i = parent
	}
}

// Next returns the earliest due time; the heap must be non-empty.
func (h *DueHeap[T]) Next() time.Time { return h.q[0].due }

// Pop removes and returns the earliest-due value; the heap must be
// non-empty.
func (h *DueHeap[T]) Pop() T {
	top := h.q[0].v
	n := len(h.q) - 1
	h.q[0] = h.q[n]
	h.q[n] = dueEntry[T]{}
	h.q = h.q[:n]
	i := 0
	for {
		left, right := 2*i+1, 2*i+2
		least := i
		if left < n && h.less(left, least) {
			least = left
		}
		if right < n && h.less(right, least) {
			least = right
		}
		if least == i {
			return top
		}
		h.q[i], h.q[least] = h.q[least], h.q[i]
		i = least
	}
}
