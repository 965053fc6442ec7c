package netsim

import (
	"math/rand"
	"testing"
	"time"
)

// TestDueHeapOrder checks earliest-due-first with push order breaking
// ties, against a shuffled schedule with many equal due times.
func TestDueHeapOrder(t *testing.T) {
	base := time.Now()
	rng := rand.New(rand.NewSource(1))
	var h DueHeap[int]
	const n = 500
	dues := make([]time.Time, n)
	for i := range dues {
		dues[i] = base.Add(time.Duration(rng.Intn(8)) * time.Millisecond)
		h.Push(dues[i], i)
	}
	prev := -1
	for h.Len() > 0 {
		due := h.Next()
		i := h.Pop()
		if !dues[i].Equal(due) {
			t.Fatalf("value %d popped with due %v, pushed with %v", i, due, dues[i])
		}
		if prev >= 0 && (due.Before(dues[prev]) || due.Equal(dues[prev]) && i < prev) {
			t.Fatalf("value %d (due %v) popped after %d (due %v)", i, due, prev, dues[prev])
		}
		prev = i
	}
}
