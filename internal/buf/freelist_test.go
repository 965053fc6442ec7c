package buf

import (
	"sync"
	"sync/atomic"
	"testing"
)

type item struct{ id int }

func newItems(n int) []*item {
	s := make([]*item, n)
	for i := range s {
		s[i] = &item{id: i}
	}
	return s
}

// TestFreeListReuseOrder: on one goroutine a list is a front slot and a
// LIFO stack behind it — the value a get-put loop trades comes straight
// back, and deeper values return newest first.
func TestFreeListReuseOrder(t *testing.T) {
	f := NewFreeList(64, func() *item { return &item{id: -1} })
	if v := f.TryGet(); v != nil {
		t.Fatalf("empty list returned %+v", v)
	}
	if v := f.Get(); v.id != -1 {
		t.Fatalf("Get on an empty list returned %+v, want a fresh value", v)
	}
	it := newItems(4)
	for round := 0; round < 3; round++ {
		f.Put(it[0])
		if v := f.TryGet(); v != it[0] {
			t.Fatalf("round %d: put then get returned %+v, want the value just put", round, v)
		}
	}
	for _, v := range it {
		f.Put(v)
	}
	if n := f.Len(); n != 4 {
		t.Fatalf("Len = %d after 4 puts", n)
	}
	// it[0] took the front slot; 1, 2, 3 stacked behind it.
	for _, want := range []*item{it[0], it[3], it[2], it[1]} {
		if v := f.TryGet(); v != want {
			t.Fatalf("got %+v, want %+v", v, want)
		}
	}
	if v := f.TryGet(); v != nil || f.Len() != 0 {
		t.Fatalf("drained list returned %+v, Len %d", v, f.Len())
	}
}

// TestFreeListIsBounded: a list never holds more than its capacity; the
// Put that finds it full reports so and keeps no reference.
func TestFreeListIsBounded(t *testing.T) {
	const capacity = 16
	f := NewFreeList[item](capacity, nil)
	kept := 0
	for _, v := range newItems(3 * capacity) {
		if f.Put(v) {
			kept++
		}
	}
	if kept != capacity || f.Len() != capacity {
		t.Fatalf("list of capacity %d kept %d values, Len %d", capacity, kept, f.Len())
	}
	seen := map[*item]bool{}
	for v := f.TryGet(); v != nil; v = f.TryGet() {
		if seen[v] {
			t.Fatalf("value %+v handed out twice", v)
		}
		seen[v] = true
	}
	if len(seen) != capacity {
		t.Fatalf("drained %d values from a full list of %d", len(seen), capacity)
	}
}

// TestTierCapRespected: releasing more buffers than a tier keeps idle
// leaves the surplus to the collector, Outstanding still balances, and
// the retained bytes never pass the stated budget.
func TestTierCapRespected(t *testing.T) {
	before := Outstanding()
	const tier = 3 // 64 KB: the smallest cap, 16
	held := make([]*Buffer, 3*tierIdle[tier])
	for i := range held {
		held[i] = Get(tierSizes[tier])
	}
	if got := Outstanding() - before; got != int64(len(held)) {
		t.Fatalf("Outstanding rose by %d with %d buffers held", got, len(held))
	}
	for _, b := range held {
		b.Release()
	}
	if got := Outstanding(); got != before {
		t.Fatalf("Outstanding = %d after releasing everything, want %d", got, before)
	}
	if n := tiers[tier].Len(); n != tierIdle[tier] {
		t.Fatalf("tier keeps %d idle buffers, cap %d", n, tierIdle[tier])
	}
	var budget int64
	for i, n := range tierIdle {
		budget += int64(n) * int64(tierSizes[i])
	}
	if got := retainedBytes(); got > budget || got < int64(tierIdle[tier]*tierSizes[tier]) {
		t.Fatalf("buf.pool.retained_bytes = %d, budget %d", got, budget)
	}
}

// TestFreeListConcurrent: eight goroutines get and put across the
// stripes; every value is held by at most one of them at a time and
// none is lost or duplicated. Run with -race.
func TestFreeListConcurrent(t *testing.T) {
	const workers, rounds, values = 8, 20000, 24
	f := NewFreeList[item](64, nil)
	owned := make([]atomic.Int32, values)
	for _, v := range newItems(values) {
		f.Put(v)
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var mine []*item
			for i := 0; i < rounds; i++ {
				if v := f.TryGet(); v != nil {
					if owned[v.id].Add(1) != 1 {
						t.Errorf("value %d handed to two goroutines", v.id)
					}
					v.id += 0 // touch it: -race sees an unsynchronised hand-off
					mine = append(mine, v)
				}
				if len(mine) > 2 || (i%3 == 0 && len(mine) > 0) {
					v := mine[len(mine)-1]
					mine = mine[:len(mine)-1]
					owned[v.id].Add(-1)
					if !f.Put(v) {
						t.Errorf("Put dropped value %d from a list below capacity", v.id)
					}
				}
			}
			for _, v := range mine {
				owned[v.id].Add(-1)
				f.Put(v)
			}
		}()
	}
	wg.Wait()
	if n := f.Len(); n != values {
		t.Fatalf("%d values idle after the churn, want %d", n, values)
	}
}

// TestBuffersConcurrentAcrossStripes is the same churn through the real
// tiers: Get/Release from eight goroutines leaves Outstanding where it
// was.
func TestBuffersConcurrentAcrossStripes(t *testing.T) {
	before := Outstanding()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 5000; i++ {
				a, b := Get(64), GetCap(4096)
				a.B[0] = byte(w)
				b.B = append(b.B, byte(i))
				if i%2 == 0 {
					a, b = b, a
				}
				a.Release()
				b.Release()
			}
		}(w)
	}
	wg.Wait()
	if got := Outstanding(); got != before {
		t.Fatalf("Outstanding = %d after the churn, want %d", got, before)
	}
}

func BenchmarkFreeListGetPut(b *testing.B) {
	f := NewFreeList(64, func() *item { return new(item) })
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			f.Put(f.Get())
		}
	})
}
