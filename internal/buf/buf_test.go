package buf

import (
	"runtime"
	"sync"
	"testing"
)

func TestGetSizesAndTiers(t *testing.T) {
	for _, n := range []int{0, 1, 255, 256, 257, 4096, 4096 + 24, 16 * 1024, 64 * 1024, 80 * 1024} {
		b := Get(n)
		if len(b.B) != n {
			t.Fatalf("Get(%d): len=%d", n, len(b.B))
		}
		if cap(b.B) < n {
			t.Fatalf("Get(%d): cap=%d", n, cap(b.B))
		}
		if b.Refs() != 1 {
			t.Fatalf("Get(%d): refs=%d, want 1", n, b.Refs())
		}
		b.Release()
	}
}

func TestPoolReuse(t *testing.T) {
	// A released buffer's storage comes back from its tier: the free
	// list is the message path's own, and no collection cycle empties
	// it. (It is the very next Get's unless the collector moved this
	// goroutine's stack, and with it its stripe, in between.)
	b := Get(4096)
	p := &b.B[0]
	b.Release()
	runtime.GC()
	runtime.GC()
	var taken []*Buffer
	defer func() {
		for _, c := range taken {
			c.Release()
		}
	}()
	for tiers[1].Len() > 0 {
		c := Get(4096)
		taken = append(taken, c)
		if &c.B[0] == p {
			return
		}
	}
	t.Fatal("released storage did not come back from its tier's free list")
}

func TestOversizedNeverPooled(t *testing.T) {
	b := Get(128 * 1024)
	if b.tier != -1 {
		t.Fatalf("oversized buffer assigned tier %d", b.tier)
	}
	b.Release() // must not panic or pool
}

func TestRetainReleaseCounts(t *testing.T) {
	b := Get(64)
	b.Retain()
	b.Retain()
	if got := b.Refs(); got != 3 {
		t.Fatalf("refs=%d, want 3", got)
	}
	b.Release()
	b.Release()
	if got := b.Refs(); got != 1 {
		t.Fatalf("refs=%d, want 1", got)
	}
	b.Release()
}

func TestOverReleasePanics(t *testing.T) {
	b := Get(64)
	b.Release()
	defer func() {
		if recover() == nil {
			t.Fatal("second Release did not panic")
		}
	}()
	b.Release()
}

func TestRetainAfterReleasePanics(t *testing.T) {
	b := Get(64)
	b.Release()
	defer func() {
		if recover() == nil {
			t.Fatal("Retain after full Release did not panic")
		}
	}()
	b.Retain()
}

func TestHandoffTransfersReference(t *testing.T) {
	b := Get(64)
	ref := b.Handoff()
	if ref != b {
		t.Fatal("Handoff must return the same buffer")
	}
	b.Release() // producer's reference
	if got := ref.Refs(); got != 1 {
		t.Fatalf("refs=%d after producer release, want 1", got)
	}
	ref.Release() // consumer's reference
}

func TestTakeBytesLastRef(t *testing.T) {
	b := Get(32)
	for i := range b.B {
		b.B[i] = byte(i)
	}
	p := b.B
	out := b.TakeBytes()
	if &out[0] != &p[0] {
		t.Fatal("TakeBytes with a sole reference must hand over the storage")
	}
}

func TestTakeBytesSharedCopies(t *testing.T) {
	b := Get(32)
	for i := range b.B {
		b.B[i] = byte(i)
	}
	b.Retain()
	out := b.TakeBytes() // one reference remains
	if &out[0] == &b.store[0] {
		t.Fatal("TakeBytes with outstanding references must copy")
	}
	for i := range out {
		if out[i] != byte(i) {
			t.Fatalf("copy diverges at %d", i)
		}
	}
	b.Release()
}

func TestConcurrentRetainRelease(t *testing.T) {
	const workers = 16
	const rounds = 2000
	b := Get(1024)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				b.Retain()
				_ = b.B[0]
				b.Release()
			}
		}()
	}
	wg.Wait()
	if got := b.Refs(); got != 1 {
		t.Fatalf("refs=%d after concurrent churn, want 1", got)
	}
	b.Release()
}

func TestAppendSpillKeepsPoolingSafe(t *testing.T) {
	b := Get(0)
	big := make([]byte, 128*1024)
	b.B = append(b.B, big...) // outgrows every tier: B leaves the store
	if len(b.B) != len(big) {
		t.Fatalf("append spill lost data: %d", len(b.B))
	}
	b.Release() // storage (not the spill) returns to the pool
	c := Get(16)
	if len(c.B) != 16 {
		t.Fatalf("pool corrupted after spill: len=%d", len(c.B))
	}
	c.Release()
}

func BenchmarkGetRelease4K(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		bb := Get(4096)
		bb.Release()
	}
}

func BenchmarkRetainRelease(b *testing.B) {
	bb := Get(4096)
	defer bb.Release()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		bb.Retain()
		bb.Release()
	}
}

// TestPoisonReleasedOverwritesOnLastRelease: the hook fills storage at
// the last Release, not before, so a view that outlived its reference
// reads 0xDB while the holders of live references read their bytes.
func TestPoisonReleasedOverwritesOnLastRelease(t *testing.T) {
	PoisonReleased(true)
	defer PoisonReleased(false)
	b := Get(8)
	copy(b.B, "borrowed")
	view := b.B
	b.Retain()
	b.Release()
	if string(view) != "borrowed" {
		t.Fatalf("poisoned with a reference still held: % x", view)
	}
	b.Release()
	for i, c := range view {
		if c != 0xDB {
			t.Fatalf("byte %d reads %#x after the last Release, want 0xDB", i, c)
		}
	}
}
