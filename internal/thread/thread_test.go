package thread

import (
	"sync/atomic"
	"testing"
	"time"
)

func bothModels(t *testing.T, fn func(t *testing.T, p Package)) {
	t.Helper()
	for _, m := range []Model{KernelLevel, UserLevel} {
		t.Run(m.String(), func(t *testing.T) {
			p := New(m)
			defer p.Shutdown()
			fn(t, p)
		})
	}
}

func TestSpawnAndJoin(t *testing.T) {
	bothModels(t, func(t *testing.T, p Package) {
		var ran atomic.Bool
		th, err := p.Spawn("worker", func() { ran.Store(true) })
		if err != nil {
			t.Fatal(err)
		}
		th.Join()
		if !ran.Load() {
			t.Fatal("thread did not run")
		}
		if th.Name() != "worker" {
			t.Fatalf("Name = %q", th.Name())
		}
	})
}

func TestManyThreadsAllRun(t *testing.T) {
	bothModels(t, func(t *testing.T, p Package) {
		const n = 50
		var count atomic.Int32
		threads := make([]*Thread, n)
		for i := 0; i < n; i++ {
			th, err := p.Spawn("t", func() {
				count.Add(1)
				p.Yield()
				count.Add(1)
			})
			if err != nil {
				t.Fatal(err)
			}
			threads[i] = th
		}
		for _, th := range threads {
			th.Join()
		}
		if got := count.Load(); got != 2*n {
			t.Fatalf("count = %d, want %d", got, 2*n)
		}
	})
}

func TestMutexMutualExclusion(t *testing.T) {
	bothModels(t, func(t *testing.T, p Package) {
		mu := p.NewMutex()
		shared := 0
		const n, iters = 8, 100
		threads := make([]*Thread, n)
		for i := 0; i < n; i++ {
			th, err := p.Spawn("locker", func() {
				for j := 0; j < iters; j++ {
					mu.Lock()
					v := shared
					if j%3 == 0 {
						p.Yield() // widen the race window under the lock
					}
					shared = v + 1
					mu.Unlock()
				}
			})
			if err != nil {
				t.Fatal(err)
			}
			threads[i] = th
		}
		for _, th := range threads {
			th.Join()
		}
		if shared != n*iters {
			t.Fatalf("shared = %d, want %d", shared, n*iters)
		}
	})
}

func TestSemaphoreProducerConsumer(t *testing.T) {
	bothModels(t, func(t *testing.T, p Package) {
		items := p.NewSemaphore(0)
		var produced, consumed atomic.Int32
		cons, err := p.Spawn("consumer", func() {
			for i := 0; i < 20; i++ {
				items.Acquire()
				consumed.Add(1)
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		prod, err := p.Spawn("producer", func() {
			for i := 0; i < 20; i++ {
				produced.Add(1)
				items.Release()
				if i%5 == 0 {
					p.Yield()
				}
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		prod.Join()
		cons.Join()
		if consumed.Load() != 20 {
			t.Fatalf("consumed = %d", consumed.Load())
		}
	})
}

// TestUserLevelSerialExecution verifies that the user-level package runs
// at most one thread at a time: unsynchronised increments cannot race.
func TestUserLevelSerialExecution(t *testing.T) {
	p := NewUser()
	defer p.Shutdown()

	var inCritical atomic.Int32
	var maxSeen atomic.Int32
	threads := make([]*Thread, 10)
	for i := range threads {
		th, err := p.Spawn("serial", func() {
			for j := 0; j < 50; j++ {
				cur := inCritical.Add(1)
				if cur > maxSeen.Load() {
					maxSeen.Store(cur)
				}
				inCritical.Add(-1)
				if j%10 == 0 {
					p.Yield()
				}
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		threads[i] = th
	}
	for _, th := range threads {
		th.Join()
	}
	if maxSeen.Load() != 1 {
		t.Fatalf("max concurrent user threads = %d, want 1", maxSeen.Load())
	}
}

// TestUserLevelBlockingCallStallsProcess reproduces the §4.1 semantics:
// a user-level thread that blocks in an ordinary call (not a scheduler
// primitive) stalls every other thread in the package.
func TestUserLevelBlockingCallStallsProcess(t *testing.T) {
	p := NewUser()
	defer p.Shutdown()

	unblock := make(chan struct{})
	var bRan atomic.Bool

	a, err := p.Spawn("blocker", func() {
		<-unblock // models a blocking system call
	})
	if err != nil {
		t.Fatal(err)
	}
	b, err := p.Spawn("starved", func() { bRan.Store(true) })
	if err != nil {
		t.Fatal(err)
	}

	time.Sleep(20 * time.Millisecond)
	if bRan.Load() {
		t.Fatal("thread B ran while A was blocked in a system call; " +
			"user-level package should stall the whole process")
	}
	close(unblock)
	a.Join()
	b.Join()
	if !bRan.Load() {
		t.Fatal("thread B never ran after A unblocked")
	}
}

// TestUserLevelBlockJacket: a user-level thread that wraps its blocking
// call in Block gives up the processor, so another thread runs while it
// waits; when the call returns it queues for the processor again, and a
// thread holding it in a bare blocking call still stalls it — the jacket
// frees only the call it wraps.
func TestUserLevelBlockJacket(t *testing.T) {
	p := NewUser()
	defer p.Shutdown()

	unblockA, releaseH := make(chan struct{}), make(chan struct{})
	hRunning := make(chan struct{})
	var aBack atomic.Bool
	a, err := p.Spawn("jacketed", func() {
		p.Block(func() { <-unblockA })
		aBack.Store(true)
	})
	if err != nil {
		t.Fatal(err)
	}
	h, err := p.Spawn("holder", func() {
		close(hRunning)
		<-releaseH // a bare blocking call: holds the processor
	})
	if err != nil {
		t.Fatal(err)
	}

	select {
	case <-hRunning:
	case <-time.After(2 * time.Second):
		close(unblockA)
		close(releaseH)
		t.Fatal("no other thread ran while one waited in Block")
	}
	close(unblockA)
	time.Sleep(20 * time.Millisecond)
	if aBack.Load() {
		t.Fatal("a thread resumed from Block while another held the processor")
	}
	close(releaseH)
	h.Join()
	a.Join()
	if !aBack.Load() {
		t.Fatal("the jacketed thread never resumed")
	}
}

// TestKernelLevelBlockingCallOverlaps verifies the complementary
// behaviour: under the kernel-level package a blocked thread suspends
// alone and others keep running — the overlap behind Figure 10's
// large-message regime.
func TestKernelLevelBlockingCallOverlaps(t *testing.T) {
	p := NewKernel()
	defer p.Shutdown()

	unblock := make(chan struct{})
	bDone := make(chan struct{})

	_, err := p.Spawn("blocker", func() { <-unblock })
	if err != nil {
		t.Fatal(err)
	}
	_, err = p.Spawn("runner", func() { close(bDone) })
	if err != nil {
		t.Fatal(err)
	}

	select {
	case <-bDone:
	case <-time.After(2 * time.Second):
		t.Fatal("runner never ran while blocker was blocked")
	}
	close(unblock)
}

func TestYieldOutsideManagedThread(t *testing.T) {
	p := NewUser()
	defer p.Shutdown()
	p.Yield() // must not panic or deadlock
}

func TestSpawnAfterShutdown(t *testing.T) {
	bothModels(t, func(t *testing.T, p Package) {
		// bothModels defers Shutdown; shut down early here.
		p.Shutdown()
		if _, err := p.Spawn("late", func() {}); err != ErrSchedulerClosed {
			t.Fatalf("err = %v, want ErrSchedulerClosed", err)
		}
	})
}

func TestModelString(t *testing.T) {
	if KernelLevel.String() != "kernel-level" || UserLevel.String() != "user-level" {
		t.Fatal("Model.String misbehaving")
	}
}

func TestUserSpawnFromManagedThread(t *testing.T) {
	p := NewUser()
	defer p.Shutdown()

	var childRan atomic.Bool
	parent, err := p.Spawn("parent", func() {
		_, err := p.Spawn("child", func() { childRan.Store(true) })
		if err != nil {
			t.Errorf("child spawn: %v", err)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	parent.Join()
	// Let the dispatcher schedule the child.
	deadline := time.Now().Add(2 * time.Second)
	for !childRan.Load() {
		if time.Now().After(deadline) {
			t.Fatal("child never ran")
		}
		time.Sleep(time.Millisecond)
	}
}

// Context-switch cost comparison is the heart of §4.1's small-message
// claim: user-level switches must be no slower than kernel-level ones.
// We only assert both complete, and report the timings.
func BenchmarkContextSwitchUserLevel(b *testing.B) {
	p := NewUser()
	defer p.Shutdown()
	benchSwitch(b, p)
}

func BenchmarkContextSwitchKernelLevel(b *testing.B) {
	p := NewKernel()
	defer p.Shutdown()
	benchSwitch(b, p)
}

func benchSwitch(b *testing.B, p Package) {
	done := make(chan struct{})
	th, err := p.Spawn("ping", func() {
		for i := 0; i < b.N; i++ {
			p.Yield()
		}
		close(done)
	})
	if err != nil {
		b.Fatal(err)
	}
	_, err = p.Spawn("pong", func() {
		for {
			select {
			case <-done:
				return
			default:
				p.Yield()
			}
		}
	})
	if err != nil {
		b.Fatal(err)
	}
	th.Join()
}
