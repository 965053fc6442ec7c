// Package thread abstracts the two thread-package architectures the
// paper evaluates in §4.1:
//
//   - a kernel-level package (Pthread over Solaris in the paper): the
//     operating system schedules threads preemptively; a blocking system
//     call suspends only the calling thread, so communication overlaps
//     computation "for free", but thread creation, context switching and
//     synchronisation cross the kernel and are comparatively slow.
//   - a user-level package (QuickThreads in the paper): scheduling,
//     context switching and synchronisation happen entirely in user
//     space and are very fast, but the kernel sees a single thread of
//     control — one blocking system call stalls every thread in the
//     process.
//
// Here the kernel-level package maps threads to goroutines, and the
// user-level package is a cooperative run-to-block scheduler in which at
// most one thread executes at a time and control changes hands only at
// explicit Yield/blocking points. Crucially, a user-level thread that
// blocks in an ordinary call (for example a send on a full simulated
// socket buffer) never reaches a scheduling point, so the entire
// "process" stalls — reproducing the mechanism behind Figure 10.
//
// Block is the one way around that stall, and it must be asked for: a
// thread that wraps a blocking call in Block — the jacket a user-level
// package puts around a system call it knows may block — gives up the
// processor before the call and queues for it after. NCS's RPC workers
// wait for calls that way. An unwrapped blocking call still stalls the
// whole package, so Figure 10's mechanism is unchanged.
package thread

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
)

// Model identifies a thread package architecture.
type Model int

// The two architectures of §4.1.
const (
	// KernelLevel models a Pthread-style package.
	KernelLevel Model = iota + 1
	// UserLevel models a QuickThreads-style package.
	UserLevel
)

// String implements fmt.Stringer.
func (m Model) String() string {
	switch m {
	case KernelLevel:
		return "kernel-level"
	case UserLevel:
		return "user-level"
	default:
		return fmt.Sprintf("Model(%d)", int(m))
	}
}

// ErrSchedulerClosed is returned by Spawn after Shutdown.
var ErrSchedulerClosed = errors.New("thread: scheduler closed")

// Package is the thread API NCS builds on: thread management and
// synchronisation, per §2's "multithreading services".
type Package interface {
	// Model reports the architecture.
	Model() Model
	// Spawn starts a new thread running fn.
	Spawn(name string, fn func()) (*Thread, error)
	// Yield gives up the processor: the NCS_thread_yield() primitive.
	// Called from inside a thread.
	Yield()
	// Block runs fn, a call that may block outside the package — a
	// receive on a mailbox, a channel — as a jacket: at kernel level it
	// simply calls fn; at user level the calling thread gives up the
	// processor for fn's duration and queues for it again once fn
	// returns, so the other threads run meanwhile. Called from inside a
	// thread.
	Block(fn func())
	// NewMutex creates a mutual-exclusion lock.
	NewMutex() Mutex
	// NewSemaphore creates a counting semaphore with an initial count.
	NewSemaphore(initial int) Semaphore
	// Shutdown stops the package after all threads finish. It is safe
	// to call once from outside any managed thread.
	Shutdown()
}

// Thread is a handle on a spawned thread.
type Thread struct {
	name string
	done chan struct{}
}

// Name returns the thread's diagnostic name.
func (t *Thread) Name() string { return t.name }

// Join blocks until the thread has finished. Join must be called from
// outside the user-level scheduler (e.g. the test or benchmark driver);
// threads inside the scheduler should synchronise with semaphores.
func (t *Thread) Join() { <-t.done }

// Mutex is a lock usable from managed threads.
type Mutex interface {
	Lock()
	Unlock()
}

// Semaphore is a counting semaphore usable from managed threads.
type Semaphore interface {
	// Acquire decrements the count, blocking while it is zero.
	Acquire()
	// Release increments the count, waking one waiter.
	Release()
}

// ---------------------------------------------------------------------------
// Kernel-level package: direct goroutines.

type kernelPackage struct {
	wg     sync.WaitGroup
	mu     sync.Mutex
	closed bool
}

var _ Package = (*kernelPackage)(nil)

// NewKernel returns a kernel-level (Pthread-style) package.
func NewKernel() Package { return &kernelPackage{} }

func (k *kernelPackage) Model() Model { return KernelLevel }

func (k *kernelPackage) Spawn(name string, fn func()) (*Thread, error) {
	k.mu.Lock()
	if k.closed {
		k.mu.Unlock()
		return nil, ErrSchedulerClosed
	}
	k.wg.Add(1)
	k.mu.Unlock()

	t := &Thread{name: name, done: make(chan struct{})}
	go func() {
		defer k.wg.Done()
		defer close(t.done)
		fn()
	}()
	return t, nil
}

func (k *kernelPackage) Yield() { runtime.Gosched() }

func (k *kernelPackage) Block(fn func()) { fn() }

func (k *kernelPackage) NewMutex() Mutex { return &sync.Mutex{} }

func (k *kernelPackage) NewSemaphore(initial int) Semaphore {
	s := &kernelSemaphore{}
	s.cond = sync.NewCond(&s.mu)
	s.count = initial
	return s
}

func (k *kernelPackage) Shutdown() {
	k.mu.Lock()
	k.closed = true
	k.mu.Unlock()
	k.wg.Wait()
}

type kernelSemaphore struct {
	mu    sync.Mutex
	cond  *sync.Cond
	count int
}

func (s *kernelSemaphore) Acquire() {
	s.mu.Lock()
	defer s.mu.Unlock()
	for s.count == 0 {
		s.cond.Wait()
	}
	s.count--
}

func (s *kernelSemaphore) Release() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.count++
	s.cond.Signal()
}
