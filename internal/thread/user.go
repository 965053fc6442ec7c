package thread

import (
	"sync"
)

// userPackage is a cooperative, run-to-block scheduler. At most one
// managed thread executes at any instant; the dispatcher hands the
// processor to the head of the ready queue and waits for the thread to
// pause (yield, block on a primitive, or exit). Context switches are a
// pair of channel handoffs — far cheaper than a kernel crossing, which
// is the user-level advantage measured in Figure 10's small-message
// region.
type userPackage struct {
	mu      sync.Mutex
	ready   []*uthread
	readyCh chan struct{} // signals the dispatcher that ready is non-empty
	closed  bool
	live    int // spawned threads that have not exited

	current *uthread // thread currently holding the processor

	done chan struct{}
}

var _ Package = (*userPackage)(nil)

type uthread struct {
	t      *Thread
	resume chan struct{} // dispatcher → thread: run
	paused chan struct{} // thread → dispatcher: gave up the processor
	exited bool
}

// NewUser returns a user-level (QuickThreads-style) cooperative package.
// The dispatcher runs until Shutdown.
func NewUser() Package {
	u := &userPackage{
		readyCh: make(chan struct{}, 1),
		done:    make(chan struct{}),
	}
	go u.dispatch()
	return u
}

func (u *userPackage) Model() Model { return UserLevel }

func (u *userPackage) Spawn(name string, fn func()) (*Thread, error) {
	u.mu.Lock()
	if u.closed {
		u.mu.Unlock()
		return nil, ErrSchedulerClosed
	}
	u.live++
	u.mu.Unlock()

	ut := &uthread{
		t:      &Thread{name: name, done: make(chan struct{})},
		resume: make(chan struct{}),
		paused: make(chan struct{}),
	}
	go func() {
		<-ut.resume // wait to be scheduled the first time
		fn()
		close(ut.t.done)
		u.mu.Lock()
		u.live--
		u.mu.Unlock()
		ut.exited = true
		ut.paused <- struct{}{}
	}()
	u.enqueue(ut)
	return ut.t, nil
}

// Yield moves the calling thread to the back of the ready queue and
// hands the processor to the dispatcher.
func (u *userPackage) Yield() {
	ut := u.current
	if ut == nil {
		// Called from outside a managed thread; nothing to do.
		return
	}
	u.enqueue(ut)
	ut.paused <- struct{}{}
	<-ut.resume
}

// Block gives up the processor for fn's duration: fn runs beside the
// scheduler, which dispatches other threads meanwhile, and the thread
// queues for the processor again when fn returns.
func (u *userPackage) Block(fn func()) {
	ut := u.current
	if ut == nil {
		fn() // called from outside a managed thread
		return
	}
	ut.paused <- struct{}{}
	fn()
	u.enqueue(ut)
	<-ut.resume
}

// park blocks the calling thread without re-queuing it; some other
// component will re-enqueue it (mutex unlock, semaphore release).
func (u *userPackage) park() *uthread {
	ut := u.current
	ut.paused <- struct{}{}
	<-ut.resume
	return ut
}

func (u *userPackage) enqueue(ut *uthread) {
	u.mu.Lock()
	u.ready = append(u.ready, ut)
	u.mu.Unlock()
	select {
	case u.readyCh <- struct{}{}:
	default:
	}
}

func (u *userPackage) dispatch() {
	defer close(u.done)
	for {
		u.mu.Lock()
		var next *uthread
		if len(u.ready) > 0 {
			next = u.ready[0]
			u.ready = u.ready[1:]
		}
		closed := u.closed
		live := u.live
		u.mu.Unlock()

		if next == nil {
			if closed && live == 0 {
				return
			}
			<-u.readyCh
			continue
		}

		u.current = next
		next.resume <- struct{}{} // run it
		<-next.paused             // until it pauses
		u.current = nil
	}
}

func (u *userPackage) NewMutex() Mutex { return &userMutex{u: u} }

func (u *userPackage) NewSemaphore(initial int) Semaphore {
	return &userSemaphore{u: u, count: initial}
}

// Shutdown waits for all threads to finish, then stops the dispatcher.
// Threads that are parked forever (e.g. on a semaphore nobody releases)
// make Shutdown hang; release them first.
func (u *userPackage) Shutdown() {
	u.mu.Lock()
	u.closed = true
	u.mu.Unlock()
	select {
	case u.readyCh <- struct{}{}:
	default:
	}
	<-u.done
}

// userMutex blocks by parking the calling thread; no kernel involvement.
// Because only one thread runs at a time, the state fields need no
// additional lock beyond brief critical sections against Spawn.
type userMutex struct {
	u       *userPackage
	mu      sync.Mutex // protects held/waiters against external callers
	held    bool
	waiters []*uthread
}

func (m *userMutex) Lock() {
	m.mu.Lock()
	if !m.held {
		m.held = true
		m.mu.Unlock()
		return
	}
	ut := m.u.current
	if ut == nil {
		// External (non-managed) caller: spin-wait via the package's
		// cooperative semantics by polling. Rare; supported for tests.
		for {
			m.mu.Unlock()
			m.u.Yield()
			m.mu.Lock()
			if !m.held {
				m.held = true
				m.mu.Unlock()
				return
			}
		}
	}
	m.waiters = append(m.waiters, ut)
	m.mu.Unlock()
	m.u.park()
}

func (m *userMutex) Unlock() {
	m.mu.Lock()
	if len(m.waiters) == 0 {
		m.held = false
		m.mu.Unlock()
		return
	}
	next := m.waiters[0]
	m.waiters = m.waiters[1:]
	// Ownership passes directly to the woken thread.
	m.mu.Unlock()
	m.u.enqueue(next)
}

// userSemaphore parks waiters in user space.
type userSemaphore struct {
	u       *userPackage
	mu      sync.Mutex
	count   int
	waiters []*uthread
}

func (s *userSemaphore) Acquire() {
	s.mu.Lock()
	if s.count > 0 {
		s.count--
		s.mu.Unlock()
		return
	}
	ut := s.u.current
	if ut == nil {
		for {
			s.mu.Unlock()
			s.u.Yield()
			s.mu.Lock()
			if s.count > 0 {
				s.count--
				s.mu.Unlock()
				return
			}
		}
	}
	s.waiters = append(s.waiters, ut)
	s.mu.Unlock()
	s.u.park()
}

func (s *userSemaphore) Release() {
	s.mu.Lock()
	if len(s.waiters) == 0 {
		s.count++
		s.mu.Unlock()
		return
	}
	next := s.waiters[0]
	s.waiters = s.waiters[1:]
	s.mu.Unlock()
	s.u.enqueue(next)
}

// New returns the package for the requested model.
func New(m Model) Package {
	if m == UserLevel {
		return NewUser()
	}
	return NewKernel()
}
