package bench

import (
	"sync"
	"sync/atomic"
	"time"

	"ncs/internal/platform"
	"ncs/internal/thread"
)

// wireSender is the interface the mini send path writes to: either a
// simulated socket (netsim.Endpoint) or the deterministic kernel-write
// sink used by Figure 11.
type wireSender interface {
	Send(p []byte) error
}

// writeSink models the native socket write the paper's Figure 11 uses
// as its baseline: a fixed kernel-entry cost plus a per-byte copy cost.
// The constants are scaled so that the Go runtime's threading overhead
// occupies the same relative position the 1998 numbers gave NCS: a few
// times the native cost at one byte, amortised to ~1 at 64 KB.
type writeSink struct {
	fixed time.Duration
	perKB time.Duration
	buf   []byte
}

func newWriteSink() *writeSink {
	return &writeSink{fixed: 500 * time.Nanosecond, perKB: 500 * time.Nanosecond}
}

func (s *writeSink) Send(p []byte) error {
	platform.Charge(s.fixed + time.Duration(int64(s.perKB)*int64(len(p))/1024))
	s.buf = append(s.buf[:0], p...)
	return nil
}

// miniSendPath is the test program of Figure 9 made concrete: an
// NCS-style Send Thread fed by a message queue, running on a selectable
// thread package, transmitting over a simulated socket with a bounded
// kernel send buffer. It is deliberately smaller than internal/core —
// the §4.1 experiment isolates the thread architecture, so everything
// else is held to the minimum the paper's test code uses.
type miniSendPath struct {
	pkg thread.Package
	ep  wireSender

	mu    sync.Mutex
	queue [][]byte
	items thread.Semaphore

	sent    atomic.Int64 // transmissions completed (for sync sends)
	sending atomic.Bool  // the Send Thread is inside ep.Send
	stopped atomic.Bool

	sendThread *thread.Thread
}

// newMiniSendPath spawns the Send Thread on the given package.
func newMiniSendPath(pkg thread.Package, ep wireSender) (*miniSendPath, error) {
	m := &miniSendPath{
		pkg:   pkg,
		ep:    ep,
		items: pkg.NewSemaphore(0),
	}
	th, err := pkg.Spawn("send-thread", m.sendLoop)
	if err != nil {
		return nil, err
	}
	m.sendThread = th
	return m, nil
}

// sendLoop is the Send Thread: wait for a queued request, transmit it.
// Blocking inside ep.Send is the crux of Figure 10: under the
// kernel-level package only this thread sleeps; under the user-level
// package the whole process stalls.
func (m *miniSendPath) sendLoop() {
	for {
		m.items.Acquire()
		if m.stopped.Load() {
			return
		}
		m.mu.Lock()
		pkt := m.queue[0]
		m.queue = m.queue[1:]
		m.mu.Unlock()

		m.sending.Store(true)
		_ = m.ep.Send(pkt)
		m.sending.Store(false)
		m.sent.Add(1)
	}
}

// send queues one message request and activates the Send Thread
// (NCS_send's queue + context switch, Table I rows 3–4). It does not
// wait for transmission.
func (m *miniSendPath) send(p []byte) {
	m.mu.Lock()
	m.queue = append(m.queue, p)
	m.mu.Unlock()
	m.items.Release()
	// Give the Send Thread the processor, as NCS_send's activation
	// context switch does. A no-op outside managed threads.
	m.pkg.Yield()
}

// sendSync queues one message and spins (yielding) until the Send
// Thread has transmitted it — the synchronous flow measured by Table I
// and Figure 11.
func (m *miniSendPath) sendSync(p []byte) {
	target := m.sent.Load() + 1
	m.send(p)
	for m.sent.Load() < target {
		m.pkg.Yield()
	}
}

// close stops the Send Thread.
func (m *miniSendPath) close() {
	m.stopped.Store(true)
	m.items.Release() // wake the send thread so it can observe stopped
	m.sendThread.Join()
}
