package transport

import (
	"sync"
	"time"

	"ncs/internal/buf"
)

// inq is the package's one arrival queue: what a transport's reader
// goroutine (UDP's socket reader, SCI's) received and nobody has taken
// yet. It is bounded, its notify hook fires on every push and at
// shutdown, and it drains fully before it reports ErrConnClosed — the
// netsim link's semantics, so every transport polls the same way. An
// embedding Conn gets its receive methods from it.
type inq struct {
	ch   chan *buf.Buffer
	dead chan struct{}

	mu     sync.Mutex
	closed bool
	notify func()
}

func (q *inq) init(depth int) {
	q.ch = make(chan *buf.Buffer, depth)
	q.dead = make(chan struct{})
}

// push enqueues an arrival, taking ownership of b. A full queue drops b
// and reports it (UDP's loss) or, with wait, blocks its reader until a
// pop makes room or the queue shuts down (SCI's back-pressure: a runtime
// that stops reading stops the socket's reader). A waiting push may land
// after a draining shutdown, so its owner drains again once the reader
// stopped. The hook fires outside the lock.
func (q *inq) push(b *buf.Buffer, wait bool) (dropped bool) {
	q.mu.Lock()
	if q.closed {
		q.mu.Unlock()
		b.Release()
		return false
	}
	select {
	case q.ch <- b:
	default:
		q.mu.Unlock()
		if !wait {
			b.Release()
			return true
		}
		select {
		case q.ch <- b:
		case <-q.dead:
			b.Release()
			return false
		}
		q.mu.Lock()
	}
	fn := q.notify
	q.mu.Unlock()
	if fn != nil {
		fn()
	}
	return false
}

// shutdown closes the queue. With drain, queued buffers are released
// (the local owner is done); without, they stay readable so a peer
// close delivers everything that arrived first. Idempotent, and a
// drain shutdown after a no-drain one still drains.
func (q *inq) shutdown(drain bool) {
	q.mu.Lock()
	if !q.closed {
		q.closed = true
		close(q.dead)
	}
	for drain {
		select {
		case b := <-q.ch:
			b.Release()
			continue
		default:
		}
		break
	}
	fn := q.notify
	q.mu.Unlock()
	if fn != nil {
		fn()
	}
}

// pop blocks for the next arrival, until the queue is closed and
// drained (ErrConnClosed) or deadline fires (ErrRecvTimeout); a nil
// deadline never fires.
func (q *inq) pop(deadline <-chan time.Time) (*buf.Buffer, error) {
	select {
	case b := <-q.ch:
		return b, nil
	default:
	}
	select {
	case b := <-q.ch:
		return b, nil
	case <-q.dead:
		return q.drained()
	case <-deadline:
		return nil, ErrRecvTimeout
	}
}

// drained is a closed queue's pop: anything pushed before the close is
// still in ch, so the queue drains before it errs.
func (q *inq) drained() (*buf.Buffer, error) {
	select {
	case b := <-q.ch:
		return b, nil
	default:
		return nil, ErrConnClosed
	}
}

// TryRecvBuf returns the next arrival without blocking: (nil, nil) when
// none has come.
func (q *inq) TryRecvBuf() (*buf.Buffer, error) {
	select {
	case b := <-q.ch:
		return b, nil
	case <-q.dead:
		return q.drained()
	default:
		return nil, nil
	}
}

// SetRecvNotify registers the hook every push and the shutdown fire; it
// fires once now.
func (q *inq) SetRecvNotify(fn func()) {
	q.mu.Lock()
	q.notify = fn
	q.mu.Unlock()
	if fn != nil {
		fn()
	}
}

// RecvBuf blocks for the next arrival.
func (q *inq) RecvBuf() (*buf.Buffer, error) { return q.pop(nil) }

// RecvBufTimeout is RecvBuf with a deadline.
func (q *inq) RecvBufTimeout(d time.Duration) (*buf.Buffer, error) {
	t := time.NewTimer(d)
	defer t.Stop()
	return q.pop(t.C)
}

// Recv is RecvBuf returning heap-lifetime bytes.
func (q *inq) Recv() ([]byte, error) { return takeBytes(q.RecvBuf()) }

// RecvTimeout is RecvBufTimeout returning heap-lifetime bytes.
func (q *inq) RecvTimeout(d time.Duration) ([]byte, error) {
	return takeBytes(q.RecvBufTimeout(d))
}

// takeBytes turns a pooled receive into a []byte one.
func takeBytes(b *buf.Buffer, err error) ([]byte, error) {
	if err != nil {
		return nil, err
	}
	return b.TakeBytes(), nil
}
