package core

import (
	"sync"
	"time"
)

// The timer wheel is the sharded runtime's answer to timer scale-out,
// the same trade the shard pool makes for goroutines. The threaded
// runtime gives every connection a heartbeat ticker goroutine —
// faithful to the paper's thread-per-function architecture, and fine
// at hundreds of connections. At 100k connections that is 100k runtime
// timers parked in the Go timer heap for the common case where nothing
// ever fires.
//
// Instead, a System owns one hashed timing wheel: a ring of slots
// advanced by a single coarse ticker, with each armed timer hashed to
// the slot matching its deadline (plus a rounds counter for deadlines
// beyond one revolution). Arming, re-arming, and cancelling are O(1)
// appends and flag flips; the wheel goroutine exists only while the
// wheel is running, and the wheel itself starts lazily on the first
// armed timer — a System whose connections never arm one (no
// heartbeats) costs zero timers and zero timer goroutines no matter
// how many connections it carries.
//
// The price is granularity: a wheel timer fires up to one tick late,
// which heartbeats tolerate — silence windows are multiples of the
// (millisecond-scale) interval. Retransmission timers are not wheel
// clients: they live in the pooled send session (conn.go), armed only
// while a Send is in flight, on every runtime.

const (
	// wheelTick is the wheel's granularity: armed timers fire within
	// one tick after their deadline.
	wheelTick = time.Millisecond
	// wheelSlotCount is the ring size; deadlines beyond
	// wheelTick×wheelSlotCount carry a rounds counter.
	wheelSlotCount = 256
)

// wheelTimer is one timer on the wheel. Entries in the ring reference
// the timer together with the generation at arm time; Reset and Stop
// bump the generation, so a stale ring entry (an earlier arm that was
// since re-armed or cancelled) is recognised and skipped when its slot
// comes up — cancellation never has to search the ring.
type wheelTimer struct {
	w  *timerWheel
	fn func() // runs on the wheel goroutine, outside the wheel lock

	// Guarded by w.mu.
	gen   uint64
	armed bool
}

// wheelEntry is one arming of a timer, parked in a slot.
type wheelEntry struct {
	t      *wheelTimer
	gen    uint64
	rounds int // full revolutions remaining before it fires
}

// timerWheel is the System-wide hashed timing wheel.
type timerWheel struct {
	mu    sync.Mutex
	slots [wheelSlotCount][]wheelEntry
	pos   int // slot the next tick advances into
	live  int // armed timers

	started bool
	stopped bool
	quit    chan struct{}
	wg      sync.WaitGroup

	// fired is scratch for the entries one tick expires, reused across
	// ticks so steady-state firing does not allocate.
	fired []wheelEntry
}

func newTimerWheel() *timerWheel {
	return &timerWheel{quit: make(chan struct{})}
}

// newTimer creates an unarmed timer whose fn runs on the wheel
// goroutine when it expires. fn must not block for long — it shares the
// goroutine with every other timer on the System — and may re-arm its
// own timer (periodic use) or arm others.
func (w *timerWheel) newTimer(fn func()) *wheelTimer {
	return &wheelTimer{w: w, fn: fn}
}

// reset (re-)arms the timer to fire d from now, cancelling any earlier
// arming. It starts the wheel goroutine on first use.
func (t *wheelTimer) reset(d time.Duration) {
	w := t.w
	ticks := int(d / wheelTick)
	// Rounding up plus one guard tick guarantees the timer never fires
	// early: the current tick may be mid-flight.
	if time.Duration(ticks)*wheelTick < d {
		ticks++
	}
	ticks++
	w.mu.Lock()
	t.gen++
	if !t.armed {
		t.armed = true
		w.live++
		mWheelArmed.Inc()
	}
	slot := (w.pos + ticks) % wheelSlotCount
	w.slots[slot] = append(w.slots[slot], wheelEntry{t: t, gen: t.gen, rounds: ticks / wheelSlotCount})
	w.startLocked()
	w.mu.Unlock()
}

// stop cancels the timer if armed. A callback already extracted for
// firing still runs (the time.Timer.Stop caveat); wheel clients
// tolerate one late fire.
func (t *wheelTimer) stop() {
	w := t.w
	w.mu.Lock()
	t.gen++
	if t.armed {
		t.armed = false
		w.live--
		mWheelArmed.Dec()
	}
	w.mu.Unlock()
}

// pending reports whether the timer is armed.
func (t *wheelTimer) pending() bool {
	t.w.mu.Lock()
	defer t.w.mu.Unlock()
	return t.armed
}

// startLocked launches the wheel goroutine on the first armed timer. A
// wheel on a System already shut down stays inert: timers arm but never
// fire, mirroring the inert shards a racing Connect gets.
func (w *timerWheel) startLocked() {
	if w.started || w.stopped {
		return
	}
	w.started = true
	w.wg.Add(1)
	go w.loop()
}

// stop terminates the wheel goroutine and inerts the wheel.
func (w *timerWheel) stop() {
	w.mu.Lock()
	if w.stopped {
		w.mu.Unlock()
		return
	}
	w.stopped = true
	running := w.started
	w.mu.Unlock()
	close(w.quit)
	if running {
		w.wg.Wait()
	}
}

// liveTimers reports the number of armed timers.
func (w *timerWheel) liveTimers() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.live
}

func (w *timerWheel) loop() {
	defer w.wg.Done()
	ticker := time.NewTicker(wheelTick)
	defer ticker.Stop()
	for {
		select {
		case <-ticker.C:
			w.advance()
		case <-w.quit:
			return
		}
	}
}

// advance moves the wheel one slot and fires the entries that came due.
// Callbacks run outside the lock so they may arm timers freely.
func (w *timerWheel) advance() {
	mWheelSweeps.Inc()
	w.mu.Lock()
	w.pos = (w.pos + 1) % wheelSlotCount
	slot := w.slots[w.pos]
	kept := slot[:0]
	fired := w.fired[:0]
	for _, e := range slot {
		switch {
		case e.gen != e.t.gen:
			// Stale: re-armed or stopped since this entry was parked.
		case e.rounds > 0:
			e.rounds--
			kept = append(kept, e)
		default:
			e.t.armed = false
			w.live--
			mWheelArmed.Dec()
			fired = append(fired, e)
		}
	}
	// Zero the dropped tail so dead entries do not pin their timers
	// until the slot's backing array is overwritten.
	for i := len(kept); i < len(slot); i++ {
		slot[i] = wheelEntry{}
	}
	w.slots[w.pos] = kept
	w.mu.Unlock()

	for i, e := range fired {
		e.t.fn()
		fired[i] = wheelEntry{}
	}
	w.fired = fired[:0]
}
