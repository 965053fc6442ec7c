package telemetry

import (
	"sync"
	"sync/atomic"
	"time"
)

// TraceStage is one point in a message's life across the stack.
type TraceStage int

// The lifecycle stages. The first six are the path, in the order a
// message crosses it: three stamped by the sender, three by the
// receiver; on HPI both run in one process so a completed Trace spans
// the full path. The two after them were appended later and are NOT in
// path order: they are sender-side stamps between Staged and WireOut,
// which is where the hand-off cost (Table I) lives.
const (
	// StageEnqueued: the message entered the send path.
	StageEnqueued TraceStage = iota
	// StageStaged: the first SDU was segmented and admitted by flow
	// control, on its way to its wire's queue.
	StageStaged
	// StageWireOut: the first SDU left for the transport — stamped just
	// before the write starts, so it precedes the peer's WireIn.
	StageWireOut
	// StageWireIn: the first SDU surfaced from the transport at the
	// receiver.
	StageWireIn
	// StageReassembled: the final SDU arrived and the message was
	// reassembled.
	StageReassembled
	// StageDelivered: the message was handed to the application's
	// receive queue or inbox.
	StageDelivered
	// StageQueued: the first SDU waited in its wire's queue for the
	// wire's owner. Between Staged and WireOut; never stamped for a lone
	// SDU its sender wrote at once.
	StageQueued
	// StageDequeued: the wire's owner picked the SDU up and began
	// serialising it. Between Queued (when stamped) and WireOut.
	StageDequeued

	numStages
)

// String implements fmt.Stringer.
func (s TraceStage) String() string {
	switch s {
	case StageEnqueued:
		return "enqueued"
	case StageStaged:
		return "staged"
	case StageWireOut:
		return "wire-out"
	case StageWireIn:
		return "wire-in"
	case StageReassembled:
		return "reassembled"
	case StageDelivered:
		return "delivered"
	case StageQueued:
		return "queued"
	case StageDequeued:
		return "dequeued"
	default:
		return "unknown"
	}
}

// Trace is the completed lifecycle record of one sampled message.
// Stamps are nanoseconds on the tracer's monotonic clock; a zero stamp
// means the stage was never reached (e.g. wire-in stamps are only
// taken when the receiving endpoint runs in the same process).
type Trace struct {
	// ConnID is the connection the message travelled on. Both
	// endpoints of a connection share the ID, so sender- and
	// receiver-side stamps meet in one record.
	ConnID uint32
	// Session is the message's reassembly session number.
	Session uint32
	// Bytes is the message payload length.
	Bytes int
	// Stamp holds one monotonic nanosecond reading per TraceStage.
	Stamp [numStages]int64
}

// Stage returns the stamp for one stage (0 if never reached).
func (t Trace) Stage(s TraceStage) int64 { return t.Stamp[s] }

// traceSlots is the size of the in-flight slot table. Sampling keeps
// the population small.
const traceSlots = 64

// traceProbes is how many slots a key probes: its window. A message
// that finds its window full takes over the window's oldest claim once
// traceSlots sampled messages have started since that one.
const traceProbes = 4

// slotBusy holds a slot while finish drains it or start recycles it;
// no message's key equals it (traceKey sets bit 63).
const slotBusy = 1

// slot is one in-flight trace. The key claims the slot (CAS from 0, or
// from the claim it evicts); stamps from different goroutines land in
// distinct atomic cells, and finish drains them into a Trace under the
// ring mutex.
type slot struct {
	key    atomic.Uint64
	seq    atomic.Uint64 // which sampled message claimed it, in start order
	bytes  atomic.Int64
	stamps [numStages]atomic.Int64
}

// Tracer samples message lifecycles: every Nth Start claims a slot,
// stamp sites write monotonic timestamps into it, and Finish moves the
// completed record into a fixed ring. One Tracer is installed globally
// (EnableTracing); all stamp helpers are free when none is.
type Tracer struct {
	every uint64
	n     atomic.Uint64
	base  time.Time
	slots [traceSlots]slot

	mu     sync.Mutex
	ring   []Trace
	next   int
	filled bool
}

// NewTracer builds a tracer sampling one in every messages (minimum
// 1), retaining up to capacity completed traces (default 256).
func NewTracer(every, capacity int) *Tracer {
	if every < 1 {
		every = 1
	}
	if capacity <= 0 {
		capacity = 256
	}
	return &Tracer{
		every: uint64(every),
		base:  time.Now(),
		ring:  make([]Trace, capacity),
	}
}

func traceKey(connID, session uint32) uint64 {
	return uint64(connID)<<32 | uint64(session) | 1<<63 // bit 63 keeps keys nonzero
}

func (t *Tracer) now() int64 { return int64(time.Since(t.base)) }

// start claims a slot for the message if it is sampled.
func (t *Tracer) start(connID, session uint32, size int) {
	n := t.n.Add(1)
	if n%t.every != 0 {
		return
	}
	key := traceKey(connID, session)
	s := t.claim(int(key%traceSlots), n/t.every)
	if s == nil {
		return
	}
	for i := range s.stamps {
		s.stamps[i].Store(0)
	}
	s.bytes.Store(int64(size))
	s.stamps[StageEnqueued].Store(t.now())
	s.key.Store(key)
}

// claim takes one slot of the window at idx out of circulation
// (slotBusy) for the seq-th sampled message: a free one, else the
// window's oldest claim if it is stale. Only finish frees a slot, and a
// message that never reaches delivery — an unreliable SDU a lossy link
// dropped, a connection closed mid-transfer — never calls it; without
// the eviction, 64 such messages would end tracing for good. Stale is a
// count, not a clock reading: traceSlots sampled messages, a table's
// worth, have started since. Evicting any younger claim would let a
// window that sees more than traceProbes messages in flight at once
// evict each before it finished and complete none; as it is, the first
// traceProbes complete and the rest go unsampled. A victim that moved
// meanwhile (finished, or evicted by another start) costs this sample,
// not a retry.
func (t *Tracer) claim(idx int, seq uint64) *slot {
	var oldest *slot
	var oldestKey uint64
	for p := 0; p < traceProbes; p++ {
		s := &t.slots[(idx+p)%traceSlots]
		if s.key.CompareAndSwap(0, slotBusy) {
			s.seq.Store(seq)
			return s
		}
		if k := s.key.Load(); k != slotBusy && (oldest == nil || s.seq.Load() < oldest.seq.Load()) {
			oldest, oldestKey = s, k
		}
	}
	if oldest != nil && int64(seq-oldest.seq.Load()) >= traceSlots && oldest.key.CompareAndSwap(oldestKey, slotBusy) {
		oldest.seq.Store(seq)
		return oldest
	}
	return nil
}

// stamp records a stage for the message if it is being traced.
func (t *Tracer) stamp(connID, session uint32, st TraceStage) {
	key := traceKey(connID, session)
	idx := int(key % traceSlots)
	for p := 0; p < traceProbes; p++ {
		s := &t.slots[(idx+p)%traceSlots]
		if s.key.Load() == key {
			if s.stamps[st].Load() == 0 {
				s.stamps[st].Store(t.now())
			}
			return
		}
	}
}

// finish stamps Delivered, moves the record into the ring, and frees
// the slot. It holds the slot (slotBusy) while it reads, so an eviction
// cannot recycle the stamps under it.
func (t *Tracer) finish(connID, session uint32) {
	key := traceKey(connID, session)
	idx := int(key % traceSlots)
	for p := 0; p < traceProbes; p++ {
		s := &t.slots[(idx+p)%traceSlots]
		if !s.key.CompareAndSwap(key, slotBusy) {
			continue
		}
		s.stamps[StageDelivered].Store(t.now())
		rec := Trace{
			ConnID:  connID,
			Session: session,
			Bytes:   int(s.bytes.Load()),
		}
		for i := range rec.Stamp {
			rec.Stamp[i] = s.stamps[i].Load()
		}
		// Stragglers stamping the finished key find no slot and drop
		// their write; start zeroes the stamps of the slot it claims.
		s.key.Store(0)

		t.mu.Lock()
		t.ring[t.next] = rec
		t.next++
		if t.next == len(t.ring) {
			t.next = 0
			t.filled = true
		}
		t.mu.Unlock()
		return
	}
}

// Take drains the completed traces accumulated so far, oldest first.
func (t *Tracer) Take() []Trace {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []Trace
	if t.filled {
		out = append(out, t.ring[t.next:]...)
	}
	out = append(out, t.ring[:t.next]...)
	t.next = 0
	t.filled = false
	for i := range t.ring {
		t.ring[i] = Trace{}
	}
	return out
}

// ---------------------------------------------------------------------------
// The global tracer and the hot-path helpers the runtime calls.

var tracer atomic.Pointer[Tracer]

// EnableTracing installs a global lifecycle tracer sampling one in
// every messages and retaining up to capacity completed traces.
// It replaces any previous tracer (whose unread traces are lost).
func EnableTracing(every, capacity int) {
	tracer.Store(NewTracer(every, capacity))
}

// DisableTracing removes the global tracer; stamp sites revert to a
// nil-check.
func DisableTracing() { tracer.Store(nil) }

// TracingEnabled reports whether a global tracer is installed.
func TracingEnabled() bool { return tracer.Load() != nil }

// TakeTraces drains completed traces from the global tracer.
func TakeTraces() []Trace {
	t := tracer.Load()
	if t == nil {
		return nil
	}
	return t.Take()
}

// TraceNow reads the global tracer's clock — the one every Trace.Stamp
// is on — so a harness can bracket a call and subtract stamps from its
// ends (0 when tracing is off).
func TraceNow() int64 {
	if t := tracer.Load(); t != nil {
		return t.now()
	}
	return 0
}

// TraceStart marks a message entering the send path. All TraceX
// helpers are single atomic-load nil-checks when tracing is off.
func TraceStart(connID, session uint32, size int) {
	if t := tracer.Load(); t != nil {
		t.start(connID, session, size)
	}
}

// TraceStamp records a lifecycle stage for a possibly-traced message.
func TraceStamp(connID, session uint32, st TraceStage) {
	if t := tracer.Load(); t != nil {
		t.stamp(connID, session, st)
	}
}

// TraceFinish stamps Delivered and completes the record.
func TraceFinish(connID, session uint32) {
	if t := tracer.Load(); t != nil {
		t.finish(connID, session)
	}
}
