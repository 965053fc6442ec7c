// Package buf provides the pooled, reference-counted buffers that the
// NCS data and control pipelines thread from the transport layer up to
// the core threads, replacing the per-packet allocations and defensive
// copies the layers used to make at every boundary.
//
// # Ownership rules
//
// Every Buffer carries a reference count. The rules, which every layer
// of the pipeline follows:
//
//   - Get/GetCap return a Buffer owned by the caller with one
//     reference.
//   - Retain adds a reference; Release drops one. When the count
//     reaches zero the storage returns to its size class's free list.
//     Releasing below zero or retaining an already-released Buffer
//     panics — a refcounting bug, never a recoverable condition.
//   - transport.Conn.SendBuf and SendBatch CONSUME one reference per
//     buffer (they release after the wire accepts the bytes, or on
//     error). The caller must not touch a buffer after handing it to a
//     send path unless it retained it first.
//   - transport.Conn.RecvBuf returns a Buffer the caller OWNS and must
//     Release when done with every slice that aliases it.
//   - A parsed view (an SDU payload, a control-packet body) aliasing a
//     Buffer's storage may outlive the function that parsed it only if
//     the holder retains the Buffer — see Handoff — and releases it
//     when the view is dropped.
//   - A delivered message may be such a view, all the way up to the
//     application: one that arrived in a single SDU is handed over as
//     its arrival buffer (errctl.Delivery), BORROWED. Its holder calls
//     Release exactly once — never twice; never at all leaks that one
//     buffer to the collector, which the leak audits report — or Bytes
//     to own a copy instead, and only reads Data: on HPI it is the
//     storage the sender staged, and a duplicate made by the network
//     shares it. Queued unread, such a message pins one SDU-sized
//     buffer, so a lane pins at most its depth × the SDU size; a
//     mailbox whose owner closes owns or releases what it still holds.
//
// The contents live in the exported field B, fasthttp-style, so the
// existing append-based Marshal helpers work unchanged:
//
//	b := buf.GetCap(packet.DataHeaderSize + len(payload))
//	b.B = hdr.Marshal(b.B[:0])
//	b.B = append(b.B, payload...)
//	conn.SendBuf(b) // consumes the reference
//
// Size classes are tiered around the pipeline's real packet sizes: the
// control plane (acks, credits), the default 4 KB SDU plus data
// header, and the 16/64 KB SDU tiers up to the AAL5 frame maximum.
// Larger requests are satisfied with plain allocations that skip the
// tiers.
//
// # Where idle buffers wait
//
// Each tier keeps its idle buffers on a FreeList — a bounded,
// GC-stable free list owned by the message path — not in a pool of
// package sync. A pool the collector empties every cycle makes "does
// this Get allocate?" a function of how often the collector runs, and
// on a message path that is a function of message size: the larger the
// delivered copies, the more cycles, the emptier the pools, the more
// allocations per message. A FreeList is reachable from a package
// variable, so a cycle neither empties nor costs it, and it is bounded
// by a constant: tierIdle states each tier's capacity and the byte
// budget they add up to (≈ 4.4 MB), buf.pool.retained_bytes reports how
// much of it is held, and a Release beyond it leaves the buffer to the
// collector. The same type holds the rest of the message path's
// recycled state: errctl's state machines, core's send sessions, rpc's
// encoders and call records.
package buf

import (
	"fmt"
	"sync/atomic"

	"ncs/internal/telemetry"
)

// DefaultSDUStage is the capacity that comfortably stages a packet
// carrying the paper's default 4 KB SDU plus its headers and transport
// framing (data header 24 B, chunk header 5 B, AAL5 trailer/padding).
// Layers that pre-size a staging buffer for the common case (AAL5
// reassembly, chunk reassembly) request this so they land in the
// matching size class.
const DefaultSDUStage = 4*1024 + 128

// Size-class capacities. Each tier comfortably holds its namesake
// payload plus the packet headers and transport framing that ride
// along.
var tierSizes = [...]int{
	256,             // control packets: acks, bitmaps, credits, signaling
	DefaultSDUStage, // the paper's default 4 KB SDU + headers
	16*1024 + 128,   // mid-size SDUs
	64 * 1024,       // MaxSDUSize / AAL5 frame ceiling
}

// tierIdle is how many idle buffers each tier's free list keeps; a
// Release beyond it leaves the buffer to the collector. The byte budget
// — the most idle storage the process ever retains, whatever the
// traffic — is the sum of tierIdle × tierSizes:
//
//	1024 × 256 B + 512 × 4 224 B + 64 × 16 512 B + 16 × 64 KB ≈ 4.4 MB
//
// buf.pool.retained_bytes reports how much of it is held. The control
// and default-SDU tiers are sized for a few hundred packets in flight
// across a process's connections (one credit window of 4 KB SDUs is
// 64); the large tiers for a handful, since one of their buffers is
// worth a whole window of the small ones.
var tierIdle = [len(tierSizes)]int{1024, 512, 64, 16}

var tiers = func() (t [len(tierSizes)]*FreeList[Buffer]) {
	for i, n := range tierIdle {
		t[i] = NewFreeList[Buffer](n, nil)
	}
	return t
}()

// Buffer is a pooled, reference-counted byte buffer.
//
// B holds the current contents and may be re-sliced or appended to
// freely by the owner; appending past the pooled capacity falls back
// to the Go allocator (the oversized array is garbage collected, the
// original storage still returns to its tier on Release).
type Buffer struct {
	// B is the buffer contents.
	B []byte

	store []byte // pooled backing array (B usually aliases it)
	tier  int8   // size-class index; -1 when unpooled
	refs  atomic.Int32
}

// live counts the buffers in existence: made by a GetCap that found no
// idle one, and not yet left to the collector (a Release that found its
// tier full, an unpooled buffer's last Release, a TakeBytes). It moves
// only on those paths, each of which allocates or frees; the per-packet
// path — an idle buffer taken, a buffer returned — does not touch it.
var live atomic.Int64

// Outstanding reports the number of buffers handed out by Get/GetCap
// whose last reference has not yet been dropped (by Release or
// TakeBytes): those in existence minus those idle in the tiers. It is
// the refcount audit hook: leak-audit tests snapshot it before a
// scenario, drive the pipeline to quiescence, and assert the count
// returned to the snapshot — any difference is a retained reference
// that will pin pooled storage forever. (Read while buffers are moving
// it is a close estimate, exact once they rest.)
func Outstanding() int64 {
	n := live.Load()
	for _, f := range tiers {
		n -= int64(f.Len())
	}
	return n
}

// Pool telemetry (see internal/telemetry doc.go for the catalogue).
// Hits and misses are counted at GetCap, the single choke point every
// buffer passes through; outstanding is exported as a capture-time
// gauge over the existing audit counter.
var (
	mPoolHit      = telemetry.NewCounter("buf.pool.hit_total")
	mPoolMiss     = telemetry.NewCounter("buf.pool.miss_total")
	mPoolOversize = telemetry.NewCounter("buf.pool.oversize_total")
	_             = telemetry.NewFuncGauge("buf.pool.outstanding", Outstanding)
	_             = telemetry.NewFuncGauge("buf.pool.retained_bytes", retainedBytes)
)

// retainedBytes is the idle storage the tiers' free lists hold: never
// above the budget stated at tierIdle.
func retainedBytes() int64 {
	var n int64
	for t, f := range tiers {
		n += int64(f.Len()) * int64(tierSizes[t])
	}
	return n
}

// Get returns a buffer with len(b.B) == n, zero-filled only as far as
// pool reuse left it (callers overwrite, as with make without zeroing
// guarantees — the transport read paths fill it entirely).
func Get(n int) *Buffer {
	b := GetCap(n)
	b.B = b.B[:n]
	return b
}

// GetCap returns an empty buffer (len(b.B) == 0) with capacity at
// least n, for append-style marshalling.
func GetCap(n int) *Buffer {
	for t, size := range tierSizes {
		if n <= size {
			if b := tiers[t].TryGet(); b != nil {
				mPoolHit.IncAt(uint32(t))
				b.B = b.store[:0]
				b.refs.Store(1)
				return b
			}
			mPoolMiss.IncAt(uint32(t))
			live.Add(1)
			store := make([]byte, tierSizes[t])
			b := &Buffer{store: store, B: store[:0], tier: int8(t)}
			b.refs.Store(1)
			return b
		}
	}
	// Oversized: plain allocation, never pooled.
	mPoolOversize.Inc()
	live.Add(1)
	store := make([]byte, n)
	b := &Buffer{store: store, B: store[:0], tier: -1}
	b.refs.Store(1)
	return b
}

// Len returns len(b.B).
func (b *Buffer) Len() int { return len(b.B) }

// Retain adds a reference and returns b. It panics if the buffer has
// already been fully released: a released buffer may be concurrently
// reused through its tier, so resurrecting it is always a bug.
func (b *Buffer) Retain() *Buffer {
	if n := b.refs.Add(1); n <= 1 {
		panic(fmt.Sprintf("buf: retain of released buffer (refs=%d)", n-1))
	}
	return b
}

// poison is PoisonReleased's switch.
var poison atomic.Bool

// PoisonReleased is a test hook: while on, the last Release of a buffer
// overwrites its storage with 0xDB before the storage idles, so a view
// that outlived its reference — a borrowed delivery read after its
// Release — reads garbage a payload check catches.
func PoisonReleased(on bool) { poison.Store(on) }

// Release drops one reference. When the last reference is dropped the
// storage returns to its tier's free list (or, that being full, to the
// collector). Releasing more times than the buffer was retained panics.
func (b *Buffer) Release() {
	switch n := b.refs.Add(-1); {
	case n > 0:
		return
	case n < 0:
		panic(fmt.Sprintf("buf: over-release (refs=%d)", n))
	}
	if poison.Load() {
		for i := range b.store {
			b.store[i] = 0xDB
		}
	}
	if b.tier >= 0 {
		b.B = nil // drop any oversized append spill before it idles
		if tiers[b.tier].Put(b) {
			return
		}
	}
	live.Add(-1) // unpooled, or its tier is full: the collector's
}

// Handoff retains b and returns it. Use it at the point where a parsed
// view aliasing b's storage — typically a control-packet body — escapes
// the goroutine that owns b: the receiving side takes over the returned
// reference and must Release it once the view is dropped. It replaces
// the defensive copy the receive loops used to make before a body
// crossed to another goroutine.
func (b *Buffer) Handoff() *Buffer { return b.Retain() }

// TakeBytes consumes the caller's reference and returns the contents
// as an ordinary heap slice with unbounded lifetime. When the caller
// held the last reference the backing array is simply handed over
// (escaping the pool, at no copy); if other references remain the
// contents are copied so later Releases cannot recycle storage the
// caller still aliases. It bridges the pooled pipeline to legacy
// []byte APIs.
func (b *Buffer) TakeBytes() []byte {
	p := b.B
	switch n := b.refs.Add(-1); {
	case n == 0:
		// Last reference: give the storage away instead of pooling it.
		live.Add(-1)
		return p
	case n < 0:
		panic(fmt.Sprintf("buf: TakeBytes of released buffer (refs=%d)", n))
	}
	cp := make([]byte, len(p))
	copy(cp, p)
	return cp
}

// Refs reports the current reference count (for tests and debugging).
func (b *Buffer) Refs() int { return int(b.refs.Load()) }
