// Package flowctl implements the per-connection flow control algorithms
// NCS lets programmers select at connection-establishment time (§3.3):
//
//   - Credit: the paper's default credit-based scheme (Figures 7–8),
//     rebuilt around receiver-advertised cumulative grants (credit.go).
//     The receiver sizes its advertised window from the observed
//     consumption rate, refills when the sender has consumed ≥75% of
//     the last grant, and piggybacks grants on error-control acks; an
//     idle stream costs zero control traffic. A pluggable congestion
//     Controller (controller.go: static, AIMD, RTT-adaptive) gates
//     in-flight data under the granted credits.
//   - Window: a classic sliding window with cumulative acknowledgments.
//   - Rate: a token-bucket pacing scheme; the receiver can push rate
//     adjustments over the control connection.
//   - None: no flow control (audio/video streams, Figure 2).
//
// The algorithms are pure protocol state machines: the sender half
// answers whether transmission is admitted now (TryAcquire) and takes
// the receiver's feedback (OnControl, Resync), and the receiver half
// turns packet arrivals into control packets for the caller to ship over
// the control connection. Waiting and packet I/O stay in the caller (a
// sender waits on its connection, reading the grants itself), which is
// what makes each algorithm independently testable and hot-swappable —
// "each algorithm will be implemented as a thread, [so] we can easily
// incorporate other advanced algorithms" (§3).
package flowctl

import (
	"encoding/binary"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"ncs/internal/packet"
	"ncs/internal/telemetry"
)

// Flow-control telemetry (catalogue in internal/telemetry doc.go).
// Stall/wait counters tick once per admission that did not succeed on
// the first try; blocked_ns_total accumulates the time senders spent
// parked waiting for admission, whichever algorithm withheld it.
var (
	mWindowStall = telemetry.NewCounter("flowctl.window.stall_total")
	mCreditWait  = telemetry.NewCounter("flowctl.credit.wait_total")
	mBlockedNS   = telemetry.NewCounter("flowctl.send.blocked_ns_total")

	// Credit v2 instruments: cumulative credits granted by receivers,
	// packets consumed (delivered) under credit flow control, refill
	// grants issued (threshold crossings plus retry re-emissions),
	// grants piggybacked on error-control acks, and emergency probes
	// minted by credit resynchronisation.
	mGranted   = telemetry.NewCounter("flowctl.credit.granted_total")
	mConsumed  = telemetry.NewCounter("flowctl.credit.consumed_total")
	mRefill    = telemetry.NewCounter("flowctl.credit.refill_total")
	mPiggyback = telemetry.NewCounter("flowctl.credit.piggyback_total")
	mResync    = telemetry.NewCounter("flowctl.credit.resync_total")

	// hCreditWait distributes the time senders spent blocked waiting
	// for credit admission (only waits that did not succeed on the
	// first try are observed).
	hCreditWait = telemetry.NewHistogram("flowctl.send.credit_wait_ns")
)

// NoteWait records an admission that had to wait, reading control
// traffic, before flow control admitted it. The caller waits (core
// interleaves TryAcquire with control processing on the waiting sender),
// so it reports the wait here to keep the instruments algorithm-owned.
func NoteWait(alg Algorithm, blocked time.Duration) {
	switch alg {
	case Credit:
		mCreditWait.Inc()
		hCreditWait.Observe(int64(blocked))
	case Window:
		mWindowStall.Inc()
	}
	mBlockedNS.Add(int64(blocked))
}

// Algorithm selects a flow control scheme.
type Algorithm int

// The flow control schemes of §3.3.
const (
	None Algorithm = iota + 1
	Credit
	Window
	Rate
)

// String implements fmt.Stringer.
func (a Algorithm) String() string {
	switch a {
	case None:
		return "none"
	case Credit:
		return "credit"
	case Window:
		return "window"
	case Rate:
		return "rate"
	default:
		return fmt.Sprintf("Algorithm(%d)", int(a))
	}
}

// Config tunes an algorithm instance.
type Config struct {
	// InitialCredits seeds the credit scheme ("only small credits are
	// assigned to each connection initially"). Default 4.
	InitialCredits int
	// MaxCredits caps the dynamically grown credit grant. Default 64.
	// Both are held to maxWindow.
	MaxCredits int
	// WindowSize is the sliding-window size. Default 16.
	WindowSize int
	// RatePerSec is the token rate for the rate scheme. Default 1000.
	RatePerSec float64
	// Burst is the token bucket depth. Default 8.
	Burst int
	// ActiveWindow is the interval over which the credit scheme judges
	// a connection active. Default 10 ms.
	ActiveWindow time.Duration
	// Controller selects the congestion controller the credit scheme
	// runs under its grants. The zero value is ControllerStatic (grants
	// alone gate transmission).
	Controller ControllerKind
	// Now injects a clock for tests; defaults to time.Now.
	Now func() time.Time
}

// maxWindow is the most credit a grant runs ahead of what the receiver
// counted: the data header carries the low 16 bits of a lane's transmit
// index, which the receiver's window unwraps within ±1<<15
// (stream.Credit.Arrived).
const maxWindow = 1 << 14

// WithDefaults returns c with every unset field at its default, and the
// credits held to maxWindow.
func (c Config) WithDefaults() Config {
	if c.InitialCredits <= 0 {
		c.InitialCredits = 4
	}
	if c.MaxCredits <= 0 {
		c.MaxCredits = 64
	}
	c.InitialCredits, c.MaxCredits = min(c.InitialCredits, maxWindow), min(c.MaxCredits, maxWindow)
	if c.WindowSize <= 0 {
		c.WindowSize = 16
	}
	if c.RatePerSec <= 0 {
		c.RatePerSec = 1000
	}
	if c.Burst <= 0 {
		c.Burst = 8
	}
	if c.ActiveWindow <= 0 {
		c.ActiveWindow = 10 * time.Millisecond
	}
	if c.Now == nil {
		c.Now = time.Now
	}
	return c
}

// Sender is the transmit-side half of a flow control instance.
type Sender interface {
	// TryAcquire reports whether transmission of the packet with the
	// given sequence number was admitted. It never blocks: a refused
	// caller waits for the receiver's feedback (OnControl), for time
	// (Refill) or for its own timeout (Resync), and asks again.
	TryAcquire(seq uint32) bool
	// Resync restores flow control state after presumed control-packet
	// loss (credit resynchronisation): lost data packets consumed
	// admissions whose grants will never return. Algorithms without
	// such state treat it as a no-op.
	Resync()
	// OnControl processes a control packet from the receiver.
	OnControl(c packet.Control)
	// Close refuses every admission from then on.
	Close()
}

// Receiver is the receive-side half.
type Receiver interface {
	// OnData records the arrival of the packet with the given sequence
	// number and returns any control packets that must travel back to
	// the sender. The returned slice AND the packets' bodies are the
	// receiver's scratch (the credit-return hot path runs once per SDU,
	// so it must not allocate), borrowed until the caller's emit
	// returns: callers marshal the packets — every NCS emit serialises
	// into a pooled buffer before it returns — before the next OnData
	// (or Piggyback) on this receiver, and never pass a body to another
	// goroutine. OnData is called from one goroutine at a time.
	OnData(seq uint32) []packet.Control
	// Close releases resources.
	Close()
}

// pendingTimers counts the package's armed timers: the credit
// receivers' refill retries. The steady state is zero: every retry chain
// ends (progress proof, Close, or the bounded retry count). Leak audits
// (the TestMain in this package and in internal/core) assert it drains
// between tests.
var pendingTimers atomic.Int64

// PendingTimers reports the number of timers currently armed by the
// package. Exposed for leak audits and stats.
func PendingTimers() int64 { return pendingTimers.Load() }

// countedTimer is a re-armable AfterFunc timer whose pending state is
// mirrored in pendingTimers: built by its first arm, re-armed — never
// re-created — after. The count follows Timer.Stop's verdict, which is
// exact however an expiring callback interleaves with a re-arm: a timer
// that was still pending is already counted, one that was not (it
// fired, and its callback takes or took the count down) is counted
// anew. Callers serialise arm and stop under their own lock.
type countedTimer struct {
	fn func() // the expiry callback; set at construction
	t  *time.Timer
}

func (c *countedTimer) arm(d time.Duration) {
	if c.t == nil {
		pendingTimers.Add(1)
		c.t = time.AfterFunc(d, c.fire)
		return
	}
	if !c.t.Stop() {
		pendingTimers.Add(1)
	}
	c.t.Reset(d)
}

func (c *countedTimer) stop() {
	if c.t != nil && c.t.Stop() {
		pendingTimers.Add(-1)
	}
}

func (c *countedTimer) fire() {
	pendingTimers.Add(-1)
	c.fn()
}

// NewSender builds the transmit side for the chosen algorithm.
func NewSender(alg Algorithm, cfg Config) Sender {
	cfg = cfg.WithDefaults()
	switch alg {
	case Credit:
		return newCreditSender(cfg)
	case Window:
		return newWindowSender(cfg)
	case Rate:
		return newRateSender(cfg)
	default:
		return noneSender{}
	}
}

// NewReceiver builds the receive side for the chosen algorithm.
func NewReceiver(alg Algorithm, cfg Config) Receiver {
	cfg = cfg.WithDefaults()
	switch alg {
	case Credit:
		return newCreditReceiver(cfg)
	case Window:
		return newWindowReceiver(cfg)
	case Rate:
		return newRateReceiver(cfg)
	default:
		return noneReceiver{}
	}
}

// ---------------------------------------------------------------------------
// None.

type noneSender struct{}

func (noneSender) TryAcquire(uint32) bool   { return true }
func (noneSender) Resync()                  {}
func (noneSender) OnControl(packet.Control) {}
func (noneSender) Close()                   {}

type noneReceiver struct{}

func (noneReceiver) OnData(uint32) []packet.Control { return nil }
func (noneReceiver) Close()                         {}

// ---------------------------------------------------------------------------
// Window-based: sliding window with cumulative acknowledgments.

type windowSender struct {
	mu     sync.Mutex
	window int
	base   uint32 // lowest unacknowledged sequence number
	next   uint32 // next sequence number to admit
	closed bool
}

func newWindowSender(cfg Config) *windowSender {
	return &windowSender{window: cfg.WindowSize}
}

// Resync assumes outstanding packets (and their acks) were lost and
// reopens the window.
func (s *windowSender) Resync() {
	s.mu.Lock()
	if s.next > s.base {
		s.base = s.next
	}
	s.mu.Unlock()
}

func (s *windowSender) TryAcquire(seq uint32) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed || seq >= s.base+uint32(s.window) {
		return false
	}
	if seq >= s.next {
		s.next = seq + 1
	}
	return true
}

func (s *windowSender) OnControl(c packet.Control) {
	if c.Type != packet.CtrlWinAck {
		return
	}
	n, err := packet.ParseCreditBody(c.Body) // cumulative ack: 4-byte seq
	if err != nil {
		return
	}
	s.mu.Lock()
	if n+1 > s.base {
		s.base = n + 1
	}
	s.mu.Unlock()
}

func (s *windowSender) Close() {
	s.mu.Lock()
	s.closed = true
	s.mu.Unlock()
}

type windowReceiver struct {
	mu      sync.Mutex
	highest uint32
	seen    bool
	body    [4]byte // scratch behind out[0].Body
	out     [1]packet.Control
}

func newWindowReceiver(cfg Config) *windowReceiver { return &windowReceiver{} }

func (r *windowReceiver) OnData(seq uint32) []packet.Control {
	r.mu.Lock()
	if !r.seen || seq > r.highest {
		r.highest = seq
		r.seen = true
	}
	r.out[0] = packet.Control{
		Type: packet.CtrlWinAck,
		Body: binary.BigEndian.AppendUint32(r.body[:0], r.highest),
	}
	r.mu.Unlock()
	return r.out[:1]
}

func (r *windowReceiver) Close() {}

// ---------------------------------------------------------------------------
// Rate-based: token bucket pacing, receiver-adjustable.

type rateSender struct {
	mu     sync.Mutex
	rate   float64 // tokens per second
	burst  float64
	tokens float64
	last   time.Time
	now    func() time.Time
	closed bool
}

func newRateSender(cfg Config) *rateSender {
	return &rateSender{
		rate:   cfg.RatePerSec,
		burst:  float64(cfg.Burst),
		tokens: float64(cfg.Burst),
		last:   cfg.Now(),
		now:    cfg.Now,
	}
}

// refill is how long the bucket takes to hold a whole token again.
func (s *rateSender) refill() (time.Duration, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return time.Duration((1 - s.tokens) / s.rate * float64(time.Second)), s.closed
}

// Refill reports how soon time alone may admit a sender whose TryAcquire
// just failed: a rate sender's next token. It is 0 for the schemes only
// the receiver's feedback refills, and for a closed sender.
func Refill(s Sender) time.Duration {
	if r, ok := s.(*rateSender); ok {
		if d, closed := r.refill(); !closed {
			return d
		}
	}
	return 0
}

// Resync is a no-op: token buckets refill by time, not by feedback.
func (s *rateSender) Resync() {}

func (s *rateSender) TryAcquire(uint32) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return false
	}
	now := s.now()
	s.tokens += now.Sub(s.last).Seconds() * s.rate
	if s.tokens > s.burst {
		s.tokens = s.burst
	}
	s.last = now
	if s.tokens < 1 {
		return false
	}
	s.tokens--
	return true
}

func (s *rateSender) OnControl(c packet.Control) {
	if c.Type != packet.CtrlRate {
		return
	}
	n, err := packet.ParseCreditBody(c.Body) // packets/sec, 4 bytes
	if err != nil || n == 0 {
		return
	}
	s.mu.Lock()
	s.rate = float64(n)
	s.mu.Unlock()
}

func (s *rateSender) Close() {
	s.mu.Lock()
	s.closed = true
	s.mu.Unlock()
}

// RateNow exposes the current rate for tests.
func (s *rateSender) RateNow() float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.rate
}

// rateReceiver measures the arrival rate and periodically pushes a
// CtrlRate adjustment to the sender: the receiver-driven adaptation of
// rate-based flow control. The advertised rate is the observed
// consumption rate plus 25% headroom, so a sender that outpaces the
// receiver is throttled toward what the receiver actually absorbs,
// while an under-driven connection is allowed to speed up.
type rateReceiver struct {
	mu    sync.Mutex
	count int
	since time.Time
	now   func() time.Time

	window      int // packets between adjustments
	windowCount int
	windowStart time.Time
	body        [4]byte // scratch behind out[0].Body
	out         [1]packet.Control
}

func newRateReceiver(cfg Config) *rateReceiver {
	start := cfg.Now()
	return &rateReceiver{since: start, now: cfg.Now, window: 64, windowStart: start}
}

func (r *rateReceiver) OnData(seq uint32) []packet.Control {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.count++
	r.windowCount++
	if r.windowCount < r.window {
		return nil
	}
	now := r.now()
	elapsed := now.Sub(r.windowStart).Seconds()
	r.windowCount = 0
	r.windowStart = now
	if elapsed <= 0 {
		return nil
	}
	observed := float64(r.window) / elapsed
	advertised := uint32(observed * 1.25)
	if advertised == 0 {
		advertised = 1
	}
	r.out[0] = packet.Control{
		Type: packet.CtrlRate,
		Body: binary.BigEndian.AppendUint32(r.body[:0], advertised),
	}
	return r.out[:1]
}

func (r *rateReceiver) Close() {}

// ObservedRate reports arrivals per second since creation.
func (r *rateReceiver) ObservedRate() float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	el := r.now().Sub(r.since).Seconds()
	if el <= 0 {
		return 0
	}
	return float64(r.count) / el
}
