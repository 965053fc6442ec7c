// Credit-based flow control v2: receiver-advertised cumulative grants.
//
// The receiver authorises transmission by advertising a cumulative
// grant — "you may send your Granted-th packet" — sized from the
// observed consumption rate, refilled when the sender has consumed 75%
// of the last advertisement, and piggybacked on error-control acks.
// All wire values are cumulative connection-lifetime totals, so grants
// are idempotent: the sender keeps the maximum it has seen, and loss,
// duplication or reordering of grant packets can delay but never
// corrupt the credit state. An idle stream crosses no thresholds and
// therefore costs zero control traffic.
//
// Between the grant and the wire sits a pluggable congestion
// Controller (controller.go): admission requires both an unused grant
// (receiver has buffer space) and in-flight room under the
// controller's window (path has capacity).
package flowctl

import (
	"sync"
	"sync/atomic"
	"time"

	"ncs/internal/packet"
)

const (
	// rttRingSize is the number of admission timestamps the sender
	// retains for grant round-trip sampling. Consumption advancing by
	// more than the ring in one grant simply yields an unsampled ack.
	rttRingSize = 64
	// maxGrantRetries bounds the receiver's refill-retry timer: after
	// this many unacknowledged re-emissions the receiver goes quiet and
	// relies on the sender's credit resynchronisation to re-establish
	// flow. Bounded retries keep PendingTimers drained at idle.
	maxGrantRetries = 3
)

// ---------------------------------------------------------------------------
// Sender.

// creditSender admits transmission while used-lost < granted+probes
// (the receiver authorised it) and inflight < controller window (the
// path has room). All counters are cumulative over the connection
// lifetime. Lost admissions must be written back into the grant space:
// the receiver extends authority as arrived+window, and an admission
// that never arrives would otherwise consume a credit forever — after
// MaxCredits lifetime losses no grant could reach used again and every
// send would cost a full resync timeout.
type creditSender struct {
	mu   sync.Mutex
	ctrl Controller
	now  func() time.Time

	granted      uint64 // cumulative credits authorised by the peer
	probes       uint64 // emergency credits minted by Resync
	used         uint64 // cumulative admissions
	peerConsumed uint64 // peer's cumulative consumed count, clamped to used
	lost         uint64 // in-flight written off by Resync
	closed       bool

	// sendNanos rings admission timestamps for RTT sampling: slot
	// used%rttRingSize is stamped at admission and read back when the
	// peer's consumed count passes it.
	sendNanos [rttRingSize]int64
}

func newCreditSender(cfg Config) *creditSender {
	// The initial grant is implicit and symmetric: both halves seed
	// InitialCredits, so no wire exchange is needed before first send.
	return &creditSender{
		ctrl:    NewController(cfg.Controller, cfg),
		now:     cfg.Now,
		granted: uint64(cfg.InitialCredits),
	}
}

// TryAcquire is the single admission decision.
func (s *creditSender) TryAcquire(uint32) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return false
	}
	if s.used-s.lost >= s.granted+s.probes {
		return false
	}
	if s.used-s.peerConsumed-s.lost >= uint64(s.ctrl.Window()) {
		return false
	}
	s.sendNanos[s.used%rttRingSize] = s.now().UnixNano()
	s.used++
	return true
}

// Resync repairs the two ways lost packets wedge the sender. A lost
// grant leaves it without authorisation: mint one emergency probe so
// the next transmission can go out and trip the receiver's refill
// threshold. A lost data packet leaves phantom in-flight that no
// consumed count will ever cover: write one off and tell the
// controller about the loss.
func (s *creditSender) Resync() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	if s.used > s.peerConsumed+s.lost {
		s.lost++
		s.ctrl.OnLoss()
	}
	if s.used-s.lost >= s.granted+s.probes {
		s.probes++
		mResync.Inc()
	}
	s.mu.Unlock()
}

// NoteLoss writes off n admissions whose transmissions are presumed
// lost, returning their credits to the grant space. The caller with
// the evidence is error control: a retransmission is exactly the
// statement that one earlier transmission of that sequence did not
// arrive. A spurious retransmission (the original was merely delayed)
// self-corrects — both copies arrive, the peer's consumed count covers
// both, and the clamp below shrinks lost back to the truth.
func (s *creditSender) NoteLoss(n int) {
	if n <= 0 {
		return
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.lost += uint64(n)
	if s.lost > s.used-s.peerConsumed {
		s.lost = s.used - s.peerConsumed
	}
	s.ctrl.OnLoss()
	s.mu.Unlock()
}

func (s *creditSender) OnControl(c packet.Control) {
	if c.Type != packet.CtrlCreditGrant {
		return
	}
	g, err := packet.ParseCreditGrant(c.Body)
	if err != nil {
		return
	}
	s.mu.Lock()
	if g.Granted > s.granted {
		mGranted.Add(int64(g.Granted - s.granted))
		s.granted = g.Granted
	}
	// A real grant retires the emergency probes it was summoned by —
	// but never below what admissions already spent, so the invariant
	// used-lost ≤ granted+probes survives any grant value.
	if spent := s.used - s.lost; s.granted >= spent {
		s.probes = 0
	} else if s.probes > spent-s.granted {
		s.probes = spent - s.granted
	}
	// Advance the peer's consumed count. Clamp to used: a duplicated
	// data packet inflates the receiver's arrival count past what we
	// admitted, and in-flight must never go negative.
	pc := g.Consumed
	if pc > s.used {
		pc = s.used
	}
	if pc > s.peerConsumed {
		var rtt time.Duration
		if s.used-pc < rttRingSize {
			rtt = time.Duration(s.now().UnixNano() - s.sendNanos[(pc-1)%rttRingSize])
			if rtt < 0 {
				rtt = 0
			}
		}
		s.peerConsumed = pc
		if s.lost > s.used-s.peerConsumed {
			s.lost = s.used - s.peerConsumed
		}
		s.ctrl.OnAck(rtt)
	}
	s.mu.Unlock()
}

func (s *creditSender) Close() {
	s.mu.Lock()
	s.closed = true
	s.mu.Unlock()
}

// Stats snapshots the sender's cumulative credit state.
func (s *creditSender) Stats() SenderStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return SenderStats{
		Granted:      s.granted,
		Probes:       s.probes,
		Used:         s.used,
		PeerConsumed: s.peerConsumed,
		Lost:         s.lost,
		Window:       s.ctrl.Window(),
		Controller:   s.ctrl.Name(),
	}
}

// SenderStats is a snapshot of a credit sender's cumulative state. The
// conservation invariant the property tests assert is
// Used ≤ Granted + Probes + Lost (equivalently Available ≥ 0) at every
// step: every admission is covered by receiver authority, an emergency
// probe, or a written-off loss.
type SenderStats struct {
	Granted      uint64 // cumulative credits authorised by the peer
	Probes       uint64 // emergency credits minted by Resync
	Used         uint64 // cumulative admissions
	PeerConsumed uint64 // peer's cumulative consumed count
	Lost         uint64 // in-flight written off by Resync
	Window       int    // congestion controller window
	Controller   string // congestion controller name
}

// Available is the number of further admissions the current grants
// allow (before the congestion window is considered). Written-off
// losses return to the grant space: they never occupied receiver
// buffer.
func (st SenderStats) Available() uint64 { return st.Granted + st.Probes + st.Lost - st.Used }

// Inflight is the number of admissions not yet covered by the peer's
// consumed count or written off as lost.
func (st SenderStats) Inflight() uint64 { return st.Used - st.PeerConsumed - st.Lost }

// SenderStatsOf snapshots s if it is a credit sender.
func SenderStatsOf(s Sender) (SenderStats, bool) {
	type statser interface{ Stats() SenderStats }
	if cs, ok := s.(statser); ok {
		return cs.Stats(), true
	}
	return SenderStats{}, false
}

// ---------------------------------------------------------------------------
// Receiver.

// creditReceiver sizes its advertised window from observed consumption
// rate and issues a cumulative grant whenever the sender has consumed
// ≥75% of the last advertisement.
type creditReceiver struct {
	cfg Config

	mu           sync.Mutex
	arrived      uint64 // cumulative deliveries
	granted      uint64 // cumulative credits authorised
	grantArrived uint64 // arrived count when the last grant was issued
	window       int    // current advertisement
	lastSeen     time.Time
	lastGrant    time.Time
	closed       bool

	// Refill-retry state: a refill whose grant may have been lost is
	// re-emitted (through emit, installed by SetEmitter) a bounded
	// number of times with doubling backoff. grantProof is the
	// allowance before the refill — an arrival beyond it proves the
	// sender heard the new grant, stopping the retries. One timer,
	// re-armed by every refill and each retry; retryAt is when it is
	// due (zero: no chain running), which is also how a callback that
	// lost a race with a re-arm recognises itself as stale.
	emit       func(packet.Control) bool
	grantProof uint64
	retry      countedTimer
	retryAt    time.Time
	retries    int
	backoff    time.Duration

	// body is the scratch behind the grants OnData and PiggybackGrant
	// return — both run on the connection's receive goroutine, and the
	// caller has marshalled one grant before it asks for the next.
	body [packet.CreditGrantSize]byte
	out  [1]packet.Control
	// retryBody is the retry timer's own scratch, the emitting retry's
	// while emitting is up.
	emitting  atomic.Bool
	retryBody [packet.CreditGrantSize]byte
}

func newCreditReceiver(cfg Config) *creditReceiver {
	now := cfg.Now()
	r := &creditReceiver{
		cfg:       cfg,
		granted:   uint64(cfg.InitialCredits),
		window:    cfg.InitialCredits,
		lastSeen:  now,
		lastGrant: now,
	}
	r.retry.fn = r.retryFire
	return r
}

func (r *creditReceiver) OnData(seq uint32) []packet.Control {
	now := r.cfg.Now()
	r.mu.Lock()
	r.arrived++
	mConsumed.Inc()
	if !r.retryAt.IsZero() && r.arrived > r.grantProof {
		// The sender transmitted beyond its pre-refill allowance, so
		// the refill reached it; the retry timer has nothing to repair.
		r.stopRetryLocked()
	}
	if now.Sub(r.lastSeen) > r.cfg.ActiveWindow {
		// Idle gap: decay the advertisement back to the floor.
		r.window = r.cfg.InitialCredits
	}
	r.lastSeen = now
	if (r.arrived-r.grantArrived)*4 < uint64(r.window)*3 {
		r.mu.Unlock()
		return nil
	}
	g := r.refillLocked(now)
	r.out[0] = packet.Control{
		Type: packet.CtrlCreditGrant,
		Body: packet.AppendCreditGrant(r.body[:0], g),
	}
	r.armRetryLocked()
	r.mu.Unlock()
	return r.out[:1]
}

// refillLocked sizes a new advertisement from the consumption rate
// since the last grant and extends the cumulative grant to cover it.
func (r *creditReceiver) refillLocked(now time.Time) packet.CreditGrant {
	consumed := r.arrived - r.grantArrived
	if elapsed := now.Sub(r.lastGrant); elapsed > 0 {
		// Advertise two activity-windows of the observed rate: enough
		// for the sender to run until the next threshold crossing plus
		// one grant round trip of slack.
		rate := float64(consumed) / elapsed.Seconds()
		r.window = int(rate * r.cfg.ActiveWindow.Seconds() * 2)
	} else {
		// Frozen test clock: no rate signal, grow geometrically while
		// traffic flows.
		r.window *= 2
	}
	// The rate estimate includes any time the sender spent stalled
	// waiting for this very grant, so it understates demand exactly
	// when the window is the bottleneck — left alone, one loss-induced
	// stall would poison the rate, shrink the window, lengthen the next
	// stall, and trap the stream at the floor. The sender proved it
	// could consume `consumed` since the last grant; never advertise
	// less than twice that, so a credit-limited stream recovers
	// geometrically while a genuinely idle one still decays via the
	// inter-arrival check in OnData.
	if floor := int(consumed) * 2; r.window < floor {
		r.window = floor
	}
	if r.window < r.cfg.InitialCredits {
		r.window = r.cfg.InitialCredits
	}
	if r.window > r.cfg.MaxCredits {
		r.window = r.cfg.MaxCredits
	}
	r.grantProof = r.granted
	// Monotonic: a decayed window must never retract authority the
	// sender may already have spent.
	if g := r.arrived + uint64(r.window); g > r.granted {
		r.granted = g
	}
	r.grantArrived = r.arrived
	r.lastGrant = now
	mRefill.Inc()
	return packet.CreditGrant{Granted: r.granted, Consumed: r.arrived, Window: uint32(r.window)}
}

// armRetryLocked starts the refill-retry chain for the grant just
// issued; a no-op without an emitter (pure state-machine tests) so
// those configurations never arm a timer.
func (r *creditReceiver) armRetryLocked() {
	if r.emit == nil {
		return
	}
	r.retries = 0
	r.backoff = 4 * r.cfg.ActiveWindow
	r.scheduleRetryLocked()
}

// scheduleRetryLocked arms the retry timer r.backoff from now.
func (r *creditReceiver) scheduleRetryLocked() {
	r.retryAt = time.Now().Add(r.backoff)
	r.retry.arm(r.backoff)
}

func (r *creditReceiver) retryFire() {
	r.mu.Lock()
	// A callback that expired just before its chain was stopped or
	// re-armed finds retryAt zero or in the future: it is stale, and the
	// timer's current arming (if any) will call again.
	//
	// The emit below runs outside the lock and possibly beside OnData, so
	// it cannot share the receive path's scratch: it has its own, which a
	// local array escaping into emit would make an allocation per retry.
	// A retry that fires while the one before is still in emit (blocked
	// on control-queue room) sends nothing and counts no retry: it tries
	// again one backoff later.
	stale := r.closed || r.retryAt.IsZero() || time.Now().Before(r.retryAt) || r.arrived > r.grantProof
	if stale || !r.emitting.CompareAndSwap(false, true) {
		if !stale {
			r.scheduleRetryLocked()
		}
		r.mu.Unlock()
		return
	}
	g := packet.CreditGrant{Granted: r.granted, Consumed: r.arrived, Window: uint32(r.window)}
	if r.retries++; r.retries < maxGrantRetries {
		r.backoff *= 2
		r.scheduleRetryLocked()
	} else {
		r.retryAt = time.Time{}
	}
	emit := r.emit
	r.mu.Unlock()
	mRefill.Inc()
	emit(packet.Control{Type: packet.CtrlCreditGrant, Body: packet.AppendCreditGrant(r.retryBody[:0], g)})
	r.emitting.Store(false)
}

// stopRetryLocked cancels the retry chain; clearing retryAt turns any
// already-expired callback into a no-op.
func (r *creditReceiver) stopRetryLocked() {
	if !r.retryAt.IsZero() {
		r.retryAt = time.Time{}
		r.retry.stop()
	}
}

// PiggybackGrant returns a grant reflecting the receiver's current
// cumulative state, for riding on an outbound error-control ack. It
// raises no new credit (granted is unchanged) but refreshes the
// consumed count, which is what retires the sender's in-flight and
// feeds its congestion controller. The body is borrowed exactly as
// OnData's is, and must be asked for on the goroutine that calls
// OnData.
func (r *creditReceiver) PiggybackGrant() (packet.Control, bool) {
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return packet.Control{}, false
	}
	g := packet.CreditGrant{Granted: r.granted, Consumed: r.arrived, Window: uint32(r.window)}
	r.mu.Unlock()
	mPiggyback.Inc()
	return packet.Control{Type: packet.CtrlCreditGrant, Body: packet.AppendCreditGrant(r.body[:0], g)}, true
}

func (r *creditReceiver) Close() {
	r.mu.Lock()
	r.closed = true
	r.stopRetryLocked()
	r.mu.Unlock()
}

// Stats snapshots the receiver's cumulative credit state.
func (r *creditReceiver) Stats() ReceiverStats {
	r.mu.Lock()
	defer r.mu.Unlock()
	return ReceiverStats{Arrived: r.arrived, Granted: r.granted, Window: r.window}
}

// ReceiverStats is a snapshot of a credit receiver's cumulative state.
type ReceiverStats struct {
	Arrived uint64 // cumulative deliveries
	Granted uint64 // cumulative credits authorised
	Window  int    // current advertisement
}

// ReceiverStatsOf snapshots r if it is a credit receiver.
func ReceiverStatsOf(r Receiver) (ReceiverStats, bool) {
	type statser interface{ Stats() ReceiverStats }
	if cr, ok := r.(statser); ok {
		return cr.Stats(), true
	}
	return ReceiverStats{}, false
}

// Piggyback returns a credit grant reflecting r's current cumulative
// state when r is a credit receiver, for piggybacking on outbound
// acks. Other algorithms report ok=false.
func Piggyback(r Receiver) (packet.Control, bool) {
	type piggybacker interface{ PiggybackGrant() (packet.Control, bool) }
	if p, ok := r.(piggybacker); ok {
		return p.PiggybackGrant()
	}
	return packet.Control{}, false
}

// NoteLoss reports to s that n earlier admissions are presumed lost,
// when s is a credit sender; their credits return to the grant space.
// Core calls it from the transmit paths whenever error control hands
// back retransmissions. A no-op for other algorithms.
func NoteLoss(s Sender, n int) {
	type lossNoter interface{ NoteLoss(int) }
	if ln, ok := s.(lossNoter); ok {
		ln.NoteLoss(n)
	}
}

// SetEmitter installs an asynchronous control emitter on r when r is a
// credit receiver; the refill-retry timer re-emits possibly-lost
// grants through it, from its own goroutine, with no receiver lock
// held. emit must serialise the packet before it returns: the body is
// borrowed until then. A no-op for other algorithms. Without an emitter
// the receiver arms no timers at all.
func SetEmitter(r Receiver, emit func(packet.Control) bool) {
	if cr, ok := r.(*creditReceiver); ok {
		cr.mu.Lock()
		cr.emit = emit
		cr.mu.Unlock()
	}
}
