package core

import (
	"sync"
	"time"
)

// rttEstimator adapts the retransmission timeout from observed
// acknowledgment round trips, Jacobson/Karels style:
//
//	srtt   ← (1-α)·srtt + α·sample         (α = 1/8)
//	rttvar ← (1-β)·rttvar + β·|srtt-sample| (β = 1/4)
//	rto    = srtt + 4·rttvar, clamped
//
// The paper fixes the retransmission interval per connection and notes
// the trade-off against "the available timer resolution" (§3.2);
// adaptive timers are the natural extension and are enabled with
// Options.AdaptiveTimeout. Samples from retransmitted batches are
// excluded (Karn's rule). srtt is zero until the first sample and never
// after: every sample is positive, and srtt moves toward it.
type rttEstimator struct {
	mu     sync.Mutex
	srtt   time.Duration
	rttvar time.Duration
}

// observe folds one acknowledgment round-trip sample in.
func (e *rttEstimator) observe(sample time.Duration) {
	if sample <= 0 {
		return
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.srtt == 0 {
		e.srtt = sample
		e.rttvar = sample / 2
		return
	}
	diff := e.srtt - sample
	if diff < 0 {
		diff = -diff
	}
	e.rttvar += (diff - e.rttvar) / 4
	e.srtt += (sample - e.srtt) / 8
}

// timeout returns the current retransmission timeout, or fallback when
// no samples exist yet. The result is clamped to [min, fallback] so a
// mis-estimated RTT can never exceed the configured ceiling nor spin
// below timer resolution.
func (e *rttEstimator) timeout(fallback, min time.Duration) time.Duration {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.srtt == 0 {
		return fallback
	}
	rto := e.srtt + 4*e.rttvar
	if rto < min {
		rto = min
	}
	if rto > fallback {
		rto = fallback
	}
	return rto
}

// snapshot reports the current estimate for tests and stats.
func (e *rttEstimator) snapshot() (srtt, rttvar time.Duration, ok bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.srtt, e.rttvar, e.srtt != 0
}

// minAdaptiveTimeout floors the adaptive RTO; Go timers are reliable
// well below this, but retransmitting more aggressively than 2 ms only
// wastes bandwidth on the simulated links this runtime drives.
const minAdaptiveTimeout = 2 * time.Millisecond

// RTT returns the connection's smoothed round-trip estimate (zero
// before the first acknowledgment). Only meaningful on connections
// with AdaptiveTimeout enabled.
func (c *Connection) RTT() time.Duration {
	srtt, _, ok := c.rtt.snapshot()
	if !ok {
		return 0
	}
	return srtt
}
