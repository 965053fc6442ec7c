package flowctl

import (
	"fmt"
	"os"
	"sync/atomic"
	"testing"
	"time"

	"ncs/internal/packet"
)

// creditGrant builds a CtrlCreditGrant packet carrying a cumulative
// grant authorising `granted` total packets.
func creditGrant(granted uint64) packet.Control {
	return packet.Control{
		Type: packet.CtrlCreditGrant,
		Body: packet.AppendCreditGrant(nil, packet.CreditGrant{Granted: granted}),
	}
}

// TestMain audits the package's hidden resource: the refill-retry
// timers a credit receiver arms after issuing a grant that might be
// lost. Every retry chain must end (progress proof, Close, or the
// bounded retry count), so after the full test run the armed count must
// be back to zero. A nonzero count means refills are leaving pending
// timers behind, which at scale is a slow leak on the runtime timer
// heap.
func TestMain(m *testing.M) {
	code := m.Run()
	if code == 0 {
		if err := awaitTimersDrained(2 * time.Second); err != nil {
			fmt.Fprintln(os.Stderr, err)
			code = 1
		}
	}
	os.Exit(code)
}

// awaitTimersDrained polls until no timers remain armed, tolerating the
// brief tail of a timer whose callback is still running.
func awaitTimersDrained(patience time.Duration) error {
	deadline := time.Now().Add(patience)
	for {
		n := PendingTimers()
		if n == 0 {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("leak audit: %d timers still armed", n)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// ---------------------------------------------------------------------------
// Refill-retry timer audit: the package's one armed timer, the credit
// receiver's refill-retry, drains on every exit path.

// refillReceiver builds a credit receiver with an emitter installed
// (the configuration that arms retry timers) and returns the emission
// counter.
func refillReceiver(cfg Config) (*creditReceiver, *int32) {
	r := newCreditReceiver(cfg.WithDefaults())
	var emitted int32
	SetEmitter(r, func(packet.Control) bool {
		atomic.AddInt32(&emitted, 1)
		return true
	})
	return r, &emitted
}

// TestRefillWithoutEmitterArmsNoTimer: a receiver with no emitter (pure
// state-machine property tests) must never touch the timer heap,
// however many refills it issues.
func TestRefillWithoutEmitterArmsNoTimer(t *testing.T) {
	r := newCreditReceiver(Config{InitialCredits: 4}.WithDefaults())
	defer r.Close()
	before := PendingTimers()
	for i := 0; i < 64; i++ {
		r.OnData(uint32(i))
	}
	if after := PendingTimers(); after != before {
		t.Fatalf("emitterless refills armed timers: %d -> %d", before, after)
	}
}

// TestRefillRetryStoppedByProgress: once the sender transmits beyond
// its pre-refill allowance the grant evidently arrived, and the retry
// timer must be stopped — not left to fire into a healthy connection.
func TestRefillRetryStoppedByProgress(t *testing.T) {
	r, _ := refillReceiver(Config{InitialCredits: 4, ActiveWindow: time.Minute})
	defer r.Close()

	// Arrival 3 crosses the 75% threshold (3*4 ≥ 4*3): refill, retry armed.
	for i := 0; i < 3; i++ {
		r.OnData(uint32(i))
	}
	if n := PendingTimers(); n == 0 {
		t.Fatal("refill did not arm a retry timer")
	}
	// grantProof is the pre-refill allowance (4); arrival #5 exceeds it.
	r.OnData(3)
	r.OnData(4)
	if n := PendingTimers(); n != 0 {
		t.Fatalf("sender progress left %d retry timers armed", n)
	}
}

// TestRefillRetryBoundedAndDrains: with no sender progress at all, the
// retry chain re-emits the grant exactly maxGrantRetries times with
// doubling backoff, then goes quiet with zero armed timers.
func TestRefillRetryBoundedAndDrains(t *testing.T) {
	r, emitted := refillReceiver(Config{InitialCredits: 4, ActiveWindow: time.Millisecond})
	defer r.Close()

	for i := 0; i < 3; i++ {
		r.OnData(uint32(i))
	}
	// Backoffs 4+8+16 ms; give the chain room on a loaded runner.
	deadline := time.Now().Add(2 * time.Second)
	for atomic.LoadInt32(emitted) < maxGrantRetries {
		if time.Now().After(deadline) {
			t.Fatalf("retry chain stalled: %d emissions, want %d", atomic.LoadInt32(emitted), maxGrantRetries)
		}
		time.Sleep(time.Millisecond)
	}
	if err := awaitTimersDrained(time.Second); err != nil {
		t.Fatal(err)
	}
	if n := atomic.LoadInt32(emitted); n != maxGrantRetries {
		t.Fatalf("retry chain emitted %d grants, want exactly %d", n, maxGrantRetries)
	}
}

// TestRefillRetryStoppedByClose: Close while a retry is armed must
// drain it immediately.
func TestRefillRetryStoppedByClose(t *testing.T) {
	r, _ := refillReceiver(Config{InitialCredits: 4, ActiveWindow: time.Minute})
	for i := 0; i < 3; i++ {
		r.OnData(uint32(i))
	}
	if n := PendingTimers(); n == 0 {
		t.Fatal("refill did not arm a retry timer")
	}
	r.Close()
	if err := awaitTimersDrained(time.Second); err != nil {
		t.Fatal(err)
	}
}

// TestRefillRetryAllocatesNothing: a retry that fires re-emits the grant
// from the receiver's own scratch — every connection's credit receiver
// has an emitter, so a lossy link fires retries at loss rate.
func TestRefillRetryAllocatesNothing(t *testing.T) {
	r, emitted := refillReceiver(Config{InitialCredits: 4, ActiveWindow: time.Minute})
	defer r.Close()
	for i := 0; i < 3; i++ {
		r.OnData(uint32(i)) // the refill, whose retry is due in minutes
	}
	const runs = 50
	allocs := testing.AllocsPerRun(runs, func() {
		r.mu.Lock()
		r.retryAt, r.retries, r.backoff = time.Now(), 0, time.Minute // due now, the chain's first retry
		r.mu.Unlock()
		r.retryFire()
	})
	if n := atomic.LoadInt32(emitted); n != runs+1 {
		t.Fatalf("%d retries emitted a grant, want %d", n, runs+1)
	}
	if allocs != 0 {
		t.Fatalf("a fired retry allocates %v times, want 0", allocs)
	}
}

// TestRefillRetryBlockedEmitCountsNoRetry: a retry that fires while the
// one before is still in emit sends nothing, so it must not use up the
// chain's budget — it re-arms and leaves the count alone.
func TestRefillRetryBlockedEmitCountsNoRetry(t *testing.T) {
	r := newCreditReceiver(Config{InitialCredits: 4, ActiveWindow: time.Minute}.WithDefaults())
	defer r.Close()
	entered, release := make(chan struct{}), make(chan struct{})
	var emitted int32
	SetEmitter(r, func(packet.Control) bool {
		if atomic.AddInt32(&emitted, 1) == 1 {
			close(entered)
			<-release // control-queue room, arriving late
		}
		return true
	})
	for i := 0; i < 3; i++ {
		r.OnData(uint32(i)) // the refill, whose retry is due in minutes
	}
	due := func() {
		r.mu.Lock()
		r.retryAt = time.Now()
		r.mu.Unlock()
	}
	due()
	done := make(chan struct{})
	go func() { r.retryFire(); close(done) }()
	<-entered
	for i := 0; i < 2*maxGrantRetries; i++ {
		due()
		r.retryFire()
	}
	r.mu.Lock()
	retries, armed := r.retries, !r.retryAt.IsZero()
	r.mu.Unlock()
	close(release)
	<-done
	if n := atomic.LoadInt32(&emitted); n != 1 {
		t.Fatalf("%d grants emitted while the first emit blocked, want 1", n)
	}
	if retries != 1 || !armed {
		t.Fatalf("skipped fires left retries=%d armed=%v, want 1 and true", retries, armed)
	}
	due()
	r.retryFire()
	if n := atomic.LoadInt32(&emitted); n != 2 {
		t.Fatalf("the next fire after the emit returned sent %d grants in all, want 2", n)
	}
}
