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

// TestMain audits the package's hidden resources: the deadline timers
// AcquireTimeout arms while a sender waits for admission, and the
// refill-retry timers a credit receiver arms after issuing a grant
// that might be lost. Every waiter must stop its timer on the way out
// — whether it was admitted, timed out, or closed — and every retry
// chain must end (progress proof, Close, or the bounded retry count),
// so after the full test run the armed count must be back to zero. A
// nonzero count means acked windows or refills are leaving pending
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

// awaitTimersDrained polls until no AcquireTimeout deadline timers
// remain armed, tolerating the brief tail of a timer whose callback is
// still running as its waiter returns.
func awaitTimersDrained(patience time.Duration) error {
	deadline := time.Now().Add(patience)
	for {
		n := PendingTimers()
		if n == 0 {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("leak audit: %d AcquireTimeout deadline timers still armed", n)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestAcquireTimeoutFastPathArmsNoTimer checks the common case: when
// credits are in hand, AcquireTimeout admits immediately and never
// touches the timer heap.
func TestAcquireTimeoutFastPathArmsNoTimer(t *testing.T) {
	s := NewSender(Credit, Config{InitialCredits: 4})
	defer s.Close()
	before := PendingTimers()
	for seq := uint32(0); seq < 4; seq++ {
		if err := s.AcquireTimeout(seq, time.Second); err != nil {
			t.Fatalf("AcquireTimeout(%d): %v", seq, err)
		}
	}
	if after := PendingTimers(); after != before {
		t.Fatalf("fast-path admission armed timers: %d -> %d", before, after)
	}
}

// TestAcquireTimeoutStopsTimerOnAck verifies the ack path: a waiter
// blocked on an exhausted window arms exactly one deadline timer, and
// when a credit grant admits it before the deadline the timer is
// stopped rather than left to fire.
func TestAcquireTimeoutStopsTimerOnAck(t *testing.T) {
	s := NewSender(Credit, Config{InitialCredits: 1})
	defer s.Close()
	if err := s.AcquireTimeout(0, time.Second); err != nil {
		t.Fatalf("seed acquire: %v", err)
	}

	armed := make(chan struct{})
	done := make(chan error, 1)
	go func() {
		close(armed)
		done <- s.AcquireTimeout(1, 10*time.Second)
	}()
	<-armed
	// Wait for the blocked sender to arm its deadline timer.
	deadline := time.Now().Add(2 * time.Second)
	for PendingTimers() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("waiter never armed a deadline timer")
		}
		time.Sleep(time.Millisecond)
	}

	s.OnControl(creditGrant(2))
	if err := <-done; err != nil {
		t.Fatalf("acked AcquireTimeout: %v", err)
	}
	// The long deadline timer must be gone the moment the waiter
	// returns, not 10 seconds from now.
	if n := PendingTimers(); n != 0 {
		t.Fatalf("ack left %d deadline timers armed", n)
	}
}

// TestAcquireTimeoutExpiredDeadline verifies the timeout path also
// drains its timer (AfterFunc fires, so Stop alone must not
// double-count).
func TestAcquireTimeoutExpiredDeadline(t *testing.T) {
	s := NewSender(Credit, Config{InitialCredits: 0, MaxCredits: 1})
	defer s.Close()
	// InitialCredits falls back to the default when <= 0, so drain it.
	for s.TryAcquire(0) {
	}
	if err := s.AcquireTimeout(1, 5*time.Millisecond); err != ErrAcquireTimeout {
		t.Fatalf("want ErrAcquireTimeout, got %v", err)
	}
	if err := awaitTimersDrained(time.Second); err != nil {
		t.Fatal(err)
	}
}

// TestAcquireTimeoutWaitersShareOneTimer: concurrent senders blocked on
// one exhausted window share the sender's single re-armable deadline
// timer, yet each keeps its own deadline — the short wait must not be
// stretched to the long one, the long one not cut to the short — and
// only one timer is ever armed for the two of them.
func TestAcquireTimeoutWaitersShareOneTimer(t *testing.T) {
	s := NewSender(Credit, Config{InitialCredits: 1})
	defer s.Close()
	if err := s.AcquireTimeout(0, time.Second); err != nil {
		t.Fatalf("seed acquire: %v", err)
	}
	const short, long = 20 * time.Millisecond, 150 * time.Millisecond
	type result struct {
		err     error
		blocked time.Duration
	}
	wait := func(d time.Duration) chan result {
		ch := make(chan result, 1)
		go func() {
			start := time.Now()
			err := s.AcquireTimeout(1, d)
			ch <- result{err, time.Since(start)}
		}()
		return ch
	}
	longCh, shortCh := wait(long), wait(short)
	for deadline := time.Now().Add(2 * time.Second); PendingTimers() == 0; {
		if time.Now().After(deadline) {
			t.Fatal("no waiter armed the deadline timer")
		}
		time.Sleep(time.Millisecond)
	}
	if n := PendingTimers(); n != 1 {
		t.Fatalf("%d deadline timers armed for two waiters on one sender, want 1", n)
	}
	r := <-shortCh
	if r.err != ErrAcquireTimeout || r.blocked < short || r.blocked >= long {
		t.Fatalf("short waiter: err=%v after %v, want ErrAcquireTimeout in [%v, %v)", r.err, r.blocked, short, long)
	}
	if r = <-longCh; r.err != ErrAcquireTimeout || r.blocked < long {
		t.Fatalf("long waiter: err=%v after %v, want ErrAcquireTimeout no sooner than %v", r.err, r.blocked, long)
	}
	if err := awaitTimersDrained(time.Second); err != nil {
		t.Fatal(err)
	}
	// The timer is re-armed, not rebuilt: a later blocked admission on
	// the same sender goes through the one that already exists.
	cs := s.(*creditSender)
	before := cs.wait.timer.t
	if err := s.AcquireTimeout(1, 5*time.Millisecond); err != ErrAcquireTimeout {
		t.Fatalf("want ErrAcquireTimeout, got %v", err)
	}
	if before == nil || cs.wait.timer.t != before {
		t.Fatal("a later blocked admission built a new deadline timer")
	}
	if err := awaitTimersDrained(time.Second); err != nil {
		t.Fatal(err)
	}
}

// ---------------------------------------------------------------------------
// Refill-retry timer audit. The blocking-wait audit above covers
// AcquireTimeout's deadline timers; these cover the other armed timer
// in the package — the credit receiver's refill-retry — and assert it
// drains on every exit path.

// refillReceiver builds a credit receiver with an emitter installed
// (the configuration that arms retry timers) and returns the emission
// counter.
func refillReceiver(cfg Config) (*creditReceiver, *int32) {
	r := newCreditReceiver(cfg.withDefaults())
	var emitted int32
	SetEmitter(r, func(packet.Control) bool {
		atomic.AddInt32(&emitted, 1)
		return true
	})
	return r, &emitted
}

// TestRefillWithoutEmitterArmsNoTimer: a receiver with no emitter (the
// fast path, and pure state-machine property tests) must never touch
// the timer heap, however many refills it issues.
func TestRefillWithoutEmitterArmsNoTimer(t *testing.T) {
	r := newCreditReceiver(Config{InitialCredits: 4}.withDefaults())
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
