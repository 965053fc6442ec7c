package flowctl

import (
	"math"
	"testing"
	"time"
)

func TestControllerKindString(t *testing.T) {
	want := map[ControllerKind]string{
		ControllerStatic:  "static",
		ControllerAIMD:    "aimd",
		ControllerRTT:     "rtt",
		ControllerKind(9): "ControllerKind(9)",
	}
	for k, s := range want {
		if k.String() != s {
			t.Errorf("%d.String() = %q, want %q", int(k), k.String(), s)
		}
	}
}

// TestNewControllerSelection pins the factory: the zero ControllerKind
// must yield the static (no-op) controller so existing configurations
// keep their pre-controller behaviour.
func TestNewControllerSelection(t *testing.T) {
	cfg := Config{}.WithDefaults()
	for k, name := range map[ControllerKind]string{
		ControllerStatic: "static",
		ControllerAIMD:   "aimd",
		ControllerRTT:    "rtt",
	} {
		if got := NewController(k, cfg).Name(); got != name {
			t.Errorf("NewController(%v).Name() = %q, want %q", k, got, name)
		}
	}
	if got := NewController(ControllerKind(0), cfg).Name(); got != "static" {
		t.Errorf("zero ControllerKind built %q, want static", got)
	}
}

// TestStaticControllerNeverLimits: the static controller's window must
// be effectively unbounded and unmoved by any signal.
func TestStaticControllerNeverLimits(t *testing.T) {
	c := NewController(ControllerStatic, Config{}.WithDefaults())
	if c.Window() < math.MaxInt32 {
		t.Fatalf("static window = %d", c.Window())
	}
	for i := 0; i < 100; i++ {
		c.OnLoss()
	}
	if c.Window() < math.MaxInt32 {
		t.Fatalf("static window moved on loss: %d", c.Window())
	}
}

// TestAIMDControllerDynamics: additive increase of one packet per
// window of acks, halving on loss, floor InitialCredits (so the
// congestion window can never starve the receiver's refill threshold
// of arrivals), cap MaxCredits.
func TestAIMDControllerDynamics(t *testing.T) {
	c := NewController(ControllerAIMD, Config{InitialCredits: 4, MaxCredits: 16}.WithDefaults())
	if c.Window() != 4 {
		t.Fatalf("initial window = %d, want 4", c.Window())
	}
	// Roughly one window of acks buys one packet (the increment is
	// 1/cwnd of the growing window, so it takes a few extra acks to
	// cross the integer boundary).
	for i := 0; i < 5; i++ {
		c.OnAck(0)
	}
	if c.Window() != 5 {
		t.Fatalf("window after ~one window of acks = %d, want 5", c.Window())
	}
	// Sustained acks saturate at the cap.
	for i := 0; i < 1000; i++ {
		c.OnAck(0)
	}
	if c.Window() != 16 {
		t.Fatalf("window after sustained acks = %d, want cap 16", c.Window())
	}
	c.OnLoss()
	if c.Window() != 8 {
		t.Fatalf("window after loss = %d, want 8", c.Window())
	}
	// Repeated loss floors at InitialCredits, never below.
	for i := 0; i < 20; i++ {
		c.OnLoss()
	}
	if c.Window() != 4 {
		t.Fatalf("window after repeated loss = %d, want floor 4", c.Window())
	}
}

// TestRTTControllerDynamics: near-baseline RTT samples grow the
// window, inflated samples shrink it, and loss still halves it.
func TestRTTControllerDynamics(t *testing.T) {
	c := NewController(ControllerRTT, Config{InitialCredits: 4, MaxCredits: 64}.WithDefaults())

	// Establish the baseline and grow on clean samples.
	for i := 0; i < 40; i++ {
		c.OnAck(time.Millisecond)
	}
	grown := c.Window()
	if grown <= 4 {
		t.Fatalf("window did not grow on baseline RTT: %d", grown)
	}

	// Inflated RTT (≥2× baseline) shrinks the window without loss.
	for i := 0; i < 10; i++ {
		c.OnAck(5 * time.Millisecond)
	}
	shrunk := c.Window()
	if shrunk >= grown {
		t.Fatalf("window did not shrink on inflated RTT: %d (was %d)", shrunk, grown)
	}

	// Moderate inflation (1.25×–2×) holds rather than oscillating.
	hold := c.Window()
	c.OnAck(time.Millisecond + time.Millisecond/2)
	if c.Window() != hold {
		t.Fatalf("window moved in the hold band: %d -> %d", hold, c.Window())
	}

	// Loss is still the strongest signal: halve, floored at
	// InitialCredits.
	before := c.Window()
	c.OnLoss()
	want := before / 2
	if want < 4 {
		want = 4
	}
	if c.Window() != want {
		t.Fatalf("loss: window %d -> %d, want %d", before, c.Window(), want)
	}

	// Unsampled acks (rtt 0) keep ack-clocked growth alive.
	g := NewController(ControllerRTT, Config{InitialCredits: 2, MaxCredits: 64}.WithDefaults())
	for i := 0; i < 10; i++ {
		g.OnAck(0)
	}
	if g.Window() <= 2 {
		t.Fatalf("unsampled acks did not grow the window: %d", g.Window())
	}
}

// TestControllerWindowFloor: every adaptive controller floors at
// InitialCredits (here 1) and never reaches zero, or the connection
// deadlocks under sustained loss.
func TestControllerWindowFloor(t *testing.T) {
	for _, k := range []ControllerKind{ControllerAIMD, ControllerRTT} {
		c := NewController(k, Config{InitialCredits: 1}.WithDefaults())
		for i := 0; i < 100; i++ {
			c.OnLoss()
		}
		if c.Window() < 1 {
			t.Fatalf("%v window fell to %d under sustained loss", k, c.Window())
		}
	}
}
