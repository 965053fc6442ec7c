package flowctl

import (
	"slices"
	"testing"
	"time"

	"ncs/internal/packet"
)

func TestAlgorithmString(t *testing.T) {
	want := map[Algorithm]string{
		None: "none", Credit: "credit", Window: "window", Rate: "rate",
		Algorithm(9): "Algorithm(9)",
	}
	for a, s := range want {
		if a.String() != s {
			t.Errorf("%d.String() = %q, want %q", int(a), a.String(), s)
		}
	}
}

func TestNoneNeverBlocks(t *testing.T) {
	s := NewSender(None, Config{})
	defer s.Close()
	for i := 0; i < 1000; i++ {
		if !s.TryAcquire(uint32(i)) {
			t.Fatalf("None refused packet %d", i)
		}
	}
	r := NewReceiver(None, Config{})
	defer r.Close()
	if ctrl := r.OnData(0); ctrl != nil {
		t.Fatalf("None receiver produced control packets: %v", ctrl)
	}
}

func TestCreditSenderBlocksWithoutCredits(t *testing.T) {
	s := NewSender(Credit, Config{InitialCredits: 2})
	defer s.Close()

	if !s.TryAcquire(0) || !s.TryAcquire(1) {
		t.Fatal("the 2 initial credits did not admit 2 packets")
	}
	for i := 0; i < 3; i++ { // asked again, as a waiting sender does
		if s.TryAcquire(2) {
			t.Fatal("a third packet was admitted with 2 credits")
		}
	}
	// A cumulative grant covering a third packet admits it.
	s.OnControl(creditGrant(3))
	if !s.TryAcquire(2) {
		t.Fatal("the third packet was refused after its credit grant")
	}
	if s.TryAcquire(3) {
		t.Fatal("a fourth packet was admitted with 3 credits")
	}
}

// TestCreditGrantIdempotent pins the cumulative-grant semantics that
// make the scheme safe under control-plane loss, duplication and
// reordering: re-delivered and stale grants change nothing.
func TestCreditGrantIdempotent(t *testing.T) {
	s := newCreditSender(Config{InitialCredits: 2}.WithDefaults())
	defer s.Close()

	s.OnControl(creditGrant(10))
	if st := s.Stats(); st.Granted != 10 {
		t.Fatalf("granted = %d after grant of 10", st.Granted)
	}
	s.OnControl(creditGrant(10)) // duplicate
	s.OnControl(creditGrant(6))  // stale, reordered
	if st := s.Stats(); st.Granted != 10 {
		t.Fatalf("granted = %d after dup+stale grants, want 10", st.Granted)
	}
}

// TestCreditResyncMintsProbe checks credit resynchronisation: a
// repairing Resync frees exactly one admission for a wedged sender — by writing
// off one presumed-lost in-flight packet when there is any, minting an
// emergency probe otherwise — and does nothing while admission is
// still available.
func TestCreditResyncMintsProbe(t *testing.T) {
	s := newCreditSender(Config{InitialCredits: 1}.WithDefaults())
	defer s.Close()

	if !s.TryAcquire(0) {
		t.Fatal("initial credit not admitted")
	}
	if s.TryAcquire(1) {
		t.Fatal("admitted beyond the grant")
	}
	s.Resync()
	if !s.TryAcquire(1) {
		t.Fatal("probe minted by Resync did not admit")
	}
	if s.TryAcquire(2) {
		t.Fatal("one Resync admitted two packets")
	}
	st := s.Stats()
	if st.Used != 2 || st.Used > st.Granted+st.Probes+st.Lost {
		t.Fatalf("conservation violated after resync: %+v", st)
	}
	// A Resync with credit still available must not mint.
	s.OnControl(creditGrant(10))
	before := s.Stats().Probes
	s.Resync()
	if after := s.Stats().Probes; after != before {
		t.Fatalf("Resync minted a probe with credit available: %d -> %d", before, after)
	}
}

// TestCreditResyncBacksOff: a sender whose peer withholds its grant
// repairs on the 1st, 2nd, 4th, 8th… Resync since a grant last moved it,
// one admission each, so a long stall lets few packets past the grant;
// the next grant starts the count again.
func TestCreditResyncBacksOff(t *testing.T) {
	s := newCreditSender(Config{InitialCredits: 1}.WithDefaults())
	defer s.Close()
	next := uint32(0)
	admitted := func() (n int) {
		for ; s.TryAcquire(next); next++ {
			n++
		}
		return n
	}
	if admitted() != 1 {
		t.Fatal("the initial credit did not admit exactly one packet")
	}
	var repaired []int
	for i := 1; i <= 20; i++ {
		s.Resync()
		if n := admitted(); n > 0 {
			if n != 1 {
				t.Fatalf("Resync %d admitted %d packets, want 1", i, n)
			}
			repaired = append(repaired, i)
		}
	}
	if want := []int{1, 2, 4, 8, 16}; !slices.Equal(repaired, want) {
		t.Fatalf("Resyncs %v repaired, want %v", repaired, want)
	}
	s.OnControl(creditGrant(uint64(next)))
	admitted() // what the Resyncs wrote off returned to the grant space
	s.Resync()
	if admitted() != 1 {
		t.Fatal("the first Resync after a grant did not repair")
	}
}

// TestCreditCloseUnblocks: a closed sender admits nothing more, whatever
// arrives after the close — a grant, a resynchronisation — so a waiting
// sender's next ask ends its wait.
func TestCreditCloseUnblocks(t *testing.T) {
	s := NewSender(Credit, Config{InitialCredits: 1})
	if !s.TryAcquire(0) {
		t.Fatal("the initial credit did not admit")
	}
	s.Close()
	s.OnControl(creditGrant(10))
	s.Resync()
	if s.TryAcquire(1) {
		t.Fatal("a closed sender admitted a packet")
	}
}

func TestCreditSenderIgnoresForeignControl(t *testing.T) {
	s := newCreditSender(Config{InitialCredits: 1}.WithDefaults())
	defer s.Close()
	s.OnControl(packet.Control{Type: packet.CtrlAck, Body: packet.CreditBody(50)})
	if st := s.Stats(); st.Granted != 1 {
		t.Fatalf("granted = %d after foreign control, want 1", st.Granted)
	}
	s.OnControl(packet.Control{Type: packet.CtrlCreditGrant, Body: []byte{1, 2, 3}}) // malformed
	if st := s.Stats(); st.Granted != 1 {
		t.Fatalf("granted = %d after malformed grant, want 1", st.Granted)
	}
	// The legacy v1 per-arrival CtrlCredit delta is likewise not a
	// cumulative grant and must not move the state.
	s.OnControl(packet.Control{Type: packet.CtrlCredit, Body: packet.CreditBody(50)})
	if st := s.Stats(); st.Granted != 1 {
		t.Fatalf("granted = %d after v1 credit delta, want 1", st.Granted)
	}
}

// TestCreditReceiverDynamicGrants drives the receiver with a steady
// 1 kpkt/s arrival stream and checks the rate-sized advertisement: the
// window grows toward (and is capped at) MaxCredits under sustained
// activity, refills land at the 75% threshold rather than per arrival,
// and an idle gap decays the advertisement back to the floor.
func TestCreditReceiverDynamicGrants(t *testing.T) {
	clock := time.Unix(0, 0)
	now := func() time.Time { return clock }
	r := newCreditReceiver(Config{InitialCredits: 4, MaxCredits: 16, ActiveWindow: 10 * time.Millisecond, Now: now}.WithDefaults())
	defer r.Close()

	grants := 0
	var last packet.CreditGrant
	for i := 0; i < 40; i++ {
		clock = clock.Add(time.Millisecond)
		ctrl := r.OnData(uint32(i))
		if len(ctrl) == 0 {
			continue
		}
		if ctrl[0].Type != packet.CtrlCreditGrant {
			t.Fatalf("OnData returned %v", ctrl[0].Type)
		}
		g, err := packet.ParseCreditGrant(ctrl[0].Body)
		if err != nil {
			t.Fatal(err)
		}
		if g.Granted <= last.Granted {
			t.Fatalf("grant not monotonic: %d after %d", g.Granted, last.Granted)
		}
		last = g
		grants++
	}
	if grants == 0 || grants >= 40 {
		t.Fatalf("got %d grants for 40 arrivals; want threshold-based (0 < grants < 40)", grants)
	}
	// 1000 pkts/s over two 10ms activity windows → target 20, capped.
	if st := r.Stats(); st.Window != 16 {
		t.Fatalf("window = %d under sustained 1kpkt/s, want cap 16", st.Window)
	}

	// Going idle decays the advertisement back to the floor...
	clock = clock.Add(time.Second)
	r.OnData(99)
	if st := r.Stats(); st.Window != 4 {
		t.Fatalf("window after idle = %d, want floor 4", st.Window)
	}
	// ...but never retracts authority already advertised.
	if st := r.Stats(); st.Granted < last.Granted {
		t.Fatalf("granted retracted on idle: %d < %d", st.Granted, last.Granted)
	}
}

// TestCreditIdleCostsNoControlTraffic pins the idle-cost story: below
// the refill threshold OnData emits nothing, so a quiet stream sends
// no credit control packets at all.
func TestCreditIdleCostsNoControlTraffic(t *testing.T) {
	r := newCreditReceiver(Config{InitialCredits: 8}.WithDefaults())
	defer r.Close()
	for i := 0; i < 5; i++ { // 5*4 < 8*3: below the 75% threshold
		if ctrl := r.OnData(uint32(i)); len(ctrl) != 0 {
			t.Fatalf("sub-threshold arrival %d emitted %v", i, ctrl)
		}
	}
}

// TestCreditPiggybackGrant checks the ack-piggyback path: the grant
// refreshes the consumed count (retiring sender in-flight) without
// raising new credit, and non-credit receivers decline.
func TestCreditPiggybackGrant(t *testing.T) {
	cfg := Config{InitialCredits: 4}.WithDefaults()
	s := newCreditSender(cfg)
	r := newCreditReceiver(cfg)
	defer s.Close()
	defer r.Close()

	for i := 0; i < 2; i++ {
		if !s.TryAcquire(uint32(i)) {
			t.Fatalf("admission %d refused", i)
		}
		r.OnData(uint32(i))
	}
	ctrl, ok := Piggyback(r)
	if !ok {
		t.Fatal("credit receiver declined to piggyback")
	}
	s.OnControl(ctrl)
	st := s.Stats()
	if st.PeerConsumed != 2 {
		t.Fatalf("peer consumed = %d after piggyback, want 2", st.PeerConsumed)
	}
	if st.Inflight() != 0 {
		t.Fatalf("inflight = %d after piggyback, want 0", st.Inflight())
	}
	if _, ok := Piggyback(NewReceiver(Window, Config{})); ok {
		t.Fatal("window receiver offered a credit piggyback")
	}
}

// TestCreditControllerGatesInflight checks the congestion layer: with
// an AIMD controller, grants alone do not admit — in-flight must stay
// under the controller window, and consumed-count progress reopens it.
func TestCreditControllerGatesInflight(t *testing.T) {
	s := newCreditSender(Config{InitialCredits: 4, MaxCredits: 64, Controller: ControllerAIMD}.WithDefaults())
	defer s.Close()
	s.OnControl(creditGrant(100)) // ample credit; the controller is the limit

	admitted := 0
	for s.TryAcquire(uint32(admitted)) {
		admitted++
	}
	if admitted != 4 { // cwnd starts at InitialCredits
		t.Fatalf("admitted %d with cwnd 4, want 4", admitted)
	}
	// The peer consumes everything: in-flight drops to zero and the
	// window grows, so admission resumes.
	s.OnControl(packet.Control{
		Type: packet.CtrlCreditGrant,
		Body: packet.AppendCreditGrant(nil, packet.CreditGrant{Granted: 100, Consumed: 4, Window: 16}),
	})
	if !s.TryAcquire(uint32(admitted)) {
		t.Fatal("no admission after the peer consumed the in-flight")
	}
	if st := s.Stats(); st.Controller != "aimd" {
		t.Fatalf("controller = %q, want aimd", st.Controller)
	}
}

func TestWindowSenderBlocksAtWindowEdge(t *testing.T) {
	s := NewSender(Window, Config{WindowSize: 4})
	defer s.Close()

	for seq := uint32(0); seq < 4; seq++ {
		if !s.TryAcquire(seq) {
			t.Fatalf("seq %d refused inside the window", seq)
		}
	}
	if s.TryAcquire(4) {
		t.Fatal("seq 4 admitted beyond the window")
	}
	// Cumulative ack of seq 1 slides the window to base=2: seq 4 < 2+4.
	s.OnControl(packet.Control{Type: packet.CtrlWinAck, Body: packet.CreditBody(1)})
	if !s.TryAcquire(4) {
		t.Fatal("window never slid after ack")
	}
	if s.TryAcquire(6) {
		t.Fatal("seq 6 admitted beyond the slid window")
	}
	// Resync presumes everything outstanding lost and reopens the window.
	s.Resync()
	if !s.TryAcquire(8) {
		t.Fatal("window still closed after Resync")
	}
}

func TestWindowReceiverCumulativeAcks(t *testing.T) {
	r := NewReceiver(Window, Config{})
	defer r.Close()

	ctrl := r.OnData(0)
	if len(ctrl) != 1 {
		t.Fatalf("want 1 control packet, got %d", len(ctrl))
	}
	n, _ := packet.ParseCreditBody(ctrl[0].Body)
	if n != 0 {
		t.Fatalf("ack = %d, want 0", n)
	}
	r.OnData(1)
	r.OnData(5)
	ctrl = r.OnData(3) // out of order: highest stays 5
	n, _ = packet.ParseCreditBody(ctrl[0].Body)
	if n != 5 {
		t.Fatalf("ack = %d, want 5", n)
	}
}

func TestRateSenderPacesTransmission(t *testing.T) {
	// 100 packets/sec, burst 1: 10 ms between admissions.
	clock := time.Unix(0, 0)
	s := NewSender(Rate, Config{RatePerSec: 100, Burst: 1, Now: func() time.Time { return clock }})
	defer s.Close()

	if !s.TryAcquire(0) { // consumes the burst token
		t.Fatal("the burst token did not admit")
	}
	if s.TryAcquire(1) {
		t.Fatal("a second packet was admitted at once; pacing not enforced")
	}
	// Refill says when time alone admits the sender again, and it does
	// then, not before.
	wait := Refill(s)
	if wait < 9*time.Millisecond || wait > 10*time.Millisecond {
		t.Fatalf("Refill = %v, want 10 ms", wait)
	}
	clock = clock.Add(wait / 2)
	if s.TryAcquire(1) {
		t.Fatal("admitted half-way through the refill")
	}
	clock = clock.Add(wait)
	if !s.TryAcquire(1) {
		t.Fatal("refused once the bucket refilled")
	}
	s.Close()
	if d := Refill(s); d != 0 {
		t.Fatalf("Refill = %v for a closed sender, want 0", d)
	}
}

func TestRateSenderAdjustsFromControl(t *testing.T) {
	s := newRateSender(Config{RatePerSec: 10, Burst: 1}.WithDefaults())
	defer s.Close()
	s.OnControl(packet.Control{Type: packet.CtrlRate, Body: packet.CreditBody(5000)})
	if s.RateNow() != 5000 {
		t.Fatalf("rate = %v, want 5000", s.RateNow())
	}
	// Zero rate and malformed bodies are ignored.
	s.OnControl(packet.Control{Type: packet.CtrlRate, Body: packet.CreditBody(0)})
	if s.RateNow() != 5000 {
		t.Fatalf("rate changed on zero update: %v", s.RateNow())
	}
}

func TestRateReceiverAdvertisesRate(t *testing.T) {
	clock := time.Unix(0, 0)
	now := func() time.Time { return clock }
	r := newRateReceiver(Config{Now: now}.WithDefaults())
	defer r.Close()

	// 64 packets over 64 ms → observed 1000 pkts/s → advertised 1250.
	var ctrls []packet.Control
	for i := 0; i < 64; i++ {
		clock = clock.Add(time.Millisecond)
		ctrls = append(ctrls, cloneControls(r.OnData(uint32(i)))...)
	}
	if len(ctrls) != 1 {
		t.Fatalf("got %d rate updates, want 1 per window", len(ctrls))
	}
	if ctrls[0].Type != packet.CtrlRate {
		t.Fatalf("type = %v", ctrls[0].Type)
	}
	n, err := packet.ParseCreditBody(ctrls[0].Body)
	if err != nil {
		t.Fatal(err)
	}
	if n < 1100 || n > 1400 {
		t.Fatalf("advertised rate = %d, want ≈1250", n)
	}
	// The sender applies it.
	s := newRateSender(Config{RatePerSec: 10, Burst: 1}.WithDefaults())
	defer s.Close()
	s.OnControl(ctrls[0])
	if s.RateNow() != float64(n) {
		t.Fatalf("sender rate = %v after update", s.RateNow())
	}
}

func TestRateReceiverObservesRate(t *testing.T) {
	clock := time.Unix(0, 0)
	now := func() time.Time { return clock }
	r := newRateReceiver(Config{Now: now}.WithDefaults())
	defer r.Close()
	for i := 0; i < 100; i++ {
		r.OnData(uint32(i))
	}
	clock = clock.Add(time.Second)
	if got := r.ObservedRate(); got != 100 {
		t.Fatalf("observed rate = %v, want 100", got)
	}
}

// End-to-end property: a credit sender/receiver pair in a loop keeps
// the conservation invariant (used ≤ granted+probes) at every step,
// and all packets eventually flow through the threshold-based refills.
func TestCreditEndToEndConservation(t *testing.T) {
	cfg := Config{InitialCredits: 3, MaxCredits: 8}
	s := newCreditSender(cfg.WithDefaults())
	r := newCreditReceiver(cfg.WithDefaults())
	defer s.Close()
	defer r.Close()

	const total = 200
	var outstanding, maxOutstanding int
	var ctrlQ []packet.Control // control packets on their way back

	for i := 0; i < total; i++ {
		// The sender asks; refused, it reads the control packets that
		// arrived meanwhile, as a waiting sender does, and asks again.
		for !s.TryAcquire(uint32(i)) {
			if len(ctrlQ) == 0 {
				t.Fatalf("sender wedged at %d with no control packet in flight: %+v", i, s.Stats())
			}
			for _, c := range ctrlQ {
				s.OnControl(c)
			}
			ctrlQ, outstanding = ctrlQ[:0], 0
		}
		outstanding++
		maxOutstanding = max(maxOutstanding, outstanding)
		// OnData's scratch slice and the grant bodies are borrowed only
		// until the next call; copy both out before queueing them (the
		// runtime's emit marshals them into a pooled buffer for the same
		// reason).
		ctrlQ = append(ctrlQ, cloneControls(r.OnData(uint32(i)))...)
		if st := s.Stats(); st.Used > st.Granted+st.Probes {
			t.Fatalf("conservation violated at %d: %+v", i, st)
		}
	}

	if maxOutstanding < 2 {
		t.Fatalf("at most %d packet in flight: the grants never ran ahead", maxOutstanding)
	}
	st := s.Stats()
	if st.Used != total {
		t.Fatalf("used = %d, want %d", st.Used, total)
	}
	if rst := r.Stats(); rst.Arrived != total {
		t.Fatalf("receiver arrived = %d, want %d", rst.Arrived, total)
	}
}

// cloneControls deep-copies control packets out of a receiver's
// scratch: the slice and the bodies are borrowed only until the
// receiver's next OnData.
func cloneControls(cs []packet.Control) []packet.Control {
	out := make([]packet.Control, len(cs))
	for i, c := range cs {
		c.Body = append([]byte(nil), c.Body...)
		out[i] = c
	}
	return out
}
