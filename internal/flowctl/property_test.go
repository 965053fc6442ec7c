package flowctl

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"ncs/internal/packet"
)

// Seeded credit-conservation property test. Each seed drives one
// sender/receiver pair through a randomized schedule in which both the
// data plane and the grant plane lose, duplicate and reorder packets,
// and checks the conservation invariants after every event:
//
//   - Used ≤ Granted + Probes + Lost — the sender never transmits
//     beyond its authority (granted credits, resynchronisation probes,
//     and credits returned by written-off losses); this
//     is "granted == consumed + outstanding" with the outstanding side
//     solved for, stated so it survives loss.
//   - PeerConsumed + Lost ≤ Used — in-flight accounting never
//     underflows, however grants are duplicated or delayed.
//   - Receiver grants are monotonic and never exceed its arrivals by
//     more than MaxCredits — authority is bounded by real buffer space.
//
// Every seed ends with a clean-drain phase proving liveness: once the
// schedule stops losing packets, Resync-nudged retries must push fresh
// traffic through — no wedged state is reachable.
//
// The receiver gets no emitter, so no refill-retry timers are armed:
// the schedule is a pure state machine and runs deterministically
// under -race across all seeds (the frozen cfg.Now clock only advances
// when the schedule says so).

const propertySeeds = 1000

func TestCreditConservationProperty(t *testing.T) {
	for seed := 0; seed < propertySeeds; seed++ {
		t.Run(fmt.Sprintf("seed%04d", seed), func(t *testing.T) {
			t.Parallel()
			runCreditSchedule(t, int64(seed))
		})
	}
}

func runCreditSchedule(t *testing.T, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	clock := time.Unix(0, 0)
	cfg := Config{
		InitialCredits: 1 + rng.Intn(4),
		MaxCredits:     8 + rng.Intn(57),
		ActiveWindow:   10 * time.Millisecond,
		Controller:     ControllerKind(rng.Intn(3)),
		Now:            func() time.Time { return clock },
	}.withDefaults()
	s := newCreditSender(cfg)
	r := newCreditReceiver(cfg)
	defer s.Close()
	defer r.Close()

	var (
		dataQ       []uint32         // data packets in flight
		ctrlQ       []packet.Control // grants in flight
		seq         uint32
		prevGranted uint64
	)
	check := func(stage string, step int) {
		t.Helper()
		st := s.Stats()
		if st.Used > st.Granted+st.Probes+st.Lost {
			t.Fatalf("seed %d %s step %d: conservation violated: used %d > granted %d + probes %d + lost %d",
				seed, stage, step, st.Used, st.Granted, st.Probes, st.Lost)
		}
		if st.PeerConsumed+st.Lost > st.Used {
			t.Fatalf("seed %d %s step %d: inflight underflow: consumed %d + lost %d > used %d",
				seed, stage, step, st.PeerConsumed, st.Lost, st.Used)
		}
		rst := r.Stats()
		if rst.Granted < prevGranted {
			t.Fatalf("seed %d %s step %d: receiver grant retracted: %d -> %d",
				seed, stage, step, prevGranted, rst.Granted)
		}
		prevGranted = rst.Granted
		if rst.Granted > rst.Arrived+uint64(cfg.MaxCredits) {
			t.Fatalf("seed %d %s step %d: over-grant: granted %d > arrived %d + max %d",
				seed, stage, step, rst.Granted, rst.Arrived, cfg.MaxCredits)
		}
	}

	// popRandom models reordering: in-flight packets overtake each other.
	popData := func() uint32 {
		i := rng.Intn(len(dataQ))
		v := dataQ[i]
		dataQ[i] = dataQ[len(dataQ)-1]
		dataQ = dataQ[:len(dataQ)-1]
		return v
	}
	popCtrl := func() packet.Control {
		i := rng.Intn(len(ctrlQ))
		v := ctrlQ[i]
		ctrlQ[i] = ctrlQ[len(ctrlQ)-1]
		ctrlQ = ctrlQ[:len(ctrlQ)-1]
		return v
	}
	deliverData := func(p uint32) {
		ctrlQ = append(ctrlQ, cloneControls(r.OnData(p))...)
	}

	const steps = 300
	for step := 0; step < steps; step++ {
		switch op := rng.Intn(10); {
		case op < 4: // attempt a send; on refusal, sometimes emulate the
			// sender's admission wait expiring → Resync retry.
			if s.TryAcquire(seq) {
				dataQ = append(dataQ, seq)
				seq++
			} else if rng.Intn(2) == 0 {
				s.Resync()
			}
		case op < 7: // data plane event: deliver, drop, or duplicate
			if len(dataQ) == 0 {
				continue
			}
			p := popData()
			switch d := rng.Intn(10); {
			case d < 2: // lost
			case d < 3: // duplicated: deliver now and leave a copy in flight
				deliverData(p)
				dataQ = append(dataQ, p)
			default:
				deliverData(p)
			}
		case op < 9: // grant plane event: deliver, drop, or duplicate
			if len(ctrlQ) == 0 {
				continue
			}
			c := popCtrl()
			switch d := rng.Intn(10); {
			case d < 2: // lost
			case d < 3: // duplicated
				s.OnControl(c)
				ctrlQ = append(ctrlQ, c)
			default:
				s.OnControl(c)
			}
		default: // time passes (drives rate sizing and idle decay)
			clock = clock.Add(time.Duration(rng.Intn(5_000_000)))
		}
		check("schedule", step)
	}

	// Clean drain: no more loss. Flush everything in flight, then prove
	// the pair can still move fresh traffic with Resync nudges standing
	// in for the sender's retransmission timeouts.
	for len(dataQ) > 0 {
		deliverData(popData())
		check("flush", len(dataQ))
	}
	for len(ctrlQ) > 0 {
		s.OnControl(popCtrl())
		check("flush", len(ctrlQ))
	}
	const fresh = 20
	delivered := 0
	for tries := 0; delivered < fresh && tries < 10_000; tries++ {
		if s.TryAcquire(seq) {
			deliverData(seq)
			seq++
			delivered++
			for len(ctrlQ) > 0 {
				s.OnControl(popCtrl())
			}
		} else {
			s.Resync()
		}
		clock = clock.Add(time.Millisecond)
		check("drain", tries)
	}
	if delivered < fresh {
		t.Fatalf("seed %d: recovery stalled after the clean drain: %d/%d fresh packets, sender %+v, receiver %+v",
			seed, delivered, fresh, s.Stats(), r.Stats())
	}
	if rst := r.Stats(); rst.Arrived == 0 {
		t.Fatalf("seed %d: no packets flowed at all", seed)
	}
}
