// Package chaos is the seeded fault-injection conformance harness: it
// runs any (error control × flow control × transport × thread model)
// combination of the NCS stack over a hostile simulated network and
// asserts the paper's delivery contracts.
//
// The hostility comes from internal/netsim's programmable impairments
// — duplication, reordering, Gilbert–Elliott burst loss, link
// partition/heal, and mid-run parameter mutation — driven through
// named, packet-count-keyed schedules (Schedules). Every stochastic
// decision derives from Config.Seed, so a failing run is a coordinate,
// not an anecdote: rerun the same subtest (the seed is in its name)
// and the same packets fail the same way.
//
// The contracts asserted (Run):
//
//   - selective repeat and go-back-N deliver every message exactly
//     once, in order, byte-identical, with Message.Lost == 0 — no
//     matter what the schedule did to the data path;
//   - None never blocks on recovery and reports loss honestly: a
//     delivery with Lost == 0 must be byte-identical to a message that
//     was actually sent (silent corruption is a violation; missing or
//     duplicated whole messages are the accepted price of "none");
//   - the run terminates: a partition heals, senders resynchronise,
//     and Close leaves no goroutine or pooled buffer behind (audited
//     by the package tests' TestMain).
//
// RunRPC layers the RPC client/server on the same impaired substrate
// and asserts the call contract: every call either completes with the
// correct echo or fails within (a small grace of) the caller's
// deadline.
package chaos

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"time"

	"ncs/internal/atm"
	"ncs/internal/core"
	"ncs/internal/errctl"
	"ncs/internal/flowctl"
	"ncs/internal/netsim"
	"ncs/internal/telemetry"
	"ncs/internal/transport"
)

// Config selects one protocol-matrix combination and one impairment
// schedule.
type Config struct {
	// ErrCtl selects the error control algorithm (§3.2).
	ErrCtl errctl.Algorithm
	// FlowCtl selects the flow control algorithm (§3.3).
	FlowCtl flowctl.Algorithm
	// Transport selects the interface. HPI impairs at SDU-packet
	// granularity, ACI at ATM-cell granularity (where duplication and
	// reordering inside a frame surface as AAL5 frame loss). UDP runs
	// over real loopback sockets with the seeded wire impairer at
	// datagram (= SDU-packet) granularity. SCI rides a real TCP socket
	// and only accepts the clean schedule.
	Transport transport.Kind
	// FastPath selects the §4.2 thread-bypassing procedures instead of
	// the per-connection threads.
	FastPath bool
	// Sharded drives the connection from the System's shard pool
	// (core.RuntimeSharded) instead of per-connection threads. Ignored
	// when FastPath is set (a fast-path connection is on the pool anyway).
	Sharded bool
	// Schedule is the impairment schedule applied to the data path
	// (both directions); the control path stays clean, per the paper's
	// separated control plane.
	Schedule Schedule
	// Seed drives the payload generator and every link RNG. Zero means
	// seed 1.
	Seed int64
	// Messages is the number of messages to push through; default 6.
	Messages int
	// MaxMsg bounds the random message size; default 2800 bytes
	// (multi-SDU at the harness's 512-byte SDU).
	MaxMsg int
	// ConsumerDelay makes the receiver a slow consumer: it sleeps this
	// long before every receive, so the sender's flow control — not the
	// harness — is what bounds buffering on the producing side.
	ConsumerDelay time.Duration
}

// The harness's fixed protocol parameters: a small SDU so ordinary
// messages segment, and a short retransmission timer so loss recovery
// converges in test time.
const (
	harnessSDU        = 512
	harnessAckTimeout = 25 * time.Millisecond
	// cellsPerSDU approximates how many ATM cells carry one
	// harness-sized SDU; cell-level schedules scale by it so the
	// per-SDU impairment pressure matches the packet-level schedules.
	cellsPerSDU = 12
)

// Schedule is a named impairment schedule, defined at SDU-packet
// granularity.
type Schedule struct {
	Name   string
	Phases []netsim.Phase
}

// Clean reports whether the schedule injects nothing (the conformance
// baseline, and the only schedule a real-socket transport can run).
func (s Schedule) Clean() bool { return len(s.Phases) == 0 }

// scaled returns the schedule at cell granularity, keeping the
// per-SDU impairment pressure comparable to the packet-level
// schedules: one SDU's fate is decided across cellsPerSDU cells, so
// per-event probabilities (duplication, reorder, burst entry) divide
// by it, phase lengths and the burst dwell stretch by it, and
// good-state loss converts exactly — a per-cell rate p_c such that a
// whole frame survives with the per-SDU probability 1-p. LossBad
// stays as configured: it is the loss density inside a burst, and an
// unscaled bad state still shreds every frame it overlaps, which is
// the point of a burst.
func (s Schedule) scaled() []netsim.Phase {
	if s.Clean() {
		return nil
	}
	out := make([]netsim.Phase, len(s.Phases))
	for i, ph := range s.Phases {
		imp := ph.Imp
		imp.DupRate /= cellsPerSDU
		imp.ReorderRate /= cellsPerSDU
		imp.Burst.PGoodBad /= cellsPerSDU
		imp.Burst.PBadGood /= cellsPerSDU
		imp.Burst.LossGood = 1 - math.Pow(1-imp.Burst.LossGood, 1.0/cellsPerSDU)
		out[i] = netsim.Phase{Packets: ph.Packets * cellsPerSDU, Imp: imp}
	}
	return out
}

// Schedules are the named impairment schedules of the conformance
// matrix. Each exercises one failure family the 1998 testbed could
// produce; "mutate" changes the failure process mid-run.
var Schedules = []Schedule{
	{Name: "clean"},
	{Name: "loss", Phases: []netsim.Phase{
		// i.i.d. loss expressed through the burst model's good state,
		// so the whole failure process stays on one RNG stream.
		{Imp: netsim.Impairments{Burst: netsim.GilbertElliott{LossGood: 0.15}}},
	}},
	{Name: "duplicate", Phases: []netsim.Phase{
		{Imp: netsim.Impairments{DupRate: 0.3}},
	}},
	{Name: "reorder", Phases: []netsim.Phase{
		{Imp: netsim.Impairments{ReorderRate: 0.3, ReorderJitter: 4 * time.Millisecond}},
	}},
	{Name: "burst", Phases: []netsim.Phase{
		{Imp: netsim.Impairments{Burst: netsim.GilbertElliott{
			PGoodBad: 0.05, PBadGood: 0.3, LossBad: 0.95,
		}}},
	}},
	{Name: "partition", Phases: []netsim.Phase{
		{Packets: 25, Imp: netsim.Impairments{}},
		{Packets: 40, Imp: netsim.Impairments{Partitioned: true}},
		{Imp: netsim.Impairments{}},
	}},
	{Name: "pressure", Phases: []netsim.Phase{
		// The backpressure schedule: a clean ramp so the sender's credit
		// window opens, then dense loss bursts while (in the dedicated
		// pressure tests) the consumer drains slowly. The sender must
		// park on withheld credits — bounded buffering — rather than
		// ballooning its queues, and still finish when the bursts pass.
		{Packets: 20, Imp: netsim.Impairments{}},
		{Imp: netsim.Impairments{Burst: netsim.GilbertElliott{
			PGoodBad: 0.03, PBadGood: 0.4, LossBad: 0.9,
		}}},
	}},
	{Name: "mutate", Phases: []netsim.Phase{
		{Packets: 30, Imp: netsim.Impairments{Burst: netsim.GilbertElliott{LossGood: 0.25}}},
		{Packets: 30, Imp: netsim.Impairments{DupRate: 0.5, ReorderRate: 0.2, ReorderJitter: 3 * time.Millisecond}},
		{Packets: 20, Imp: netsim.Impairments{Partitioned: true}},
		{Imp: netsim.Impairments{}},
	}},
}

// ScheduleByName returns the named schedule, for replaying a failure
// reported by the matrix tests.
func ScheduleByName(name string) (Schedule, bool) {
	for _, s := range Schedules {
		if s.Name == name {
			return s, true
		}
	}
	return Schedule{}, false
}

func (c Config) withDefaults() Config {
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.Messages <= 0 {
		c.Messages = 6
	}
	if c.MaxMsg <= 0 {
		c.MaxMsg = 2800
	}
	return c
}

// Name is the subtest-style identity of the combination — enough to
// replay the run exactly.
func (c Config) Name() string {
	model := "threaded"
	switch {
	case c.FastPath:
		model = "fastpath"
	case c.Sharded:
		model = "sharded"
	}
	return fmt.Sprintf("%v/%v/%v/%s/%s/seed%d",
		c.ErrCtl, c.FlowCtl, c.Transport, model, c.Schedule.Name, c.Seed)
}

// options builds the connection Options for the combination, wiring
// the schedule into the data path of the chosen transport.
func (c Config) options() (core.Options, error) {
	opts := core.Options{
		Interface:    c.Transport,
		ErrorControl: c.ErrCtl,
		FlowControl:  c.FlowCtl,
		SDUSize:      harnessSDU,
		AckTimeout:   harnessAckTimeout,
		FastPath:     c.FastPath,
	}
	if c.Sharded && !c.FastPath {
		opts.Runtime = core.RuntimeSharded
	}
	switch c.Transport {
	case transport.HPI:
		opts.HPILink = &netsim.Params{
			Delay:    100 * time.Microsecond,
			Seed:     c.Seed,
			Schedule: c.Schedule.Phases,
		}
	case transport.ACI:
		opts.QoS = atm.QoS{
			Delay:    100 * time.Microsecond,
			Seed:     c.Seed,
			Schedule: c.Schedule.scaled(),
		}
	case transport.UDP:
		opts.UDPLink = &transport.UDPLink{
			MaxPacket: harnessSDU + 128,
			Seed:      c.Seed,
			Schedule:  c.Schedule.Phases,
		}
	case transport.SCI:
		if !c.Schedule.Clean() {
			return core.Options{}, fmt.Errorf("chaos: SCI rides a real socket; schedule %q cannot be injected", c.Schedule.Name)
		}
	default:
		return core.Options{}, fmt.Errorf("chaos: unknown transport %v", c.Transport)
	}
	return opts, nil
}

// payloads derives the run's messages from the seed: sizes span the
// single-SDU fast path through multi-SDU reassembly, contents are
// random bytes the conformance checks compare exactly.
func (c Config) payloads() [][]byte {
	rng := rand.New(rand.NewSource(c.Seed))
	msgs := make([][]byte, c.Messages)
	for i := range msgs {
		n := 1 + rng.Intn(c.MaxMsg)
		m := make([]byte, n)
		rng.Read(m)
		msgs[i] = m
	}
	return msgs
}

// reliable reports whether the error-control mode guarantees delivery.
func (c Config) reliable() bool { return c.ErrCtl != errctl.None }

// Violation is a conformance failure: the stack broke one of the
// paper's delivery contracts under the schedule.
type Violation struct {
	Config Config
	Detail string
}

func (v *Violation) Error() string {
	return fmt.Sprintf("chaos %s: %s", v.Config.Name(), v.Detail)
}

func (c Config) violation(format string, args ...any) error {
	return &Violation{Config: c, Detail: fmt.Sprintf(format, args...)}
}

// connect builds a fresh two-system network and one configured
// connection across it. The caller must Close the network.
func (c Config) connect(nw *core.Network) (conn, peer *core.Connection, err error) {
	opts, err := c.options()
	if err != nil {
		return nil, nil, err
	}
	a, err := nw.NewSystem("chaos-a")
	if err != nil {
		return nil, nil, err
	}
	b, err := nw.NewSystem("chaos-b")
	if err != nil {
		return nil, nil, err
	}
	conn, err = a.Connect("chaos-b", opts)
	if err != nil {
		return nil, nil, err
	}
	peer, err = b.Accept()
	if err != nil {
		conn.Close()
		return nil, nil, err
	}
	return conn, peer, nil
}

// recvDeadline bounds one reliable receive: it must cover the longest
// schedule stall (a partition that heals only as retransmissions grind
// through it) with a wide margin, while still failing hung runs fast
// enough for a test matrix.
const recvDeadline = 20 * time.Second

// Report is the observability record of one conformance run: what the
// schedule actually did to the data path, next to what the stack's own
// instruments recorded while it happened. The reconciliation tests
// cross-check the two — injected faults must be visible in telemetry.
type Report struct {
	// DataPath holds the impairment decisions made on data packets the
	// sending side transmitted (HPI counts SDU packets, ACI counts ATM
	// cells). Valid only when DataPathKnown — SCI rides a real socket
	// and reports nothing.
	DataPath      netsim.ImpairStats
	DataPathKnown bool
	// Telemetry is the delta of the process-global instruments across
	// the run. Concurrent activity elsewhere in the process also lands
	// in the delta, so reconciliation assertions must be one-sided
	// (counter delta ≥ injected events, never equality).
	Telemetry telemetry.Snapshot
}

// Run pushes the configured message sequence through the combination
// and checks the delivery contracts. It returns nil on conformance, a
// *Violation when the stack broke a contract, or another error when
// the harness itself could not run.
func Run(cfg Config) error {
	_, err := RunReport(cfg)
	return err
}

// RunReport is Run returning the run's observability Report alongside
// the conformance verdict. The Report is valid whenever the harness
// itself ran (even when the verdict is a *Violation).
func RunReport(cfg Config) (Report, error) {
	cfg = cfg.withDefaults()
	before := telemetry.Capture()
	nw := core.NewNetwork()
	defer nw.Close()
	conn, peer, err := cfg.connect(nw)
	if err != nil {
		return Report{}, err
	}
	defer conn.Close()
	defer peer.Close()

	expected := cfg.payloads()
	senderDone := make(chan error, 1)
	go func() {
		for _, msg := range expected {
			if err := conn.Send(msg); err != nil {
				senderDone <- fmt.Errorf("send: %w", err)
				return
			}
		}
		senderDone <- nil
	}()

	var recvErr error
	if cfg.reliable() {
		recvErr = cfg.recvReliable(peer, expected)
	} else {
		recvErr = cfg.recvUnreliable(peer, expected, senderDone)
	}
	if cfg.reliable() {
		// The reliable sender must itself have completed: every message
		// acknowledged end to end.
		select {
		case err := <-senderDone:
			if err != nil && recvErr == nil {
				recvErr = cfg.violation("%v", err)
			}
		case <-time.After(recvDeadline):
			if recvErr == nil {
				recvErr = cfg.violation("sender hung after receiver finished")
			}
		}
	}
	var rep Report
	rep.DataPath, rep.DataPathKnown = conn.ImpairStats()
	rep.Telemetry = telemetry.Capture().Delta(before)
	return rep, recvErr
}

// recvReliable asserts exactly-once, in-order, byte-identical delivery.
// It reads borrowed messages — verify, then Release — so where the link
// duplicates, the copies that share one buffer's storage are exercised.
func (c Config) recvReliable(peer *core.Connection, expected [][]byte) error {
	for i, want := range expected {
		if c.ConsumerDelay > 0 {
			time.Sleep(c.ConsumerDelay)
		}
		m, err := peer.RecvMessageTimeout(recvDeadline)
		if err != nil {
			return c.violation("message %d/%d never delivered: %v", i+1, len(expected), err)
		}
		lost, size, intact := m.Lost, len(m.Data), bytes.Equal(m.Data, want)
		m.Release()
		if lost != 0 {
			return c.violation("message %d delivered with Lost=%d on a reliable connection", i+1, lost)
		}
		if !intact {
			return c.violation("message %d corrupted or out of order: got %d bytes, want %d",
				i+1, size, len(want))
		}
	}
	// Nothing may trail the sequence: a duplicate here means a session
	// was delivered twice.
	if m, err := peer.RecvMessageTimeout(100 * time.Millisecond); err == nil {
		size := len(m.Data)
		m.Release()
		return c.violation("extra %d-byte message delivered after the full sequence (duplicate delivery)", size)
	} else if !errors.Is(err, core.ErrRecvTimeout) {
		return c.violation("post-sequence receive failed: %v", err)
	}
	return nil
}

// recvUnreliable drains deliveries until the sender finishes and the
// line goes quiet, asserting honest loss accounting: Lost == 0 implies
// the payload matches a sent message byte for byte.
func (c Config) recvUnreliable(peer *core.Connection, expected [][]byte, senderDone <-chan error) error {
	sent := make(map[string]bool, len(expected))
	for _, m := range expected {
		sent[string(m)] = true
	}
	done := false
	delivered := 0
	for {
		if c.ConsumerDelay > 0 {
			time.Sleep(c.ConsumerDelay)
		}
		m, err := peer.RecvMessageTimeout(250 * time.Millisecond)
		if errors.Is(err, core.ErrRecvTimeout) {
			if done {
				return nil
			}
			select {
			case serr := <-senderDone:
				if serr != nil {
					return c.violation("unreliable sender failed: %v", serr)
				}
				done = true // one more quiet interval confirms the drain
			default:
			}
			continue
		}
		if err != nil {
			return c.violation("receive failed mid-run: %v", err)
		}
		delivered++
		if delivered > 2*len(expected) {
			return c.violation("delivered %d messages from %d sent (duplication storm)", delivered, len(expected))
		}
		size, honest := len(m.Data), m.Lost != 0 || sent[string(m.Data)]
		m.Release()
		if !honest {
			return c.violation("Lost=0 delivery of %d bytes matching no sent message (silent corruption)", size)
		}
	}
}
