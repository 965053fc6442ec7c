package chaos

import (
	"testing"
	"time"

	"ncs/internal/errctl"
	"ncs/internal/flowctl"
	"ncs/internal/telemetry"
	"ncs/internal/transport"
)

// TestPressureSlowConsumer is the backpressure axis of the matrix: a
// producer pushing multi-SDU messages at a consumer that sleeps before
// every receive, over the "pressure" schedule's burst loss. The credit
// flow control must absorb the rate mismatch by withholding grants —
// the sender parks instead of buffering without bound — and the run
// must still deliver everything once the bursts pass. After each run
// core.shard.parked_conns must be back to zero: a live connection left
// withholding its peer's grant is a delivery stall that survived
// teardown.
func TestPressureSlowConsumer(t *testing.T) {
	sched, ok := ScheduleByName("pressure")
	if !ok {
		t.Fatal("pressure schedule missing from roster")
	}
	seed := baseSeed(t)
	for _, ec := range []errctl.Algorithm{errctl.SelectiveRepeat, errctl.GoBackN} {
		for _, m := range models {
			cfg := Config{
				ErrCtl: ec, FlowCtl: flowctl.Credit, Transport: transport.HPI,
				FastPath: m.fastPath, Sharded: m.sharded,
				Schedule: sched, Seed: seed,
				Messages: 5, ConsumerDelay: 2 * time.Millisecond,
			}
			t.Run("pressure/"+cfg.Name(), func(t *testing.T) {
				t.Parallel()
				if err := Run(cfg); err != nil {
					t.Fatal(err)
				}
			})
		}
	}
}

// TestPressureLeavesNoParkedConns audits the gauge after the slow
// consumer runs (and any other parallel chaos activity) settle: every
// grant a default lane withheld must have been flushed by the pop that
// ended its backlog, or dropped with its connection at close.
// It runs in the package's sequential tail — t.Parallel tests above
// have all finished by the time non-parallel tests that come later in
// the file order run — but guards against stragglers by polling.
func TestPressureLeavesNoParkedConns(t *testing.T) {
	// One dedicated sharded slow-consumer run, sequentially, so the
	// assertion is about a settled process.
	sched, _ := ScheduleByName("pressure")
	cfg := Config{
		ErrCtl: errctl.SelectiveRepeat, FlowCtl: flowctl.Credit,
		Transport: transport.HPI, Sharded: true,
		Schedule: sched, Seed: baseSeed(t),
		Messages: 5, ConsumerDelay: 2 * time.Millisecond,
	}
	if err := Run(cfg); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		parked := telemetry.Capture().Gauges["core.shard.parked_conns"]
		if parked == 0 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("core.shard.parked_conns = %d after pressure run; a withheld grant outlived its backlog or its connection", parked)
		}
		time.Sleep(20 * time.Millisecond)
	}
}
