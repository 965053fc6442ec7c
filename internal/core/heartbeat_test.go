package core

import (
	"errors"
	"runtime"
	"testing"
	"time"

	"ncs/internal/transport"
)

// TestHeartbeatScaleOneSweepTimer is the scale proof for the liveness
// sweep: thousands of heartbeat-enabled sharded connections on ONE
// System must cost zero per-connection goroutines and zero
// per-connection timers while idle — the System arms one sweep timer
// for all of them, the shard loops do the rest — and the heartbeat must
// still do its job at that scale: a silenced peer is declared
// unreachable within a few intervals while every healthy connection
// stays up on pongs.
func TestHeartbeatScaleOneSweepTimer(t *testing.T) {
	const shardN = 4
	conns := 8192
	if testing.Short() {
		conns = 1024
	}

	baseline := runtime.NumGoroutine()

	nw := NewNetwork()
	defer nw.Close()
	sysA, err := nw.NewSystem("hb-scale-a")
	if err != nil {
		t.Fatal(err)
	}
	sysB, err := nw.NewSystem("hb-scale-b")
	if err != nil {
		t.Fatal(err)
	}
	if err := sysA.SetShards(shardN); err != nil {
		t.Fatal(err)
	}
	if err := sysB.SetShards(shardN); err != nil {
		t.Fatal(err)
	}

	// The A side carries the heartbeats; the B side only answers pings
	// (pong handling is unconditional), so every ping/pong pair in the
	// test is driven by the one sweep under test on sysA. The interval
	// is deliberately wide: each sweep bursts thousands of ping/pong
	// round trips through one CPU's shard loops, and under the race
	// detector a burst can take a large fraction of a second — the
	// three-miss silence window must comfortably absorb that.
	const massHB = time.Second
	massOpts := Options{
		Interface: transport.HPI,
		Runtime:   RuntimeSharded,
		Heartbeat: massHB,
	}.withDefaults()
	peerOpts := Options{
		Interface: transport.HPI,
		Runtime:   RuntimeSharded,
	}.withDefaults()

	healthy := make([]*Connection, 0, conns)
	start := time.Now()
	for i := 0; i < conns; i++ {
		data, pdata := transport.HPIPair()
		ctrl, pctrl := transport.HPIPair()
		id := uint32(i + 1)
		healthy = append(healthy, newConnection(sysA, "hb-scale-b", id, massOpts, data, ctrl, true))
		newConnection(sysB, "hb-scale-a", id, peerOpts, pdata, pctrl, false)
	}
	t.Logf("established %d heartbeat pairs in %v", conns, time.Since(start))

	// Idle footprint: goroutines are O(shards) — two shard pools, two
	// master threads, no timer goroutine — never O(conns). At 8k
	// connections even one goroutine per hundred connections would blow
	// this budget.
	if grown := runtime.NumGoroutine() - baseline; grown > 2*shardN+10 {
		t.Fatalf("goroutines grew by %d for %d connections, want O(shards)=%d", grown, conns, shardN)
	}
	ms := sysA.Telemetry().Mem
	if ms.Conns != conns {
		t.Fatalf("MemStats.Conns = %d, want %d", ms.Conns, conns)
	}
	// One sweep timer for the System — not one per connection, nor one
	// per shard.
	if ms.PendingTimers > 1 {
		t.Fatalf("PendingTimers = %d for %d heartbeat connections, want ≤ 1 (one sweep per System)", ms.PendingTimers, conns)
	}
	if per := ms.BytesPerConn(); per > 2048 {
		t.Fatalf("estimated idle bytes/conn = %.0f at %d conns, want ≤ 2048", per, conns)
	}

	// A silenced peer among thousands of healthy ones: its raw
	// endpoints are never wrapped in a Connection, so nothing ever
	// answers, and the sweep must declare it dead within a few
	// intervals even while sharing shards with the full population.
	const silentHB = 25 * time.Millisecond
	data, silentData := transport.HPIPair()
	ctrl, silentCtrl := transport.HPIPair()
	defer silentData.Close()
	defer silentCtrl.Close()
	silentOpts := Options{
		Interface: transport.HPI,
		Runtime:   RuntimeSharded,
		Heartbeat: silentHB,
	}.withDefaults()
	silent := newConnection(sysA, "silent-peer", uint32(conns+1), silentOpts, data, ctrl, true)

	detect := time.Now()
	_, err = silent.RecvTimeout(10 * time.Second)
	if !errors.Is(err, ErrPeerUnreachable) {
		t.Fatalf("silent peer: err = %v, want ErrPeerUnreachable", err)
	}
	// Nominal detection is ≈4×silentHB; the bound is generous because
	// the race detector on a single-core CI runner stretches the wall
	// clock badly at this connection count. The regression this guards
	// against — a sweep that skips the silent connection and never
	// fires — hits the 10s RecvTimeout instead.
	if elapsed := time.Since(detect); elapsed > 5*time.Second {
		t.Fatalf("silent peer detected after %v, want ≈4×%v", elapsed, silentHB)
	}

	// The healthy population must outlive several of its own silence
	// windows: pongs flowed through the shard loops, so nobody else
	// was declared dead.
	if wait := 4*massHB - time.Since(start); wait > 0 {
		time.Sleep(wait)
	}
	pongs := uint64(0)
	for i, c := range healthy {
		if c.failed.Load() {
			t.Fatalf("healthy connection %d declared dead", i)
		}
		pongs += c.Stats().ControlReceived
	}
	if pongs == 0 {
		t.Fatal("no pongs observed across the healthy population")
	}
}

// TestHeartbeatCostsNoThread: a threaded connection is one goroutine,
// its private shard's loop — Figure 4's Send and Control Send Threads
// are procedures, its Receive and Control Receive Threads that one loop
// — whether or not it asks for a heartbeat: fault detection uses the
// control path, it does not add a second, and the System's sweep is a
// timer, not a goroutine.
func TestHeartbeatCostsNoThread(t *testing.T) {
	// Earlier tests' stragglers must be gone before goroutines are
	// counted exactly: back to the idle process plus this test's own.
	if err := awaitQuiescence(idleGoroutines+1, 5*time.Second); err != nil {
		t.Fatal(err)
	}
	nw := NewNetwork()
	defer nw.Close()
	a, _ := nw.NewSystem("two-a")
	b, _ := nw.NewSystem("two-b")
	before := runtime.NumGoroutine() // the two Master Threads included
	conn, err := a.Connect("two-b", Options{Interface: transport.HPI, Heartbeat: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := b.Accept(); err != nil {
		t.Fatal(err)
	}
	if grown := runtime.NumGoroutine() - before; grown != 2*1 {
		t.Fatalf("a threaded heartbeat connection added %d goroutines over its two ends, want exactly 1 per end", grown)
	}
	if n := a.Telemetry().Mem.PendingTimers; n != 1 {
		t.Fatalf("PendingTimers = %d with a heartbeat connection live, want the one sweep timer", n)
	}
	conn.Close()
}
