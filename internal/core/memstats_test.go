package core

import (
	"testing"
	"time"

	"ncs/internal/transport"
)

// TestMemStatsLazyFootprint checks that MemStats sees the memory diet:
// an idle sharded connection counts little more than its bare struct,
// and traffic materialises the lazy state the estimate then reflects.
func TestMemStatsLazyFootprint(t *testing.T) {
	nw := NewNetwork()
	defer nw.Close()
	sa, err := nw.NewSystem("mem-a")
	if err != nil {
		t.Fatal(err)
	}
	sb, err := nw.NewSystem("mem-b")
	if err != nil {
		t.Fatal(err)
	}
	opts := Options{Interface: transport.HPI, Runtime: RuntimeSharded}
	conn, err := sa.Connect("mem-b", opts)
	if err != nil {
		t.Fatal(err)
	}
	peer, err := sb.Accept()
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	defer peer.Close()

	idle := sa.Telemetry().Mem
	if idle.Conns != 1 {
		t.Fatalf("Conns = %d, want 1", idle.Conns)
	}
	if idle.LiveSessions != 0 {
		t.Fatalf("idle LiveSessions = %d, want 0", idle.LiveSessions)
	}
	if idle.PendingTimers != 0 {
		t.Fatalf("idle PendingTimers = %d, want 0 (no heartbeat, no sends)", idle.PendingTimers)
	}
	// The idle estimate must stay near the bare struct: no send/recv
	// queues, no flow control halves, no session tables.
	if per := idle.BytesPerConn(); per > 2048 {
		t.Fatalf("idle BytesPerConn = %.0f, want <= 2048", per)
	}

	if err := conn.Send([]byte("wake up")); err != nil {
		t.Fatal(err)
	}
	if _, err := peer.RecvTimeout(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	active := sa.Telemetry().Mem
	if active.EstimatedBytes <= idle.EstimatedBytes {
		t.Fatalf("active estimate %d not above idle %d: lazy state not counted",
			active.EstimatedBytes, idle.EstimatedBytes)
	}
	// The receiving side materialised its delivered queue and a session.
	peerStats := sb.Telemetry().Mem
	if peerStats.EstimatedBytes <= idle.EstimatedBytes {
		t.Fatalf("receiver estimate %d not above idle floor %d",
			peerStats.EstimatedBytes, idle.EstimatedBytes)
	}
}
