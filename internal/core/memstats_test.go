package core

import (
	"testing"
	"time"
	"unsafe"

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

// TestRegistryForgetsClosedConnections: the System's registry — what
// the liveness sweep and memStats walk — holds live connections only.
// It used to keep every closed one (struct, mailbox ring, session table)
// until System.Close, so a churning server grew without bound.
func TestRegistryForgetsClosedConnections(t *testing.T) {
	const churn = 1024
	for _, rt := range allRuntimes {
		t.Run(rt.name, func(t *testing.T) {
			nw := NewNetwork()
			defer nw.Close()
			sa, _ := nw.NewSystem("churn-a")
			sb, _ := nw.NewSystem("churn-b")
			opts := Options{Interface: transport.HPI}
			rt.set(&opts)
			for i := 0; i < churn; i++ {
				conn, err := sa.Connect("churn-b", opts)
				if err != nil {
					t.Fatal(err)
				}
				peer, err := sb.Accept()
				if err != nil {
					t.Fatal(err)
				}
				if err := conn.Send([]byte("hello")); err != nil {
					t.Fatal(err)
				}
				if _, err := peer.RecvTimeout(5 * time.Second); err != nil {
					t.Fatal(err)
				}
				conn.Close()
				peer.Close()
			}
			for _, sys := range []*System{sa, sb} {
				if ms := sys.Telemetry().Mem; ms.Conns != 0 || ms.EstimatedBytes != 0 {
					t.Errorf("%s after %d connections opened, used and closed: Conns = %d, EstimatedBytes = %d, want 0 and 0",
						sys.Name(), churn, ms.Conns, ms.EstimatedBytes)
				}
			}
		})
	}
}

// TestConnectionStaysInSizeClass: an idle endpoint's largest allocation
// is the Connection itself, and 768 bytes is the size class it lives in.
// The registry slot and the liveness counters fit in what lastHeard and
// lastTrace vacated; the next field to arrive must find room too.
func TestConnectionStaysInSizeClass(t *testing.T) {
	if size := unsafe.Sizeof(Connection{}); size > 760 {
		t.Fatalf("unsafe.Sizeof(Connection{}) = %d, want ≤ 760", size)
	}
}
