package core

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"ncs/internal/errctl"
	"ncs/internal/telemetry"
	"ncs/internal/transport"
)

// connTotalNames are the computed counters, in connTotals' order.
var connTotalNames = [len(connTotals{})]string{
	"core.conn.send_msgs_total", "core.conn.send_sdus_total", "core.conn.send_bytes_total",
	"core.conn.recv_msgs_total", "core.conn.recv_sdus_total", "core.conn.recv_bytes_total",
}

// connTotalsSince reads how far core.conn.* moved since prev.
func connTotalsSince(prev telemetry.Snapshot) (v connTotals) {
	d := telemetry.Capture().Delta(prev)
	for i, name := range connTotalNames {
		v[i] = d.Counters[name]
	}
	return v
}

// statTotals sums the six totals over connections' Stats.
func statTotals(stats ...Stats) (v connTotals) {
	for _, s := range stats {
		for i, n := range s.totals() {
			v[i] += n
		}
	}
	return v
}

// rowTotals sums them over the live rows of Conns with the given id
// (both ends of a connection share it).
func rowTotals(id uint32) connTotals {
	var stats []Stats
	for _, ci := range Conns() {
		if ci.ID == id {
			stats = append(stats, ci.Stats)
		}
	}
	return statTotals(stats...)
}

// TestBooksNeverRunBackwards: core.conn.* is computed from the
// connections' own Stats, live ones walked and closed ones folded in as
// they leave. Captures taken while traffic flows, across a
// Connection.Close, a System.Close and the Network.Close never show a
// total lower than an earlier one, and at rest each equals the sum of
// the Stats of every connection there was.
func TestBooksNeverRunBackwards(t *testing.T) {
	for _, rt := range allRuntimes {
		// None: a fast-path Send takes no session, so nothing but send's own
		// deferred settle follows the message it counts across a Close.
		for _, ec := range []errctl.Algorithm{errctl.None, errctl.SelectiveRepeat} {
			t.Run(fmt.Sprintf("%s/%v", rt.name, ec), func(t *testing.T) { booksAcrossCloses(t, rt.set, ec) })
		}
	}
}

func booksAcrossCloses(t *testing.T, runtime func(*Options), ec errctl.Algorithm) {
	before := telemetry.Capture()
	opts := Options{Interface: transport.HPI, ErrorControl: ec}
	runtime(&opts)
	nw := NewNetwork()
	defer nw.Close()
	systems := make(map[string]*System)
	for _, name := range []string{"books-a", "books-b", "books-c", "books-d"} {
		systems[name], _ = nw.NewSystem(name)
	}
	var conns []*Connection
	var traffic sync.WaitGroup
	echo := func(from, to string) {
		conn, err := systems[from].Connect(to, opts)
		if err != nil {
			t.Fatal(err)
		}
		peer, err := systems[to].AcceptTimeout(5 * time.Second)
		if err != nil {
			t.Fatal(err)
		}
		conns = append(conns, conn, peer)
		traffic.Add(2)
		go func() { // until its connection closes
			defer traffic.Done()
			for conn.Send(make([]byte, 100)) == nil {
				if _, err := conn.Recv(); err != nil {
					return
				}
			}
		}()
		go func() {
			defer traffic.Done()
			for {
				m, err := peer.Recv()
				if err != nil || peer.Send(m) != nil {
					return
				}
			}
		}()
	}
	echo("books-a", "books-b")
	echo("books-a", "books-b")
	echo("books-c", "books-d")

	stop := make(chan struct{})
	watched := make(chan int)
	go func() { // the scraper
		var last connTotals
		n := 0
		for {
			now := connTotalsSince(before)
			for i, name := range connTotalNames {
				if now[i] < last[i] {
					t.Errorf("%s read %d, then %d", name, last[i], now[i])
				}
			}
			last = now
			n++
			select {
			case <-stop:
				watched <- n
				return
			default:
			}
		}
	}()
	settle := func() { time.Sleep(5 * time.Millisecond) }
	settle()
	conns[0].Close() // one end of one connection; its peer follows by itself
	settle()
	systems["books-b"].Close() // every connection of one System, and the System
	settle()
	nw.Close()
	traffic.Wait()
	// At rest means every teardown is over. A connection that closed by
	// itself had already left its System's registry, so no System.Close
	// waited for it: Close again does (it returns once the first is
	// through).
	for _, c := range conns {
		c.Close()
	}
	close(stop)
	if n := <-watched; n < 10 {
		t.Fatalf("only %d captures raced the closes", n)
	}

	var stats []Stats
	for _, c := range conns {
		stats = append(stats, c.Stats())
	}
	got, want := connTotalsSince(before), statTotals(stats...)
	if got != want {
		t.Errorf("at rest core.conn.* moved by %v, the Stats of every connection there was sum to %v (order: %v)", got, want, connTotalNames)
	}
	if want[0] == 0 || want[3] == 0 {
		t.Errorf("the echoes sent %d messages and received %d", want[0], want[3])
	}
	for _, ci := range Conns() {
		for _, c := range conns {
			if ci.ID == c.ID() {
				t.Errorf("closed connection %d (%s→%s) still has a row", ci.ID, ci.System, ci.Peer)
			}
		}
	}
}
