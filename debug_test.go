package ncs_test

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http/httptest"
	"slices"
	"strings"
	"testing"
	"time"

	"ncs"
)

// TestServeDebug drives real traffic through a connection and then
// scrapes the introspection endpoints: the Prometheus exposition must
// carry the core counters that traffic moved, expvar must publish the
// same snapshot under "ncs", and the pprof index must answer.
func TestServeDebug(t *testing.T) {
	nw := ncs.NewNetwork()
	defer nw.Close()
	conn, peer, err := ncs.Pair(nw, "dbg-a", "dbg-b", ncs.Options{Interface: ncs.HPI})
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	defer peer.Close()
	for i := 0; i < 4; i++ {
		if err := conn.Send([]byte("observe me")); err != nil {
			t.Fatal(err)
		}
		if _, err := peer.Recv(); err != nil {
			t.Fatal(err)
		}
	}

	srv := httptest.NewServer(ncs.ServeDebug(nil))
	defer srv.Close()

	scrape := func(path string) string {
		resp, err := srv.Client().Get(srv.URL + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != 200 {
			t.Fatalf("GET %s: status %d", path, resp.StatusCode)
		}
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatalf("GET %s: read: %v", path, err)
		}
		return string(body)
	}

	metrics := scrape("/metrics")
	for _, want := range []string{
		"# TYPE ncs_core_conn_send_msgs_total counter",
		"ncs_core_conn_send_msgs_total",
		"ncs_core_conn_recv_bytes_total",
		"ncs_core_send_sendq_depth_bucket",
	} {
		if !strings.Contains(metrics, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}

	vars := scrape("/debug/vars")
	var decoded map[string]json.RawMessage
	if err := json.Unmarshal([]byte(vars), &decoded); err != nil {
		t.Fatalf("/debug/vars is not JSON: %v", err)
	}
	if _, ok := decoded["ncs"]; !ok {
		t.Error("/debug/vars does not publish the \"ncs\" snapshot")
	}

	if idx := scrape("/debug/pprof/"); !strings.Contains(idx, "goroutine") {
		t.Error("/debug/pprof/ index does not list profiles")
	}
}

// TestLifecycleTracing exercises the public tracing surface: with
// tracing on at sample rate 1, a round trip must yield traces whose
// stamps appear in path order.
func TestLifecycleTracing(t *testing.T) {
	ncs.EnableTracing(1, 16)
	defer ncs.DisableTracing()

	nw := ncs.NewNetwork()
	defer nw.Close()
	conn, peer, err := ncs.Pair(nw, "trace-a", "trace-b", ncs.Options{Interface: ncs.HPI})
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	defer peer.Close()
	if err := conn.Send([]byte("stamp me")); err != nil {
		t.Fatal(err)
	}
	if _, err := peer.Recv(); err != nil {
		t.Fatal(err)
	}

	traces := ncs.TakeTraces()
	if len(traces) == 0 {
		t.Fatal("no traces collected at sample rate 1")
	}
	tr := traces[len(traces)-1]
	stages := []ncs.TraceStage{
		ncs.StageEnqueued, ncs.StageStaged, ncs.StageWireOut,
		ncs.StageWireIn, ncs.StageReassembled, ncs.StageDelivered,
	}
	var prev int64
	for _, st := range stages {
		ns := tr.Stage(st)
		if ns == 0 {
			t.Fatalf("stage %v never stamped: %+v", st, tr)
		}
		if ns < prev {
			t.Fatalf("stage %v stamped before its predecessor: %+v", st, tr)
		}
		prev = ns
	}
	// The two appended stages are the sender's hand-off, inside
	// Staged → WireOut. A lone SDU on an idle connection is written by
	// its caller: it is picked up (Dequeued) without ever being Queued.
	if q, d := tr.Stage(ncs.StageQueued), tr.Stage(ncs.StageDequeued); q != 0 || d < tr.Stage(ncs.StageStaged) || tr.Stage(ncs.StageWireOut) < d {
		t.Fatalf("queued %d, dequeued %d: want no queue, and dequeued inside staged %d … wire-out %d", q, d, tr.Stage(ncs.StageStaged), tr.Stage(ncs.StageWireOut))
	}
}

// TestDebugConns asks /debug/ncs/conns "why is this connection stuck?"
// of two that are: a sender stalled on credits because its peer is not
// reading a stream, and a sharded connection whose receive side stopped
// reading the wire because nobody reads its default lane. Both
// conditions must be legible in the endpoint's output, which is read
// off the runtime's own state; a closed connection is absent from it.
func TestDebugConns(t *testing.T) {
	nw := ncs.NewNetwork()
	defer nw.Close()
	srv := httptest.NewServer(ncs.ServeDebug(nil))
	defer srv.Close()
	// block returns the lines of the report that belong to system's end of conn.
	block := func(conn *ncs.Connection, system string) []string {
		resp, err := srv.Client().Get(srv.URL + "/debug/ncs/conns")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil || resp.StatusCode != 200 {
			t.Fatalf("GET /debug/ncs/conns: status %d, %v", resp.StatusCode, err)
		}
		var lines []string
		head := fmt.Sprintf("conn=%d system=%s ", conn.ID(), system)
		for _, line := range strings.Split(string(body), "\n") {
			switch {
			case strings.HasPrefix(line, head):
				lines = []string{line}
			case len(lines) > 0 && strings.HasPrefix(line, "  "):
				lines = append(lines, line)
			case len(lines) > 0:
				return lines
			}
		}
		return lines
	}
	// await polls the report until some line of the block satisfies ok.
	await := func(what string, conn *ncs.Connection, system string, ok func(line string) bool) {
		t.Helper()
		var lines []string
		for deadline := time.Now().Add(5 * time.Second); time.Now().Before(deadline); time.Sleep(time.Millisecond) {
			lines = block(conn, system)
			if slices.ContainsFunc(lines, ok) {
				return
			}
		}
		t.Fatalf("%s: not legible in the connection's block:\n%s", what, strings.Join(lines, "\n"))
	}
	has := func(parts ...string) func(string) bool {
		return func(line string) bool {
			return !slices.ContainsFunc(parts, func(p string) bool { return !strings.Contains(line, p) })
		}
	}

	// Stalled on credits: a window of 8, a peer that accepts the stream
	// and never reads it, a sender that wants to send 32.
	stalled, stalledPeer, err := ncs.Pair(nw, "stall-a", "stall-b", ncs.Options{
		Interface:  ncs.HPI,
		FlowConfig: ncs.FlowConfig{InitialCredits: 8, MaxCredits: 8},
	})
	if err != nil {
		t.Fatal(err)
	}
	out, err := stalled.OpenStream()
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		for i := 0; i < 32 && out.Send([]byte("unread")) == nil; i++ {
		}
	}()
	// (Once a full AckTimeout brings no grant the sender writes one credit
	// off and probes with one more message — again after 2, 4, 8… — so 8
	// or more, never many.)
	await("the sender's end, out of credits", stalled, "stall-a", has("stream=1 ", "granted=8 ", "in_flight=8 ", "available=0 "))
	await("the peer's end, holding the backlog that withholds the grants", stalledPeer, "stall-b", func(line string) bool {
		var id, queued int
		n, _ := fmt.Sscanf(strings.TrimSpace(line), "stream=%d queued=%d", &id, &queued)
		return n == 2 && id == 1 && queued >= 8 && queued < 32
	})

	// Withholding at depth: a sharded connection nobody receives from.
	paused, pausedPeer, err := ncs.Pair(nw, "pause-a", "pause-b", ncs.Options{
		Interface:  ncs.HPI,
		Runtime:    ncs.RuntimeSharded,
		FlowConfig: ncs.FlowConfig{InitialCredits: 8, MaxCredits: 8},
	})
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		for i := 0; i < 200 && paused.Send([]byte("unread")) == nil; i++ {
		}
	}()
	// (The peer holds the depth, the window of 8 granted before it withheld
	// and the message that granted it — and one more each time the stalled
	// sender's resynchronisation repairs: after 1, 2, 4, 8… AckTimeouts.)
	await("the receiving end, withholding at the default lane's depth", pausedPeer, "pause-b", func(line string) bool {
		var queued int
		i := strings.Index(line, "withheld=true queued=")
		if i < 0 || !strings.Contains(line, "runtime=sharded") || !strings.Contains(line, `state="live"`) {
			return false
		}
		n, _ := fmt.Sscanf(line[i:], "withheld=true queued=%d/128 ", &queued)
		return n == 1 && queued >= 128 && queued < 200
	})
	await("the sending end, which withholds nothing", paused, "pause-a", has("withheld=false queued=0/128 "))

	paused.Close()
	pausedPeer.Close()
	if lines := append(block(paused, "pause-a"), block(pausedPeer, "pause-b")...); len(lines) != 0 {
		t.Fatalf("a closed connection still has rows:\n%s", strings.Join(lines, "\n"))
	}
	if len(block(stalled, "stall-a")) == 0 {
		t.Fatal("closing one connection removed another's rows")
	}
}
