package core

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// inspectPackage walks the syntax tree of every non-test Go file of dir.
func inspectPackage(t *testing.T, dir string, visit func(ast.Node) bool) {
	t.Helper()
	names, err := filepath.Glob(filepath.Join(dir, "*.go"))
	if err != nil || len(names) == 0 {
		t.Fatalf("no Go files in %s (err %v)", dir, err)
	}
	fset := token.NewFileSet()
	for _, name := range names {
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		src, err := os.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		f, err := parser.ParseFile(fset, name, src, 0)
		if err != nil {
			t.Fatal(err)
		}
		ast.Inspect(f, visit)
	}
}

// callSites counts, over the non-test Go files of dir, the call sites
// of each callee: "pkg.Func" for a call through a package (or any
// plain identifier), and ".Method" for every call of a method by that
// name, whatever the receiver expression.
func callSites(t *testing.T, dir string) map[string]int {
	t.Helper()
	sites := make(map[string]int)
	inspectPackage(t, dir, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
			sites["."+sel.Sel.Name]++
			if x, ok := sel.X.(*ast.Ident); ok {
				sites[x.Name+"."+sel.Sel.Name]++
			}
		}
		return true
	})
	return sites
}

// TestOnePathEach holds the collapse of the per-runtime copies in
// place: each protocol step below is written once in this package, so
// a second send engine, receive loop, staging routine or session table
// fails here before it can drift from the first.
func TestOnePathEach(t *testing.T) {
	core := callSites(t, ".")
	for _, callee := range []string{
		".OnTimeout", ".OnAck", // the retransmission decision: Connection.send
		"packet.SplitData",        // the data-path parse: Connection.ingest
		"packet.UnmarshalControl", // the control-path parse: Connection.demuxControl
		"packet.AppendSDU",        // SDU staging: outItem.stage
		"flowctl.NoteLoss",        // loss verdicts to flow control: Connection.transmit
		"errctl.NewSenderStream",  // the send session: Connection.beginSend
	} {
		if n := core[callee]; n != 1 {
			t.Errorf("internal/core has %d call sites of %s, want exactly 1", n, callee)
		}
	}
	// Inbound sessions live in errctl.SessionTable, for the default lane
	// and for streams alike.
	stream := callSites(t, filepath.Join("..", "stream"))
	if n := core["errctl.NewReceiver"] + stream["errctl.NewReceiver"]; n != 0 {
		t.Errorf("internal/core + internal/stream have %d call sites of errctl.NewReceiver, want 0", n)
	}
}

// TestOneReceiveEnd holds the receive side's collapse in place: every
// lane on every runtime delivers into a stream.Mailbox and every
// blocking receive waits in Connection.await, so a second queue type,
// wait loop, pump entry or producer wake-up fails here before it can
// drift from the first.
func TestOneReceiveEnd(t *testing.T) {
	core := callSites(t, ".")
	for callee, why := range map[string]string{
		".TryLock":    "fastRecvMu.TryLock, becoming the fast path's pump: Connection.await",
		".Pop":        "the default lane's take: Connection.recv",
		".TryPop":     "a stream's take: Connection.recv",
		".PopAccept":  "the accept queue's take: Connection.AcceptStreamTimeout",
		".fastPump":   "the pump itself: Connection.await",
		".awaitSpace": "the Receive Thread's wait at depth: Connection.recvThread",
		".dataPaused": "the shard's pause at depth: shard.pumpData",
	} {
		if n := core[callee]; n != 1 {
			t.Errorf("internal/core has %d call sites of %s, want exactly 1 (%s)", n, callee, why)
		}
	}
	// afterRecv is the one consumer-wakes-producer mechanism on the
	// default lane, called from its one take.
	if n := core[".afterRecv"]; n != 1 {
		t.Errorf("internal/core has %d call sites of afterRecv, want exactly 1", n)
	}

	var bellSelects, messageLits int
	gone := map[string]bool{
		"deliveredQ": true, "delivered": true, "park0": true, "park0Mu": true, "park0Put": true, "park0Pop": true,
		"bell0": true, "nPark0": true, "recvFast": true, "recvStreamFast": true, "acceptFast": true,
		"recvMessage": true, "fastWait": true, "stalled": true, "hasStalled": true, "deliverOrStall": true,
		"flushStalled": true, "Instrument": true,
	}
	inspectPackage(t, ".", func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.SelectStmt:
			// A select that receives from the result of a call named
			// bell/Bell/AcceptBell waits on a lane doorbell.
			for _, clause := range n.Body.List {
				comm, _ := clause.(*ast.CommClause).Comm.(*ast.ExprStmt)
				if comm == nil {
					continue
				}
				recv, ok := comm.X.(*ast.UnaryExpr)
				if !ok || recv.Op != token.ARROW {
					continue
				}
				call, ok := recv.X.(*ast.CallExpr)
				if !ok {
					continue
				}
				name := ""
				switch fun := call.Fun.(type) {
				case *ast.Ident:
					name = fun.Name
				case *ast.SelectorExpr:
					name = fun.Sel.Name
				}
				if strings.HasSuffix(strings.ToLower(name), "bell") {
					bellSelects++
				}
			}
		case *ast.CompositeLit:
			// Message{Data: ...}: a field-by-field conversion between the
			// (formerly distinct) delivery structs.
			if id, ok := n.Type.(*ast.Ident); ok && id.Name == "Message" && len(n.Elts) > 0 {
				messageLits++
			}
		case *ast.Ident:
			if gone[n.Name] {
				t.Errorf("identifier %s is back in internal/core", n.Name)
				delete(gone, n.Name) // once is enough
			}
		}
		return true
	})
	if bellSelects != 1 {
		t.Errorf("internal/core selects on a lane doorbell in %d places, want exactly 1 (Connection.await)", bellSelects)
	}
	if messageLits != 0 {
		t.Errorf("internal/core builds %d Message{...} literals field by field, want 0 (Message is errctl.Delivery)", messageLits)
	}

	// The mailbox is the only completed-message queue: internal/stream
	// pops it in one place (State.TryPop) and keeps no parked slice.
	stream := callSites(t, filepath.Join("..", "stream"))
	if n := stream[".Pop"]; n != 1 {
		t.Errorf("internal/stream has %d call sites of Mailbox.Pop, want exactly 1 (State.TryPop)", n)
	}
	inspectPackage(t, filepath.Join("..", "stream"), func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && (id.Name == "parked" || id.Name == "nParked") {
			t.Errorf("identifier %s is back in internal/stream", id.Name)
		}
		return true
	})
}

// TestOneLivenessSweep holds the collapse of the three heartbeat
// mechanisms in place: one sweep (heartbeat.go) emits every ping and
// passes every verdict, it runs on a re-armable timer rather than a
// ticker, and the packet path feeds it a flag, not a clock reading.
func TestOneLivenessSweep(t *testing.T) {
	core := callSites(t, ".")
	for _, callee := range []string{"time.NewTicker", "time.After", "time.Tick"} {
		if n := core[callee]; n != 0 {
			t.Errorf("internal/core has %d call sites of %s, want 0 (the sweep re-arms one timer; waits build theirs lazily and stop them)", n, callee)
		}
	}

	var pings, verdicts int
	gone := map[string]bool{
		"timerWheel": true, "wheelTimer": true, "wheelEntry": true, "heartbeatThread": true, "heartbeatTick": true,
		"heartbeatSweep": true, "armHeartbeat": true, "hbTimer": true, "hbEvery": true, "hbScratch": true,
		"lastPing": true, "lastHeard": true, "lastTrace": true, "LastTrace": true, "mWheelSweeps": true, "mWheelArmed": true,
	}
	clockFree := map[string]bool{"ingest": true, "dispatchData": true, "demuxControl": true, "routeControl": true, "noteHeard": true}
	isSel := func(e ast.Expr, x, sel string) bool {
		s, ok := e.(*ast.SelectorExpr)
		if !ok || s.Sel.Name != sel {
			return false
		}
		switch q := s.X.(type) {
		case *ast.Ident:
			return q.Name == x
		case *ast.SelectorExpr:
			return q.Sel.Name == x
		}
		return false
	}
	inspectPackage(t, ".", func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CompositeLit:
			for _, elt := range n.Elts {
				if kv, ok := elt.(*ast.KeyValueExpr); ok {
					if k, ok := kv.Key.(*ast.Ident); ok && k.Name == "Type" && isSel(kv.Value, "packet", "CtrlPing") {
						pings++
					}
				}
			}
		case *ast.CallExpr:
			// x.failed.Store(true)
			if isSel(n.Fun, "failed", "Store") && len(n.Args) == 1 {
				if arg, ok := n.Args[0].(*ast.Ident); ok && arg.Name == "true" {
					verdicts++
				}
			}
		case *ast.FuncDecl:
			if clockFree[n.Name.Name] {
				ast.Inspect(n.Body, func(m ast.Node) bool {
					if call, ok := m.(*ast.CallExpr); ok && (isSel(call.Fun, "time", "Now") || isSel(call.Fun, "time", "Since")) {
						t.Errorf("%s reads the clock: the per-packet receive path must not", n.Name.Name)
					}
					return true
				})
			}
		case *ast.Ident:
			if gone[n.Name] {
				t.Errorf("identifier %s is back in internal/core", n.Name)
				delete(gone, n.Name) // once is enough
			}
		}
		return true
	})
	if pings != 1 {
		t.Errorf("internal/core builds a CtrlPing in %d places, want exactly 1 (System.sweep)", pings)
	}
	if verdicts != 1 {
		t.Errorf("internal/core declares a peer dead (failed.Store(true)) in %d places, want exactly 1 (System.sweep)", verdicts)
	}
	for name := range clockFree {
		if core["."+name] == 0 {
			t.Errorf("%s has no call site: the clock-free list names a function that is gone", name)
		}
	}
	// Admission has one blocking form, the timed one admit calls.
	inspectPackage(t, filepath.Join("..", "flowctl"), func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && id.Name == "Acquire" {
			t.Errorf("identifier Acquire is back in internal/flowctl")
		}
		return true
	})
}
