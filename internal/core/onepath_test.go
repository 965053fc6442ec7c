package core

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"reflect"
	"slices"
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

// callersOf names, over the non-test Go files of dir, the function
// around each call of a method by that name — "Recv.name" for a method,
// "name" for a function — sorted, one entry per call site.
func callersOf(t *testing.T, dir, method string) []string {
	t.Helper()
	return callersOfChain(t, dir, method)
}

// bellSelects counts, in the function declarations of dir's non-test
// files, the selects that wait on a doorbell: a receive from the result
// of a call named bell/Bell/AcceptBell. It maps the function to its count.
func bellSelects(t *testing.T, dir string) map[string]int {
	t.Helper()
	found := make(map[string]int)
	inspectPackage(t, dir, func(n ast.Node) bool {
		fn, ok := n.(*ast.FuncDecl)
		if !ok || fn.Body == nil {
			return true
		}
		ast.Inspect(fn.Body, func(m ast.Node) bool {
			sel, ok := m.(*ast.SelectStmt)
			if !ok {
				return true
			}
			for _, clause := range sel.Body.List {
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
					found[fn.Name.Name]++
				}
			}
			return true
		})
		return false
	})
	return found
}

// TestOneReceiveEnd holds the receive side's collapse in place: whatever
// waits for a consumer — a message on any lane of any runtime, a
// delivery in an Inbox, a producer the inbox parked, a stream nobody
// accepted yet — waits in a stream.Mailbox, and every blocking receive
// sleeps in stream.Await; every read of a wire is one drain, readIn,
// entered by whoever waits on the connection or by a shard's loop, the
// one pump of last resort, on every runtime alike; so a second queue
// type, wait loop, drain entry or producer wake-up fails here before it
// can drift from the first.
func TestOneReceiveEnd(t *testing.T) {
	streamDir := filepath.Join("..", "stream")
	core := callSites(t, ".")
	for callee, why := range map[string]string{
		".TryPop":    "a stream's take: Connection.recv",
		".PopAccept": "the accept queue's take: Connection.AcceptStreamTimeout",
		".pause":     "stopping at depth: Connection.dataPaused",
		".afterRecv": "the default lane's consumer-wakes-producer, from its one take",
	} {
		if n := core[callee]; n != 1 {
			t.Errorf("internal/core has %d call sites of %s, want exactly 1 (%s)", n, callee, why)
		}
	}
	// The one drain, readIn: the receivers, the senders and the pump of
	// last resort — a shard's loop, private or pooled — enter it through
	// pump; only it reads what arrived, asks for room at depth and runs
	// the receive path. Its one receive is the transport's TryRecvBuf, and
	// the transport's notify hook is the one readiness source, set where a
	// wire is built and cleared where the connection leaves its shard:
	// core makes no blocking receive.
	for _, c := range []struct {
		chain []string
		want  []string
	}{
		{[]string{"pump"}, []string{"Connection.await", "Connection.awaitCtrl", "shard.service"}},
		{[]string{"readIn"}, []string{"Connection.pump"}},
		{[]string{"dataPaused"}, []string{"Connection.readIn"}},
		{[]string{"ingest"}, []string{"Connection.readIn"}},
		{[]string{"demuxControl"}, []string{"Connection.ingest", "Connection.readIn"}},
		{[]string{"TryRecvBuf"}, []string{"Connection.readIn"}},
		{[]string{"RecvBuf"}, nil},
		{[]string{"RecvBufTimeout"}, nil},
		{[]string{"SetRecvNotify"}, []string{"Connection.detachShard", "Connection.listen"}},
		{[]string{"listen"}, []string{"Connection.attachShard"}}, // every wire has a pump of last resort
	} {
		if got := callersOfChain(t, ".", c.chain...); !slices.Equal(got, c.want) {
			t.Errorf("%s is called in %v, want exactly %v", strings.Join(c.chain, "."), got, c.want)
		}
	}
	// pump.TryLock takes a wire's pump token, in the drain; the others
	// take a wire's owner (TestOneInlineWrite).
	if got, want := callersOf(t, ".", "TryLock"), []string{"Connection.flush", "Connection.pump", "Connection.writeInline"}; !slices.Equal(got, want) {
		t.Errorf("internal/core calls TryLock in %v, want exactly %v", got, want)
	}
	// The runtimes differ in whose shard pumps last, and in policy:
	// FastPath is read where the shard is chosen (newConnection) and where
	// a policy differs — the retransmission timeout (rto), the admission
	// wait's give-up (admit) and the yield it never takes (transmit) — and
	// nowhere else.
	policies := []string{"newConnection", "rto", "admit", "transmit"}
	// Every connection has a shard, its pump of last resort: it is read in
	// shard.go alone, where attachShard sets it, and asked whether it is
	// there nowhere. A wire rings its own pump of last resort
	// (inWire.last), never absent. Options.Runtime is read where the
	// shard is chosen (newConnection) and at the one policy only the
	// sharded runtime has, the yield after an inline write (transmit).
	shardPolicies := declaredIn(t, "shard.go")
	runtimePolicies := []string{"newConnection", "transmit"}
	inspectPackage(t, ".", func(n ast.Node) bool {
		fn, ok := n.(*ast.FuncDecl)
		if !ok || fn.Body == nil {
			return true
		}
		name := funcName(fn)
		ast.Inspect(fn.Body, func(m ast.Node) bool {
			if cmp, ok := m.(*ast.BinaryExpr); ok && (cmp.Op == token.EQL || cmp.Op == token.NEQ) {
				for _, side := range [][2]ast.Expr{{cmp.X, cmp.Y}, {cmp.Y, cmp.X}} {
					sel, ok := side[0].(*ast.SelectorExpr)
					if nilID, _ := side[1].(*ast.Ident); ok && nilID != nil && nilID.Name == "nil" && (sel.Sel.Name == "sh" || sel.Sel.Name == "last") {
						t.Errorf("%s compares %s with nil: every connection has a pump of last resort", name, sel.Sel.Name)
					}
				}
			}
			sel, ok := m.(*ast.SelectorExpr)
			switch {
			case !ok:
			case sel.Sel.Name == "FastPath" && !slices.Contains(policies, name):
				t.Errorf("%s reads FastPath: the runtimes share one engine, and differ only in who pumps last", name)
			case sel.Sel.Name == "sh" && !slices.Contains(shardPolicies, name):
				t.Errorf("%s reads the connection's shard outside shard.go: the runtimes share one engine, and differ only in whose shard pumps last", name)
			case sel.Sel.Name == "Runtime" && !slices.Contains(runtimePolicies, name):
				t.Errorf("%s reads Options.Runtime: the runtimes share one engine, and differ only in whose shard pumps last", name)
			}
			return true
		})
		return false
	})
	// Every take from a mailbox, by name: a lane's message, the backlog
	// a late bind hands over to its inbox, an inbox's delivery, a parked
	// producer, a parked stream message, an accept.
	for dir, want := range map[string][]string{
		".":       {"Connection.BindInbox", "Connection.recv", "Inbox.RecvTimeout", "Inbox.wake"},
		streamDir: {"Mux.PopAccept", "State.TryPop"},
	} {
		if got := callersOf(t, dir, "Pop"); !slices.Equal(got, want) {
			t.Errorf("%s pops a mailbox in %v, want exactly %v", dir, got, want)
		}
	}
	// One sleep: the only select on a doorbell is stream.Await's.
	if got := bellSelects(t, "."); len(got) != 0 {
		t.Errorf("internal/core selects on a doorbell in %v, want nowhere (stream.Await sleeps for it)", got)
	}
	if got := bellSelects(t, streamDir); len(got) != 1 || got["Await"] != 1 {
		t.Errorf("internal/stream selects on a doorbell in %v, want exactly once, in Await", got)
	}

	var messageLits int
	gone := map[string]bool{
		"deliveredQ": true, "delivered": true, "park0": true, "park0Mu": true, "park0Put": true, "park0Pop": true,
		"bell0": true, "nPark0": true, "recvFast": true, "recvStreamFast": true, "acceptFast": true,
		"recvMessage": true, "fastWait": true, "stalled": true, "hasStalled": true, "deliverOrStall": true,
		"flushStalled": true, "Instrument": true,
		"waiterN": true, "wakeWaiters": true, "inboxWaiting": true, "holding": true, "acceptBell": true, "ringAccept": true,
		"fastPump": true, "fastRecvMu": true, "fastSendMu": true, "pumpFree": true, "pumpRelease": true, "pumpCtrl": true,
		"awaitSpace": true, "awaitAck": true, "recvThread": true, "ctrlRecvThread": true, "ErrNotFastPath": true,
		"fire": true, "serviceMu": true, "thread": true, "lastResort": true,
		"ErrFastPathOnly": true, "shardConn": true,
	}
	visit := func(dir string, alsoGone ...string) func(ast.Node) bool {
		seen := make(map[string]bool)
		return func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.ChanType:
				// A completed message waits in a mailbox, not a channel.
				if id, ok := n.Value.(*ast.Ident); ok && (id.Name == "InboxMessage" || id.Name == "Message" || id.Name == "Msg") {
					t.Errorf("%s declares a chan %s: a second kind of message queue", dir, id.Name)
				}
			case *ast.CompositeLit:
				// Message{Data: ...}: a field-by-field conversion between the
				// (formerly distinct) delivery structs.
				if id, ok := n.Type.(*ast.Ident); ok && id.Name == "Message" && len(n.Elts) > 0 {
					messageLits++
				}
			case *ast.Ident:
				if (gone[n.Name] || slices.Contains(alsoGone, n.Name)) && !seen[n.Name] {
					t.Errorf("identifier %s is back in %s", n.Name, dir)
					seen[n.Name] = true // once is enough
				}
			}
			return true
		}
	}
	inspectPackage(t, ".", visit("internal/core"))
	inspectPackage(t, streamDir, visit("internal/stream", "parked", "nParked")) // no parked slice beside the mailbox
	if messageLits != 0 {
		t.Errorf("internal/core builds %d Message{...} literals field by field, want 0 (Message is errctl.Delivery)", messageLits)
	}
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
	// Admission has no blocking form in flowctl: core's admit waits on
	// the connection (awaitCtrl) and asks flowctl only TryAcquire.
	inspectPackage(t, filepath.Join("..", "flowctl"), func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && (id.Name == "Acquire" || id.Name == "AcquireTimeout" || id.Name == "acquireTimeout" || id.Name == "waitTimer") {
			t.Errorf("identifier %s is back in internal/flowctl", id.Name)
		}
		return true
	})
}

// TestOneTracer holds the collapse of the two tracers in place: the
// lifecycle tracer is the only one, each of its stages is stamped at
// exactly one site whatever the runtime, and nothing of the old
// threaded-send tracer — its type, its parameter through the send
// engine, its field on every queued item — is back. Table I is read off
// the same stamps (internal/bench).
func TestOneTracer(t *testing.T) {
	stamps := make(map[string]int) // stage constant → TraceStamp call sites
	params := make(map[string][]string)
	inspectPackage(t, ".", func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.Ident:
			if strings.HasSuffix(n.Name, "Send"+"Trace") || n.Name == "Send"+"Instrumented" { // spelled apart: no grep hit here
				t.Errorf("identifier %s is back in internal/core", n.Name)
			}
		case *ast.FuncDecl:
			for _, f := range n.Type.Params.List {
				for _, name := range f.Names {
					params[n.Name.Name] = append(params[n.Name.Name], name.Name)
				}
			}
		case *ast.TypeSpec:
			if st, ok := n.Type.(*ast.StructType); ok && n.Name.Name == "outItem" {
				for _, f := range st.Fields.List {
					for _, name := range f.Names {
						if strings.Contains(strings.ToLower(name.Name), "trace") {
							t.Errorf("outItem carries a %s field: an item's trace is its (connection, session) key", name.Name)
						}
					}
				}
			}
		case *ast.CallExpr:
			if sel, ok := n.Fun.(*ast.SelectorExpr); ok && sel.Sel.Name == "TraceStamp" && len(n.Args) == 3 {
				if stage, ok := n.Args[2].(*ast.SelectorExpr); ok {
					stamps[stage.Sel.Name]++
				}
			}
		}
		return true
	})
	for fn, want := range map[string][]string{"send": {"lane", "msg"}, "transmit": {"lane", "sdus", "sync"}} {
		if got := params[fn]; !slices.Equal(got, want) {
			t.Errorf("%s takes %v, want %v: no trace rides the send engine", fn, got, want)
		}
	}
	want := map[string]int{"StageStaged": 1, "StageQueued": 1, "StageDequeued": 1, "StageWireOut": 1, "StageWireIn": 1, "StageReassembled": 1}
	for stage, n := range stamps {
		if want[stage] != n {
			t.Errorf("telemetry.%s is stamped at %d sites, want %d", stage, n, want[stage])
		}
		delete(want, stage)
	}
	for stage := range want {
		t.Errorf("telemetry.%s is never stamped", stage)
	}
	core, stream := callSites(t, "."), callSites(t, filepath.Join("..", "stream"))
	for callee, n := range map[string]int{"telemetry.TraceStart": 1, "telemetry.TraceFinish": 1} { // Enqueued, Delivered
		if core[callee] != n {
			t.Errorf("internal/core has %d call sites of %s, want exactly %d", core[callee], callee, n)
		}
	}
	if n := stream[".TraceStamp"] + stream[".TraceStart"] + stream[".TraceFinish"]; n != 0 {
		t.Errorf("internal/stream stamps the lifecycle tracer at %d sites, want 0: a stream's frames cross core's sites", n)
	}
}

// TestOneSetOfBooks holds the collapse of the double books in place: a
// connection's statCounters are the only hot-path count of its traffic —
// each field added to at the sites pinned here — and core.conn.* is
// computed from them at capture (telemetry.NewFuncCounters), so no event
// in internal/core is added to two counters.
func TestOneSetOfBooks(t *testing.T) {
	adds := make(map[string]int) // statCounters field → x.stats.<field>.Add call sites
	var computed []string
	inspectPackage(t, ".", func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		if field, ok := sel.X.(*ast.SelectorExpr); ok && sel.Sel.Name == "Add" {
			if owner, ok := field.X.(*ast.SelectorExpr); ok && owner.Sel.Name == "stats" {
				adds[field.Sel.Name]++
			}
		}
		for _, arg := range call.Args {
			if lit, ok := arg.(*ast.BasicLit); ok && strings.HasPrefix(lit.Value, `"core.conn.`) {
				if sel.Sel.Name != "NewFuncCounters" {
					t.Errorf("%s is registered through %s: core.conn.* must be computed from the connections' Stats, not incremented beside them", lit.Value, sel.Sel.Name)
				}
				computed = append(computed, strings.Trim(lit.Value, `"`))
			}
		}
		return true
	})
	if !slices.Equal(computed, connTotalNames[:]) {
		t.Errorf("computed counters %v, want %v", computed, connTotalNames)
	}
	want := map[string]int{
		"messagesSent":     2, // Connection.send: an unreliable message handed over, a reliable one acknowledged
		"messagesReceived": 1, // Connection.dispatchData
		"sdusSent":         1, // Connection.transmit
		"bytesSent":        1,
		"retransmissions":  1,
		"sdusReceived":     1, // Connection.dispatchData
		"bytesReceived":    1,
		"controlSent":      1, // Connection.stage: a control packet picked up by its wire's owner
		"controlReceived":  1, // Connection.routeControl
	}
	if typ := reflect.TypeOf(statCounters{}); typ.NumField() != len(want) {
		t.Errorf("statCounters has %d fields, %d are pinned here", typ.NumField(), len(want))
	}
	for field, n := range want {
		if adds[field] != n {
			t.Errorf("statCounters.%s is added to at %d sites, want %d", field, adds[field], n)
		}
		delete(adds, field)
	}
	for field, n := range adds {
		t.Errorf("stats.%s: %d Add sites on a field statCounters does not pin", field, n)
	}
}

// funcName names a function declaration as callersOf does: "Recv.name"
// for a method (the connection's "name" alone), "name" for a function.
func funcName(fn *ast.FuncDecl) string {
	name := fn.Name.Name
	if fn.Recv != nil && len(fn.Recv.List) == 1 {
		typ := fn.Recv.List[0].Type
		if star, ok := typ.(*ast.StarExpr); ok {
			typ = star.X
		}
		if id, ok := typ.(*ast.Ident); ok && id.Name != "Connection" {
			name = id.Name + "." + name
		}
	}
	return name
}

// declaredIn names, as funcName does, the functions declared in one
// non-test Go file of this package.
func declaredIn(t *testing.T, file string) []string {
	t.Helper()
	f, err := parser.ParseFile(token.NewFileSet(), file, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, d := range f.Decls {
		if fn, ok := d.(*ast.FuncDecl); ok {
			names = append(names, funcName(fn))
		}
	}
	return names
}

// callersOfChain names, like callersOf, the function around each call
// whose callee ends in the selector chain given — ("queued", "Load")
// matches c.dataW.queued.Load() and w.queued.Load() alike.
func callersOfChain(t *testing.T, dir string, chain ...string) []string {
	t.Helper()
	var callers []string
	inspectPackage(t, dir, func(n ast.Node) bool {
		fn, ok := n.(*ast.FuncDecl)
		if !ok || fn.Body == nil {
			return true
		}
		name := fn.Name.Name
		if fn.Recv != nil && len(fn.Recv.List) == 1 {
			typ := fn.Recv.List[0].Type
			if star, ok := typ.(*ast.StarExpr); ok {
				typ = star.X
			}
			if idx, ok := typ.(*ast.IndexExpr); ok { // a generic receiver, Mailbox[T]
				typ = idx.X
			}
			if id, ok := typ.(*ast.Ident); ok {
				name = id.Name + "." + name
			}
		}
		ast.Inspect(fn.Body, func(m ast.Node) bool {
			call, ok := m.(*ast.CallExpr)
			if !ok {
				return true
			}
			e := call.Fun
			for i := len(chain) - 1; i >= 0; i-- {
				var got string
				switch x := e.(type) {
				case *ast.SelectorExpr:
					got, e = x.Sel.Name, x.X
				case *ast.Ident:
					got, e = x.Name, nil
				}
				if got != chain[i] {
					return true
				}
			}
			callers = append(callers, name)
			return true
		})
		return false
	})
	slices.Sort(callers)
	return callers
}

// TestOneInlineWrite holds each wire to one queue and one write: a
// packet is pushed onto its wire's queue (push: put for an SDU, emitCtrl
// for a control packet) unless, alone and finding the owner free with
// nothing queued, its producer writes it inline (writeInline, from the
// same two: transmit and emitCtrl); and drain — run under the wire's
// owner by flush and writeInline — is the only write of a transport in
// this package. The owner is waited for (Lock) only in flush, for a
// synchronous batch or a full queue, and tried (TryLock) only there and
// in writeInline, which reads the queue's length once it holds it. So no
// packet can overtake one pushed before it, on any runtime
// (TestInlineWritesNeverOvertake is the behaviour). The Send Thread, the
// Control Send Thread, the queued-count handshake, the done token and
// the shard's outbound queue are gone, and neither drain nor writeInline
// asks a runtime whether it may write. The yield after an inline data
// write is transmit's, the one Gosched in core.
func TestOneInlineWrite(t *testing.T) {
	for _, c := range []struct {
		chain []string
		want  []string
	}{
		{[]string{"push"}, []string{"Connection.emitCtrl", "Connection.put"}},
		{[]string{"writeInline"}, []string{"Connection.emitCtrl", "Connection.transmit"}},
		{[]string{"drain"}, []string{"Connection.flush", "Connection.writeInline"}},
		{[]string{"SendBuf"}, []string{"Connection.drain"}},
		{[]string{"SendBatch"}, []string{"Connection.drain"}},
		{[]string{"w", "mu", "Lock"}, []string{"Connection.flush"}},
		{[]string{"w", "mu", "TryLock"}, []string{"Connection.flush", "Connection.writeInline"}},
		{[]string{"queued", "Add"}, nil},
		{[]string{"runtime", "Gosched"}, []string{"Connection.transmit"}},
	} {
		if got := callersOfChain(t, ".", c.chain...); !slices.Equal(got, c.want) {
			t.Errorf("%s is called in %v, want exactly %v", strings.Join(c.chain, "."), got, c.want)
		}
	}
	gone := map[string]bool{
		"fastCtrlMu": true, "sendThread": true, "ctrlSendThread": true, "sendQ": true, "ctrlQ": true,
		"offer": true, "drainCtrl": true, "enqueueData": true, "enqueueOut": true,
		"outQ": true, "outScratch": true, "sendSlots": true, "flushOut": true, "finishAll": true,
	}
	inspectPackage(t, ".", func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.Ident:
			if gone[n.Name] {
				t.Errorf("identifier %s is back in internal/core: a wire's owner drains its one queue", n.Name)
			}
		case *ast.TypeSpec:
			// No token confirms a write: a synchronous sender waits for the owner.
			if st, ok := n.Type.(*ast.StructType); ok && (n.Name.Name == "outItem" || n.Name.Name == "sendSession" || n.Name.Name == "sendLane") {
				for _, f := range st.Fields.List {
					for _, name := range f.Names {
						if name.Name == "done" {
							t.Errorf("%s has a done field: a synchronous send waits for the wire's owner", n.Name.Name)
						}
					}
				}
			}
		case *ast.FuncDecl:
			if n.Name.Name != "drain" && n.Name.Name != "writeInline" {
				return true
			}
			ast.Inspect(n.Body, func(m ast.Node) bool {
				if sel, ok := m.(*ast.SelectorExpr); ok && (sel.Sel.Name == "FastPath" || sel.Sel.Name == "Runtime" || sel.Sel.Name == "serving") {
					t.Errorf("%s reads %s: the write asks no runtime whether it may write", n.Name.Name, sel.Sel.Name)
				}
				return true
			})
		}
		return true
	})
}
