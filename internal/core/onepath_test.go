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

// callSites counts, over the non-test Go files of dir, the call sites
// of each callee: "pkg.Func" for a call through a package (or any
// plain identifier), and ".Method" for every call of a method by that
// name, whatever the receiver expression.
func callSites(t *testing.T, dir string) map[string]int {
	t.Helper()
	names, err := filepath.Glob(filepath.Join(dir, "*.go"))
	if err != nil || len(names) == 0 {
		t.Fatalf("no Go files in %s (err %v)", dir, err)
	}
	sites := make(map[string]int)
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
		ast.Inspect(f, func(n ast.Node) bool {
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
	}
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
