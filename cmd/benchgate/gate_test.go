package main

import (
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

const baselineSample = `goos: linux
goarch: amd64
pkg: ncs
BenchmarkAllocHPIFastpathEcho-8   	  123456	      9000 ns/op	 455.1 MB/s	      67 B/op	       2 allocs/op
BenchmarkAllocHPIFastpathEcho-8   	  123456	     10000 ns/op	 455.1 MB/s	      67 B/op	       2 allocs/op
BenchmarkAllocHPIFastpathEcho-8   	  123456	     11000 ns/op	 455.1 MB/s	      67 B/op	       2 allocs/op
BenchmarkAllocSCISend4KB-8        	   50000	     20000 ns/op	     120 B/op	       2 allocs/op
PASS
`

func writeTemp(t *testing.T, name, content string) string {
	t.Helper()
	p := filepath.Join(t.TempDir(), name)
	if err := os.WriteFile(p, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return p
}

func TestParseFile(t *testing.T) {
	p := writeTemp(t, "base.txt", baselineSample)
	got, err := parseFile(p)
	if err != nil {
		t.Fatal(err)
	}
	b := got["BenchmarkAllocHPIFastpathEcho"]
	if b == nil {
		t.Fatalf("benchmark not parsed (keys: %v)", got)
	}
	if len(b.times) != 3 || median(b.times) != 10000 {
		t.Fatalf("times = %v, want 3 samples with median 10000", b.times)
	}
	if len(b.allocs) != 3 || median(b.allocs) != 2 {
		t.Fatalf("allocs = %v, want 3 samples of 2", b.allocs)
	}
}

func TestStripProcsCrossMachine(t *testing.T) {
	// A 4-core run must compare against an 8-core baseline.
	cur := `BenchmarkAllocSCISend4KB-4  50000  20500 ns/op  120 B/op  2 allocs/op` + "\n"
	base, err := parseFile(writeTemp(t, "b.txt", baselineSample))
	if err != nil {
		t.Fatal(err)
	}
	c, err := parseFile(writeTemp(t, "c.txt", cur))
	if err != nil {
		t.Fatal(err)
	}
	report, failed := compare(base, c, 0.10)
	if failed || !strings.Contains(report, "time   BenchmarkAllocSCISend4KB: 20500ns/op vs baseline 20000ns (+2.5%") {
		t.Fatalf("-4 run not matched to its -8 baseline:\n%s", report)
	}
}

func TestAllocRegressionFails(t *testing.T) {
	base, _ := parseFile(writeTemp(t, "b.txt", baselineSample))
	cur := `BenchmarkAllocSCISend4KB-8  50000  20000 ns/op  180 B/op  3 allocs/op` + "\n"
	c, _ := parseFile(writeTemp(t, "c.txt", cur))
	report, failed := compare(base, c, 0.10)
	if !failed {
		t.Fatalf("+1 alloc/op passed the gate:\n%s", report)
	}
	if !strings.Contains(report, "allocs/op 3 vs baseline 2") {
		t.Fatalf("report does not explain the alloc regression:\n%s", report)
	}
}

// TestTimeRegressionReportOnly pins what decides the exit code: a
// +50% ns/op regression with allocations unchanged is printed with its
// delta and exits 0; one more alloc/op at the same speed exits 1.
func TestTimeRegressionReportOnly(t *testing.T) {
	base := writeTemp(t, "b.txt", baselineSample)
	slow := writeTemp(t, "slow.txt", "BenchmarkAllocSCISend4KB-8  50000  30000 ns/op  120 B/op  2 allocs/op\n")
	var out strings.Builder
	if code := gate(base, slow, 0.10, &out, io.Discard); code != 0 {
		t.Fatalf("ns/op-only regression exited %d:\n%s", code, out.String())
	}
	if !strings.Contains(out.String(), "+50.0%, not gated") {
		t.Fatalf("time delta not reported:\n%s", out.String())
	}
	fat := writeTemp(t, "fat.txt", "BenchmarkAllocSCISend4KB-8  50000  20000 ns/op  180 B/op  3 allocs/op\n")
	if code := gate(base, fat, 0.10, io.Discard, io.Discard); code != 1 {
		t.Fatalf("+1 allocs/op exited %d, want 1", code)
	}
	if code := gate(base, filepath.Join(t.TempDir(), "missing.txt"), 0.10, io.Discard, io.Discard); code != 2 {
		t.Fatalf("missing current file exited %d, want 2", code)
	}
}

func TestTimeImprovementAndSlackPass(t *testing.T) {
	base, _ := parseFile(writeTemp(t, "b.txt", baselineSample))
	cur := `BenchmarkAllocSCISend4KB-8  50000  21900 ns/op  120 B/op  2 allocs/op
BenchmarkAllocHPIFastpathEcho-8  123456  5000 ns/op  67 B/op  1 allocs/op
` // slower, and faster with fewer allocs: neither fails
	c, _ := parseFile(writeTemp(t, "c.txt", cur))
	report, failed := compare(base, c, 0.10)
	if failed {
		t.Fatalf("improvement or time noise failed the gate:\n%s", report)
	}
}

// TestCrossCPUTimeNotGated: runs recorded on different CPU models
// compare like any others — the "cpu:" header is not a benchmark line,
// a time/op blowup is reported and not gated, and an allocs/op
// regression still fails, because allocation counts are deterministic
// everywhere.
func TestCrossCPUTimeNotGated(t *testing.T) {
	baseSrc := "cpu: Intel(R) Xeon(R) Processor @ 2.10GHz\n" + baselineSample
	curSrc := "cpu: AMD EPYC 7763\nBenchmarkAllocSCISend4KB-8  50000  90000 ns/op  120 B/op  2 allocs/op\n"
	base, err := parseFile(writeTemp(t, "b.txt", baseSrc))
	if err != nil {
		t.Fatal(err)
	}
	c, err := parseFile(writeTemp(t, "c.txt", curSrc))
	if err != nil {
		t.Fatal(err)
	}
	if len(base) != 2 || len(c) != 1 {
		t.Fatalf("cpu header parsed as a benchmark: %d and %d names", len(base), len(c))
	}
	report, failed := compare(base, c, 0.10)
	if failed {
		t.Fatalf("cross-CPU time delta failed the gate:\n%s", report)
	}
	if !strings.Contains(report, "+350.0%, not gated") {
		t.Fatalf("time regression not reported:\n%s", report)
	}

	curSrc = "cpu: AMD EPYC 7763\nBenchmarkAllocSCISend4KB-8  50000  90000 ns/op  120 B/op  5 allocs/op\n"
	c, _ = parseFile(writeTemp(t, "c2.txt", curSrc))
	if _, failed := compare(base, c, 0.10); !failed {
		t.Fatal("allocs/op regression passed on cross-CPU comparison")
	}
}

// TestIdleConnBytesGate pins the memory gate: the bytes/idleconn
// custom metric (ReportMetric from the idle-memory benchmark) fails
// on a median regression beyond the mem threshold, passes inside it,
// and gates on any machine, because heap layout does not depend on
// clock speed.
func TestIdleConnBytesGate(t *testing.T) {
	baseSrc := `BenchmarkAllocIdleConnBytes-8  1  0 ns/op  800.0 bytes/idleconn
BenchmarkAllocIdleConnBytes-8  1  0 ns/op  820.0 bytes/idleconn
BenchmarkAllocIdleConnBytes-8  1  0 ns/op  810.0 bytes/idleconn
`
	base, err := parseFile(writeTemp(t, "b.txt", baseSrc))
	if err != nil {
		t.Fatal(err)
	}

	// +5% median: inside the 10% band.
	okSrc := `BenchmarkAllocIdleConnBytes-8  1  0 ns/op  850.0 bytes/idleconn` + "\n"
	c, _ := parseFile(writeTemp(t, "ok.txt", okSrc))
	report, failed := compare(base, c, 0.10)
	if failed {
		t.Fatalf("+5%% bytes/idleconn failed the 10%% gate:\n%s", report)
	}

	// +50% median: fat connections fail, even cross-CPU.
	fatSrc := `BenchmarkAllocIdleConnBytes-8  1  0 ns/op  1215.0 bytes/idleconn` + "\n"
	c, _ = parseFile(writeTemp(t, "fat.txt", fatSrc))
	report, failed = compare(base, c, 0.10)
	if !failed {
		t.Fatalf("+50%% bytes/idleconn passed the gate:\n%s", report)
	}
	if !strings.Contains(report, "bytes/idleconn 1215 vs baseline 810") {
		t.Fatalf("report does not explain the memory regression:\n%s", report)
	}
}

func TestNewBenchmarkDoesNotFail(t *testing.T) {
	base, _ := parseFile(writeTemp(t, "b.txt", baselineSample))
	cur := baselineSample + "BenchmarkBrandNew-8  1000  99999 ns/op  5000 B/op  99 allocs/op\n"
	c, _ := parseFile(writeTemp(t, "c.txt", cur))
	report, failed := compare(base, c, 0.10)
	if failed {
		t.Fatalf("unbaselined benchmark failed the gate:\n%s", report)
	}
	if !strings.Contains(report, "NEW") {
		t.Fatalf("new benchmark not reported:\n%s", report)
	}
}
