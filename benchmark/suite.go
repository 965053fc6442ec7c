package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
)

// metricSpec is one metric's definition in BENCHMARK.json.
type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// benchSpec is BENCHMARK.json: the one place metric names, units and
// regression bounds are defined. The program checks what it emits
// against it on every run.
type benchSpec struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

func loadSpec(path string) (benchSpec, error) {
	var sp benchSpec
	data, err := os.ReadFile(path)
	if err != nil {
		return sp, fmt.Errorf("reading the benchmark definition (run from the repository root, or pass -spec): %w", err)
	}
	if err := json.Unmarshal(data, &sp); err != nil {
		return sp, fmt.Errorf("%s: %w", path, err)
	}
	return sp, nil
}

// checkEmitted holds a run to BENCHMARK.json: every defined metric
// emitted with its unit, and nothing else.
func checkEmitted(got map[string]metric, want []metricSpec) error {
	for _, ms := range want {
		m, ok := got[ms.Name]
		if !ok {
			return fmt.Errorf("metric %s is in BENCHMARK.json but was not measured", ms.Name)
		}
		if m.Unit != ms.Unit {
			return fmt.Errorf("metric %s measured in %q, BENCHMARK.json says %q", ms.Name, m.Unit, ms.Unit)
		}
	}
	if len(got) != len(want) {
		defined := make(map[string]bool, len(want))
		for _, ms := range want {
			defined[ms.Name] = true
		}
		for name := range got {
			if !defined[name] {
				return fmt.Errorf("metric %s was measured but is not in BENCHMARK.json", name)
			}
		}
	}
	return nil
}

// hostEnvelope says where and how a result was measured.
type hostEnvelope struct {
	Host       string `json:"host"`
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
	Link       string `json:"link"`
}

func envelope() hostEnvelope {
	e := hostEnvelope{
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: procs,
		GoVersion:  runtime.Version(),
		Commit:     "unknown",
		Link:       "in-process netsim (HPI) or host loopback sockets (UDP); never a real link",
	}
	e.Host, _ = os.Hostname() // an unnamed host is still a host
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				e.Commit = s.Value
			}
		}
	}
	return e
}

func (e hostEnvelope) String() string {
	return fmt.Sprintf("host %s, nproc %d, GOMAXPROCS %d, %s, commit %s; traffic crosses %s",
		e.Host, e.NumCPU, e.GOMAXPROCS, e.GoVersion, e.Commit, e.Link)
}

// suiteRun is one child process's result inside a result file.
type suiteRun struct {
	Workload string    `json:"workload"`
	Seed     int64     `json:"seed"`
	Seconds  float64   `json:"seconds"`
	Trace    int       `json:"trace"`
	Result   runResult `json:"result"`
}

// resultFile is what the suite writes and -compare reads.
type resultFile struct {
	Env  hostEnvelope `json:"env"`
	Runs []suiteRun   `json:"runs"`
}

// suite runs every selected workload, untraced then traced, each leg in
// a child process of its own so that pools are cold, set-up time is a
// whole process's, and peak RSS belongs to one workload.
func suite(sp benchSpec, only string, seed int64, seconds float64, runs int, outDir, specPath string) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	rf := resultFile{Env: envelope()}
	fmt.Println(rf.Env)
	for _, w := range workloads {
		if only != "" && w.name != only {
			continue
		}
		for i := 0; i < runs; i++ {
			for trace := 0; trace <= 1; trace++ {
				run := suiteRun{Workload: w.name, Seed: seed + int64(i), Seconds: seconds, Trace: trace}
				cmd := exec.Command(self, "-workload", w.name, "-seed", strconv.FormatInt(run.Seed, 10),
					"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "-trace", strconv.Itoa(trace),
					"-out", outDir, "-spec", specPath)
				cmd.Stderr = os.Stderr
				stdout, err := cmd.Output()
				if err != nil {
					return fmt.Errorf("%s seed %d trace %d: %w", w.name, run.Seed, trace, err)
				}
				if err := json.Unmarshal(lastLine(stdout), &run.Result); err != nil {
					return fmt.Errorf("%s: reading the child's result line: %w", w.name, err)
				}
				printRun(os.Stdout, run, sp)
				rf.Runs = append(rf.Runs, run)
			}
		}
	}
	if len(rf.Runs) == 0 {
		return fmt.Errorf("unknown workload %q", only)
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	data, err := json.MarshalIndent(rf, "", " ")
	if err != nil {
		return err
	}
	path := filepath.Join(outDir, "result.json")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return err
	}
	fmt.Println("wrote", path)
	for _, run := range rf.Runs {
		if !run.Result.Correct {
			return fmt.Errorf("%s seed %d: %d of %d operations failed", run.Workload, run.Seed, run.Result.Failed, run.Result.Attempted)
		}
	}
	return nil
}

func lastLine(out []byte) []byte {
	var last []byte
	sc := bufio.NewScanner(bytes.NewReader(out))
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		if len(bytes.TrimSpace(sc.Bytes())) > 0 {
			last = append(last[:0], sc.Bytes()...)
		}
	}
	return last
}

// printRun lists one run's metrics by name, in BENCHMARK.json's order.
func printRun(out io.Writer, run suiteRun, sp benchSpec) {
	leg, specs := "end to end", sp.EndToEnd
	if run.Trace == 1 {
		leg, specs = "per layer (traced)", sp.PerLayer
	}
	r := run.Result
	fmt.Fprintf(out, "\n%s, seed %d, %s: %d attempted, %d failed, fail_ratio %g\n",
		run.Workload, run.Seed, leg, r.Attempted, r.Failed, ratio(float64(r.Failed), float64(r.Attempted)))
	for _, ms := range specs {
		fmt.Fprintf(out, "  %-42s %16.4f %s\n", ms.Name, r.Metrics[ms.Name].Value, ms.Unit)
	}
}

// reportedBound is the share by which a client.* time metric may worsen
// before -compare calls it worse. These metrics are not bounded in
// BENCHMARK.json — on a shared host they do not repeat within this
// tenth from one run to the next (README, "What is bounded") — so the
// verdict informs and does not set the exit status.
const reportedBound = 0.10

// compareFiles applies each end-to-end metric's bound to two result
// files and prints one row per (workload, metric), then the client.*
// time metrics of the traced runs the same way for information. It
// returns an error — a non-zero exit — when an end-to-end row
// regressed or a workload's failure ratio rose.
func compareFiles(sp benchSpec, pathA, pathB string, out io.Writer) error {
	a, err := readResults(pathA)
	if err != nil {
		return err
	}
	b, err := readResults(pathB)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "a: %s (%s)\nb: %s (%s)\n", pathA, a.Env, pathB, b.Env)
	fmt.Fprintf(out, "%-11s %-22s %12s %25s %12s %25s %8s %6s  %s\n",
		"workload", "metric", "a median", "a quartiles", "b median", "b quartiles", "change", "bound", "verdict")
	row := func(workload string, ms metricSpec, trace int, gated bool) bool {
		va, vb := values(a, workload, ms.Name, trace), values(b, workload, ms.Name, trace)
		if len(va) == 0 || len(vb) == 0 {
			return false
		}
		c := judge(va, vb, ms)
		if !gated && c.verdict == "regressed" {
			c.verdict = "worse (not gated)"
		}
		fmt.Fprintf(out, "%-11s %-22s %12.4f %12.4f–%-12.4f %12.4f %12.4f–%-12.4f %+7.1f%% %5.0f%%  %s\n",
			workload, ms.Name, c.medA, c.q1A, c.q3A, c.medB, c.q1B, c.q3B, c.change*100, ms.Bound*100, c.verdict)
		return c.verdict == "regressed"
	}
	regressed := 0
	for _, w := range workloads {
		for _, ms := range sp.EndToEnd {
			if row(w.name, ms, 0, true) {
				regressed++
			}
		}
		for _, ms := range sp.PerLayer {
			if strings.HasPrefix(ms.Name, "client.") {
				ms.Bound = reportedBound
				row(w.name, ms, 1, false)
			}
		}
		fa, fb := failures(a, w.name), failures(b, w.name)
		verdict := "ok"
		if fb > fa {
			verdict = "regressed"
			regressed++
		}
		fmt.Fprintf(out, "%-11s %-22s %12.6f %25s %12.6f %25s %8s %6s  %s\n", w.name, "fail_ratio", fa, "", fb, "", "", "any", verdict)
	}
	if regressed > 0 {
		return fmt.Errorf("%d rows regressed", regressed)
	}
	return nil
}

func readResults(path string) (resultFile, error) {
	var rf resultFile
	data, err := os.ReadFile(path)
	if err != nil {
		return rf, err
	}
	if err := json.Unmarshal(data, &rf); err != nil {
		return rf, fmt.Errorf("%s: %w", path, err)
	}
	return rf, nil
}

// values collects one metric over a file's runs of one workload and
// leg (trace 0: end to end; 1: per layer).
func values(rf resultFile, workload, name string, trace int) []float64 {
	var vs []float64
	for _, run := range rf.Runs {
		if m, ok := run.Result.Metrics[name]; ok && run.Workload == workload && run.Trace == trace {
			vs = append(vs, m.Value)
		}
	}
	return vs
}

// failures is failed ÷ attempted over a file's runs of one workload.
func failures(rf resultFile, workload string) float64 {
	var failed, attempted int64
	for _, run := range rf.Runs {
		if run.Workload == workload {
			failed += run.Result.Failed
			attempted += run.Result.Attempted
		}
	}
	return ratio(float64(failed), float64(attempted))
}

// comparison is one judged (workload, metric) row.
type comparison struct {
	medA, q1A, q3A float64
	medB, q1B, q3B float64
	change         float64 // share of a's median by which b is worse (negative: better)
	verdict        string
}

// judge applies a metric's bound to two run sets. b regressed when its
// median is worse than a's by more than the bound. When either set's
// own quartile spread is wider than the bound the row is unresolved —
// the data cannot tell — unless every run of b reads better than every
// run of a.
func judge(a, b []float64, ms metricSpec) comparison {
	c := comparison{medA: median(a), medB: median(b)}
	c.q1A, c.q3A = quartiles(a)
	c.q1B, c.q3B = quartiles(b)
	worse := 1.0 // multiply so that positive change means worse
	if ms.Better == "higher" {
		worse = -1
	}
	c.change = worse * ratio(c.medB-c.medA, c.medA)
	spread := func(q1, q3, med float64) float64 { return ratio(q3-q1, med) }
	sa, sb := sortedCopy(a), sortedCopy(b)
	allBetter := sb[len(sb)-1] < sa[0]
	if ms.Better == "higher" {
		allBetter = sb[0] > sa[len(sa)-1]
	}
	switch {
	case allBetter:
		c.verdict = "ok"
	case spread(c.q1A, c.q3A, c.medA) > ms.Bound || spread(c.q1B, c.q3B, c.medB) > ms.Bound:
		c.verdict = "unresolved"
	case c.change > ms.Bound:
		c.verdict = "regressed"
	default:
		c.verdict = "ok"
	}
	return c
}
