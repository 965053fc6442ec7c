package main

import (
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"testing"
	"time"
)

const specPath = "../BENCHMARK.json"

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// TestSpecSchema holds BENCHMARK.json to the limits a benchmark
// definition is refused for, and to this program's workload list.
func TestSpecSchema(t *testing.T) {
	sp, err := loadSpec(specPath)
	if err != nil {
		t.Fatal(err)
	}
	if sp.RunSeconds < 1 || sp.RunSeconds > 60 {
		t.Errorf("run_seconds %d outside 1..60", sp.RunSeconds)
	}
	if len(sp.Workloads) != len(workloads) {
		t.Fatalf("%d workloads defined, the program has %d", len(sp.Workloads), len(workloads))
	}
	seen := map[string]bool{}
	use := func(name string) {
		if !nameRE.MatchString(name) {
			t.Errorf("name %q is not made of letters, digits, _ . - (at most 64)", name)
		}
		if seen[name] {
			t.Errorf("name %q is used twice", name)
		}
		seen[name] = true
	}
	for i, w := range sp.Workloads {
		use(w.Name)
		if w.Name != workloads[i].name {
			t.Errorf("workload %d is %q in BENCHMARK.json and %q in the program", i, w.Name, workloads[i].name)
		}
		if len(w.Why) == 0 || len(w.Why) > 200 {
			t.Errorf("workload %s: why has %d characters", w.Name, len(w.Why))
		}
	}
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	hasSetup := false
	for _, ms := range sp.EndToEnd {
		use(ms.Name)
		if ms.Bound <= 0 || ms.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", ms.Name, ms.Bound)
		}
		if ms.Name == "setup_s" {
			hasSetup = ms.Unit == "s" && ms.Better == "lower"
			for _, other := range sp.EndToEnd {
				if other.Bound > ms.Bound {
					t.Errorf("setup_s must have the largest bound; %s has %v", other.Name, other.Bound)
				}
			}
		}
	}
	if !hasSetup {
		t.Error("end_to_end needs setup_s in s, lower is better")
	}
	for _, ms := range append(append([]metricSpec(nil), sp.EndToEnd...), sp.PerLayer...) {
		if !unitRE.MatchString(ms.Unit) {
			t.Errorf("%s: unit %q", ms.Name, ms.Unit)
		}
		if ms.Better != "lower" && ms.Better != "higher" {
			t.Errorf("%s: better %q", ms.Name, ms.Better)
		}
	}
	for _, ms := range sp.PerLayer {
		use(ms.Name)
		if ms.Bound != 0 {
			t.Errorf("%s: a per-layer metric has no bound", ms.Name)
		}
	}
	if len(sp.EndToEnd) < 1 || len(sp.EndToEnd) > 16 || len(sp.PerLayer) < 1 || len(sp.PerLayer) > 128 {
		t.Errorf("%d end-to-end and %d per-layer metrics", len(sp.EndToEnd), len(sp.PerLayer))
	}
}

func TestCheckEmitted(t *testing.T) {
	want := []metricSpec{{Name: "a", Unit: "us"}, {Name: "b", Unit: "count"}}
	ok := map[string]metric{"a": {1, "us"}, "b": {2, "count"}}
	if err := checkEmitted(ok, want); err != nil {
		t.Errorf("matching set refused: %v", err)
	}
	for name, got := range map[string]map[string]metric{
		"missing":    {"a": {1, "us"}},
		"extra":      {"a": {1, "us"}, "b": {2, "count"}, "c": {3, "s"}},
		"wrong unit": {"a": {1, "ms"}, "b": {2, "count"}},
	} {
		if checkEmitted(got, want) == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

// TestSmoke runs every workload end to end — the untraced leg and the
// traced leg, payload checks and the end-of-workload audit on — for
// one measured second each, and holds the results to BENCHMARK.json:
// every defined metric emitted, nothing else, no failed operation.
func TestSmoke(t *testing.T) {
	if runtime.NumCPU() < procs {
		t.Skipf("needs %d CPUs", procs)
	}
	sp, err := loadSpec(specPath)
	if err != nil {
		t.Fatal(err)
	}
	old := runtime.GOMAXPROCS(procs)
	defer runtime.GOMAXPROCS(old)
	logOut = io.Discard
	reps, pause := setupReps, settle
	setupReps, settle = 1, 10*time.Millisecond
	defer func() { logOut, setupReps, settle = os.Stderr, reps, pause }()
	out := t.TempDir()

	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			res, err := measureUntraced(w, 7, time.Second)
			if err != nil {
				t.Fatal(err)
			}
			if err := checkEmitted(res.Metrics, sp.EndToEnd); err != nil {
				t.Error(err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("untraced: correct=%v attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
			}
			for name, m := range res.Metrics {
				if m.Value <= 0 {
					t.Errorf("end-to-end metric %s = %v; they must never be 0", name, m.Value)
				}
			}

			res, err = measureTraced(w, 7, 2*time.Second, out)
			if err != nil {
				t.Fatal(err)
			}
			if err := checkEmitted(res.Metrics, sp.PerLayer); err != nil {
				t.Error(err)
			}
			if !res.Correct {
				t.Errorf("traced: attempted=%d failed=%d", res.Attempted, res.Failed)
			}
			line, err := json.Marshal(res)
			if err != nil {
				t.Fatalf("result does not marshal (a NaN or Inf metric?): %v", err)
			}
			var back map[string]json.RawMessage
			if err := json.Unmarshal(line, &back); err != nil || len(back) != 4 {
				t.Errorf("result line has %d keys, want correct, attempted, failed, metrics", len(back))
			}

			data, err := os.ReadFile(filepath.Join(out, "trace-"+w.name+".json"))
			if err != nil {
				t.Fatal(err)
			}
			var tf traceFile
			if err := json.Unmarshal(data, &tf); err != nil {
				t.Fatal(err)
			}
			if len(tf.Spans) == 0 || tf.SelfNS["op"] <= 0 {
				t.Errorf("trace file: %d spans, op self time %d", len(tf.Spans), tf.SelfNS["op"])
			}
		})
	}
}
