package telemetry

import (
	"strings"
	"sync"
	"testing"
)

// Concurrency: parallel writers on every instrument kind vs snapshot
// readers. Run under -race; correctness here is "no race, totals add
// up once the writers stop".
func TestConcurrentWritersAndReaders(t *testing.T) {
	c := NewCounter("test.concurrent.ops_total")
	g := NewGauge("test.concurrent.level")
	h := NewHistogram("test.concurrent.lat_ns")

	const writers = 8
	const perWriter = 10000

	stop := make(chan struct{})
	var readers sync.WaitGroup
	readers.Add(1)
	go func() { // snapshot reader racing the writers
		defer readers.Done()
		for {
			select {
			case <-stop:
				return
			default:
				s := Capture()
				if v := s.Counters["test.concurrent.ops_total"]; v < 0 {
					t.Errorf("negative counter in snapshot: %d", v)
					return
				}
			}
		}
	}()
	var writersWG sync.WaitGroup
	for w := 0; w < writers; w++ {
		writersWG.Add(1)
		go func(w int) {
			defer writersWG.Done()
			for i := 0; i < perWriter; i++ {
				c.IncAt(uint32(w))
				g.Add(1)
				h.Observe(int64(i))
			}
		}(w)
	}
	writersWG.Wait()
	close(stop)
	readers.Wait()

	if got := c.Value(); got != writers*perWriter {
		t.Fatalf("counter = %d, want %d", got, writers*perWriter)
	}
	if got := g.Value(); got != writers*perWriter {
		t.Fatalf("gauge = %d, want %d", got, writers*perWriter)
	}
	if got := h.Count(); got != writers*perWriter {
		t.Fatalf("histogram count = %d, want %d", got, writers*perWriter)
	}
}

func TestCounterStriping(t *testing.T) {
	c := NewCounter("test.stripe.ops_total")
	for hint := uint32(0); hint < 32; hint++ {
		c.IncAt(hint)
	}
	c.Add(10)
	if got := c.Value(); got != 42 {
		t.Fatalf("striped counter = %d, want 42", got)
	}
}

// Histogram bucket boundaries: bucket i is exactly the values with bit
// length i — 0 → bucket 0, [2^(i-1), 2^i) → bucket i.
func TestHistogramBucketBoundaries(t *testing.T) {
	h := NewHistogram("test.hist.bounds_ns")
	cases := []struct {
		v      int64
		bucket int
	}{
		{0, 0},
		{-5, 0}, // clamps to 0
		{1, 1},
		{2, 2},
		{3, 2},
		{4, 3},
		{7, 3},
		{8, 4},
		{1023, 10},
		{1024, 11},
		{1 << 38, histBuckets - 1},
		{1<<62 + 5, histBuckets - 1}, // far past the last bucket: clamps
	}
	for _, tc := range cases {
		h.Observe(tc.v)
		s := h.snapshot()
		if s.Buckets[tc.bucket] == 0 {
			t.Errorf("Observe(%d): bucket %d not hit (snapshot %+v)", tc.v, tc.bucket, s.Buckets)
		}
	}
	s := h.snapshot()
	if s.Count != int64(len(cases)) {
		t.Fatalf("count = %d, want %d", s.Count, len(cases))
	}
	// Upper bounds: bucket 0 holds only 0; bucket i tops out at 2^i-1.
	if got := s.BucketUpper(0); got != 0 {
		t.Errorf("BucketUpper(0) = %d, want 0", got)
	}
	if got := s.BucketUpper(3); got != 7 {
		t.Errorf("BucketUpper(3) = %d, want 7", got)
	}
	if got := s.BucketUpper(11); got != 2047 {
		t.Errorf("BucketUpper(11) = %d, want 2047", got)
	}
}

func TestSnapshotDelta(t *testing.T) {
	c := NewCounter("test.delta.ops_total")
	h := NewHistogram("test.delta.lat_ns")
	c.Add(5)
	h.Observe(100)
	before := Capture()
	c.Add(7)
	h.Observe(100)
	h.Observe(200)
	after := Capture()
	d := after.Delta(before)
	if got := d.Counters["test.delta.ops_total"]; got != 7 {
		t.Fatalf("delta counter = %d, want 7", got)
	}
	if got := d.Histograms["test.delta.lat_ns"].Count; got != 2 {
		t.Fatalf("delta histogram count = %d, want 2", got)
	}
	if got := d.Histograms["test.delta.lat_ns"].Sum; got != 300 {
		t.Fatalf("delta histogram sum = %d, want 300", got)
	}
}

func TestWritePrometheus(t *testing.T) {
	c := NewCounter("test.prom.ops_total")
	g := NewGauge("test.prom.level")
	h := NewHistogram("test.prom.lat_ns")
	c.Add(3)
	g.Set(-2)
	h.Observe(5)
	var sb strings.Builder
	if err := Capture().WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"# TYPE ncs_test_prom_ops_total counter\nncs_test_prom_ops_total 3\n",
		"# TYPE ncs_test_prom_level gauge\nncs_test_prom_level -2\n",
		"# TYPE ncs_test_prom_lat_ns histogram\n",
		"ncs_test_prom_lat_ns_bucket{le=\"7\"} 1\n",
		"ncs_test_prom_lat_ns_bucket{le=\"+Inf\"} 1\n",
		"ncs_test_prom_lat_ns_sum 5\n",
		"ncs_test_prom_lat_ns_count 1\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("prometheus output missing %q:\n%s", want, out)
		}
	}
}

func TestNamingConventionEnforced(t *testing.T) {
	for _, bad := range []string{"", "flat", "two.segments", "Upper.case.metric", "has.a space.metric"} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewCounter(%q) did not panic", bad)
				}
			}()
			NewCounter(bad)
		}()
	}
	// Duplicate registration panics too.
	NewCounter("test.dup.ops_total")
	func() {
		defer func() {
			if recover() == nil {
				t.Error("duplicate registration did not panic")
			}
		}()
		NewCounter("test.dup.ops_total")
	}()
}

func TestFuncGauge(t *testing.T) {
	v := int64(41)
	NewFuncGauge("test.func.level", func() int64 { return v })
	v = 42
	if got := Capture().Gauges["test.func.level"]; got != 42 {
		t.Fatalf("func gauge = %d, want 42", got)
	}
}

// TestFuncCounters: computed counters land in Snapshot.Counters beside
// the incremented ones, one callback per capture for the whole set, and
// Delta subtracts them like any counter.
func TestFuncCounters(t *testing.T) {
	var calls int
	vals := []int64{3, 40}
	NewFuncCounters(func(out []int64) {
		calls++
		copy(out, vals)
	}, "test.computed.a_total", "test.computed.b_total")
	before := Capture()
	if calls != 1 {
		t.Fatalf("one capture called the callback %d times, want once for both names", calls)
	}
	vals[0], vals[1] = 5, 41
	d := Capture().Delta(before)
	if d.Counters["test.computed.a_total"] != 2 || d.Counters["test.computed.b_total"] != 1 {
		t.Fatalf("computed counter deltas = %d, %d, want 2, 1", d.Counters["test.computed.a_total"], d.Counters["test.computed.b_total"])
	}
	var out strings.Builder
	if err := Capture().WritePrometheus(&out); err != nil || !strings.Contains(out.String(), "# TYPE ncs_test_computed_a_total counter") {
		t.Fatalf("computed counter missing from the Prometheus exposition (err %v)", err)
	}
}

func TestTracerLifecycle(t *testing.T) {
	tr := NewTracer(1, 8)
	tracer.Store(tr)
	defer DisableTracing()

	TraceStart(7, 3, 4096)
	TraceStamp(7, 3, StageStaged)
	TraceStamp(7, 3, StageQueued)
	TraceStamp(7, 3, StageDequeued)
	TraceStamp(7, 3, StageWireOut)
	TraceStamp(7, 3, StageWireIn)
	TraceStamp(7, 3, StageReassembled)
	TraceFinish(7, 3)

	got := TakeTraces()
	if len(got) != 1 {
		t.Fatalf("TakeTraces = %d records, want 1", len(got))
	}
	rec := got[0]
	if rec.ConnID != 7 || rec.Session != 3 || rec.Bytes != 4096 {
		t.Fatalf("trace identity = %+v", rec)
	}
	// The appended sender-side stages sit between Staged and WireOut;
	// the six path stages keep the values 0–5 the benchmark indexes by.
	if StageEnqueued != 0 || StageDelivered != 5 || numStages != 8 {
		t.Fatalf("path stages are %d…%d of %d, want 0…5 of 8", StageEnqueued, StageDelivered, numStages)
	}
	var prev int64
	for _, st := range []TraceStage{StageEnqueued, StageStaged, StageQueued, StageDequeued,
		StageWireOut, StageWireIn, StageReassembled, StageDelivered} {
		if rec.Stamp[st] == 0 {
			t.Fatalf("stage %v not stamped: %+v", st, rec)
		}
		if rec.Stamp[st] < prev {
			t.Fatalf("stage %v stamp went backwards: %+v", st, rec)
		}
		prev = rec.Stamp[st]
	}
	// Drained: a second take is empty.
	if extra := TakeTraces(); len(extra) != 0 {
		t.Fatalf("second TakeTraces = %d records, want 0", len(extra))
	}
}

// TestTracerSurvivesUndeliveredMessages: only finish frees a slot, and a
// message that never reaches delivery never calls it. The tracer must
// go on recording what does complete, however many did not.
func TestTracerSurvivesUndeliveredMessages(t *testing.T) {
	tracer.Store(NewTracer(1, 128))
	defer DisableTracing()
	for i := uint32(1); i <= 500; i++ {
		TraceStart(1, i, 10) // dropped on the wire, or its connection closed
	}
	for i := uint32(501); i <= 600; i++ {
		TraceStart(1, i, 10)
		TraceStamp(1, i, StageWireOut)
		TraceFinish(1, i)
	}
	got := TakeTraces()
	if len(got) != 100 {
		t.Fatalf("after 500 messages that never reached delivery, %d of the next 100 completed ones were recorded, want all", len(got))
	}
	for _, rec := range got {
		if rec.Session <= 500 || rec.Stamp[StageWireOut] < rec.Stamp[StageEnqueued] || rec.Stamp[StageStaged] != 0 {
			t.Fatalf("a recycled slot leaked its evicted claim's stamps: %+v", rec)
		}
	}
}

// TestTracerOverloadedWindowStillCompletes: a probe window that sees
// more sampled messages in flight than it has slots — many connections
// in step share one, the connection id is not in the slot index — must
// go on completing the ones it holds. Evicting the oldest claim for
// every newcomer would evict each before it finished and record none.
func TestTracerOverloadedWindowStillCompletes(t *testing.T) {
	tracer.Store(NewTracer(1, 256))
	defer DisableTracing()
	const inFlight = traceProbes + 2
	const n = 120
	for conn := uint32(1); conn <= n; conn++ {
		TraceStart(conn, 7, 10) // same session, same window
		if conn > inFlight {
			TraceFinish(conn-inFlight, 7)
		}
	}
	if got := len(TakeTraces()); got < n/2 {
		t.Fatalf("with %d messages in flight on a %d-slot window, %d of %d were recorded, want at least half", inFlight, traceProbes, got, n)
	}
}

// TestTraceNow: the exposed clock is the one the stamps are on.
func TestTraceNow(t *testing.T) {
	DisableTracing()
	if got := TraceNow(); got != 0 {
		t.Fatalf("TraceNow with tracing off = %d, want 0", got)
	}
	tracer.Store(NewTracer(1, 8))
	defer DisableTracing()
	before := TraceNow()
	TraceStart(3, 1, 1)
	TraceFinish(3, 1)
	after := TraceNow()
	rec := TakeTraces()[0]
	if rec.Stamp[StageEnqueued] < before || rec.Stamp[StageDelivered] > after {
		t.Fatalf("stamps %d…%d fall outside the bracket %d…%d read off TraceNow", rec.Stamp[StageEnqueued], rec.Stamp[StageDelivered], before, after)
	}
}

func TestTracerSampling(t *testing.T) {
	tr := NewTracer(4, 64)
	tracer.Store(tr)
	defer DisableTracing()
	for i := uint32(0); i < 40; i++ {
		TraceStart(1, i, 10)
		TraceFinish(1, i)
	}
	got := TakeTraces()
	if len(got) != 10 {
		t.Fatalf("sampled %d traces of 40 sends at every=4, want 10", len(got))
	}
}

func TestTracerOffIsFree(t *testing.T) {
	DisableTracing()
	// Must not panic, allocate, or record anything.
	TraceStart(1, 1, 1)
	TraceStamp(1, 1, StageWireOut)
	TraceFinish(1, 1)
	if got := TakeTraces(); got != nil {
		t.Fatalf("TakeTraces with tracing off = %v, want nil", got)
	}
	n := testing.AllocsPerRun(100, func() {
		TraceStart(2, 2, 64)
		TraceStamp(2, 2, StageStaged)
		TraceFinish(2, 2)
	})
	if n != 0 {
		t.Fatalf("trace helpers allocate %.1f allocs/op when off, want 0", n)
	}
}

func TestRingOverwrite(t *testing.T) {
	tr := NewTracer(1, 4)
	tracer.Store(tr)
	defer DisableTracing()
	for i := uint32(1); i <= 6; i++ {
		TraceStart(9, i, int(i))
		TraceFinish(9, i)
	}
	got := TakeTraces()
	if len(got) != 4 {
		t.Fatalf("ring kept %d records, want 4", len(got))
	}
	// Oldest first: sessions 3,4,5,6 survive.
	for i, rec := range got {
		if want := uint32(i + 3); rec.Session != want {
			t.Fatalf("ring[%d].Session = %d, want %d", i, rec.Session, want)
		}
	}
}

func TestHotPathAllocs(t *testing.T) {
	c := NewCounter("test.alloc.ops_total")
	g := NewGauge("test.alloc.level")
	h := NewHistogram("test.alloc.lat_ns")
	n := testing.AllocsPerRun(100, func() {
		c.Inc()
		c.AddAt(3, 2)
		g.Add(1)
		h.Observe(1234)
	})
	if n != 0 {
		t.Fatalf("instrument hot path allocates %.1f allocs/op, want 0", n)
	}
}
