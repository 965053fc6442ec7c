package telemetry

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// stripes is the number of cache-line-padded cells a Counter spreads
// its increments over. Hot counters touched from many shards pass a
// cheap locality hint (connection or shard ID) to AddAt so concurrent
// writers land on different lines; Value folds the stripes back
// together. Must be a power of two.
const stripes = 8

// stripe is one padded counter cell. The padding keeps adjacent
// stripes on distinct cache lines so striped increments do not
// false-share.
type stripe struct {
	v atomic.Int64
	_ [56]byte
}

// Counter is a monotonically increasing, shard-striped counter.
// Increments are single atomic adds: no locks, no allocation.
type Counter struct {
	name string
	s    [stripes]stripe
}

// Inc adds 1 on the primary stripe.
func (c *Counter) Inc() { c.s[0].v.Add(1) }

// Add adds n on the primary stripe.
func (c *Counter) Add(n int64) { c.s[0].v.Add(n) }

// IncAt adds 1 on the stripe selected by the locality hint (typically
// a connection or shard ID), spreading contended hot-path increments
// across cache lines.
func (c *Counter) IncAt(hint uint32) { c.s[hint&(stripes-1)].v.Add(1) }

// AddAt adds n on the stripe selected by the locality hint.
func (c *Counter) AddAt(hint uint32, n int64) { c.s[hint&(stripes-1)].v.Add(n) }

// Value folds the stripes into the counter's current total.
func (c *Counter) Value() int64 {
	var sum int64
	for i := range c.s {
		sum += c.s[i].v.Load()
	}
	return sum
}

// Name returns the registered instrument name.
func (c *Counter) Name() string { return c.name }

// Gauge is an instantaneous level: it moves both ways.
type Gauge struct {
	name string
	v    atomic.Int64
}

// Set replaces the gauge value.
func (g *Gauge) Set(n int64) { g.v.Store(n) }

// Add moves the gauge by n (negative to decrease).
func (g *Gauge) Add(n int64) { g.v.Add(n) }

// Inc adds 1.
func (g *Gauge) Inc() { g.v.Add(1) }

// Dec subtracts 1.
func (g *Gauge) Dec() { g.v.Add(-1) }

// Value returns the current level.
func (g *Gauge) Value() int64 { return g.v.Load() }

// Name returns the registered instrument name.
func (g *Gauge) Name() string { return g.name }

// FuncGauge is a gauge whose level is computed at capture time from a
// callback — for quantities another package already tracks (e.g. the
// buffer pools' outstanding count).
type FuncGauge struct {
	name string
	fn   func() int64
}

// Value invokes the callback.
func (g *FuncGauge) Value() int64 { return g.fn() }

// Name returns the registered instrument name.
func (g *FuncGauge) Name() string { return g.name }

// FuncCounters is a set of counters computed at capture time by one
// callback — for totals their owners already keep (core.conn.*: the sum
// of every connection's own Stats), so the hot path counts each event
// once. One call of fn per Capture fills vals, in the order of the
// names; a value must never be lower than one fn reported before.
type FuncCounters struct {
	names []string
	fn    func(vals []int64)
}

// ---------------------------------------------------------------------------
// Registry.

// registry holds every registered instrument. Registration happens at
// package init (instruments are package-level vars), so the mutex is
// uncontended at runtime; Capture takes it only to snapshot the slices.
type registry struct {
	mu         sync.Mutex
	names      map[string]struct{}
	counters   []*Counter
	gauges     []*Gauge
	funcGauges []*FuncGauge
	funcCounts []*FuncCounters
	histograms []*Histogram
}

var def = &registry{names: make(map[string]struct{})}

// checkName enforces the layer.subsystem.metric convention documented
// in doc.go and rejects duplicates. It panics on violation: instrument
// names are compile-time constants, so a bad one is a programming
// error best caught by the first test that loads the package.
func (r *registry) checkName(name string) {
	if strings.Count(name, ".") < 2 {
		panic(fmt.Sprintf("telemetry: instrument %q does not follow layer.subsystem.metric", name))
	}
	for _, c := range name {
		switch {
		case c >= 'a' && c <= 'z', c >= '0' && c <= '9', c == '.', c == '_':
		default:
			panic(fmt.Sprintf("telemetry: instrument %q contains invalid character %q", name, c))
		}
	}
	if _, dup := r.names[name]; dup {
		panic(fmt.Sprintf("telemetry: duplicate instrument %q", name))
	}
	r.names[name] = struct{}{}
}

// NewCounter registers a counter under the given name. Call once, at
// package init, and keep the returned pointer in a package-level var;
// the increment methods are the zero-allocation hot path.
func NewCounter(name string) *Counter {
	def.mu.Lock()
	defer def.mu.Unlock()
	def.checkName(name)
	c := &Counter{name: name}
	def.counters = append(def.counters, c)
	return c
}

// NewGauge registers a gauge under the given name.
func NewGauge(name string) *Gauge {
	def.mu.Lock()
	defer def.mu.Unlock()
	def.checkName(name)
	g := &Gauge{name: name}
	def.gauges = append(def.gauges, g)
	return g
}

// NewFuncGauge registers a capture-time computed gauge. fn must be
// safe to call from any goroutine.
func NewFuncGauge(name string, fn func() int64) *FuncGauge {
	def.mu.Lock()
	defer def.mu.Unlock()
	def.checkName(name)
	g := &FuncGauge{name: name, fn: fn}
	def.funcGauges = append(def.funcGauges, g)
	return g
}

// NewFuncCounters registers capture-time computed counters, which land
// in Snapshot.Counters beside the incremented ones. fn must be safe to
// call from any goroutine.
func NewFuncCounters(fn func(vals []int64), names ...string) *FuncCounters {
	def.mu.Lock()
	defer def.mu.Unlock()
	for _, name := range names {
		def.checkName(name)
	}
	c := &FuncCounters{names: names, fn: fn}
	def.funcCounts = append(def.funcCounts, c)
	return c
}

// NewHistogram registers a power-of-two-bucket histogram.
func NewHistogram(name string) *Histogram {
	def.mu.Lock()
	defer def.mu.Unlock()
	def.checkName(name)
	h := &Histogram{name: name}
	def.histograms = append(def.histograms, h)
	return h
}

// ---------------------------------------------------------------------------
// Snapshots.

// Snapshot is a point-in-time reading of every registered instrument.
// It is plain data: safe to retain, diff, and marshal (ncs.CaptureMetrics
// returns one; the benchmark reads its counters by name).
type Snapshot struct {
	Counters   map[string]int64             `json:"counters"`
	Gauges     map[string]int64             `json:"gauges"`
	Histograms map[string]HistogramSnapshot `json:"histograms"`
}

// Capture reads every registered instrument. Concurrent writers are
// not quiesced: the snapshot is per-instrument atomic, which is what
// monitoring needs.
func Capture() Snapshot {
	def.mu.Lock()
	counters := def.counters
	gauges := def.gauges
	funcGauges := def.funcGauges
	funcCounts := def.funcCounts
	histograms := def.histograms
	def.mu.Unlock()

	s := Snapshot{
		Counters:   make(map[string]int64, len(counters)),
		Gauges:     make(map[string]int64, len(gauges)+len(funcGauges)),
		Histograms: make(map[string]HistogramSnapshot, len(histograms)),
	}
	for _, c := range counters {
		s.Counters[c.name] = c.Value()
	}
	for _, c := range funcCounts {
		vals := make([]int64, len(c.names))
		c.fn(vals)
		for i, name := range c.names {
			s.Counters[name] = vals[i]
		}
	}
	for _, g := range gauges {
		s.Gauges[g.name] = g.Value()
	}
	for _, g := range funcGauges {
		s.Gauges[g.name] = g.Value()
	}
	for _, h := range histograms {
		s.Histograms[h.name] = h.snapshot()
	}
	return s
}

// Delta returns this snapshot minus prev: counters and histogram
// tallies are subtracted (instruments absent from prev pass through
// unchanged), gauges keep their current level. Use it to attribute
// activity to one experiment or test window.
func (s Snapshot) Delta(prev Snapshot) Snapshot {
	d := Snapshot{
		Counters:   make(map[string]int64, len(s.Counters)),
		Gauges:     make(map[string]int64, len(s.Gauges)),
		Histograms: make(map[string]HistogramSnapshot, len(s.Histograms)),
	}
	for name, v := range s.Counters {
		d.Counters[name] = v - prev.Counters[name]
	}
	for name, v := range s.Gauges {
		d.Gauges[name] = v
	}
	for name, h := range s.Histograms {
		p := prev.Histograms[name]
		dh := HistogramSnapshot{Count: h.Count - p.Count, Sum: h.Sum - p.Sum}
		for i := range h.Buckets {
			dh.Buckets[i] = h.Buckets[i] - p.Buckets[i]
		}
		d.Histograms[name] = dh
	}
	return d
}

// WritePrometheus renders the snapshot in the Prometheus text
// exposition format. Instrument dots become underscores and every
// metric is prefixed ncs_, so core.conn.send_msgs_total scrapes as
// ncs_core_conn_send_msgs_total.
func (s Snapshot) WritePrometheus(w io.Writer) error {
	for _, name := range sortedKeys(s.Counters) {
		pn := promName(name)
		if _, err := fmt.Fprintf(w, "# TYPE %s counter\n%s %d\n", pn, pn, s.Counters[name]); err != nil {
			return err
		}
	}
	for _, name := range sortedKeys(s.Gauges) {
		pn := promName(name)
		if _, err := fmt.Fprintf(w, "# TYPE %s gauge\n%s %d\n", pn, pn, s.Gauges[name]); err != nil {
			return err
		}
	}
	hnames := make([]string, 0, len(s.Histograms))
	for name := range s.Histograms {
		hnames = append(hnames, name)
	}
	sort.Strings(hnames)
	for _, name := range hnames {
		h := s.Histograms[name]
		pn := promName(name)
		if _, err := fmt.Fprintf(w, "# TYPE %s histogram\n", pn); err != nil {
			return err
		}
		var cum int64
		for i, n := range h.Buckets {
			cum += n
			if n == 0 && i != len(h.Buckets)-1 {
				continue // keep the exposition compact: only occupied buckets
			}
			if _, err := fmt.Fprintf(w, "%s_bucket{le=\"%d\"} %d\n", pn, bucketUpper(i), cum); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "%s_bucket{le=\"+Inf\"} %d\n%s_sum %d\n%s_count %d\n",
			pn, h.Count, pn, h.Sum, pn, h.Count); err != nil {
			return err
		}
	}
	return nil
}

func promName(name string) string {
	return "ncs_" + strings.ReplaceAll(name, ".", "_")
}

func sortedKeys(m map[string]int64) []string {
	ks := make([]string, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return ks
}
