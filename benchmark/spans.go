package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed interval of the traced leg. Op is the operation's
// identifier — the sequence number carried in the payload — so the
// caller's spans, the echo side's spans and the layer-replay spans of
// one operation meet under one id. Parent names the span that caused
// this one ("" for a root).
type span struct {
	Op     uint64 `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent string `json:"parent,omitempty"`
}

// spanLog keeps the traced leg's spans in memory until the workload
// ends. A nil *spanLog records nothing, so the untraced loop calls the
// same code without a branch per site.
type spanLog struct {
	base  time.Time
	mu    sync.Mutex
	spans []span
}

func newSpanLog() *spanLog { return &spanLog{base: time.Now(), spans: make([]span, 0, 1<<16)} }

// now is the log's monotonic clock; 0 on a nil log.
func (l *spanLog) now() int64 {
	if l == nil {
		return 0
	}
	return int64(time.Since(l.base))
}

// clock returns the log's clock for an operation that records spans
// and a constant 0 for one that does not, so unsampled operations pay
// for no timestamps.
func (l *spanLog) clock(sampled bool) func() int64 {
	if sampled {
		return l.now
	}
	return func() int64 { return 0 }
}

// add records one finished span.
func (l *spanLog) add(op uint64, name, parent string, start, end int64) {
	if l == nil {
		return
	}
	l.mu.Lock()
	l.spans = append(l.spans, span{Op: op, Name: name, Start: start, End: end, Parent: parent})
	l.mu.Unlock()
}

func (l *spanLog) count() int {
	if l == nil {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.spans)
}

// durationsUS returns the durations, in microseconds, of every span
// with the given name, sorted ascending.
func (l *spanLog) durationsUS(name string) []float64 {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	var out []float64
	for _, s := range l.spans {
		if s.Name == name {
			out = append(out, float64(s.End-s.Start)/1e3)
		}
	}
	sort.Float64s(out)
	return out
}

// selfTimes computes each span's self time: its duration minus the part
// of its interval that its children (spans of the same op naming it as
// parent) cover. Overlapping children are merged first, and a child is
// clipped to its parent, so self time is never negative.
func selfTimes(spans []span) []int64 {
	type key struct {
		op   uint64
		name string
	}
	children := make(map[key][]int)
	for i, s := range spans {
		if s.Parent != "" {
			k := key{s.Op, s.Parent}
			children[k] = append(children[k], i)
		}
	}
	self := make([]int64, len(spans))
	for i, p := range spans {
		kids := children[key{p.Op, p.Name}]
		sort.Slice(kids, func(a, b int) bool { return spans[kids[a]].Start < spans[kids[b]].Start })
		var covered, edge int64 = 0, p.Start
		for _, ci := range kids {
			lo, hi := spans[ci].Start, spans[ci].End
			if lo < edge {
				lo = edge
			}
			if hi > p.End {
				hi = p.End
			}
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		self[i] = p.End - p.Start - covered
	}
	return self
}

// traceFile is what the traced leg writes when the workload ends.
type traceFile struct {
	Workload string           `json:"workload"`
	Seed     int64            `json:"seed"`
	Spans    []span           `json:"spans"`
	SelfNS   map[string]int64 `json:"self_ns_by_name"`
}

// write stores the spans and the per-name self-time totals at path.
func (l *spanLog) write(path, workload string, seed int64) error {
	l.mu.Lock()
	spans := l.spans
	l.mu.Unlock()
	tf := traceFile{Workload: workload, Seed: seed, Spans: spans, SelfNS: make(map[string]int64)}
	for i, st := range selfTimes(spans) {
		tf.SelfNS[spans[i].Name] += st
	}
	data, err := json.Marshal(tf)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
