package ncs

import (
	"cmp"
	"expvar"
	"fmt"
	"io"
	"net/http"
	"net/http/pprof"
	"slices"
	"sync"

	"ncs/internal/core"
	"ncs/internal/telemetry"
)

// expvarOnce guards the one-time expvar publication: expvar.Publish
// panics on a duplicate name, and ServeDebug may be called per-mux.
var expvarOnce sync.Once

// ServeDebug mounts NCS's live-introspection endpoints on mux and
// returns it; a nil mux allocates a fresh http.ServeMux. Nothing is
// served until the caller passes the returned handler to an HTTP
// server, so a process that never calls ServeDebug (or never serves
// the mux) exposes nothing:
//
//	go http.ListenAndServe("localhost:6060", ncs.ServeDebug(nil))
//
// The endpoints:
//
//   - /metrics: Prometheus text exposition of every registered
//     instrument (counters, gauges, histograms with cumulative
//     buckets), named ncs_<layer>_<subsystem>_<metric>.
//   - /debug/ncs/conns: "why is this connection stuck?" — one block of
//     key=value lines per live connection end (a closed one is absent),
//     read off the runtime's own state: whether the receive side
//     stopped reading the wire (paused=true, with queued= at the depth
//     of the default lane or of its bound Inbox), sessions being
//     reassembled, sends waiting for an ack, the retransmission timeout
//     and RTT, heartbeat misses, its Stats, and a line for the default
//     lane (stream=0) and every open stream with the messages queued
//     unread and the credit sender's state — a sender stalled on
//     credits shows available=0.
//   - /debug/vars: expvar JSON; the full metrics snapshot is published
//     under the "ncs" key, next to the runtime's memstats/cmdline.
//   - /debug/pprof/...: the standard Go profiler endpoints (heap,
//     goroutine, CPU profile, execution trace).
//
// The handlers read the process-global instrument registry, so one
// endpoint observes every System in the process.
func ServeDebug(mux *http.ServeMux) *http.ServeMux {
	if mux == nil {
		mux = http.NewServeMux()
	}
	expvarOnce.Do(func() {
		expvar.Publish("ncs", expvar.Func(func() any {
			return telemetry.Capture()
		}))
	})
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		// The only write errors are the client hanging up mid-scrape;
		// there is nobody left to report them to.
		_ = telemetry.Capture().WritePrometheus(w)
	})
	mux.HandleFunc("/debug/ncs/conns", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		// The snapshot is complete before the first byte is written: no
		// lock of the runtime's is held while a slow client reads.
		writeConns(w, core.Conns())
	})
	mux.Handle("/debug/vars", expvar.Handler())
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// writeConns renders the /debug/ncs/conns report, ordered by connection
// id (both ends of an in-process connection share it), then system.
// Write errors are the client hanging up: there is nobody to tell.
func writeConns(w io.Writer, conns []core.ConnInfo) {
	slices.SortFunc(conns, func(a, b core.ConnInfo) int {
		return cmp.Or(cmp.Compare(a.ID, b.ID), cmp.Compare(a.System, b.System))
	})
	for _, c := range conns {
		runtime, state := c.Opts.Runtime.String(), "live"
		if c.Opts.FastPath {
			runtime = "fastpath"
		}
		if c.Err != nil {
			state = c.Err.Error()
		}
		fmt.Fprintf(w, "conn=%d system=%s peer=%s runtime=%s flowctl=%v errctl=%v state=%q paused=%t queued=%d/%d sessions=%d waiters=%d rto=%v rtt=%v misses=%d\n",
			c.ID, c.System, c.Peer, runtime, c.Opts.FlowControl, c.Opts.ErrorControl, state,
			c.Paused, c.Queued, c.Depth, c.Sessions, c.Waiters, c.RTO, c.RTT, c.Misses)
		st := c.Stats
		fmt.Fprintf(w, "  stats msgs_sent=%d sdus_sent=%d bytes_sent=%d retransmissions=%d msgs_recv=%d sdus_recv=%d bytes_recv=%d ctrl_sent=%d ctrl_recv=%d\n",
			st.MessagesSent, st.SDUsSent, st.BytesSent, st.Retransmissions, st.MessagesReceived, st.SDUsReceived, st.BytesReceived, st.ControlSent, st.ControlReceived)
		slices.SortFunc(c.Lanes[1:], func(a, b core.LaneInfo) int { return cmp.Compare(a.Stream, b.Stream) })
		for _, l := range c.Lanes {
			if l.Stream == 0 && !l.Credit {
				continue // the default lane's queue is on the first line, and it runs no credits
			}
			fmt.Fprintf(w, "  stream=%d queued=%d", l.Stream, l.Queued)
			if fs := l.Flow; l.Credit {
				fmt.Fprintf(w, " credits used=%d granted=%d probes=%d lost=%d in_flight=%d available=%d window=%d controller=%s",
					fs.Used, fs.Granted, fs.Probes, fs.Lost, fs.Inflight(), fs.Available(), fs.Window, fs.Controller)
			}
			fmt.Fprintln(w)
		}
	}
}
