package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"ncs"
	"ncs/internal/buf"
)

// The traced run's shares of the run length: an untraced reference
// leg, the same traffic at GOMAXPROCS=1, then the traced leg — as long
// as the reference, so that lossy_echo's fixed loss pattern replays
// over the same span in both and their ratio is tracing's cost alone.
// The layer replays take a fixed couple of seconds on top.
const (
	refShare    = 0.40
	oneCPUShare = 0.10
	tracedShare = 0.40
)

// counters is one reading of everything the program exports that the
// per-layer metrics are built from.
type counters struct {
	snap  ncs.MetricsSnapshot
	stats ncs.Stats // summed over every endpoint
	drops int64     // netsim ImpairStats, summed over every endpoint
	wire  int64
}

func readCounters(in *instance) counters {
	c := counters{snap: ncs.CaptureMetrics()}
	for _, conn := range in.conns {
		st := conn.Stats()
		c.stats.MessagesSent += st.MessagesSent
		c.stats.SDUsSent += st.SDUsSent
		c.stats.ControlSent += st.ControlSent
		if is, ok := conn.ImpairStats(); ok {
			c.drops += is.Dropped
			c.wire += is.Sent
		}
	}
	return c
}

// stageNames are the lifecycle tracer's stage-to-stage deltas, in path
// order.
var stageNames = [...]string{
	"enqueued_staged", "staged_wireout", "wireout_wirein", "wirein_reassembled", "reassembled_delivered",
}

// stageDeltas returns, per stage boundary, the sorted microsecond
// deltas of every trace that stamped all six stages in order.
func stageDeltas(traces []ncs.Trace) [len(stageNames)][]float64 {
	var out [len(stageNames)][]float64
	for _, t := range traces {
		complete := true
		for s := ncs.StageEnqueued; s < ncs.StageDelivered; s++ {
			if t.Stage(s) == 0 || t.Stage(s+1) < t.Stage(s) {
				complete = false
			}
		}
		if !complete {
			continue
		}
		for i := range out {
			s := ncs.StageEnqueued + ncs.TraceStage(i)
			out[i] = append(out[i], float64(t.Stage(s+1)-t.Stage(s))/1e3)
		}
	}
	for i := range out {
		sort.Float64s(out[i])
	}
	return out
}

// measureTraced is the per-layer leg. It fails rather than report a
// tracing overhead measured against a broken reference.
func measureTraced(w workload, seed int64, dur time.Duration, outDir string) (runResult, error) {
	base := runtime.NumGoroutine()
	leg := func(share float64) time.Duration { return time.Duration(float64(dur) * share) }
	out := map[string]metric{}

	// Reference: tracer off, then the same instance on one CPU.
	g, err := setUp(w, seed, nil)
	if err != nil {
		return runResult{}, err
	}
	v0 := getUsage().vcsw
	ref := g.run(0, leg(refShare), nil)
	vcsw := getUsage().vcsw - v0
	runtime.GOMAXPROCS(1)
	one := g.run(0, leg(oneCPUShare), nil)
	runtime.GOMAXPROCS(procs)
	if err := tearDown(g, base); err != nil {
		return runResult{}, err
	}
	refT, oneT := readTimes(w, &ref), readTimes(w, &one)

	// Traced: lifecycle tracer and harness spans on.
	sl := newSpanLog()
	g, err = setUp(w, seed, sl)
	if err != nil {
		return runResult{}, err
	}
	c0 := readCounters(g.in)
	ncs.EnableTracing(spanEvery, 4096)
	tr := g.run(0, leg(tracedShare), sl)
	traces := ncs.TakeTraces()
	ncs.DisableTracing()
	c1 := readCounters(g.in)
	outstanding := buf.Outstanding()
	if err := tearDown(g, base); err != nil {
		return runResult{}, err
	}

	rr, err := replayLayers(w, seed, sl, out)
	if err != nil {
		return runResult{}, err
	}
	if err := audit(base); err != nil {
		return runResult{}, fmt.Errorf("after layer replays: %w", err)
	}

	// Harness spans around the calls into core. rpc_fanin's callers
	// see one Call, not a Send and a Recv, so its figures come from the
	// bare echo the RPC replay runs on an identical connection.
	sendUS, recvUS := sl.durationsUS("client.send"), sl.durationsUS("client.recv")
	if len(recvUS) == 0 {
		recvUS = sl.durationsUS("server.recv") // one-way: the receiver's wait
	}
	if len(sendUS) == 0 {
		sendUS, recvUS = rr.sendUS, rr.recvUS
	}
	out["core.send_call_us_p50"] = metric{percentile(sendUS, 0.5), "us"}
	out["core.recv_wait_us_p50"] = metric{percentile(recvUS, 0.5), "us"}

	stages := stageDeltas(traces)
	if len(stages[0]) == 0 {
		return runResult{}, fmt.Errorf("%s: the lifecycle tracer completed no trace out of %d", w.name, len(traces))
	}
	for i, name := range stageNames {
		out["core.stage."+name+"_us_p50"] = metric{percentile(stages[i], 0.5), "us"}
	}

	d := c1.snap.Delta(c0.snap)
	cnt := func(name string) float64 { return float64(d.Counters[name]) }
	histMean := func(name string) float64 {
		h := d.Histograms[name]
		return ratio(float64(h.Sum), float64(h.Count))
	}
	ops := float64(tr.delivered)
	msgs := float64(c1.stats.MessagesSent - c0.stats.MessagesSent)
	sdus := float64(c1.stats.SDUsSent - c0.stats.SDUsSent)
	sh := shapeOf(w)

	out["core.ctrl_pkts_per_msg"] = metric{ratio(float64(c1.stats.ControlSent-c0.stats.ControlSent), msgs), "count"}
	out["core.sdus_per_msg"] = metric{ratio(sdus, msgs), "count"}
	out["core.shard.wakeups_per_op"] = metric{ratio(cnt("core.shard.wakeups_total"), ops), "count"}
	out["core.shard.cycles_per_op"] = metric{ratio(cnt("core.shard.cycles_total"), ops), "count"}
	out["core.send.coalesce_depth_mean"] = metric{histMean("core.send.coalesce_depth"), "count"}
	out["core.send.sendq_depth_mean"] = metric{histMean("core.send.sendq_depth"), "count"}

	out["sched.vcsw_per_op"] = metric{ratio(float64(vcsw), float64(ref.delivered)), "count"}
	out["sched.multicore_penalty_ratio"] = metric{ratio(refT.p50, oneT.p50), "ratio"}

	out["errctl.retransmit_sdus_per_msg"] = metric{ratio(cnt("errctl.send.retransmit_sdus_total"), msgs), "count"}
	out["errctl.recv_dup_per_msg"] = metric{ratio(cnt("errctl.recv.dup_total"), msgs), "count"}
	out["errctl.useful_sdu_ratio"] = metric{ratio(msgs*float64(sh.sdus), sdus), "ratio"}

	refill, piggy := cnt("flowctl.credit.refill_total"), cnt("flowctl.credit.piggyback_total")
	out["flowctl.credit_wait_per_msg"] = metric{ratio(cnt("flowctl.credit.wait_total"), msgs), "count"}
	out["flowctl.blocked_us_per_msg"] = metric{ratio(cnt("flowctl.send.blocked_ns_total")/1e3, msgs), "us"}
	out["flowctl.refill_per_msg"] = metric{ratio(refill, msgs), "count"}
	out["flowctl.piggyback_ratio"] = metric{ratio(piggy, piggy+refill), "ratio"}
	out["flowctl.resync_total"] = metric{cnt("flowctl.credit.resync_total"), "count"}

	hit, miss := cnt("buf.pool.hit_total"), cnt("buf.pool.miss_total")
	out["buf.pool_hit_ratio"] = metric{ratio(hit, hit+miss), "ratio"}
	out["buf.outstanding_end"] = metric{float64(outstanding), "count"}

	out["transport.udp.send_syscalls_per_sdu"] = metric{ratio(cnt("transport.udp.send_syscalls_total"), sdus), "count"}
	out["transport.udp.recv_syscalls_per_sdu"] = metric{ratio(cnt("transport.udp.recv_syscalls_total"), sdus), "count"}
	out["transport.udp.send_batch_depth_mean"] = metric{histMean("transport.udp.send_batch_depth"), "count"}
	out["transport.udp.eagain_per_sdu"] = metric{ratio(cnt("transport.udp.eagain_total"), sdus), "count"}
	out["transport.udp.queue_drop_total"] = metric{cnt("transport.udp.queue_drop_total"), "count"}

	out["netsim.dropped_pkts"] = metric{float64(c1.drops - c0.drops), "count"}
	out["netsim.loss_injected_ratio"] = metric{ratio(float64(c1.drops-c0.drops), float64(c1.wire-c0.wire)), "ratio"}
	out["rpc.deadline_expired_total"] = metric{cnt("rpc.server.deadline_expired_total"), "count"}

	// What the isolated layers account for along one operation's
	// blocking path; the rest of the untraced median is core's
	// hand-offs, wake-ups and queues.
	v := func(name string) float64 { return out[name].Value }
	perDir := float64(sh.sdus) * (v("packet.codec_ns_per_sdu") + v("buf.get_release_ns"))
	if w.udp {
		perDir += float64(sh.sdus) * v("transport.udp.stream_ns_per_pkt")
	} else {
		perDir += float64(sh.sdus) * v("transport.hpi.pkt_ns")
	}
	if w.reliable {
		perDir += v("errctl.segment_ns_per_msg") + v("errctl.reassemble_ns_per_msg") + v("errctl.ack_ns_per_msg") +
			float64(sh.sdus)*v("flowctl.admit_ns_per_sdu")
	}
	layersUS := perDir / 1e3
	if !w.oneWay {
		layersUS *= 2
	}
	if w.rpc {
		layersUS += v("rpc.self_us_per_call")
	}
	out["core.residual_us_per_op"] = metric{refT.p50 - layersUS, "us"}

	out["client.msgs_per_s"] = metric{refT.rate, "1/s"}
	out["client.goodput_MBps"] = metric{refT.rate * float64(w.size) / 1e6, "MB/s"}
	out["client.lat_p50_us"] = metric{refT.p50, "us"}
	out["client.lat_p99_us"] = metric{refT.p99, "us"}
	out["client.cpu_us_per_op"] = metric{refT.cpuPerOp, "us"}
	out["client.lat_mean_us"] = metric{ref.meanUS, "us"}
	out["client.window_spread_ratio"] = metric{spreadRatio(ref.percentiles(0.5)), "ratio"}
	out["trace.overhead_ratio"] = metric{ratio(readTimes(w, &tr).rate, refT.rate), "ratio"}
	out["trace.spans_total"] = metric{float64(sl.count()), "count"}

	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return runResult{}, err
	}
	if err := sl.write(filepath.Join(outDir, "trace-"+w.name+".json"), w.name, seed); err != nil {
		return runResult{}, err
	}

	res := runResult{Metrics: out}
	for _, r := range []loopResult{ref, one, tr} {
		res.Attempted += r.attempted
		res.Failed += r.failed
		if r.err != nil {
			fmt.Fprintln(logOut, "failure:", r.err)
		}
	}
	res.Correct = res.Failed == 0
	fmt.Fprintf(logOut, "%s traced: %d reference ops, %d one-CPU ops, %d traced ops, %d complete lifecycle traces, %d spans\n",
		w.name, ref.delivered, one.delivered, tr.delivered, len(stages[0]), sl.count())
	return res, nil
}
