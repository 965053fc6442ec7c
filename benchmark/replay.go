package main

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"time"

	"ncs"
	"ncs/internal/buf"
	"ncs/internal/errctl"
	"ncs/internal/flowctl"
	"ncs/internal/netsim"
	"ncs/internal/packet"
	"ncs/internal/transport"
	"ncs/internal/xdr"
)

// Layer replays: each layer's public functions driven alone, from
// outside, at the workload's message shape. They run for every
// workload, whether or not the layer is on its path; the prediction
// table in the README says where each one matters.

// shape is the message shape the replays run at.
type shape struct {
	size int           // message bytes
	sdus int           // SDUs per message at the default SDU size
	sdu  int           // payload bytes of a full (or the only) SDU
	link netsim.Params // the workload's simulated-link parameters
}

func shapeOf(w workload) shape {
	s := shape{size: w.size, sdus: (w.size + errctl.DefaultSDUSize - 1) / errctl.DefaultSDUSize, sdu: w.size, link: w.link}
	if s.sdu > errctl.DefaultSDUSize {
		s.sdu = errctl.DefaultSDUSize
	}
	return s
}

// timed runs fn n times and returns nanoseconds and heap allocations
// per iteration. The replay's span goes to sl under the given name.
func timed(sl *spanLog, name string, n int, fn func(i int)) (ns, allocs float64) {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	s0 := sl.now()
	t0 := time.Now()
	for i := 0; i < n; i++ {
		fn(i)
	}
	el := time.Since(t0)
	runtime.ReadMemStats(&m1)
	sl.add(0, "replay."+name, "", s0, sl.now())
	return float64(el) / float64(n), float64(m1.Mallocs-m0.Mallocs) / float64(n)
}

// iters scales a replay's iteration count down for large messages so
// every replay takes tens of milliseconds, not seconds.
func iters(base, sdus int) int {
	n := base / sdus
	if n < 200 {
		n = 200
	}
	return n
}

// replayErrctl drives selective repeat alone: segmentation, in-order
// reassembly from pooled buffers, and the final acknowledgment.
func replayErrctl(sh shape, seed int64, sl *spanLog, out map[string]metric) {
	msg := payloadBase(seed, sh.size)
	n := iters(20000, sh.sdus)

	var sdus []errctl.SDU
	segNS, segAllocs := timed(sl, "errctl.segment", n, func(i int) {
		sdus = errctl.NewSender(errctl.SelectiveRepeat, msg, errctl.DefaultSDUSize, 1, uint32(i+1)).Initial()
	})

	var ack packet.Control
	reNS, reAllocs := timed(sl, "errctl.reassemble", n, func(int) {
		r := errctl.NewReceiver(errctl.SelectiveRepeat)
		for _, s := range sdus {
			b := buf.GetCap(len(s.Payload))
			b.B = append(b.B, s.Payload...)
			acks, _ := r.OnData(s.Header, b.B, b)
			if len(acks) > 0 {
				ack = acks[0]
			}
			b.Release()
		}
		if len(r.Message()) != sh.size {
			panic("errctl replay: reassembled message has the wrong size")
		}
		errctl.Recycle(r)
	})

	senders := make([]errctl.Sender, n)
	for i := range senders {
		senders[i] = errctl.NewSender(errctl.SelectiveRepeat, msg, errctl.DefaultSDUSize, ack.ConnID, ack.SessionID)
	}
	ackNS, ackAllocs := timed(sl, "errctl.ack", n, func(i int) {
		if _, done, err := senders[i].OnAck(ack); err != nil || !done {
			panic(fmt.Sprintf("errctl replay: final ack did not complete the session: done=%v err=%v", done, err))
		}
	})

	out["errctl.segment_ns_per_msg"] = metric{segNS, "ns"}
	out["errctl.reassemble_ns_per_msg"] = metric{reNS, "ns"}
	out["errctl.ack_ns_per_msg"] = metric{ackNS, "ns"}
	out["errctl.allocs_per_msg"] = metric{segAllocs + reAllocs + ackAllocs, "count"}
}

// replayFlowctl drives one credit admission cycle alone: TryAcquire at
// the sender, OnData at the receiver, and OnControl for any grant.
func replayFlowctl(sl *spanLog, out map[string]metric) {
	snd := flowctl.NewSender(flowctl.Credit, flowctl.Config{})
	rcv := flowctl.NewReceiver(flowctl.Credit, flowctl.Config{})
	defer snd.Close()
	defer rcv.Close()
	ns, allocs := timed(sl, "flowctl.admit", 200000, func(i int) {
		seq := uint32(i)
		if !snd.TryAcquire(seq) {
			panic("flowctl replay: lock-step admission refused")
		}
		for _, ctl := range rcv.OnData(seq) {
			snd.OnControl(ctl)
		}
	})
	out["flowctl.admit_ns_per_sdu"] = metric{ns, "ns"}
	out["flowctl.allocs_per_sdu"] = metric{allocs, "count"}
}

// replayPacketBuf drives the SDU codec and the buffer pool alone.
func replayPacketBuf(sh shape, seed int64, sl *spanLog, out map[string]metric) {
	payload := payloadBase(seed, sh.sdu)
	h := packet.DataHeader{Flags: packet.FlagEnd, ConnID: 1, SessionID: 1, Length: uint32(len(payload))}
	dst := make([]byte, 0, packet.DataHeaderSize+len(payload))
	ns, _ := timed(sl, "packet.codec", 200000, func(i int) {
		h.Seq = uint32(i)
		dst = packet.AppendSDU(dst[:0], h, payload)
		if _, p, err := packet.SplitData(dst); err != nil || len(p) != len(payload) {
			panic("packet replay: round trip failed")
		}
	})
	out["packet.codec_ns_per_sdu"] = metric{ns, "ns"}

	ns, _ = timed(sl, "buf.get_release", 500000, func(int) {
		buf.GetCap(packet.DataHeaderSize + sh.sdu).Release()
	})
	out["buf.get_release_ns"] = metric{ns, "ns"}
}

// sendPacket stages one SDU-sized packet in a pooled buffer and hands
// it to the transport.
func sendPacket(c transport.Conn, n int) {
	b := buf.Get(n)
	if err := c.SendBuf(b); err != nil {
		panic(fmt.Sprintf("transport replay: send: %v", err))
	}
}

// replayHPI drives the in-process transport alone, then the simulated
// link alone with the workload's parameters.
func replayHPI(sh shape, sl *spanLog, out map[string]metric) {
	n := packet.DataHeaderSize + sh.sdu
	a, b := transport.HPIPair()
	ns, _ := timed(sl, "transport.hpi", 100000, func(int) {
		sendPacket(a, n)
		rb, err := b.RecvBuf()
		if err != nil {
			panic(fmt.Sprintf("hpi replay: recv: %v", err))
		}
		rb.Release()
	})
	a.Close()
	b.Close()
	out["transport.hpi.pkt_ns"] = metric{ns, "ns"}

	// The link may drop (lossy_echo) and may deliver from its own
	// goroutine, so wait for either the packet or the drop count.
	ea, eb := netsim.Pipe(sh.link, sh.link)
	ns, _ = timed(sl, "netsim", 20000, func(int) {
		dropped := ea.ImpairStats().Dropped
		if err := ea.SendBuf(buf.Get(n)); err != nil {
			panic(fmt.Sprintf("netsim replay: send: %v", err))
		}
		for {
			if rb, _ := eb.TryRecvBuf(); rb != nil {
				rb.Release()
				return
			}
			if ea.ImpairStats().Dropped > dropped {
				return
			}
			runtime.Gosched()
		}
	})
	ea.Close()
	eb.Close()
	out["netsim.pkt_ns"] = metric{ns, "ns"}
}

// replayUDP drives the raw UDP transport alone, with no core above it:
// a packet ping-pong for the round trip, then a one-way batched stream.
func replayUDP(sh shape, sl *spanLog, out map[string]metric) error {
	n := packet.DataHeaderSize + sh.sdu
	a, b, err := transport.UDPPair(nil)
	if err != nil {
		return fmt.Errorf("udp replay: %w", err)
	}
	defer a.Close()
	defer b.Close()
	hop := func(from, to transport.Conn) {
		sendPacket(from, n)
		rb, err := to.RecvBufTimeout(opTimeout)
		if err != nil {
			panic(fmt.Sprintf("udp replay: recv: %v", err))
		}
		rb.Release()
	}
	const pings = 3000
	rtts := make([]float64, 0, pings)
	timed(sl, "transport.udp.rtt", pings, func(int) {
		t0 := time.Now()
		hop(a, b)
		hop(b, a)
		rtts = append(rtts, float64(time.Since(t0))/1e3)
	})
	out["transport.udp.pkt_rtt_us"] = metric{median(rtts), "us"}

	// One-way stream in the send thread's batches of 16. Loopback can
	// drop under a flood, so the receiver counts what arrived and the
	// figure is per packet received.
	const batches, depth = 1500, 16
	var got int
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for got < batches*depth {
			rb, err := b.RecvBufTimeout(200 * time.Millisecond)
			if err != nil {
				return
			}
			rb.Release()
			got++
		}
	}()
	var elapsed time.Duration
	_, allocs := timed(sl, "transport.udp.stream", 1, func(int) {
		t0 := time.Now()
		bs := make([]*buf.Buffer, depth)
		for i := 0; i < batches; i++ {
			for j := range bs {
				bs[j] = buf.Get(n)
			}
			if err := a.SendBatch(bs); err != nil {
				panic(fmt.Sprintf("udp replay: send batch: %v", err))
			}
		}
		wg.Wait()
		elapsed = time.Since(t0)
	})
	if got == 0 {
		return fmt.Errorf("udp replay: stream delivered nothing")
	}
	out["transport.udp.stream_ns_per_pkt"] = metric{float64(elapsed) / float64(got), "ns"}
	out["transport.udp.allocs_per_pkt"] = metric{allocs / float64(got), "count"}
	return nil
}

// rpcReplay is what the RPC replay measured: the layer's own cost and,
// from its bare echo, the Send and Recv call times on a connection
// identical to rpc_fanin's.
type rpcReplay struct {
	sendUS, recvUS []float64 // bare echo: Send call and Recv wait, sorted
}

// replayRPC interleaves echo RPCs with bare Send/Recv echoes on two
// identical sharded HPI connections; the difference of the medians is
// what the rpc layer itself adds to a call.
func replayRPC(sh shape, seed int64, sl *spanLog, out map[string]metric) (rpcReplay, error) {
	var rr rpcReplay
	nw := ncs.NewNetwork()
	defer nw.Close()
	opts := ncs.Options{Interface: ncs.HPI, Runtime: ncs.RuntimeSharded}
	sa, err := nw.NewSystem("caller")
	if err != nil {
		return rr, err
	}
	sb, err := nw.NewSystem("echo")
	if err != nil {
		return rr, err
	}
	connect := func() (*ncs.Connection, *ncs.Connection, error) {
		conn, err := sa.Connect("echo", opts)
		if err != nil {
			return nil, nil, err
		}
		peer, err := sb.Accept()
		return conn, peer, err
	}
	rpcConn, rpcPeer, err := connect()
	if err != nil {
		return rr, err
	}
	bare, barePeer, err := connect()
	if err != nil {
		return rr, err
	}
	srv := ncs.NewServer(ncs.RPCServerOptions{})
	srv.Handle("echo", func(_ context.Context, req []byte) ([]byte, error) { return req, nil })
	srv.ServeConn(rpcPeer)
	cli := ncs.NewClient(rpcConn)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			m, err := barePeer.Recv()
			if err != nil || barePeer.Send(m) != nil {
				return
			}
		}
	}()
	defer func() {
		cli.Close()
		srv.Shutdown()
		bare.Close()
		barePeer.Close()
		wg.Wait()
	}()

	payload := payloadBase(seed, sh.size)
	n := iters(8000, sh.sdus)
	calls := make([]float64, 0, n)
	echoes := make([]float64, 0, n)
	var firstErr error
	timed(sl, "rpc", n, func(i int) {
		if firstErr != nil {
			return
		}
		id := uint64(i + 1)
		stamp(payload, seed, id)
		t0 := time.Now()
		reply, err := cli.Call(context.Background(), "echo", payload)
		t1 := time.Now()
		if err == nil {
			err = verify(reply, sh.size, seed, id)
		}
		if err == nil {
			err = bare.Send(payload)
		}
		t2 := time.Now()
		if err == nil {
			reply, err = bare.Recv()
		}
		t3 := time.Now()
		if err == nil {
			err = verify(reply, sh.size, seed, id)
		}
		if err != nil {
			firstErr = fmt.Errorf("rpc replay: %w", err)
			return
		}
		if i < n/10 {
			return // warm-up tenth
		}
		calls = append(calls, float64(t1.Sub(t0))/1e3)
		echoes = append(echoes, float64(t3.Sub(t1))/1e3)
		rr.sendUS = append(rr.sendUS, float64(t2.Sub(t1))/1e3)
		rr.recvUS = append(rr.recvUS, float64(t3.Sub(t2))/1e3)
	})
	if firstErr != nil {
		return rr, firstErr
	}
	rr.sendUS, rr.recvUS = sortedCopy(rr.sendUS), sortedCopy(rr.recvUS)
	out["rpc.self_us_per_call"] = metric{median(calls) - median(echoes), "us"}

	// The call and reply frames, encoded and decoded with the xdr
	// package's public functions in the field order rpc uses.
	enc := xdr.NewEncoder(sh.size + 64)
	ns, _ := timed(sl, "xdr.frame", 100000, func(i int) {
		for _, reply := range [2]bool{false, true} {
			enc.Reset()
			enc.PutUint32(1)
			enc.PutUint64(uint64(i))
			if reply {
				enc.PutUint32(0)
				enc.PutString("")
			} else {
				enc.PutString("echo")
				enc.PutUint64(0)
			}
			enc.PutOpaque(payload)
			d := xdr.NewDecoder(enc.Bytes())
			_, _ = d.Uint32()
			_, _ = d.Uint64()
			if reply {
				_, _ = d.Uint32()
				_, _ = d.String()
			} else {
				_, _ = d.String()
				_, _ = d.Uint64()
			}
			if p, err := d.Opaque(); err != nil || len(p) != len(payload) {
				panic("xdr replay: frame round trip failed")
			}
		}
	})
	out["xdr.frame_ns_per_call"] = metric{ns, "ns"}
	return rr, nil
}

// replayLayers runs every layer replay at the workload's shape.
func replayLayers(w workload, seed int64, sl *spanLog, out map[string]metric) (rpcReplay, error) {
	sh := shapeOf(w)
	replayErrctl(sh, seed, sl, out)
	replayFlowctl(sl, out)
	replayPacketBuf(sh, seed, sl, out)
	replayHPI(sh, sl, out)
	if err := replayUDP(sh, sl, out); err != nil {
		return rpcReplay{}, err
	}
	return replayRPC(sh, seed, sl, out)
}
