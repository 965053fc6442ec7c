package main

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"

	"ncs"
)

// bulkSize is bulk_udp's message: 64 default SDUs.
const bulkSize = 256 * 1024

// stampStride is the distance between payload stamps: one per default
// SDU, so a receiver that checks every stamp has seen every SDU in its
// place without checksumming the bulk bytes.
const stampStride = 4096

// spanEvery is the harness's span sampling: one operation in spanEvery
// records spans in the traced leg, matching the 1-in-16 sampling the
// lifecycle tracer is switched on with.
const spanEvery = 16

// opFunc performs one closed-loop operation for one caller: it sends
// the stamped payload and returns once the reply (or, one-way, the
// transfer's acknowledgment) has arrived and verified.
type opFunc func(id uint64, payload []byte, sl *spanLog) error

// workload is one named traffic shape. Names are stable: later issues
// cite them.
type workload struct {
	name string
	size int // application payload bytes per message
	// warm is the fixed warm-up operation count per caller. A count, not
	// a duration, so set-up work that a change moves into warm-up shows
	// in setup_s; sized to roughly a tenth of a second.
	warm int
	// link is the simulated link under the workload's data path (the
	// zero value: a clean one); the netsim replay runs with it.
	link ncs.LinkParams
	// What is on the workload's blocking path, for the residual: error
	// and flow control, the UDP transport, the rpc layer; and whether a
	// message is echoed back or only acknowledged.
	reliable, udp, rpc, oneWay bool
	// patterned says the workload's windows differ by design (a fixed
	// loss pattern puts different losses in different windows), so its
	// throughput and tail latency are read whole-run, not by window.
	patterned bool
	// build sets the systems and connections up and returns them ready
	// for traffic. The spans of the echo side go to sl (nil untraced).
	build func(seed int64, sl *spanLog) (*instance, error)
}

// instance is one built workload.
type instance struct {
	nw    *ncs.Network
	ops   []opFunc          // one per caller
	conns []*ncs.Connection // every endpoint: stats, audit
	// delivered counts messages the one-way receiver verified; nil on
	// echo workloads, where the caller verifies its own reply.
	delivered *atomic.Int64
	recvErr   atomic.Pointer[error] // first failure on the echo side
	stop      func()                // teardown; waits for the echo side
}

func (in *instance) fail(err error) { in.recvErr.CompareAndSwap(nil, &err) }

// sideErr reports the echo side's first failure, if any.
func (in *instance) sideErr() error {
	if p := in.recvErr.Load(); p != nil {
		return *p
	}
	return nil
}

var workloads = []workload{
	{
		// 1 caller, 64 B echo: core's per-message goroutine hand-offs
		// dominate.
		name:     "rtt_small",
		warm:     6000,
		size:     64,
		reliable: true,
		build: func(seed int64, sl *spanLog) (*instance, error) {
			return buildEcho(ncs.Options{
				Interface:    ncs.HPI,
				Runtime:      ncs.RuntimeThreaded,
				ErrorControl: ncs.ErrorSelectiveRepeat,
				FlowControl:  ncs.FlowCredit,
			}, seed, sl)
		},
	},
	{
		// 2 callers through one Inbox: rpc, xdr, the shard loop;
		// bypasses errctl and flowctl.
		name:  "rpc_fanin",
		warm:  6000,
		size:  1024,
		rpc:   true,
		build: buildRPCFanin,
	},
	{
		// 1 sender, 64-SDU one-way messages over loopback sockets: errctl,
		// flowctl, buf and udp batching in the throughput regime.
		name:     "bulk_udp",
		warm:     200,
		size:     bulkSize,
		reliable: true,
		udp:      true,
		oneWay:   true,
		build:    buildBulkUDP,
	},
	{
		// 1 caller, 4-SDU echo over a lossy link on the fast path: error
		// recovery policy and fast-path timers.
		name:      "lossy_echo",
		warm:      100,
		link:      lossyLink,
		size:      16 * 1024,
		reliable:  true,
		patterned: true,
		build: func(seed int64, sl *spanLog) (*instance, error) {
			return buildEcho(ncs.Options{
				Interface:       ncs.HPI,
				HPILink:         &lossyLink,
				FastPath:        true,
				ErrorControl:    ncs.ErrorSelectiveRepeat,
				FlowControl:     ncs.FlowCredit,
				AdaptiveTimeout: true,
			}, seed, sl)
		},
	},
}

// lossyLink is lossy_echo's data link: independent 2 % packet loss in
// each direction, drawn from netsim's default seed rather than from
// -seed. A 30 s run sees only ~150 retransmission timeouts, so a
// per-seed loss pattern alone moves throughput by ±20 % from seed to
// seed; with the pattern fixed, runs of the same code replay the same
// losses and -seed still drives every payload.
var lossyLink = ncs.LinkParams{LossRate: 0.02}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// payloadBase is the seed-derived filler every payload starts from.
func payloadBase(seed int64, size int) []byte {
	p := make([]byte, size)
	rand.New(rand.NewSource(seed)).Read(p)
	return p
}

// tag is the check value stamped beside the operation id at offset off:
// a splitmix64 round over (seed, id, off), so a segment from another
// message, another offset or another run cannot pass.
func tag(seed int64, id uint64, off int) uint64 {
	z := uint64(seed) ^ id*0x9e3779b97f4a7c15 ^ uint64(off)<<32
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	return z ^ z>>31
}

// stamp writes the operation id and its tag at every stampStride
// offset of p that has room for both.
func stamp(p []byte, seed int64, id uint64) {
	for off := 0; off+16 <= len(p); off += stampStride {
		binary.BigEndian.PutUint64(p[off:], id)
		binary.BigEndian.PutUint64(p[off+8:], tag(seed, id, off))
	}
}

var errPayload = errors.New("payload check failed")

// verify checks that p is the size-byte payload stamped with id.
func verify(p []byte, size int, seed int64, id uint64) error {
	if len(p) != size {
		return fmt.Errorf("%w: %d bytes, want %d", errPayload, len(p), size)
	}
	for off := 0; off+16 <= len(p); off += stampStride {
		if got := binary.BigEndian.Uint64(p[off:]); got != id {
			return fmt.Errorf("%w: op %#x at offset %d, want %#x", errPayload, got, off, id)
		}
		if binary.BigEndian.Uint64(p[off+8:]) != tag(seed, id, off) {
			return fmt.Errorf("%w: tag at offset %d of op %#x", errPayload, off, id)
		}
	}
	return nil
}

// opID reads the operation id a payload carries (0 if too short).
func opID(p []byte) uint64 {
	if len(p) < 8 {
		return 0
	}
	return binary.BigEndian.Uint64(p)
}

func sampled(sl *spanLog, id uint64) bool { return sl != nil && id%spanEvery == 0 }

// pair builds a two-system network with one connection between them.
func pair(opts ncs.Options) (*instance, *ncs.Connection, *ncs.Connection, error) {
	nw := ncs.NewNetwork()
	conn, peer, err := ncs.Pair(nw, "caller", "echo", opts)
	if err != nil {
		nw.Close()
		return nil, nil, nil, err
	}
	in := &instance{nw: nw, conns: []*ncs.Connection{conn, peer}}
	return in, conn, peer, nil
}

// echoOp is the caller side of a Send/Recv echo on conn.
func echoOp(conn *ncs.Connection, seed int64) opFunc {
	return func(id uint64, payload []byte, sl *spanLog) error {
		rec := sampled(sl, id)
		now := sl.clock(rec)
		t0 := now()
		if err := conn.Send(payload); err != nil {
			return fmt.Errorf("send: %w", err)
		}
		t1 := now()
		reply, err := conn.Recv()
		if err != nil {
			return fmt.Errorf("recv: %w", err)
		}
		if rec {
			t2 := now()
			sl.add(id, "client.send", "op", t0, t1)
			sl.add(id, "client.recv", "op", t1, t2)
		}
		return verify(reply, len(payload), seed, id)
	}
}

// serveEcho is the echo side: it returns every message on the
// connection it arrived on, checking that operation ids arrive in
// order and exactly once. It ends when the connection closes.
func serveEcho(in *instance, peer *ncs.Connection, sl *spanLog) {
	var last uint64
	for {
		t0 := sl.now()
		m, err := peer.Recv()
		if err != nil {
			return
		}
		t1 := sl.now()
		id := opID(m)
		if id <= last {
			in.fail(fmt.Errorf("echo side: op %#x after %#x (out of order or duplicate)", id, last))
		}
		last = id
		if err := peer.Send(m); err != nil {
			return
		}
		if sampled(sl, id) {
			sl.add(id, "server.recv", "op", t0, t1)
			sl.add(id, "server.send", "op", t1, sl.now())
		}
	}
}

// buildEcho is the one-caller Send/Recv echo shape shared by rtt_small
// and lossy_echo.
func buildEcho(opts ncs.Options, seed int64, sl *spanLog) (*instance, error) {
	in, conn, peer, err := pair(opts)
	if err != nil {
		return nil, err
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		serveEcho(in, peer, sl)
	}()
	in.ops = []opFunc{echoOp(conn, seed)}
	in.stop = func() {
		conn.Close()
		peer.Close()
		wg.Wait()
		in.nw.Close()
	}
	return in, nil
}

func buildBulkUDP(seed int64, sl *spanLog) (*instance, error) {
	in, conn, peer, err := pair(ncs.Options{Interface: ncs.UDP})
	if err != nil {
		return nil, err
	}
	in.delivered = new(atomic.Int64)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		var last uint64
		for {
			t0 := sl.now()
			m, err := peer.Recv()
			if err != nil {
				return
			}
			id := opID(m)
			if id != last+1 {
				in.fail(fmt.Errorf("receiver: op %#x after %#x (lost, reordered or duplicated)", id, last))
			}
			last = id
			if err := verify(m, bulkSize, seed, id); err != nil {
				in.fail(fmt.Errorf("receiver: %w", err))
				continue
			}
			in.delivered.Add(1)
			if sampled(sl, id) {
				sl.add(id, "server.recv", "op", t0, sl.now())
			}
		}
	}()
	in.ops = []opFunc{func(id uint64, payload []byte, sl *spanLog) error {
		now := sl.clock(sampled(sl, id))
		t0 := now()
		if err := conn.Send(payload); err != nil {
			return fmt.Errorf("send: %w", err)
		}
		if sampled(sl, id) {
			sl.add(id, "client.send", "op", t0, now())
		}
		return nil
	}}
	in.stop = func() {
		conn.Close()
		peer.Close()
		wg.Wait()
		in.nw.Close()
	}
	return in, nil
}

// buildRPCFanin is two callers, one sharded connection each, both
// bound to one Inbox that one RPC server serves: the fan-in shape the
// sharded runtime and ServeInbox exist for.
func buildRPCFanin(seed int64, sl *spanLog) (*instance, error) {
	const callers = 2
	nw := ncs.NewNetwork()
	in := &instance{nw: nw}
	fail := func(err error) (*instance, error) {
		nw.Close()
		return nil, err
	}
	sa, err := nw.NewSystem("caller")
	if err != nil {
		return fail(err)
	}
	sb, err := nw.NewSystem("echo")
	if err != nil {
		return fail(err)
	}
	srv := ncs.NewServer(ncs.RPCServerOptions{})
	srv.Handle("echo", func(_ context.Context, req []byte) ([]byte, error) {
		if id := opID(req); sampled(sl, id) {
			t := sl.now()
			sl.add(id, "server.handle", "op", t, t)
		}
		return req, nil
	})
	ib := ncs.NewInbox(0)
	srv.ServeInbox(ib)

	opts := ncs.Options{Interface: ncs.HPI, Runtime: ncs.RuntimeSharded}
	clients := make([]*ncs.RPCClient, callers)
	for i := range clients {
		conn, err := sa.Connect("echo", opts)
		if err != nil {
			return fail(err)
		}
		peer, err := sb.Accept()
		if err != nil {
			return fail(err)
		}
		if err := peer.BindInbox(ib); err != nil {
			return fail(err)
		}
		in.conns = append(in.conns, conn, peer)
		cli := ncs.NewClient(conn)
		clients[i] = cli
		in.ops = append(in.ops, func(id uint64, payload []byte, sl *spanLog) error {
			now := sl.clock(sampled(sl, id))
			t0 := now()
			reply, err := cli.Call(context.Background(), "echo", payload)
			if err != nil {
				return fmt.Errorf("call: %w", err)
			}
			if sampled(sl, id) {
				sl.add(id, "client.call", "op", t0, now())
			}
			return verify(reply, len(payload), seed, id)
		})
	}
	in.stop = func() {
		for _, cli := range clients {
			cli.Close()
		}
		srv.Shutdown()
		ib.Close()
		nw.Close()
	}
	return in, nil
}
