package core

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ncs/internal/buf"
	"ncs/internal/errctl"
	"ncs/internal/flowctl"
	"ncs/internal/netsim"
	"ncs/internal/packet"
	"ncs/internal/telemetry"
	"ncs/internal/transport"
)

// allRuntimes selects each of the three runtimes on a connection's
// options.
var allRuntimes = []struct {
	name string
	set  func(*Options)
}{
	{"threaded", func(o *Options) {}},
	{"sharded", func(o *Options) { o.Runtime = RuntimeSharded }},
	{"fastpath", func(o *Options) { o.FastPath = true }},
}

// TestLostLastAckIsAnswered: a reliable Send whose last acknowledgment
// was lost returns once a retransmission is acknowledged again, on every
// runtime, though the application at the far end reads nothing more —
// whether anything reads a wire must not depend on the application
// calling in. The peer's outgoing data wire, which carries its acks
// (in-band control), is partitioned while it receives one 100 B message
// and healed 50 ms later; from then on only the peer's pump of last
// resort reads the retransmissions.
func TestLostLastAckIsAnswered(t *testing.T) {
	for _, rt := range allRuntimes {
		t.Run(rt.name, func(t *testing.T) {
			opts := Options{
				Interface:     transport.HPI,
				ErrorControl:  errctl.SelectiveRepeat,
				InbandControl: true,
				AckTimeout:    5 * time.Millisecond,
			}
			rt.set(&opts)
			conn, peer, cleanup := newPairT(t, opts)
			defer cleanup()
			if !peer.ImpairData(netsim.Impairments{Partitioned: true}) {
				t.Fatal("no simulated link to partition")
			}
			start := time.Now()
			sent := make(chan error, 1)
			go func() { sent <- conn.Send(make([]byte, 100)) }()
			if _, err := peer.RecvTimeout(5 * time.Second); err != nil {
				t.Fatal(err)
			}
			time.Sleep(50 * time.Millisecond)
			peer.ImpairData(netsim.Impairments{})
			select {
			case err := <-sent:
				if err != nil {
					t.Fatalf("Send: %v", err)
				}
				t.Logf("Send returned %v after the start, %d retransmissions", time.Since(start).Round(time.Millisecond), conn.Stats().Retransmissions)
			case <-time.After(20 * time.Second):
				t.Fatalf("Send had not returned 20 s after the link healed: %d retransmissions, none acknowledged", conn.Stats().Retransmissions)
			}
		})
	}
}

// TestOneEngineAcrossRuntimes runs one seeded message schedule through
// every runtime × lane × error-control scheme and holds each cell to
// the same outcome and the same books: the send engine, the receive
// path and the session table are shared, so nothing may depend on who
// runs them. Reliable cells cross a link that loses, duplicates and
// reorders data packets; None recovers nothing by definition, so its
// cells keep the link's delay but not its impairments — the assertions
// are the same. The last lane is three streams sending 64-SDU messages
// at once under a credit window of 2: each send outgrows both the
// window (below sendBatchMax) and the streams' shared send slots
// (streamSendSlots), so a sender that waited for a credit or a slot with
// its own SDUs still queued, unwritten, would stall — its cell must
// complete inside the same deadlines.
func TestOneEngineAcrossRuntimes(t *testing.T) {
	const sduSize = 256
	for _, rt := range allRuntimes {
		for _, lane := range []struct {
			name    string
			streams int    // senders, one stream each; 0: one sender on lane 0
			msgs    int    // per sender
			sdus    int    // per message: 1–8 drawn from the seed, or exactly this many
			window  uint32 // the credit window; 0: flow control's default
		}{
			{"lane0", 0, 200, 0, 0},
			{"stream", 1, 200, 0, 0},
			{"3streams-window2", 3, 4, 64, 2},
		} {
			for _, ec := range []errctl.Algorithm{errctl.SelectiveRepeat, errctl.GoBackN, errctl.None} {
				t.Run(fmt.Sprintf("%s/%s/%v", rt.name, lane.name, ec), func(t *testing.T) {
					link := &netsim.Params{Delay: 100 * time.Microsecond, Seed: 11}
					if ec != errctl.None {
						link.LossRate = 0.04
						link.Impair = netsim.Impairments{DupRate: 0.2, ReorderRate: 0.1, ReorderJitter: 300 * time.Microsecond}
					}
					opts := Options{
						Interface:    transport.HPI,
						ErrorControl: ec,
						FlowControl:  flowctl.Credit,
						FlowConfig:   flowctl.Config{InitialCredits: int(lane.window), MaxCredits: int(lane.window)},
						SDUSize:      sduSize,
						AckTimeout:   5 * time.Millisecond,
						HPILink:      link,
					}
					rt.set(&opts)
					buffersBefore := buf.Outstanding()
					booksBefore := telemetry.Capture()
					conn, peer, cleanup := newPairT(t, opts)

					// 1–8 SDUs per message, the same sizes in every cell.
					rng := rand.New(rand.NewSource(42))
					sizes := make([]int, lane.msgs)
					wantSDUs := 0
					for i := range sizes {
						sizes[i] = 5 + rng.Intn(8*sduSize-4) // reuseMsg's header is 5 bytes
						if lane.sdus > 0 {
							sizes[i] = lane.sdus * sduSize
						}
						wantSDUs += (sizes[i] + sduSize - 1) / sduSize
					}
					senders := max(lane.streams, 1)
					msgs := senders * lane.msgs
					wantSDUs *= senders
					sends := []func([]byte) error{conn.Send}
					for s := 0; s < lane.streams; s++ {
						out, err := conn.OpenStream()
						if err != nil {
							t.Fatal(err)
						}
						sends = append(sends[:s], out.Send)
					}
					errs := make(chan error, 2*senders)
					for s, send := range sends {
						go func() {
							for seq, n := range sizes {
								if err := send(reuseMsg(byte(s), uint32(seq), n)); err != nil {
									errs <- fmt.Errorf("sender %d, send %d: %w", s, seq, err)
									return
								}
							}
							errs <- nil
						}()
					}
					recvs := []func(time.Duration) ([]byte, error){peer.RecvTimeout}
					for s := 0; s < lane.streams; s++ {
						// After the senders started: a fast-path accept
						// materialises from the stream's first data frame.
						in, err := peer.AcceptStreamTimeout(10 * time.Second)
						if err != nil {
							t.Fatal(err)
						}
						recvs = append(recvs[:s], in.RecvTimeout)
					}
					// Each lane carries one sender's schedule, in order.
					for _, recv := range recvs {
						go func() {
							var from byte
							for seq := range sizes {
								m, err := recv(20 * time.Second)
								if err == nil && seq == 0 && len(m) > 0 {
									from = m[0]
								}
								if err == nil {
									err = checkReuseMsg(m, from, uint32(seq))
								}
								if err != nil {
									errs <- fmt.Errorf("recv %d: %w", seq, err)
									return
								}
							}
							errs <- nil
						}()
					}
					for range 2 * senders {
						if err := <-errs; err != nil {
							t.Fatal(err)
						}
					}
					for _, recv := range recvs {
						if _, err := recv(20 * time.Millisecond); err == nil {
							t.Fatal("a message was delivered twice")
						}
					}

					s, p := conn.Stats(), peer.Stats()
					if got := s.SDUsSent - s.Retransmissions; got != uint64(wantSDUs) {
						t.Errorf("SDUsSent − Retransmissions = %d − %d = %d, want the %d SDUs of the schedule",
							s.SDUsSent, s.Retransmissions, got, wantSDUs)
					}
					if s.MessagesSent != uint64(msgs) || p.MessagesReceived != uint64(msgs) {
						t.Errorf("MessagesSent = %d, peer MessagesReceived = %d, want %d each", s.MessagesSent, p.MessagesReceived, msgs)
					}
					// One book, two process-wide readers: what /debug/ncs/conns
					// prints for the two ends sums to what core.conn.* moved by
					// (a duplicate may still be landing, so between a capture
					// before and one after), and closing them moves no total
					// backwards and loses nothing.
					lo := connTotalsSince(booksBefore)
					rows := rowTotals(conn.ID())
					hi := connTotalsSince(booksBefore)
					for i, name := range connTotalNames {
						if rows[i] < lo[i] || rows[i] > hi[i] {
							t.Errorf("%s: the connection's rows sum to %d, the counter moved by %d…%d", name, rows[i], lo[i], hi[i])
						}
					}
					cleanup()
					closed := telemetry.Capture().Delta(booksBefore)
					final := statTotals(conn.Stats(), peer.Stats())
					for i, name := range connTotalNames {
						if got := closed.Counters[name]; got != final[i] || got < hi[i] {
							t.Errorf("%s moved by %d once both ends closed: their Stats sum to %d, and it read %d while they lived", name, got, final[i], hi[i])
						}
					}
					if got := closed.Counters["errctl.recv.direct_total"] + closed.Counters["errctl.recv.session_total"]; got != final[3] {
						t.Errorf("errctl delivered %d messages, core.conn.recv_msgs_total counts %d", got, final[3])
					}
					awaitBuffers(t, buffersBefore)
				})
			}
		}
	}
}

// TestOneReceiveEndAcrossRuntimes holds every receive end — each
// runtime's default lane, stream and Inbox — to the same outcome under
// the same abuse: the consumer starts only after the sender has pushed
// everything it can (far past the default lane's depth, or a stream's
// whole credit window), through both receive variants. Delivery is exactly-once and
// in order, the lane withholds its grant once at depth and then holds no
// more than the depth, the window granted before it and the message that
// granted it, plus what the stalled sender's resynchronisation repairs
// (repairs); backpressure stops only the connection it belongs to —
// a second connection on the same shard keeps flowing — and a closed cell
// leaves no withheld grant, pooled buffer or goroutine behind.
func TestOneReceiveEndAcrossRuntimes(t *testing.T) {
	const window, inboxDepth = 64, 16
	for _, rt := range allRuntimes {
		for _, lane := range []string{"lane0", "stream", "inbox"} {
			for _, variant := range []string{"Recv", "RecvTimeout"} {
				t.Run(rt.name+"/"+lane+"/"+variant, func(t *testing.T) {
					goroutines := runtime.NumGoroutine()
					opts := Options{
						Interface:  transport.HPI,
						FlowConfig: flowctl.Config{InitialCredits: window, MaxCredits: window},
					}
					rt.set(&opts)
					nw := NewNetwork()
					defer nw.Close()
					a, _ := nw.NewSystem("recv-a")
					b, _ := nw.NewSystem("recv-b")
					a.SetShards(1) // both connections on one shard
					b.SetShards(1)
					connect := func() (*Connection, *Connection) {
						c, err := a.Connect("recv-b", opts)
						if err != nil {
							t.Fatal(err)
						}
						p, err := b.AcceptTimeout(5 * time.Second)
						if err != nil {
							t.Fatal(err)
						}
						return c, p
					}
					conn, peer := connect()
					other, otherPeer := connect()

					msgs := deliveredQueueDepth + 200
					send := conn.Send
					var ib *Inbox
					switch lane {
					case "stream":
						msgs = window
						out, err := conn.OpenStream()
						if err != nil {
							t.Fatal(err)
						}
						send = out.Send
					case "inbox":
						ib = NewInbox(inboxDepth)
						defer ib.Close()
						if err := peer.BindInbox(ib); err != nil {
							t.Fatal(err)
						}
					}
					sent := make(chan error, 1)
					go func() {
						for i := 0; i < msgs; i++ {
							if err := send(reuseMsg(0, uint32(i), 16)); err != nil {
								sent <- fmt.Errorf("send %d with no consumer: %w", i, err)
								return
							}
						}
						sent <- nil
					}()

					// Let the backlog build as far as the peer's credit lets it.
					if lane == "stream" {
						awaitCond(t, "the stream's window never arrived", func() bool { return peer.Stats().MessagesReceived == window })
					} else {
						awaitCond(t, "the lane never withheld its grant", func() bool { return withheld(peer) })
						queued, depth := peer.box.Len(), deliveredQueueDepth
						if lane == "inbox" {
							queued, depth = ib.box.Len(), inboxDepth
						}
						r := repairs(peer.opts.AckTimeout)
						if queued < depth || queued > depth+window+1+r {
							t.Fatalf("withheld with %d messages queued, want %d to %d (the depth, a window, one more and %d repairs)",
								queued, depth, depth+window+1+r, r)
						}
						awaitCond(t, "core.shard.parked_conns never counted the withholding connection", func() bool { return mParkedConns.Value() == 1 })
					}
					go other.Send([]byte("still flowing"))
					if m, err := otherPeer.RecvTimeout(5 * time.Second); err != nil || string(m) != "still flowing" {
						t.Fatalf("a second connection on the same shard: %q, %v", m, err)
					}

					// The late consumer.
					timed := variant == "RecvTimeout"
					recv := func(d time.Duration) ([]byte, error) {
						if timed {
							return peer.RecvTimeout(d)
						}
						return peer.Recv()
					}
					switch lane {
					case "stream":
						in, err := peer.AcceptStreamTimeout(5 * time.Second)
						if err != nil {
							t.Fatal(err)
						}
						recv = func(d time.Duration) ([]byte, error) {
							if timed {
								return in.RecvTimeout(d)
							}
							return in.Recv()
						}
					case "inbox":
						recv = func(d time.Duration) ([]byte, error) {
							recv := ib.Recv
							if timed {
								recv = func() (InboxMessage, error) { return ib.RecvTimeout(d) }
							}
							im, err := recv()
							if err == nil && im.Conn != peer {
								err = fmt.Errorf("delivery attributed to connection %d, want %d", im.Conn.ID(), peer.ID())
							}
							return im.Msg.Bytes(), err
						}
					}
					for i := 0; i < msgs; i++ {
						m, err := recv(10 * time.Second)
						if err != nil {
							t.Fatalf("recv %d of %d: %v", i, msgs, err)
						}
						if err := checkReuseMsg(m, 0, uint32(i)); err != nil {
							t.Fatalf("recv %d: %v", i, err)
						}
					}
					if err := <-sent; err != nil {
						t.Fatal(err)
					}
					timed = true
					if m, err := recv(20 * time.Millisecond); !errors.Is(err, ErrRecvTimeout) {
						t.Fatalf("after the last message: %q, %v; want ErrRecvTimeout", m, err)
					}
					awaitCond(t, "core.shard.parked_conns did not return to 0", func() bool { return mParkedConns.Value() == 0 })

					nw.Close()
					if err := awaitQuiescence(goroutines, 5*time.Second); err != nil {
						t.Fatal(err)
					}
				})
			}
		}
	}

	// The fast path's receivers take turns being the pump. A default-lane
	// receiver and a stream receiver pumping concurrently each read the
	// other's messages off the wire; none may be stranded in a mailbox
	// when the pump changes hands.
	t.Run("fastpath/handoff", func(t *testing.T) {
		const msgs = 2000
		conn, peer, cleanup := newPairT(t, Options{Interface: transport.HPI, FastPath: true})
		defer cleanup()
		out, err := conn.OpenStream()
		if err != nil {
			t.Fatal(err)
		}
		errs := make(chan error, 4)
		sender := func(id byte, send func([]byte) error) {
			for i := 0; i < msgs; i++ {
				if err := send(reuseMsg(id, uint32(i), 64)); err != nil {
					errs <- fmt.Errorf("sender %d, message %d: %w", id, i, err)
					return
				}
			}
			errs <- nil
		}
		receiver := func(id byte, recv func(time.Duration) ([]byte, error)) {
			for i := 0; i < msgs; i++ {
				m, err := recv(10 * time.Second)
				if err == nil {
					err = checkReuseMsg(m, id, uint32(i))
				}
				if err != nil {
					errs <- fmt.Errorf("receiver %d, message %d: %w", id, i, err)
					return
				}
			}
			errs <- nil
		}
		go sender(0, conn.Send)
		go sender(1, out.Send)
		go receiver(0, peer.RecvTimeout)
		go func() {
			in, err := peer.AcceptStreamTimeout(10 * time.Second)
			if err != nil {
				errs <- fmt.Errorf("accept: %w", err)
				return
			}
			receiver(1, in.RecvTimeout)
		}()
		for i := 0; i < 4; i++ {
			if err := <-errs; err != nil {
				t.Error(err)
			}
		}
	})
}

// TestInlineWritesNeverOvertake holds every write to its one rule: a
// packet leaves only from its wire's queue, in the order it was pushed,
// whichever goroutine writes it. Concurrent senders mix one-SDU
// messages, which their senders usually write themselves, with
// three-SDU ones, which wait in the queue for their last SDU's flush;
// an unreliable message's Send returns once its last SDU left, so a
// sender's next message must find the previous one's SDUs written, not
// queued behind it. Over a clean FIFO link with no error control, every
// message then arrives exactly once and each sender's in order — on
// every runtime, lane 0 and streams alike. The sender's transports are
// a wireWitness, which holds every write to what the order relies on:
// the writer holds the wire's owner, and nothing still in the queue was
// pushed before what it writes.
// (Lane 0's 60
// three-SDU messages stay below errctl.MaxTrackedSessions: its session
// table ages out the oldest session, assuming one sender per channel, so
// a sender descheduled between two SDUs could otherwise lose a session
// to its siblings' — a limit of concurrent unreliable senders on one
// lane, not of the wire.)
func TestInlineWritesNeverOvertake(t *testing.T) {
	const senders, msgs, sduSize = 4, 45, 256
	size := func(seq int) int {
		if seq%3 == 0 {
			return 5 + 2*sduSize // three SDUs, whatever the header takes
		}
		return 5 + seq%100
	}
	for _, rt := range heartbeatRuntimes {
		for _, lane := range []string{"lane0", "stream"} {
			t.Run(rt.name+"/"+lane, func(t *testing.T) {
				opts := Options{Interface: transport.HPI, ErrorControl: errctl.None, FlowControl: flowctl.None, SDUSize: sduSize}
				rt.set(&opts)
				buffersBefore := buf.Outstanding()
				conn, peer, witnessed, cleanup := newWitnessedPair(t, opts.withDefaults())
				defer cleanup()

				// Lane 0 carries every sender; a stream carries one.
				sends := make([]func([]byte) error, senders)
				recvs := []func(time.Duration) ([]byte, error){peer.RecvTimeout}
				for s := range sends {
					sends[s] = conn.Send
					if lane == "stream" {
						out, err := conn.OpenStream()
						if err != nil {
							t.Fatal(err)
						}
						in, err := peer.AcceptStreamTimeout(10 * time.Second)
						if err != nil {
							t.Fatal(err)
						}
						sends[s], recvs = out.Send, append(recvs[:s], in.RecvTimeout)
					}
				}
				errs := make(chan error, senders+len(recvs))
				for s, send := range sends {
					go func() {
						for seq := range msgs {
							if err := send(reuseMsg(byte(s), uint32(seq), size(seq))); err != nil {
								errs <- fmt.Errorf("sender %d, message %d: %w", s, seq, err)
								return
							}
						}
						errs <- nil
					}()
				}
				for _, recv := range recvs {
					go func() {
						next := make([]uint32, senders)
						for range senders * msgs / len(recvs) {
							m, err := recv(10 * time.Second)
							if err == nil && int(m[0]) >= senders {
								err = fmt.Errorf("a message from sender %d", m[0])
							}
							if err == nil {
								err = checkReuseMsg(m, m[0], next[m[0]])
							}
							if err != nil {
								errs <- fmt.Errorf("after %v messages per sender: %w", next, err)
								return
							}
							next[m[0]]++
						}
						errs <- nil
					}()
				}
				for range senders + len(recvs) {
					if err := <-errs; err != nil {
						t.Fatal(err)
					}
				}
				for _, recv := range recvs {
					if _, err := recv(20 * time.Millisecond); err == nil {
						t.Fatal("a message was delivered twice")
					}
				}
				if err := witnessed(); err != nil {
					t.Fatal(err)
				}
				cleanup()
				awaitBuffers(t, buffersBefore)
			})
		}
	}
}

// wireWitness is one of a connection's transports, holding each write
// to what the order of a wire relies on: its writer holds the wire's
// owner, and no SDU still in the wire's queue precedes, in its message,
// one being written. The first breach is kept.
type wireWitness struct {
	transport.Conn
	w      atomic.Pointer[wire]
	breach atomic.Pointer[error]
}

// check judges one write.
func (ww *wireWitness) check(bs []*buf.Buffer) {
	w := ww.w.Load()
	var err error
	if w.mu.TryLock() {
		w.mu.Unlock()
		err = fmt.Errorf("a write of %d packets without the wire's owner", len(bs))
	}
	q := w.queue()
	q.mu.Lock()
	for _, b := range bs {
		h, _, perr := packet.SplitData(b.B)
		if perr != nil {
			continue // a control packet
		}
		for _, it := range q.items {
			if q := it.sdu.Header; it.ctrl == nil && q.StreamID == h.StreamID && q.SessionID == h.SessionID && q.Seq < h.Seq {
				err = fmt.Errorf("SDU %d of session %d on stream %d written while its SDU %d was still queued", h.Seq, h.SessionID, h.StreamID, q.Seq)
			}
		}
	}
	q.mu.Unlock()
	if err != nil {
		ww.breach.CompareAndSwap(nil, &err)
	}
}

func (ww *wireWitness) SendBuf(b *buf.Buffer) error {
	ww.check([]*buf.Buffer{b})
	return ww.Conn.SendBuf(b)
}

func (ww *wireWitness) SendBatch(bs []*buf.Buffer) error {
	ww.check(bs)
	return ww.Conn.SendBatch(bs)
}

// newWitnessedPair is newPairT over HPI with the client's two
// transports watched by wireWitnesses; witnessed reports their first
// breach.
func newWitnessedPair(t *testing.T, opts Options) (conn, peer *Connection, witnessed func() error, cleanup func()) {
	t.Helper()
	nw := NewNetwork()
	sysA, err := nw.NewSystem("witnessed")
	if err != nil {
		t.Fatal(err)
	}
	sysB, err := nw.NewSystem("peer")
	if err != nil {
		t.Fatal(err)
	}
	data, pdata := transport.HPIPair()
	ctrl, pctrl := transport.HPIPair()
	wd := &wireWitness{Conn: data}
	wc := &wireWitness{Conn: ctrl}
	conn = newConnection(sysA, "peer", 1, opts, wd, wc, true)
	wd.w.Store(&conn.dataW)
	wc.w.Store(&conn.ctrlW)
	peer = newConnection(sysB, "witnessed", 1, opts, pdata, pctrl, false)
	witnessed = func() error {
		for _, ww := range []*wireWitness{wd, wc} {
			if err := ww.breach.Load(); err != nil {
				return *err
			}
		}
		return nil
	}
	return conn, peer, witnessed, nw.Close
}

// hbUnit is the heartbeat interval of the tests that drive the liveness
// sweep themselves: so long that the System's own timer never fires
// within a test, so every sweep is one the test calls, at a time the
// test makes up. Only the ratios between intervals matter.
const hbUnit = time.Hour

// heartbeatRuntimes are the three shapes the one sweep serves.
var heartbeatRuntimes = []struct {
	name string
	set  func(*Options)
}{
	{"threaded", func(o *Options) {}},
	{"threaded-inband", func(o *Options) { o.InbandControl = true }},
	{"sharded", func(o *Options) { o.Runtime = RuntimeSharded }},
}

// testPeer is a connection whose peer is the test: the far ends of its
// transports are raw, silent unless the test speaks on them.
type testPeer struct {
	*Connection
	ctl transport.Conn // where the connection's control packets surface
}

func newTestPeer(t *testing.T, sys *System, id uint32, opts Options) testPeer {
	t.Helper()
	data, rawData := transport.HPIPair()
	ctrl, rawCtrl := transport.HPIPair()
	t.Cleanup(func() { rawData.Close(); rawCtrl.Close() })
	p := testPeer{Connection: newConnection(sys, "the-test", id, opts.withDefaults(), data, ctrl, true), ctl: rawCtrl}
	if opts.InbandControl {
		p.ctl = rawData
	}
	return p
}

// next reads the connection's next control packet off the raw end.
func (p testPeer) next(t *testing.T) packet.Control {
	t.Helper()
	b, err := p.ctl.RecvTimeout(10 * time.Second)
	if err != nil {
		t.Fatalf("connection %d sent no control packet: %v", p.id, err)
	}
	ctl, err := packet.UnmarshalControl(b)
	if err != nil {
		t.Fatal(err)
	}
	return ctl
}

// fence speaks as the peer — one ping — and reads up to the pong that
// answers it, returning how many pings the connection had sent ahead of
// it. The control path is FIFO, so that is every ping emitted before the
// fence; and the connection has heard its peer by the time it answers.
func (p testPeer) fence(t *testing.T) (pings int) {
	t.Helper()
	if err := p.ctl.Send(packet.Control{Type: packet.CtrlPing, ConnID: p.id}.Marshal(nil)); err != nil {
		t.Fatal(err)
	}
	for {
		switch ctl := p.next(t); {
		case ctl.Type == packet.CtrlPong:
			return pings
		case ctl.Type != packet.CtrlPing || len(ctl.Body) != 0 || ctl.ConnID != p.id:
			t.Fatalf("connection %d sent %+v, want an empty-bodied ping", p.id, ctl)
		}
		pings++
	}
}

// stuckConn is a transport whose writes never complete until it closes.
type stuckConn struct {
	transport.Conn
	writing chan struct{} // one token per write that got stuck
	closed  chan struct{}
	once    sync.Once
}

func newStuckConn(c transport.Conn) *stuckConn {
	return &stuckConn{Conn: c, writing: make(chan struct{}, 1), closed: make(chan struct{})}
}

func (s *stuckConn) SendBatch(bs []*buf.Buffer) error {
	select {
	case s.writing <- struct{}{}:
	default:
	}
	<-s.closed
	for _, b := range bs {
		b.Release()
	}
	return transport.ErrConnClosed
}

func (s *stuckConn) SendBuf(b *buf.Buffer) error { return s.SendBatch([]*buf.Buffer{b}) }

func (s *stuckConn) Close() error {
	s.once.Do(func() { close(s.closed) })
	return s.Conn.Close()
}

// TestOneHeartbeatAcrossRuntimes holds the one liveness sweep to the
// same verdicts on every runtime it serves. The test calls the sweep
// itself, at synthetic times: no sleep decides a verdict — the waits
// below only let an asynchronous hop (a pong through the peer's threads)
// finish before the next sweep is called.
func TestOneHeartbeatAcrossRuntimes(t *testing.T) {
	newSystem := func(t *testing.T) *System {
		t.Helper()
		nw := NewNetwork()
		t.Cleanup(nw.Close)
		sys, err := nw.NewSystem("hb")
		if err != nil {
			t.Fatal(err)
		}
		return sys
	}
	// sweepN calls the next n sweeps, one hbUnit apart, each of which
	// must return without waiting on any connection.
	sweepN := func(t *testing.T, sys *System, at *time.Time, n int) {
		t.Helper()
		for i := 0; i < n; i++ {
			*at = at.Add(hbUnit)
			swept := make(chan struct{})
			go func() { sys.sweep(*at); close(swept) }()
			select {
			case <-swept:
			case <-time.After(10 * time.Second):
				t.Fatal("the sweep blocked")
			}
		}
	}

	for _, rt := range heartbeatRuntimes {
		opts := Options{Interface: transport.HPI, Heartbeat: hbUnit}
		rt.set(&opts)

		t.Run(rt.name+"/healthy", func(t *testing.T) {
			conn, peer, cleanup := newPairT(t, opts)
			defer cleanup()
			at := time.Now()
			for k := uint64(1); k <= 20; k++ {
				sweepN(t, conn.sys, &at, 1)
				awaitCond(t, "a ping was not answered", func() bool { return conn.Stats().ControlReceived == k })
			}
			if err := conn.Err(); err != nil {
				t.Fatalf("healthy connection after 20 sweeps: %v", err)
			}
			if got := peer.Stats().ControlReceived; got != 20 {
				t.Fatalf("the peer saw %d pings over 20 sweeps, want one per interval", got)
			}
		})

		t.Run(rt.name+"/silent", func(t *testing.T) {
			sys := newSystem(t)
			p := newTestPeer(t, sys, 1, opts)
			at := time.Now()
			sweepN(t, sys, &at, maxMisses)
			if err := p.Err(); err != nil {
				t.Fatalf("after %d silent intervals: %v, want still alive", maxMisses, err)
			}
			// One ping per interval so far, same type and empty body as ever.
			for i := 0; i < maxMisses; i++ {
				if ctl := p.next(t); ctl.Type != packet.CtrlPing || len(ctl.Body) != 0 {
					t.Fatalf("control packet %d = %+v, want an empty-bodied ping", i, ctl)
				}
			}
			sweepN(t, sys, &at, 1)
			if err := p.Err(); !errors.Is(err, ErrPeerUnreachable) {
				t.Fatalf("after %d silent intervals: %v, want ErrPeerUnreachable", maxMisses+1, err)
			}
			if _, err := p.RecvTimeout(10 * time.Second); !errors.Is(err, ErrPeerUnreachable) {
				t.Fatalf("blocked receiver: %v, want ErrPeerUnreachable", err)
			}
			awaitCond(t, "the failed connection stayed in the registry", func() bool { return sys.Telemetry().Mem.Conns == 0 })
		})

		t.Run(rt.name+"/two-intervals", func(t *testing.T) {
			sys := newSystem(t)
			slowOpts := opts
			slowOpts.Heartbeat = 5 * hbUnit
			fast, slow := newTestPeer(t, sys, 1, opts), newTestPeer(t, sys, 2, slowOpts)
			at := time.Now()
			var nFast, nSlow int
			for k := 0; k < 10; k++ {
				sweepN(t, sys, &at, 1)
				nFast += fast.fence(t)
				nSlow += slow.fence(t)
			}
			if nFast != 10 || nSlow != 2 {
				t.Fatalf("over 10 sweeps the 1× connection was pinged %d times and the 5× one %d, want 10 and 2", nFast, nSlow)
			}
			if fast.Err() != nil || slow.Err() != nil {
				t.Fatalf("answered connections failed: %v, %v", fast.Err(), slow.Err())
			}
		})

		t.Run(rt.name+"/last-one-disarms", func(t *testing.T) {
			sys := newSystem(t)
			plain := opts
			plain.Heartbeat = 0
			newTestPeer(t, sys, 1, plain)
			if n := sys.Telemetry().Mem.PendingTimers; n != 0 {
				t.Fatalf("PendingTimers = %d with no heartbeat connection, want 0", n)
			}
			p, q := newTestPeer(t, sys, 2, opts), newTestPeer(t, sys, 3, opts)
			p.Close()
			if n := sys.Telemetry().Mem.PendingTimers; n != 1 {
				t.Fatalf("PendingTimers = %d with one heartbeat connection left, want 1", n)
			}
			q.Close()
			if n := sys.Telemetry().Mem.PendingTimers; n != 0 {
				t.Fatalf("PendingTimers = %d after the last heartbeat connection closed, want 0", n)
			}
			sys.mu.Lock()
			wasArmed := sys.sweepTimer.Stop()
			sys.mu.Unlock()
			if wasArmed {
				t.Fatal("the sweep timer was still armed after the last heartbeat connection closed")
			}
		})

		t.Run(rt.name+"/full-queue", func(t *testing.T) {
			sys := newSystem(t)
			data, rawData := transport.HPIPair()
			ctrl, rawCtrl := transport.HPIPair()
			defer rawData.Close()
			defer rawCtrl.Close()
			stuck := newStuckConn(ctrl)
			if opts.InbandControl {
				stuck = newStuckConn(data)
				data = stuck
			} else {
				ctrl = stuck
			}
			jammed := newConnection(sys, "the-test", 1, opts.withDefaults(), data, ctrl, true)
			neighbour := newTestPeer(t, sys, 2, opts)
			// One write stuck in the transport, then the queue behind it
			// filled to the brim: a ping is refused only for lack of room.
			ping := packet.Control{Type: packet.CtrlPing, ConnID: jammed.id}
			if !jammed.emitCtrl(ping) {
				t.Fatal("first control packet refused")
			}
			<-stuck.writing
			for jammed.emitCtrl(ping) {
			}
			at := time.Now()
			sweepN(t, sys, &at, maxMisses)
			if err := neighbour.Err(); err != nil {
				t.Fatalf("neighbour after %d silent intervals: %v, want still alive", maxMisses, err)
			}
			sweepN(t, sys, &at, 1)
			if err := neighbour.Err(); !errors.Is(err, ErrPeerUnreachable) {
				t.Fatalf("neighbour of a jammed connection after %d silent intervals: %v, want ErrPeerUnreachable", maxMisses+1, err)
			}
		})
	}

	// The fast path is swept like the rest: pinged once per interval, and
	// failed by a peer that answers nothing after maxMisses+1 of them.
	t.Run("fastpath", func(t *testing.T) {
		sys := newSystem(t)
		p := newTestPeer(t, sys, 1, Options{Interface: transport.HPI, Heartbeat: hbUnit, FastPath: true})
		at := time.Now()
		sweepN(t, sys, &at, maxMisses)
		if err := p.Err(); err != nil {
			t.Fatalf("after %d silent intervals: %v, want still alive", maxMisses, err)
		}
		for i := 0; i < maxMisses; i++ {
			if ctl := p.next(t); ctl.Type != packet.CtrlPing || len(ctl.Body) != 0 {
				t.Fatalf("control packet %d = %+v, want an empty-bodied ping", i, ctl)
			}
		}
		sweepN(t, sys, &at, 1)
		if err := p.Err(); !errors.Is(err, ErrPeerUnreachable) {
			t.Fatalf("after %d silent intervals: %v, want ErrPeerUnreachable", maxMisses+1, err)
		}
	})
}
