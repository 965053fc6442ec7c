package core

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"testing"
	"time"

	"ncs/internal/buf"
	"ncs/internal/errctl"
	"ncs/internal/flowctl"
	"ncs/internal/netsim"
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

// TestOneEngineAcrossRuntimes runs one seeded message schedule through
// every runtime × lane × error-control scheme and holds each cell to
// the same outcome and the same books: the send engine, the receive
// path and the session table are shared, so nothing may depend on who
// runs them. Reliable cells cross a link that loses, duplicates and
// reorders data packets; None recovers nothing by definition, so its
// cells keep the link's delay but not its impairments — the assertions
// are the same.
func TestOneEngineAcrossRuntimes(t *testing.T) {
	const msgs, sduSize = 200, 256
	for _, rt := range allRuntimes {
		for _, lane := range []string{"lane0", "stream"} {
			for _, ec := range []errctl.Algorithm{errctl.SelectiveRepeat, errctl.GoBackN, errctl.None} {
				t.Run(fmt.Sprintf("%s/%s/%v", rt.name, lane, ec), func(t *testing.T) {
					link := &netsim.Params{Delay: 100 * time.Microsecond, Seed: 11}
					if ec != errctl.None {
						link.LossRate = 0.04
						link.Impair = netsim.Impairments{DupRate: 0.2, ReorderRate: 0.1, ReorderJitter: 300 * time.Microsecond}
					}
					opts := Options{
						Interface:    transport.HPI,
						ErrorControl: ec,
						FlowControl:  flowctl.Credit,
						SDUSize:      sduSize,
						AckTimeout:   5 * time.Millisecond,
						HPILink:      link,
					}
					rt.set(&opts)
					buffersBefore := buf.Outstanding()
					sdusBefore := mSendSDUs.Value()
					conn, peer, cleanup := newPairT(t, opts)

					// 1–8 SDUs per message, the same sizes in every cell.
					rng := rand.New(rand.NewSource(42))
					sizes := make([]int, msgs)
					wantSDUs := 0
					for i := range sizes {
						sizes[i] = 5 + rng.Intn(8*sduSize-4) // reuseMsg's header is 5 bytes
						wantSDUs += (sizes[i] + sduSize - 1) / sduSize
					}
					send := conn.Send
					if lane == "stream" {
						out, err := conn.OpenStream()
						if err != nil {
							t.Fatal(err)
						}
						send = out.Send
					}
					sendErr := make(chan error, 1)
					go func() {
						for seq, n := range sizes {
							if err := send(reuseMsg(0, uint32(seq), n)); err != nil {
								sendErr <- fmt.Errorf("send %d: %w", seq, err)
								return
							}
						}
						sendErr <- nil
					}()
					recv := peer.RecvTimeout
					if lane == "stream" {
						// After the sender started: a fast-path accept
						// materialises from the stream's first data frame.
						in, err := peer.AcceptStreamTimeout(10 * time.Second)
						if err != nil {
							t.Fatal(err)
						}
						recv = in.RecvTimeout
					}
					for seq := range sizes {
						m, err := recv(20 * time.Second)
						if err != nil {
							t.Fatalf("recv %d: %v", seq, err)
						}
						if err := checkReuseMsg(m, 0, uint32(seq)); err != nil {
							t.Fatalf("recv %d: %v", seq, err)
						}
					}
					if err := <-sendErr; err != nil {
						t.Fatal(err)
					}
					if _, err := recv(20 * time.Millisecond); err == nil {
						t.Fatal("a message was delivered twice")
					}

					s, p := conn.Stats(), peer.Stats()
					if got := s.SDUsSent - s.Retransmissions; got != uint64(wantSDUs) {
						t.Errorf("SDUsSent − Retransmissions = %d − %d = %d, want the %d SDUs of the schedule",
							s.SDUsSent, s.Retransmissions, got, wantSDUs)
					}
					if s.MessagesSent != msgs || p.MessagesReceived != msgs {
						t.Errorf("MessagesSent = %d, peer MessagesReceived = %d, want %d each", s.MessagesSent, p.MessagesReceived, msgs)
					}
					if got, want := uint64(mSendSDUs.Value()-sdusBefore), s.SDUsSent+p.SDUsSent; got != want {
						t.Errorf("core.conn.send_sdus_total moved by %d, the two ends' Stats.SDUsSent sum to %d", got, want)
					}
					cleanup()
					awaitBuffers(t, buffersBefore)
				})
			}
		}
	}
}

// TestOneReceiveEndAcrossRuntimes holds every receive end — each
// runtime's default lane and stream, and an Inbox on the two runtimes
// that can bind one — to the same outcome under the same abuse: the
// consumer starts only after the sender has pushed everything it can
// (far past the default lane's depth, or a stream's whole credit
// window), through both receive variants. Delivery is exactly-once and
// in order, backpressure pauses only the connection it belongs to — a
// second connection on the same shard keeps flowing — and a closed cell
// leaves no paused connection, pooled buffer or goroutine behind.
func TestOneReceiveEndAcrossRuntimes(t *testing.T) {
	const window, inboxDepth = 64, 16
	for _, rt := range allRuntimes {
		for _, lane := range []string{"lane0", "stream", "inbox"} {
			if lane == "inbox" && rt.name == "fastpath" {
				continue // fast-path connections cannot bind an Inbox
			}
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
					for i := 0; i < msgs; i++ {
						if err := send(reuseMsg(0, uint32(i), 16)); err != nil {
							t.Fatalf("send %d with no consumer: %v", i, err)
						}
					}

					// Let the backlog build as far as the producer lets it.
					switch {
					case opts.FastPath:
						// The consumer is the producer: nothing builds.
					case lane == "stream":
						awaitCond(t, "the stream's window never arrived", func() bool { return peer.Stats().MessagesReceived == window })
					case lane == "inbox":
						awaitCond(t, "the inbox never filled", func() bool { return len(ib.ch) == inboxDepth })
					default:
						awaitCond(t, "the producer never paused at depth", peer.paused.Load)
						if n := peer.box.Len(); n != deliveredQueueDepth {
							t.Fatalf("paused with %d messages queued, want deliveredQueueDepth = %d", n, deliveredQueueDepth)
						}
					}
					if opts.Runtime == RuntimeSharded && lane != "stream" {
						awaitCond(t, "core.shard.parked_conns never counted the paused connection", func() bool { return mParkedConns.Value() == 1 })
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
							return im.Msg.Data, err
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
