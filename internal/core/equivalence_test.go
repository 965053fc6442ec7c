package core

import (
	"fmt"
	"math/rand"
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
