package core

import (
	"encoding/binary"
	"fmt"
	"math/bits"
	"testing"
	"time"

	"ncs/internal/flowctl"
	"ncs/internal/transport"
)

// stallCap is longer than any sender in these tests stays stalled behind
// a withheld grant: every cell fails its fail-safe (awaitCond, a timed
// receive) first.
const stallCap = 30 * time.Second

// repairs is the most messages a sender stalled behind a withheld grant
// gets past it: its window's Resync repairs on the 1st, 2nd, 4th… resync
// period without a grant only, one message each, so a stall of stallCap
// allows ⌊log₂(stallCap/ackTimeout)⌋+1 — however long the cell runs.
func repairs(ackTimeout time.Duration) int { return bits.Len(uint(stallCap / ackTimeout)) }

// TestFullLaneStallsNoStream: a default lane at its depth backs up only
// itself. With its depth's worth of messages left unread on it — 140
// against deliveredQueueDepth, or 20 behind a bound inbox of depth 8 — a
// message sent on a stream of the same connection still arrives, on
// every runtime: the lane withholds its peer's credit, and the wire that
// carries every lane is still read. The verdict is the stream receive's
// return; its fail-safe is 20 s.
func TestFullLaneStallsNoStream(t *testing.T) {
	for _, rt := range allRuntimes {
		for _, bound := range []string{"lane0", "inbox"} {
			t.Run(rt.name+"/"+bound, func(t *testing.T) {
				opts := Options{Interface: transport.HPI}
				rt.set(&opts)
				conn, peer, cleanup := newPairT(t, opts)
				unread, depth, queued := 140, deliveredQueueDepth, peer.box.Len
				if bound == "inbox" {
					ib := NewInbox(8)
					defer ib.Close()
					if err := peer.BindInbox(ib); err != nil {
						t.Fatal(err)
					}
					unread, depth, queued = 20, 8, ib.box.Len
				}
				sent := make(chan struct{})
				defer func() { cleanup(); <-sent }()
				go func() {
					defer close(sent)
					for i := 0; i < unread && conn.Send([]byte("unread")) == nil; i++ {
					}
				}()
				awaitCond(t, "the default lane never reached its depth", func() bool { return queued() >= depth })

				st, err := conn.OpenStream()
				if err != nil {
					t.Fatal(err)
				}
				if err := st.Send([]byte("on a stream")); err != nil {
					t.Fatal(err)
				}
				in, err := peer.AcceptStreamTimeout(20 * time.Second)
				if err != nil {
					t.Fatalf("the stream was never accepted behind the full lane: %v", err)
				}
				if m, err := in.RecvTimeout(20 * time.Second); err != nil || string(m) != "on a stream" {
					t.Fatalf("the stream's message behind the full lane: %q, %v", m, err)
				}
			})
		}
	}
}

// TestLaneBoundAcrossAlgorithms pins the bound withheld credit sets on
// the default lane, on every runtime and under every flow-control
// algorithm, alone and bound to an inbox. A sender floods a peer that
// reads nothing: the lane withholds its peer's grant at depth, and from
// then on holds at most the depth, plus the window of credit granted
// before it withheld and the message that granted it, plus what the
// stalled sender's resynchronisation repairs (repairs). Read late, every
// message arrives once and in order, and a closed pair leaves
// core.shard.parked_conns where it found it.
func TestLaneBoundAcrossAlgorithms(t *testing.T) {
	const window, inboxDepth, msgs = 8, 16, 400
	for _, rt := range allRuntimes {
		for _, alg := range []flowctl.Algorithm{flowctl.None, flowctl.Credit, flowctl.Window, flowctl.Rate} {
			for _, bound := range []string{"lane0", "inbox"} {
				t.Run(fmt.Sprintf("%s/%v/%s", rt.name, alg, bound), func(t *testing.T) {
					gauge := mParkedConns.Value()
					opts := Options{
						Interface:   transport.HPI,
						FlowControl: alg,
						FlowConfig:  flowctl.Config{InitialCredits: window, MaxCredits: window},
						AckTimeout:  20 * time.Millisecond,
					}
					rt.set(&opts)
					conn, peer, cleanup := newPairT(t, opts)
					defer cleanup()
					depth, queued := deliveredQueueDepth, peer.box.Len
					recv := func() ([]byte, error) { return peer.RecvTimeout(10 * time.Second) }
					if bound == "inbox" {
						ib := NewInbox(inboxDepth)
						defer ib.Close()
						if err := peer.BindInbox(ib); err != nil {
							t.Fatal(err)
						}
						depth, queued = inboxDepth, ib.box.Len
						recv = func() ([]byte, error) {
							im, err := ib.RecvTimeout(10 * time.Second)
							return im.Msg.Bytes(), err
						}
					}
					sent := make(chan error, 1)
					go func() {
						var b [4]byte
						for i := uint32(0); i < msgs; i++ {
							if err := conn.Send(binary.BigEndian.AppendUint32(b[:0], i)); err != nil {
								sent <- fmt.Errorf("send %d: %w", i, err)
								return
							}
						}
						sent <- nil
					}()
					check := func() {
						t.Helper()
						if n, most := queued(), depth+window+1+repairs(opts.AckTimeout); n > most {
							t.Fatalf("the lane holds %d messages, want at most %d: depth %d, window %d, one more and %d repairs", n, most, depth, window, repairs(opts.AckTimeout))
						}
					}
					awaitCond(t, "the lane never withheld its grant", func() bool { check(); return withheld(peer) })
					for end := time.Now().Add(5 * opts.AckTimeout); time.Now().Before(end); time.Sleep(time.Millisecond) {
						check()
					}
					for i := uint32(0); i < msgs; i++ {
						m, err := recv()
						if err != nil || len(m) != 4 || binary.BigEndian.Uint32(m) != i {
							t.Fatalf("message %d read late: %v, %v", i, m, err)
						}
					}
					if err := <-sent; err != nil {
						t.Fatal(err)
					}
					cleanup()
					if got := mParkedConns.Value(); got != gauge {
						t.Fatalf("core.shard.parked_conns = %d after the pair closed, started at %d", got, gauge)
					}
				})
			}
		}
	}
}
