package core

import (
	"encoding/binary"
	"fmt"
	"sync"
	"testing"
	"time"

	"ncs/internal/buf"
	"ncs/internal/errctl"
	"ncs/internal/flowctl"
	"ncs/internal/netsim"
	"ncs/internal/transport"
)

// Reuse-safety of the pooled reliable path, end to end. Two senders
// share one connection over a link that loses and duplicates data
// packets, with an ack timeout short enough to fire spuriously, so:
//
//   - send sessions (ack channel, timer, sender) hop between the two
//     goroutines through the pool, and duplicated end SDUs make the peer
//     repeat final acks that arrive after their session was retired and
//     its parts re-acquired by the other Send — such an ack must neither
//     complete nor corrupt the newer session, and the receive buffer it
//     rides in must be released;
//   - receivers keep reassembling retransmissions (rewriting their
//     bitmap and ack scratch) while the sender still parses the previous
//     ack, which on in-process HPI crossed in the very buffer emit
//     staged it in — run under -race, any aliasing of that scratch is a
//     reported race.
//
// Every message carries its sender, its sequence number and a
// pattern derived from both; receivers check all three, so a message
// completed early, assembled from another session's segments, or
// delivered twice fails the test.

func reuseMsg(sender byte, seq uint32, n int) []byte {
	m := make([]byte, n)
	m[0] = sender
	binary.BigEndian.PutUint32(m[1:], seq)
	for i := 5; i < n; i++ {
		m[i] = byte(uint32(i)*31 + seq*7 + uint32(sender))
	}
	return m
}

func checkReuseMsg(m []byte, wantSender byte, wantSeq uint32) error {
	if len(m) < 5 {
		return fmt.Errorf("short message (%d bytes)", len(m))
	}
	sender, seq := m[0], binary.BigEndian.Uint32(m[1:])
	if sender != wantSender || seq != wantSeq {
		return fmt.Errorf("got sender %d seq %d, want sender %d seq %d", sender, seq, wantSender, wantSeq)
	}
	want := reuseMsg(sender, seq, len(m))
	for i := range m {
		if m[i] != want[i] {
			return fmt.Errorf("sender %d seq %d: byte %d of %d corrupted", sender, seq, i, len(m))
		}
	}
	return nil
}

func reuseOpts(rt Runtime, ec errctl.Algorithm) Options {
	return Options{
		Interface:    transport.HPI,
		Runtime:      rt,
		ErrorControl: ec,
		FlowControl:  flowctl.Credit,
		SDUSize:      256,
		AckTimeout:   3 * time.Millisecond,
		HPILink: &netsim.Params{
			Delay:    200 * time.Microsecond,
			LossRate: 0.05,
			Seed:     7,
			Impair:   netsim.Impairments{DupRate: 0.3},
		},
	}
}

// awaitBuffers waits for the pooled-buffer count to return to before.
func awaitBuffers(t *testing.T, before int64) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for buf.Outstanding() != before {
		if time.Now().After(deadline) {
			t.Fatalf("%d pooled buffers still outstanding after close", buf.Outstanding()-before)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func TestConcurrentSendsShareSendSessions(t *testing.T) {
	const senders, msgs = 2, 120
	for _, rt := range []Runtime{RuntimeThreaded, RuntimeSharded} {
		for _, ec := range []errctl.Algorithm{errctl.SelectiveRepeat, errctl.GoBackN} {
			t.Run(fmt.Sprintf("%v/%v", rt, ec), func(t *testing.T) {
				before := buf.Outstanding()
				conn, peer, cleanup := newPairT(t, reuseOpts(rt, ec))
				var wg sync.WaitGroup
				for s := 0; s < senders; s++ {
					wg.Add(1)
					go func(s byte) {
						defer wg.Done()
						for seq := uint32(0); seq < msgs; seq++ {
							// Sizes alternate between 1 and 8 SDUs, so a
							// reused sender sees both after each other.
							if err := conn.Send(reuseMsg(s, seq, 100+int(seq%2)*1800)); err != nil {
								t.Errorf("sender %d seq %d: %v", s, seq, err)
								return
							}
						}
					}(byte(s))
				}
				var next [senders]uint32
				for i := 0; i < senders*msgs; i++ {
					m, err := peer.RecvTimeout(20 * time.Second)
					if err != nil {
						t.Fatalf("recv %d: %v", i, err)
					}
					if len(m) == 0 || int(m[0]) >= senders {
						t.Fatalf("recv %d: unattributable message", i)
					}
					if err := checkReuseMsg(m, m[0], next[m[0]]); err != nil {
						t.Fatalf("recv %d: %v", i, err)
					}
					next[m[0]]++
				}
				wg.Wait()
				if _, err := peer.RecvTimeout(20 * time.Millisecond); err == nil {
					t.Fatal("a message was delivered twice")
				}
				cleanup()
				awaitBuffers(t, before)
			})
		}
	}
}

func TestConcurrentStreamSendsShareSendSessions(t *testing.T) {
	const streams, msgs = 2, 80
	for _, rt := range []Runtime{RuntimeThreaded, RuntimeSharded} {
		t.Run(rt.String(), func(t *testing.T) {
			before := buf.Outstanding()
			conn, peer, cleanup := newPairT(t, reuseOpts(rt, errctl.SelectiveRepeat))
			var wg sync.WaitGroup
			for s := 0; s < streams; s++ {
				st, err := conn.OpenStream()
				if err != nil {
					t.Fatal(err)
				}
				wg.Add(1)
				go func(st *Stream) {
					defer wg.Done()
					for seq := uint32(0); seq < msgs; seq++ {
						if err := st.Send(reuseMsg(byte(st.ID()), seq, 100+int(seq%2)*1800)); err != nil {
							t.Errorf("stream %d seq %d: %v", st.ID(), seq, err)
							return
						}
					}
				}(st)
			}
			for s := 0; s < streams; s++ {
				ps, err := peer.AcceptStreamTimeout(5 * time.Second)
				if err != nil {
					t.Fatal(err)
				}
				wg.Add(1)
				go func(ps *Stream) {
					defer wg.Done()
					for seq := uint32(0); seq < msgs; seq++ {
						m, err := ps.RecvTimeout(20 * time.Second)
						if err == nil {
							err = checkReuseMsg(m, byte(ps.ID()), seq)
						}
						if err != nil {
							t.Errorf("stream %d: %v", ps.ID(), err)
							return
						}
					}
				}(ps)
			}
			wg.Wait()
			cleanup()
			awaitBuffers(t, before)
		})
	}
}

// TestSendLeavesNoAlias holds Send to what its return means on every
// runtime and scheme: once it returns, nothing refers to the caller's
// message any more — not an SDU still queued for its wire, not a
// retransmission, not a duplicate. The caller overwrites its buffer the
// moment Send returns, over a link that loses and duplicates data, and
// the peer must still receive the bytes that were sent (under -race, a
// write staged after the return is also a reported race). An unreliable
// message may arrive with SDUs missing, or not at all; each one that
// arrives whole is checked, and some must.
func TestSendLeavesNoAlias(t *testing.T) {
	const msgs, sduSize = 16, 256
	for _, rt := range allRuntimes {
		for _, ec := range []errctl.Algorithm{errctl.None, errctl.SelectiveRepeat, errctl.GoBackN} {
			for _, sdus := range []int{1, 4, 64} {
				t.Run(fmt.Sprintf("%s/%v/%d", rt.name, ec, sdus), func(t *testing.T) {
					opts := reuseOpts(RuntimeThreaded, ec)
					opts.SDUSize = sduSize
					opts.AckTimeout = 5 * time.Millisecond
					opts.HPILink.LossRate = 0.02
					rt.set(&opts)
					before := buf.Outstanding()
					conn, peer, cleanup := newPairT(t, opts)
					size := sdus * sduSize // reuseMsg's header rides in the first SDU
					sendErr := make(chan error, 1)
					go func() {
						msg := make([]byte, size)
						for seq := range uint32(msgs) {
							copy(msg, reuseMsg(0, seq, size))
							err := conn.Send(msg)
							for i := range msg {
								msg[i] = 0xEE
							}
							if err != nil {
								sendErr <- fmt.Errorf("send %d: %w", seq, err)
								return
							}
						}
						sendErr <- nil
					}()
					whole, wait := 0, 10*time.Second
					if ec == errctl.None {
						wait = 200 * time.Millisecond
					}
					for seq := uint32(0); seq < msgs; {
						m, err := peer.RecvMessageTimeout(wait)
						if err != nil && ec == errctl.None {
							break // the rest lost their last SDU
						}
						if err != nil {
							t.Fatalf("recv %d: %v", seq, err)
						}
						got := m.Bytes()
						if m.Lost > 0 {
							continue
						}
						if len(got) < 5 {
							t.Fatalf("a %d-byte message", len(got))
						}
						next := binary.BigEndian.Uint32(got[1:])
						if ec != errctl.None && next != seq {
							t.Fatalf("message %d arrived where %d was due", next, seq)
						}
						if err := checkReuseMsg(got, 0, next); err != nil {
							t.Fatal(err)
						}
						whole++
						seq = next + 1
					}
					if err := <-sendErr; err != nil {
						t.Fatal(err)
					}
					if whole == 0 || ec != errctl.None && whole != msgs {
						t.Fatalf("%d of %d messages arrived whole", whole, msgs)
					}
					cleanup()
					awaitBuffers(t, before)
				})
			}
		}
	}
}
