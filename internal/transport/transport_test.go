package transport

import (
	"bytes"
	"encoding/binary"
	"errors"
	"net"
	"sync"
	"testing"
	"time"

	"ncs/internal/atm"
	"ncs/internal/netsim"
)

func allKinds() []Kind { return []Kind{SCI, ACI, HPI} }

func TestPairRoundTripAllKinds(t *testing.T) {
	for _, k := range allKinds() {
		t.Run(k.String(), func(t *testing.T) {
			a, b, cleanup, err := NewPair(PairConfig{Kind: k})
			if err != nil {
				t.Fatal(err)
			}
			defer cleanup()

			msgs := [][]byte{
				[]byte(""),
				[]byte("x"),
				bytes.Repeat([]byte("abc"), 1000),
				make([]byte, 60000),
			}
			for i, m := range msgs {
				if err := a.Send(m); err != nil {
					t.Fatalf("send %d: %v", i, err)
				}
				got, err := b.Recv()
				if err != nil {
					t.Fatalf("recv %d: %v", i, err)
				}
				if !bytes.Equal(got, m) {
					t.Fatalf("msg %d: got %d bytes, want %d", i, len(got), len(m))
				}
			}
		})
	}
}

func TestPacketBoundariesPreserved(t *testing.T) {
	for _, k := range allKinds() {
		t.Run(k.String(), func(t *testing.T) {
			a, b, cleanup, err := NewPair(PairConfig{Kind: k})
			if err != nil {
				t.Fatal(err)
			}
			defer cleanup()

			for i := 1; i <= 20; i++ {
				if err := a.Send(bytes.Repeat([]byte{byte(i)}, i)); err != nil {
					t.Fatal(err)
				}
			}
			for i := 1; i <= 20; i++ {
				p, err := b.Recv()
				if err != nil {
					t.Fatal(err)
				}
				if len(p) != i || p[0] != byte(i) {
					t.Fatalf("packet %d: len=%d first=%d", i, len(p), p[0])
				}
			}
		})
	}
}

func TestDuplexAllKinds(t *testing.T) {
	for _, k := range allKinds() {
		t.Run(k.String(), func(t *testing.T) {
			a, b, cleanup, err := NewPair(PairConfig{Kind: k})
			if err != nil {
				t.Fatal(err)
			}
			defer cleanup()

			if err := a.Send([]byte("ping")); err != nil {
				t.Fatal(err)
			}
			if p, _ := b.Recv(); string(p) != "ping" {
				t.Fatalf("got %q", p)
			}
			if err := b.Send([]byte("pong")); err != nil {
				t.Fatal(err)
			}
			if p, _ := a.Recv(); string(p) != "pong" {
				t.Fatalf("got %q", p)
			}
		})
	}
}

func TestCloseUnblocksRecv(t *testing.T) {
	for _, k := range allKinds() {
		t.Run(k.String(), func(t *testing.T) {
			a, b, cleanup, err := NewPair(PairConfig{Kind: k})
			if err != nil {
				t.Fatal(err)
			}
			defer cleanup()

			var wg sync.WaitGroup
			wg.Add(1)
			go func() {
				defer wg.Done()
				if _, err := b.Recv(); err == nil {
					t.Error("Recv returned nil error after peer close")
				}
			}()
			a.Close()
			// For SCI the peer sees EOF; for ACI/HPI the pipe closes.
			b.Close()
			wg.Wait()
		})
	}
}

func TestKindProperties(t *testing.T) {
	if !SCI.Reliable() || !HPI.Reliable() {
		t.Error("SCI and HPI must be reliable")
	}
	if ACI.Reliable() {
		t.Error("ACI must be unreliable (NCS provides its own error control)")
	}
	if SCI.String() != "SCI" || ACI.String() != "ACI" || HPI.String() != "HPI" {
		t.Error("Kind.String misbehaving")
	}
	if Kind(99).String() == "" {
		t.Error("unknown kind String empty")
	}
}

func TestACIMaxPacket(t *testing.T) {
	a, b, cleanup, err := NewPair(PairConfig{Kind: ACI})
	if err != nil {
		t.Fatal(err)
	}
	defer cleanup()
	_ = b
	if a.MaxPacket() != atm.MaxFrameSize {
		t.Fatalf("ACI MaxPacket = %d, want %d", a.MaxPacket(), atm.MaxFrameSize)
	}
	if err := a.Send(make([]byte, atm.MaxFrameSize+1)); err == nil {
		t.Fatal("oversized ACI packet accepted")
	}
}

func TestACILossStats(t *testing.T) {
	a, b, cleanup, err := NewPair(PairConfig{
		Kind: ACI,
		QoS:  atm.QoS{CellLossRate: 0.5, Seed: 5},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cleanup()

	// Multi-cell frames: partial cell loss leaves evidence (a frame that
	// fails CRC/length), unlike single-cell frames that vanish whole.
	for i := 0; i < 30; i++ {
		if err := a.Send(bytes.Repeat([]byte{byte(i)}, 500)); err != nil {
			t.Fatal(err)
		}
	}
	a.Close()
	for {
		if _, err := b.Recv(); err != nil {
			break
		}
	}
	dropped, ok := ACIStats(b)
	if !ok {
		t.Fatal("ACIStats not available on ACI conn")
	}
	if dropped == 0 {
		t.Fatal("expected frame drops at 50% cell loss")
	}
	if _, ok := ACIStats(a); !ok {
		t.Fatal("ACIStats should work on sender side too")
	}
}

func TestHPIPairWithParams(t *testing.T) {
	a, b := HPIPairWithParams(
		netsim.Params{LossRate: 1.0},
		netsim.Params{},
	)
	defer b.Close()
	for i := 0; i < 3; i++ {
		if err := a.Send([]byte("gone")); err != nil {
			t.Fatal(err)
		}
	}
	a.Close()
	if _, err := b.Recv(); err != ErrConnClosed {
		t.Fatalf("err = %v, want ErrConnClosed", err)
	}
}

func TestSendAfterCloseErrors(t *testing.T) {
	for _, k := range allKinds() {
		t.Run(k.String(), func(t *testing.T) {
			a, b, cleanup, err := NewPair(PairConfig{Kind: k})
			if err != nil {
				t.Fatal(err)
			}
			defer cleanup()
			_ = b
			a.Close()
			if err := a.Send([]byte("x")); err == nil {
				t.Fatal("Send after Close succeeded")
			}
		})
	}
}

func TestConcurrentSendersInterleave(t *testing.T) {
	for _, k := range allKinds() {
		t.Run(k.String(), func(t *testing.T) {
			a, b, cleanup, err := NewPair(PairConfig{Kind: k})
			if err != nil {
				t.Fatal(err)
			}
			defer cleanup()

			const senders, per = 4, 20
			var wg sync.WaitGroup
			for s := 0; s < senders; s++ {
				wg.Add(1)
				go func(s int) {
					defer wg.Done()
					payload := bytes.Repeat([]byte{byte(s + 1)}, 100)
					for i := 0; i < per; i++ {
						if err := a.Send(payload); err != nil {
							t.Errorf("send: %v", err)
							return
						}
					}
				}(s)
			}
			recvDone := make(chan struct{})
			go func() {
				defer close(recvDone)
				for i := 0; i < senders*per; i++ {
					// A frame destroyed in flight must fail the test, not
					// hang it.
					p, err := b.RecvTimeout(10 * time.Second)
					if err != nil {
						t.Errorf("recv %d/%d: %v", i+1, senders*per, err)
						return
					}
					// Each packet must be internally consistent (no
					// interleaving of two senders' bytes).
					if len(p) != 100 {
						t.Errorf("packet len %d", len(p))
						return
					}
					for _, c := range p {
						if c != p[0] {
							t.Error("interleaved packet bytes")
							return
						}
					}
				}
			}()
			wg.Wait()
			<-recvDone
		})
	}
}

// TestPollAllKinds reads every transport the way a runtime does: the
// notify hook says when to look, TryRecvBuf takes what arrived without
// blocking — a whole packet, however many cells or chunks carried it —
// and a peer's close surfaces as ErrConnClosed once the queue is drained.
func TestPollAllKinds(t *testing.T) {
	type pair struct{ a, b Conn }
	cells := map[string]func(t *testing.T) (pair, func()){
		"chunked-HPI": func(t *testing.T) (pair, func()) {
			a, b := HPIPair()
			return pair{Chunked(a, 100), Chunked(b, 100)}, func() { a.Close(); b.Close() }
		},
	}
	for _, k := range allKinds() {
		cells[k.String()] = func(t *testing.T) (pair, func()) {
			a, b, cleanup, err := NewPair(PairConfig{Kind: k})
			if err != nil {
				t.Fatal(err)
			}
			return pair{a, b}, cleanup
		}
	}
	for name, mk := range cells {
		t.Run(name, func(t *testing.T) {
			p, cleanup := mk(t)
			defer cleanup()
			bell := make(chan struct{}, 1)
			p.b.SetRecvNotify(func() {
				select {
				case bell <- struct{}{}:
				default:
				}
			})
			defer p.b.SetRecvNotify(nil)
			// poll waits on the bell until TryRecvBuf yields a packet or an error.
			poll := func() ([]byte, error) {
				for {
					b, err := p.b.TryRecvBuf()
					if b != nil {
						return b.TakeBytes(), nil
					}
					if err != nil {
						return nil, err
					}
					select {
					case <-bell:
					case <-time.After(5 * time.Second):
						t.Fatal("no packet and no notify")
					}
				}
			}
			for _, n := range []int{0, 1, 1000, 5000} {
				msg := bytes.Repeat([]byte{byte(n)}, n)
				if err := p.a.Send(msg); err != nil {
					t.Fatal(err)
				}
				if got, err := poll(); err != nil || !bytes.Equal(got, msg) {
					t.Fatalf("%d bytes: got %d, %v", n, len(got), err)
				}
			}
			if err := p.a.Send([]byte("last")); err != nil {
				t.Fatal(err)
			}
			p.a.Close()
			if got, err := poll(); string(got) != "last" {
				t.Fatalf("a packet sent before the close: got %q, %v", got, err)
			}
			if _, err := poll(); !errors.Is(err, ErrConnClosed) {
				t.Fatalf("after the peer's close: %v, want ErrConnClosed", err)
			}
		})
	}
}

// TestSCIRecvTimeoutMidPacket lets a receive deadline expire with half a
// packet on the socket: it is a plain timeout, and the packet, once
// whole, is read whole — a deadline cannot cut the stream.
func TestSCIRecvTimeoutMidPacket(t *testing.T) {
	l, err := ListenSCI("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	raw, err := net.Dial("tcp", l.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer raw.Close()
	c, err := l.Accept()
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	body := bytes.Repeat([]byte("half"), 256)
	frame := binary.BigEndian.AppendUint32(nil, uint32(len(body)))
	frame = append(frame, body...)
	cut := 4 + len(body)/2
	if _, err := raw.Write(frame[:cut]); err != nil {
		t.Fatal(err)
	}
	if b, err := c.RecvBufTimeout(50 * time.Millisecond); !errors.Is(err, ErrRecvTimeout) {
		if b != nil {
			b.Release()
		}
		t.Fatalf("RecvBufTimeout with half a packet sent: %v, want ErrRecvTimeout", err)
	}
	if _, err := raw.Write(frame[cut:]); err != nil {
		t.Fatal(err)
	}
	b, err := c.RecvBuf()
	if err != nil {
		t.Fatal(err)
	}
	defer b.Release()
	if !bytes.Equal(b.B, body) {
		t.Fatalf("got %d bytes, want the whole %d-byte packet", b.Len(), len(body))
	}
}
