package transport

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"ncs/internal/buf"
	"ncs/internal/netsim"
)

const udpTestTimeout = 5 * time.Second

func recvOne(t *testing.T, c Conn) []byte {
	t.Helper()
	p, err := c.RecvTimeout(udpTestTimeout)
	if err != nil {
		t.Fatalf("recv: %v", err)
	}
	return p
}

func TestUDPPairRoundTrip(t *testing.T) {
	a, b, err := UDPPair(nil)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	defer b.Close()

	if a.Kind() != UDP || !bytes.Equal([]byte(a.Kind().String()), []byte("UDP")) {
		t.Fatalf("kind = %v", a.Kind())
	}
	if a.Kind().Reliable() {
		t.Fatal("UDP must report unreliable")
	}

	// Plain sends, both directions.
	for i := 0; i < 50; i++ {
		msg := []byte(fmt.Sprintf("a->b %d", i))
		if err := a.Send(msg); err != nil {
			t.Fatalf("send: %v", err)
		}
		if got := recvOne(t, b); !bytes.Equal(got, msg) {
			t.Fatalf("got %q want %q", got, msg)
		}
	}
	if err := b.Send([]byte("b->a")); err != nil {
		t.Fatal(err)
	}
	if got := recvOne(t, a); string(got) != "b->a" {
		t.Fatalf("got %q", got)
	}

	// Pooled batch send: packet boundaries must be preserved, order kept.
	var batch []*buf.Buffer
	for i := 0; i < 40; i++ {
		bb := buf.GetCap(64)
		bb.B = append(bb.B, []byte(fmt.Sprintf("batch-%02d", i))...)
		batch = append(batch, bb)
	}
	if err := a.SendBatch(batch); err != nil {
		t.Fatalf("sendbatch: %v", err)
	}
	for i := 0; i < 40; i++ {
		rb, err := b.RecvBufTimeout(udpTestTimeout)
		if err != nil {
			t.Fatalf("recvbuf %d: %v", i, err)
		}
		if want := fmt.Sprintf("batch-%02d", i); string(rb.B) != want {
			t.Fatalf("got %q want %q", rb.B, want)
		}
		rb.Release()
	}
}

func TestUDPPairLargePackets(t *testing.T) {
	link := &UDPLink{MaxPacket: 16384}
	a, b, err := UDPPair(link)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	defer b.Close()
	if got := a.MaxPacket(); got != 16384 {
		t.Fatalf("MaxPacket = %d", got)
	}
	big := bytes.Repeat([]byte{0xAB}, 16384)
	if err := a.Send(big); err != nil {
		t.Fatal(err)
	}
	if got := recvOne(t, b); !bytes.Equal(got, big) {
		t.Fatalf("large packet mangled: %d bytes", len(got))
	}
	// Oversize must be rejected up front (the ref still consumed).
	over := buf.Get(16385)
	if err := a.SendBuf(over); err == nil {
		t.Fatal("oversize send accepted")
	}
}

func TestUDPDialListen(t *testing.T) {
	l, err := ListenUDP("127.0.0.1:0", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()

	type acc struct {
		c   Conn
		err error
	}
	accCh := make(chan acc, 2)
	go func() {
		c, err := l.Accept()
		accCh <- acc{c, err}
	}()

	d1, err := DialUDP(l.Addr(), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer d1.Close()
	a1 := <-accCh
	if a1.err != nil {
		t.Fatal(a1.err)
	}
	defer a1.c.Close()

	// A second dialer demuxes onto the same socket as a distinct conn.
	go func() {
		c, err := l.Accept()
		accCh <- acc{c, err}
	}()
	d2, err := DialUDP(l.Addr(), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	a2 := <-accCh
	if a2.err != nil {
		t.Fatal(a2.err)
	}
	defer a2.c.Close()

	if err := d1.Send([]byte("from-d1")); err != nil {
		t.Fatal(err)
	}
	if err := d2.Send([]byte("from-d2")); err != nil {
		t.Fatal(err)
	}
	if got := recvOne(t, a1.c); string(got) != "from-d1" {
		t.Fatalf("a1 got %q", got)
	}
	if got := recvOne(t, a2.c); string(got) != "from-d2" {
		t.Fatalf("a2 got %q", got)
	}
	if err := a1.c.Send([]byte("to-d1")); err != nil {
		t.Fatal(err)
	}
	if got := recvOne(t, d1); string(got) != "to-d1" {
		t.Fatalf("d1 got %q", got)
	}

	// Close propagation: the peer's queue drains then errors.
	d1.Close()
	deadline := time.Now().Add(udpTestTimeout)
	for {
		_, err := a1.c.RecvTimeout(50 * time.Millisecond)
		if err == ErrConnClosed {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("accepted conn never saw peer close (last err %v)", err)
		}
	}
}

func TestUDPDialNoListener(t *testing.T) {
	if testing.Short() {
		t.Skip("waits out the full OPEN retry budget")
	}
	// A bound-but-silent socket: OPEN goes unanswered and Dial must
	// give up on its own rather than hang.
	l, err := ListenUDP("127.0.0.1:0", nil)
	if err != nil {
		t.Fatal(err)
	}
	addr := l.Addr()
	l.Close()
	start := time.Now()
	if _, err := DialUDP(addr, nil); err == nil {
		t.Fatal("dial to dead port succeeded")
	}
	if elapsed := time.Since(start); elapsed > udpOpenRetries*udpOpenTimeout+2*time.Second {
		t.Fatalf("dial retry budget overran: %v", elapsed)
	}
}

func TestUDPPoller(t *testing.T) {
	a, b, err := UDPPair(nil)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	defer b.Close()

	if bb, err := b.TryRecvBuf(); bb != nil || err != nil {
		t.Fatalf("empty TryRecvBuf = %v, %v", bb, err)
	}

	notify := make(chan struct{}, 16)
	b.SetRecvNotify(func() {
		select {
		case notify <- struct{}{}:
		default:
		}
	})
	// The hook fires once immediately on registration.
	select {
	case <-notify:
	case <-time.After(udpTestTimeout):
		t.Fatal("no registration notify")
	}

	if err := a.Send([]byte("ding")); err != nil {
		t.Fatal(err)
	}
	select {
	case <-notify:
	case <-time.After(udpTestTimeout):
		t.Fatal("no arrival notify")
	}
	deadline := time.Now().Add(udpTestTimeout)
	for {
		bb, err := b.TryRecvBuf()
		if err != nil {
			t.Fatalf("TryRecvBuf: %v", err)
		}
		if bb != nil {
			if string(bb.B) != "ding" {
				t.Fatalf("got %q", bb.B)
			}
			bb.Release()
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("datagram never surfaced via TryRecvBuf")
		}
		time.Sleep(time.Millisecond)
	}

	// After close: drained queue reports ErrConnClosed, and the hook
	// fires for the death notification.
	b.Close()
	if _, err := b.TryRecvBuf(); err != ErrConnClosed {
		t.Fatalf("TryRecvBuf after close = %v", err)
	}
}

// TestUDPImpairerDeterminism is the seeded-replay contract: the same
// seed, impairment config, and packet sequence must reproduce the
// identical decision sequence — first at the WireImpairer level, then
// end to end through two independently built impaired pairs.
func TestUDPImpairerDeterminism(t *testing.T) {
	imp := netsim.Impairments{
		DupRate:       0.1,
		ReorderRate:   0.15,
		ReorderJitter: 200 * time.Microsecond,
		Burst:         netsim.GilbertElliott{PGoodBad: 0.05, PBadGood: 0.3, LossBad: 0.9, LossGood: 0.01},
	}
	w1 := netsim.NewWireImpairer(7, imp, nil)
	w2 := netsim.NewWireImpairer(7, imp, nil)
	for i := 0; i < 5000; i++ {
		d1, d2 := w1.Decide(), w2.Decide()
		if d1 != d2 {
			t.Fatalf("decision %d diverged: %+v vs %+v", i, d1, d2)
		}
	}
	if s1, s2 := w1.Stats(), w2.Stats(); s1 != s2 {
		t.Fatalf("stats diverged: %+v vs %+v", s1, s2)
	}
	if s := w1.Stats(); s.Sent != 5000 || s.Dropped == 0 || s.Duplicated == 0 || s.Reordered == 0 {
		t.Fatalf("implausible stats: %+v", s)
	}

	// End to end: two fresh pairs, same link config, same sends —
	// identical impairment stats on the sending conns.
	run := func() netsim.ImpairStats {
		link := &UDPLink{Seed: 11, Impair: imp}
		a, b, err := UDPPair(link)
		if err != nil {
			t.Fatal(err)
		}
		defer a.Close()
		defer b.Close()
		go func() {
			for {
				rb, err := b.RecvBuf()
				if err != nil {
					return
				}
				rb.Release()
			}
		}()
		payload := bytes.Repeat([]byte{0x5A}, 256)
		for i := 0; i < 200; i++ {
			var batch []*buf.Buffer
			for j := 0; j < 4; j++ {
				bb := buf.GetCap(256)
				bb.B = append(bb.B, payload...)
				batch = append(batch, bb)
			}
			if err := a.SendBatch(batch); err != nil {
				t.Fatalf("send %d: %v", i, err)
			}
		}
		st, ok := ImpairStats(a)
		if !ok {
			t.Fatal("no impair stats on UDP conn")
		}
		return st
	}
	s1, s2 := run(), run()
	if s1 != s2 {
		t.Fatalf("end-to-end impair stats diverged:\n%+v\n%+v", s1, s2)
	}
	if s1.Sent != 800 {
		t.Fatalf("sent %d packets, want 800", s1.Sent)
	}
}

func TestUDPImpairMidRun(t *testing.T) {
	a, b, err := UDPPair(nil)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	defer b.Close()

	if err := a.Send([]byte("before")); err != nil {
		t.Fatal(err)
	}
	if got := recvOne(t, b); string(got) != "before" {
		t.Fatalf("got %q", got)
	}

	// Partition the conn via the generic hook; sends vanish.
	if !Impair(a, netsim.Impairments{Partitioned: true}) {
		t.Fatal("Impair refused a UDP conn")
	}
	for i := 0; i < 10; i++ {
		if err := a.Send([]byte("lost")); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := b.RecvTimeout(100 * time.Millisecond); err != ErrRecvTimeout {
		t.Fatalf("partitioned recv = %v", err)
	}
	st, ok := ImpairStats(a)
	if !ok || st.Dropped != 10 {
		t.Fatalf("impair stats = %+v, %v", st, ok)
	}

	// Heal and confirm delivery resumes.
	Impair(a, netsim.Impairments{})
	if err := a.Send([]byte("after")); err != nil {
		t.Fatal(err)
	}
	if got := recvOne(t, b); string(got) != "after" {
		t.Fatalf("got %q", got)
	}
}

// TestUDPReorderDelivers exercises the delay-queue path: with a 100%
// reorder rate every datagram takes the delayed route and must still
// arrive (order may differ; content set must match).
func TestUDPReorderDelivers(t *testing.T) {
	link := &UDPLink{
		Seed:   3,
		Impair: netsim.Impairments{ReorderRate: 1.0, ReorderJitter: 2 * time.Millisecond},
	}
	a, b, err := UDPPair(link)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	defer b.Close()

	const n = 64
	want := make(map[string]bool, n)
	for i := 0; i < n; i++ {
		msg := fmt.Sprintf("reorder-%02d", i)
		want[msg] = true
		if err := a.Send([]byte(msg)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < n; i++ {
		got := string(recvOne(t, b))
		if !want[got] {
			t.Fatalf("unexpected or duplicate %q", got)
		}
		delete(want, got)
	}
	if len(want) != 0 {
		t.Fatalf("%d messages never arrived", len(want))
	}
}

// TestUDPDelayedSameInstantKeepSendOrder pins the delay queue's
// tie-break: datagrams delayed to one instant leave in the order they
// were sent (a heap keyed on the due time alone may swap them).
func TestUDPDelayedSameInstantKeepSendOrder(t *testing.T) {
	a, b, err := UDPPair(nil)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	defer b.Close()

	c := a.(*udpConn)
	due := time.Now().Add(20 * time.Millisecond)
	const n = 64
	for i := 0; i < n; i++ {
		var m outMsg
		putUDPHeader(&m.hdr, frameData, c.chanID.Load())
		m.b = buf.GetCap(16)
		m.b.B = fmt.Appendf(m.b.B, "tie-%02d", i)
		m.to = c.to
		c.ep.delay.enqueue(m, due)
	}
	for i := 0; i < n; i++ {
		if got, want := string(recvOne(t, b)), fmt.Sprintf("tie-%02d", i); got != want {
			t.Fatalf("datagram %d: got %q, want %q", i, got, want)
		}
	}
}

func TestUDPTruncationDropped(t *testing.T) {
	// Listener with small slots, dialer allowed to send bigger: the
	// oversized datagram must be counted and dropped, not delivered
	// short.
	l, err := ListenUDP("127.0.0.1:0", &UDPLink{MaxPacket: 512})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	accCh := make(chan Conn, 1)
	go func() {
		c, err := l.Accept()
		if err == nil {
			accCh <- c
		}
	}()
	d, err := DialUDP(l.Addr(), &UDPLink{MaxPacket: 2048})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	ac := <-accCh
	defer ac.Close()

	before := mUDPTrunc.Value()
	if err := d.Send(bytes.Repeat([]byte{1}, 1024)); err != nil {
		t.Fatal(err)
	}
	if _, err := ac.RecvTimeout(200 * time.Millisecond); err != ErrRecvTimeout {
		t.Fatalf("truncated datagram delivered: err=%v", err)
	}
	if mUDPTrunc.Value() == before {
		t.Fatal("truncation not counted")
	}
	// An in-budget datagram still flows.
	if err := d.Send([]byte("fits")); err != nil {
		t.Fatal(err)
	}
	if got := recvOne(t, ac); string(got) != "fits" {
		t.Fatalf("got %q", got)
	}
}

func TestUDPFrameParse(t *testing.T) {
	var h [udpHeaderSize]byte
	putUDPHeader(&h, frameData, 0xDEADBEEF)
	ftype, id, payload, err := parseUDPFrame(append(h[:], 'h', 'i'))
	if err != nil || ftype != frameData || id != 0xDEADBEEF || string(payload) != "hi" {
		t.Fatalf("round trip: %d %x %q %v", ftype, id, payload, err)
	}
	bad := [][]byte{
		nil,
		h[:4],                           // short
		{1, 2, 3, 4, 5, 6, 7, 8},        // bad magic
		{udpMagic, 0, 0, 0, 0, 0, 0, 0}, // zero type
		{udpMagic, frameTypeMax + 1, 0, 0, 0, 0, 0, 0}, // unknown type
		{udpMagic, frameData, 1, 0, 0, 0, 0, 0},        // reserved set
	}
	for i, p := range bad {
		if _, _, _, err := parseUDPFrame(p); err == nil {
			t.Fatalf("bad frame %d accepted", i)
		}
	}
}
