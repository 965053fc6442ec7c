package netsim

import (
	"bytes"
	"sync"
	"testing"
	"time"
)

func TestBasicDelivery(t *testing.T) {
	a, b := Pipe(Params{}, Params{})
	defer a.Close()
	defer b.Close()

	want := []byte("hello over the wire")
	if err := a.Send(want); err != nil {
		t.Fatal(err)
	}
	got, err := b.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("got %q, want %q", got, want)
	}
}

func TestDuplex(t *testing.T) {
	a, b := Pipe(Params{}, Params{})
	defer a.Close()
	defer b.Close()

	if err := a.Send([]byte("ping")); err != nil {
		t.Fatal(err)
	}
	if p, _ := b.Recv(); string(p) != "ping" {
		t.Fatalf("b received %q", p)
	}
	if err := b.Send([]byte("pong")); err != nil {
		t.Fatal(err)
	}
	if p, _ := a.Recv(); string(p) != "pong" {
		t.Fatalf("a received %q", p)
	}
}

func TestOrderingPreserved(t *testing.T) {
	a, b := Pipe(Params{Delay: 200 * time.Microsecond}, Params{})
	defer a.Close()
	defer b.Close()

	const n = 50
	for i := 0; i < n; i++ {
		if err := a.Send([]byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < n; i++ {
		p, err := b.Recv()
		if err != nil {
			t.Fatal(err)
		}
		if p[0] != byte(i) {
			t.Fatalf("packet %d arrived out of order: got %d", i, p[0])
		}
	}
}

func TestSenderCopiesPayload(t *testing.T) {
	a, b := Pipe(Params{}, Params{})
	defer a.Close()
	defer b.Close()

	p := []byte("mutate me")
	if err := a.Send(p); err != nil {
		t.Fatal(err)
	}
	p[0] = 'X'
	got, _ := b.Recv()
	if string(got) != "mutate me" {
		t.Fatalf("payload aliased sender buffer: %q", got)
	}
}

func TestPropagationDelay(t *testing.T) {
	const delay = 30 * time.Millisecond
	a, b := Pipe(Params{Delay: delay}, Params{})
	defer a.Close()
	defer b.Close()

	start := time.Now()
	if err := a.Send([]byte("x")); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Recv(); err != nil {
		t.Fatal(err)
	}
	if got := time.Since(start); got < delay {
		t.Fatalf("delivery took %v, want >= %v", got, delay)
	}
}

func TestBandwidthSerialisation(t *testing.T) {
	// 1 MB/s and a 10 KB packet => >= 10 ms of transmission time.
	a, b := Pipe(Params{Bandwidth: 1 << 20}, Params{})
	defer a.Close()
	defer b.Close()

	start := time.Now()
	if err := a.Send(make([]byte, 10*1024)); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Recv(); err != nil {
		t.Fatal(err)
	}
	if got := time.Since(start); got < 9*time.Millisecond {
		t.Fatalf("10KB at 1MB/s took %v, want ~10ms", got)
	}
}

func TestSendBufferBlocks(t *testing.T) {
	// Buffer of 8 KB, slow link: the second large send must block until
	// the first drains.
	a, b := Pipe(Params{Bandwidth: 1 << 20, BufferBytes: 8 * 1024}, Params{})
	defer a.Close()
	defer b.Close()

	if err := a.Send(make([]byte, 8*1024)); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	if err := a.Send(make([]byte, 8*1024)); err != nil {
		t.Fatal(err)
	}
	blocked := time.Since(start)
	if blocked < 5*time.Millisecond {
		t.Fatalf("second send returned after %v; expected to block ~8ms", blocked)
	}
	for i := 0; i < 2; i++ {
		if _, err := b.Recv(); err != nil {
			t.Fatal(err)
		}
	}
}

func TestTrySendBackpressure(t *testing.T) {
	a, b := Pipe(Params{Bandwidth: 1 << 18, BufferBytes: 4 * 1024}, Params{})
	defer a.Close()
	defer b.Close()

	ok, err := a.TrySend(make([]byte, 4*1024))
	if err != nil || !ok {
		t.Fatalf("first TrySend = %v, %v", ok, err)
	}
	ok, err = a.TrySend(make([]byte, 4*1024))
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Fatal("second TrySend succeeded; buffer should be full")
	}
	if a.Buffered() == 0 {
		t.Error("Buffered() = 0 while packet in flight")
	}
	if _, err := b.Recv(); err != nil {
		t.Fatal(err)
	}
}

func TestLoss(t *testing.T) {
	a, b := Pipe(Params{LossRate: 1.0}, Params{})
	defer b.Close()

	for i := 0; i < 5; i++ {
		if err := a.Send([]byte("doomed")); err != nil {
			t.Fatal(err)
		}
	}
	a.Close()
	if _, err := b.Recv(); err != ErrClosed {
		t.Fatalf("Recv on all-loss link: err = %v, want ErrClosed", err)
	}
}

func TestPartialLossStatistics(t *testing.T) {
	a, b := Pipe(Params{LossRate: 0.5, Seed: 7}, Params{})
	defer b.Close()

	const n = 200
	for i := 0; i < n; i++ {
		if err := a.Send([]byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	a.Close()
	got := 0
	for {
		if _, err := b.Recv(); err != nil {
			break
		}
		got++
	}
	if got == 0 || got == n {
		t.Fatalf("with 50%% loss, delivered %d of %d", got, n)
	}
}

func TestCorruption(t *testing.T) {
	a, b := Pipe(Params{CorruptRate: 1.0}, Params{})
	defer a.Close()
	defer b.Close()

	orig := bytes.Repeat([]byte{0x55}, 64)
	if err := a.Send(orig); err != nil {
		t.Fatal(err)
	}
	got, err := b.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(got, bytes.Repeat([]byte{0x55}, 64)) {
		t.Fatal("packet not corrupted despite CorruptRate=1")
	}
}

func TestCloseUnblocksReceiver(t *testing.T) {
	a, b := Pipe(Params{}, Params{})
	defer b.Close()

	errCh := make(chan error, 1)
	go func() {
		_, err := b.Recv()
		errCh <- err
	}()
	time.Sleep(5 * time.Millisecond)
	a.Close()
	select {
	case err := <-errCh:
		if err != ErrClosed {
			t.Fatalf("err = %v, want ErrClosed", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Recv did not unblock after Close")
	}
}

func TestSendAfterClose(t *testing.T) {
	a, b := Pipe(Params{}, Params{})
	defer b.Close()
	a.Close()
	if err := a.Send([]byte("x")); err != ErrClosed {
		t.Fatalf("Send after Close: err = %v", err)
	}
}

func TestCloseIsIdempotent(t *testing.T) {
	a, b := Pipe(Params{}, Params{})
	defer b.Close()
	a.Close()
	a.Close()
	a.Close()
}

func TestConcurrentSenders(t *testing.T) {
	a, b := Pipe(Params{}, Params{})
	defer a.Close()
	defer b.Close()

	const senders, per = 8, 25
	var wg sync.WaitGroup
	for s := 0; s < senders; s++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				if err := a.Send([]byte{1}); err != nil {
					t.Errorf("send: %v", err)
					return
				}
			}
		}()
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < senders*per; i++ {
			if _, err := b.Recv(); err != nil {
				t.Errorf("recv %d: %v", i, err)
				return
			}
		}
	}()
	wg.Wait()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("timed out draining packets")
	}
}

// TestRecvTimeoutReusesOneTimer: a timed receive that finds a packet
// queued arms nothing; one that must wait arms the direction's single
// timer, which later waits re-arm instead of rebuilding; concurrent
// timed receivers share it and still each time out at their own
// deadline.
func TestRecvTimeoutReusesOneTimer(t *testing.T) {
	a, b := Pipe(Params{}, Params{})
	defer a.Close()
	defer b.Close()

	if err := a.Send([]byte("queued")); err != nil {
		t.Fatal(err)
	}
	if _, err := b.RecvTimeout(time.Second); err != nil {
		t.Fatal(err)
	}
	if b.recv.recvDL != nil {
		t.Fatal("a timed receive of an already-queued packet armed a timer")
	}

	if _, err := b.RecvTimeout(5 * time.Millisecond); err != ErrTimeout {
		t.Fatalf("empty link: err = %v, want ErrTimeout", err)
	}
	if b.recv.recvDL == nil {
		t.Fatal("a blocked timed receive armed no timer")
	}
	first := b.recv.recvDL.timer

	const short, long = 20 * time.Millisecond, 120 * time.Millisecond
	type result struct {
		err     error
		blocked time.Duration
	}
	wait := func(d time.Duration) chan result {
		ch := make(chan result, 1)
		go func() {
			start := time.Now()
			_, err := b.RecvTimeout(d)
			ch <- result{err, time.Since(start)}
		}()
		return ch
	}
	longCh, shortCh := wait(long), wait(short)
	if r := <-shortCh; r.err != ErrTimeout || r.blocked < short || r.blocked >= long {
		t.Fatalf("short receiver: err=%v after %v, want ErrTimeout in [%v, %v)", r.err, r.blocked, short, long)
	}
	if r := <-longCh; r.err != ErrTimeout || r.blocked < long {
		t.Fatalf("long receiver: err=%v after %v, want ErrTimeout no sooner than %v", r.err, r.blocked, long)
	}

	// A waiter woken by an arrival leaves the timer stopped.
	got := wait(time.Second)
	time.Sleep(5 * time.Millisecond)
	if err := a.Send([]byte("late")); err != nil {
		t.Fatal(err)
	}
	if r := <-got; r.err != nil {
		t.Fatalf("receiver woken by an arrival: %v", r.err)
	}
	b.recv.mu.Lock()
	defer b.recv.mu.Unlock()
	dl := b.recv.recvDL
	if dl.timer != first {
		t.Fatal("later timed receives built a new timer")
	}
	if !dl.at.IsZero() || dl.waiters != 0 {
		t.Fatalf("timer left armed with no waiter (at=%v waiters=%d)", dl.at, dl.waiters)
	}
}
