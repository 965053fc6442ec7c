// Package platform models the 1998 computing platforms of the paper's
// evaluation — SUN-4 workstations under SunOS 5.5 and IBM RS/6000s
// under AIX 4.1 — so the benchmark harness can regenerate the shapes of
// Figures 12 and 13 without the original hardware.
//
// The model is structural where it matters and calibrated where it
// must be:
//
//   - protocol behaviour (XDR conversion, PVM's daemon hop, MPI's
//     rendezvous handshake, NCS's split control path) is executed for
//     real by the respective packages;
//   - platform speed (buffer copies, system calls, per-packet stack
//     processing) is injected as a per-operation tax on the transport,
//     using constants calibrated from the paper's published curves;
//   - platform idiosyncrasies called out by the figures (the p4/MPICH
//     socket path on SunOS issuing many small writes, which is why both
//     degrade on the SUN-4 but not on AIX) are expressed as a write
//     chunking limit.
//
// Substitution note (DESIGN.md §3): we claim shape fidelity — who wins,
// by roughly what factor, and where curves cross — not absolute 1998
// microseconds.
package platform

import (
	"sync/atomic"
	"time"

	"ncs/internal/buf"
	"ncs/internal/transport"
)

// Platform describes one host type's messaging-relevant costs.
type Platform struct {
	// Name identifies the platform in reports.
	Name string
	// SyscallUS is the fixed cost of entering the kernel for one
	// send/receive call, in microseconds.
	SyscallUS float64
	// CopyUSPerKB is the cost of staging one kilobyte through a buffer
	// copy (protocol stack copy + checksum), in microseconds.
	CopyUSPerKB float64
	// WriteChunk bounds the bytes accepted per socket write on this
	// platform's stack; writes larger than this pay one syscall per
	// chunk. Zero means unchunked.
	WriteChunk int
	// XDRUSPerKB is the cost of converting one kilobyte to or from the
	// external data representation, in microseconds. Charged by the
	// benchmark adapters wherever a system converts (PVM always;
	// p4/MPI on heterogeneous pairs).
	XDRUSPerKB float64
}

// The paper's two platforms. The constants are calibrated so that the
// simulated echo benchmark reproduces the published orderings: the
// SUN-4 is copy- and syscall-expensive (60 MHz microSPARC class), the
// RS/6000 is several times faster on both axes.
var (
	SUN4 = Platform{
		Name:        "SUN-4/SunOS 5.5",
		SyscallUS:   180,
		CopyUSPerKB: 55,
		WriteChunk:  1460, // SunOS-era MTU-sized socket writes (p4/MPICH path)
		XDRUSPerKB:  35,   // Sun's libnsl XDR was comparatively tuned;
		// conversion hides behind the slow SunOS socket path (the
		// published Figure 12 shows PVM tracking NCS on the SUN-4).
	}
	RS6000 = Platform{
		Name:        "RS6000/AIX 4.1",
		SyscallUS:   40,
		CopyUSPerKB: 12,
		WriteChunk:  0,
		XDRUSPerKB:  80, // conversion barely faster than the SUN's:
		// XDR's byte-wise marshalling did not scale with memcpy speed,
		// which is why PVM places last on the otherwise-fast RS6000.
	}
)

// Heterogeneous reports whether two platforms need data conversion.
func Heterogeneous(a, b Platform) bool { return a.Name != b.Name }

// sendCost returns the time tax for transmitting n bytes.
func (p Platform) sendCost(n int) time.Duration {
	chunks := 1
	if p.WriteChunk > 0 && n > p.WriteChunk {
		chunks = (n + p.WriteChunk - 1) / p.WriteChunk
	}
	us := p.SyscallUS*float64(chunks) + p.CopyUSPerKB*float64(n)/1024
	return time.Duration(us * float64(time.Microsecond))
}

// recvCost returns the time tax for receiving n bytes.
func (p Platform) recvCost(n int) time.Duration {
	us := p.SyscallUS + p.CopyUSPerKB*float64(n)/1024
	return time.Duration(us * float64(time.Microsecond))
}

// TaxedConn wraps a transport.Conn, charging the platform's send and
// receive costs on every operation. It is how benchmark topologies put
// a 1998 CPU in front of a simulated link.
type TaxedConn struct {
	inner transport.Conn
	plat  Platform
}

var _ transport.Conn = (*TaxedConn)(nil)

// Tax wraps conn with the platform's per-operation costs.
func Tax(conn transport.Conn, plat Platform) *TaxedConn {
	return &TaxedConn{inner: conn, plat: plat}
}

// Send charges the platform send cost, then forwards.
func (t *TaxedConn) Send(p []byte) error {
	busyWait(t.plat.sendCost(len(p)))
	return t.inner.Send(p)
}

// SendBuf charges the platform send cost, then forwards the buffer.
func (t *TaxedConn) SendBuf(b *buf.Buffer) error {
	busyWait(t.plat.sendCost(b.Len()))
	return t.inner.SendBuf(b)
}

// SendBatch charges the per-packet send cost for every packet — a 1998
// stack had no vectored fast path, so coalescing must not dodge the
// modelled syscall and copy taxes — then forwards the batch.
func (t *TaxedConn) SendBatch(bs []*buf.Buffer) error {
	for _, b := range bs {
		busyWait(t.plat.sendCost(b.Len()))
	}
	return t.inner.SendBatch(bs)
}

// Recv forwards, then charges the platform receive cost.
func (t *TaxedConn) Recv() ([]byte, error) {
	p, err := t.inner.Recv()
	if err != nil {
		return nil, err
	}
	busyWait(t.plat.recvCost(len(p)))
	return p, nil
}

// RecvBuf forwards, then charges the platform receive cost.
func (t *TaxedConn) RecvBuf() (*buf.Buffer, error) {
	b, err := t.inner.RecvBuf()
	if err != nil {
		return nil, err
	}
	busyWait(t.plat.recvCost(b.Len()))
	return b, nil
}

// RecvTimeout forwards with the deadline, then charges the receive cost.
func (t *TaxedConn) RecvTimeout(d time.Duration) ([]byte, error) {
	p, err := t.inner.RecvTimeout(d)
	if err != nil {
		return nil, err
	}
	busyWait(t.plat.recvCost(len(p)))
	return p, nil
}

// RecvBufTimeout forwards with the deadline, then charges the receive
// cost.
func (t *TaxedConn) RecvBufTimeout(d time.Duration) (*buf.Buffer, error) {
	b, err := t.inner.RecvBufTimeout(d)
	if err != nil {
		return nil, err
	}
	busyWait(t.plat.recvCost(b.Len()))
	return b, nil
}

// TryRecvBuf polls the wrapped connection and charges the receive cost
// of what it took on the goroutine that reads.
func (t *TaxedConn) TryRecvBuf() (*buf.Buffer, error) {
	b, err := t.inner.TryRecvBuf()
	if b != nil {
		busyWait(t.plat.recvCost(b.Len()))
	}
	return b, err
}

// SetRecvNotify hooks the wrapped connection's arrivals.
func (t *TaxedConn) SetRecvNotify(fn func()) { t.inner.SetRecvNotify(fn) }

// Close closes the wrapped connection.
func (t *TaxedConn) Close() error { return t.inner.Close() }

// MaxPacket reports the wrapped connection's limit.
func (t *TaxedConn) MaxPacket() int { return t.inner.MaxPacket() }

// Kind reports the wrapped connection's interface kind.
func (t *TaxedConn) Kind() transport.Kind { return t.inner.Kind() }

// Platform returns the platform whose costs this connection charges.
func (t *TaxedConn) Platform() Platform { return t.plat }

// Unwrap exposes the wrapped connection, letting transport-level
// helpers (e.g. transport.Impair) reach the underlying link.
func (t *TaxedConn) Unwrap() transport.Conn { return t.inner }

// XDRCost returns the conversion tax for n bytes on this platform.
func (p Platform) XDRCost(n int) time.Duration {
	return time.Duration(p.XDRUSPerKB * float64(n) / 1024 * float64(time.Microsecond))
}

// Charge blocks for d, spinning for short durations so that sleep
// granularity does not distort microsecond-scale costs. Benchmark
// adapters use it to bill conversion work.
func Charge(d time.Duration) { busyWait(d) }

// charged is the sum of every cost billed through busyWait.
var charged atomic.Int64

// Charged returns the modelled cost billed so far, process-wide: every
// platform tax, conversion and calibrated stall, as asked for rather
// than as slept. The difference across an experiment is what the model
// made it cost, independent of how the host scheduled it.
func Charged() time.Duration { return time.Duration(charged.Load()) }

// busyWait charges a CPU-time cost. Durations under ~100µs are spun
// (sleep granularity would distort them); longer ones sleep.
func busyWait(d time.Duration) {
	if d <= 0 {
		return
	}
	charged.Add(int64(d))
	if d > 200*time.Microsecond {
		time.Sleep(d)
		return
	}
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
	}
}
