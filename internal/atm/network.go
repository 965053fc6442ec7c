package atm

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"ncs/internal/buf"
	"ncs/internal/netsim"
)

// Signaling and VC errors.
var (
	ErrUnknownHost   = errors.New("atm: unknown host")
	ErrVCClosed      = errors.New("atm: virtual circuit closed")
	ErrNetworkClosed = errors.New("atm: network closed")
	ErrRecvTimeout   = errors.New("atm: receive timeout")
)

// QoS is the traffic contract requested when a virtual circuit is
// established. NCS configures each connection's QoS independently — the
// architectural property the paper calls "compatible with the ATM
// technology where ... each connection can be configured to meet the QOS
// requirements of that connection".
type QoS struct {
	// PeakCellRate is the cell rate in cells/second. Zero means
	// unconstrained (the simulator transmits instantaneously).
	PeakCellRate int64
	// Delay is the one-way propagation delay of the path.
	Delay time.Duration
	// CellLossRate is the probability a cell is dropped in transit.
	CellLossRate float64
	// CellCorruptRate is the probability a cell byte is corrupted.
	CellCorruptRate float64
	// Seed makes loss/corruption/impairments reproducible; zero uses a
	// default.
	Seed int64
	// Impair applies programmable cell-level impairments (duplication,
	// reordering, burst loss, partition) to the circuit, on top of
	// whatever the routed path's links contribute. Reordered or
	// duplicated cells inside one AAL5 frame break its CRC, so at the
	// frame level these largely manifest as loss — exactly how a real
	// misbehaving ATM fabric presents to AAL5.
	Impair netsim.Impairments
	// Schedule drives the circuit's impairments through a deterministic
	// sequence of packet-count-keyed phases (see netsim.Phase). It is a
	// circuit-level contract; per-link Impair config from a Topology is
	// folded into each phase's steady state by Dial.
	Schedule []netsim.Phase
}

func (q QoS) linkParams() netsim.Params {
	var bw int64
	if q.PeakCellRate > 0 {
		bw = q.PeakCellRate * CellSize
	}
	return netsim.Params{
		Bandwidth:   bw,
		Delay:       q.Delay,
		LossRate:    q.CellLossRate,
		CorruptRate: q.CellCorruptRate,
		Seed:        q.Seed,
		Impair:      q.Impair,
		Schedule:    q.Schedule,
	}
}

// combineImpair merges two impairment configurations the way a path
// composes its links: independent duplication/reorder probabilities
// compound, jitters add (delays accumulate hop by hop), a partition
// anywhere partitions the path, and the burst-loss model with the
// larger long-run loss (SteadyLoss) dominates — merging the Markov
// chains exactly is not worth the state explosion for a simulator,
// but the dominance metric must see good-state loss too, since that
// is how i.i.d. loss is expressed on the impairment RNG stream.
func combineImpair(a, b netsim.Impairments) netsim.Impairments {
	out := netsim.Impairments{
		DupRate:       1 - (1-a.DupRate)*(1-b.DupRate),
		ReorderRate:   1 - (1-a.ReorderRate)*(1-b.ReorderRate),
		ReorderJitter: a.ReorderJitter + b.ReorderJitter,
		Partitioned:   a.Partitioned || b.Partitioned,
		Burst:         a.Burst,
	}
	if b.Burst.SteadyLoss() > a.Burst.SteadyLoss() {
		out.Burst = b.Burst
	}
	return out
}

// Network is a simulated ATM network: a set of named hosts that can
// signal virtual circuits to one another. Without a Topology the
// fabric is collapsed per circuit (every VC gets exactly its requested
// QoS); with one, circuits are routed across switches, admitted
// against link capacity, and shaped by the path they take.
type Network struct {
	mu     sync.Mutex
	hosts  map[string]*Host
	topo   *Topology
	nextVC uint16
	closed bool
}

// NewNetwork creates an empty ATM network with a collapsed fabric.
func NewNetwork() *Network {
	return &Network{hosts: make(map[string]*Host), nextVC: 32}
}

// NewNetworkWithTopology creates a network whose circuits are routed
// over the given switched fabric with connection admission control.
// Hosts must be attached to switches via Topology.AttachHost before
// they Dial.
func NewNetworkWithTopology(t *Topology) *Network {
	return &Network{hosts: make(map[string]*Host), topo: t, nextVC: 32}
}

// Host registers (or returns) the host with the given name.
func (n *Network) Host(name string) *Host {
	n.mu.Lock()
	defer n.mu.Unlock()
	if h, ok := n.hosts[name]; ok {
		return h
	}
	h := &Host{
		name:     name,
		network:  n,
		incoming: make(chan *VC, 16),
	}
	n.hosts[name] = h
	return h
}

// Close tears down the network; subsequent Dial calls fail.
func (n *Network) Close() {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.closed {
		return
	}
	n.closed = true
	for _, h := range n.hosts {
		close(h.incoming)
	}
}

func (n *Network) allocVCI() uint16 {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.nextVC++
	return n.nextVC
}

// Host is an endpoint attached to the ATM network.
type Host struct {
	name     string
	network  *Network
	incoming chan *VC
}

// Name returns the host's registered name.
func (h *Host) Name() string { return h.name }

// Dial establishes a virtual circuit to the named remote host with the
// requested QoS. It performs the signaling exchange — including, on a
// switched topology, routing and connection admission control — and
// returns the local end of the VC.
func (h *Host) Dial(remote string, qos QoS) (*VC, error) {
	h.network.mu.Lock()
	if h.network.closed {
		h.network.mu.Unlock()
		return nil, ErrNetworkClosed
	}
	peer, ok := h.network.hosts[remote]
	topo := h.network.topo
	h.network.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrUnknownHost, remote)
	}

	effective := qos
	var path []edgeKey
	if topo != nil {
		var err error
		path, err = topo.route(h.name, remote)
		if err != nil {
			return nil, err
		}
		derived, err := topo.admit(path, qos.PeakCellRate)
		if err != nil {
			return nil, err
		}
		// The circuit experiences the path: summed propagation,
		// compounded loss, composed impairments, and the admitted (or
		// bottleneck) cell rate, on top of whatever the caller requested.
		effective.Delay = qos.Delay + derived.Delay
		effective.CellLossRate = 1 - (1-qos.CellLossRate)*(1-derived.CellLossRate)
		effective.PeakCellRate = derived.PeakCellRate
		if len(qos.Schedule) > 0 {
			// A scheduled circuit keeps its phase structure; the path's
			// per-link impairments fold into every phase's steady state.
			sched := make([]netsim.Phase, len(qos.Schedule))
			for i, ph := range qos.Schedule {
				sched[i] = netsim.Phase{Packets: ph.Packets, Imp: combineImpair(ph.Imp, derived.Impair)}
			}
			effective.Schedule = sched
		} else {
			effective.Impair = combineImpair(qos.Impair, derived.Impair)
		}
	}

	vci := h.network.allocVCI()
	p := effective.linkParams()
	local, remoteEnd := netsim.Pipe(p, p)
	caller := &VC{
		vci: vci, qos: effective, link: local,
		localHost: h.name, remoteHost: remote,
		topo: topo, path: path, reservedPCR: qos.PeakCellRate,
	}
	callee := &VC{vci: vci, qos: effective, link: remoteEnd, localHost: remote, remoteHost: h.name}

	// Signaling: offer the VC to the remote host's accept queue.
	defer func() {
		if r := recover(); r != nil {
			// The network closed concurrently; surface as an error path
			// is not possible from a deferred recover, so the caller VC
			// is simply closed.
			caller.Close()
		}
	}()
	peer.incoming <- callee
	return caller, nil
}

// Accept blocks until a remote host establishes a VC to this host, then
// returns the local end.
func (h *Host) Accept() (*VC, error) {
	vc, ok := <-h.incoming
	if !ok {
		return nil, ErrNetworkClosed
	}
	return vc, nil
}

// VC is one end of an established virtual circuit. It sends and receives
// AAL5 frames; segmentation into cells and reassembly happen internally,
// with CRC-verified integrity. Cells damaged or lost on the wire cause
// the whole frame to be dropped (standard AAL5 behaviour); RecvFrame
// transparently skips dropped frames and returns the next intact one,
// while CorruptionsSeen counts the drops so tests and benchmarks can
// observe the loss process.
type VC struct {
	vci        uint16
	qos        QoS
	link       *netsim.Endpoint
	localHost  string
	remoteHost string

	// Set on the dialing end of circuits routed over a Topology, so
	// Close releases the admitted capacity.
	topo        *Topology
	path        []edgeKey
	reservedPCR int64

	// sendMu keeps one frame's cells contiguous on the circuit: AAL5
	// has no per-cell frame id, so two callers interleaving cells on one
	// VCI would fail the CRC of both frames.
	sendMu sync.Mutex

	mu     sync.Mutex
	reass  Reassembler
	drops  int
	closed bool
}

// VCI returns the circuit identifier assigned at signaling time.
func (vc *VC) VCI() uint16 { return vc.vci }

// QoS returns the circuit's traffic contract.
func (vc *VC) QoS() QoS { return vc.qos }

// RemoteHost returns the peer host name.
func (vc *VC) RemoteHost() string { return vc.remoteHost }

// SendFrame transmits one AAL5 frame (at most MaxFrameSize bytes). The
// frame is staged in a pooled buffer and each cell is marshalled into
// a pooled buffer handed zero-copy to the link — the hot path never
// materialises Cell values.
func (vc *VC) SendFrame(payload []byte) error {
	if len(payload) > MaxFrameSize {
		return fmt.Errorf("%w: %d bytes", ErrFrameTooLarge, len(payload))
	}
	total := frameLength(len(payload))
	fb := buf.Get(total)
	defer fb.Release()
	copy(fb.B, payload)
	finishAAL5Frame(fb.B, len(payload))

	vc.sendMu.Lock()
	defer vc.sendMu.Unlock()
	for off := 0; off < total; off += CellPayloadSize {
		var pti uint8
		if off+CellPayloadSize == total {
			pti = 1 // end of frame
		}
		cb := buf.GetCap(CellSize)
		cb.B = AppendCell(cb.B, 0, vc.vci, pti, false, fb.B[off:off+CellPayloadSize])
		if err := vc.link.SendBuf(cb); err != nil {
			return vc.mapErr(err)
		}
	}
	return nil
}

// RecvFrame returns the next intact AAL5 frame. Frames that fail CRC or
// lose cells are counted and skipped.
func (vc *VC) RecvFrame() ([]byte, error) {
	b, err := vc.recvFrame(0)
	if err != nil {
		return nil, err
	}
	return b.TakeBytes(), nil
}

// RecvFrameBuf is RecvFrame returning the reassembler's pooled staging
// buffer; the caller owns it and must Release.
func (vc *VC) RecvFrameBuf() (*buf.Buffer, error) { return vc.recvFrame(0) }

// RecvFrameTimeout is RecvFrame with an overall deadline; it returns
// ErrRecvTimeout if no intact frame completes within d.
func (vc *VC) RecvFrameTimeout(d time.Duration) ([]byte, error) {
	b, err := vc.recvFrame(d)
	if err != nil {
		return nil, err
	}
	return b.TakeBytes(), nil
}

// RecvFrameBufTimeout is RecvFrameBuf with an overall deadline.
func (vc *VC) RecvFrameBufTimeout(d time.Duration) (*buf.Buffer, error) {
	return vc.recvFrame(d)
}

func (vc *VC) recvFrame(timeout time.Duration) (*buf.Buffer, error) {
	var deadline time.Time
	if timeout > 0 {
		deadline = time.Now().Add(timeout)
	}
	for {
		var raw *buf.Buffer
		var err error
		if timeout > 0 {
			remain := time.Until(deadline)
			if remain <= 0 {
				return nil, ErrRecvTimeout
			}
			raw, err = vc.link.RecvBufTimeout(remain)
			if errors.Is(err, netsim.ErrTimeout) {
				return nil, ErrRecvTimeout
			}
		} else {
			raw, err = vc.link.RecvBuf()
		}
		if err != nil {
			return nil, vc.mapErr(err)
		}
		vc.mu.Lock()
		b, err := vc.pushCell(raw)
		vc.mu.Unlock()
		if b != nil || err != nil {
			return b, err
		}
	}
}

// TryRecvFrameBuf is RecvFrameBuf that never blocks: it pushes the
// cells that have arrived through the reassembler and returns nil when
// they complete no frame. With SetRecvNotify it makes the circuit
// pollable. A circuit has one reader: this, or the blocking receives.
func (vc *VC) TryRecvFrameBuf() (*buf.Buffer, error) {
	vc.mu.Lock()
	defer vc.mu.Unlock()
	for {
		raw, err := vc.link.TryRecvBuf()
		if raw == nil {
			return nil, vc.mapErr(err)
		}
		if b, err := vc.pushCell(raw); b != nil || err != nil {
			return b, err
		}
	}
}

// SetRecvNotify hooks the arrival of every cell and the circuit's close
// (see netsim.Endpoint.SetRecvNotify).
func (vc *VC) SetRecvNotify(fn func()) { vc.link.SetRecvNotify(fn) }

// pushCell feeds one arrived cell, released here, to the reassembler
// under vc.mu, and returns the intact frame it completes.
func (vc *VC) pushCell(raw *buf.Buffer) (*buf.Buffer, error) {
	cell, err := UnmarshalCell(raw.B)
	raw.Release()
	if err != nil {
		// Header corruption: the cell is undeliverable; the frame it
		// belonged to will fail CRC/length at end-of-frame, or we
		// lose the end bit and the length guard recovers. Count it
		// as a drop event now and also reset reassembly, because a
		// missing end-bit would otherwise merge two frames.
		vc.drops++
		vc.reass.Reset()
		return nil, nil
	}
	if vc.closed {
		// Close already reset the reassembler; staging this cell
		// would re-pin a pooled buffer nothing will release.
		return nil, ErrVCClosed
	}
	payload, _, err := vc.reass.PushFrame(cell) // nil until a frame completes intact
	if err != nil {
		vc.drops++
	}
	return payload, nil
}

// FramesDropped reports how many frames were discarded due to cell loss
// or corruption since the VC was established.
func (vc *VC) FramesDropped() int {
	vc.mu.Lock()
	defer vc.mu.Unlock()
	return vc.drops
}

// SetImpairments replaces the cell-level impairments applied to the
// circuit's transmit direction mid-run, cancelling any remaining
// schedule. Each end of the VC impairs its own transmit side.
func (vc *VC) SetImpairments(imp netsim.Impairments) { vc.link.SetImpairments(imp) }

// Partition cuts the circuit's transmit direction (cells silently
// dropped) until Heal.
func (vc *VC) Partition() { vc.link.Partition() }

// Heal reopens a transmit direction cut by Partition.
func (vc *VC) Heal() { vc.link.Heal() }

// ImpairStats reports the cell-level impairment decisions made on the
// circuit's transmit direction.
func (vc *VC) ImpairStats() netsim.ImpairStats { return vc.link.ImpairStats() }

// Close releases the circuit, returning any admitted capacity to the
// fabric and dropping any partially reassembled frame (whose pooled
// staging buffer would otherwise never return to its pool).
func (vc *VC) Close() error {
	vc.mu.Lock()
	if vc.closed {
		vc.mu.Unlock()
		return nil
	}
	vc.closed = true
	vc.reass.Reset()
	vc.mu.Unlock()
	if vc.topo != nil {
		vc.topo.release(vc.path, vc.reservedPCR)
		vc.topo = nil
	}
	return vc.link.Close()
}

func (vc *VC) mapErr(err error) error {
	if errors.Is(err, netsim.ErrClosed) {
		return ErrVCClosed
	}
	return err
}
