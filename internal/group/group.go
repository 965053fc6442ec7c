// Package group provides NCS group communication and synchronisation
// services (§2: "communication services (e.g., point-to-point
// communication, group communication, synchronization)"): process
// groups with ranks, collectives over a selectable multicast algorithm
// (repetitive or spanning tree, per §2's algorithm list), reduction,
// and barrier synchronisation.
//
// A Group is a collective communicator: every member must call the same
// collective operation (Broadcast, Reduce, Barrier, Scatter, Gather,
// AllGather, ReduceScatter, AllToAll, AllReduce) in the same order, as
// in MPI. The group owns its mesh of NCS connections; do not reuse them
// for point-to-point traffic.
//
// Nonblocking variants (IBroadcast, IAllReduce, IAllGather) enqueue
// the operation on the member's collective engine and return an
// awaitable Handle immediately; see nonblocking.go. Submission order
// is execution order, so mixing blocking and nonblocking calls keeps
// the communicator contract: blocking collectives drain the pending
// queue before they run.
//
// # The collective engine
//
// Every transfer is a tagged frame: a 17-byte header carrying the
// operation code, a per-member collective sequence number, and chunk
// coordinates, followed by the payload. The tag advances identically on
// every member (one increment per collective call), so a member that
// falls out of step — calling Broadcast where the others call Reduce,
// or skipping a collective — is detected as a mismatch error instead of
// silently combining the wrong bytes.
//
// Every operation runs under the group's deadline (Config.Deadline,
// SetDeadline): receive waits are plumbed down to the connection's
// RecvTimeout, so the death of a member or the loss of an unreliable
// frame surfaces as an error within the deadline instead of a hang.
//
// Large broadcasts are pipelined: the payload is split into
// Config.ChunkSize chunks that flow down the multicast tree
// back-to-back, so an interior rank forwards chunk k while the wire
// delivers chunk k+1 from its parent. Dissemination of an M-byte
// message then costs ~M + chunk·⌈log₂ n⌉ instead of M·⌈log₂ n⌉ on the
// spanning tree's critical path.
//
// Frame staging goes through the pooled buffer pipeline
// (internal/buf), and received payloads are returned as views of the
// delivered message wherever the API allows, rather than copies.
//
// Members built over non-fast-path connections receive through one
// shared core.Inbox per member rather than per-connection waits: on the
// sharded runtime a group's whole mesh costs O(shards) goroutines, not
// O(n²).
package group

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"sort"
	"time"
	"unsafe"

	"ncs/internal/buf"
	"ncs/internal/core"
	"ncs/internal/mcast"
)

// Errors returned by group operations.
var (
	ErrBadRank       = errors.New("group: rank out of range")
	ErrTooSmall      = errors.New("group: need at least one member")
	ErrDuplicateName = errors.New("group: duplicate system name")
	// ErrDeadline is returned when a collective's receive side did not
	// complete within the group deadline (Config.Deadline).
	ErrDeadline = errors.New("group: collective deadline exceeded")
	// ErrMismatch is returned when a frame arrives for a different
	// collective than the one this member is executing — the members
	// have fallen out of step.
	ErrMismatch = errors.New("group: collective mismatch")
)

// Defaults for Config.
const (
	// DefaultDeadline bounds each collective operation.
	DefaultDeadline = 30 * time.Second
	// DefaultChunkSize is the broadcast pipelining unit.
	DefaultChunkSize = 32 * 1024
)

// connCheckInterval paces the inbox receive loop's liveness check: a
// member blocked on a frame re-examines the source connection at this
// interval so a peer's death surfaces promptly instead of only at the
// operation deadline.
const connCheckInterval = 20 * time.Millisecond

// Config tunes a group's collective engine.
type Config struct {
	// Algorithm selects the multicast dissemination strategy for
	// tree-shaped collectives. Default mcast.SpanningTree.
	Algorithm mcast.Algorithm
	// Deadline bounds every collective operation: receive waits are
	// plumbed to Connection.RecvTimeout and expire with ErrDeadline.
	// Default DefaultDeadline.
	Deadline time.Duration
	// ChunkSize is the broadcast pipelining unit: payloads larger than
	// this are streamed down the tree in ChunkSize pieces. Default
	// DefaultChunkSize.
	ChunkSize int
}

func (c Config) withDefaults() Config {
	if c.Algorithm == 0 {
		c.Algorithm = mcast.SpanningTree
	}
	if c.Deadline <= 0 {
		c.Deadline = DefaultDeadline
	}
	if c.ChunkSize <= 0 {
		c.ChunkSize = DefaultChunkSize
	}
	return c
}

// ---------------------------------------------------------------------------
// Frames: every collective transfer is tagged with the operation and
// the member's collective sequence number, plus chunk coordinates for
// pipelined transfers.

// Collective operation codes carried in frame headers.
const (
	opBroadcast = byte(iota + 1)
	opReduce
	opScatter
	opGather
	opReduceScatter
	opAllToAll
)

func opName(op byte) string {
	switch op {
	case opBroadcast:
		return "broadcast"
	case opReduce:
		return "reduce"
	case opScatter:
		return "scatter"
	case opGather:
		return "gather"
	case opReduceScatter:
		return "reduce-scatter"
	case opAllToAll:
		return "all-to-all"
	default:
		return fmt.Sprintf("op(%d)", op)
	}
}

// frameHeaderSize is op(1) + tag(4) + chunk(4) + nchunks(4) + total(4).
const frameHeaderSize = 17

func appendFrameHeader(dst []byte, op byte, tag, chunk, nchunks, total uint32) []byte {
	dst = append(dst, op)
	dst = binary.BigEndian.AppendUint32(dst, tag)
	dst = binary.BigEndian.AppendUint32(dst, chunk)
	dst = binary.BigEndian.AppendUint32(dst, nchunks)
	dst = binary.BigEndian.AppendUint32(dst, total)
	return dst
}

// frame is a parsed collective transfer; payload aliases the delivered
// message msg (no copy), which is borrowed: a collective that only folds
// or forwards the payload calls release when it has, and one that
// returns (part of) it to its caller calls own first.
type frame struct {
	op      byte
	tag     uint32
	chunk   uint32
	nchunks uint32
	total   uint32
	payload []byte
	msg     core.Message
}

func parseFrame(m core.Message) (frame, error) {
	raw := m.Data
	if len(raw) < frameHeaderSize {
		return frame{}, fmt.Errorf("%w: %d-byte frame", ErrMismatch, len(raw))
	}
	return frame{
		op:      raw[0],
		tag:     binary.BigEndian.Uint32(raw[1:]),
		chunk:   binary.BigEndian.Uint32(raw[5:]),
		nchunks: binary.BigEndian.Uint32(raw[9:]),
		total:   binary.BigEndian.Uint32(raw[13:]),
		payload: raw[frameHeaderSize:],
		msg:     m,
	}, nil
}

// release hands the frame's storage back; payload is dead afterwards.
func (f *frame) release() { f.msg.Release() }

// own makes payload the caller's to keep (a copy, if msg was borrowed).
func (f *frame) own() { f.payload = f.msg.Bytes()[frameHeaderSize:] }

// detach returns r, copied out first if it lies inside the frame's
// payload: a ReduceOp may return its second argument, or part of it, and
// the frame it was folded from is about to be released. (unsafe only
// reads the two addresses as numbers.)
func (f *frame) detach(r []byte) []byte {
	if len(r) == 0 || len(f.payload) == 0 {
		return r
	}
	at, lo := uintptr(unsafe.Pointer(&r[0])), uintptr(unsafe.Pointer(&f.payload[0]))
	if at < lo || at >= lo+uintptr(len(f.payload)) {
		return r
	}
	return bytes.Clone(r)
}

// ---------------------------------------------------------------------------

// Group is one member's handle on a process group.
type Group struct {
	rank int
	size int
	cfg  Config

	conns []*core.Connection // index = peer rank; nil at own rank

	// inbox merges every peer connection's deliveries into one stream;
	// connRank demultiplexes a delivery back to its peer rank, and
	// pending queues frames that arrived while the member was waiting
	// on a different peer — owned, so a group closed with some unread
	// pins no buffer.
	inbox    *core.Inbox
	connRank map[*core.Connection]int
	pending  [][]core.Message

	// tag is the member's collective sequence number. Collectives are
	// called in the same order on every member (the communicator
	// contract), one at a time per member, so plain arithmetic under
	// the caller's own ordering suffices. Nonblocking collectives keep
	// the contract by executing on the member's single engine
	// goroutine in submission order, and blocking collectives quiesce
	// that engine before taking their tag.
	tag uint32

	// eng executes nonblocking collectives (nonblocking.go). Zero
	// value ready; costs nothing until the first IBroadcast/IAllReduce.
	eng engine
}

// Rank returns this member's rank in 0..Size()-1.
func (g *Group) Rank() int { return g.rank }

// Size returns the number of members.
func (g *Group) Size() int { return g.size }

// Algorithm returns the multicast algorithm chosen at build time.
func (g *Group) Algorithm() mcast.Algorithm { return g.cfg.Algorithm }

// Deadline returns the per-operation deadline.
func (g *Group) Deadline() time.Duration { return g.cfg.Deadline }

// SetDeadline changes the per-operation deadline for subsequent
// collectives on this member. It bounds this member's receive waits
// only; set it identically on every member for a uniform budget.
func (g *Group) SetDeadline(d time.Duration) {
	if d <= 0 {
		d = DefaultDeadline
	}
	g.cfg.Deadline = d
}

// opDeadline computes the absolute deadline for one collective.
func (g *Group) opDeadline() time.Time { return time.Now().Add(g.cfg.Deadline) }

// nextTag advances the member's collective sequence number.
func (g *Group) nextTag() uint32 {
	g.tag++
	return g.tag
}

// Build constructs a process group over the named systems, creating a
// full mesh of NCS connections with the given per-connection options.
// It returns one Group handle per member, indexed by rank (the order of
// names). The multicast algorithm applies to collective traffic.
func Build(nw *core.Network, names []string, opts core.Options, alg mcast.Algorithm) ([]*Group, error) {
	return BuildConfig(nw, names, opts, Config{Algorithm: alg})
}

// BuildConfig is Build with full engine configuration.
func BuildConfig(nw *core.Network, names []string, opts core.Options, cfg Config) ([]*Group, error) {
	if len(names) == 0 {
		return nil, ErrTooSmall
	}
	systems := make([]*core.System, len(names))
	for i, name := range names {
		s, err := nw.NewSystem(name)
		if err != nil {
			return nil, fmt.Errorf("group build: %w", err)
		}
		systems[i] = s
	}
	return ConnectConfig(systems, opts, cfg)
}

// Connect builds the group mesh over pre-existing systems. The rank
// order follows the systems slice.
func Connect(systems []*core.System, opts core.Options, alg mcast.Algorithm) ([]*Group, error) {
	return ConnectConfig(systems, opts, Config{Algorithm: alg})
}

// dialResult is one mesh edge's establishment outcome: the connection
// belongs to groups[owner].conns[peer] on success.
type dialResult struct {
	owner, peer int
	conn        *core.Connection
	err         error
}

// ConnectConfig is Connect with full engine configuration. On failure
// no connection is leaked: every connection already established is
// closed, and connections still arriving from in-flight dial/accept
// goroutines are closed as they land.
func ConnectConfig(systems []*core.System, opts core.Options, cfg Config) ([]*Group, error) {
	n := len(systems)
	if n == 0 {
		return nil, ErrTooSmall
	}
	cfg = cfg.withDefaults()

	// Peers are matched by system name during accept, so names must be
	// unique or members would be silently mis-ranked.
	rankOf := make(map[string]int, n)
	for i, s := range systems {
		if prev, dup := rankOf[s.Name()]; dup {
			return nil, fmt.Errorf("%w: %q is both rank %d and rank %d",
				ErrDuplicateName, s.Name(), prev, i)
		}
		rankOf[s.Name()] = i
	}
	groups := make([]*Group, n)
	for i := range systems {
		groups[i] = &Group{rank: i, size: n, cfg: cfg, conns: make([]*core.Connection, n)}
	}

	// Dial the upper triangle; accept on the target side. Acceptance
	// order is not guaranteed, so match peers by name. The channel is
	// buffered for every outcome, so the dial/accept goroutines always
	// run to completion even if ConnectConfig returns early on error.
	results := make(chan dialResult, n*n)
	pending := 0
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			pending++
			go func(i, j int) {
				conn, err := systems[i].Connect(systems[j].Name(), opts)
				results <- dialResult{owner: i, peer: j, conn: conn, err: err}
			}(i, j)
		}
	}
	// Each system j accepts connections from every i < j.
	for j := 0; j < n; j++ {
		for k := 0; k < j; k++ {
			pending++
			go func(j int) {
				conn, err := systems[j].AcceptTimeout(10 * time.Second)
				if err != nil {
					results <- dialResult{err: err}
					return
				}
				i, ok := rankOf[conn.Peer()]
				if !ok {
					conn.Close()
					results <- dialResult{err: fmt.Errorf("group: unknown peer %q", conn.Peer())}
					return
				}
				results <- dialResult{owner: j, peer: i, conn: conn}
			}(j)
		}
	}

	for k := 0; k < pending; k++ {
		r := <-results
		if r.err != nil {
			// Close everything established so far, then reap the
			// still-arriving connections asynchronously (an accept
			// against a dead dialer takes its full timeout to give up;
			// the caller should not wait for it).
			for _, g := range groups {
				for _, c := range g.conns {
					if c != nil {
						c.Close()
					}
				}
			}
			go func(remaining int) {
				for i := 0; i < remaining; i++ {
					if late := <-results; late.conn != nil {
						late.conn.Close()
					}
				}
			}(pending - k - 1)
			return nil, r.err
		}
		groups[r.owner].conns[r.peer] = r.conn
	}

	// Wire up collective delivery: one shared inbox per member, on every
	// runtime — while a member waits on its inbox, each connection's pump
	// of last resort delivers into it.
	depth := max(4*n, 256)
	for _, g := range groups {
		g.inbox = core.NewInbox(depth)
		g.connRank = make(map[*core.Connection]int, n-1)
		g.pending = make([][]core.Message, n)
		for peer, c := range g.conns {
			if c == nil {
				continue
			}
			g.connRank[c] = peer
			if err := c.BindInbox(g.inbox); err != nil {
				for _, gg := range groups {
					gg.Close()
				}
				return nil, fmt.Errorf("group: bind inbox: %w", err)
			}
		}
	}
	return groups, nil
}

// ---------------------------------------------------------------------------
// Frame transport.

// sendFrame stages one tagged frame through a pooled buffer and
// transmits it to dst.
func (g *Group) sendFrame(dst int, op byte, tag, chunk, nchunks, total uint32, payload []byte) error {
	if nchunks > 1 {
		mChunks.IncAt(uint32(dst))
	}
	b := buf.GetCap(frameHeaderSize + len(payload))
	b.B = appendFrameHeader(b.B, op, tag, chunk, nchunks, total)
	b.B = append(b.B, payload...)
	err := g.conns[dst].Send(b.B)
	b.Release()
	if err != nil {
		return fmt.Errorf("group %s send to %d: %w", opName(op), dst, err)
	}
	return nil
}

// recvRaw returns the next message from peer rank src, demultiplexing
// through the member's inbox. Frames from other peers
// that arrive while waiting are queued for their own receives. The wait
// is bounded by dl and by the source connection's liveness. The message
// is borrowed: the caller releases or owns it.
func (g *Group) recvRaw(src int, dl time.Time) (core.Message, error) {
	if q := g.pending; len(q[src]) > 0 {
		m := q[src][0]
		q[src][0] = core.Message{}
		q[src] = q[src][1:]
		return m, nil
	}
	for {
		// A dead peer delivers nothing more: fail now rather than
		// holding every survivor until the operation deadline.
		if err := g.conns[src].Err(); err != nil {
			return core.Message{}, fmt.Errorf("recv from %d: %w", src, err)
		}
		remain := time.Until(dl)
		if remain <= 0 {
			return core.Message{}, fmt.Errorf("recv from %d: %w", src, ErrDeadline)
		}
		if remain > connCheckInterval {
			remain = connCheckInterval
		}
		im, err := g.inbox.RecvTimeout(remain)
		if err != nil {
			if errors.Is(err, core.ErrRecvTimeout) {
				continue
			}
			return core.Message{}, fmt.Errorf("recv from %d: %w", src, err)
		}
		from, ok := g.connRank[im.Conn]
		if !ok {
			im.Msg.Release()
			continue
		}
		if err := lostErr(&im.Msg, from); err != nil {
			return core.Message{}, err
		}
		if from == src {
			return im.Msg, nil
		}
		im.Msg.Bytes()
		g.pending[from] = append(g.pending[from], im.Msg)
	}
}

// lostErr rejects (and releases) a frame an unreliable (ErrorControl
// None) connection delivered with SDUs missing: honest loss accounting,
// but never valid collective data — combining damaged bytes is worse
// than failing.
func lostErr(m *core.Message, from int) error {
	if m.Lost == 0 {
		return nil
	}
	lost := m.Lost
	m.Release()
	return fmt.Errorf("recv from %d: frame lost %d SDUs", from, lost)
}

// recvFrame receives and validates one frame of the given collective
// from src: the operation, tag, and chunk index must match what this
// member is executing, or the members have diverged. The frame is the
// caller's to release or own.
func (g *Group) recvFrame(src int, op byte, tag, chunk uint32, dl time.Time) (frame, error) {
	m, err := g.recvRaw(src, dl)
	if err != nil {
		if errors.Is(err, ErrDeadline) {
			mDeadline.Inc()
		}
		return frame{}, fmt.Errorf("group %s: %w", opName(op), err)
	}
	f, err := parseFrame(m)
	if err != nil {
		m.Release()
		mMismatch.Inc()
		return frame{}, fmt.Errorf("group %s from %d: %w", opName(op), src, err)
	}
	if f.op != op || f.tag != tag || f.chunk != chunk {
		m.Release()
		mMismatch.Inc()
		return frame{}, fmt.Errorf("%w: rank %d expected %s tag %d chunk %d from %d, got %s tag %d chunk %d",
			ErrMismatch, g.rank, opName(op), tag, chunk, src, opName(f.op), f.tag, f.chunk)
	}
	return f, nil
}

// ---------------------------------------------------------------------------
// Collectives.

// Broadcast distributes msg from root to every member, following the
// group's multicast algorithm. The root passes the payload; other ranks
// pass nil and receive the payload as the return value. Payloads larger
// than Config.ChunkSize are pipelined down the tree in chunks: an
// interior rank forwards chunk k while the wire delivers chunk k+1.
// All members must call Broadcast collectively.
func (g *Group) Broadcast(root int, msg []byte) ([]byte, error) {
	g.quiesce()
	start := time.Now()
	defer mOpNS.ObserveSince(start)
	return g.broadcast(root, msg)
}

// broadcast is the engine-callable implementation: it assumes any
// pending nonblocking operations have already drained (quiesce) or
// that it is itself running on the engine goroutine.
func (g *Group) broadcast(root int, msg []byte) ([]byte, error) {
	if root < 0 || root >= g.size {
		return nil, ErrBadRank
	}
	tag := g.nextTag()
	if g.size == 1 {
		return msg, nil
	}
	dl := g.opDeadline()
	children := mcast.Children(g.cfg.Algorithm, g.size, root, g.rank)

	if g.rank == root {
		return msg, g.broadcastChunks(children, tag, msg)
	}

	parent := mcast.Parent(g.cfg.Algorithm, g.size, root, g.rank)
	f, err := g.recvFrame(parent, opBroadcast, tag, 0, dl)
	if err != nil {
		return nil, err
	}
	if f.nchunks == 1 {
		// Single-chunk message: forward and return the payload view of
		// the delivered frame — no reassembly copy.
		f.own()
		for _, child := range children {
			if err := g.sendFrame(child, opBroadcast, tag, 0, 1, f.total, f.payload); err != nil {
				return nil, err
			}
		}
		return f.payload, nil
	}
	out := make([]byte, 0, f.total)
	nchunks := f.nchunks
	defer func() { f.release() }() // the chunk in hand, if an error ends the loop
	for k := uint32(0); ; k++ {
		if k > 0 {
			if f, err = g.recvFrame(parent, opBroadcast, tag, k, dl); err != nil {
				return nil, err
			}
			if f.nchunks != nchunks {
				return nil, fmt.Errorf("%w: chunk count changed mid-broadcast (%d → %d)",
					ErrMismatch, nchunks, f.nchunks)
			}
		}
		for _, child := range children {
			if err := g.sendFrame(child, opBroadcast, tag, k, nchunks, f.total, f.payload); err != nil {
				return nil, err
			}
		}
		out = append(out, f.payload...)
		f.release()
		if k == nchunks-1 {
			break
		}
	}
	if uint32(len(out)) != f.total {
		return nil, fmt.Errorf("%w: reassembled %d bytes, expected %d", ErrMismatch, len(out), f.total)
	}
	return out, nil
}

// broadcastChunks streams msg from the root. On the spanning tree each
// chunk reaches every child before the next is cut, so the pipeline
// fills the whole tree depth and downstream links drain in parallel.
// The repetitive algorithm is, per the paper, a transfer to each member
// in sequence: the root completes one child's whole message before
// starting the next — exactly the serialisation the spanning tree is
// there to beat.
func (g *Group) broadcastChunks(children []int, tag uint32, msg []byte) error {
	chunk := g.cfg.ChunkSize
	nchunks := (len(msg) + chunk - 1) / chunk
	if nchunks == 0 {
		nchunks = 1
	}
	send := func(child, k int) error {
		lo := k * chunk
		hi := lo + chunk
		if hi > len(msg) {
			hi = len(msg)
		}
		return g.sendFrame(child, opBroadcast, tag, uint32(k), uint32(nchunks),
			uint32(len(msg)), msg[lo:hi])
	}
	if g.cfg.Algorithm == mcast.Repetitive {
		for _, child := range children {
			for k := 0; k < nchunks; k++ {
				if err := send(child, k); err != nil {
					return err
				}
			}
		}
		return nil
	}
	for k := 0; k < nchunks; k++ {
		for _, child := range children {
			if err := send(child, k); err != nil {
				return err
			}
		}
	}
	return nil
}

// ReduceOp combines two partial values into one. It must be
// associative; it need not be commutative — partials are always
// combined in ascending rank order, as MPI requires, so
// non-commutative operations (concatenation, matrix products) give the
// same answer on every run and under both multicast algorithms.
type ReduceOp func(a, b []byte) []byte

// Reduce combines each member's value to root. The root receives the
// fully combined value; other ranks receive nil.
//
// Combination runs up the rank-ordered combining tree rooted at rank 0
// (mcast.CombineChildren) regardless of the requested root: every
// combining subtree covers a contiguous rank interval, so folding
// own-value-then-children yields the strict rank order 0⊕1⊕…⊕(n-1).
// When root ≠ 0, rank 0 relays the final value to root — one extra
// hop, in exchange for determinism under non-commutative operations.
func (g *Group) Reduce(root int, value []byte, op ReduceOp) ([]byte, error) {
	g.quiesce()
	start := time.Now()
	defer mOpNS.ObserveSince(start)
	return g.reduce(root, value, op)
}

// reduce is the engine-callable implementation (see broadcast).
func (g *Group) reduce(root int, value []byte, op ReduceOp) ([]byte, error) {
	if root < 0 || root >= g.size {
		return nil, ErrBadRank
	}
	tag := g.nextTag()
	if g.size == 1 {
		return value, nil
	}
	dl := g.opDeadline()

	acc := value
	for _, child := range mcast.CombineChildren(g.cfg.Algorithm, g.size, g.rank) {
		f, err := g.recvFrame(child, opReduce, tag, 0, dl)
		if err != nil {
			return nil, err
		}
		acc = f.detach(op(acc, f.payload))
		f.release()
	}
	if g.rank != 0 {
		parent := mcast.CombineParent(g.cfg.Algorithm, g.size, g.rank)
		if err := g.sendFrame(parent, opReduce, tag, 0, 1, uint32(len(acc)), acc); err != nil {
			return nil, err
		}
		if g.rank != root {
			return nil, nil
		}
		f, err := g.recvFrame(0, opReduce, tag, 1, dl)
		if err != nil {
			return nil, err
		}
		f.own()
		return f.payload, nil
	}
	// Rank 0 holds the full rank-ordered reduction.
	if root != 0 {
		if err := g.sendFrame(root, opReduce, tag, 1, 1, uint32(len(acc)), acc); err != nil {
			return nil, err
		}
		return nil, nil
	}
	return acc, nil
}

// AllReduce is Reduce to rank 0 followed by Broadcast of the result.
func (g *Group) AllReduce(value []byte, op ReduceOp) ([]byte, error) {
	g.quiesce()
	start := time.Now()
	defer mOpNS.ObserveSince(start)
	return g.allReduce(value, op)
}

// allReduce is the engine-callable implementation (see broadcast).
func (g *Group) allReduce(value []byte, op ReduceOp) ([]byte, error) {
	acc, err := g.reduce(0, value, op)
	if err != nil {
		return nil, err
	}
	return g.broadcast(0, acc)
}

// Barrier blocks until every member has entered it (or the group
// deadline expires). It is implemented as an empty AllReduce over the
// multicast tree: ⌈log₂ n⌉ up plus ⌈log₂ n⌉ down rounds under the
// spanning tree.
func (g *Group) Barrier() error {
	g.quiesce()
	start := time.Now()
	defer mOpNS.ObserveSince(start)
	_, err := g.allReduce([]byte{}, func(a, b []byte) []byte { return a })
	return err
}

// Ranks returns all ranks ordered; handy for iteration in examples.
func (g *Group) Ranks() []int {
	out := make([]int, g.size)
	for i := range out {
		out[i] = i
	}
	sort.Ints(out)
	return out
}

// Close tears down this member's connections and its delivery inbox.
// Each connection is shared between two members; closing from either
// side suffices, and closing both is safe. Nonblocking operations
// still in flight fail promptly (closed connections) and their
// Handles complete with errors.
func (g *Group) Close() {
	for _, c := range g.conns {
		if c != nil {
			c.Close()
		}
	}
	g.inbox.Close()
}
