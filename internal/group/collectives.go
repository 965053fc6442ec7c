package group

import (
	"encoding/binary"
	"fmt"
	"sort"
	"time"

	"ncs/internal/buf"
	"ncs/internal/mcast"
)

// Scatter distributes one distinct payload per rank from root. The root
// passes a slice indexed by rank (its own entry is returned to itself);
// other ranks pass nil and receive their part. Distribution follows the
// multicast tree: each interior node receives the bundle for its whole
// subtree and forwards the relevant sub-bundles, so the root does not
// serialise n transfers under the spanning-tree algorithm.
func (g *Group) Scatter(root int, parts [][]byte) ([]byte, error) {
	g.quiesce()
	start := time.Now()
	defer mOpNS.ObserveSince(start)
	return g.scatter(root, parts)
}

// scatter is the engine-callable implementation (see broadcast).
func (g *Group) scatter(root int, parts [][]byte) ([]byte, error) {
	if root < 0 || root >= g.size {
		return nil, ErrBadRank
	}
	if g.rank == root && len(parts) != g.size {
		return nil, fmt.Errorf("group scatter: %d parts for %d members", len(parts), g.size)
	}
	tag := g.nextTag()
	if g.size == 1 {
		return parts[0], nil
	}
	dl := g.opDeadline()

	var bundle map[int][]byte
	if g.rank == root {
		bundle = make(map[int][]byte, g.size)
		for rank, p := range parts {
			bundle[rank] = p
		}
	} else {
		parent := mcast.Parent(g.cfg.Algorithm, g.size, root, g.rank)
		f, err := g.recvFrame(parent, opScatter, tag, 0, dl)
		if err != nil {
			return nil, err
		}
		f.own() // this member's part is returned
		if bundle, err = decodeBundle(f.payload, g.size); err != nil {
			return nil, fmt.Errorf("group scatter from %d: %w", parent, err)
		}
	}

	// Forward each child the slice of the bundle covering its subtree.
	for _, child := range mcast.Children(g.cfg.Algorithm, g.size, root, g.rank) {
		ranks := mcast.Subtree(g.cfg.Algorithm, g.size, root, child)
		sort.Ints(ranks)
		if err := g.sendBundle(child, opScatter, tag, ranks, bundle); err != nil {
			return nil, err
		}
	}
	own, ok := bundle[g.rank]
	if !ok {
		return nil, fmt.Errorf("group scatter: bundle missing rank %d", g.rank)
	}
	return own, nil
}

// Gather collects one payload per rank at root (the inverse of
// Scatter). The root receives a slice indexed by rank; other ranks
// receive nil.
func (g *Group) Gather(root int, value []byte) ([][]byte, error) {
	g.quiesce()
	start := time.Now()
	defer mOpNS.ObserveSince(start)
	return g.gather(root, value)
}

// gather is the engine-callable implementation (see broadcast).
func (g *Group) gather(root int, value []byte) ([][]byte, error) {
	if root < 0 || root >= g.size {
		return nil, ErrBadRank
	}
	tag := g.nextTag()
	if g.size == 1 {
		return [][]byte{value}, nil
	}
	dl := g.opDeadline()

	bundle := map[int][]byte{g.rank: value}
	var held []frame // an interior rank's: pinned until their parts are forwarded
	defer func() {
		for i := range held {
			held[i].release()
		}
	}()
	for _, child := range mcast.Children(g.cfg.Algorithm, g.size, root, g.rank) {
		f, err := g.recvFrame(child, opGather, tag, 0, dl)
		if err != nil {
			return nil, err
		}
		if g.rank == root {
			f.own() // the parts are returned
		} else {
			held = append(held, f)
		}
		sub, err := decodeBundle(f.payload, g.size)
		if err != nil {
			return nil, fmt.Errorf("group gather from %d: %w", child, err)
		}
		for rank, p := range sub {
			bundle[rank] = p
		}
	}
	if g.rank != root {
		parent := mcast.Parent(g.cfg.Algorithm, g.size, root, g.rank)
		ranks := make([]int, 0, len(bundle))
		for rank := range bundle {
			ranks = append(ranks, rank)
		}
		sort.Ints(ranks)
		if err := g.sendBundle(parent, opGather, tag, ranks, bundle); err != nil {
			return nil, err
		}
		return nil, nil
	}
	out := make([][]byte, g.size)
	for rank, p := range bundle {
		out[rank] = p
	}
	return out, nil
}

// AllGather is Gather to rank 0 followed by a Broadcast of the bundle:
// every member ends with every rank's payload, indexed by rank. Large
// bundles ride the Broadcast chunk pipeline.
func (g *Group) AllGather(value []byte) ([][]byte, error) {
	g.quiesce()
	start := time.Now()
	defer mOpNS.ObserveSince(start)
	return g.allGather(value)
}

// allGather is the engine-callable implementation (see broadcast).
func (g *Group) allGather(value []byte) ([][]byte, error) {
	parts, err := g.gather(0, value)
	if err != nil {
		return nil, err
	}
	var raw []byte
	if g.rank == 0 {
		bundle := make(map[int][]byte, len(parts))
		ranks := make([]int, len(parts))
		for rank, p := range parts {
			bundle[rank] = p
			ranks[rank] = rank
		}
		raw = appendBundle(make([]byte, 0, bundleLen(ranks, bundle)), ranks, bundle)
	}
	raw, err = g.broadcast(0, raw)
	if err != nil {
		return nil, err
	}
	bundle, err := decodeBundle(raw, g.size)
	if err != nil {
		return nil, fmt.Errorf("group allgather: %w", err)
	}
	out := make([][]byte, g.size)
	for rank, p := range bundle {
		out[rank] = p
	}
	return out, nil
}

// ReduceScatter combines, for every slot i, the parts[i] contributions
// of all members (in ascending rank order, as Reduce does) and delivers
// the reduced slot i to rank i. Every member passes a slice of
// Size() parts; member i receives the combined slot i.
//
// The combine phase runs up the rank-ordered combining tree
// (mcast.CombineChildren) with whole-vector bundles, then the reduced
// vector is Scattered from rank 0 — the dual of AllGather's
// gather-then-broadcast.
func (g *Group) ReduceScatter(parts [][]byte, op ReduceOp) ([]byte, error) {
	g.quiesce()
	start := time.Now()
	defer mOpNS.ObserveSince(start)
	return g.reduceScatter(parts, op)
}

// reduceScatter is the engine-callable implementation (see broadcast).
func (g *Group) reduceScatter(parts [][]byte, op ReduceOp) ([]byte, error) {
	if len(parts) != g.size {
		return nil, fmt.Errorf("group reduce-scatter: %d parts for %d members", len(parts), g.size)
	}
	tag := g.nextTag()
	if g.size == 1 {
		return parts[0], nil
	}
	dl := g.opDeadline()

	acc := make([][]byte, g.size)
	copy(acc, parts)
	for _, child := range mcast.CombineChildren(g.cfg.Algorithm, g.size, g.rank) {
		f, err := g.recvFrame(child, opReduceScatter, tag, 0, dl)
		if err != nil {
			return nil, err
		}
		sub, err := decodeVector(f.payload, g.size)
		if err != nil {
			f.release()
			return nil, fmt.Errorf("group reduce-scatter from %d: %w", child, err)
		}
		for i := range acc {
			acc[i] = f.detach(op(acc[i], sub[i]))
		}
		f.release()
	}
	if g.rank != 0 {
		parent := mcast.CombineParent(g.cfg.Algorithm, g.size, g.rank)
		if err := g.sendVector(parent, opReduceScatter, tag, acc); err != nil {
			return nil, err
		}
		return g.scatter(0, nil)
	}
	return g.scatter(0, acc)
}

// AllToAll performs a personalised total exchange: member r receives
// parts[r] from every member, including its own (returned as an alias,
// not a copy). Every member passes Size() parts and receives Size()
// parts, indexed by source rank. The exchange follows mcast.Exchanges'
// linear pairwise schedule: n-1 contention-free rounds.
func (g *Group) AllToAll(parts [][]byte) ([][]byte, error) {
	g.quiesce()
	start := time.Now()
	defer mOpNS.ObserveSince(start)
	return g.allToAll(parts)
}

// allToAll is the engine-callable implementation (see broadcast).
func (g *Group) allToAll(parts [][]byte) ([][]byte, error) {
	if len(parts) != g.size {
		return nil, fmt.Errorf("group all-to-all: %d parts for %d members", len(parts), g.size)
	}
	tag := g.nextTag()
	out := make([][]byte, g.size)
	out[g.rank] = parts[g.rank]
	if g.size == 1 {
		return out, nil
	}
	dl := g.opDeadline()
	for _, ex := range mcast.Exchanges(g.size, g.rank) {
		p := parts[ex.To]
		if err := g.sendFrame(ex.To, opAllToAll, tag, 0, 1, uint32(len(p)), p); err != nil {
			return nil, err
		}
		f, err := g.recvFrame(ex.From, opAllToAll, tag, 0, dl)
		if err != nil {
			return nil, err
		}
		f.own()
		out[ex.From] = f.payload
	}
	return out, nil
}

// ---------------------------------------------------------------------------
// Bundle codec: rank-keyed payload sets, serialised in ascending rank
// order as count | (rank, length, bytes)*. Encoding stages through the
// pooled buffer pipeline; decoding returns views aliasing the received
// frame, not copies.

// sendBundle frames and transmits the parts for the given ranks
// (already sorted ascending) through a pooled staging buffer.
func (g *Group) sendBundle(dst int, op byte, tag uint32, ranks []int, parts map[int][]byte) error {
	size := bundleLen(ranks, parts)
	b := buf.GetCap(frameHeaderSize + size)
	b.B = appendFrameHeader(b.B, op, tag, 0, 1, uint32(size))
	b.B = appendBundle(b.B, ranks, parts)
	err := g.conns[dst].Send(b.B)
	b.Release()
	if err != nil {
		return fmt.Errorf("group %s send to %d: %w", opName(op), dst, err)
	}
	return nil
}

func bundleLen(ranks []int, parts map[int][]byte) int {
	size := 4
	for _, r := range ranks {
		size += 8 + len(parts[r])
	}
	return size
}

func appendBundle(dst []byte, ranks []int, parts map[int][]byte) []byte {
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(ranks)))
	for _, r := range ranks {
		dst = binary.BigEndian.AppendUint32(dst, uint32(r))
		dst = binary.BigEndian.AppendUint32(dst, uint32(len(parts[r])))
		dst = append(dst, parts[r]...)
	}
	return dst
}

// decodeBundle parses a bundle of at most size ranks; the returned
// payloads alias raw.
func decodeBundle(raw []byte, size int) (map[int][]byte, error) {
	if len(raw) < 4 {
		return nil, fmt.Errorf("group: truncated bundle")
	}
	n := binary.BigEndian.Uint32(raw)
	raw = raw[4:]
	if int(n) > size {
		return nil, fmt.Errorf("group: bundle of %d parts for %d members", n, size)
	}
	m := make(map[int][]byte, n)
	for i := uint32(0); i < n; i++ {
		if len(raw) < 8 {
			return nil, fmt.Errorf("group: truncated bundle entry")
		}
		rank := int(binary.BigEndian.Uint32(raw))
		length := binary.BigEndian.Uint32(raw[4:])
		raw = raw[8:]
		if rank < 0 || rank >= size {
			return nil, fmt.Errorf("group: bundle rank %d out of range", rank)
		}
		if _, dup := m[rank]; dup {
			return nil, fmt.Errorf("group: bundle rank %d twice", rank)
		}
		if uint32(len(raw)) < length {
			return nil, fmt.Errorf("group: truncated bundle payload")
		}
		m[rank] = raw[:length:length]
		raw = raw[length:]
	}
	return m, nil
}

// sendVector is sendBundle for a dense rank-indexed vector (every slot
// present, in order).
func (g *Group) sendVector(dst int, op byte, tag uint32, parts [][]byte) error {
	size := 4
	for _, p := range parts {
		size += 4 + len(p)
	}
	b := buf.GetCap(frameHeaderSize + size)
	b.B = appendFrameHeader(b.B, op, tag, 0, 1, uint32(size))
	b.B = binary.BigEndian.AppendUint32(b.B, uint32(len(parts)))
	for _, p := range parts {
		b.B = binary.BigEndian.AppendUint32(b.B, uint32(len(p)))
		b.B = append(b.B, p...)
	}
	err := g.conns[dst].Send(b.B)
	b.Release()
	if err != nil {
		return fmt.Errorf("group %s send to %d: %w", opName(op), dst, err)
	}
	return nil
}

// decodeVector parses a dense n-slot vector; payload views alias raw.
func decodeVector(raw []byte, n int) ([][]byte, error) {
	if len(raw) < 4 {
		return nil, fmt.Errorf("group: truncated vector")
	}
	if got := binary.BigEndian.Uint32(raw); int(got) != n {
		return nil, fmt.Errorf("group: vector of %d slots, want %d", got, n)
	}
	raw = raw[4:]
	out := make([][]byte, n)
	for i := 0; i < n; i++ {
		if len(raw) < 4 {
			return nil, fmt.Errorf("group: truncated vector slot")
		}
		length := binary.BigEndian.Uint32(raw)
		raw = raw[4:]
		if uint32(len(raw)) < length {
			return nil, fmt.Errorf("group: truncated vector payload")
		}
		out[i] = raw[:length:length]
		raw = raw[length:]
	}
	return out, nil
}
