package group

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"sync"
	"testing"
	"time"

	"ncs/internal/core"
	"ncs/internal/mcast"
	"ncs/internal/transport"
)

func buildGroup(t *testing.T, n int, alg mcast.Algorithm) ([]*Group, func()) {
	t.Helper()
	nw := core.NewNetwork()
	names := make([]string, n)
	for i := range names {
		names[i] = fmt.Sprintf("member-%d", i)
	}
	groups, err := Build(nw, names, core.Options{Interface: transport.HPI}, alg)
	if err != nil {
		nw.Close()
		t.Fatal(err)
	}
	return groups, nw.Close
}

// runAll invokes fn concurrently for every member and waits.
func runAll(t *testing.T, groups []*Group, fn func(g *Group) error) {
	t.Helper()
	var wg sync.WaitGroup
	errs := make([]error, len(groups))
	for i, g := range groups {
		wg.Add(1)
		go func(i int, g *Group) {
			defer wg.Done()
			errs[i] = fn(g)
		}(i, g)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("rank %d: %v", i, err)
		}
	}
}

func TestBroadcastBothAlgorithms(t *testing.T) {
	for _, alg := range []mcast.Algorithm{mcast.Repetitive, mcast.SpanningTree} {
		for _, n := range []int{1, 2, 5, 8} {
			t.Run(fmt.Sprintf("%v_n%d", alg, n), func(t *testing.T) {
				groups, cleanup := buildGroup(t, n, alg)
				defer cleanup()

				payload := []byte("broadcast payload")
				var mu sync.Mutex
				results := make(map[int][]byte)
				runAll(t, groups, func(g *Group) error {
					var msg []byte
					if g.Rank() == 0 {
						msg = payload
					}
					got, err := g.Broadcast(0, msg)
					if err != nil {
						return err
					}
					mu.Lock()
					results[g.Rank()] = got
					mu.Unlock()
					return nil
				})
				for rank, got := range results {
					if !bytes.Equal(got, payload) {
						t.Fatalf("rank %d got %q", rank, got)
					}
				}
			})
		}
	}
}

func TestBroadcastNonZeroRoot(t *testing.T) {
	groups, cleanup := buildGroup(t, 6, mcast.SpanningTree)
	defer cleanup()

	payload := []byte("from rank 3")
	runAll(t, groups, func(g *Group) error {
		var msg []byte
		if g.Rank() == 3 {
			msg = payload
		}
		got, err := g.Broadcast(3, msg)
		if err != nil {
			return err
		}
		if !bytes.Equal(got, payload) {
			return fmt.Errorf("rank %d got %q", g.Rank(), got)
		}
		return nil
	})
}

func sumOp(a, b []byte) []byte {
	va := binary.BigEndian.Uint64(a)
	vb := binary.BigEndian.Uint64(b)
	return binary.BigEndian.AppendUint64(nil, va+vb)
}

func TestReduceSum(t *testing.T) {
	const n = 7
	groups, cleanup := buildGroup(t, n, mcast.SpanningTree)
	defer cleanup()

	var got []byte
	runAll(t, groups, func(g *Group) error {
		val := binary.BigEndian.AppendUint64(nil, uint64(g.Rank()+1))
		res, err := g.Reduce(0, val, sumOp)
		if err != nil {
			return err
		}
		if g.Rank() == 0 {
			got = res
		} else if res != nil {
			return fmt.Errorf("non-root rank %d got non-nil reduce result", g.Rank())
		}
		return nil
	})
	want := uint64(n * (n + 1) / 2)
	if binary.BigEndian.Uint64(got) != want {
		t.Fatalf("reduce sum = %d, want %d", binary.BigEndian.Uint64(got), want)
	}
}

func TestAllReduce(t *testing.T) {
	const n = 5
	groups, cleanup := buildGroup(t, n, mcast.SpanningTree)
	defer cleanup()

	want := uint64(n * (n + 1) / 2)
	runAll(t, groups, func(g *Group) error {
		val := binary.BigEndian.AppendUint64(nil, uint64(g.Rank()+1))
		res, err := g.AllReduce(val, sumOp)
		if err != nil {
			return err
		}
		if binary.BigEndian.Uint64(res) != want {
			return fmt.Errorf("rank %d allreduce = %d, want %d",
				g.Rank(), binary.BigEndian.Uint64(res), want)
		}
		return nil
	})
}

func TestBarrierSynchronises(t *testing.T) {
	const n = 4
	groups, cleanup := buildGroup(t, n, mcast.SpanningTree)
	defer cleanup()

	// Every member records the time it leaves the barrier; rank 0 enters
	// late. No member may leave before rank 0 entered.
	var rank0Entered time.Time
	exits := make([]time.Time, n)
	runAll(t, groups, func(g *Group) error {
		if g.Rank() == 0 {
			time.Sleep(50 * time.Millisecond)
			rank0Entered = time.Now()
		}
		if err := g.Barrier(); err != nil {
			return err
		}
		exits[g.Rank()] = time.Now()
		return nil
	})
	for rank, exit := range exits {
		if exit.Before(rank0Entered) {
			t.Fatalf("rank %d left the barrier %v before rank 0 entered",
				rank, rank0Entered.Sub(exit))
		}
	}
}

func TestBarrierRepeated(t *testing.T) {
	groups, cleanup := buildGroup(t, 3, mcast.SpanningTree)
	defer cleanup()

	runAll(t, groups, func(g *Group) error {
		for i := 0; i < 10; i++ {
			if err := g.Barrier(); err != nil {
				return fmt.Errorf("barrier %d: %w", i, err)
			}
		}
		return nil
	})
}

func TestBroadcastBadRank(t *testing.T) {
	groups, cleanup := buildGroup(t, 2, mcast.SpanningTree)
	defer cleanup()
	if _, err := groups[0].Broadcast(5, nil); err != ErrBadRank {
		t.Fatalf("err = %v, want ErrBadRank", err)
	}
	if _, err := groups[0].Reduce(-1, nil, sumOp); err != ErrBadRank {
		t.Fatalf("err = %v, want ErrBadRank", err)
	}
}

func TestGroupAccessors(t *testing.T) {
	groups, cleanup := buildGroup(t, 3, mcast.Repetitive)
	defer cleanup()
	g := groups[1]
	if g.Rank() != 1 || g.Size() != 3 {
		t.Fatalf("rank/size = %d/%d", g.Rank(), g.Size())
	}
	if g.Algorithm() != mcast.Repetitive {
		t.Fatalf("algorithm = %v", g.Algorithm())
	}
	if r := g.Ranks(); len(r) != 3 || r[0] != 0 || r[2] != 2 {
		t.Fatalf("Ranks = %v", r)
	}
}

func TestBuildRejectsEmpty(t *testing.T) {
	nw := core.NewNetwork()
	defer nw.Close()
	if _, err := Build(nw, nil, core.Options{Interface: transport.HPI}, mcast.SpanningTree); err != ErrTooSmall {
		t.Fatalf("err = %v, want ErrTooSmall", err)
	}
}

// TestGroupOverEveryInterface broadcasts and synchronises a group over
// each interface, and over HPI on the fast path, whose members read
// their inbox like any other's.
func TestGroupOverEveryInterface(t *testing.T) {
	for _, opts := range []core.Options{{Interface: transport.SCI}, {Interface: transport.ACI}, {Interface: transport.HPI}, {Interface: transport.HPI, FastPath: true}} {
		name := opts.Interface.String()
		if opts.FastPath {
			name += "-fastpath"
		}
		t.Run(name, func(t *testing.T) {
			nw := core.NewNetwork()
			defer nw.Close()
			names := []string{"gi-0-" + name, "gi-1-" + name, "gi-2-" + name}
			groups, err := Build(nw, names, opts, mcast.SpanningTree)
			if err != nil {
				t.Fatal(err)
			}
			payload := bytes.Repeat([]byte{5}, 10000)
			runAll(t, groups, func(g *Group) error {
				var msg []byte
				if g.Rank() == 0 {
					msg = payload
				}
				got, err := g.Broadcast(0, msg)
				if err != nil {
					return err
				}
				if !bytes.Equal(got, payload) {
					return fmt.Errorf("rank %d payload mismatch", g.Rank())
				}
				return g.Barrier()
			})
		})
	}
}

func TestLargeBroadcastPayload(t *testing.T) {
	groups, cleanup := buildGroup(t, 4, mcast.SpanningTree)
	defer cleanup()

	payload := make([]byte, 100_000)
	for i := range payload {
		payload[i] = byte(i * 17)
	}
	runAll(t, groups, func(g *Group) error {
		var msg []byte
		if g.Rank() == 0 {
			msg = payload
		}
		got, err := g.Broadcast(0, msg)
		if err != nil {
			return err
		}
		if !bytes.Equal(got, payload) {
			return fmt.Errorf("rank %d payload mismatch", g.Rank())
		}
		return nil
	})
}

// rootBroadcastBytes broadcasts one 64 KB payload from rank 0 of an
// 8-member group and returns the bytes rank 0 put on its own links.
func rootBroadcastBytes(t *testing.T, alg mcast.Algorithm, payload []byte) uint64 {
	t.Helper()
	groups, cleanup := buildGroup(t, 8, alg)
	defer cleanup()
	sent := func() (n uint64) {
		for _, c := range groups[0].conns {
			if c != nil {
				n += c.Stats().BytesSent
			}
		}
		return n
	}
	before := sent()
	runAll(t, groups, func(g *Group) error {
		var msg []byte
		if g.Rank() == 0 {
			msg = payload
		}
		got, err := g.Broadcast(0, msg)
		if err == nil && !bytes.Equal(got, payload) {
			err = fmt.Errorf("rank %d payload mismatch", g.Rank())
		}
		return err
	})
	return sent() - before
}

// TestTreeBroadcastUnloadsRoot is "spanning tree beats repetitive at
// large payloads" as the quantity that makes it so: the root's links
// carry the payload to its few children instead of to every member, so
// it sends at most half the bytes.
func TestTreeBroadcastUnloadsRoot(t *testing.T) {
	payload := bytes.Repeat([]byte{0xA5}, 64*1024)
	rep := rootBroadcastBytes(t, mcast.Repetitive, payload)
	tree := rootBroadcastBytes(t, mcast.SpanningTree, payload)
	t.Logf("root bytes sent for a 64KB broadcast to 8: repetitive %d, spanning tree %d", rep, tree)
	if rep < 7*uint64(len(payload)) {
		t.Fatalf("repetitive root sent %d bytes, want at least 7 x %d", rep, len(payload))
	}
	if tree*2 > rep {
		t.Fatalf("spanning-tree root sent %d bytes, repetitive %d: want at most half", tree, rep)
	}
}
