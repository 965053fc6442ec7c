package chaos

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"time"

	"ncs/internal/core"
)

// The streams axis: several streams deliver concurrently over one
// impaired connection — the stream-0 flow plus sibling streams opened
// with OpenStream — while one extra stream is deliberately never
// consumed. The contracts:
//
//   - every consumed flow (stream 0 and each sibling) delivers its
//     sequence exactly once, in order, byte-identical, Lost == 0 —
//     per-stream reliability holds under every schedule;
//   - the unconsumed stream stalls nobody: its messages arrive and
//     park on its own credit window while the siblings' sequences
//     complete (no cross-stream head-of-line blocking);
//   - teardown is clean: the parked, never-read messages release
//     their buffers at Close (the package TestMain audits pooled
//     buffers, goroutines, and pending flow-control timers).

// streamSiblings is how many extra consumed streams run beside
// stream 0; one more stream runs unconsumed.
const streamSiblings = 2

// RunStreams pushes concurrent per-stream sequences through the
// combination and checks the multi-stream delivery contracts. Only
// reliable error-control modes run: the axis asserts exactly-once
// delivery per stream.
func RunStreams(cfg Config) error {
	cfg = cfg.withDefaults()
	if !cfg.reliable() {
		return fmt.Errorf("chaos: streams axis asserts exactly-once delivery; error control %v cannot", cfg.ErrCtl)
	}
	nw := core.NewNetwork()
	defer nw.Close()
	conn, peer, err := cfg.connect(nw)
	if err != nil {
		return err
	}
	defer conn.Close()
	defer peer.Close()

	// Seed-derived sequences, one per consumed flow; flows[0] rides
	// stream 0 through the plain Send/Recv API.
	rng := rand.New(rand.NewSource(cfg.Seed))
	flows := make([][][]byte, streamSiblings+1)
	for i := range flows {
		msgs := make([][]byte, cfg.Messages)
		for j := range msgs {
			n := 1 + rng.Intn(cfg.MaxMsg)
			m := make([]byte, n)
			rng.Read(m)
			msgs[j] = m
		}
		flows[i] = msgs
	}

	sts := make([]*core.Stream, streamSiblings)
	for i := range sts {
		if sts[i], err = conn.OpenStream(); err != nil {
			return err
		}
	}
	// The unconsumed stream. Its messages are single-SDU and fit the
	// initial credit window, so its sender completes on arrival acks
	// alone — then the messages sit parked, unread, until Close reaps
	// them.
	idle, err := conn.OpenStream()
	if err != nil {
		return err
	}

	sendErr := make(chan error, streamSiblings+2)
	sender := func(name string, send func([]byte) error, msgs [][]byte) {
		for i, m := range msgs {
			if err := send(m); err != nil {
				sendErr <- cfg.violation("%s send %d/%d: %v", name, i+1, len(msgs), err)
				return
			}
		}
		sendErr <- nil
	}
	go sender("stream0", conn.Send, flows[0])
	for i, st := range sts {
		go sender(fmt.Sprintf("stream%d", st.ID()), st.Send, flows[i+1])
	}
	idleMsg := make([]byte, harnessSDU/2)
	rng.Read(idleMsg)
	go sender("idle", idle.Send, [][]byte{idleMsg, idleMsg, idleMsg})

	// Receiver side: route accepted streams by ID (the harness holds
	// both ends), drain each consumed flow concurrently, and leave the
	// idle stream untouched.
	recvErr := make(chan error, streamSiblings+1)
	go func() { recvErr <- cfg.recvReliable(peer, flows[0]) }()
	acceptDone := make(chan error, 1)
	go func() {
		for k := 0; k < streamSiblings+1; k++ {
			st, err := peer.AcceptStreamTimeout(recvDeadline)
			if err != nil {
				acceptDone <- cfg.violation("accept stream %d/%d: %v", k+1, streamSiblings+1, err)
				return
			}
			if st.ID() == idle.ID() {
				continue
			}
			for i := range sts {
				if st.ID() == sts[i].ID() {
					go func(st *core.Stream, expected [][]byte) {
						recvErr <- cfg.drainStream(st, expected)
					}(st, flows[i+1])
				}
			}
		}
		acceptDone <- nil
	}()

	// Collect everything under one deadline. A sibling that cannot
	// finish while the idle stream sits parked is exactly the
	// cross-stream HOL blocking this axis exists to catch.
	deadline := time.After(2 * recvDeadline)
	var firstErr error
	collect := func(ch <-chan error, n int, what string) {
		for k := 0; k < n; k++ {
			select {
			case err := <-ch:
				if err != nil && firstErr == nil {
					firstErr = err
				}
			case <-deadline:
				if firstErr == nil {
					firstErr = cfg.violation("%s hung with the idle stream parked", what)
				}
				return
			}
		}
	}
	collect(acceptDone, 1, "stream accept")
	collect(recvErr, streamSiblings+1, "receivers")
	collect(sendErr, streamSiblings+2, "senders")
	return firstErr
}

// drainStream asserts one stream's exactly-once, in-order,
// byte-identical delivery, mirroring recvReliable for stream 0.
func (c Config) drainStream(st *core.Stream, expected [][]byte) error {
	for i, want := range expected {
		if c.ConsumerDelay > 0 {
			time.Sleep(c.ConsumerDelay)
		}
		m, err := st.RecvMessageTimeout(recvDeadline)
		if err != nil {
			return c.violation("stream %d message %d/%d never delivered: %v", st.ID(), i+1, len(expected), err)
		}
		lost, size, intact := m.Lost, len(m.Data), bytes.Equal(m.Data, want)
		m.Release()
		if lost != 0 {
			return c.violation("stream %d message %d delivered with Lost=%d on a reliable connection", st.ID(), i+1, lost)
		}
		if !intact {
			return c.violation("stream %d message %d corrupted or out of order: got %d bytes, want %d",
				st.ID(), i+1, size, len(want))
		}
	}
	// Nothing may trail the sequence on this stream — a duplicate here
	// is a session delivered twice.
	if m, err := st.RecvMessageTimeout(100 * time.Millisecond); err == nil {
		size := len(m.Data)
		m.Release()
		return c.violation("stream %d: extra %d-byte message after the full sequence (duplicate delivery)", st.ID(), size)
	} else if !errors.Is(err, core.ErrRecvTimeout) && !errors.Is(err, core.ErrStreamClosed) {
		return c.violation("stream %d: post-sequence receive failed: %v", st.ID(), err)
	}
	return nil
}
