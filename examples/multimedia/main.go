// Multimedia: the interactive-multimedia scenario of Figure 2. One
// participant streams three media to another over a lossy ATM network —
// on ONE connection, with each medium riding its own stream:
//
//   - control/data: the connection's default stream 0 (plain Send /
//     RecvMessage — exactly the pre-streams API);
//   - video: a dedicated stream carrying bulky 8KB frames;
//   - audio: a second stream of small, frequent samples.
//
// Every stream shares the connection's selective-repeat error control
// and credit-based flow control, but each has its OWN credit window:
// the bulky video flow can exhaust only its own credits, so audio
// samples and control blocks keep flowing even while video floods the
// link — and even while the viewer lags. The receiver deliberately
// delays draining video for a moment to show that an unconsumed stream
// parks by itself without stalling its siblings.
//
// (Earlier revisions of this example worked around the single-flow
// delivery model with three separate connections, one per medium. The
// stream mux makes that plumbing unnecessary.)
//
// Run with: go run ./examples/multimedia
package main

import (
	"bytes"
	"fmt"
	"log"
	"sync/atomic"
	"time"

	"ncs"
)

const (
	videoFrames = 60
	audioFrames = 120
	dataBlocks  = 20
	cellLoss    = 0.02
	videoLag    = 150 * time.Millisecond // how long the viewer ignores video
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	nw := ncs.NewNetwork()
	defer nw.Close()

	sender, err := nw.NewSystem("participant-1")
	if err != nil {
		return err
	}
	receiver, err := nw.NewSystem("participant-2")
	if err != nil {
		return err
	}

	// One connection for the whole session: reliable (selective repeat
	// recovers the fabric's cell loss for every stream) and credit flow
	// controlled per stream.
	conn, err := sender.Connect("participant-2", ncs.Options{
		Interface:    ncs.ACI,
		FlowControl:  ncs.FlowCredit,
		ErrorControl: ncs.ErrorSelectiveRepeat,
		SDUSize:      1024,
		AckTimeout:   30 * time.Millisecond,
		QoS:          ncs.QoS{CellLossRate: cellLoss, Seed: 42},
	})
	if err != nil {
		return err
	}
	peer, err := receiver.Accept()
	if err != nil {
		return err
	}

	// The sender opens one stream per medium; control rides stream 0.
	video, err := conn.OpenStream()
	if err != nil {
		return err
	}
	audio, err := conn.OpenStream()
	if err != nil {
		return err
	}

	type mediaStats struct {
		delivered atomic.Int64
		done      chan struct{}
	}
	newStats := func() *mediaStats { return &mediaStats{done: make(chan struct{})} }
	vStats, aStats, dStats := newStats(), newStats(), newStats()

	drain := func(recv func() (ncs.Message, error), frames int, stats *mediaStats) {
		defer close(stats.done)
		for i := 0; i < frames; i++ {
			// A played frame is not kept: RecvMessage lends it (m.Data is
			// read-only) and Release hands its buffer back, where Recv would
			// copy it out. Release exactly once; m.Bytes() keeps it instead.
			m, err := recv()
			if err != nil {
				return
			}
			m.Release()
			stats.delivered.Add(1)
		}
	}

	// Receiver side: accept the two media streams (identified by their
	// IDs — stream IDs are connection-scoped and visible on both ends),
	// then drain each medium on its own goroutine. Video is left
	// unconsumed for videoLag first: its frames park on its own stream
	// and its credit window simply stops refilling, without blocking
	// audio or control.
	// duringLag snapshots how much audio and data arrived while the
	// viewer was ignoring video — the isolation evidence.
	var audioDuringLag, dataDuringLag atomic.Int64
	acceptErr := make(chan error, 2)
	for i := 0; i < 2; i++ {
		go func() {
			st, err := peer.AcceptStreamTimeout(5 * time.Second)
			if err != nil {
				acceptErr <- err
				return
			}
			acceptErr <- nil
			switch st.ID() {
			case video.ID():
				time.Sleep(videoLag) // the lagging viewer
				audioDuringLag.Store(aStats.delivered.Load())
				dataDuringLag.Store(dStats.delivered.Load())
				drain(st.RecvMessage, videoFrames, vStats)
			case audio.ID():
				drain(st.RecvMessage, audioFrames, aStats)
			}
		}()
	}
	go drain(peer.RecvMessage, dataBlocks, dStats)

	// Sender side: pump the three media concurrently.
	pump := func(send func([]byte) error, payload []byte, frames int) chan error {
		ch := make(chan error, 1)
		go func() {
			for i := 0; i < frames; i++ {
				if err := send(payload); err != nil {
					ch <- err
					return
				}
			}
			ch <- nil
		}()
		return ch
	}
	videoErr := pump(video.Send, bytes.Repeat([]byte{0xF1}, 8*1024), videoFrames)
	audioErr := pump(audio.Send, bytes.Repeat([]byte{0xA0}, 1024), audioFrames)
	dataErr := pump(conn.Send, bytes.Repeat([]byte("important-document"), 500), dataBlocks)

	for i := 0; i < 2; i++ {
		if err := <-acceptErr; err != nil {
			return err
		}
	}
	for _, ch := range []chan error{videoErr, audioErr, dataErr} {
		if err := <-ch; err != nil {
			return err
		}
	}
	<-vStats.done
	<-aStats.done
	<-dStats.done

	fmt.Printf("video: %d/%d frames on stream %d (viewer lagged %v; frames parked on video's own credits)\n",
		vStats.delivered.Load(), videoFrames, video.ID(), videoLag)
	fmt.Printf("audio: %d/%d samples on stream %d (%d arrived while the viewer lagged)\n",
		aStats.delivered.Load(), audioFrames, audio.ID(), audioDuringLag.Load())
	fmt.Printf("data : %d/%d blocks on stream 0 (%d arrived while the viewer lagged)\n",
		dStats.delivered.Load(), dataBlocks, dataDuringLag.Load())

	for _, s := range []struct {
		name  string
		stats *mediaStats
		want  int
	}{
		{"video", vStats, videoFrames},
		{"audio", aStats, audioFrames},
		{"data", dStats, dataBlocks},
	} {
		if got := int(s.stats.delivered.Load()); got != s.want {
			return fmt.Errorf("%s stream lost data: %d/%d", s.name, got, s.want)
		}
	}
	// The isolation claim: while the viewer ignored video — its frames
	// parked, its credit window spent — the sibling flows kept moving.
	// (On this fabric every flow also pays selective-repeat recovery
	// rounds for the cell loss; that pacing is loss recovery, shared
	// with the old three-connection layout, not head-of-line blocking.)
	if audioDuringLag.Load() == 0 || dataDuringLag.Load() == 0 {
		return fmt.Errorf("siblings stalled behind the unconsumed video stream (audio %d, data %d during lag)",
			audioDuringLag.Load(), dataDuringLag.Load())
	}
	fmt.Println("three media, one connection: per-stream credits kept every flow independent.")
	return nil
}
