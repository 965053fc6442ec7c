package bench

import (
	"errors"
	"fmt"
	"strings"
	"time"

	"ncs/internal/core"
	"ncs/internal/errctl"
	"ncs/internal/flowctl"
	"ncs/internal/netsim"
	"ncs/internal/transport"
)

// The loss experiment reproduces the paper's error-control comparison
// (§3.2): the same message stream pushed through each error-control
// mode while the link loses an increasing fraction of its packets. It
// is the quantitative form of the paper's argument — selective repeat
// retransmits only what was lost, go-back-N replays the tail, and
// "none" trades completeness for timeliness — and it runs on the
// fault-injection layer the chaos harness uses, so every cell of the
// table is seeded and reproducible.

// LossConfig parameterises the sweep.
type LossConfig struct {
	// LossRates to sweep. Default 0, 1%, 5%, 10%.
	LossRates []float64
	// Modes compared. Default None, go-back-N, selective repeat.
	Modes []errctl.Algorithm
	// Messages per cell; default 30.
	Messages int
	// MsgSize in bytes; default 16 KB (multi-SDU at the 4 KB default).
	MsgSize int
	// Seed drives the link's loss process. Default 1.
	Seed int64
}

func (c LossConfig) withDefaults() LossConfig {
	if len(c.LossRates) == 0 {
		c.LossRates = []float64{0, 0.01, 0.05, 0.10}
	}
	if len(c.Modes) == 0 {
		c.Modes = []errctl.Algorithm{errctl.None, errctl.GoBackN, errctl.SelectiveRepeat}
	}
	if c.Messages <= 0 {
		c.Messages = 30
	}
	if c.MsgSize <= 0 {
		c.MsgSize = 16 * 1024
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	return c
}

// LossPoint is one cell of the sweep.
type LossPoint struct {
	LossRate float64
	Mode     errctl.Algorithm
	// Elapsed is the wall time to move every message.
	Elapsed time.Duration
	// Goodput is delivered payload over elapsed time, bytes/second.
	Goodput float64
	// Retransmissions counts SDUs re-sent by error control.
	Retransmissions uint64
	// DeliveredMessages and LostSDUs describe what the receiver saw
	// (losses only ever non-zero for the None mode).
	DeliveredMessages int
	LostSDUs          int
}

// LossResult is the full sweep.
type LossResult struct {
	Config LossConfig
	Points []LossPoint
}

// LossSweep runs the error-control comparison over a lossy simulated
// HPI link (loss injected through the netsim impairment layer, seeded
// for reproducibility).
func LossSweep(cfg LossConfig) (LossResult, error) {
	cfg = cfg.withDefaults()
	res := LossResult{Config: cfg}
	for _, rate := range cfg.LossRates {
		for _, mode := range cfg.Modes {
			pt, err := lossCell(cfg, rate, mode)
			if err != nil {
				return res, fmt.Errorf("loss %.0f%% %v: %w", rate*100, mode, err)
			}
			res.Points = append(res.Points, pt)
		}
	}
	return res, nil
}

func lossCell(cfg LossConfig, rate float64, mode errctl.Algorithm) (LossPoint, error) {
	nw := core.NewNetwork()
	defer nw.Close()
	opts := core.Options{
		Interface:    transport.HPI,
		ErrorControl: mode,
		FlowControl:  flowctl.Credit,
		AckTimeout:   25 * time.Millisecond,
		HPILink: &netsim.Params{
			Delay: 200 * time.Microsecond,
			Seed:  cfg.Seed,
			// i.i.d. loss expressed through the impairment layer's
			// burst model (good-state loss only), keeping the whole
			// failure process on the link's seeded RNG stream.
			Impair: netsim.Impairments{Burst: netsim.GilbertElliott{LossGood: rate}},
		},
	}
	a, err := nw.NewSystem("loss-a")
	if err != nil {
		return LossPoint{}, err
	}
	b, err := nw.NewSystem("loss-b")
	if err != nil {
		return LossPoint{}, err
	}
	conn, err := a.Connect("loss-b", opts)
	if err != nil {
		return LossPoint{}, err
	}
	peer, err := b.AcceptTimeout(5 * time.Second)
	if err != nil {
		return LossPoint{}, err
	}
	defer conn.Close()
	defer peer.Close()

	msg := make([]byte, cfg.MsgSize)
	for i := range msg {
		msg[i] = byte(i)
	}
	pt := LossPoint{LossRate: rate, Mode: mode}
	// The receiver owns its counters and hands them back over the
	// channel, so an early error return here never races its updates.
	type recvResult struct {
		delivered, lostSDUs int
		err                 error
	}
	recvCh := make(chan recvResult, 1)
	go func() {
		var r recvResult
		for i := 0; i < cfg.Messages; i++ {
			m, err := peer.RecvMessageTimeout(10 * time.Second)
			if errors.Is(err, core.ErrRecvTimeout) && mode == errctl.None {
				// An unreliable message whose end SDU was lost never
				// completes; that is the mode's contract, not a stall.
				continue
			}
			if err != nil {
				r.err = err
				recvCh <- r
				return
			}
			r.delivered++
			r.lostSDUs += m.Lost
			m.Release()
		}
		recvCh <- r
	}()

	start := time.Now()
	for i := 0; i < cfg.Messages; i++ {
		if err := conn.Send(msg); err != nil {
			return pt, err
		}
	}
	var r recvResult
	if mode == errctl.None {
		// Fire-and-forget: the transfer ends when the sender hands the
		// last SDU over; then give the tail time to land and unblock
		// the receiver by closing.
		pt.Elapsed = time.Since(start)
		time.Sleep(250 * time.Millisecond)
		conn.Close()
		peer.Close()
		r = <-recvCh
	} else {
		r = <-recvCh
		if r.err != nil {
			return pt, r.err
		}
		pt.Elapsed = time.Since(start)
	}
	pt.DeliveredMessages = r.delivered
	pt.LostSDUs = r.lostSDUs
	st := peer.Stats()
	pt.Goodput = float64(st.BytesReceived) / pt.Elapsed.Seconds()
	pt.Retransmissions = conn.Stats().Retransmissions
	return pt, nil
}

// Render formats the sweep as the paper-style comparison table.
func (r LossResult) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Error control under packet loss (%d × %d KB messages per cell, seed %d)\n",
		r.Config.Messages, r.Config.MsgSize/1024, r.Config.Seed)
	fmt.Fprintf(&b, "%-8s %-18s %12s %14s %8s %10s %8s\n",
		"loss", "mode", "elapsed", "goodput", "retx", "delivered", "lostSDU")
	for _, p := range r.Points {
		fmt.Fprintf(&b, "%-8s %-18s %12s %11.2f MB/s %8d %10d %8d\n",
			fmt.Sprintf("%.0f%%", p.LossRate*100), p.Mode.String(),
			p.Elapsed.Round(time.Millisecond), p.Goodput/1e6,
			p.Retransmissions, p.DeliveredMessages, p.LostSDUs)
	}
	return b.String()
}
