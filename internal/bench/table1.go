package bench

import (
	"fmt"
	"strings"
	"time"

	"ncs/internal/core"
	"ncs/internal/transport"
)

// TableIConfig parameterises the Table I reproduction.
type TableIConfig struct {
	// Iterations of the 1-byte instrumented send. Default 200.
	Iterations int
	// MessageSize is 1 in the paper.
	MessageSize int
	// Interface carries the send; the paper used the BSD socket
	// interface. Default SCI.
	Interface transport.Kind
}

func (c TableIConfig) withDefaults() TableIConfig {
	if c.Iterations <= 0 {
		c.Iterations = 200
	}
	if c.MessageSize <= 0 {
		c.MessageSize = 1
	}
	if c.Interface == 0 {
		c.Interface = transport.SCI
	}
	return c
}

// TableIRow is one line of the reproduced table.
type TableIRow struct {
	Activity string
	Measured time.Duration
	PaperUS  float64 // the paper's published value, for side-by-side
}

// TableIResult is the reproduced Table I.
type TableIResult struct {
	Rows            []TableIRow
	SessionOverhead time.Duration
	DataTransfer    time.Duration
	Total           time.Duration
	// Paper totals for reference.
	PaperSessionUS, PaperDataUS, PaperTotalUS float64
}

// TableI reproduces "Cost of Sending 1-Byte Message via Send Thread":
// a threaded, instrumented NCS_send over the socket interface with flow
// and error control bypassed, exactly the §4.2 configuration. Absolute
// numbers reflect this machine; the paper's 1998 measurements are
// carried alongside for comparison. The structural claim preserved is
// the split into session overhead (everything threading adds) versus
// data transfer, and session overhead dominating at 1 byte relative to
// its share at large sizes.
func TableI(cfg TableIConfig) (*TableIResult, error) {
	cfg = cfg.withDefaults()

	nw := core.NewNetwork()
	defer nw.Close()
	a, err := nw.NewSystem("t1-sender")
	if err != nil {
		return nil, err
	}
	b, err := nw.NewSystem("t1-receiver")
	if err != nil {
		return nil, err
	}
	conn, err := a.Connect("t1-receiver", core.Options{
		Interface: cfg.Interface,
	})
	if err != nil {
		return nil, err
	}
	peer, err := b.AcceptTimeout(5 * time.Second)
	if err != nil {
		return nil, err
	}
	recvDone := make(chan struct{})
	go func() {
		defer close(recvDone)
		for {
			if _, err := peer.Recv(); err != nil {
				return
			}
		}
	}()
	defer func() { conn.Close(); peer.Close(); <-recvDone }()

	msg := make([]byte, cfg.MessageSize)
	type stages struct {
		entry, queue, switchIn, data, back, exit []time.Duration
	}
	var st stages
	for i := 0; i < cfg.Iterations; i++ {
		tr, err := conn.SendInstrumented(msg)
		if err != nil {
			return nil, err
		}
		st.entry = append(st.entry, tr.EntryAndHeader())
		st.queue = append(st.queue, tr.Queue())
		st.switchIn = append(st.switchIn, tr.SwitchToSendThread())
		st.data = append(st.data, tr.DataTransfer())
		st.back = append(st.back, tr.SwitchBack())
		st.exit = append(st.exit, tr.Exit())
	}

	rows := []TableIRow{
		{"NCS_send entry + header attach", median(st.entry), 14},             // rows 1-2: 10+4
		{"Queuing a message request", median(st.queue), 15},                  // row 3
		{"Context switch to Send Thread + dequeue", median(st.switchIn), 44}, // rows 4-5: 27+17
		{"Free request + context switch back", median(st.back), 35},          // rows 7-8: 10+25
		{"NCS_send exit (part of entry/exit)", median(st.exit), 0},
		{"Transmitting the message", median(st.data), 274}, // row 6
	}
	res := &TableIResult{
		Rows:           rows,
		DataTransfer:   median(st.data),
		PaperSessionUS: 108,
		PaperDataUS:    274,
		PaperTotalUS:   383,
	}
	for _, r := range rows[:5] {
		res.SessionOverhead += r.Measured
	}
	res.Total = res.SessionOverhead + res.DataTransfer
	return res, nil
}

// Render formats the table next to the paper's published values.
func (t *TableIResult) Render() string {
	var b strings.Builder
	b.WriteString("Table I: cost of sending a 1-byte message via Send Thread\n")
	fmt.Fprintf(&b, "  %-42s %12s %12s\n", "activity", "measured", "paper (µs)")
	for _, r := range t.Rows {
		paper := "-"
		if r.PaperUS > 0 {
			paper = fmt.Sprintf("%.0f", r.PaperUS)
		}
		fmt.Fprintf(&b, "  %-42s %12v %12s\n", r.Activity, r.Measured, paper)
	}
	sessPct := 0.0
	if t.Total > 0 {
		sessPct = 100 * float64(t.SessionOverhead) / float64(t.Total)
	}
	fmt.Fprintf(&b, "  %-42s %12v %12.0f\n", "session overhead total", t.SessionOverhead, t.PaperSessionUS)
	fmt.Fprintf(&b, "  %-42s %12v %12.0f\n", "data transfer", t.DataTransfer, t.PaperDataUS)
	fmt.Fprintf(&b, "  %-42s %12v %12.0f\n", "total", t.Total, t.PaperTotalUS)
	fmt.Fprintf(&b, "  session overhead share: measured %.0f%%, paper 28%%\n", sessPct)
	return b.String()
}
