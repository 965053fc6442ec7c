package bench

import (
	"fmt"
	"strings"
	"time"

	"ncs/internal/core"
	"ncs/internal/telemetry"
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
	NotTaken bool    // the sends' path has no such step: written inline, never queued (Measured is 0)
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
// a threaded NCS_send over the socket interface with flow and error
// control bypassed, exactly the §4.2 configuration, read off the
// lifecycle tracer: every send is sampled and bracketed on the tracer's
// clock, each row is the median of one stage delta, and the sends are
// paced (each is received before the next starts). Tracing is
// process-global: TableI turns it on and leaves it off. Absolute numbers
// reflect this machine, with the paper's 1998 measurements alongside;
// the structural claim preserved is the split into session overhead
// (everything threading adds) versus data transfer. A paced send finds
// its wire free and is written by its caller, never Queued.
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
	conn, err := a.Connect("t1-receiver", core.Options{Interface: cfg.Interface})
	if err != nil {
		return nil, err
	}
	peer, err := b.AcceptTimeout(5 * time.Second)
	if err != nil {
		return nil, err
	}

	// Only this connection's traces that reached the wire count. WireOut is
	// stamped as the write starts: the write itself is in the exit row.
	telemetry.EnableTracing(1, 16)
	defer telemetry.DisableTracing()
	msg := make([]byte, cfg.MessageSize)
	var entry, queue, switchIn, data, back []time.Duration
	for i := 0; len(data) < cfg.Iterations; i++ {
		if i == 20*cfg.Iterations {
			return nil, fmt.Errorf("table I: %d sends, %d traces with a wire-out stamp", i, len(data))
		}
		enter := time.Duration(telemetry.TraceNow())
		if err := conn.Send(msg); err != nil {
			return nil, err
		}
		exit := time.Duration(telemetry.TraceNow())
		if _, err := peer.RecvTimeout(5 * time.Second); err != nil {
			return nil, fmt.Errorf("table I: send %d: %w", i, err)
		}
		for _, tr := range telemetry.TakeTraces() {
			at := func(s telemetry.TraceStage) time.Duration { return time.Duration(tr.Stage(s)) }
			if tr.ConnID != conn.ID() || at(telemetry.StageWireOut) == 0 {
				continue
			}
			entry = append(entry, at(telemetry.StageStaged)-enter)
			if at(telemetry.StageQueued) != 0 {
				queue = append(queue, at(telemetry.StageQueued)-at(telemetry.StageStaged))
				switchIn = append(switchIn, at(telemetry.StageDequeued)-at(telemetry.StageQueued))
			}
			data = append(data, at(telemetry.StageWireOut)-at(telemetry.StageDequeued))
			back = append(back, exit-at(telemetry.StageWireOut))
		}
	}
	inline := len(queue) == 0
	rows := []TableIRow{
		{"NCS_send entry + header attach", median(entry), 14, false},              // rows 1-2: 10+4
		{"Queuing a message request", median(queue), 15, inline},                  // row 3
		{"Context switch to Send Thread + dequeue", median(switchIn), 44, inline}, // rows 4-5: 27+17
		{"Free request + switch back + NCS_send exit", median(back), 35, false},   // rows 7-8: 10+25
		{"Transmitting the message", median(data), 274, false},                    // row 6
	}
	res := &TableIResult{Rows: rows, DataTransfer: median(data), PaperSessionUS: 108, PaperDataUS: 274, PaperTotalUS: 383}
	for _, r := range rows[:4] {
		res.SessionOverhead += r.Measured
	}
	res.Total = res.SessionOverhead + res.DataTransfer
	return res, nil
}

// Render formats the table next to the paper's published values.
func (t *TableIResult) Render() string {
	var b strings.Builder
	b.WriteString("Table I: cost of sending a 1-byte message via Send Thread\n")
	fmt.Fprintf(&b, "  %-42s %18s %12s\n", "activity", "measured", "paper (µs)")
	for _, r := range t.Rows {
		measured := fmt.Sprint(r.Measured)
		if r.NotTaken {
			measured = "not taken (inline)"
		}
		fmt.Fprintf(&b, "  %-42s %18s %12.0f\n", r.Activity, measured, r.PaperUS)
	}
	sessPct := 0.0
	if t.Total > 0 {
		sessPct = 100 * float64(t.SessionOverhead) / float64(t.Total)
	}
	fmt.Fprintf(&b, "  %-42s %18v %12.0f\n", "session overhead total", t.SessionOverhead, t.PaperSessionUS)
	fmt.Fprintf(&b, "  %-42s %18v %12.0f\n", "data transfer", t.DataTransfer, t.PaperDataUS)
	fmt.Fprintf(&b, "  %-42s %18v %12.0f\n", "total", t.Total, t.PaperTotalUS)
	fmt.Fprintf(&b, "  session overhead share: measured %.0f%%, paper 28%%\n", sessPct)
	return b.String()
}
