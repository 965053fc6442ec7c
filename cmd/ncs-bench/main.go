// Command ncs-bench regenerates the tables and figures of the paper's
// evaluation section (§4). Each experiment prints the measured series
// in the paper's layout, with the 1998 published values alongside where
// the paper gives them. It reports; it gates nothing — trajectory
// numbers are recorded and bounded by benchmark/ (see README "Which
// ruler for what").
//
// Usage:
//
//	ncs-bench -exp table1
//	ncs-bench -exp fig10
//	ncs-bench -exp fig11
//	ncs-bench -exp fig12 -platform sun4
//	ncs-bench -exp fig12 -platform rs6000
//	ncs-bench -exp fig13
//	ncs-bench -exp rpc
//	ncs-bench -exp loss
//	ncs-bench -exp all
//
// The rpc experiment is not from the paper: it exercises the RPC layer
// (echo latency per interface, multiplexed throughput) built on top of
// the substrate the paper's figures evaluate. The loss experiment
// reproduces the paper's error-control comparison (§3.2): the same
// stream pushed through None, go-back-N, and selective repeat while
// the simulated link loses an increasing fraction of its packets.
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"

	"ncs/internal/bench"
	"ncs/internal/platform"
)

// experiments maps each -exp value to its runner. Kept as a table so
// the usage string and the unknown-experiment error can never drift
// from what actually runs.
func experiments(plat string, iters int) map[string]func() error {
	return map[string]func() error{
		"table1": runTable1,
		"fig10":  runFig10,
		"fig11":  runFig11,
		"fig12":  func() error { return runFig12(plat, iters) },
		"fig13":  func() error { return runFig13(iters) },
		"rpc":    func() error { return runRPC(iters) },
		"loss":   func() error { return runLoss(iters) },
	}
}

// experimentList returns the valid -exp values, sorted, for usage and
// error messages.
func experimentList() []string {
	names := []string{"all"}
	for name := range experiments("", 0) {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

func main() {
	var (
		exp   = flag.String("exp", "all", "experiment: "+strings.Join(experimentList(), ", "))
		plat  = flag.String("platform", "sun4", "fig12 platform: sun4 or rs6000")
		iters = flag.Int("iters", 10, "iterations per point for echo experiments")
	)
	flag.Parse()
	if flag.NArg() > 0 {
		// A bare "ncs-bench fig12" would otherwise silently run the
		// default experiment set and exit 0.
		fmt.Fprintf(os.Stderr, "ncs-bench: unexpected argument %q (experiments are selected with -exp <name>)\n", flag.Arg(0))
		fmt.Fprintf(os.Stderr, "experiments: %s\n", strings.Join(experimentList(), ", "))
		os.Exit(2)
	}
	if err := run(*exp, *plat, *iters); err != nil {
		fmt.Fprintln(os.Stderr, "ncs-bench:", err)
		os.Exit(1)
	}
}

func run(exp, plat string, iters int) error {
	if e, ok := experiments(plat, iters)[exp]; ok {
		return e()
	}
	if exp != "all" {
		return fmt.Errorf("unknown experiment %q (experiments: %s)",
			exp, strings.Join(experimentList(), ", "))
	}
	// Publication order, Figure 12 on both platforms.
	for _, e := range []func() error{
		runTable1, runFig10, runFig11,
		func() error { return runFig12("sun4", iters) },
		func() error { return runFig12("rs6000", iters) },
		func() error { return runFig13(iters) },
		func() error { return runRPC(iters) },
		func() error { return runLoss(iters) },
	} {
		if err := e(); err != nil {
			return err
		}
		fmt.Println()
	}
	return nil
}

func runTable1() error {
	res, err := bench.TableI(bench.TableIConfig{})
	if err != nil {
		return err
	}
	fmt.Print(res.Render())
	return nil
}

func runFig10() error {
	fig := bench.Figure10(bench.Fig10Config{})
	fmt.Print(fig.Render())
	fmt.Println("paper: curves cross at 4 KB; user-level climbs steeply beyond, " +
		"kernel-level stays near the compute load (overlap).")
	return nil
}

func runFig11() error {
	data := bench.Figure11(bench.Fig11Config{})
	fmt.Print(data.Fig.RenderRatio(data.Native))
	fmt.Println("paper: ratio ≈ 2.6–3.0 at 1 byte, decaying toward 1 at 64 KB.")
	return nil
}

func runFig12(plat string, iters int) error {
	var p platform.Platform
	switch plat {
	case "sun4":
		p = platform.SUN4
	case "rs6000":
		p = platform.RS6000
	default:
		return fmt.Errorf("unknown platform %q (want sun4 or rs6000)", plat)
	}
	fig, err := bench.FigureEcho(
		fmt.Sprintf("Figure 12: point-to-point echo over ATM, %s pair", p.Name),
		p, p, nil, iters)
	if err != nil {
		return err
	}
	fmt.Print(fig.Render())
	switch plat {
	case "sun4":
		fmt.Println("paper: NCS best on SUN-4; MPI and p4 degrade with size.")
	case "rs6000":
		fmt.Println("paper: p4 best on RS6000; PVM worst; NCS second.")
	}
	return nil
}

func runLoss(iters int) error {
	res, err := bench.LossSweep(bench.LossConfig{Messages: iters * 3})
	if err != nil {
		return err
	}
	fmt.Print(res.Render())
	fmt.Println("paper: \"none\" keeps line-rate timeliness but drops data; selective repeat\n" +
		"recovers with the fewest retransmissions; go-back-N replays the window tail.")
	return nil
}

func runFig13(iters int) error {
	fig, err := bench.FigureEcho(
		"Figure 13: echo over ATM, heterogeneous SUN-4 ↔ RS6000",
		platform.SUN4, platform.RS6000, nil, iters)
	if err != nil {
		return err
	}
	fmt.Print(fig.Render())
	fmt.Println("paper: NCS best; PVM comparable; p4 poor; MPI collapses at large sizes.")
	return nil
}
