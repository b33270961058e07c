// Adder16: run the full circuit-level protocol on a genuine structural
// 16-bit ripple-carry adder (nine-NAND full adders), then prove the
// optimized netlist still adds.
package main

import (
	"context"
	"fmt"
	"log"

	"repro"
)

func main() {
	proc := pops.DefaultProcess()
	model := pops.NewModel(proc)

	adder, err := pops.Benchmark("rca16")
	if err != nil {
		log.Fatal(err)
	}
	original := adder.Clone()
	stats := adder.Stats()
	fmt.Printf("rca16: %d gates, depth %d\n", stats.Gates, stats.Depth)

	path, sta, err := pops.CriticalPath(adder, model)
	if err != nil {
		log.Fatal(err)
	}
	bounds, err := pops.Bounds(model, path.Clone())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("carry chain: %d gates, unsized delay %.0f ps, Tmin %.0f ps\n",
		path.Len(), sta.WorstDelay, bounds.Tmin)

	// Drive the whole adder to 1.25×Tmin with the Fig. 7 protocol. An
	// adder has one near-critical path per sum bit, and each round
	// fixes the current worst one, so give the driver room to visit
	// them all (the paper's "iterative timing verification").
	proto, err := pops.NewProtocol(pops.ProtocolConfig{Model: model, MaxRounds: 64})
	if err != nil {
		log.Fatal(err)
	}
	tc := 1.25 * bounds.Tmin
	out, err := proto.Optimize(context.Background(), proto.NewTimingSession(adder), tc, nil)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("protocol: delay %.0f ps (Tc %.0f), area %.0f µm, %d rounds, %d buffer pairs, feasible=%v\n",
		out.Delay, tc, out.Area, out.Rounds, out.Buffers, out.Feasible)
	for i, po := range out.PathOutcomes {
		fmt.Printf("  round %d: %s domain → %s\n", i+1, po.Domain, po.Method)
	}

	// The optimized adder must still be an adder.
	ce, err := pops.Equivalent(original, adder, 400, 2026)
	if err != nil {
		log.Fatal(err)
	}
	if ce != nil {
		log.Fatalf("optimization broke the adder: %v", ce)
	}
	fmt.Println("functional equivalence: verified (randomized + corner vectors)")
}
