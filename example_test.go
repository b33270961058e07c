package pops_test

import (
	"context"
	"fmt"
	"math"
	"sort"

	"repro"
)

// ExampleBounds shows the §3.1 delay-space exploration: every bounded
// path has a finite [Tmin, Tmax] window, and constraints are classified
// against it before any optimization is attempted.
func ExampleBounds() {
	model := pops.NewModel(pops.DefaultProcess())
	circuit, _ := pops.Benchmark("c17")
	path, _, _ := pops.CriticalPath(circuit, model)
	b, _ := pops.Bounds(model, path)
	fmt.Println("bounds ordered:", 0 < b.Tmin && b.Tmin < b.Tmax)
	// Output:
	// bounds ordered: true
}

// ExampleDistribute sizes a path to a constraint at minimum area and
// shows that infeasible constraints are rejected rather than looped on.
func ExampleDistribute() {
	model := pops.NewModel(pops.DefaultProcess())
	circuit, _ := pops.Benchmark("fpd")
	path, _, _ := pops.CriticalPath(circuit, model)
	b, _ := pops.Bounds(model, path.Clone())

	res, err := pops.Distribute(model, path, 1.5*b.Tmin)
	fmt.Println("met constraint:", err == nil && res.Delay <= 1.5*b.Tmin*1.0001)

	_, err = pops.Distribute(model, path.Clone(), 0.5*b.Tmin)
	fmt.Println("infeasible rejected:", err != nil)
	// Output:
	// met constraint: true
	// infeasible rejected: true
}

// ExampleCharacterizeLibrary prints the paper's Table 2 ordering: the
// fan-out limit falls as the gate gets less efficient, NOR3 last.
func ExampleCharacterizeLibrary() {
	model := pops.NewModel(pops.DefaultProcess())
	entries := pops.CharacterizeLibrary(model)
	names := make([]string, len(entries))
	for i, e := range entries {
		names[i] = e.Gate.String()
	}
	fmt.Println(names[0], ">", names[len(names)-1])
	// Output:
	// INV > NOR4
}

// ExampleEquivalent proves that optimization preserves logic on a real
// arithmetic circuit.
func ExampleEquivalent() {
	model := pops.NewModel(pops.DefaultProcess())
	adder, _ := pops.Benchmark("rca4")
	original := adder.Clone()

	proto, _ := pops.NewProtocol(pops.ProtocolConfig{Model: model})
	path, _, _ := pops.CriticalPath(adder, model)
	b, _ := pops.Bounds(model, path.Clone())
	out, _ := proto.Optimize(context.Background(), proto.NewTimingSession(adder), 1.4*b.Tmin, nil, nil)

	ce, _ := pops.Equivalent(original, adder, 0, 1) // exhaustive: 9 inputs
	fmt.Println("feasible:", out.Feasible)
	fmt.Println("still adds:", ce == nil)
	// Output:
	// feasible: true
	// still adds: true
}

// ExampleNewEngine runs a batch workload through the concurrent
// engine: an area/delay trade-off sweep whose points are byte-identical
// to sequential protocol runs regardless of worker count.
func ExampleNewEngine() {
	eng, _ := pops.NewEngine(pops.EngineConfig{Workers: 4})
	curve, _ := eng.Sweep(context.Background(), pops.SweepRequest{Circuit: "fpd", Points: 5})

	fmt.Println("points:", len(curve.Points))
	fmt.Println("grid spans Tmin to 2*Tmin:",
		curve.Points[0].Tc == curve.Tmin && curve.Points[4].Tc == 2*curve.Tmin)
	monotone := true
	for i := 1; i < len(curve.Points); i++ {
		if curve.Points[i].Area > curve.Points[i-1].Area {
			monotone = false
		}
	}
	fmt.Println("looser constraints never cost more area:", monotone)
	// Output:
	// points: 5
	// grid spans Tmin to 2*Tmin: true
	// looser constraints never cost more area: true
}

// ExampleProtocol_Optimize shows the leakage-aware flow: the Fig. 7
// protocol sizes the circuit to Tc, then the selective multi-Vt pass
// promotes non-critical gates to high-threshold devices, cutting
// subthreshold leakage without violating the constraint.
func ExampleProtocol_Optimize() {
	model := pops.NewModel(pops.DefaultProcess())
	circuit, _ := pops.Benchmark("fpd")
	path, _, _ := pops.CriticalPath(circuit, model)
	b, _ := pops.Bounds(model, path.Clone())

	proto, _ := pops.NewProtocol(pops.ProtocolConfig{Model: model})
	out, _ := proto.Optimize(context.Background(), proto.NewTimingSession(circuit), 1.5*b.Tmin, &pops.LeakageOptions{}, nil)

	lr := out.Leakage
	fmt.Println("constraint met:", out.Feasible && out.Delay <= 1.5*b.Tmin)
	fmt.Println("gates promoted to HVT:", lr.Promoted > 0 && lr.ByClass[pops.HVT] == lr.Promoted)
	fmt.Println("leakage reduced:", lr.StaticAfterUW < lr.StaticBeforeUW)
	fmt.Println("total is dynamic plus leakage:",
		math.Abs(lr.TotalAfterUW-(lr.DynamicUW+lr.StaticAfterUW)) < 1e-9)
	// Output:
	// constraint met: true
	// gates promoted to HVT: true
	// leakage reduced: true
	// total is dynamic plus leakage: true
}

// ExampleEstimateStaticPower scores the subthreshold leakage of a
// circuit per Vt class: an all-HVT assignment leaks an order of
// magnitude less than the all-SVT default.
func ExampleEstimateStaticPower() {
	proc := pops.DefaultProcess()
	circuit, _ := pops.Benchmark("c17")
	svt, _ := pops.EstimateStaticPower(circuit, proc, pops.PowerOptions{})

	for _, n := range circuit.Nodes {
		if n.IsLogic() {
			n.Vt = pops.HVT
		}
	}
	hvt, _ := pops.EstimateStaticPower(circuit, proc, pops.PowerOptions{})

	fmt.Println("leaks at SVT:", svt.TotalUW > 0)
	fmt.Println("HVT an order of magnitude lower:", hvt.TotalUW < svt.TotalUW/5)
	// Output:
	// leaks at SVT: true
	// HVT an order of magnitude lower: true
}

// ExampleBenchmarks lists the evaluation suite of the paper's Table 1.
func ExampleBenchmarks() {
	var names []string
	for _, s := range pops.Benchmarks() {
		names = append(names, s.Name)
	}
	sort.Strings(names)
	fmt.Println(len(names), "benchmarks, including", names[2], "and", names[10])
	// Output:
	// 11 benchmarks, including c1908 and fpd
}
