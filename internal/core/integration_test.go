package core

import (
	"testing"

	"repro/internal/delay"
	"repro/internal/gate"
	"repro/internal/iscas"
	"repro/internal/logic"
	"repro/internal/netlist"
	"repro/internal/sizing"
	"repro/internal/sta"
	"repro/internal/tech"
)

// Integration tests of the circuit-level protocol beyond the basic
// feasibility checks: idempotence, interacting paths, and robustness.

func TestProtocolIdempotentOnFeasibleCircuit(t *testing.T) {
	m := delay.NewModel(tech.CMOS025())
	p, err := NewProtocol(Config{Model: m})
	if err != nil {
		t.Fatal(err)
	}
	spec, _ := iscas.ByName("fpd")
	c := iscas.MustGenerate(spec)
	res, err := sta.Analyze(c, m, sta.Config{})
	if err != nil {
		t.Fatal(err)
	}
	// A constraint the unsized circuit already meets: nothing to do.
	tc := res.WorstDelay * 1.2
	out, err := optimizeFresh(p, c, tc)
	if err != nil {
		t.Fatal(err)
	}
	if !out.Feasible {
		t.Fatal("already-met constraint reported infeasible")
	}
	if out.Buffers != 0 || out.NorRewrites != 0 || len(out.PathOutcomes) != 0 {
		t.Fatalf("protocol mutated a feasible circuit: %+v", out)
	}
}

func TestProtocolConvergesOnInteractingPaths(t *testing.T) {
	// Two paths sharing a stem: sizing one reshapes the other (the
	// paper's "adjacent upward paths" problem). The driver must
	// converge across rounds, not oscillate.
	m := delay.NewModel(tech.CMOS025())
	p, err := NewProtocol(Config{Model: m, MaxRounds: 16})
	if err != nil {
		t.Fatal(err)
	}
	c := netlist.New("interact")
	for _, in := range []string{"a", "b"} {
		if _, err := c.AddInput(in); err != nil {
			t.Fatal(err)
		}
	}
	add := func(name string, ty gate.Type, fanin ...string) {
		t.Helper()
		if _, err := c.AddGate(name, ty, fanin...); err != nil {
			t.Fatal(err)
		}
	}
	// Shared stem.
	add("stem1", gate.Inv, "a")
	add("stem2", gate.Nand2, "stem1", "b")
	// Branch 1: deep.
	prev := "stem2"
	for i := 0; i < 6; i++ {
		name := "p" + string(rune('0'+i))
		add(name, gate.Inv, prev)
		prev = name
	}
	if _, err := c.AddOutput(prev, 25); err != nil {
		t.Fatal(err)
	}
	// Branch 2: slightly shallower but heavily loaded.
	prev = "stem2"
	for i := 0; i < 5; i++ {
		name := "q" + string(rune('0'+i))
		add(name, gate.Nor2, prev, "b")
		prev = name
	}
	if _, err := c.AddOutput(prev, 60); err != nil {
		t.Fatal(err)
	}
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}

	res, err := sta.Analyze(c, m, sta.Config{})
	if err != nil {
		t.Fatal(err)
	}
	orig := c.Clone()
	tc := res.WorstDelay * 0.45
	out, err := optimizeFresh(p, c, tc)
	if err != nil {
		t.Fatal(err)
	}
	if !out.Feasible {
		t.Fatalf("interacting paths not converged: final %.0f vs tc %.0f after %d rounds",
			out.Delay, tc, out.Rounds)
	}
	// Multiple rounds should have been needed (both branches get
	// touched).
	if out.Rounds < 2 {
		t.Logf("converged in %d round(s) — single-round convergence is fine but unexpected", out.Rounds)
	}
	ce, err := logic.Equivalent(orig, c, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if ce != nil {
		t.Fatalf("logic changed: %v", ce)
	}
}

func TestProtocolTighteningSequence(t *testing.T) {
	// Repeatedly tightening the constraint on the same circuit must
	// keep succeeding until the structural floor, with area rising
	// monotonically-ish.
	m := delay.NewModel(tech.CMOS025())
	p, err := NewProtocol(Config{Model: m})
	if err != nil {
		t.Fatal(err)
	}
	spec, _ := iscas.ByName("c880")
	base := iscas.MustGenerate(spec)
	pa, _, err := sta.CriticalPath(base, m, sta.Config{})
	if err != nil {
		t.Fatal(err)
	}
	rt, err := tminOf(m, pa)
	if err != nil {
		t.Fatal(err)
	}
	prevArea := 0.0
	for _, ratio := range []float64{2.5, 1.6, 1.2} {
		c := base.Clone()
		out, err := optimizeFresh(p, c, ratio*rt)
		if err != nil {
			t.Fatal(err)
		}
		if !out.Feasible {
			t.Fatalf("ratio %g infeasible", ratio)
		}
		if prevArea > 0 && out.Area < prevArea*0.7 {
			t.Fatalf("area fell sharply under a tighter constraint: %g after %g", out.Area, prevArea)
		}
		prevArea = out.Area
	}
}

func tminOf(m *delay.Model, pa *delay.Path) (float64, error) {
	r, err := sizing.Tmin(m, pa.Clone(), sizing.Options{})
	if err != nil {
		return 0, err
	}
	return r.Delay, nil
}

func TestProtocolRespectsMaxRounds(t *testing.T) {
	m := delay.NewModel(tech.CMOS025())
	p, err := NewProtocol(Config{Model: m, MaxRounds: 2})
	if err != nil {
		t.Fatal(err)
	}
	spec, _ := iscas.ByName("c432")
	c := iscas.MustGenerate(spec)
	out, err := optimizeFresh(p, c, 1) // impossible
	if err != nil {
		t.Fatal(err)
	}
	if out.Rounds > 2 {
		t.Fatalf("rounds %d exceed MaxRounds 2", out.Rounds)
	}
}

func TestProtocolPreservesUntouchedSideLogic(t *testing.T) {
	// Gates off every optimized path keep their (fixed, environment)
	// sizes — the bounded-path contract.
	m := delay.NewModel(tech.CMOS025())
	p, err := NewProtocol(Config{Model: m, MaxRounds: 1})
	if err != nil {
		t.Fatal(err)
	}
	spec, _ := iscas.ByName("c432")
	c := iscas.MustGenerate(spec)
	before := map[string]float64{}
	for _, g := range c.Gates() {
		before[g.Name] = g.CIn
	}
	pa, _, err := sta.CriticalPath(c, m, sta.Config{})
	if err != nil {
		t.Fatal(err)
	}
	onPath := map[string]bool{}
	for i := range pa.Stages {
		if n := pa.Stages[i].Node; n != nil {
			onPath[n.Name] = true
		}
	}
	rt, err := tminOf(m, pa)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := optimizeFresh(p, c, 1.5*rt); err != nil {
		t.Fatal(err)
	}
	changedOffPath := 0
	for _, g := range c.Gates() {
		if onPath[g.Name] {
			continue
		}
		if old, ok := before[g.Name]; ok && g.CIn != old {
			changedOffPath++
		}
	}
	// Later rounds may touch secondary paths; with MaxRounds=1 only
	// the first critical path's gates may move.
	if changedOffPath > 0 {
		t.Fatalf("%d off-path gates resized in a single round", changedOffPath)
	}
}

func TestProtocolConvergesOnManyParallelPaths(t *testing.T) {
	// Regression: a ripple-carry adder has one near-critical path per
	// sum bit, all sharing the carry chain. A fixed per-round margin
	// plateaus just above Tc as resized paths perturb each other; the
	// progressive tightening must converge instead.
	// (rca16 at 1.25·Tmin is the configuration that plateaued at
	// +0.2% above Tc under a fixed margin; smaller adders can be
	// genuinely joint-infeasible at this ratio because the sum and
	// carry paths share gates, so their joint optimum sits above any
	// single path's Tmin.)
	m := delay.NewModel(tech.CMOS025())
	p, err := NewProtocol(Config{Model: m, MaxRounds: 24})
	if err != nil {
		t.Fatal(err)
	}
	c, err := iscas.RippleCarryAdder(16)
	if err != nil {
		t.Fatal(err)
	}
	pa, _, err := sta.CriticalPath(c, m, sta.Config{})
	if err != nil {
		t.Fatal(err)
	}
	rt, err := sizing.Tmin(m, pa.Clone(), sizing.Options{})
	if err != nil {
		t.Fatal(err)
	}
	out, err := optimizeFresh(p, c, 1.25*rt.Delay)
	if err != nil {
		t.Fatal(err)
	}
	if !out.Feasible {
		t.Fatalf("parallel-path convergence failed: %.0f vs Tc %.0f after %d rounds",
			out.Delay, 1.25*rt.Delay, out.Rounds)
	}
}
