package leakage_test

import (
	"context"
	"testing"

	"repro/internal/core"
	"repro/internal/delay"
	"repro/internal/iscas"
	"repro/internal/leakage"
	"repro/internal/netlist"
	"repro/internal/sizing"
	"repro/internal/sta"
	"repro/internal/tech"
)

// optimized sizes a benchmark with the protocol at ratio·Tmin and
// returns the circuit, model and constraint.
func optimized(t *testing.T, name string, ratio float64) (*netlist.Circuit, *delay.Model, float64) {
	t.Helper()
	m := delay.NewModel(tech.CMOS025())
	c, err := iscas.Load(name)
	if err != nil {
		t.Fatal(err)
	}
	pa, _, err := sta.CriticalPath(c, m, sta.Config{})
	if err != nil {
		t.Fatal(err)
	}
	r, err := sizing.Tmin(m, pa.Clone(), sizing.Options{})
	if err != nil {
		t.Fatal(err)
	}
	tc := ratio * r.Delay
	proto, err := core.NewProtocol(core.Config{Model: m})
	if err != nil {
		t.Fatal(err)
	}
	out, err := proto.Optimize(context.Background(), proto.NewTimingSession(c), tc, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !out.Feasible {
		t.Fatalf("%s at %.2f·Tmin infeasible before the leakage pass", name, ratio)
	}
	return c, m, tc
}

func TestAssignReducesLeakageWithoutViolating(t *testing.T) {
	c, m, tc := optimized(t, "fpd", 1.5)
	res, err := leakage.Assign(context.Background(), c, m, tc, leakage.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Delay > tc {
		t.Fatalf("assignment violated the constraint: %v > %v", res.Delay, tc)
	}
	if res.Promoted == 0 {
		t.Fatal("no gate promoted on a feasibly sized circuit")
	}
	if res.StaticAfterUW >= res.StaticBeforeUW {
		t.Fatalf("leakage did not fall: %v -> %v", res.StaticBeforeUW, res.StaticAfterUW)
	}
	if res.TotalAfterUW >= res.TotalBeforeUW {
		t.Fatalf("total power did not fall: %v -> %v", res.TotalBeforeUW, res.TotalAfterUW)
	}
	if res.SavingPct <= 0 {
		t.Fatalf("saving %v%%", res.SavingPct)
	}
	if res.ByClass[tech.HVT] != res.Promoted {
		t.Fatalf("promoted %d but %d gates at HVT", res.Promoted, res.ByClass[tech.HVT])
	}
	// The final state must verify under a fresh full analysis too.
	fresh, err := sta.Analyze(c, m, sta.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if fresh.WorstDelay != res.Delay {
		t.Fatalf("incremental final delay %v, fresh analysis %v", res.Delay, fresh.WorstDelay)
	}
}

func TestAssignDeterministic(t *testing.T) {
	run := func() *leakage.Result {
		c, m, tc := optimized(t, "c432", 1.4)
		res, err := leakage.Assign(context.Background(), c, m, tc, leakage.Options{})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if *aByClass(a) != *aByClass(b) {
		t.Fatalf("class census diverged: %v vs %v", a.ByClass, b.ByClass)
	}
	if a.Delay != b.Delay || a.StaticAfterUW != b.StaticAfterUW || a.Promoted != b.Promoted {
		t.Fatalf("results diverged: %+v vs %+v", a, b)
	}
}

// aByClass flattens the class census into a comparable value.
func aByClass(r *leakage.Result) *[tech.NumVtClasses]int {
	var v [tech.NumVtClasses]int
	for cls, n := range r.ByClass {
		v[cls] = n
	}
	return &v
}

func TestAssignInfeasibleEntryNeverWorsens(t *testing.T) {
	// An unsized benchmark at an unreachable constraint: the pass must
	// keep the worst delay exactly where it was and still promote
	// gates off the critical cone.
	m := delay.NewModel(tech.CMOS025())
	c, err := iscas.Load("fpd")
	if err != nil {
		t.Fatal(err)
	}
	base, err := sta.Analyze(c, m, sta.Config{})
	if err != nil {
		t.Fatal(err)
	}
	tc := base.WorstDelay / 10 // hopeless
	res, err := leakage.Assign(context.Background(), c, m, tc, leakage.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Budget != base.WorstDelay {
		t.Fatalf("budget %v, want entry worst %v", res.Budget, base.WorstDelay)
	}
	if res.Delay > base.WorstDelay {
		t.Fatalf("pass worsened an infeasible circuit: %v > %v", res.Delay, base.WorstDelay)
	}
	if res.Promoted == 0 {
		t.Fatal("expected off-cone promotions even under an infeasible constraint")
	}
}

func TestAssignMaxPromotionsBound(t *testing.T) {
	c, m, tc := optimized(t, "fpd", 1.5)
	res, err := leakage.Assign(context.Background(), c, m, tc, leakage.Options{MaxPromotions: 3})
	if err != nil {
		t.Fatal(err)
	}
	if res.Promoted != 3 {
		t.Fatalf("promoted %d, want exactly the bound 3", res.Promoted)
	}
}

func TestAssignRejectsBadInputs(t *testing.T) {
	c, m, _ := optimized(t, "fpd", 1.5)
	if _, err := leakage.Assign(context.Background(), c, m, 0, leakage.Options{}); err == nil {
		t.Fatal("zero constraint accepted")
	}
}

func TestAssignCapAtSVT(t *testing.T) {
	// With the SVT ceiling an all-SVT circuit has no legal move, so
	// nothing is promoted; an LVT gate may still climb one rung.
	c, m, tc := optimized(t, "fpd", 1.5)
	res, err := leakage.Assign(context.Background(), c, m, tc, leakage.Options{CapAtSVT: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Promoted != 0 || res.ByClass[tech.HVT] != 0 {
		t.Fatalf("SVT ceiling violated: %+v", res)
	}
	var off *netlist.Node
	for _, n := range c.Nodes {
		if n.IsLogic() {
			off = n
		}
	}
	off.Vt = tech.LVT
	res, err = leakage.Assign(context.Background(), c, m, tc, leakage.Options{CapAtSVT: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.ByClass[tech.HVT] != 0 {
		t.Fatal("SVT ceiling let a gate reach HVT")
	}
	if off.Vt == tech.LVT && res.Promoted == 0 {
		t.Fatal("LVT gate with slack not promoted to SVT under the ceiling")
	}
}

func TestAssignLVTStartPromotesTwice(t *testing.T) {
	// A gate parked at LVT with huge slack must climb the full ladder
	// LVT → SVT → HVT.
	c, m, tc := optimized(t, "fpd", 2.5)
	var lvt *netlist.Node
	res0, err := sta.Analyze(c, m, sta.Config{})
	if err != nil {
		t.Fatal(err)
	}
	critical := map[*netlist.Node]bool{}
	for _, n := range res0.CriticalNodes() {
		critical[n] = true
	}
	for _, n := range c.Nodes {
		if n.IsLogic() && !critical[n] {
			lvt = n
			break
		}
	}
	if lvt == nil {
		t.Skip("no off-critical gate")
	}
	lvt.Vt = tech.LVT
	res, err := leakage.Assign(context.Background(), c, m, tc, leakage.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.ByClass[tech.LVT] != 0 {
		t.Fatalf("LVT gate not promoted: census %v", res.ByClass)
	}
	if lvt.Vt != tech.HVT {
		t.Fatalf("ladder stopped at %v", lvt.Vt)
	}
}
