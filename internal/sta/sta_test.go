package sta

import (
	"math"
	"testing"

	"repro/internal/delay"
	"repro/internal/gate"
	"repro/internal/netlist"
	"repro/internal/tech"
)

func model() *delay.Model { return delay.NewModel(tech.CMOS025()) }

// chainCircuit builds a pure inverter chain a → g0 → … → g(n-1) → out.
func chainCircuit(t *testing.T, n int, load float64) *netlist.Circuit {
	t.Helper()
	c := netlist.New("chain")
	if _, err := c.AddInput("a"); err != nil {
		t.Fatal(err)
	}
	prev := "a"
	for i := 0; i < n; i++ {
		name := "g" + string(rune('0'+i))
		if _, err := c.AddGate(name, gate.Inv, prev); err != nil {
			t.Fatal(err)
		}
		prev = name
	}
	if _, err := c.AddOutput(prev, load); err != nil {
		t.Fatal(err)
	}
	return c
}

// diamondCircuit builds two parallel branches of different depth:
//
//	a → s1 → s2 → s3 ─┐
//	                  ├→ j(NAND2) → out
//	a → f1 ──────────┘
func diamondCircuit(t *testing.T) *netlist.Circuit {
	t.Helper()
	c := netlist.New("diamond")
	if _, err := c.AddInput("a"); err != nil {
		t.Fatal(err)
	}
	for _, g := range []struct{ name, fanin string }{
		{"s1", "a"}, {"s2", "s1"}, {"s3", "s2"}, {"f1", "a"},
	} {
		if _, err := c.AddGate(g.name, gate.Inv, g.fanin); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := c.AddGate("j", gate.Nand2, "s3", "f1"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.AddOutput("j", 10); err != nil {
		t.Fatal(err)
	}
	return c
}

func TestAnalyzeChainMatchesPathModel(t *testing.T) {
	m := model()
	c := chainCircuit(t, 5, 12)
	res, err := Analyze(c, m, Config{})
	if err != nil {
		t.Fatal(err)
	}
	pa, _, err := CriticalPath(c, m, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if pa.Len() != 5 {
		t.Fatalf("chain critical path has %d stages", pa.Len())
	}
	// On a pure chain the STA worst delay equals the path model's
	// worst-edge delay.
	want := m.PathDelayWorst(pa)
	if math.Abs(res.WorstDelay-want) > 1e-6*want {
		t.Fatalf("STA %g vs path model %g", res.WorstDelay, want)
	}
}

func TestCriticalPathPicksDeepBranch(t *testing.T) {
	m := model()
	c := diamondCircuit(t)
	res, err := Analyze(c, m, Config{})
	if err != nil {
		t.Fatal(err)
	}
	nodes := res.CriticalNodes()
	names := make([]string, len(nodes))
	for i, n := range nodes {
		names[i] = n.Name
	}
	if len(nodes) != 4 || names[0] != "s1" || names[3] != "j" {
		t.Fatalf("critical path %v, want s1 s2 s3 j", names)
	}
}

func TestSlopePropagationMatters(t *testing.T) {
	// The input-transition term must reach the arrivals: switching it
	// off must make the chain faster.
	m := model()
	c := chainCircuit(t, 4, 12)
	withSlope, err := Analyze(c, m, Config{})
	if err != nil {
		t.Fatal(err)
	}
	m.SlopeEffect = false
	without, err := Analyze(c, m, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if withSlope.WorstDelay <= without.WorstDelay {
		t.Fatal("input slope has no effect on STA")
	}
}

func TestAnalyzeRejectsComposites(t *testing.T) {
	c := netlist.New("comp")
	if _, err := c.AddInput("a"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.AddInput("b"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.AddGate("y", gate.And2, "a", "b"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.AddOutput("y", 8); err != nil {
		t.Fatal(err)
	}
	if _, err := Analyze(c, model(), Config{}); err == nil {
		t.Fatal("composite circuit accepted")
	}
}

func TestAnalyzeRequiresOutputs(t *testing.T) {
	c := netlist.New("noout")
	if _, err := c.AddInput("a"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.AddGate("g", gate.Inv, "a"); err != nil {
		t.Fatal(err)
	}
	if _, err := Analyze(c, model(), Config{}); err == nil {
		t.Fatal("output-less circuit accepted")
	}
}

func TestPathFromNodesOffPathLoad(t *testing.T) {
	m := model()
	c := diamondCircuit(t)
	// Put a recognizable load on s3's sibling fanout: give j a second
	// sink on s3? Instead size f1 and check s3's stage keeps only its
	// own off-path share.
	res, err := Analyze(c, m, Config{})
	if err != nil {
		t.Fatal(err)
	}
	nodes := res.CriticalNodes()
	pa, err := PathFromNodes("p", nodes, m, Config{})
	if err != nil {
		t.Fatal(err)
	}
	// Last stage's COff is the full fanout of j (the terminal load).
	last := pa.Stages[len(pa.Stages)-1]
	if last.COff != 10 {
		t.Fatalf("terminal COff = %g, want 10", last.COff)
	}
	// Non-final stages: fanout minus the next stage's pin.
	for i := 0; i < pa.Len()-1; i++ {
		n := pa.Stages[i].Node
		want := n.FanoutCap() - pa.Stages[i+1].CIn
		if want < 0 {
			want = 0
		}
		if math.Abs(pa.Stages[i].COff-want) > 1e-12 {
			t.Fatalf("stage %d COff = %g, want %g", i, pa.Stages[i].COff, want)
		}
	}
}

func TestPathFromNodesErrors(t *testing.T) {
	m := model()
	c := diamondCircuit(t)
	if _, err := PathFromNodes("p", nil, m, Config{}); err == nil {
		t.Fatal("empty chain accepted")
	}
	// Disconnected chain.
	bad := []*netlist.Node{c.Node("s1"), c.Node("f1")}
	if _, err := PathFromNodes("p", bad, m, Config{}); err == nil {
		t.Fatal("disconnected chain accepted")
	}
	// Non-logic node.
	bad2 := []*netlist.Node{c.Node("a")}
	if _, err := PathFromNodes("p", bad2, m, Config{}); err == nil {
		t.Fatal("input node accepted in path")
	}
}

func TestKWorstPathsOrderAndDedup(t *testing.T) {
	m := model()
	c := diamondCircuit(t)
	ranked, err := KWorstPaths(c, m, Config{}, 10)
	if err != nil {
		t.Fatal(err)
	}
	// Two distinct gate chains exist (deep and shallow into j).
	if len(ranked) != 2 {
		t.Fatalf("got %d paths, want 2", len(ranked))
	}
	if ranked[0].Delay < ranked[1].Delay {
		t.Fatal("paths not in decreasing delay order")
	}
	if ranked[0].Signature() == ranked[1].Signature() {
		t.Fatal("duplicate path signatures")
	}
	// The worst one must be the deep branch.
	if len(ranked[0].Nodes) != 4 {
		t.Fatalf("worst path has %d nodes", len(ranked[0].Nodes))
	}
}

func TestKWorstPathsK1MatchesCriticalPath(t *testing.T) {
	m := model()
	c := diamondCircuit(t)
	ranked, err := KWorstPaths(c, m, Config{}, 1)
	if err != nil {
		t.Fatal(err)
	}
	res, _ := Analyze(c, m, Config{})
	crit := res.CriticalNodes()
	if len(ranked) != 1 || len(ranked[0].Nodes) != len(crit) {
		t.Fatalf("k=1 path %v vs critical %v", ranked[0].Nodes, crit)
	}
	for i := range crit {
		if ranked[0].Nodes[i] != crit[i] {
			t.Fatal("k=1 path differs from backtracked critical path")
		}
	}
	// The frozen-graph estimate matches the STA worst delay.
	if math.Abs(ranked[0].Delay-res.WorstDelay) > 1e-6*res.WorstDelay {
		t.Fatalf("rank delay %g vs STA %g", ranked[0].Delay, res.WorstDelay)
	}
}

func TestKWorstPathsRejectsBadK(t *testing.T) {
	if _, err := KWorstPaths(diamondCircuit(t), model(), Config{}, 0); err == nil {
		t.Fatal("k=0 accepted")
	}
}

func TestKWorstBoundedPaths(t *testing.T) {
	m := model()
	c := diamondCircuit(t)
	paths, err := KWorstBoundedPaths(c, m, Config{}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) != 2 {
		t.Fatalf("got %d bounded paths", len(paths))
	}
	for _, pa := range paths {
		if err := pa.Validate(); err != nil {
			t.Fatal(err)
		}
	}
}

func TestDanglingNodesAreNotEndpoints(t *testing.T) {
	m := model()
	c := diamondCircuit(t)
	// Add a dangling heavy gate off s1: it must never terminate a
	// ranked path.
	if _, err := c.AddGate("dang", gate.Nor3, "s1", "s2", "s3"); err != nil {
		t.Fatal(err)
	}
	ranked, err := KWorstPaths(c, m, Config{}, 10)
	if err != nil {
		t.Fatal(err)
	}
	for _, rp := range ranked {
		last := rp.Nodes[len(rp.Nodes)-1]
		if last.Name == "dang" {
			t.Fatal("dangling node terminated a ranked path")
		}
	}
}

func TestArrivalMonotoneAlongChain(t *testing.T) {
	m := model()
	c := chainCircuit(t, 6, 12)
	res, err := Analyze(c, m, Config{})
	if err != nil {
		t.Fatal(err)
	}
	prev := -1.0
	for _, n := range res.CriticalNodes() {
		at := res.Timing(n).Worst()
		if at <= prev {
			t.Fatalf("arrival not increasing at %s: %g after %g", n.Name, at, prev)
		}
		prev = at
	}
}
