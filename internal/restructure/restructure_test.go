package restructure

import (
	"testing"

	"repro/internal/delay"
	"repro/internal/gate"
	"repro/internal/iscas"
	"repro/internal/logic"
	"repro/internal/netlist"
	"repro/internal/sta"
	"repro/internal/tech"
)

// norCircuit builds: a,b → nor(NOR2) → inv → out, plus c → NOR3 with
// an inverter-driven pin for absorption.
func norCircuit(t *testing.T) *netlist.Circuit {
	t.Helper()
	c := netlist.New("nors")
	for _, in := range []string{"a", "b", "d"} {
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
	add("na", gate.Inv, "a")
	add("nor1", gate.Nor2, "na", "b")
	add("mid", gate.Inv, "nor1")
	add("nor2", gate.Nor3, "mid", "d", "b")
	add("out", gate.Inv, "nor2")
	if _, err := c.AddOutput("out", 10); err != nil {
		t.Fatal(err)
	}
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	return c
}

func TestRewriteNORPreservesLogic(t *testing.T) {
	c := norCircuit(t)
	orig := c.Clone()
	rep := &Report{}
	if err := RewriteNOR(c, c.Node("nor1"), rep); err != nil {
		t.Fatal(err)
	}
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	if c.Node("nor1").Type != gate.Nand2 {
		t.Fatalf("nor1 is %v, want NAND2", c.Node("nor1").Type)
	}
	ce, err := logic.Equivalent(orig, c, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if ce != nil {
		t.Fatalf("logic changed: %v", ce)
	}
	// The inverter-driven pin must have been absorbed.
	if rep.AbsorbedInverters != 1 {
		t.Fatalf("absorbed %d, want 1", rep.AbsorbedInverters)
	}
	if rep.AddedInverters == 0 {
		t.Fatal("no inverters added")
	}
}

func TestRewriteNOROnNonNOR(t *testing.T) {
	c := norCircuit(t)
	if err := RewriteNOR(c, c.Node("mid"), nil); err == nil {
		t.Fatal("rewriting an inverter accepted")
	}
}

func TestRewritePathNORsEquivalence(t *testing.T) {
	c := norCircuit(t)
	orig := c.Clone()
	nodes := []*netlist.Node{c.Node("nor1"), c.Node("mid"), c.Node("nor2"), c.Node("out")}
	rep, err := RewritePathNORs(c, nodes)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Rewritten) != 2 {
		t.Fatalf("rewrote %v, want both NORs", rep.Rewritten)
	}
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	ce, err := logic.Equivalent(orig, c, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if ce != nil {
		t.Fatalf("logic changed: %v", ce)
	}
	// No NOR remains on the rewritten set.
	for _, n := range nodes {
		switch n.Type {
		case gate.Nor2, gate.Nor3, gate.Nor4:
			t.Fatalf("%s still a NOR", n.Name)
		}
	}
}

func TestCollapseInverterPairs(t *testing.T) {
	c := netlist.New("pairs")
	if _, err := c.AddInput("a"); err != nil {
		t.Fatal(err)
	}
	add := func(name string, ty gate.Type, fanin ...string) {
		if _, err := c.AddGate(name, ty, fanin...); err != nil {
			t.Fatal(err)
		}
	}
	add("i1", gate.Inv, "a")
	add("i2", gate.Inv, "i1")
	add("g", gate.Inv, "i2")
	if _, err := c.AddOutput("g", 8); err != nil {
		t.Fatal(err)
	}
	orig := c.Clone()
	n, err := CollapseInverterPairs(c)
	if err != nil {
		t.Fatal(err)
	}
	if n == 0 {
		t.Fatal("no pair collapsed")
	}
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	ce, err := logic.Equivalent(orig, c, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if ce != nil {
		t.Fatalf("collapse changed logic: %v", ce)
	}
	// Chain of 3 inverters → 1 inverter.
	if got := len(c.Gates()); got != 1 {
		t.Fatalf("%d gates remain, want 1", got)
	}
}

func TestCollapseKeepsSharedInverters(t *testing.T) {
	c := netlist.New("shared")
	for _, in := range []string{"a", "b"} {
		if _, err := c.AddInput(in); err != nil {
			t.Fatal(err)
		}
	}
	add := func(name string, ty gate.Type, fanin ...string) {
		if _, err := c.AddGate(name, ty, fanin...); err != nil {
			t.Fatal(err)
		}
	}
	add("i1", gate.Inv, "a")
	add("i2", gate.Inv, "i1")
	add("keep", gate.Nand2, "i1", "b") // non-collapsible consumer of i1
	if _, err := c.AddOutput("i2", 8); err != nil {
		t.Fatal(err)
	}
	if _, err := c.AddOutput("keep", 8); err != nil {
		t.Fatal(err)
	}
	orig := c.Clone()
	if n, err := CollapseInverterPairs(c); err != nil || n != 1 {
		t.Fatalf("collapsed %d pairs (err %v), want 1", n, err)
	}
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	if c.Node("i1") == nil {
		t.Fatal("inverter with a live consumer removed")
	}
	if c.Node("i2") != nil {
		t.Fatal("collapsed inverter survived")
	}
	ce, err := logic.Equivalent(orig, c, 0, 1)
	if err != nil || ce != nil {
		t.Fatalf("equivalence: %v %v", ce, err)
	}
}

func TestRewriteBenchmarkCriticalPath(t *testing.T) {
	// End-to-end: rewrite every NOR on a generated benchmark's
	// critical path and prove equivalence.
	p := tech.CMOS025()
	m := delay.NewModel(p)
	for _, name := range []string{"fpd", "c499"} {
		spec, err := iscas.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		c := iscas.MustGenerate(spec)
		orig := c.Clone()
		res, err := sta.Analyze(c, m, sta.Config{})
		if err != nil {
			t.Fatal(err)
		}
		nodes := res.CriticalNodes()
		nors := 0
		for _, n := range nodes {
			switch n.Type {
			case gate.Nor2, gate.Nor3, gate.Nor4:
				nors++
			}
		}
		rep, err := RewritePathNORs(c, nodes)
		if err != nil {
			t.Fatal(err)
		}
		if nors > 0 && len(rep.Rewritten) == 0 {
			t.Fatalf("%s: NORs on path but none rewritten", name)
		}
		if err := c.Validate(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		ce, err := logic.Equivalent(orig, c, 250, 13)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if ce != nil {
			t.Fatalf("%s: logic changed: %v", name, ce)
		}
	}
}

func TestRewriteNORWithPrimaryInputPins(t *testing.T) {
	// All pins driven by PIs: every input needs a fresh inverter.
	c := netlist.New("pi")
	for _, in := range []string{"a", "b"} {
		if _, err := c.AddInput(in); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := c.AddGate("n", gate.Nor2, "a", "b"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.AddOutput("n", 8); err != nil {
		t.Fatal(err)
	}
	orig := c.Clone()
	rep := &Report{}
	if err := RewriteNOR(c, c.Node("n"), rep); err != nil {
		t.Fatal(err)
	}
	if rep.AddedInverters != 3 { // two inputs + output
		t.Fatalf("added %d inverters, want 3", rep.AddedInverters)
	}
	ce, err := logic.Equivalent(orig, c, 0, 1)
	if err != nil || ce != nil {
		t.Fatalf("equivalence: %v %v", ce, err)
	}
}
