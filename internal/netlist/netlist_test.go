package netlist

import (
	"strings"
	"testing"

	"repro/internal/gate"
)

// buildDiamond returns a small 2-input diamond circuit:
//
//	a ─ n1(INV) ─┐
//	             ├─ n3(NAND2) ─ out
//	b ─ n2(INV) ─┘
func buildDiamond(t *testing.T) *Circuit {
	t.Helper()
	c := New("diamond")
	mustInput(t, c, "a")
	mustInput(t, c, "b")
	mustGate(t, c, "n1", gate.Inv, "a")
	mustGate(t, c, "n2", gate.Inv, "b")
	mustGate(t, c, "n3", gate.Nand2, "n1", "n2")
	mustOutput(t, c, "n3", 10)
	if err := c.Validate(); err != nil {
		t.Fatalf("diamond invalid: %v", err)
	}
	return c
}

func mustInput(t *testing.T, c *Circuit, name string) *Node {
	t.Helper()
	n, err := c.AddInput(name)
	if err != nil {
		t.Fatalf("AddInput(%s): %v", name, err)
	}
	return n
}

func mustGate(t *testing.T, c *Circuit, name string, ty gate.Type, fanin ...string) *Node {
	t.Helper()
	n, err := c.AddGate(name, ty, fanin...)
	if err != nil {
		t.Fatalf("AddGate(%s): %v", name, err)
	}
	return n
}

func mustOutput(t *testing.T, c *Circuit, name string, load float64) *Node {
	t.Helper()
	n, err := c.AddOutput(name, load)
	if err != nil {
		t.Fatalf("AddOutput(%s): %v", name, err)
	}
	return n
}

func TestConstructionBasics(t *testing.T) {
	c := buildDiamond(t)
	if got := len(c.Gates()); got != 3 {
		t.Fatalf("gates = %d, want 3", got)
	}
	if c.Node("n1") == nil || c.Node("missing") != nil {
		t.Fatal("Node lookup broken")
	}
	if len(c.Inputs) != 2 || len(c.Outputs) != 1 {
		t.Fatalf("ports: %d in, %d out", len(c.Inputs), len(c.Outputs))
	}
	if c.Outputs[0].CIn != 10 {
		t.Fatalf("terminal load = %g, want 10", c.Outputs[0].CIn)
	}
}

func TestDuplicateNameRejected(t *testing.T) {
	c := New("t")
	mustInput(t, c, "a")
	if _, err := c.AddInput("a"); err == nil {
		t.Fatal("duplicate input accepted")
	}
	mustGate(t, c, "g", gate.Inv, "a")
	if _, err := c.AddGate("g", gate.Inv, "a"); err == nil {
		t.Fatal("duplicate gate accepted")
	}
}

func TestUndefinedNetRejected(t *testing.T) {
	c := New("t")
	if _, err := c.AddGate("g", gate.Inv, "nope"); err == nil {
		t.Fatal("undefined fanin accepted")
	}
	if _, err := c.AddOutput("nope", 1); err == nil {
		t.Fatal("undefined output accepted")
	}
}

func TestFanInArityEnforced(t *testing.T) {
	c := New("t")
	mustInput(t, c, "a")
	if _, err := c.AddGate("g", gate.Nand2, "a"); err == nil {
		t.Fatal("NAND2 with one input accepted")
	}
	if _, err := c.AddGate("g", gate.Inv, "a", "a"); err == nil {
		t.Fatal("INV with two inputs accepted")
	}
	if _, err := c.AddGate("g", gate.Input, "a"); err == nil {
		t.Fatal("pseudo-cell as gate accepted")
	}
}

func TestDefaultGateSize(t *testing.T) {
	c := buildDiamond(t)
	for _, g := range c.Gates() {
		if g.CIn != DefaultGateCIn {
			t.Fatalf("gate %s CIn = %g, want default %g", g.Name, g.CIn, DefaultGateCIn)
		}
	}
}

func TestFanoutCapCountsPins(t *testing.T) {
	c := New("t")
	mustInput(t, c, "a")
	g1 := mustGate(t, c, "g1", gate.Inv, "a")
	// g2 takes g1 on BOTH pins: the net sees two pin loads.
	g2 := mustGate(t, c, "g2", gate.Nand2, "g1", "g1")
	g2.CIn = 5
	g1.CWire = 1.5
	if got, want := g1.FanoutCap(), 2*5+1.5; got != want {
		t.Fatalf("FanoutCap = %g, want %g", got, want)
	}
	if err := c.Validate(); err != nil {
		t.Fatalf("multi-pin circuit invalid: %v", err)
	}
}

func TestTopoOrderDeterministicAndComplete(t *testing.T) {
	c := buildDiamond(t)
	o1, err := c.TopoOrder()
	if err != nil {
		t.Fatal(err)
	}
	o2, _ := c.TopoOrder()
	if len(o1) != len(c.Nodes) {
		t.Fatalf("order covers %d of %d nodes", len(o1), len(c.Nodes))
	}
	for i := range o1 {
		if o1[i] != o2[i] {
			t.Fatal("TopoOrder is not deterministic")
		}
	}
	pos := make(map[*Node]int)
	for i, n := range o1 {
		pos[n] = i
	}
	for _, n := range c.Nodes {
		for _, f := range n.Fanin {
			if pos[f] >= pos[n] {
				t.Fatalf("%s ordered before its fanin %s", n.Name, f.Name)
			}
		}
	}
}

func TestCycleDetection(t *testing.T) {
	c := New("t")
	mustInput(t, c, "a")
	g1 := mustGate(t, c, "g1", gate.Nand2, "a", "a")
	g2 := mustGate(t, c, "g2", gate.Inv, "g1")
	// Manually create a cycle g1 ← g2.
	g1.Fanin[1] = g2
	g2.Fanout = append(g2.Fanout, g1)
	removeFromFanout(c.Node("a"), g1)
	if _, err := c.TopoOrder(); err == nil {
		t.Fatal("cycle not detected")
	}
	if err := c.Validate(); err == nil {
		t.Fatal("Validate must reject cyclic circuit")
	}
}

func TestValidateMultiplicity(t *testing.T) {
	c := New("t")
	mustInput(t, c, "a")
	g := mustGate(t, c, "g", gate.Nand2, "a", "a")
	// Break the invariant: remove one of the two fanout entries.
	removeFromFanout(c.Node("a"), g)
	if err := c.Validate(); err == nil {
		t.Fatal("multiplicity violation not detected")
	}
}

func TestCloneDeep(t *testing.T) {
	c := buildDiamond(t)
	c.Node("n1").CIn = 42
	d := c.Clone()
	if d.Node("n1").CIn != 42 {
		t.Fatal("Clone lost sizing")
	}
	d.Node("n1").CIn = 7
	if c.Node("n1").CIn != 42 {
		t.Fatal("Clone aliases nodes")
	}
	if err := d.Validate(); err != nil {
		t.Fatalf("clone invalid: %v", err)
	}
	// Fanin pointers must point into the clone.
	for _, n := range d.Nodes {
		for _, f := range n.Fanin {
			if d.Node(f.Name) != f {
				t.Fatal("clone fanin points at original")
			}
		}
	}
	// Mutating the clone must not affect the original.
	if _, err := d.InsertCell(d.Node("n1"), gate.Inv, d.Node("n1").Fanout, 2); err != nil {
		t.Fatal(err)
	}
	if len(c.Node("n1").Fanout) != 1 {
		t.Fatal("mutating clone changed original")
	}
}

func TestSetUniformSizeAndArea(t *testing.T) {
	c := buildDiamond(t)
	for _, g := range c.Gates() {
		g.CIn = 4
	}
	// Two INVs (1 pin) + one NAND2 (2 pins) at 4 fF, 2 fF/µm → 8 µm.
	area := c.Area(func(cap float64) float64 { return cap / 2 })
	if area != (1+1+2)*4/2.0 {
		t.Fatalf("Area = %g", area)
	}
}

func TestStats(t *testing.T) {
	c := buildDiamond(t)
	st := c.Stats()
	if st.Gates != 3 || st.Inputs != 2 || st.Outputs != 1 {
		t.Fatalf("stats %+v", st)
	}
	if st.Depth != 2 {
		t.Fatalf("depth = %d, want 2", st.Depth)
	}
	if st.ByType[gate.Inv] != 2 || st.ByType[gate.Nand2] != 1 {
		t.Fatalf("ByType %v", st.ByType)
	}
}

func TestBenchRoundTrip(t *testing.T) {
	c := buildDiamond(t)
	var sb strings.Builder
	if err := WriteBench(&sb, c); err != nil {
		t.Fatal(err)
	}
	d, err := ReadBench(strings.NewReader(sb.String()), BenchOptions{Name: "diamond"})
	if err != nil {
		t.Fatalf("re-read: %v\n%s", err, sb.String())
	}
	if len(d.Gates()) != len(c.Gates()) {
		t.Fatalf("round trip gate count %d vs %d", len(d.Gates()), len(c.Gates()))
	}
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestBenchForwardReference(t *testing.T) {
	src := `
INPUT(a)
OUTPUT(y)
y = NOT(x)
x = NOT(a)
`
	c, err := ReadBench(strings.NewReader(src), BenchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(c.Gates()) != 2 {
		t.Fatalf("gates = %d", len(c.Gates()))
	}
}

func TestBenchWideGateDecomposition(t *testing.T) {
	src := `
INPUT(a)
INPUT(b)
INPUT(c)
INPUT(d)
INPUT(e)
INPUT(f)
INPUT(g)
OUTPUT(y)
y = AND(a, b, c, d, e, f, g)
`
	c, err := ReadBench(strings.NewReader(src), BenchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	// Must have decomposed into a tree of library cells; the output
	// net keeps its name.
	if c.Node("y") == nil {
		t.Fatal("output net renamed")
	}
	for _, g := range c.Gates() {
		if g.Cell().FanIn > 4 {
			t.Fatalf("gate %s has fan-in %d", g.Name, g.Cell().FanIn)
		}
	}
}

func TestBenchXorChain(t *testing.T) {
	src := `
INPUT(a)
INPUT(b)
INPUT(c)
OUTPUT(y)
y = XOR(a, b, c)
`
	c, err := ReadBench(strings.NewReader(src), BenchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	st := c.Stats()
	if st.ByType[gate.Xor2] != 2 {
		t.Fatalf("3-input XOR must become two XOR2, got %v", st.ByType)
	}
}

func TestBenchSingleInputReductions(t *testing.T) {
	src := `
INPUT(a)
OUTPUT(x)
OUTPUT(y)
x = AND(a)
y = NOR(a)
`
	c, err := ReadBench(strings.NewReader(src), BenchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if c.Node("x").Type != gate.Buf || c.Node("y").Type != gate.Inv {
		t.Fatalf("degenerate reductions wrong: %v %v", c.Node("x").Type, c.Node("y").Type)
	}
}

func TestBenchErrors(t *testing.T) {
	cases := map[string]string{
		"malformed input": "INPUT a\n",
		"no assignment":   "INPUT(a)\ny NAND(a)\n",
		"bad op":          "INPUT(a)\ny = FROB(a)\n",
		"empty operand":   "INPUT(a)\ny = NAND(a, )\n",
		"duplicate":       "INPUT(a)\ny = NOT(a)\ny = NOT(a)\n",
		"undefined":       "INPUT(a)\nOUTPUT(z)\ny = NOT(a)\n",
		"cycle":           "INPUT(a)\nx = NAND(a, y)\ny = NOT(x)\nOUTPUT(y)\n",
		"inv arity":       "INPUT(a)\nINPUT(b)\ny = NOT(a, b)\nOUTPUT(y)\n",
	}
	for name, src := range cases {
		if _, err := ReadBench(strings.NewReader(src), BenchOptions{}); err == nil {
			t.Fatalf("%s: expected parse error", name)
		}
	}
}

func TestBenchOutputLoadOption(t *testing.T) {
	src := "INPUT(a)\nOUTPUT(y)\ny = NOT(a)\n"
	c, err := ReadBench(strings.NewReader(src), BenchOptions{OutputLoad: 33})
	if err != nil {
		t.Fatal(err)
	}
	if c.Outputs[0].CIn != 33 {
		t.Fatalf("output load = %g", c.Outputs[0].CIn)
	}
	d, _ := ReadBench(strings.NewReader(src), BenchOptions{})
	if d.Outputs[0].CIn != DefaultOutputLoad {
		t.Fatalf("default output load = %g", d.Outputs[0].CIn)
	}
}

func TestBenchCommentsAndName(t *testing.T) {
	src := "# mychip\n# another comment\nINPUT(a)\nOUTPUT(y)\ny = NOT(a) # trailing\n"
	c, err := ReadBench(strings.NewReader(src), BenchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if c.Name != "mychip" {
		t.Fatalf("name from comment = %q", c.Name)
	}
}

func TestNodeString(t *testing.T) {
	c := buildDiamond(t)
	s := c.Node("n3").String()
	if !strings.Contains(s, "n3") || !strings.Contains(s, "NAND2") {
		t.Fatalf("Node.String() = %q", s)
	}
}

func TestHasPrefixFoldShortLine(t *testing.T) {
	if hasPrefixFold("IN", "INPUT") {
		t.Fatal("short line matched")
	}
	if !hasPrefixFold("input(x)", "INPUT") {
		t.Fatal("case-insensitive prefix failed")
	}
}

// TestValidateMismatchDeterministic pins which mismatch Validate
// reports when several drivers of one sink disagree with their fanout
// lists: the first in pin order, on every run.
func TestValidateMismatchDeterministic(t *testing.T) {
	c := New("t")
	mustInput(t, c, "a")
	mustInput(t, c, "b")
	mustInput(t, c, "c")
	g := mustGate(t, c, "g", gate.Nand3, "b", "a", "c")
	for _, d := range []string{"a", "b", "c"} {
		removeFromFanout(c.Node(d), g)
	}
	const want = "netlist t: b drives g on 1 pins but has 0 fanout entries"
	for i := 0; i < 50; i++ {
		err := c.Validate()
		if err == nil || err.Error() != want {
			t.Fatalf("run %d: Validate = %v, want %q", i, err, want)
		}
	}
}
