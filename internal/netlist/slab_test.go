package netlist

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/gate"
)

// The builders (ReadBench, Elaborate, Clone) carve every fanin and
// fanout list from one pin slab per circuit, with cap == len. These
// tests run every mutator on a slab-built circuit beside a reference
// copy whose lists are separately allocated, and require the two to
// stay identical: a mutator append that wrote past its own list into a
// neighbour's slots would show up as a difference. Mutating a clone
// must also leave its master untouched.

// slabSource has fan-out, a multi-pin sink, an inverter feeding a
// multi-input gate, a wide gate that decomposes, and a dead gate.
const slabSource = `# slab
INPUT(a)
INPUT(b)
INPUT(c)
INPUT(d)
OUTPUT(y)
OUTPUT(z)
OUTPUT(w)
n1 = NAND(a, b)
i1 = NOT(n1)
n2 = NAND(i1, c)
n3 = NOR(i1, n2, d)
m = NAND(n3, n3)
y = NAND(m, n2)
z = AND(a, b, c, d, n1, n2, n3)
w = NOT(i1)
dead = NOT(d)
`

// separateCopy deep-copies c with a separate allocation for every node
// and every pin list, the layout the slab replaced.
func separateCopy(c *Circuit) *Circuit {
	d := &Circuit{Name: c.Name, byName: map[string]*Node{}, nextID: c.nextID, genSeq: c.genSeq, epoch: c.epoch}
	byID := map[int]*Node{}
	for _, n := range c.Nodes {
		m := &Node{ID: n.ID, Name: n.Name, Type: n.Type, CIn: n.CIn, CWire: n.CWire, Vt: n.Vt}
		d.Nodes = append(d.Nodes, m)
		d.byName[m.Name] = m
		byID[n.ID] = m
	}
	for _, n := range c.Nodes {
		m := byID[n.ID]
		for _, f := range n.Fanin {
			m.Fanin = append(m.Fanin, byID[f.ID])
		}
		for _, f := range n.Fanout {
			m.Fanout = append(m.Fanout, byID[f.ID])
		}
	}
	for _, n := range c.Inputs {
		d.Inputs = append(d.Inputs, byID[n.ID])
	}
	for _, n := range c.Outputs {
		d.Outputs = append(d.Outputs, byID[n.ID])
	}
	return d
}

// pinLayout renders every node's fanin and fanout lists by ID.
func pinLayout(c *Circuit) string {
	var b strings.Builder
	ids := func(ns []*Node) []int {
		out := make([]int, len(ns))
		for i, n := range ns {
			out[i] = n.ID
		}
		return out
	}
	for _, n := range c.Nodes {
		fmt.Fprintf(&b, "%d %s %v in=%v out=%v\n", n.ID, n.Name, n.Type, ids(n.Fanin), ids(n.Fanout))
	}
	fmt.Fprintf(&b, "in=%v out=%v epoch=%d bound=%d\n", ids(c.Inputs), ids(c.Outputs), c.Epoch(), c.IDBound())
	return b.String()
}

// slabMutations applies each mutator of mutate.go, locating its
// targets by name so the same edit runs on any copy.
var slabMutations = []struct {
	name string
	do   func(c *Circuit) error
}{
	{"InsertCell", func(c *Circuit) error {
		i1 := c.Node("i1")
		_, err := c.InsertCell(i1, gate.Buf, i1.Fanout[:2], 3)
		return err
	}},
	{"InsertCellMultiPin", func(c *Circuit) error {
		_, err := c.InsertCell(c.Node("n3"), gate.Inv, []*Node{c.Node("m")}, 2)
		return err
	}},
	{"InsertBufferPair", func(c *Circuit) error {
		n2 := c.Node("n2")
		_, _, err := c.InsertBufferPair(n2, n2.Fanout, 2, 4)
		return err
	}},
	{"ReplaceType", func(c *Circuit) error { return c.ReplaceType(c.Node("n1"), gate.Nor2) }},
	{"SpliceInput", func(c *Circuit) error {
		_, err := c.SpliceInput(c.Node("y"), 1, gate.Buf, 2)
		return err
	}},
	{"BypassInverter", func(c *Circuit) error {
		_, err := c.BypassInverter(c.Node("n2"), 0)
		return err
	}},
	{"BypassInverterRemoves", func(c *Circuit) error {
		if _, err := c.BypassInverter(c.Node("w"), 0); err != nil {
			return err
		}
		for _, s := range []string{"n2", "n3"} {
			if _, err := c.BypassInverter(c.Node(s), 0); err != nil {
				return err
			}
		}
		if c.Node("i1") != nil {
			return fmt.Errorf("inverter with no sinks left was not removed")
		}
		return nil
	}},
	{"RewirePin", func(c *Circuit) error { return c.RewirePin(c.Node("y"), 0, c.Node("a")) }},
	{"RemoveIfDead", func(c *Circuit) error {
		if err := c.RewirePin(c.Node("y"), 0, c.Node("n1")); err != nil {
			return err
		}
		if !c.RemoveIfDead(c.Node("m")) {
			return fmt.Errorf("m not removed")
		}
		return nil
	}},
}

func TestSlabIsolationUnderMutators(t *testing.T) {
	parse := func(t *testing.T) *Circuit {
		c, err := ReadBench(strings.NewReader(slabSource), BenchOptions{})
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	builds := []struct {
		name  string
		build func(t *testing.T) (c, master *Circuit)
	}{
		{"parse", func(t *testing.T) (*Circuit, *Circuit) { return parse(t), nil }},
		{"elaborate", func(t *testing.T) (*Circuit, *Circuit) {
			el, err := Elaborate(parse(t))
			if err != nil {
				t.Fatal(err)
			}
			return el, nil
		}},
		{"clone", func(t *testing.T) (*Circuit, *Circuit) {
			master := parse(t)
			return master.Clone(), master
		}},
		{"clone-after-removal", func(t *testing.T) (*Circuit, *Circuit) {
			master := parse(t)
			if !master.RemoveIfDead(master.Node("dead")) {
				t.Fatal("dead gate not removed")
			}
			return master.Clone(), master
		}},
	}
	for _, b := range builds {
		for _, m := range slabMutations {
			t.Run(b.name+"/"+m.name, func(t *testing.T) {
				c, master := b.build(t)
				var masterFP, masterPins string
				if master != nil {
					masterFP, masterPins = Fingerprint(master), pinLayout(master)
				}
				ref := separateCopy(c)
				if got, want := pinLayout(c), pinLayout(ref); got != want {
					t.Fatalf("reference copy differs before mutating:\n%s\nvs\n%s", got, want)
				}
				errC, errRef := m.do(c), m.do(ref)
				if (errC == nil) != (errRef == nil) {
					t.Fatalf("slab build: %v; reference: %v", errC, errRef)
				}
				if errC != nil {
					t.Fatalf("mutation failed: %v", errC)
				}
				if got, want := pinLayout(c), pinLayout(ref); got != want {
					t.Fatalf("slab-built lists diverged from the reference:\n%s\nwant\n%s", got, want)
				}
				if Fingerprint(c) != Fingerprint(ref) {
					t.Fatal("fingerprint diverged from the reference")
				}
				if err := c.Validate(); err != nil {
					t.Fatalf("Validate after %s: %v", m.name, err)
				}
				if master != nil {
					if Fingerprint(master) != masterFP || pinLayout(master) != masterPins {
						t.Fatal("mutating the clone changed its master")
					}
					if err := master.Validate(); err != nil {
						t.Fatalf("master invalid after mutating the clone: %v", err)
					}
				}
			})
		}
	}
}

// TestCarvedListsAreFull pins the slab rule itself: every list a
// builder carves has cap == len, so the first append reallocates.
func TestCarvedListsAreFull(t *testing.T) {
	c, err := ReadBench(strings.NewReader(slabSource), BenchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	el, err := Elaborate(c)
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []*Circuit{c, el, el.Clone()} {
		for _, n := range k.Nodes {
			if cap(n.Fanin) != len(n.Fanin) || cap(n.Fanout) != len(n.Fanout) {
				t.Fatalf("%s: %s carved with len/cap fanin %d/%d fanout %d/%d", k.Name, n.Name,
					len(n.Fanin), cap(n.Fanin), len(n.Fanout), cap(n.Fanout))
			}
		}
	}
}
