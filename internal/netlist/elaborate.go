package netlist

import (
	"fmt"

	"repro/internal/gate"
)

// Elaborate lowers a circuit onto the primitive library (INV, BUF,
// NAND2-4, NOR2-4), expanding composite cells:
//
//	AND_n  → NAND_n + INV
//	OR_n   → NOR_n  + INV
//	XOR2   → 4 × NAND2           (the classic four-NAND realization)
//	XNOR2  → INV + 4 × NAND2     (XNOR(a,b) = XOR(a, ¬b))
//
// Net names of the original circuit are preserved, so primary outputs
// and cross-references remain valid; expansion-internal nets get
// generated names. The boolean function is preserved exactly (verified
// by the logic package's equivalence tests).
func Elaborate(c *Circuit) (*Circuit, error) {
	order, err := c.TopoOrder()
	if err != nil {
		return nil, err
	}
	nodes, pins := 0, 0
	for _, n := range c.Nodes {
		k, p := expansionSize(n)
		nodes += k
		pins += p
	}
	d := newSized(c.Name, len(c.Inputs), len(c.Outputs), nodes, 2*pins)
	// to[id] is the elaborated node carrying source node id's net, so
	// fanin is wired by ID instead of by name.
	to := make([]*Node, c.IDBound())
	for _, n := range order {
		var m *Node
		switch {
		case n.Type == gate.Input:
			m, err = d.AddInput(n.Name)
		case n.Type == gate.Output:
			// AddOutput's name for the net; the source's own is
			// normally the same string, and sharing it saves a copy.
			f, name := n.Fanin[0], n.Name
			if name != f.Name+"$po" {
				name = f.Name + "$po"
			}
			m, err = d.linkOutput(to[f.ID], name, n.CIn)
		case gate.IsPrimitive(n.Type):
			m, err = d.mapGate(n.Name, n.Type, to, n.Fanin)
			if err == nil {
				m.CIn = n.CIn
				m.CWire = n.CWire
			}
		default:
			m, err = expandComposite(d, n, to)
		}
		if err != nil {
			return nil, err
		}
		to[n.ID] = m
	}
	d.wireFanout()
	return d, nil
}

// expansionSize returns how many nodes and fanin pins Elaborate
// creates for n.
func expansionSize(n *Node) (nodes, pins int) {
	switch n.Type {
	case gate.And2, gate.And3, gate.And4, gate.Or2, gate.Or3, gate.Or4:
		return 2, len(n.Fanin) + 1
	case gate.Xor2:
		return 4, 8
	case gate.Xnor2:
		return 5, 9
	}
	return 1, len(n.Fanin)
}

// mapGate adds a cell named name to the elaborated circuit d, fed by
// the elaborated nets to[f.ID] of the source nodes f in in. Fanout is
// left to wireFanout.
func (d *Circuit) mapGate(name string, t gate.Type, to, in []*Node) (*Node, error) {
	if err := d.checkGate(name, t, len(in)); err != nil {
		return nil, err
	}
	drivers := d.carve(len(in))
	for i, f := range in {
		drivers[i] = to[f.ID]
	}
	return d.linkGate(name, t, drivers)
}

func expandComposite(d *Circuit, n *Node, to []*Node) (*Node, error) {
	cin := n.CIn
	if cin <= 0 {
		cin = 0
	}
	switch n.Type {
	case gate.And2, gate.And3, gate.And4, gate.Or2, gate.Or3, gate.Or4:
		// AND_n → NAND_n + INV, OR_n → NOR_n + INV.
		family := gate.Nand2
		if n.Type == gate.Or2 || n.Type == gate.Or3 || n.Type == gate.Or4 {
			family = gate.Nor2
		}
		innerT, _ := gate.VariantWithFanIn(family, len(n.Fanin))
		g, err := d.mapGate(d.genName(n.Name, "_n"), innerT, to, n.Fanin)
		if err != nil {
			return nil, err
		}
		g.CIn = cin
		g2, err := d.newGate(n.Name, gate.Inv, g)
		if err != nil {
			return nil, err
		}
		g2.CIn = cin
		g2.CWire = n.CWire
		return g2, nil
	case gate.Xor2:
		return expandXor(d, n.Name, to[n.Fanin[0].ID], to[n.Fanin[1].ID], cin, n.CWire)
	case gate.Xnor2:
		// XNOR(a,b) = XOR(a, ¬b).
		g, err := d.mapGate(d.genName(n.Name, "_i"), gate.Inv, to, n.Fanin[1:2])
		if err != nil {
			return nil, err
		}
		g.CIn = cin
		return expandXor(d, n.Name, to[n.Fanin[0].ID], g, cin, n.CWire)
	}
	return nil, fmt.Errorf("netlist %s: cannot expand %v", d.Name, n.Type)
}

// expandXor emits the four-NAND XOR with output net name out.
func expandXor(d *Circuit, out string, a, b *Node, cin, cwire float64) (*Node, error) {
	g1, err := d.newGate(d.genName(out, "_m"), gate.Nand2, a, b)
	if err != nil {
		return nil, err
	}
	g2, err := d.newGate(d.genName(out, "_a"), gate.Nand2, a, g1)
	if err != nil {
		return nil, err
	}
	g3, err := d.newGate(d.genName(out, "_b"), gate.Nand2, b, g1)
	if err != nil {
		return nil, err
	}
	g4, err := d.newGate(out, gate.Nand2, g2, g3)
	if err != nil {
		return nil, err
	}
	for _, g := range []*Node{g1, g2, g3, g4} {
		g.CIn = cin
	}
	g4.CWire = cwire
	return g4, nil
}

// IsElaborated reports whether every logic cell of the circuit is a
// primitive library cell.
func IsElaborated(c *Circuit) bool {
	for _, n := range c.Nodes {
		if n.IsLogic() && !gate.IsPrimitive(n.Type) {
			return false
		}
	}
	return true
}
