// Package restructure implements §4.2 of the paper: path acceleration
// by logic structure modification. Inefficient gates — NOR families,
// whose buffer-insertion limit Flimit is the lowest of the library
// (Table 2) — are replaced by their De Morgan duals:
//
//	NOR_n(a₁…a_n) = INV( NAND_n( INV(a₁) … INV(a_n) ) )
//
// The inverters required to conserve the logic function provide the
// same beneficial load dilution as inserted buffers, but the NAND core
// switches much faster than the NOR it replaces, so the transform is
// cheaper in delay and area than buffering the NOR (Table 4).
//
// Inverter absorption keeps the cost down: an input pin already driven
// by an inverter taps that inverter's source instead of adding a new
// one, and inverter pairs created by the rewrite are collapsed.
package restructure

import (
	"fmt"

	"repro/internal/gate"
	"repro/internal/netlist"
)

// Report summarizes a restructuring pass.
type Report struct {
	// Rewritten lists the NOR gates replaced by NAND duals.
	Rewritten []string
	// AddedInverters counts inverters inserted (inputs + outputs).
	AddedInverters int
	// AbsorbedInverters counts input pins that reused an existing
	// inverter instead of adding one.
	AbsorbedInverters int
	// Collapsed counts inverter pairs removed by the cleanup pass.
	Collapsed int
}

// RewriteNOR applies the De Morgan transform to a single NOR-family
// gate in place: input inverters (or absorptions), retype to the NAND
// dual, output inverter. The circuit remains functionally equivalent.
func RewriteNOR(c *netlist.Circuit, n *netlist.Node, rep *Report) error {
	switch n.Type {
	case gate.Nor2, gate.Nor3, gate.Nor4:
	default:
		return fmt.Errorf("restructure: %s is %v, not a NOR gate", n.Name, n.Type)
	}
	dual, ok := gate.DeMorganDual(n.Type)
	if !ok {
		return fmt.Errorf("restructure: no dual for %v", n.Type)
	}

	// Input side: absorb existing inverters, splice new ones elsewhere.
	for pin := 0; pin < len(n.Fanin); pin++ {
		d := n.Fanin[pin]
		if d.Type == gate.Inv {
			if _, err := c.BypassInverter(n, pin); err != nil {
				return err
			}
			if rep != nil {
				rep.AbsorbedInverters++
			}
			continue
		}
		if _, err := c.SpliceInput(n, pin, gate.Inv, netlist.DefaultGateCIn); err != nil {
			return err
		}
		if rep != nil {
			rep.AddedInverters++
		}
	}

	// Retype and invert the output.
	if err := c.ReplaceType(n, dual); err != nil {
		return err
	}
	if len(n.Fanout) > 0 {
		if _, err := c.InsertCell(n, gate.Inv, append([]*netlist.Node(nil), n.Fanout...), netlist.DefaultGateCIn); err != nil {
			return err
		}
		if rep != nil {
			rep.AddedInverters++
		}
	}
	if rep != nil {
		rep.Rewritten = append(rep.Rewritten, n.Name)
	}
	return nil
}

// CollapseInverterPairs removes chains INV→INV created by rewrites:
// every sink of the second inverter is rewired to the first inverter's
// source, and dead inverters are garbage-collected. Returns the number
// of pairs collapsed.
func CollapseInverterPairs(c *netlist.Circuit) (int, error) {
	collapsed := 0
	for changed := true; changed; {
		changed = false
		for _, n := range append([]*netlist.Node(nil), c.Nodes...) {
			if n.Type != gate.Inv || c.Node(n.Name) != n {
				continue
			}
			inner := n.Fanin
			if len(inner) != 1 || inner[0].Type != gate.Inv {
				continue
			}
			src := inner[0].Fanin[0]
			// Rewire every sink pin of n to src through the netlist's
			// own pin mutator, which keeps the one-fanout-entry-per-pin
			// invariant and the structural epoch in step (a sink may
			// take n on several pins, and then appears several times in
			// the snapshot: only the first visit finds pins left to
			// move).
			for _, s := range append([]*netlist.Node(nil), n.Fanout...) {
				for pin, f := range s.Fanin {
					if f == n {
						if err := c.RewirePin(s, pin, src); err != nil {
							return collapsed, err
						}
					}
				}
			}
			first := inner[0]
			c.RemoveIfDead(n)
			c.RemoveIfDead(first)
			collapsed++
			changed = true
		}
	}
	return collapsed, nil
}

// RewritePathNORs rewrites every NOR-family gate among the given nodes
// (typically a critical path) and collapses the inverter pairs the
// rewrites create. It returns a report of the changes.
func RewritePathNORs(c *netlist.Circuit, nodes []*netlist.Node) (*Report, error) {
	rep := &Report{}
	for _, n := range nodes {
		switch n.Type {
		case gate.Nor2, gate.Nor3, gate.Nor4:
			if err := RewriteNOR(c, n, rep); err != nil {
				return rep, err
			}
		}
	}
	collapsed, err := CollapseInverterPairs(c)
	rep.Collapsed = collapsed
	if err != nil {
		return rep, err
	}
	return rep, nil
}
