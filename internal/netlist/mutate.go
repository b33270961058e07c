package netlist

import (
	"fmt"
	"strings"

	"repro/internal/gate"
)

// InsertCell inserts a new single-input cell of type t (Inv or Buf)
// between driver and the given sinks: the sinks' pins currently fed by
// driver are rewired to the new cell. Remaining sinks keep their direct
// connection, so the mutation can target only the critical branch of a
// net (the paper's local buffer insertion of Fig. 5). The new cell's
// input capacitance starts at cin.
func (c *Circuit) InsertCell(driver *Node, t gate.Type, sinks []*Node, cin float64) (*Node, error) {
	cell, err := gate.Lookup(t)
	if err != nil {
		return nil, err
	}
	if cell.FanIn != 1 {
		return nil, fmt.Errorf("netlist %s: InsertCell requires a single-input cell, got %v", c.Name, t)
	}
	if len(sinks) == 0 {
		return nil, fmt.Errorf("netlist %s: InsertCell with no sinks on %s", c.Name, driver.Name)
	}
	// Copy defensively: callers may pass driver.Fanout itself, which
	// this mutation rewrites.
	sinks = append([]*Node(nil), sinks...)
	for _, s := range sinks {
		if !contains(driver.Fanout, s) {
			return nil, fmt.Errorf("netlist %s: %s is not a sink of %s", c.Name, s.Name, driver.Name)
		}
	}
	name := c.genName(driver.Name, "_"+strings.ToLower(t.String()))
	n, err := c.addNode(name, t)
	if err != nil {
		return nil, err
	}
	n.CIn = cin
	n.Fanin = []*Node{driver}
	for _, s := range sinks {
		// A sink may take the driver on several pins; keep the
		// one-fanout-entry-per-pin invariant.
		moved := 0
		for i, f := range s.Fanin {
			if f == driver {
				s.Fanin[i] = n
				moved++
			}
		}
		for j := 0; j < moved; j++ {
			removeFromFanout(driver, s)
			n.Fanout = append(n.Fanout, s)
		}
	}
	driver.Fanout = append(driver.Fanout, n)
	return n, nil
}

// InsertBufferPair inserts two cascaded inverters between driver and
// sinks — the logic-preserving buffer used by the netlist-level
// protocol. It returns the two new inverters in signal order.
func (c *Circuit) InsertBufferPair(driver *Node, sinks []*Node, cin1, cin2 float64) (*Node, *Node, error) {
	first, err := c.InsertCell(driver, gate.Inv, sinks, cin1)
	if err != nil {
		return nil, nil, err
	}
	second, err := c.InsertCell(first, gate.Inv, first.Fanout, cin2)
	if err != nil {
		return nil, nil, err
	}
	return first, second, nil
}

// ReplaceType changes the cell type of a logic node in place. The new
// type must have the same fan-in. Used by De Morgan restructuring
// (NOR↔NAND swaps).
func (c *Circuit) ReplaceType(n *Node, t gate.Type) error {
	if !n.IsLogic() {
		return fmt.Errorf("netlist %s: cannot retype non-logic node %s", c.Name, n.Name)
	}
	oldCell := n.Cell()
	newCell, err := gate.Lookup(t)
	if err != nil {
		return err
	}
	if newCell.FanIn != oldCell.FanIn {
		return fmt.Errorf("netlist %s: retype %s: %v has fan-in %d, %v has %d",
			c.Name, n.Name, n.Type, oldCell.FanIn, t, newCell.FanIn)
	}
	n.Type = t
	// A retype preserves node count and connectivity but changes the arc
	// personality — structural for timing purposes.
	c.MarkMutated()
	return nil
}

// SpliceInput inserts a single-input cell of type t on one input pin of
// node n, between n.Fanin[pin] and n. Other sinks of the driver are
// untouched. Returns the new cell.
func (c *Circuit) SpliceInput(n *Node, pin int, t gate.Type, cin float64) (*Node, error) {
	if pin < 0 || pin >= len(n.Fanin) {
		return nil, fmt.Errorf("netlist %s: SpliceInput pin %d out of range on %s", c.Name, pin, n.Name)
	}
	cell, err := gate.Lookup(t)
	if err != nil {
		return nil, err
	}
	if cell.FanIn != 1 {
		return nil, fmt.Errorf("netlist %s: SpliceInput requires single-input cell, got %v", c.Name, t)
	}
	driver := n.Fanin[pin]
	name := c.genName(driver.Name, "_"+strings.ToLower(t.String()))
	m, err := c.addNode(name, t)
	if err != nil {
		return nil, err
	}
	m.CIn = cin
	m.Fanin = []*Node{driver}
	m.Fanout = []*Node{n}
	n.Fanin[pin] = m
	// Exactly one pin moved off the driver: drop one fanout entry
	// (one-entry-per-pin invariant) and register the new cell.
	removeFromFanout(driver, n)
	driver.Fanout = append(driver.Fanout, m)
	return m, nil
}

// BypassInverter reroutes one input pin of node n that is currently fed
// by an inverter so that it connects to the inverter's own source —
// the "absorption" move of De Morgan restructuring (feeding ¬a where an
// inverter already computes ¬x means we can tap x directly when a = ¬x).
// If the inverter loses its last sink it is removed from the circuit.
// Returns true if the inverter was removed.
func (c *Circuit) BypassInverter(n *Node, pin int) (bool, error) {
	if pin < 0 || pin >= len(n.Fanin) {
		return false, fmt.Errorf("netlist %s: BypassInverter pin %d out of range on %s", c.Name, pin, n.Name)
	}
	inv := n.Fanin[pin]
	if inv.Type != gate.Inv {
		return false, fmt.Errorf("netlist %s: BypassInverter: %s pin %d is driven by %v, not an inverter",
			c.Name, n.Name, pin, inv.Type)
	}
	src := inv.Fanin[0]
	n.Fanin[pin] = src
	// One pin moved: one fanout entry leaves the inverter, one joins
	// the source (per-pin multiplicity).
	removeFromFanout(inv, n)
	src.Fanout = append(src.Fanout, n)
	c.MarkMutated()
	if len(inv.Fanout) == 0 {
		c.removeNode(inv)
		return true, nil
	}
	return false, nil
}

// RewirePin moves one input pin of node n off its current driver onto
// newDriver, maintaining the one-fanout-entry-per-pin invariant on
// both drivers. It is the primitive rewire for callers outside this
// package (restructuring's inverter collapse): a pin move is
// structural, so the epoch bumps here, not at the call site.
func (c *Circuit) RewirePin(n *Node, pin int, newDriver *Node) error {
	if pin < 0 || pin >= len(n.Fanin) {
		return fmt.Errorf("netlist %s: RewirePin pin %d out of range on %s", c.Name, pin, n.Name)
	}
	old := n.Fanin[pin]
	if old == newDriver {
		return nil
	}
	n.Fanin[pin] = newDriver
	removeFromFanout(old, n)
	newDriver.Fanout = append(newDriver.Fanout, n)
	c.MarkMutated()
	return nil
}

// removeNode unlinks a fanout-free logic node from the circuit.
func (c *Circuit) removeNode(n *Node) {
	for _, f := range n.Fanin {
		removeFromFanout(f, n)
	}
	n.Fanin = nil
	delete(c.byName, n.Name)
	for i, m := range c.Nodes {
		if m == n {
			c.Nodes = append(c.Nodes[:i], c.Nodes[i+1:]...)
			break
		}
	}
	c.MarkMutated()
}

// RemoveIfDead removes n when it is a logic node with no fanout,
// returning true if removed. Restructuring uses it to garbage-collect
// absorbed inverters.
func (c *Circuit) RemoveIfDead(n *Node) bool {
	if !n.IsLogic() || len(n.Fanout) != 0 {
		return false
	}
	c.removeNode(n)
	return true
}

// removeFromFanout drops one fanout entry of driver pointing at sink
// (one entry per moved pin).
//
//pops:mutates structural helper: callers rewire in batches and own the epoch bump
func removeFromFanout(driver, sink *Node) {
	for i, f := range driver.Fanout {
		if f == sink {
			driver.Fanout = append(driver.Fanout[:i], driver.Fanout[i+1:]...)
			return
		}
	}
}
