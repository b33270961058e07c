// Package netlist represents combinational circuits as directed acyclic
// graphs of library cells, with the sizing state (per-gate input
// capacitance) that the POPS optimizers manipulate.
//
// The package also provides the ISCAS'85 ".bench" reader/writer
// (bench.go) and the structure-modification primitives of the paper —
// buffer insertion and gate replacement — as validated graph mutations
// (mutate.go), plus macro elaboration of composite cells into the
// primitive INV/NAND/NOR library (elaborate.go).
package netlist

import (
	"fmt"
	"slices"
	"strconv"

	"repro/internal/gate"
	"repro/internal/tech"
)

// Node is a vertex of the circuit DAG: a primary input, a primary
// output observation point, or a logic cell. Each logic node drives
// exactly one net, identified with the node itself (standard ISCAS
// convention: gates are named by their output net).
type Node struct {
	ID   int
	Name string
	Type gate.Type

	// Fanin lists the driver nodes of the cell's input pins, in pin
	// order. Primary inputs have none; Output pseudo-nodes have one.
	Fanin []*Node
	// Fanout lists the cells this node's output net feeds.
	Fanout []*Node

	// CIn is the per-pin input capacitance of the cell in fF — the
	// sizing variable of the optimization. For Output pseudo-nodes it
	// is the fixed terminal load imposed by the environment (register
	// input capacitance); for Input nodes it is unused.
	CIn float64

	// CWire is a fixed extra capacitance on the node's output net in
	// fF, modelling routing parasitics.
	CWire float64

	// Vt is the threshold class of the cell (multi-Vt processes). The
	// zero value is tech.SVT, the standard device, so circuits that
	// never run the leakage pass time exactly as before. Changing Vt
	// does not alter CIn: a Vt swap is a channel-implant change at
	// constant footprint, which is what makes post-sizing selective
	// assignment area-free.
	Vt tech.VtClass
}

// IsLogic reports whether the node is a sizable logic cell.
func (n *Node) IsLogic() bool { return gate.IsLogic(n.Type) }

// Cell returns the library personality of the node's type. It panics
// for pseudo-nodes; callers filter with IsLogic first.
func (n *Node) Cell() gate.Cell { return gate.MustLookup(n.Type) }

// FanoutCap returns the capacitive load presented by the node's sinks:
// the sum of their per-pin input capacitances plus the net's wire
// capacitance. The fanout list carries one entry per sink pin (the
// multiplicity invariant checked by Validate), so a plain sum counts
// multi-pin sinks correctly.
func (n *Node) FanoutCap() float64 {
	c := n.CWire
	for _, s := range n.Fanout {
		c += s.CIn
	}
	return c
}

// String identifies the node for diagnostics.
func (n *Node) String() string {
	return fmt.Sprintf("%s(%s)", n.Name, n.Type)
}

// Circuit is a named combinational circuit.
type Circuit struct {
	Name    string
	Nodes   []*Node // all nodes, in creation order
	Inputs  []*Node // primary inputs, in declaration order
	Outputs []*Node // primary output pseudo-nodes, in declaration order

	byName map[string]*Node
	nextID int
	genSeq int    // counter for generated (inserted) node names
	epoch  uint64 // structural mutation counter (see Epoch)

	// Node and pin storage (see "Ingestion" in docs/ARCHITECTURE.md):
	// addNode takes nodes from the unused tail of the current node
	// chunk, and the builders carve fanin/fanout slices from the unused
	// tail of the current pin chunk with cap == len, so a mutator's
	// append reallocates instead of overwriting a neighbour's pins.
	nodeSlab []Node
	pinSlab  []*Node
}

// Chunk sizes for node and pin storage grown one node at a time (the
// generators, mutators after a clone). The bulk builders reserve
// exactly what they need up front.
const (
	nodeChunk = 32
	pinChunk  = 128
)

// Epoch returns the circuit's structural mutation epoch: a counter
// bumped by every mutation that can invalidate a cached topological
// order or change arc delays structurally — node insertion and removal,
// pin rewiring, and cell retyping. Size (CIn, CWire) and Vt writes do
// NOT bump it: they perturb timing values, not structure, and cached
// analyses repair them incrementally. Consumers (sta.Result,
// sta.Session) record the epoch at analysis time and refuse or refresh
// stale state when it has moved since.
func (c *Circuit) Epoch() uint64 { return c.epoch }

// MarkMutated bumps the structural epoch. Every mutator in this package
// calls it internally; external code that rewires Fanin/Fanout slices
// directly (e.g. the restructure package's inverter-pair collapse) must
// call it once per structural edit batch.
func (c *Circuit) MarkMutated() { c.epoch++ }

// IDBound returns an exclusive upper bound on node IDs: every node of
// the circuit satisfies 0 ≤ n.ID < IDBound(), and IDs are never reused,
// so a slice of length IDBound() is valid dense per-node storage for
// the circuit's current epoch.
func (c *Circuit) IDBound() int { return c.nextID }

// DefaultGateCIn is the per-pin input capacitance (fF) assigned to
// newly created gates: the minimum available drive of the default
// 0.25 µm corner (tech.CMOS025().CRef). Optimizers overwrite it; the
// default only guarantees that freshly built circuits are analyzable.
const DefaultGateCIn = 1.7

// New returns an empty circuit.
func New(name string) *Circuit {
	return &Circuit{Name: name, byName: make(map[string]*Node)}
}

// newSized returns an empty circuit with room for the given numbers of
// inputs, outputs and nodes, and for pins fanin plus fanout entries:
// counts a bulk builder already knows.
func newSized(name string, inputs, outputs, nodes, pins int) *Circuit {
	c := &Circuit{
		Name:    name,
		Nodes:   make([]*Node, 0, nodes),
		Inputs:  make([]*Node, 0, inputs),
		Outputs: make([]*Node, 0, outputs),
		byName:  make(map[string]*Node, nodes),
	}
	c.reserve(nodes, pins)
	return c
}

// reserve makes room for nodes more nodes and pins more pin slots in
// one chunk each, replacing a current chunk too short to hold them.
func (c *Circuit) reserve(nodes, pins int) {
	if len(c.nodeSlab) < nodes {
		c.nodeSlab = make([]Node, nodes)
	}
	if len(c.pinSlab) < pins {
		c.pinSlab = make([]*Node, pins)
	}
}

// carve returns k pin slots with cap == len, so appending to the
// result never writes into slots carved for another node.
func (c *Circuit) carve(k int) []*Node {
	if k == 0 {
		return nil
	}
	if len(c.pinSlab) < k {
		c.pinSlab = make([]*Node, max(k, pinChunk))
	}
	s := c.pinSlab[:k:k]
	c.pinSlab = c.pinSlab[k:]
	return s
}

// Node returns the node with the given name, or nil.
func (c *Circuit) Node(name string) *Node { return c.byName[name] }

// addNode registers a node, enforcing name uniqueness.
func (c *Circuit) addNode(name string, t gate.Type) (*Node, error) {
	if name == "" {
		return nil, fmt.Errorf("netlist %s: empty node name", c.Name)
	}
	if _, dup := c.byName[name]; dup {
		return nil, fmt.Errorf("netlist %s: duplicate node name %q", c.Name, name)
	}
	if len(c.nodeSlab) == 0 {
		c.nodeSlab = make([]Node, nodeChunk)
	}
	n := &c.nodeSlab[0]
	c.nodeSlab = c.nodeSlab[1:]
	*n = Node{ID: c.nextID, Name: name, Type: t}
	c.nextID++
	c.Nodes = append(c.Nodes, n)
	c.byName[name] = n
	c.epoch++
	return n, nil
}

// AddInput declares a primary input net.
func (c *Circuit) AddInput(name string) (*Node, error) {
	n, err := c.addNode(name, gate.Input)
	if err != nil {
		return nil, err
	}
	c.Inputs = append(c.Inputs, n)
	return n, nil
}

// AddGate adds a logic cell named by its output net, fed by the named
// driver nets (which must already exist).
func (c *Circuit) AddGate(name string, t gate.Type, fanin ...string) (*Node, error) {
	if err := c.checkGate(name, t, len(fanin)); err != nil {
		return nil, err
	}
	drivers := c.carve(len(fanin))
	for i, f := range fanin {
		d := c.byName[f]
		if d == nil {
			return nil, fmt.Errorf("netlist %s: gate %s references undefined net %q", c.Name, name, f)
		}
		drivers[i] = d
	}
	n, err := c.linkGate(name, t, drivers)
	if err != nil {
		return nil, err
	}
	for _, d := range drivers {
		d.Fanout = append(d.Fanout, n)
	}
	return n, nil
}

// newGate adds a logic cell fed by the driver nodes in (copied),
// leaving fanout to the caller: the bulk builders register every
// fanout in one pass at the end (wireFanout).
func (c *Circuit) newGate(name string, t gate.Type, in ...*Node) (*Node, error) {
	if err := c.checkGate(name, t, len(in)); err != nil {
		return nil, err
	}
	drivers := c.carve(len(in))
	copy(drivers, in)
	return c.linkGate(name, t, drivers)
}

// checkGate checks that t is a logic cell taking pins inputs.
func (c *Circuit) checkGate(name string, t gate.Type, pins int) error {
	if !gate.IsLogic(t) {
		return fmt.Errorf("netlist %s: %v is not a logic cell", c.Name, t)
	}
	cell, err := gate.Lookup(t)
	if err != nil {
		return err
	}
	if pins != cell.FanIn {
		return fmt.Errorf("netlist %s: gate %s type %v wants %d inputs, got %d",
			c.Name, name, t, cell.FanIn, pins)
	}
	return nil
}

// linkGate registers a checked logic cell on drivers, a carved slice
// it takes over as the cell's fanin. Fanout is left to the caller.
func (c *Circuit) linkGate(name string, t gate.Type, drivers []*Node) (*Node, error) {
	n, err := c.addNode(name, t)
	if err != nil {
		return nil, err
	}
	n.CIn = DefaultGateCIn
	n.Fanin = drivers
	return n, nil
}

// AddOutput declares that net name is a primary output, creating an
// observation pseudo-node carrying the terminal load.
func (c *Circuit) AddOutput(name string, load float64) (*Node, error) {
	n, err := c.addOutput(name, load)
	if err != nil {
		return nil, err
	}
	d := n.Fanin[0]
	d.Fanout = append(d.Fanout, n)
	return n, nil
}

// addOutput is AddOutput without the fanout registration.
func (c *Circuit) addOutput(name string, load float64) (*Node, error) {
	d := c.byName[name]
	if d == nil {
		return nil, fmt.Errorf("netlist %s: output references undefined net %q", c.Name, name)
	}
	return c.linkOutput(d, name+"$po", load)
}

// linkOutput creates the observation pseudo-node name on net d.
// Fanout is left to the caller.
func (c *Circuit) linkOutput(d *Node, name string, load float64) (*Node, error) {
	n, err := c.addNode(name, gate.Output)
	if err != nil {
		return nil, err
	}
	n.Fanin = c.carve(1)
	n.Fanin[0] = d
	n.CIn = load
	c.Outputs = append(c.Outputs, n)
	return n, nil
}

// wireFanout fills every node's fanout list from the fanin lists, in
// the order AddGate and AddOutput would have appended them: sinks in
// creation order, each sink's pins in pin order. The lists are carved
// from one reservation with cap == len. The bulk builders call it once,
// on the circuit they created, after creating every node with
// newGate/linkGate/linkOutput.
func (c *Circuit) wireFanout() {
	count := make([]int32, c.nextID)
	pins := 0
	for _, n := range c.Nodes {
		for _, f := range n.Fanin {
			count[f.ID]++
		}
		pins += len(n.Fanin)
	}
	c.reserve(0, pins)
	for _, n := range c.Nodes {
		n.Fanout = c.carve(int(count[n.ID]))[:0]
	}
	for _, n := range c.Nodes {
		for _, f := range n.Fanin {
			f.Fanout = append(f.Fanout, n)
		}
	}
	// A build's epoch is one bump per node it created, exactly as if
	// each node had been added with AddGate or AddOutput; wiring the
	// fanout lists completes those additions and adds no bump of its
	// own.
	c.epoch = uint64(c.nextID)
}

// genName produces a fresh node name base+tag+"_"+k, for the next k of
// the circuit's counter whose name is not taken.
func (c *Circuit) genName(base, tag string) string {
	var buf [64]byte
	return string(c.appendGenName(buf[:0], base, tag))
}

// skipGenName advances the counter exactly as genName would, for a
// builder that draws a name it then does not use.
func (c *Circuit) skipGenName(base, tag string) {
	var buf [64]byte
	c.appendGenName(buf[:0], base, tag)
}

// appendGenName appends genName's result to dst.
func (c *Circuit) appendGenName(dst []byte, base, tag string) []byte {
	for {
		c.genSeq++
		name := strconv.AppendInt(append(append(append(dst, base...), tag...), '_'), int64(c.genSeq), 10)
		if _, taken := c.byName[string(name)]; !taken {
			return name
		}
	}
}

// Validate checks structural sanity: pin counts match cell fan-in, no
// dangling references, inputs undriven, outputs observed, and the graph
// is acyclic. Optimizers call it after every mutation in tests.
func (c *Circuit) Validate() error {
	for _, n := range c.Nodes {
		switch {
		case n.Type == gate.Input:
			if len(n.Fanin) != 0 {
				return fmt.Errorf("netlist %s: input %s has fanin", c.Name, n.Name)
			}
		case n.Type == gate.Output:
			if len(n.Fanin) != 1 {
				return fmt.Errorf("netlist %s: output %s must have exactly one fanin", c.Name, n.Name)
			}
			if len(n.Fanout) != 0 {
				return fmt.Errorf("netlist %s: output %s has fanout", c.Name, n.Name)
			}
		case n.IsLogic():
			cell := n.Cell()
			if len(n.Fanin) != cell.FanIn {
				return fmt.Errorf("netlist %s: gate %s (%v) has %d fanin, wants %d",
					c.Name, n.Name, n.Type, len(n.Fanin), cell.FanIn)
			}
			if n.CIn < 0 {
				return fmt.Errorf("netlist %s: gate %s has negative input capacitance", c.Name, n.Name)
			}
			if !n.Vt.Valid() {
				return fmt.Errorf("netlist %s: gate %s has invalid Vt class %d", c.Name, n.Name, int(n.Vt))
			}
		default:
			return fmt.Errorf("netlist %s: node %s has invalid type %v", c.Name, n.Name, n.Type)
		}
		for _, f := range n.Fanin {
			if c.byName[f.Name] != f {
				return fmt.Errorf("netlist %s: node %s fanin %s is not registered", c.Name, n.Name, f.Name)
			}
		}
		// Fanin/fanout must agree with per-pin multiplicity: a sink
		// taking a driver on k pins appears k times in its fanout.
		// Drivers are checked at their first pin, in pin order.
		for i, f := range n.Fanin {
			if contains(n.Fanin[:i], f) {
				continue
			}
			if k, got := countOf(n.Fanin[i:], f), countOf(f.Fanout, n); got != k {
				return fmt.Errorf("netlist %s: %s drives %s on %d pins but has %d fanout entries",
					c.Name, f.Name, n.Name, k, got)
			}
		}
		for _, s := range n.Fanout {
			if !contains(s.Fanin, n) {
				return fmt.Errorf("netlist %s: fanout/fanin asymmetry between %s and %s", c.Name, n.Name, s.Name)
			}
		}
	}
	if _, err := c.TopoOrder(); err != nil {
		return err
	}
	return nil
}

func contains(ns []*Node, n *Node) bool {
	for _, x := range ns {
		if x == n {
			return true
		}
	}
	return false
}

func countOf(ns []*Node, n *Node) int {
	k := 0
	for _, x := range ns {
		if x == n {
			k++
		}
	}
	return k
}

// TopoOrder returns the nodes in a deterministic topological order
// (Kahn's algorithm with ID tie-breaking), or an error if the graph has
// a cycle.
func (c *Circuit) TopoOrder() ([]*Node, error) {
	return c.TopoOrderInto(nil, nil)
}

// TopoScratch is reusable working storage for TopoOrderInto. The zero
// value is ready to use; buffers grow on demand and are retained across
// calls, so a caller that re-sorts the same circuit repeatedly (the
// incremental timing session) performs no steady-state allocation.
type TopoScratch struct {
	indeg []int   // per-ID in-degree countdown
	ready []*Node // Kahn frontier
	next  []*Node // per-step newly-ready batch
}

// grow readies the buffers for a circuit of the given ID bound and node
// count. Short buffers grow on append's amortized schedule, so a circuit
// that gains a few nodes per round (buffer insertion) does not
// reallocate them on every sort.
//
//pops:noalloc buffers reused; they grow only under the cap guards
func (s *TopoScratch) grow(idBound, nodes int) {
	if cap(s.indeg) < idBound {
		s.indeg = slices.Grow(s.indeg[:0], idBound)
	}
	s.indeg = s.indeg[:idBound]
	clear(s.indeg)
	// Every node passes through the Kahn FIFO once.
	if cap(s.ready) < nodes {
		s.ready = slices.Grow(s.ready[:0], nodes)
	}
	s.ready = s.ready[:0]
	s.next = s.next[:0]
}

// TopoOrderInto is TopoOrder with caller-supplied storage: the order is
// appended to dst[:0] and the scratch buffers are reused. A nil scratch
// allocates fresh working storage. The produced order is identical to
// TopoOrder's (Kahn with ID tie-breaking).
//
//pops:noalloc steady state reuses dst and scratch capacity
func (c *Circuit) TopoOrderInto(dst []*Node, scratch *TopoScratch) ([]*Node, error) {
	if scratch == nil {
		scratch = &TopoScratch{} //popslint:ignore noalloc convenience path for one-shot callers; hot callers pass their scratch
	}
	scratch.grow(c.nextID, len(c.Nodes))
	indeg := scratch.indeg
	// ready doubles as the FIFO of Kahn's algorithm: head walks it while
	// newly-ready batches are sorted and appended at the tail.
	ready := scratch.ready
	next := scratch.next
	for _, n := range c.Nodes {
		indeg[n.ID] = len(n.Fanin)
		if len(n.Fanin) == 0 {
			ready = append(ready, n)
		}
	}
	sortNodesByID(ready)
	order := dst[:0]
	if cap(order) < len(c.Nodes) {
		order = slices.Grow(order, len(c.Nodes))
	}
	for head := 0; head < len(ready); head++ {
		n := ready[head]
		order = append(order, n)
		next = next[:0]
		for _, s := range n.Fanout {
			indeg[s.ID]--
			if indeg[s.ID] == 0 {
				next = append(next, s)
			}
		}
		sortNodesByID(next)
		ready = append(ready, next...)
	}
	scratch.ready = ready
	scratch.next = next
	if len(order) != len(c.Nodes) {
		//popslint:ignore noalloc cycle error path, never taken on a valid circuit
		return nil, fmt.Errorf("netlist %s: cycle detected (%d of %d nodes ordered)",
			c.Name, len(order), len(c.Nodes))
	}
	return order, nil
}

// sortNodesByID orders nodes by ascending ID in place. Insertion sort
// on purpose: Kahn frontiers are small and usually already ID-ordered
// (nodes enter in creation order), and unlike sort.Slice it allocates
// nothing — the sort's closure/swapper used to show up in re-analysis
// allocation profiles.
//
//pops:noalloc
func sortNodesByID(ns []*Node) {
	for i := 1; i < len(ns); i++ {
		n := ns[i]
		j := i - 1
		for j >= 0 && ns[j].ID > n.ID {
			ns[j+1] = ns[j]
			j--
		}
		ns[j+1] = n
	}
}

// Clone returns a deep copy of the circuit, preserving node names, IDs,
// types, sizing state and connectivity. Optimizers clone before
// speculative mutations.
//
// The copy's nodes live in one slab indexed by ID, so a node's copy is
// found from its ID alone; IDs freed by removals leave unused slots.
// Fanin and fanout lists are carved from one pin slab.
func (c *Circuit) Clone() *Circuit {
	pins := 0
	for _, n := range c.Nodes {
		pins += len(n.Fanin) + len(n.Fanout)
	}
	d := &Circuit{
		Name:    c.Name,
		Nodes:   make([]*Node, len(c.Nodes)),
		Inputs:  make([]*Node, len(c.Inputs)),
		Outputs: make([]*Node, len(c.Outputs)),
		byName:  make(map[string]*Node, len(c.Nodes)),
		nextID:  c.nextID,
		genSeq:  c.genSeq,
		pinSlab: make([]*Node, pins),
	}
	d.epoch = c.epoch
	slab := make([]Node, c.nextID)
	copyPins := func(src []*Node) []*Node {
		dst := d.carve(len(src))
		for i, f := range src {
			dst[i] = &slab[f.ID]
		}
		return dst
	}
	for i, n := range c.Nodes {
		m := &slab[n.ID]
		*m = Node{ID: n.ID, Name: n.Name, Type: n.Type, CIn: n.CIn, CWire: n.CWire, Vt: n.Vt}
		m.Fanin = copyPins(n.Fanin)
		m.Fanout = copyPins(n.Fanout)
		d.Nodes[i] = m
		d.byName[m.Name] = m
	}
	for i, n := range c.Inputs {
		d.Inputs[i] = &slab[n.ID]
	}
	for i, n := range c.Outputs {
		d.Outputs[i] = &slab[n.ID]
	}
	return d
}

// Gates returns the logic cells of the circuit in creation order.
func (c *Circuit) Gates() []*Node {
	gs := make([]*Node, 0, len(c.Nodes))
	for _, n := range c.Nodes {
		if n.IsLogic() {
			gs = append(gs, n)
		}
	}
	return gs
}

// Area returns the total transistor width ΣW of the circuit in µm given
// a conversion of capacitance to width — the paper's cost metric.
func (c *Circuit) Area(widthForCap func(float64) float64) float64 {
	var sum float64
	for _, n := range c.Nodes {
		if !n.IsLogic() {
			continue
		}
		sum += float64(n.Cell().FanIn) * widthForCap(n.CIn)
	}
	return sum
}

// Stats summarizes the circuit for reports.
type Stats struct {
	Inputs, Outputs, Gates int
	ByType                 map[gate.Type]int
	Depth                  int // logic levels on the longest input→output chain
}

// Stats computes circuit statistics. It assumes a valid DAG.
func (c *Circuit) Stats() Stats {
	st := Stats{ByType: make(map[gate.Type]int)}
	st.Inputs = len(c.Inputs)
	st.Outputs = len(c.Outputs)
	order, err := c.TopoOrder()
	if err != nil {
		return st
	}
	level := make(map[*Node]int, len(c.Nodes))
	for _, n := range order {
		lv := 0
		for _, f := range n.Fanin {
			if level[f] > lv {
				lv = level[f]
			}
		}
		if n.IsLogic() {
			lv++
			st.Gates++
			st.ByType[n.Type]++
		}
		level[n] = lv
		if lv > st.Depth {
			st.Depth = lv
		}
	}
	return st
}
