// Package sta performs slope-propagating static timing analysis on
// elaborated netlists using the paper's closed-form delay model, and
// extracts critical paths as bounded-path objects for the POPS
// optimizers. Path selection follows the paper's POPS philosophy
// (ref. [11-12]): only a user-limited number of worst paths is
// extracted and optimized.
//
// Timing state is stored in dense slices indexed by netlist.Node.ID and
// validated against the circuit's structural mutation epoch
// (netlist.Circuit.Epoch): a Result knows which structure it was
// computed on, incremental updates refuse stale structures with
// ErrStaleAnalysis, and the reusable Session re-analyzes into the same
// buffers so the optimizer's round loop performs no steady-state
// allocation.
package sta

import (
	"fmt"
	"math"
	"slices"

	"repro/internal/delay"
	"repro/internal/gate"
	"repro/internal/netlist"
)

// Config parameterizes an analysis run. It carries nothing: every
// analysis runs serially and presents delay.DefaultTauIn for the
// model's corner at every primary input.
type Config struct {
	// Parallelism is ignored: every analysis runs serially.
	//
	// Deprecated: ignored; kept only so the benchmark module builds.
	Parallelism int
}

// NodeTiming carries the per-net timing state: worst arrival times and
// output transition times for both output edges.
type NodeTiming struct {
	TRise, TFall     float64 // worst arrival of the rising/falling output edge (ps)
	TauRise, TauFall float64 // output transition times (ps)
}

// Worst returns the worse of the two arrival times.
func (t NodeTiming) Worst() float64 { return math.Max(t.TRise, t.TFall) }

// Result is the outcome of an STA run. Per-node state lives in dense
// slices indexed by Node.ID; it is valid exactly while the circuit's
// structural epoch matches the one recorded at analysis time.
type Result struct {
	Circuit *netlist.Circuit
	Model   *delay.Model
	Config  Config

	// WorstDelay is the latest arrival over all primary outputs (ps);
	// WorstOutput the pseudo-node where it occurs, WorstRising its edge.
	WorstDelay  float64
	WorstOutput *netlist.Node
	WorstRising bool

	// epoch is Circuit.Epoch() at analysis time; staleEpoch marks a
	// Result poisoned by a failed incremental update.
	epoch uint64
	// gen counts the full analyses and Updates this Result has run; a
	// SlackReport bounds Try only while gen is the one it was computed
	// at. A kept Try does not advance it.
	gen uint64

	// timing, predRise and predFall are indexed by Node.ID (dense up to
	// Circuit.IDBound at analysis time). pred records, per (node,
	// output edge), the fanin whose arrival determined the worst
	// arrival — the backtracking skeleton.
	timing   []NodeTiming
	predRise []*netlist.Node
	predFall []*netlist.Node

	// order caches the topological order for incremental updates; pos
	// is its inverse, indexed by Node.ID.
	order []*netlist.Node
	pos   []int

	// Scratch reused across incremental updates and re-analyses: the
	// dirty bitset over topological positions and the bounds of its
	// marked range (incremental.go); all-clear between updates.
	dirty  []uint64
	lo, hi int
	undo   []undoEntry // Try's log of overwritten entries (Try sizes it)
	topo   netlist.TopoScratch
}

// Analyze runs slope-propagating STA over the circuit. The circuit must
// be elaborated (primitive cells only) and acyclic.
func Analyze(c *netlist.Circuit, m *delay.Model, cfg Config) (*Result, error) {
	res := &Result{Circuit: c, Model: m, Config: cfg}
	if err := res.analyze(); err != nil {
		return nil, err
	}
	return res, nil
}

// grow sizes the per-ID slices for the circuit's current ID bound,
// reusing capacity, and clears the entries. Short slices grow on
// append's amortized schedule: buffer insertion raises the ID bound a
// few nodes per round, and an exact-size grow would reallocate on every
// re-analysis.
//
//pops:noalloc per-ID slices grow only under resize's cap guard
func (r *Result) grow() {
	n := r.Circuit.IDBound()
	r.timing = resize(r.timing, n)
	r.predRise = resize(r.predRise, n)
	r.predFall = resize(r.predFall, n)
	r.pos = resize(r.pos, n)
	r.dirty = resize(r.dirty, (n+63)/64)
	for i := range r.timing {
		r.timing[i] = NodeTiming{}
		r.predRise[i] = nil
		r.predFall[i] = nil
	}
	clear(r.dirty)
	r.lo, r.hi = math.MaxInt, -1
}

// resize returns s resized to n, reallocating only when its capacity
// is short, and then on append's amortized schedule.
//
//pops:noalloc
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		s = slices.Grow(s[:0], n)
	}
	return s[:n]
}

// analyze (re)runs the full forward pass in place, reusing the
// Result's buffers. It records the circuit's current epoch on success.
//
//pops:noalloc full re-analysis must land in the reused buffers
func (r *Result) analyze() error {
	c := r.Circuit
	if !netlist.IsElaborated(c) {
		//popslint:ignore noalloc precondition error path
		return fmt.Errorf("sta: circuit %s contains composite cells; run netlist.Elaborate first", c.Name)
	}
	order, err := c.TopoOrderInto(r.order, &r.topo)
	if err != nil {
		return err
	}
	r.order = order
	r.grow()
	tauIn := delay.DefaultTauIn(r.Model.Proc)
	r.WorstDelay = math.Inf(-1)
	r.WorstOutput = nil

	for i, n := range order {
		r.pos[n.ID] = i
		switch {
		case n.Type == gate.Input:
			r.timing[n.ID] = NodeTiming{TauRise: tauIn, TauFall: tauIn}
		case n.Type == gate.Output:
			d := n.Fanin[0]
			dt := r.timing[d.ID]
			r.timing[n.ID] = dt
			r.predRise[n.ID] = d
			r.predFall[n.ID] = d
			if dt.TRise > r.WorstDelay {
				r.WorstDelay, r.WorstOutput, r.WorstRising = dt.TRise, n, true
			}
			if dt.TFall > r.WorstDelay {
				r.WorstDelay, r.WorstOutput, r.WorstRising = dt.TFall, n, false
			}
		default:
			r.analyzeGate(n)
		}
	}
	if r.WorstOutput == nil {
		//popslint:ignore noalloc degenerate-circuit error path
		return fmt.Errorf("sta: circuit %s has no primary outputs", c.Name)
	}
	r.epoch = c.Epoch()
	r.gen++
	return nil
}

// analyzeGate computes the worst rise/fall arrivals of a logic node.
// Delays and transitions honor the node's Vt class; for the default SVT
// class the Vt-aware model delegates bit-exactly to the base model. The
// gate-level terms are evaluated once and each fan-in adds its slope
// term, which equals the per-fan-in GateDelayHLVt/LHVt bit for bit.
//
//pops:noalloc
func (r *Result) analyzeGate(n *netlist.Node) {
	cell := n.Cell()
	cl := n.FanoutCap() + cell.Parasitic(n.CIn)
	g := r.Model.GateTermsVt(cell, n.CIn, cl, n.Vt)

	tFall, tRise := math.Inf(-1), math.Inf(-1)
	var pFall, pRise *netlist.Node
	for _, d := range n.Fanin {
		dt := r.timing[d.ID]
		if cell.Invert {
			// Input rising → output falling.
			if t := dt.TRise + g.DelayHL(dt.TauRise); t > tFall {
				tFall, pFall = t, d
			}
			// Input falling → output rising.
			if t := dt.TFall + g.DelayLH(dt.TauFall); t > tRise {
				tRise, pRise = t, d
			}
		} else {
			// Non-inverting (BUF): edges preserved.
			if t := dt.TFall + g.DelayHL(dt.TauFall); t > tFall {
				tFall, pFall = t, d
			}
			if t := dt.TRise + g.DelayLH(dt.TauRise); t > tRise {
				tRise, pRise = t, d
			}
		}
	}
	r.timing[n.ID] = NodeTiming{TRise: tRise, TFall: tFall, TauRise: g.TauLH, TauFall: g.TauHL}
	r.predRise[n.ID] = pRise
	r.predFall[n.ID] = pFall
}

// Timing returns the node's timing state. The node must belong to the
// analyzed circuit; nodes created after the analysis (stale access)
// return a zero NodeTiming.
func (r *Result) Timing(n *netlist.Node) NodeTiming {
	if n == nil || n.ID >= len(r.timing) {
		return NodeTiming{}
	}
	return r.timing[n.ID]
}

// Epoch returns the structural epoch of the circuit this analysis was
// computed on.
func (r *Result) Epoch() uint64 { return r.epoch }

// Fresh reports whether the analysis still matches the circuit's
// structure (no structural mutation since the last analyze/update).
func (r *Result) Fresh() bool { return r.epoch == r.Circuit.Epoch() }

// CriticalNodes backtracks the worst path from the worst output to a
// primary input, returning the logic nodes in signal order.
func (r *Result) CriticalNodes() []*netlist.Node {
	return r.AppendCriticalNodes(nil)
}

// AppendCriticalNodes is CriticalNodes appending into dst[:0], for
// callers recycling the slice across rounds.
func (r *Result) AppendCriticalNodes(dst []*netlist.Node) []*netlist.Node {
	rev := dst[:0]
	n := r.WorstOutput
	rising := r.WorstRising
	for n != nil {
		if n.IsLogic() {
			rev = append(rev, n)
		}
		var p *netlist.Node
		if rising {
			p = r.predRise[n.ID]
		} else {
			p = r.predFall[n.ID]
		}
		if p != nil && n.IsLogic() && n.Cell().Invert {
			rising = !rising
		}
		n = p
	}
	// Reverse into signal order.
	for i, j := 0, len(rev)-1; i < j; i, j = i+1, j-1 {
		rev[i], rev[j] = rev[j], rev[i]
	}
	return rev
}

// PathFromNodes builds a bounded-path object from a chain of logic
// nodes (in signal order). The off-path load of each stage is its full
// fan-out minus the single pin continuing the path; the last stage
// keeps its entire fan-out (terminal + branches) as fixed load.
func PathFromNodes(name string, nodes []*netlist.Node, m *delay.Model, cfg Config) (*delay.Path, error) {
	pa := &delay.Path{}
	if err := PathFromNodesInto(pa, name, nodes, m, cfg); err != nil {
		return nil, err
	}
	return pa, nil
}

// PathFromNodesInto is PathFromNodes into a caller-owned path: pa's
// stage slice is truncated and refilled, so the optimizer's round loop
// can re-extract the worst path every round without allocating. On
// error pa is left partially filled and must not be used.
func PathFromNodesInto(pa *delay.Path, name string, nodes []*netlist.Node, m *delay.Model, cfg Config) error {
	if len(nodes) == 0 {
		return fmt.Errorf("sta: empty node chain for path %q", name)
	}
	pa.Name = name
	pa.TauIn = delay.DefaultTauIn(m.Proc)
	pa.Stages = pa.Stages[:0]
	for i, n := range nodes {
		if !n.IsLogic() {
			return fmt.Errorf("sta: path %q node %s is not a logic cell", name, n.Name)
		}
		coff := n.FanoutCap()
		if i+1 < len(nodes) {
			next := nodes[i+1]
			linked := false
			for _, f := range next.Fanin {
				if f == n {
					linked = true
					break
				}
			}
			if !linked {
				return fmt.Errorf("sta: path %q: %s does not drive %s", name, n.Name, next.Name)
			}
			coff -= next.CIn // one pin continues the path
			if coff < 0 {
				coff = 0
			}
		}
		pa.Stages = append(pa.Stages, delay.Stage{Cell: n.Cell(), CIn: n.CIn, COff: coff, Node: n})
	}
	return nil
}

// CriticalPath runs STA and extracts the single worst path as a
// bounded-path object.
func CriticalPath(c *netlist.Circuit, m *delay.Model, cfg Config) (*delay.Path, *Result, error) {
	res, err := Analyze(c, m, cfg)
	if err != nil {
		return nil, nil, err
	}
	return criticalPathFrom(res, m, cfg)
}

func criticalPathFrom(res *Result, m *delay.Model, cfg Config) (*delay.Path, *Result, error) {
	nodes := res.CriticalNodes()
	if len(nodes) == 0 {
		return nil, nil, fmt.Errorf("sta: circuit %s has an empty critical path", res.Circuit.Name)
	}
	pa, err := PathFromNodes(res.Circuit.Name+"/critical", nodes, m, cfg)
	if err != nil {
		return nil, nil, err
	}
	return pa, res, nil
}
