package sta

import (
	"errors"
	"fmt"
	"math"
	"math/bits"
	"slices"

	"repro/internal/delay"
	"repro/internal/gate"
	"repro/internal/netlist"
)

// Incremental timing update, in the spirit of the paper's reference
// [12] (Crémoux, Azemard, Auvergne, "Path resizing based on
// incremental technique", ISCAS'98): after a handful of gates change
// size, only the affected cone is re-propagated instead of the whole
// circuit. A resized gate perturbs (a) its own stage delay and output
// transitions and (b) the load — hence timing — of its *drivers*, so
// the dirty set is seeded with the changed nodes and their fanins, and
// propagation stops wherever the recomputed timing equals the cached
// one bit-exactly. The exact cut makes Update indistinguishable from a
// fresh Analyze: a node is left untouched only when recomputation could
// not have produced a different value, so the equivalence holds to the
// last float bit (relied on by the session-based round loop and pinned
// by the core golden tests).
//
// The dirty set is a worklist: a bitset over topological positions
// (Result.pos, filled by analyze), swept upward from the lowest marked
// position to the highest. A node marks only its fanouts, which sit
// later in the order, so the sweep visits the dirty nodes in
// topological order — exactly the nodes, in the same relative order,
// that a scan of the whole order would — while skipping clean stretches
// 64 positions per word. An update costs O(cone + span/64) instead of
// O(circuit): the multi-Vt pass checks its candidate moves this way on
// circuits of thousands of gates whose cones hold a few dozen.
//
// Try is the same sweep as a trial: it logs every entry it overwrites,
// stops at the first gate whose arrival exceeds its required time in a
// SlackReport, or else at the first primary output over the budget, and
// on rejection replays the log, so a rejected move never propagates
// twice.

// ErrStaleAnalysis reports that a Result (or an update through it) was
// used after the circuit's structure changed — node insertion/removal,
// pin rewiring, or a retype — since the analysis was computed. The
// holder must run a fresh Analyze (or Session.Analyze, which refreshes
// automatically).
var ErrStaleAnalysis = errors.New("sta: analysis is stale: circuit structure changed since it was computed")

// ErrStaleReport reports that Try was handed a SlackReport computed
// from another analysis, or from this one before an Update or a full
// re-analysis: its required times no longer bound the timing.
var ErrStaleReport = errors.New("sta: slack report is stale: timing was updated or re-analyzed since it was computed")

// undoEntry is one node's timing state as it stood before a Try sweep
// overwrote it.
type undoEntry struct {
	id                 int
	timing             NodeTiming
	predRise, predFall *netlist.Node
}

// staleEpoch poisons a Result whose incremental state was torn mid-way
// by a failed update; no live circuit epoch ever equals it.
const staleEpoch = math.MaxUint64

// Update re-propagates timing after the given nodes changed size, wire
// load, or Vt class. It returns the number of nodes recomputed. Only
// the changed nodes, their drivers and the fan-out cone whose timing
// actually moved are visited, in topological order.
//
// Structure is guarded by the circuit's mutation epoch: if the
// structure changed since this Result was computed (even by a
// node-count-preserving rewrite such as an in-place NOR→NAND retype or
// a pin rewire), Update refuses with ErrStaleAnalysis and leaves the
// cached timing untouched. Any error that surfaces after propagation
// began additionally poisons the Result — every later Update returns
// ErrStaleAnalysis — instead of leaving it silently half-mutated.
func (r *Result) Update(changed ...*netlist.Node) (int, error) {
	if err := r.checkChanged(changed); err != nil {
		return 0, err
	}
	r.gen++
	r.seed(changed)
	recomputed, _ := r.sweep(math.Inf(1), nil, false)
	d, o, rising := r.worst()
	if o == nil {
		return recomputed, r.lostOutputs()
	}
	r.WorstDelay, r.WorstOutput, r.WorstRising = d, o, rising
	return recomputed, nil
}

// Try is Update as a trial move against the delay budget rep.Tc: it
// propagates the same cone and keeps the result when the worst delay
// stays within budget — exactly the verdict WorstDelay <= rep.Tc after
// Update — and otherwise restores every node's timing and Worst* bit
// for bit. It returns the verdict and the number of nodes recomputed.
//
// Each overwritten entry is logged before the sweep writes it, and a
// rejected move costs one partial propagation and a replay of its log
// instead of a full update and a rollback update. The sweep stops at
// the first gate whose rise or fall arrival exceeds the report's
// required time for that edge by more than the rounding margin, and
// otherwise at the first primary output over budget, the exact check.
// The early stop reaches the full sweep's verdict as long as no arc
// delay or transition has fallen since rep was computed, the case of a
// pass that only moves gates up the Vt ladder: every path from the gate
// to an output is then at least as slow as when rep was computed, so
// the gate's required time can only have dropped and the output the
// path ends at is over budget too. A report from another analysis, or
// from before an Update or a full re-analysis of this one, is refused
// with ErrStaleReport before any timing is touched; a kept Try leaves
// the report valid.
//
// Every node is recomputed at most once per sweep, so the log, sized to
// the ID bound, never grows past it. Other errors are Update's.
//
//pops:noalloc
func (r *Result) Try(rep *SlackReport, changed ...*netlist.Node) (bool, int, error) {
	if err := r.checkChanged(changed); err != nil {
		return false, 0, err
	}
	if rep.res != r || rep.gen != r.gen {
		return false, 0, ErrStaleReport
	}
	if cap(r.undo) < len(r.timing) {
		// Sized on the first trial, not in grow, so analyses that never
		// try a move do not pay for it.
		r.undo = slices.Grow(r.undo[:0], len(r.timing))
	}
	r.undo = r.undo[:0]
	r.seed(changed)
	recomputed, ok := r.sweep(rep.Tc, rep, true)
	if !ok {
		r.restore()
		return false, recomputed, nil
	}
	d, o, rising := r.worst()
	if o == nil {
		return false, recomputed, r.lostOutputs()
	}
	if d > rep.Tc {
		// An output outside the cone was already over budget.
		r.restore()
		return false, recomputed, nil
	}
	r.WorstDelay, r.WorstOutput, r.WorstRising = d, o, rising
	return true, recomputed, nil
}

// checkChanged refuses an update on a stale structure or with a node
// from another circuit, before any timing is touched.
func (r *Result) checkChanged(changed []*netlist.Node) error {
	if r.epoch != r.Circuit.Epoch() {
		return fmt.Errorf("sta: circuit %s epoch %d vs analysis epoch %d: %w",
			r.Circuit.Name, r.Circuit.Epoch(), r.epoch, ErrStaleAnalysis)
	}
	for _, n := range changed {
		if r.Circuit.Node(n.Name) != n {
			return fmt.Errorf("sta: node %s is not part of the analyzed circuit", n.Name)
		}
	}
	return nil
}

// lostOutputs poisons the Result after a sweep found no primary
// output: timing was already overwritten, so the failure cannot be
// ignored and the state silently reused.
func (r *Result) lostOutputs() error {
	r.epoch = staleEpoch
	return fmt.Errorf("sta: circuit %s lost its outputs: %w", r.Circuit.Name, ErrStaleAnalysis)
}

// seed marks the changed nodes and their drivers, whose load changed.
// The dirty bitset is all-clear before and again after each sweep.
//
//pops:noalloc
func (r *Result) seed(changed []*netlist.Node) {
	for _, n := range changed {
		r.mark(n)
		for _, f := range n.Fanin {
			r.mark(f) // the driver's load changed
		}
	}
}

// sweep recomputes the dirty nodes in topological order, clearing the
// bitset as it goes, and returns the number recomputed. With log set it
// appends each node's entry to the undo log before overwriting it. It
// returns false, with the rest of the bitset cleared, as soon as a
// primary output's arrival exceeds budget (Update passes +Inf) or, with
// a report, a gate's arrival exceeds its required time by more than
// roundingMargin·|budget| (see Try).
//
//pops:noalloc
func (r *Result) sweep(budget float64, rep *SlackReport, log bool) (int, bool) {
	recomputed := 0
	tauIn := delay.DefaultTauIn(r.Model.Proc)
	margin := roundingMargin * math.Abs(budget)
	for w := r.lo >> 6; w <= r.hi>>6; w++ {
		for r.dirty[w] != 0 {
			b := bits.TrailingZeros64(r.dirty[w])
			r.dirty[w] &^= 1 << b
			n := r.order[w<<6|b]
			old := r.timing[n.ID]
			if log {
				r.undo = append(r.undo, undoEntry{id: n.ID, timing: old, predRise: r.predRise[n.ID], predFall: r.predFall[n.ID]})
			}
			recomputed++
			over := false
			switch {
			case n.Type == gate.Input:
				r.timing[n.ID] = NodeTiming{TauRise: tauIn, TauFall: tauIn}
			case n.Type == gate.Output:
				d := n.Fanin[0]
				dt := r.timing[d.ID]
				r.timing[n.ID] = dt
				r.predRise[n.ID] = d
				r.predFall[n.ID] = d
				over = dt.TRise > budget || dt.TFall > budget
			default:
				r.analyzeGate(n)
				if rep != nil {
					t := r.timing[n.ID]
					over = t.TRise > rep.reqR[n.ID]+margin || t.TFall > rep.reqF[n.ID]+margin
				}
			}
			if over {
				clear(r.dirty[w : r.hi>>6+1])
				r.lo, r.hi = math.MaxInt, -1
				return recomputed, false
			}
			if old != r.timing[n.ID] {
				for _, s := range n.Fanout {
					r.mark(s) // later in the order: this sweep reaches it
				}
			}
		}
	}
	r.lo, r.hi = math.MaxInt, -1
	return recomputed, true
}

// restore replays the undo log of a rejected Try. Each node appears in
// it at most once, so the order of the replay does not matter.
//
//pops:noalloc
func (r *Result) restore() {
	for _, e := range r.undo {
		r.timing[e.id] = e.timing
		r.predRise[e.id] = e.predRise
		r.predFall[e.id] = e.predFall
	}
	r.undo = r.undo[:0]
}

// worst scans the primary outputs for the latest arrival; o is nil
// when the circuit has none.
//
//pops:noalloc
func (r *Result) worst() (d float64, o *netlist.Node, rising bool) {
	d = math.Inf(-1)
	for _, out := range r.Circuit.Outputs {
		dt := r.timing[out.ID]
		if dt.TRise > d {
			d, o, rising = dt.TRise, out, true
		}
		if dt.TFall > d {
			d, o, rising = dt.TFall, out, false
		}
	}
	return d, o, rising
}

// mark flags n dirty: it sets n's topological position in the bitset
// and widens the sweep's bounds to cover it.
//
//pops:noalloc
func (r *Result) mark(n *netlist.Node) {
	p := r.pos[n.ID]
	r.dirty[p>>6] |= 1 << (p & 63)
	r.lo = min(r.lo, p)
	r.hi = max(r.hi, p)
}
