package sta

import (
	"errors"
	"fmt"
	"math"
	"math/bits"

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
// O(circuit): the multi-Vt pass runs one per candidate move on circuits
// of thousands of gates whose cones hold a few dozen.

// ErrStaleAnalysis reports that a Result (or an update through it) was
// used after the circuit's structure changed — node insertion/removal,
// pin rewiring, or a retype — since the analysis was computed. The
// holder must run a fresh Analyze (or Session.Analyze, which refreshes
// automatically).
var ErrStaleAnalysis = errors.New("sta: analysis is stale: circuit structure changed since it was computed")

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
	if r.epoch != r.Circuit.Epoch() {
		return 0, fmt.Errorf("sta: circuit %s epoch %d vs analysis epoch %d: %w",
			r.Circuit.Name, r.Circuit.Epoch(), r.epoch, ErrStaleAnalysis)
	}
	for _, n := range changed {
		if r.Circuit.Node(n.Name) != n {
			return 0, fmt.Errorf("sta: node %s is not part of the analyzed circuit", n.Name)
		}
	}
	// The dirty bitset is all-clear on entry and again on return: the
	// sweep covers every marked position and clears it.
	for _, n := range changed {
		r.mark(n)
		for _, f := range n.Fanin {
			r.mark(f) // the driver's load changed
		}
	}

	recomputed := 0
	tauIn := r.Config.inputTau(r.Model.Proc)
	for w := r.lo >> 6; w <= r.hi>>6; w++ {
		for r.dirty[w] != 0 {
			b := bits.TrailingZeros64(r.dirty[w])
			r.dirty[w] &^= 1 << b
			n := r.order[w<<6|b]
			old := r.timing[n.ID]
			switch {
			case n.Type == gate.Input:
				r.timing[n.ID] = NodeTiming{TauRise: tauIn, TauFall: tauIn}
			case n.Type == gate.Output:
				d := n.Fanin[0]
				r.timing[n.ID] = r.timing[d.ID]
				r.predRise[n.ID] = d
				r.predFall[n.ID] = d
			default:
				r.analyzeGate(n)
			}
			recomputed++
			if old != r.timing[n.ID] {
				for _, s := range n.Fanout {
					r.mark(s) // later in the order: this sweep reaches it
				}
			}
		}
	}
	r.lo, r.hi = math.MaxInt, -1

	// Refresh the worst endpoint over all outputs (cheap).
	r.WorstDelay = math.Inf(-1)
	r.WorstOutput = nil
	for _, o := range r.Circuit.Outputs {
		dt := r.timing[o.ID]
		if dt.TRise > r.WorstDelay {
			r.WorstDelay, r.WorstOutput, r.WorstRising = dt.TRise, o, true
		}
		if dt.TFall > r.WorstDelay {
			r.WorstDelay, r.WorstOutput, r.WorstRising = dt.TFall, o, false
		}
	}
	if r.WorstOutput == nil {
		// Timing was already overwritten: poison the Result so the
		// failure cannot be ignored and the state silently reused.
		r.epoch = staleEpoch
		return recomputed, fmt.Errorf("sta: circuit %s lost its outputs: %w", r.Circuit.Name, ErrStaleAnalysis)
	}
	return recomputed, nil
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
