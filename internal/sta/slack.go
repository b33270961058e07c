package sta

import (
	"math"
	"sort"

	"repro/internal/gate"
	"repro/internal/netlist"
)

// SlackReport carries required times and slacks against a delay
// constraint — the "iterative timing verification" view the paper's
// §1 mentions when sizing perturbs adjacent paths. Per-node values are
// stored densely by Node.ID; use Required and Slack to read them.
//
// A report also bounds Result.Try's trials. It records the analysis it
// was computed from and that analysis's generation, which every Update
// and full re-analysis advances and a kept Try does not; Try refuses a
// report from another analysis or an older generation.
type SlackReport struct {
	Tc float64
	// WorstSlack is the minimum slack over all nodes.
	WorstSlack float64
	// Violations counts nodes with negative slack.
	Violations int

	res        *Result   // the analysis the report was computed from
	gen        uint64    // res.gen at that time
	reqR, reqF []float64 // by Node.ID, per output edge; +Inf = unconstrained
	slack      []float64 // by Node.ID; +Inf = unconstrained
}

// roundingMargin, scaled by |Tc|, bounds the rounding error of a
// required time, an arrival or a slack: each is a chain of at most
// depth adds and subtracts of values on the Tc scale, each off by at
// most 2⁻⁵³ of Tc, so depth·1.1e-16 of Tc in all.
const roundingMargin = 1e-9

// Required returns the latest arrival the node's output may have
// without violating Tc at any reachable output (worst edge); +Inf for
// dangling (unconstrained) nodes.
func (rep *SlackReport) Required(n *netlist.Node) float64 {
	if n == nil || n.ID >= len(rep.reqR) {
		return math.Inf(1)
	}
	return math.Min(rep.reqR[n.ID], rep.reqF[n.ID])
}

// Slack returns Required − Arrival (worst edge); negative = violating,
// +Inf = unconstrained.
func (rep *SlackReport) Slack(n *netlist.Node) float64 {
	if n == nil || n.ID >= len(rep.slack) {
		return math.Inf(1)
	}
	return rep.slack[n.ID]
}

// Slacks computes required times by a backward pass over the frozen
// arc delays of this analysis, against constraint tc at every primary
// output. The returned report shares node identity with the circuit.
func (r *Result) Slacks(tc float64) (*SlackReport, error) {
	if r.epoch != r.Circuit.Epoch() {
		return nil, ErrStaleAnalysis
	}
	order := r.order
	idBound := r.Circuit.IDBound()
	rep := &SlackReport{
		Tc:         tc,
		WorstSlack: math.Inf(1),
		res:        r,
		gen:        r.gen,
		reqR:       make([]float64, idBound),
		reqF:       make([]float64, idBound),
		slack:      make([]float64, idBound),
	}
	// Edge-aware backward pass, matching the edge-aware forward pass:
	// a rising output of n constrains against the sink's opposite (for
	// inverting cells) or same (buffers) output edge. Collapsing edges
	// to per-arc maxima would be pessimistic — alternation means a
	// gate's worse edge need not chain with its successor's.
	reqR, reqF := rep.reqR, rep.reqF
	for i := len(order) - 1; i >= 0; i-- {
		n := order[i]
		if n.Type == gate.Output {
			reqR[n.ID], reqF[n.ID] = tc, tc
			continue
		}
		rr, rf := math.Inf(1), math.Inf(1)
		dt := r.timing[n.ID]
		for _, s := range n.Fanout {
			if s.Type == gate.Output {
				if reqR[s.ID] < rr {
					rr = reqR[s.ID]
				}
				if reqF[s.ID] < rf {
					rf = reqF[s.ID]
				}
				continue
			}
			cell := s.Cell()
			cl := s.FanoutCap() + cell.Parasitic(s.CIn)
			if cell.Invert {
				// n rising → s falls; n falling → s rises.
				if v := reqF[s.ID] - r.Model.GateDelayHLVt(cell, s.CIn, cl, dt.TauRise, s.Vt); v < rr {
					rr = v
				}
				if v := reqR[s.ID] - r.Model.GateDelayLHVt(cell, s.CIn, cl, dt.TauFall, s.Vt); v < rf {
					rf = v
				}
			} else {
				if v := reqR[s.ID] - r.Model.GateDelayLHVt(cell, s.CIn, cl, dt.TauRise, s.Vt); v < rr {
					rr = v
				}
				if v := reqF[s.ID] - r.Model.GateDelayHLVt(cell, s.CIn, cl, dt.TauFall, s.Vt); v < rf {
					rf = v
				}
			}
		}
		reqR[n.ID], reqF[n.ID] = rr, rf
	}
	for _, n := range order {
		rr, rf := reqR[n.ID], reqF[n.ID]
		if math.IsInf(rr, 1) && math.IsInf(rf, 1) {
			// Dangling logic: unconstrained.
			rep.slack[n.ID] = math.Inf(1)
			continue
		}
		var aR, aF float64
		if n.Type != gate.Input {
			aR, aF = r.timing[n.ID].TRise, r.timing[n.ID].TFall
		}
		sl := math.Min(rr-aR, rf-aF)
		rep.slack[n.ID] = sl
		if sl < rep.WorstSlack {
			rep.WorstSlack = sl
		}
		// Count violations beyond numerical noise on the tc scale.
		if sl < -roundingMargin*math.Abs(tc) {
			rep.Violations++
		}
	}
	return rep, nil
}

// CriticalBySlack returns up to k logic nodes ordered by increasing
// slack — the resize/buffer candidates an incremental flow would visit
// first.
func (rep *SlackReport) CriticalBySlack(k int) []*netlist.Node {
	type cand struct {
		n  *netlist.Node
		sl float64
	}
	var cands []cand
	for _, n := range rep.res.Circuit.Nodes {
		sl := rep.Slack(n)
		if n.IsLogic() && !math.IsInf(sl, 1) {
			cands = append(cands, cand{n, sl})
		}
	}
	sort.Slice(cands, func(i, j int) bool {
		if cands[i].sl != cands[j].sl {
			return cands[i].sl < cands[j].sl
		}
		return cands[i].n.ID < cands[j].n.ID
	})
	if k > len(cands) {
		k = len(cands)
	}
	out := make([]*netlist.Node, 0, k)
	for _, c := range cands[:k] {
		out = append(out, c.n)
	}
	return out
}
