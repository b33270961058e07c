// Package leakage implements the selective multi-threshold (multi-Vt)
// extension of the optimization protocol: after the sizing/buffering
// protocol has met the delay constraint Tc, gates on non-critical paths
// are promoted to higher-threshold devices to cut subthreshold leakage
// at zero area and zero dynamic-power cost (a Vt swap is a channel
// implant change at constant footprint). The methodology follows
// Kitahara et al.'s area-efficient selective multi-threshold CMOS
// design: promote by slack, verify each move with (incremental) static
// timing, never violate Tc.
//
// The pass is strictly sequential and fully deterministic: candidates
// are ordered by decreasing slack with node-ID tie-breaking, and each
// climbs the LVT → SVT → HVT ladder until its first step that would
// break the budget. It only ever moves gates up the ladder, so total
// power (dynamic + leakage) is monotonically non-increasing while the
// delay budget holds.
//
// Moves are checked with sta.Result.Try, an incremental STA trial that
// keeps a move meeting the budget and otherwise restores the previous
// timing bit-exactly from its undo log. Arrival times only grow up the
// ladder, so the pass tests blocks of candidates raised to the top
// class together — a block passes exactly when each of its candidates
// would have passed alone — and bisects a failing block for its first
// rejected candidate. The decisions are those of checking one step at
// a time, with far fewer propagations.
//
// For the same reason the required times of the slack report computed
// at the start of the pass stay upper bounds on the current ones for
// the whole pass. Every trial is bounded by that one report: it stops
// at the first gate that arrives after its initial required time
// instead of propagating to a primary output, with the same verdict.
package leakage

import (
	"context"
	"fmt"
	"math"
	"sort"

	"repro/internal/delay"
	"repro/internal/netlist"
	"repro/internal/power"
	"repro/internal/sta"
	"repro/internal/tech"
)

// Options parameterizes a Vt-assignment run.
type Options struct {
	// Power tunes the vector simulation behind the dynamic and static
	// power estimates (vectors, seed, frequency).
	Power power.Options
	// STA is ignored: sta.Config carries nothing.
	//
	// Deprecated: ignored; kept only so the benchmark module builds.
	STA sta.Config
}

// Result reports a Vt-assignment run.
type Result struct {
	// Tc is the delay constraint the pass guarded (ps).
	Tc float64 `json:"tc"`
	// Budget is the effective delay ceiling: Tc, or the entry worst
	// delay when the circuit arrived infeasible (the pass then only
	// accepts moves that keep the worst delay unchanged).
	Budget float64 `json:"budget"`
	// Delay is the final Vt-aware worst delay (ps), ≤ Budget.
	Delay float64 `json:"delay"`
	// Considered counts candidate gates visited; Promoted counts
	// accepted promotion steps.
	Considered int `json:"considered"`
	Promoted   int `json:"promoted"`
	// ByClass counts gates per Vt class after assignment.
	ByClass map[tech.VtClass]int `json:"byClass"`
	// DynamicUW is the dynamic power (µW), unchanged by the pass.
	DynamicUW float64 `json:"dynamicUW"`
	// StaticBeforeUW and StaticAfterUW are the subthreshold leakage
	// power before and after assignment (µW).
	StaticBeforeUW float64 `json:"staticBeforeUW"`
	StaticAfterUW  float64 `json:"staticAfterUW"`
	// TotalBeforeUW and TotalAfterUW are dynamic + leakage (µW).
	TotalBeforeUW float64 `json:"totalBeforeUW"`
	TotalAfterUW  float64 `json:"totalAfterUW"`
	// SavingPct is the total-power reduction in percent.
	SavingPct float64 `json:"savingPct"`
}

// Assign runs the selective Vt-assignment pass on a (typically already
// sized) circuit against delay constraint tc (ps). The circuit is
// modified in place: accepted promotions write the node's Vt class.
// Cancellation is honored before each timing trial: on ctx expiry the
// circuit is left in its latest verified state and the error returned.
//
// The pass never worsens timing: when the circuit enters meeting Tc it
// still meets Tc on exit; when it enters infeasible (the sizing
// protocol ran out of moves) only promotions that leave the worst
// delay untouched are accepted.
func Assign(ctx context.Context, c *netlist.Circuit, m *delay.Model, tc float64, opts Options) (*Result, error) {
	return AssignSession(ctx, sta.NewSession(c, m, sta.Config{}), tc, opts)
}

// AssignSession is Assign over a caller-supplied incremental timing
// session. The combined size-then-assign flow of
// core.Protocol.Optimize threads the sizing rounds' session through
// here, so the pass starts from the already-propagated timing instead
// of re-analyzing the circuit, and every promotion check runs on the
// session's reused buffers.
func AssignSession(ctx context.Context, sess *sta.Session, tc float64, opts Options) (*Result, error) {
	out, _, err := assign(ctx, sess, tc, opts)
	return out, err
}

// assign is AssignSession that also returns the number of nodes the
// pass's timing trials recomputed.
func assign(ctx context.Context, sess *sta.Session, tc float64, opts Options) (*Result, int, error) {
	c, m := sess.Circuit(), sess.Model()
	if !(tc > 0) || math.IsInf(tc, 1) {
		return nil, 0, fmt.Errorf("leakage: constraint %g must be finite and positive", tc)
	}
	if err := m.Proc.Validate(); err != nil {
		return nil, 0, err
	}

	res, err := sess.Analyze()
	if err != nil {
		return nil, 0, err
	}
	budget := tc
	if res.WorstDelay > tc {
		budget = res.WorstDelay
	}

	// Power baseline: one vector simulation serves the dynamic
	// estimate and both (before/after) static estimates — Vt swaps
	// change no logic value, so the profile stays valid throughout.
	prof, err := power.SimulateProfile(c, opts.Power)
	if err != nil {
		return nil, 0, err
	}
	dyn, err := power.EstimateCircuitActivities(c, m.Proc, opts.Power, prof.Activities)
	if err != nil {
		return nil, 0, err
	}
	probs := prof.StateProbs
	before, err := power.EstimateStaticProbs(c, m.Proc, probs)
	if err != nil {
		return nil, 0, err
	}

	out := &Result{
		Tc:             tc,
		Budget:         budget,
		ByClass:        make(map[tech.VtClass]int),
		DynamicUW:      dyn.TotalUW,
		StaticBeforeUW: before.TotalUW,
		TotalBeforeUW:  dyn.TotalUW + before.TotalUW,
	}

	// Candidate order: decreasing slack against the budget (most
	// relaxed gates first — they absorb the HVT penalty most easily),
	// node ID breaking ties for determinism.
	slacks, err := res.Slacks(budget)
	if err != nil {
		return nil, 0, err
	}
	type cand struct {
		n     *netlist.Node
		slack float64
	}
	var cands []cand
	for _, n := range c.Nodes {
		if !n.IsLogic() {
			continue
		}
		if n.Vt.Rank() >= tech.HVT.Rank() {
			continue
		}
		if sl := slacks.Slack(n); sl > 0 {
			cands = append(cands, cand{n, sl})
		}
	}
	sort.Slice(cands, func(i, j int) bool {
		if cands[i].slack != cands[j].slack {
			return cands[i].slack > cands[j].slack
		}
		return cands[i].n.ID < cands[j].n.ID
	})

	p := &promoter{
		res:    res,
		slacks: slacks,
		nodes:  make([]*netlist.Node, len(cands)),
		start:  make([]tech.VtClass, len(cands)),
	}
	for i, cd := range cands {
		p.nodes[i], p.start[i] = cd.n, cd.n.Vt
	}
	if err := p.run(ctx); err != nil {
		return nil, 0, err
	}
	out.Considered = len(cands)
	out.Promoted = p.promoted

	after, err := power.EstimateStaticProbs(c, m.Proc, probs)
	if err != nil {
		return nil, 0, err
	}
	out.Delay = res.WorstDelay
	out.StaticAfterUW = after.TotalUW
	out.TotalAfterUW = dyn.TotalUW + after.TotalUW
	if out.TotalBeforeUW > 0 {
		out.SavingPct = (out.TotalBeforeUW - out.TotalAfterUW) / out.TotalBeforeUW * 100
	}
	for _, n := range c.Nodes {
		if n.IsLogic() {
			out.ByClass[n.Vt]++
		}
	}
	return out, p.recomputed, nil
}

// promoter runs the greedy over the candidates in pass order. It
// reaches exactly the decisions of promoting one candidate at a time —
// each climbing the ladder one class per timing check and stopping at
// its first rejected step — with far fewer checks: arrival times only
// grow as gates move up the ladder, so a block of candidates raised to
// HVT together passes exactly when the greedy would accept each of
// them all the way up.
//
// Every trial is bounded by slacks, the report computed against the
// budget before the first move: the pass only moves gates up the
// ladder, which keeps it valid (sta.Result.Try).
type promoter struct {
	res        *sta.Result
	slacks     *sta.SlackReport
	nodes      []*netlist.Node // candidates in pass order
	start      []tech.VtClass  // their classes on entry
	promoted   int
	recomputed int // nodes the trials recomputed
}

// run handles every candidate.
//
// Blocks hold k = max(1, gap/4) candidates, where gap counts the
// candidates handled since the last rejection, so blocks grow through
// runs of accepted moves and shrink to one at each rejection. A failing
// block is bisected for its first rejected candidate; the halves before
// it pass and are kept, and that candidate climbs alone.
func (p *promoter) run(ctx context.Context) error {
	i, gap := 0, 0
	for i < len(p.nodes) {
		j := min(len(p.nodes), i+max(1, gap/4))
		kept, err := p.tryBlock(ctx, i, j)
		if err != nil {
			return err
		}
		if kept {
			i, gap = j, gap+j-i
			continue
		}
		// [lo, hi) fails on the current state; keep a passing front
		// half (the back half then fails) or narrow to a failing one.
		lo, hi := i, j
		for hi-lo > 1 {
			mid := lo + (hi-lo)/2
			kept, err := p.tryBlock(ctx, lo, mid)
			if err != nil {
				return err
			}
			if kept {
				lo = mid
			} else {
				hi = mid
			}
		}
		// Candidate lo failed at HVT: it climbs alone.
		if err := p.climb(ctx, lo); err != nil {
			return err
		}
		i, gap = lo+1, 0
	}
	return nil
}

// tryBlock raises candidates [lo, hi) to HVT and checks the budget
// with one timing trial, keeping the block when it passes and
// restoring the entry classes when it does not. ctx is checked first,
// so a cancelled pass leaves the last verified state.
func (p *promoter) tryBlock(ctx context.Context, lo, hi int) (bool, error) {
	if err := ctx.Err(); err != nil {
		return false, err
	}
	steps := 0
	for i := lo; i < hi; i++ {
		p.nodes[i].Vt = tech.HVT
		steps += tech.HVT.Rank() - p.start[i].Rank()
	}
	kept, err := p.try(p.nodes[lo:hi]...)
	if !kept {
		for i := lo; i < hi; i++ {
			p.nodes[i].Vt = p.start[i]
		}
		return false, err
	}
	p.promoted += steps
	return true, nil
}

// climb moves candidate i, which is known to fail at HVT, up the
// ladder one class per timing trial below HVT, stopping at its first
// rejected step.
func (p *promoter) climb(ctx context.Context, i int) error {
	n := p.nodes[i]
	for {
		next, ok := n.Vt.Promote()
		if !ok || next == tech.HVT {
			return nil
		}
		if err := ctx.Err(); err != nil {
			return err
		}
		prev := n.Vt
		n.Vt = next
		kept, err := p.try(n)
		if !kept {
			n.Vt = prev
			return err
		}
		p.promoted++
	}
}

// try runs one timing trial of the moves already written to changed.
func (p *promoter) try(changed ...*netlist.Node) (bool, error) {
	kept, n, err := p.res.Try(p.slacks, changed...)
	p.recomputed += n
	return kept, err
}
