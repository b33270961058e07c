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
// are ordered by decreasing slack with node-ID tie-breaking, every
// promotion is accepted or rolled back based on an exact incremental
// STA check, and rejected moves restore the previous timing
// bit-exactly. Run on an all-SVT circuit it only ever moves gates up
// the LVT → SVT → HVT ladder, so total power (dynamic + leakage) is
// monotonically non-increasing while the delay budget holds.
package leakage

import (
	"context"
	"fmt"
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
	// STA configures the timing analyses guarding each promotion; use
	// the same config as the sizing protocol for consistent slopes.
	STA sta.Config
	// CapAtSVT stops promotion at the standard device (only LVT → SVT
	// moves are allowed). By default promotion may reach HVT.
	CapAtSVT bool
	// MaxPromotions bounds the number of accepted promotions
	// (0 = unbounded) — an experiment knob, not a tuning default.
	MaxPromotions int
}

func (o Options) maxClass() tech.VtClass {
	if o.CapAtSVT {
		return tech.SVT
	}
	return tech.HVT
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
// Cancellation is honored between candidates: on ctx expiry the
// circuit is left in its latest verified state and the error returned.
//
// The pass never worsens timing: when the circuit enters meeting Tc it
// still meets Tc on exit; when it enters infeasible (the sizing
// protocol ran out of moves) only promotions that leave the worst
// delay untouched are accepted.
func Assign(ctx context.Context, c *netlist.Circuit, m *delay.Model, tc float64, opts Options) (*Result, error) {
	return AssignSession(ctx, sta.NewSession(c, m, opts.STA), tc, opts)
}

// AssignSession is Assign over a caller-supplied incremental timing
// session (the session's STA configuration governs the slopes; opts.STA
// is ignored). The combined size-then-assign flow of
// core.Protocol.Optimize threads the sizing rounds' session through
// here, so the pass starts from the already-propagated timing instead
// of re-analyzing the circuit, and every promotion check runs on the
// session's reused buffers.
func AssignSession(ctx context.Context, sess *sta.Session, tc float64, opts Options) (*Result, error) {
	c, m := sess.Circuit(), sess.Model()
	if tc <= 0 {
		return nil, fmt.Errorf("leakage: non-positive constraint %g", tc)
	}
	if err := m.Proc.Validate(); err != nil {
		return nil, err
	}
	maxClass := opts.maxClass()

	res, err := sess.Analyze()
	if err != nil {
		return nil, err
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
		return nil, err
	}
	dyn, err := power.EstimateCircuitActivities(c, m.Proc, opts.Power, prof.Activities)
	if err != nil {
		return nil, err
	}
	probs := prof.StateProbs
	before, err := power.EstimateStaticProbs(c, m.Proc, probs)
	if err != nil {
		return nil, err
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
		return nil, err
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
		if n.Vt.Rank() >= maxClass.Rank() {
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

	for _, cd := range cands {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		out.Considered++
		n := cd.n
		for n.Vt.Rank() < maxClass.Rank() {
			if opts.MaxPromotions > 0 && out.Promoted >= opts.MaxPromotions {
				break
			}
			next, ok := n.Vt.Promote()
			if !ok || next.Rank() > maxClass.Rank() {
				break
			}
			prev := n.Vt
			n.Vt = next
			if _, err := res.Update(n); err != nil {
				return nil, err
			}
			if res.WorstDelay <= budget {
				out.Promoted++
				continue
			}
			// Roll back: re-propagating from the restored class lands
			// on the previous timing bit-exactly (same inputs, same
			// arithmetic).
			n.Vt = prev
			if _, err := res.Update(n); err != nil {
				return nil, err
			}
			break
		}
		if opts.MaxPromotions > 0 && out.Promoted >= opts.MaxPromotions {
			break
		}
	}

	after, err := power.EstimateStaticProbs(c, m.Proc, probs)
	if err != nil {
		return nil, err
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
	return out, nil
}
