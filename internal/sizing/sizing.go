// Package sizing implements §3 of the paper: optimization with
// structure conservation.
//
//   - Delay-space exploration (§3.1): the pseudo-upper bound Tmax (all
//     gates at the minimum available drive) and the minimum achievable
//     delay Tmin, obtained as the fixed point of the link equations
//     (eq. 4) derived by canceling ∂T/∂C_IN(i) on the bounded path.
//   - Constraint distribution (§3.2): the constant sensitivity method
//     (eq. 5-6) — impose ∂T/∂C_IN(i) = a on every gate and search the
//     scalar a ≤ 0 for the delay constraint, which by convexity sizes
//     the path at minimum area; and the Sutherland/Mead equal-delay
//     distribution used as the comparison baseline.
package sizing

import (
	"errors"
	"fmt"
	"math"
	"slices"

	"repro/internal/delay"
)

// ErrInfeasible is returned when the delay constraint lies below the
// minimum achievable delay of the path — the paper's trigger for
// structure modification (§4).
var ErrInfeasible = errors.New("sizing: delay constraint below minimum achievable delay")

const (
	// maxSweeps and sweepTol bound the eq. (4) fixed point of Tmin and
	// the eq. (6) solves of AtSensitivity and Distribute: at most 140
	// sweeps, stopping once no size moves by 1e-9 relative.
	maxSweeps = 140
	sweepTol  = 1e-9
	// delayTol is Distribute's relative tolerance on meeting the delay
	// constraint.
	delayTol = 1e-6
)

// Options selects what the solvers record and where they keep their
// scratch. The zero value is ready to use.
type Options struct {
	// NoTrace suppresses the Result.Iterations bookkeeping of Tmin —
	// the per-sweep trajectory only Fig. 1 consumes. Hot callers (the
	// protocol's round loop, the batch engine) set it; the trace is
	// pure observation, so Delay/Area/Sweeps are identical either way
	// (pinned by TestNoTraceIdenticalResult).
	NoTrace bool
	// Workspace, when non-nil, supplies reusable scratch for the
	// solvers: B-coefficient and snapshot buffers plus the Result
	// values themselves. Results returned by Tmin, AtSensitivity,
	// Distribute and SutherlandDistribute then point into the
	// workspace and are only valid until the next sizing call with the
	// same workspace — copy what must outlive the round. A workspace
	// must not be shared across goroutines.
	Workspace *Workspace
}

// Workspace is the reusable scratch of the sizing solvers: with one
// threaded through Options, a steady-state Tmin/Distribute call
// performs no heap allocation. The zero value is ready to use.
type Workspace struct {
	b     []float64      // BCoefficients buffer of Tmin and SutherlandDistribute
	h     []float64      // per-stage B scale factors of an eq. (6) solve
	sizes []float64      // sizing snapshot buffer (Distribute, DistributeFrozen)
	eval  delay.PathEval // incremental worst-edge evaluator (polish, trim)
	tmin  Result         // result slot for Tmin
	dist  Result         // result slot for AtSensitivity/Distribute/Sutherland
}

// PathEval returns the workspace's incremental worst-edge evaluator,
// or a fresh one for a nil workspace. Each user Resets it before use,
// so solvers sharing a workspace may share the evaluator as long as
// their calls do not interleave.
func (ws *Workspace) PathEval() *delay.PathEval {
	if ws == nil {
		return &delay.PathEval{}
	}
	return &ws.eval
}

// bcoefs computes the B coefficients, through the workspace buffer
// when one is configured.
func bcoefs(m *delay.Model, pa *delay.Path, ws *Workspace) []float64 {
	if ws == nil {
		return m.BCoefficients(pa)
	}
	ws.b = m.BCoefficientsInto(ws.b, pa)
	return ws.b
}

// reset clears a workspace result slot for reuse, keeping the
// Iterations capacity for traced runs.
func (r *Result) reset() *Result {
	iters := r.Iterations[:0]
	*r = Result{}
	r.Iterations = iters
	return r
}

// tminResult returns the Result a Tmin run writes into: the
// workspace's dedicated slot, or a fresh allocation.
func (o Options) tminResult() *Result {
	if o.Workspace != nil {
		return o.Workspace.tmin.reset()
	}
	return &Result{}
}

// distResult is tminResult for the constraint-distribution family
// (AtSensitivity, Distribute, SutherlandDistribute). A separate slot
// keeps a Tmin result alive across the distribution probes that
// follow it inside Distribute.
func (o Options) distResult() *Result {
	if o.Workspace != nil {
		return o.Workspace.dist.reset()
	}
	return &Result{}
}

// IterationPoint records one sweep of the Tmin fixed point for Fig. 1:
// the normalized total input capacitance and the worst path delay.
type IterationPoint struct {
	Sweep     int
	SumCInRef float64 // ΣC_IN / CREF
	Delay     float64 // worst-edge path delay (ps)
}

// Result reports a sizing run.
type Result struct {
	Delay      float64 // worst-edge path delay after sizing (ps)
	MeanDelay  float64 // edge-averaged path delay (ps)
	Area       float64 // ΣW (µm)
	Sweeps     int     // fixed-point sweeps performed
	A          float64 // final sensitivity coefficient (constant-sensitivity runs)
	Iterations []IterationPoint
}

// Tmax configures the path at the pseudo-upper bound: every gate at the
// minimum available drive (§3.1), except the bounded first stage, and
// returns the resulting worst-edge delay.
func Tmax(m *delay.Model, pa *delay.Path) float64 {
	for i := 1; i < len(pa.Stages); i++ {
		pa.Stages[i].CIn = m.Proc.CRef
	}
	return m.PathDelayWorst(pa)
}

// Tmin sizes the path for minimum delay by iterating the link equations
// (eq. 4) to their fixed point and returns the achieved bound. Per the
// paper, the iteration is seeded by a backward pass from the known
// terminal load with C_IN(i-1) = CREF; the fixed point is independent
// of the seed (a property test exercises this). The first stage's input
// capacitance is fixed (bounded path) and never modified.
//
// The link-equation fixed point minimizes the edge-averaged delay; a
// worst-edge polish then descends the (also convex) worst-launch-edge
// delay that experiments report.
func Tmin(m *delay.Model, pa *delay.Path, opts Options) (*Result, error) {
	return tmin(m, pa, opts, true)
}

// tmin is Tmin with the worst-edge polish optional: Distribute's
// feasibility probe needs only the eq. (4) fixed point itself.
func tmin(m *delay.Model, pa *delay.Path, o Options, polish bool) (*Result, error) {
	if err := pa.Validate(); err != nil {
		return nil, err
	}
	n := len(pa.Stages)
	res := o.tminResult()

	// Backward seeding pass (§3.1): assume the upstream drive is CREF,
	// walk from the output where the load is known.
	b := bcoefs(m, pa, o.Workspace)
	for i := n - 1; i >= 1; i-- {
		li := pa.ExternalLoadAt(i)
		x := math.Sqrt(b[i] / b[i-1] * m.Proc.CRef * li)
		pa.Stages[i].CIn = m.Proc.ClampCap(x)
	}
	if !o.NoTrace {
		res.Iterations = append(res.Iterations, IterationPoint{
			Sweep: 0, SumCInRef: pa.TotalCIn() / m.Proc.CRef, Delay: m.PathDelayWorst(pa),
		})
	}

	// Gauss-Seidel sweeps of eq. (4) until the sizes stop moving.
	for sweep := 1; sweep <= maxSweeps; sweep++ {
		b = bcoefs(m, pa, o.Workspace)
		maxRel := 0.0
		for i := 1; i < n; i++ {
			li := pa.ExternalLoadAt(i)
			x := math.Sqrt(b[i] / b[i-1] * pa.Stages[i-1].CIn * li)
			x = m.Proc.ClampCap(x)
			if old := pa.Stages[i].CIn; old > 0 {
				if rel := math.Abs(x-old) / old; rel > maxRel {
					maxRel = rel
				}
			}
			pa.Stages[i].CIn = x
		}
		res.Sweeps = sweep
		if !o.NoTrace {
			res.Iterations = append(res.Iterations, IterationPoint{
				Sweep: sweep, SumCInRef: pa.TotalCIn() / m.Proc.CRef, Delay: m.PathDelayWorst(pa),
			})
		}
		if maxRel < sweepTol {
			break
		}
	}

	// Worst-edge polish: the link equations minimize the edge-averaged
	// delay; the reported metric is the worst launch edge, whose delay
	// is also convex in the sizes (a max of convex functions), so a
	// coordinate golden-section descent converges to its optimum.
	if polish {
		polishWorstEdge(m, pa, o.Workspace.PathEval())
		if !o.NoTrace {
			res.Iterations = append(res.Iterations, IterationPoint{
				Sweep:     res.Sweeps + 1,
				SumCInRef: pa.TotalCIn() / m.Proc.CRef,
				Delay:     m.PathDelayWorst(pa),
			})
		}
	}
	res.Delay = m.PathDelayWorst(pa)
	res.MeanDelay = m.PathDelayMean(pa)
	res.Area = pa.Area(m.Proc)
	return res, nil
}

// polishWorstEdge performs cyclic coordinate descent on the worst-edge
// path delay, one golden-section line search per interior stage. Every
// probe goes through the incremental evaluator ev.
func polishWorstEdge(m *delay.Model, pa *delay.Path, ev *delay.PathEval) {
	n := len(pa.Stages)
	cur := m.PathDelayWorst(pa)
	ev.Reset(m, pa)
	for sweep := 0; sweep < 8; sweep++ {
		improved := false
		for i := 1; i < n; i++ {
			// The fixed point is already near-optimal: search a
			// bracket around the current size (re-centered by later
			// sweeps if the optimum sits at an edge).
			x0 := pa.Stages[i].CIn
			lo := math.Max(m.Proc.CRef, x0/4)
			hi := math.Min(m.Proc.CMax, x0*4)
			x1, f1, x2, f2 := GoldenSection(lo, hi, 48, func(x float64) float64 { return ev.Probe(i, x) })
			// An exact tie keeps x1.
			best, bx := f1, x1
			if f2 < f1 {
				best, bx = f2, x2
			}
			if best < cur*(1-1e-12) {
				ev.Commit(i, bx)
				cur = best
				improved = true
			}
		}
		if !improved {
			break
		}
	}
}

// GoldenSection narrows the bracket [lo, hi] around a minimum of the
// unimodal f by golden-section steps, at most steps of them, until the
// bracket is narrower than 1e-9·hi. It returns the bracket's two final
// probes, x1 < x2, and their values; the caller picks between them, so
// the tie rule stays the caller's.
//
//pops:noalloc
func GoldenSection(lo, hi float64, steps int, f func(float64) float64) (x1, f1, x2, f2 float64) {
	const phi = 0.6180339887498949
	x1 = hi - phi*(hi-lo)
	x2 = lo + phi*(hi-lo)
	f1, f2 = f(x1), f(x2)
	for it := 0; it < steps && hi-lo > 1e-9*hi; it++ {
		if f1 < f2 {
			hi, x2, f2 = x2, x1, f1
			x1 = hi - phi*(hi-lo)
			f1 = f(x1)
		} else {
			lo, x1, f1 = x1, x2, f2
			x2 = lo + phi*(hi-lo)
			f2 = f(x2)
		}
	}
	return x1, f1, x2, f2
}

// AreaWeight returns the marginal area cost of a stage's input
// capacitance: a cell with fan-in k realizes a pin capacitance on
// every input, so ∂(ΣW)/∂C_IN = k/Cg. The minimum-area sensitivity
// condition is therefore ∂T/∂C_IN(i) = a·k_i (the KKT stationarity of
// area under the delay constraint); with all weights 1 the method
// degenerates to minimizing total capacitance (≈ dynamic power), the
// form eq. (5) prints.
func AreaWeight(st *delay.Stage) float64 { return float64(st.Cell.FanIn) }

// solveSensitivity sizes the path for a fixed sensitivity coefficient
// a ≤ 0 by iterating eq. (6): forward recursions
//
//	C_IN(i) = sqrt( A_i·L_i / (A_{i-1}/C_IN(i-1) − a·k_i) )
//
// until convergence (L_i depends on the downstream size, so a few outer
// sweeps are needed), and returns the sweeps performed: at most budget,
// stopping once no size moves by tol relative. Sizes are clamped to the
// realizable drive range. With pinInserted the stages marked Inserted
// keep their sizes (they still enter their neighbors' loads and B
// coefficients). ws supplies the scale-factor scratch; nil allocates
// it.
//
// Each sweep returns exactly what a two-pass sweep (BCoefficientsInto
// over the sweep's starting sizes, then the recursion) returns, bit for
// bit, without the separate pass:
//
//   - B_i depends only on C_IN(i) and C_IN(i+1), and the recursion has
//     not yet moved either when it reaches stage i, so B_i is computed
//     right there and carried forward as stage i+1's B_{i-1}.
//   - h_i = S_mean·τ/2, B_i's size-independent factor, is computed once
//     per solve instead of once per sweep.
//   - The convergence test needs only whether every |x−old|/old is
//     below tol (⇔ their maximum is), so once one stage has failed it
//     the rest of the sweep skips the division.
//
// The B expression is written out in the loop rather than behind a
// helper: a helper exceeds the inlining budget, and the call costs a
// measurable share of the sweep.
func solveSensitivity(m *delay.Model, pa *delay.Path, a float64, pinInserted bool, budget int, tol float64, ws *Workspace) int {
	n := len(pa.Stages)
	if n == 0 {
		return 0
	}
	var h []float64
	if ws != nil {
		ws.h = slices.Grow(ws.h[:0], n)[:n]
		h = ws.h
	} else {
		h = make([]float64, n)
	}
	for i := range pa.Stages {
		h[i] = m.BScale(pa.Stages[i].Cell)
	}
	slope, vt := m.SlopeEffect, m.VTMean()
	sweeps := 0
	for sweep := 1; sweep <= budget; sweep++ {
		bPrev := h[0] * m.BMiller(pa.Stages[0].CIn, pa.LoadAt(0))
		if slope && n > 1 {
			bPrev += h[0] * vt
		}
		// The two-pass test is max(0, rel…) < tol; with a NaN tol it
		// never passes.
		converged := tol > 0
		for i := 1; i < n; i++ {
			st := &pa.Stages[i]
			b := h[i] * m.BMiller(st.CIn, pa.LoadAt(i))
			if slope && i+1 < n {
				b += h[i] * vt
			}
			if pinInserted && st.Inserted {
				bPrev = b
				continue
			}
			li := pa.ExternalLoadAt(i)
			den := bPrev/pa.Stages[i-1].CIn - a*AreaWeight(st)
			// a ≤ 0 keeps den > 0; defensive clamp for a > 0 probes.
			if den < 1e-12 {
				den = 1e-12
			}
			x := m.Proc.ClampCap(math.Sqrt(b * li / den))
			if old := st.CIn; converged && old > 0 && math.Abs(x-old)/old >= tol {
				converged = false
			}
			st.CIn = x
			bPrev = b
		}
		sweeps = sweep
		if converged {
			break
		}
	}
	return sweeps
}

// AtSensitivity sizes the path with the constant sensitivity method for
// a given coefficient a ≤ 0 and reports the resulting delay and area —
// one point of the paper's Fig. 3 family.
func AtSensitivity(m *delay.Model, pa *delay.Path, a float64, opts Options) (*Result, error) {
	if err := pa.Validate(); err != nil {
		return nil, err
	}
	if a > 0 {
		return nil, fmt.Errorf("sizing: sensitivity coefficient must be ≤ 0, got %g", a)
	}
	sweeps := solveSensitivity(m, pa, a, false, maxSweeps, sweepTol, opts.Workspace)
	res := opts.distResult()
	res.Delay = m.PathDelayWorst(pa)
	res.MeanDelay = m.PathDelayMean(pa)
	res.Area = pa.Area(m.Proc)
	res.Sweeps = sweeps
	res.A = a
	return res, nil
}

// searchPolicy is one caller's settings of search. The two policies
// below are the only ones; changing a field changes numbers
// (docs/ARCHITECTURE.md "Changing numbers").
type searchPolicy struct {
	cold    float64 // first expansion probe when no warm start is known
	tighten bool    // expansion probes that meet tc become aHi
	steps   int     // bisection step budget
	stopTol float64 // stop once |d−tc| ≤ stopTol·tc; 0 never stops early
	sweeps  int     // eq. (6) sweep budget of each solve
	tol     float64 // eq. (6) relative size tolerance of each solve
	pin     bool    // inserted stages keep their sizes
}

var (
	// distributePolicy is Distribute's: a short bisection that stops
	// as soon as the delay is within delayTol of tc, every stage free.
	distributePolicy = searchPolicy{cold: -0.02, steps: 60, stopTol: delayTol, sweeps: maxSweeps, tol: sweepTol}
	// frozenPolicy is DistributeFrozen's: a warm-started bracket and a
	// fixed 70 steps under a tighter solve, the inserted stages pinned.
	frozenPolicy = searchPolicy{cold: -1e-4, tighten: true, steps: 70, sweeps: 120, tol: 1e-10, pin: true}
)

// probe solves the path at sensitivity a under policy p and returns its
// worst-edge delay.
//
//pops:noalloc
func probe(m *delay.Model, pa *delay.Path, a float64, p *searchPolicy, ws *Workspace) float64 {
	solveSensitivity(m, pa, a, p.pin, p.sweeps, p.tol, ws)
	return m.PathDelayWorst(pa)
}

// expansions bounds search's ×4 bracket expansion. Its last probe, at
// 4^63 times the first, already clamps every free stage to CREF
// (TestSaturatedSolveIsTmax).
const expansions = 64

// search finds the sensitivity a ≤ 0 at which the path's worst-edge
// delay meets tc, under policy p. The delay rises as a falls. The
// caller has checked that a = 0 meets tc and that the all-minimum
// configuration (every free stage at CREF) does not, so a root exists.
//
// The bracket's lower end starts at a quarter of aStart, a known
// sensitivity of a nearby problem (0 for none), or at p.cold if that is
// closer to 0, and expands ×4 until a probe's delay reaches tc; the
// last expansion probe is the all-minimum configuration. With p.tighten
// every probe that still meets tc becomes the upper end, in place of 0.
// search then bisects p.steps times and returns the upper end, or the
// probe whose delay lands within p.stopTol·tc.
//
// Every solve starts from the previous probe's sizes. The path is left
// solved again at the returned a; sweeps is that solve's count.
//
//pops:noalloc
func search(m *delay.Model, pa *delay.Path, tc, aStart float64, p *searchPolicy, ws *Workspace) (a float64, sweeps int) {
	aLo, aHi := min(aStart/4, p.cold), 0.0
	for i := 0; i < expansions && probe(m, pa, aLo, p, ws) < tc; i++ {
		if p.tighten {
			aHi = aLo
		}
		aLo *= 4
	}
	for range p.steps {
		mid := (aLo + aHi) / 2
		d := probe(m, pa, mid, p, ws)
		if d > tc {
			aLo = mid
		} else {
			aHi = mid
		}
		if p.stopTol > 0 && math.Abs(d-tc) <= p.stopTol*tc {
			aHi = mid
			break
		}
	}
	return aHi, solveSensitivity(m, pa, aHi, p.pin, p.sweeps, p.tol, ws)
}

// Distribute implements the paper's constraint-distribution step: size
// the path so its worst-edge delay meets the constraint tc (ps) at
// minimum area, by searching the sensitivity coefficient a. It returns
// ErrInfeasible when tc < Tmin (structure modification required).
func Distribute(m *delay.Model, pa *delay.Path, tc float64, opts Options) (*Result, error) {
	if err := pa.Validate(); err != nil {
		return nil, err
	}

	// Feasibility: a = 0 is the minimum-delay point of the family. The
	// worst-edge polish is skipped here — the distribution step only
	// needs the family's own minimum, and the polish would dominate
	// the method's CPU time on long paths (Table 1 measures this step).
	rmin, err := tmin(m, pa, opts, false)
	if err != nil {
		return nil, err
	}
	if tc < rmin.Delay*(1-delayTol) {
		// The constraint sits below the family's minimum. The
		// worst-edge polish can still shave a little: accept tc in
		// the window [polished Tmin, family Tmin), so Distribute
		// agrees with the bound Tmin reports.
		rp, err := Tmin(m, pa, opts)
		if err != nil {
			return nil, err
		}
		if tc >= rp.Delay*(1-delayTol) {
			rp.A = 0
			return rp, nil
		}
		return rp, fmt.Errorf("%w: Tc=%.1f ps < Tmin=%.1f ps", ErrInfeasible, tc, rp.Delay)
	}
	if tc <= rmin.Delay*(1+delayTol) {
		rmin.A = 0
		return rmin, nil
	}

	// If even the all-minimum configuration meets tc, take it: maximum
	// area saving (the sensitivity family degenerates to the clamp).
	// Past this check the search cannot saturate: as a → −∞ every
	// stage clamps to CREF, which is the Tmax configuration.
	var snapshot []float64
	if ws := opts.Workspace; ws != nil {
		ws.sizes = pa.AppendSizes(ws.sizes[:0])
		snapshot = ws.sizes
	} else {
		snapshot = pa.Sizes()
	}
	tmax := Tmax(m, pa)
	if tmax <= tc {
		res := opts.distResult()
		res.Delay = tmax
		res.MeanDelay = m.PathDelayMean(pa)
		res.Area = pa.Area(m.Proc)
		res.A = math.Inf(-1)
		return res, nil
	}
	if err := pa.SetSizes(snapshot); err != nil {
		return nil, err
	}

	a, sweeps := search(m, pa, tc, 0, &distributePolicy, opts.Workspace)
	// Area trim: the family is stationary for the frozen-coefficient
	// mean model; a constrained coordinate descent on the exact
	// worst-edge delay recovers the last few percent of area. The
	// feasible set in each coordinate is an interval (convexity), so
	// per-stage bisection toward the lower boundary is sound.
	trimArea(m, pa, tc, opts.Workspace.PathEval())
	res := opts.distResult()
	res.Delay = m.PathDelayWorst(pa)
	res.MeanDelay = m.PathDelayMean(pa)
	res.Area = pa.Area(m.Proc)
	res.Sweeps = sweeps
	res.A = a
	return res, nil
}

// DistributeFrozen distributes the delay constraint tc over the path's
// original stages while the stages marked Inserted keep their sizes:
// the frozen-buffer solve of Local-mode buffer insertion. aStart is a
// known sensitivity of a nearby problem, or 0 for none. ws may be nil.
//
// If the all-minimum configuration, every free stage at CREF, is
// strictly below tc, DistributeFrozen returns it and true: maximum
// area saving. Its Result carries Sweeps 1 and the A that search's
// expansions would have reached on that plateau, min(aStart/4, cold)
// scaled by 4^64, because later rounds warm-start from it. Otherwise
// it solves at a = 0, the family's minimum delay; if that misses tc it
// returns that solve and false, and if not it searches a from aStart
// and returns the path solved at the accepted a and true.
func DistributeFrozen(m *delay.Model, pa *delay.Path, tc, aStart float64, ws *Workspace) (r Result, ok bool) {
	if ws == nil {
		ws = new(Workspace)
	}
	switch {
	case belowAtMinimum(m, pa, tc, ws):
		r.A, r.Sweeps, ok = math.Ldexp(min(aStart/4, frozenPolicy.cold), 2*expansions), 1, true
	case probe(m, pa, 0, &frozenPolicy, ws) <= tc:
		r.A, r.Sweeps = search(m, pa, tc, aStart, &frozenPolicy, ws)
		ok = true
	}
	r.Delay, r.MeanDelay, r.Area = m.PathDelayWorst(pa), m.PathDelayMean(pa), pa.Area(m.Proc)
	return r, ok
}

// belowAtMinimum sets every free stage of the path (i ≥ 1, not
// Inserted) to CREF and reports whether its worst-edge delay is then
// strictly below tc. If it is not, the path gets back its sizes from a
// snapshot in ws.sizes, bit for bit.
//
//pops:noalloc
func belowAtMinimum(m *delay.Model, pa *delay.Path, tc float64, ws *Workspace) bool {
	ws.sizes = pa.AppendSizes(ws.sizes[:0])
	for i := 1; i < len(pa.Stages); i++ {
		if !pa.Stages[i].Inserted {
			pa.Stages[i].CIn = m.Proc.CRef
		}
	}
	if m.PathDelayWorst(pa) < tc {
		return true
	}
	for i, x := range ws.sizes {
		pa.Stages[i].CIn = x
	}
	return false
}

// trimArea shrinks each stage toward the smallest size that keeps the
// worst-edge path delay within tc, sweeping until no stage moves. Every
// probe goes through the incremental evaluator ev.
func trimArea(m *delay.Model, pa *delay.Path, tc float64, ev *delay.PathEval) {
	n := len(pa.Stages)
	ev.Reset(m, pa)
	for sweep := 0; sweep < 3; sweep++ {
		moved := false
		for i := 1; i < n; i++ {
			cur := pa.Stages[i].CIn
			lo, hi := m.Proc.CRef, cur
			if lo >= hi {
				continue
			}
			if ev.Probe(i, lo) <= tc {
				ev.Commit(i, lo)
				if cur != lo {
					moved = true
				}
				continue // the minimum drive is feasible: keep it
			}
			// Bisect the feasibility boundary in [lo, hi]; 0.1%
			// precision is plenty for an area cleanup.
			for it := 0; it < 14 && hi-lo > 1e-3*hi; it++ {
				mid := (lo + hi) / 2
				if ev.Probe(i, mid) <= tc {
					hi = mid
				} else {
					lo = mid
				}
			}
			ev.Commit(i, hi)
			if hi < cur*(1-1e-3) {
				moved = true
			}
		}
		if !moved {
			break
		}
	}
}

// SutherlandDistribute is the baseline constraint distribution of §3.2
// (after Sutherland's logical effort / Mead's equal-tapering rule): the
// same delay budget tc/n is imposed on every stage, solved backward
// from the known terminal load. It is fast but oversizes gates with
// large logical weight — the effect Fig. 4 quantifies.
func SutherlandDistribute(m *delay.Model, pa *delay.Path, tc float64, opts Options) (*Result, error) {
	if err := pa.Validate(); err != nil {
		return nil, err
	}
	n := len(pa.Stages)
	budget := tc / float64(n)

	// Backward per-stage solve of budget = B_i·C_L(i)/x_i with
	// C_L(i) = L_i + pf_i·x_i:  x_i = B_i·L_i / (budget − B_i·pf_i).
	// A couple of outer sweeps refresh the frozen Miller factors.
	for sweep := 0; sweep < 8; sweep++ {
		b := bcoefs(m, pa, opts.Workspace)
		for i := n - 1; i >= 1; i-- {
			li := pa.ExternalLoadAt(i)
			den := budget - b[i]*pa.Stages[i].Cell.ParasiticFactor
			var x float64
			if den <= 0 {
				x = m.Proc.CMax // stage cannot meet its budget: saturate
			} else {
				x = b[i] * li / den
			}
			pa.Stages[i].CIn = m.Proc.ClampCap(x)
		}
	}
	res := opts.distResult()
	res.Delay = m.PathDelayWorst(pa)
	res.MeanDelay = m.PathDelayMean(pa)
	res.Area = pa.Area(m.Proc)
	return res, nil
}
