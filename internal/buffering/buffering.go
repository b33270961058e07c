// Package buffering implements §4.1 of the paper: the fan-out limit
// metric Flimit for buffer insertion and the local/global insertion
// procedures built on it.
//
// Flimit is defined on the two-structure comparison of Fig. 5: a gate
// (i), driven by a gate (i-1) that fixes its input slope, drives a load
// C_L either directly (structure A) or through a locally sized buffer
// (structure B). Flimit is the fan-out F = C_L/C_IN(i) at which B
// becomes faster than A. Low-Flimit gates (NOR3 in Table 2) are
// inefficient drivers: they must be helped at much smaller loads, which
// makes Flimit a direct measure of gate efficiency and the critical-
// node detector of the optimization protocol.
package buffering

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"repro/internal/delay"
	"repro/internal/gate"
	"repro/internal/sizing"
)

// DelayFn measures the worst-case delay of a bounded path. The default
// is the closed-form model (Model.PathDelayWorst); the transistor-level
// simulator provides the "simulated" column of Table 2 through the same
// signature.
type DelayFn func(pa *delay.Path) float64

// Options tunes the characterization.
type Options struct {
	// GateCIn is the fixed input capacitance of gate (i) during
	// characterization, in fF. Zero selects 8×CREF.
	GateCIn float64
	// DriverCIn is the fixed input capacitance of the driving gate
	// (i-1), in fF. Zero selects 4×CREF.
	DriverCIn float64
	// FMin/FMax bracket the fan-out search (defaults 1.05 and 400).
	FMin, FMax float64
	// Iter bounds the bisection steps (default 70).
	Iter int
}

func (o Options) withDefaults(m *delay.Model) Options {
	if o.GateCIn <= 0 {
		o.GateCIn = 8 * m.Proc.CRef
	}
	if o.DriverCIn <= 0 {
		o.DriverCIn = 4 * m.Proc.CRef
	}
	if o.FMin <= 0 {
		o.FMin = 1.05
	}
	if o.FMax <= o.FMin {
		o.FMax = 400
	}
	if o.Iter <= 0 {
		o.Iter = 70
	}
	return o
}

// driverSlope returns the input transition gate (i) sees when driven by
// the (i-1) cell at its characterization sizes.
func driverSlope(m *delay.Model, driver gate.Cell, driverCIn, gateCIn float64) float64 {
	cl := gateCIn + driver.Parasitic(driverCIn)
	return m.TransitionMean(driver, driverCIn, cl)
}

// structures builds the A (direct) and B (buffered) paths of Fig. 5 for
// fan-out f. The buffer starts at CREF; callers size it.
func structures(m *delay.Model, driver, g gate.Cell, o Options, f float64) (a, b *delay.Path) {
	tauIn := driverSlope(m, driver, o.DriverCIn, o.GateCIn)
	cl := f * o.GateCIn
	a = &delay.Path{
		Name:   "flimit/A",
		TauIn:  tauIn,
		Stages: []delay.Stage{{Cell: g, CIn: o.GateCIn, COff: cl}},
	}
	b = &delay.Path{
		Name:  "flimit/B",
		TauIn: tauIn,
		Stages: []delay.Stage{
			{Cell: g, CIn: o.GateCIn, COff: 0},
			{Cell: gate.MustLookup(gate.Inv), CIn: m.Proc.CRef, COff: cl},
		},
	}
	return a, b
}

// sizeBuffer minimizes eval(b) over the buffer input capacitance by
// golden-section search on [CREF, CL], returning the best delay.
func sizeBuffer(m *delay.Model, b *delay.Path, eval DelayFn) float64 {
	lo := m.Proc.CRef
	hi := math.Max(b.Stages[1].COff, 2*lo)
	if hi > m.Proc.CMax {
		hi = m.Proc.CMax
	}
	const phi = 0.6180339887498949
	x1 := hi - phi*(hi-lo)
	x2 := lo + phi*(hi-lo)
	at := func(x float64) float64 {
		b.Stages[1].CIn = x
		return eval(b)
	}
	f1, f2 := at(x1), at(x2)
	for i := 0; i < 90 && hi-lo > 1e-9*hi; i++ {
		if f1 < f2 {
			hi, x2, f2 = x2, x1, f1
			x1 = hi - phi*(hi-lo)
			f1 = at(x1)
		} else {
			lo, x1, f1 = x1, x2, f2
			x2 = lo + phi*(hi-lo)
			f2 = at(x2)
		}
	}
	if f1 < f2 {
		b.Stages[1].CIn = x1
		return f1
	}
	b.Stages[1].CIn = x2
	return f2
}

// Flimit computes the buffer-insertion fan-out limit for gate type gt
// driven by cell type driver, using the supplied delay evaluator.
// It returns the limit F and an error when no crossover exists in the
// search bracket (the buffer never helps, or always helps).
func Flimit(m *delay.Model, driver, gt gate.Type, eval DelayFn, opts Options) (float64, error) {
	o := opts.withDefaults(m)
	dCell, err := gate.Lookup(driver)
	if err != nil {
		return 0, err
	}
	gCell, err := gate.Lookup(gt)
	if err != nil {
		return 0, err
	}
	if eval == nil {
		// The characterization uses the edge-averaged delay: Flimit is
		// an efficiency metric of the cell as a whole, and the
		// worst-launch-edge max would fold the polarity alternation of
		// the two structures into the comparison.
		eval = m.PathDelayMean
	}

	// gain(f) = delayA − delayB_opt: positive once buffering wins.
	gain := func(f float64) float64 {
		a, b := structures(m, dCell, gCell, o, f)
		da := eval(a)
		db := sizeBuffer(m, b, eval)
		return da - db
	}
	lo, hi := o.FMin, o.FMax
	gLo, gHi := gain(lo), gain(hi)
	if gLo > 0 {
		return 0, fmt.Errorf("buffering: %v driven by %v: buffer already wins at F=%.2f", gt, driver, lo)
	}
	if gHi < 0 {
		return 0, fmt.Errorf("buffering: %v driven by %v: no crossover below F=%.0f", gt, driver, hi)
	}
	for i := 0; i < o.Iter && hi-lo > 1e-7*hi; i++ {
		mid := math.Sqrt(lo * hi) // geometric bisection: F spans decades
		if gain(mid) < 0 {
			lo = mid
		} else {
			hi = mid
		}
	}
	return math.Sqrt(lo * hi), nil
}

// TableEntry is one row of a library characterization.
type TableEntry struct {
	Driver, Gate gate.Type
	Flimit       float64
}

// CharacterizeLibrary computes Flimit for every primitive gate type
// driven by an inverter — the "library characterization" step of the
// protocol (Fig. 7) and the content of Table 2. Entries are sorted by
// decreasing limit (most efficient gate first). Gates with no crossover
// in the bracket are skipped.
func CharacterizeLibrary(m *delay.Model, eval DelayFn, opts Options) []TableEntry {
	var out []TableEntry
	for _, gt := range gate.Primitives() {
		if gt == gate.Buf {
			continue // never buffer a buffer
		}
		f, err := Flimit(m, gate.Inv, gt, eval, opts)
		if err != nil {
			continue
		}
		out = append(out, TableEntry{Driver: gate.Inv, Gate: gt, Flimit: f})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Flimit > out[j].Flimit })
	return out
}

// Limits converts a characterization into a lookup keyed by gate type.
func Limits(entries []TableEntry) map[gate.Type]float64 {
	lim := make(map[gate.Type]float64, len(entries))
	for _, e := range entries {
		lim[e.Gate] = e.Flimit
	}
	return lim
}

// CriticalStages returns the indices of path stages whose effective
// fan-out F_i = L_i/C_IN(i) exceeds their type's insertion limit,
// ordered by decreasing excess — the protocol's critical nodes.
func CriticalStages(m *delay.Model, pa *delay.Path, limits map[gate.Type]float64) []int {
	type cand struct {
		idx    int
		excess float64
	}
	var cands []cand
	for i := range pa.Stages {
		st := &pa.Stages[i]
		if st.Inserted {
			continue // never re-buffer an inserted buffer
		}
		lim, ok := limits[st.Cell.Type]
		if !ok || st.CIn <= 0 {
			continue
		}
		f := pa.ExternalLoadAt(i) / st.CIn
		if f > lim {
			cands = append(cands, cand{idx: i, excess: f / lim})
		}
	}
	sort.Slice(cands, func(i, j int) bool { return cands[i].excess > cands[j].excess })
	out := make([]int, len(cands))
	for i, c := range cands {
		out[i] = c.idx
	}
	return out
}

// InsertStage returns a copy of the path with an inverter stage
// inserted after stage idx, taking over the stage's off-path load (the
// buffer drives everything the stage previously drove beyond the path
// successor). The buffer starts at CREF.
func InsertStage(m *delay.Model, pa *delay.Path, idx int) (*delay.Path, error) {
	if idx < 0 || idx >= len(pa.Stages) {
		return nil, fmt.Errorf("buffering: insert index %d out of range", idx)
	}
	q := pa.Clone()
	buf := delay.Stage{Cell: gate.MustLookup(gate.Inv), CIn: m.Proc.CRef, COff: q.Stages[idx].COff, Inserted: true}
	q.Stages[idx].COff = 0
	q.Stages = append(q.Stages[:idx+1], append([]delay.Stage{buf}, q.Stages[idx+1:]...)...)
	q.Name = pa.Name + "+buf"
	return q, nil
}

// Result reports a buffered optimization.
type Result struct {
	Path     *delay.Path
	Delay    float64
	Area     float64
	Inserted int // number of buffers inserted
}

// Solved is a path sub-problem the caller has already solved: its
// sized copy of the path and the sizing result of that solve. The
// buffered optimizers start from it instead of solving it again; they
// read it and never modify it, but the Result they return may share
// Path.
type Solved struct {
	Path   *delay.Path
	Result *sizing.Result
}

// MinDelayWithBuffers implements the §4.1 flow for minimum delay.
// Critical nodes are identified on the *incoming* implementation pa
// (the existing sizes), exactly as the protocol of Fig. 7 prescribes —
// Flimit is a property of the path structure and its environment, not
// of the sized optimum. Buffers are then inserted worst-excess first,
// each insertion accepted only if it lowers the globally re-sized
// minimum delay. tmin is the caller's sizing.Tmin of a copy of pa under
// opts, the unbuffered configuration every insertion is measured
// against. The best configuration found is returned (possibly tmin
// itself).
func MinDelayWithBuffers(m *delay.Model, pa *delay.Path, tmin Solved, limits map[gate.Type]float64, opts sizing.Options) (*Result, error) {
	// Private solver scratch for the trial Tmin runs. The caller's
	// workspace (if any) is deliberately not reused: the caller may hold
	// live results in it across this call.
	opts.Workspace = &sizing.Workspace{}
	// bestStructure keeps the incoming sizes (+ CREF buffers) for
	// detection; best keeps the sized champion. Neither is modified:
	// every trial works on a fresh InsertStage copy.
	best := &Result{Path: tmin.Path, Delay: tmin.Result.Delay, Area: tmin.Result.Area}
	bestStructure := pa

	tried := make(map[int]bool) // original-stage ordinal → attempted
	const maxInsert = 24
	for n := 0; n < maxInsert; n++ {
		cands := CriticalStages(m, bestStructure, limits)
		idx := -1
		for _, ci := range cands {
			if !tried[ordinalOf(bestStructure, ci)] {
				idx = ci
				break
			}
		}
		if idx < 0 {
			break
		}
		tried[ordinalOf(bestStructure, idx)] = true

		trialStructure, err := InsertStage(m, bestStructure, idx)
		if err != nil {
			return nil, err
		}
		trialSized := trialStructure.Clone()
		tr, err := sizing.Tmin(m, trialSized, opts)
		if err != nil {
			return nil, err
		}
		if tr.Delay < best.Delay*(1-1e-9) {
			best = &Result{Path: trialSized, Delay: tr.Delay, Area: tr.Area, Inserted: best.Inserted + 1}
			bestStructure = trialStructure
		}
	}
	return best, nil
}

// ordinalOf returns the index of stage i among the path's original
// (non-inserted) stages, a stable identity across insertions.
func ordinalOf(pa *delay.Path, i int) int {
	ord := 0
	for j := 0; j < i; j++ {
		if !pa.Stages[j].Inserted {
			ord++
		}
	}
	return ord
}

// Mode selects how inserted buffers are sized when distributing a
// delay constraint.
type Mode int

const (
	// Local sizes only the inserted buffers (golden-section on each),
	// leaving the original gates at their incoming sizes before the
	// final constraint distribution over the original gates.
	Local Mode = iota
	// Global includes the buffers as ordinary stages of the
	// constant-sensitivity distribution.
	Global
)

// DistributeWithBuffers distributes the delay constraint tc with buffer
// insertion, in Local or Global mode. Critical nodes are detected on
// the *sized* implementation (distribute first, then measure fan-out
// excess), and each insertion is kept only if it reduces the area at
// equal constraint — or, while the constraint is still infeasible,
// if it reduces the achievable delay. ErrInfeasible is returned when
// even the buffered structure cannot reach tc.
//
// In Global mode the first distribution is a plain sizing.Distribute
// of pa; a caller that already holds it passes it as plain (its
// successful Distribute of a copy of pa at tc under opts), and the
// search starts from it. A zero plain distributes here. Local mode
// starts from its own frozen-buffer distribution and takes no plain.
func DistributeWithBuffers(m *delay.Model, pa *delay.Path, tc float64, limits map[gate.Type]float64, mode Mode, opts sizing.Options, plain Solved) (*Result, error) {
	if plain.Path != nil && mode != Global {
		return nil, errors.New("buffering: a plain starting distribution applies to Global mode only")
	}
	// Private solver scratch shared by every insertion trial; the
	// caller's own workspace (if any) may hold live results and is not
	// touched. Results are decoupled from the scratch slot right away —
	// the adoption loop compares a fresh probe against the retained
	// champion, which must not alias it.
	opts.Workspace = &sizing.Workspace{}
	distribute := func(q *delay.Path, aStart float64) (r *sizing.Result, err error) {
		if mode == Global {
			r, err = sizing.Distribute(m, q, tc, opts)
		} else {
			r, err = distributeFrozenBuffers(m, q, tc, opts, aStart)
		}
		if r != nil {
			rv := *r
			r = &rv
		}
		return r, err
	}

	bestPath, best, feasible := plain.Path, plain.Result, true
	if bestPath == nil {
		bestPath = pa.Clone()
		var err error
		best, err = distribute(bestPath, 0)
		if err != nil && !errors.Is(err, sizing.ErrInfeasible) {
			return nil, err
		}
		feasible = err == nil
	}
	inserted := 0

	const maxInsert = 24
	const candTries = 4 // candidates probed per round before giving up
	for n := 0; n < maxInsert; n++ {
		cands := CriticalStages(m, bestPath, limits)
		if len(cands) > candTries {
			cands = cands[:candTries]
		}
		adopted := false
		for _, idx := range cands {
			trial, errIns := InsertStage(m, bestPath, idx)
			if errIns != nil {
				return nil, errIns
			}
			if mode == Local {
				sizeInsertedLocally(m, trial, idx+1, opts.Workspace.PathEval())
			}
			// A trial differs from the incumbent by one buffer, so its
			// frozen solve starts from the incumbent's sensitivity.
			r, errD := distribute(trial, best.A)
			switch {
			case errD == nil && (!feasible || r.Area < best.Area*(1-1e-9)):
				bestPath, best, feasible = trial, r, true
				adopted = true
			case errD != nil && !errors.Is(errD, sizing.ErrInfeasible):
				return nil, errD
			case errD != nil && !feasible && r != nil && r.Delay < best.Delay*(1-1e-9):
				// Still infeasible, but the buffer lowered the
				// achievable minimum: keep chasing.
				bestPath, best = trial, r
				adopted = true
			}
			if adopted {
				inserted++
				break
			}
		}
		if !adopted {
			break
		}
	}

	out := &Result{Path: bestPath, Inserted: inserted}
	if best != nil {
		out.Delay = best.Delay
		out.Area = best.Area
	}
	if !feasible {
		return out, fmt.Errorf("%w: buffered structure reached %.1f ps, constraint %.1f ps",
			sizing.ErrInfeasible, out.Delay, tc)
	}
	return out, nil
}

// sizeInsertedLocally golden-sections the single inserted buffer at
// position idx for minimum path delay, holding everything else fixed.
// Every probe goes through the incremental evaluator ev.
func sizeInsertedLocally(m *delay.Model, pa *delay.Path, idx int, ev *delay.PathEval) {
	lo := m.Proc.CRef
	hi := math.Max(4*lo, pa.Stages[idx].COff*2)
	if hi > m.Proc.CMax {
		hi = m.Proc.CMax
	}
	const phi = 0.6180339887498949
	ev.Reset(m, pa)
	x1 := hi - phi*(hi-lo)
	x2 := lo + phi*(hi-lo)
	f1, f2 := ev.Probe(idx, x1), ev.Probe(idx, x2)
	for i := 0; i < 80 && hi-lo > 1e-9*hi; i++ {
		if f1 < f2 {
			hi, x2, f2 = x2, x1, f1
			x1 = hi - phi*(hi-lo)
			f1 = ev.Probe(idx, x1)
		} else {
			lo, x1, f1 = x1, x2, f2
			x2 = lo + phi*(hi-lo)
			f2 = ev.Probe(idx, x2)
		}
	}
	if f1 < f2 {
		pa.Stages[idx].CIn = x1
	} else {
		pa.Stages[idx].CIn = x2
	}
}

// solveFrozen runs the eq. (6) sweep kernel at sensitivity a with the
// inserted stages pinned, under the frozen-buffer sweep budget o, and
// returns the worst-edge delay.
func solveFrozen(m *delay.Model, pa *delay.Path, a float64, o sizing.Options) float64 {
	sizing.SolveSensitivity(m, pa, a, true, o)
	return m.PathDelayWorst(pa)
}

// distributeFrozenBuffers distributes the delay constraint over the
// original stages only, with the inserted buffers held at locally
// optimized sizes. A few outer rounds alternate (a) golden-section
// re-sizing of each buffer against the current neighborhood and (b) a
// bisection on the sensitivity a with the buffers pinned.
//
// aStart is a known sensitivity of a nearby problem, or 0 for none.
// Each round's ×4 expansion starts at a quarter of the best a known
// (aStart, then the previous round's), or at −1e-4 if that is closer
// to 0: a step or two from the root instead of ~11.
func distributeFrozenBuffers(m *delay.Model, pa *delay.Path, tc float64, opts sizing.Options, aStart float64) (*sizing.Result, error) {
	ev := opts.Workspace.PathEval()
	// The frozen solve's own budget: up to 120 sweeps to a 1e-10
	// relative size change, tighter than Distribute's defaults.
	frozen := sizing.Options{MaxSweeps: 120, Tol: 1e-10, Workspace: opts.Workspace}
	var res *sizing.Result
	for round := 0; round < 3; round++ {
		// (a) local buffer sizing against the current sizes.
		for i := range pa.Stages {
			if pa.Stages[i].Inserted {
				sizeInsertedLocally(m, pa, i, ev)
			}
		}
		// (b) frozen-buffer sensitivity bisection.
		if d := solveFrozen(m, pa, 0, frozen); d > tc {
			// Even the frozen minimum misses tc this round; try the
			// next round's buffer re-size, or report the shortfall.
			res = &sizing.Result{Delay: d, MeanDelay: m.PathDelayMean(pa), Area: pa.Area(m.Proc), A: 0}
			continue
		}
		aLo, aHi := min(aStart/4, -1e-4), 0.0
		// Every probe that still meets tc narrows the bracket from above.
		for range [64]int{} {
			if solveFrozen(m, pa, aLo, frozen) >= tc {
				break
			}
			aHi = aLo
			aLo *= 4
		}
		for iter := 0; iter < 70; iter++ {
			mid := (aLo + aHi) / 2
			if solveFrozen(m, pa, mid, frozen) > tc {
				aLo = mid
			} else {
				aHi = mid
			}
		}
		d := solveFrozen(m, pa, aHi, frozen)
		res = &sizing.Result{Delay: d, MeanDelay: m.PathDelayMean(pa), Area: pa.Area(m.Proc), A: aHi}
		aStart = aHi
	}
	if res == nil {
		res = &sizing.Result{Delay: m.PathDelayWorst(pa), MeanDelay: m.PathDelayMean(pa), Area: pa.Area(m.Proc)}
	}
	if res.Delay > tc*(1+1e-6) {
		return res, fmt.Errorf("%w: local buffering reached %.1f ps, constraint %.1f ps",
			sizing.ErrInfeasible, res.Delay, tc)
	}
	return res, nil
}
