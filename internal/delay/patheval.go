package delay

import (
	"math"
	"slices"
)

// PathEval evaluates PathDelayWorst incrementally under single-stage
// size moves, the access pattern of the coordinate searches in the
// path solvers (golden-section polish, area trim, local buffer
// sizing). It caches, for each launch edge, every stage's delay,
// output transition and input-edge parity, plus the left-to-right
// running sum of the delays; the loads are shared by both edges.
//
// Moving Stages[i].CIn touches only a three-stage window: stage i-1
// (its load changes), stage i (its size and load change) and stage
// i+1 (its input slope changes; its load and output transition do
// not). Probe recomputes that window with the same GateDelay*,
// Transition* and LoadAt calls PathDelayLaunch makes, then re-adds the
// cached downstream delays in the original order, so its result is
// bit-identical to PathDelayWorst. The adds are cheap; the gate-model
// calls they replace are the cost.
//
// Between Reset and the last Probe the path may change only through
// Commit. The zero value is ready for Reset; buffers grow to the
// longest path seen and are reused, so a warm evaluator never
// allocates.
type PathEval struct {
	m     *Model
	pa    *Path
	load  []float64    // LoadAt per stage
	edge  [2]edgeTerms // [0] rising launch, [1] falling launch
	terms []float64    // backing array of load and the edges' float terms
	flags []bool       // backing array of the edges' rising flags
}

// edgeTerms is one launch edge's per-stage cache.
type edgeTerms struct {
	rising []bool    // stage input rises (the output falls)
	delay  []float64 // stage delay
	trans  []float64 // stage output transition
	sum    []float64 // sum[j] = (…(delay[0]+delay[1])+…)+delay[j]
}

// Reset binds the evaluator to m and pa and evaluates every stage.
//
//pops:noalloc buffers grow only to the longest path seen
func (e *PathEval) Reset(m *Model, pa *Path) {
	e.m, e.pa = m, pa
	n := len(pa.Stages)
	e.terms = grow(e.terms, 7*n)
	e.flags = grow(e.flags, 2*n)
	f, b := e.terms, e.flags
	e.load, f = f[:n], f[n:]
	for k := range e.edge {
		ed := &e.edge[k]
		ed.delay, ed.trans, ed.sum, f = f[:n], f[n:2*n], f[2*n:3*n], f[3*n:]
		ed.rising, b = b[:n], b[n:]
		rising := k == 0
		for j := range pa.Stages {
			ed.rising[j] = rising
			if pa.Stages[j].Cell.Invert {
				rising = !rising
			}
		}
	}
	e.update(0, n-1)
}

// Probe returns PathDelayWorst of the bound path with Stages[i].CIn
// set to x, bit for bit, leaving the path and the cache unchanged.
//
//pops:noalloc
func (e *PathEval) Probe(i int, x float64) float64 {
	m, pa := e.m, e.pa
	n := len(pa.Stages)
	lo, hi := max(i-1, 0), min(i+1, n-1)

	// The moved size enters the loads of stages i-1 and i.
	old := pa.Stages[i].CIn
	pa.Stages[i].CIn = x
	var cl [2]float64
	for j := lo; j <= i; j++ {
		cl[j-lo] = pa.LoadAt(j)
	}

	var t [2]float64
	for k := range e.edge {
		ed := &e.edge[k]
		total, tauIn := 0.0, pa.TauIn
		if lo > 0 {
			total, tauIn = ed.sum[lo-1], ed.trans[lo-1]
		}
		for j := lo; j <= i; j++ {
			d, tr := m.stageTerms(&pa.Stages[j], ed.rising[j], cl[j-lo], tauIn)
			total += d
			tauIn = tr
		}
		if hi > i {
			total += m.stageDelay(&pa.Stages[hi], ed.rising[hi], e.load[hi], tauIn)
		}
		for _, d := range ed.delay[hi+1:] {
			total += d
		}
		t[k] = total
	}
	pa.Stages[i].CIn = old
	return math.Max(t[0], t[1])
}

// Commit sets Stages[i].CIn to x and refreshes the cache: the terms of
// the three-stage window and the running sums from stage i-1 on.
//
//pops:noalloc
func (e *PathEval) Commit(i int, x float64) {
	e.pa.Stages[i].CIn = x
	e.update(max(i-1, 0), min(i+1, len(e.pa.Stages)-1))
}

// update recomputes the load, delay and transition of stages lo..hi on
// both edges, then the running sums from lo on. The terms outside the
// window must be current.
func (e *PathEval) update(lo, hi int) {
	m, pa := e.m, e.pa
	for j := lo; j <= hi; j++ {
		e.load[j] = pa.LoadAt(j)
	}
	for k := range e.edge {
		ed := &e.edge[k]
		tauIn, total := pa.TauIn, 0.0
		if lo > 0 {
			tauIn, total = ed.trans[lo-1], ed.sum[lo-1]
		}
		for j := lo; j <= hi; j++ {
			ed.delay[j], ed.trans[j] = m.stageTerms(&pa.Stages[j], ed.rising[j], e.load[j], tauIn)
			tauIn = ed.trans[j]
		}
		for j := lo; j < len(pa.Stages); j++ {
			total += ed.delay[j]
			ed.sum[j] = total
		}
	}
}

// grow returns s resized to n, reallocating only when its capacity is
// short. It grows by append's amortized schedule: buffer insertion
// lengthens a path one stage at a time, and an exact-size grow would
// reallocate on every trial.
func grow[T any](s []T, n int) []T {
	if cap(s) < n {
		s = slices.Grow(s[:0], n)
	}
	return s[:n]
}
