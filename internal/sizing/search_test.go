package sizing

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/delay"
	"repro/internal/iscas"
	"repro/internal/sta"
)

// TestSaturatedSolveIsTmax pins the fact that keeps search from
// saturating: at a very negative sensitivity every free stage i ≥ 1
// clamps to CREF, bit for bit. For Distribute that is the Tmax
// configuration; for DistributeFrozen, with a pinned buffer, it is the
// all-minimum frozen configuration. It holds at −1e300 and already at
// the last a each policy's ×4 expansion can probe, so the expansion
// reaches any tc its caller's all-minimum check lets through.
func TestSaturatedSolveIsTmax(t *testing.T) {
	m := model()
	for _, p := range []*searchPolicy{&distributePolicy, &frozenPolicy} {
		lastProbe := p.cold * math.Pow(4, expansions-1)
		for _, base := range suitePaths(t, m) {
			if p.pin {
				base = withBuffer(m, base, base.Len()/2)
			}
			floor := allMinimum(m, base)
			want := m.PathDelayWorst(floor)
			for _, a := range []float64{lastProbe, -1e300} {
				pa := base.Clone()
				d := probe(m, pa, a, p, nil)
				for i := 1; i < pa.Len(); i++ {
					if pa.Stages[i].CIn != floor.Stages[i].CIn {
						t.Fatalf("%s pin %v a %g: stage %d sized %v, want %v", pa.Name, p.pin, a, i, pa.Stages[i].CIn, floor.Stages[i].CIn)
					}
				}
				if math.Float64bits(d) != math.Float64bits(want) {
					t.Fatalf("%s pin %v a %g: delay %v, all-minimum %v", pa.Name, p.pin, a, d, want)
				}
			}
			if !p.pin {
				if tmax := Tmax(m, base.Clone()); math.Float64bits(tmax) != math.Float64bits(want) {
					t.Fatalf("%s: Tmax %v, all-minimum %v", base.Name, tmax, want)
				}
			}
		}
	}
}

// allMinimum returns a copy of pa with every free stage (i ≥ 1, not
// Inserted) at CREF.
func allMinimum(m *delay.Model, pa *delay.Path) *delay.Path {
	q := pa.Clone()
	for i := 1; i < q.Len(); i++ {
		if !q.Stages[i].Inserted {
			q.Stages[i].CIn = m.Proc.CRef
		}
	}
	return q
}

// TestDistributeFrozenSaturates pins the all-minimum shortcut of
// DistributeFrozen: with tc above the delay of the all-CREF frozen
// configuration, it returns that configuration with the A search's 64
// expansions would have reached on the plateau, −1e-4·4^64, which the
// next round takes as its warm start.
func TestDistributeFrozenSaturates(t *testing.T) {
	m := model()
	c, err := iscas.Load("fpd")
	if err != nil {
		t.Fatal(err)
	}
	pa, _, err := sta.CriticalPath(c, m, sta.Config{})
	if err != nil {
		t.Fatal(err)
	}
	base := withBuffer(m, pa, pa.Len()/2)
	floor := allMinimum(m, base)
	tc := 1.01 * m.PathDelayWorst(floor)

	pa = base.Clone()
	r, ok := DistributeFrozen(m, pa, tc, 0, &Workspace{})
	if !ok {
		t.Fatalf("a = 0 probe missed tc %g: %+v", tc, r)
	}
	for i := 1; i < pa.Len(); i++ {
		st := pa.Stages[i]
		if want := floor.Stages[i].CIn; st.CIn != want {
			t.Fatalf("stage %d (inserted %v) sized %v, want %v", i, st.Inserted, st.CIn, want)
		}
	}
	if r.Delay > tc {
		t.Fatalf("delay %g misses tc %g", r.Delay, tc)
	}
	if math.IsInf(r.A, 0) || math.IsNaN(r.A) || r.A >= 0 {
		t.Fatalf("sensitivity %g, want finite and < 0", r.A)
	}
	if want := frozenPolicy.cold * math.Pow(4, 64); r.A != want {
		t.Fatalf("sensitivity %g, want the saturated bracket end %g", r.A, want)
	}
	if r.Sweeps != 1 {
		t.Fatalf("sweeps %d, want 1", r.Sweeps)
	}
}

// referenceSearch is search as it was before DistributeFrozen checked
// the all-minimum configuration first: if 64 expansions never reach
// tc, it returns the last lower end without bisecting.
func referenceSearch(m *delay.Model, pa *delay.Path, tc, aStart float64, p *searchPolicy, ws *Workspace) (a float64, sweeps int) {
	aLo, aHi := min(aStart/4, p.cold), 0.0
	n := 0
	for ; n < 64 && probe(m, pa, aLo, p, ws) < tc; n++ {
		if p.tighten {
			aHi = aLo
		}
		aLo *= 4
	}
	a = aLo
	if n < 64 {
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
		a = aHi
	}
	return a, solveSensitivity(m, pa, a, p.pin, p.sweeps, p.tol, ws)
}

// referenceDistributeFrozen is DistributeFrozen without the all-minimum
// check: the a = 0 probe, then referenceSearch.
func referenceDistributeFrozen(m *delay.Model, pa *delay.Path, tc, aStart float64, ws *Workspace) (Result, bool) {
	var r Result
	ok := probe(m, pa, 0, &frozenPolicy, ws) <= tc
	if ok {
		r.A, r.Sweeps = referenceSearch(m, pa, tc, aStart, &frozenPolicy, ws)
	}
	r.Delay, r.MeanDelay, r.Area = m.PathDelayWorst(pa), m.PathDelayMean(pa), pa.Area(m.Proc)
	return r, ok
}

// TestDistributeFrozenMatchesReference pins the all-minimum check as a
// pure shortcut: DistributeFrozen returns what the saturating search
// returned, bit for bit (sizes, A, Sweeps, Delay, MeanDelay, Area, ok),
// on the 11 suite critical paths with a pinned buffer, sized at
// a = −1e-3 to start. tc runs from below the a = 0 minimum to above
// each path's all-minimum frozen delay; at exactly that delay the check
// fails and the search runs, which the reference shows by bisecting.
// aStart covers cold, a small warm start and the saturated warm-start
// chain's −9.3e39.
func TestDistributeFrozenMatchesReference(t *testing.T) {
	m := model()
	ws, refWS := &Workspace{}, &Workspace{}
	shortcuts := 0
	for _, p := range suitePaths(t, m) {
		// Start from sizes off the minimum, as a Local trial does, so
		// a missed check must restore them.
		base := withBuffer(m, p, p.Len()/2)
		probe(m, base, -1e-3, &frozenPolicy, nil)
		floor := m.PathDelayWorst(allMinimum(m, base))
		// At 0.01·floor the a = 0 probe misses tc, so the sizes it
		// returns show whether the start was restored.
		for _, f := range []float64{0.01, 0.9, 0.99, 1, 1.01, 1.5} {
			tc := f * floor
			for _, aStart := range []float64{0, -1e-3, -9.3e39} {
				want, got := base.Clone(), base.Clone()
				wr, wok := referenceDistributeFrozen(m, want, tc, aStart, refWS)
				gr, gok := DistributeFrozen(m, got, tc, aStart, ws)
				name := fmt.Sprintf("%s tc %g·floor aStart %g", p.Name, f, aStart)
				if gok != wok || !sameBits(gr, wr) {
					t.Fatalf("%s: got %+v ok %v, want %+v ok %v", name, gr, gok, wr, wok)
				}
				for i := range want.Stages {
					if math.Float64bits(got.Stages[i].CIn) != math.Float64bits(want.Stages[i].CIn) {
						t.Fatalf("%s: stage %d sized %v, want %v", name, i, got.Stages[i].CIn, want.Stages[i].CIn)
					}
				}
				saturated := wok && wr.Sweeps == 1 && wr.A == math.Ldexp(min(aStart/4, frozenPolicy.cold), 128)
				if f == 1 && saturated {
					t.Fatalf("%s: tc at the all-minimum delay saturated the reference search", name)
				}
				if saturated {
					shortcuts++
				}
			}
		}
	}
	if shortcuts == 0 {
		t.Fatal("no case took the all-minimum shortcut")
	}
}

// sameBits reports whether two results carry bit-identical numbers.
func sameBits(a, b Result) bool {
	eq := func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) }
	return eq(a.Delay, b.Delay) && eq(a.MeanDelay, b.MeanDelay) && eq(a.Area, b.Area) &&
		eq(a.A, b.A) && a.Sweeps == b.Sweeps
}
