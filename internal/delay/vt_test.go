package delay

import (
	"math"
	"testing"

	"repro/internal/gate"
	"repro/internal/tech"
)

func TestVtDelegatesExactlyAtSVT(t *testing.T) {
	m := NewModel(tech.CMOS025())
	inv := gate.MustLookup(gate.Inv)
	nand := gate.MustLookup(gate.Nand3)
	for _, c := range []gate.Cell{inv, nand} {
		cin, cl, tau := 3.4, 21.0, 55.0
		if m.GateDelayHLVt(c, cin, cl, tau, tech.SVT) != m.GateDelayHL(c, cin, cl, tau) {
			t.Fatalf("%v: HL delay at SVT diverged from the base model", c.Type)
		}
		if m.GateDelayLHVt(c, cin, cl, tau, tech.SVT) != m.GateDelayLH(c, cin, cl, tau) {
			t.Fatalf("%v: LH delay at SVT diverged from the base model", c.Type)
		}
		if m.TransitionHLVt(c, cin, cl, tech.SVT) != m.TransitionHL(c, cin, cl) {
			t.Fatalf("%v: HL transition at SVT diverged", c.Type)
		}
		if m.TransitionLHVt(c, cin, cl, tech.SVT) != m.TransitionLH(c, cin, cl) {
			t.Fatalf("%v: LH transition at SVT diverged", c.Type)
		}
	}
}

func TestVtDelayOrdering(t *testing.T) {
	m := NewModel(tech.CMOS025())
	c := gate.MustLookup(gate.Nand2)
	cin, cl, tau := 2.0, 15.0, 40.0
	lvt := m.GateDelayHLVt(c, cin, cl, tau, tech.LVT)
	svt := m.GateDelayHLVt(c, cin, cl, tau, tech.SVT)
	hvt := m.GateDelayHLVt(c, cin, cl, tau, tech.HVT)
	if !(lvt < svt && svt < hvt) {
		t.Fatalf("HL delay ordering broken: lvt %v svt %v hvt %v", lvt, svt, hvt)
	}
	lvt = m.GateDelayLHVt(c, cin, cl, tau, tech.LVT)
	svt = m.GateDelayLHVt(c, cin, cl, tau, tech.SVT)
	hvt = m.GateDelayLHVt(c, cin, cl, tau, tech.HVT)
	if !(lvt < svt && svt < hvt) {
		t.Fatalf("LH delay ordering broken: lvt %v svt %v hvt %v", lvt, svt, hvt)
	}
}

func TestVtTransitionScalesWithDrive(t *testing.T) {
	p := tech.CMOS025()
	m := NewModel(p)
	c := gate.MustLookup(gate.Inv)
	base := m.TransitionHL(c, 2.0, 20.0)
	hvt := m.TransitionHLVt(c, 2.0, 20.0, tech.HVT)
	if got, want := hvt, base/p.VtDriveN(tech.HVT); got != want {
		t.Fatalf("HVT transition %v, want %v", got, want)
	}
	if hvt <= base {
		t.Fatal("HVT transition must be slower than SVT")
	}
}

// TestVtHVTPenaltyModerate pins the speed cost of a promotion to the
// band the selective methodology assumes: an HVT gate is slower, but by
// tens of percent, not multiples — otherwise non-critical slack could
// never absorb it.
func TestVtHVTPenaltyModerate(t *testing.T) {
	m := NewModel(tech.CMOS025())
	c := gate.MustLookup(gate.Inv)
	base := m.GateDelayHLVt(c, 2.0, 20.0, 30.0, tech.SVT)
	hvt := m.GateDelayHLVt(c, 2.0, 20.0, 30.0, tech.HVT)
	ratio := hvt / base
	if ratio < 1.02 || ratio > 1.6 {
		t.Fatalf("HVT/SVT delay ratio %v outside the moderate-penalty band", ratio)
	}
}

// TestGateTermsMatchPerEdgeModel pins GateTermsVt bit for bit against
// the per-edge Vt-aware model the STA used to call per fan-in: every
// primitive cell, every Vt class, both ablation flags on and off.
func TestGateTermsMatchPerEdgeModel(t *testing.T) {
	same := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
	for _, slope := range []bool{true, false} {
		for _, miller := range []bool{true, false} {
			m := NewModel(tech.CMOS025())
			m.SlopeEffect, m.CoupleMiller = slope, miller
			for _, ty := range gate.Primitives() {
				c := gate.MustLookup(ty)
				for _, v := range tech.VtClasses() {
					for _, cin := range []float64{0.9, 3.4, 17.0} {
						cl := 4.5*cin + 12.25
						g := m.GateTermsVt(c, cin, cl, v)
						if !same(g.TauHL, m.TransitionHLVt(c, cin, cl, v)) ||
							!same(g.TauLH, m.TransitionLHVt(c, cin, cl, v)) {
							t.Fatalf("%v %v cin %g (slope %v, miller %v): transitions diverged", ty, v, cin, slope, miller)
						}
						for _, tau := range []float64{0, 18.5, 73.0} {
							if !same(g.DelayHL(tau), m.GateDelayHLVt(c, cin, cl, tau, v)) ||
								!same(g.DelayLH(tau), m.GateDelayLHVt(c, cin, cl, tau, v)) {
								t.Fatalf("%v %v cin %g tau %g (slope %v, miller %v): delays diverged",
									ty, v, cin, tau, slope, miller)
							}
						}
					}
				}
			}
		}
	}
}

// TestGateTermsMonotoneAlongLadder pins the invariant the multi-Vt
// pass's block trials rely on: raising a gate's threshold class never
// shortens its delays or output transitions, and a slower input slope
// never shortens a delay, for every primitive over a cin/cl/τ grid. So
// every arrival time only grows as gates move up the ladder, and a set
// of promotions that meets a budget together meets it in every subset.
func TestGateTermsMonotoneAlongLadder(t *testing.T) {
	ladder := tech.VtClasses()
	taus := []float64{0, 4, 18.5, 73, 310}
	for _, slope := range []bool{true, false} {
		for _, miller := range []bool{true, false} {
			m := NewModel(tech.CMOS025())
			m.SlopeEffect, m.CoupleMiller = slope, miller
			for _, ty := range gate.Primitives() {
				c := gate.MustLookup(ty)
				for _, cin := range []float64{0.5, 0.9, 3.4, 17, 95} {
					for _, cl := range []float64{cin, 4.5*cin + 12.25, 40 * cin, 600} {
						for i := 1; i < len(ladder); i++ {
							lo := m.GateTermsVt(c, cin, cl, ladder[i-1])
							hi := m.GateTermsVt(c, cin, cl, ladder[i])
							if hi.TauHL < lo.TauHL || hi.TauLH < lo.TauLH {
								t.Fatalf("%v cin %g cl %g (slope %v, miller %v): transitions fall from %v to %v",
									ty, cin, cl, slope, miller, ladder[i-1], ladder[i])
							}
							for _, tau := range taus {
								if hi.DelayHL(tau) < lo.DelayHL(tau) || hi.DelayLH(tau) < lo.DelayLH(tau) {
									t.Fatalf("%v cin %g cl %g tau %g (slope %v, miller %v): delays fall from %v to %v",
										ty, cin, cl, tau, slope, miller, ladder[i-1], ladder[i])
								}
							}
						}
						for _, v := range ladder {
							g := m.GateTermsVt(c, cin, cl, v)
							for i := 1; i < len(taus); i++ {
								if g.DelayHL(taus[i]) < g.DelayHL(taus[i-1]) || g.DelayLH(taus[i]) < g.DelayLH(taus[i-1]) {
									t.Fatalf("%v %v cin %g cl %g (slope %v, miller %v): delay falls as tau grows to %g",
										ty, v, cin, cl, slope, miller, taus[i])
								}
							}
						}
					}
				}
			}
		}
	}
}
