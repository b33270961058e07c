package sizing

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/delay"
	"repro/internal/gate"
	"repro/internal/tech"
)

func model() *delay.Model { return delay.NewModel(tech.CMOS025()) }

var mixed = []gate.Type{gate.Inv, gate.Nand2, gate.Nor2, gate.Inv, gate.Nand3, gate.Inv, gate.Nor3, gate.Nand2, gate.Inv, gate.Nor2, gate.Inv}

func mkPath(p *tech.Process, types []gate.Type, terminal float64) *delay.Path {
	pa := &delay.Path{Name: "t", TauIn: delay.DefaultTauIn(p)}
	for _, ty := range types {
		pa.Stages = append(pa.Stages, delay.Stage{Cell: gate.MustLookup(ty), CIn: p.CRef, COff: 3})
	}
	pa.Stages[0].CIn = 2 * p.CRef
	pa.Stages[len(types)-1].COff = terminal
	return pa
}

func TestTmaxAllMinimum(t *testing.T) {
	m := model()
	pa := mkPath(m.Proc, mixed, 120)
	Tmax(m, pa)
	for i := 1; i < pa.Len(); i++ {
		if pa.Stages[i].CIn != m.Proc.CRef {
			t.Fatalf("stage %d not at minimum drive", i)
		}
	}
	if pa.Stages[0].CIn != 2*m.Proc.CRef {
		t.Fatal("Tmax must not touch the bounded first stage")
	}
}

func TestTminStationary(t *testing.T) {
	// The pure eq. (4) fixed point (no worst-edge polish) is a
	// stationary point of the edge-averaged objective.
	m := model()
	pa := mkPath(m.Proc, mixed, 120)
	r, err := tmin(m, pa, Options{}, false)
	if err != nil {
		t.Fatal(err)
	}
	// At the fixed point every interior sensitivity vanishes.
	b := m.BCoefficients(pa)
	for i := 1; i < pa.Len(); i++ {
		s := m.Sensitivity(pa, b, i)
		scale := b[i] * pa.ExternalLoadAt(i) / (pa.Stages[i].CIn * pa.Stages[i].CIn)
		if math.Abs(s) > 1e-6*scale {
			t.Fatalf("stage %d sensitivity %g not stationary (scale %g)", i, s, scale)
		}
	}
	if r.Delay <= 0 || r.Area <= 0 {
		t.Fatal("degenerate Tmin result")
	}
}

func TestTminBelowTmax(t *testing.T) {
	m := model()
	pa := mkPath(m.Proc, mixed, 120)
	tmax := Tmax(m, pa.Clone())
	r, err := Tmin(m, pa, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if r.Delay >= tmax {
		t.Fatalf("Tmin %g not below Tmax %g", r.Delay, tmax)
	}
}

func TestTminSeedIndependence(t *testing.T) {
	// The paper: "the final value Tmin is conserved whatever is the
	// initial solution, ie the CREF value". Vary the seed drive.
	m1 := model()
	pa1 := mkPath(m1.Proc, mixed, 120)
	r1, err := Tmin(m1, pa1, Options{})
	if err != nil {
		t.Fatal(err)
	}
	proc2 := tech.CMOS025()
	proc2.CRef = proc2.CRef / 5 // smaller minimum drive: different seed
	m2 := delay.NewModel(proc2)
	pa2 := mkPath(m1.Proc, mixed, 120) // same path, same first stage
	r2, err := Tmin(m2, pa2, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Interior optimum: the achieved minimum is seed-independent.
	if math.Abs(r1.Delay-r2.Delay) > 0.01*r1.Delay {
		t.Fatalf("Tmin depends on the seed: %g vs %g", r1.Delay, r2.Delay)
	}
}

func TestTminIterationTraceDecreases(t *testing.T) {
	m := model()
	pa := mkPath(m.Proc, mixed, 120)
	r, err := Tmin(m, pa, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Iterations) < 2 {
		t.Fatal("no iteration trace")
	}
	first := r.Iterations[0].Delay
	last := r.Iterations[len(r.Iterations)-1].Delay
	if last >= first {
		t.Fatalf("iterations did not reduce delay: %g → %g", first, last)
	}
	// The trace records the growing capacitance budget of Fig. 1.
	if r.Iterations[0].SumCInRef >= r.Iterations[len(r.Iterations)-1].SumCInRef {
		t.Fatal("ΣC_IN/CREF did not grow toward the optimum")
	}
}

func TestTminBeatsRandomSizings(t *testing.T) {
	m := model()
	pa := mkPath(m.Proc, mixed, 120)
	r, err := Tmin(m, pa, Options{})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 300; trial++ {
		q := pa.Clone()
		for i := 1; i < q.Len(); i++ {
			q.Stages[i].CIn = m.Proc.ClampCap(m.Proc.CRef * math.Exp(rng.Float64()*6))
		}
		if d := m.PathDelayWorst(q); d < r.Delay*(1-1e-6) {
			t.Fatalf("random sizing beat Tmin: %g < %g", d, r.Delay)
		}
	}
}

func TestAtSensitivityZeroEqualsTmin(t *testing.T) {
	// a = 0 reproduces the unpolished link-equation minimum.
	m := model()
	pa := mkPath(m.Proc, mixed, 120)
	rt, err := tmin(m, pa.Clone(), Options{}, false)
	if err != nil {
		t.Fatal(err)
	}
	r0, err := AtSensitivity(m, pa, 0, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(r0.Delay-rt.Delay) > 1e-4*rt.Delay {
		t.Fatalf("a=0 delay %g vs Tmin %g", r0.Delay, rt.Delay)
	}
	// The polished Tmin can only be faster on the worst edge.
	rp, err := Tmin(m, pa.Clone(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if rp.Delay > rt.Delay*(1+1e-9) {
		t.Fatalf("polish worsened Tmin: %g vs %g", rp.Delay, rt.Delay)
	}
}

func TestSensitivityFamilyMonotone(t *testing.T) {
	// More negative a → smaller area, larger delay (walking down the
	// convex trade-off front of Fig. 3).
	m := model()
	as := []float64{0, -0.02, -0.1, -0.5, -2, -8}
	var prevDelay, prevArea float64
	for i, a := range as {
		pa := mkPath(m.Proc, mixed, 120)
		r, err := AtSensitivity(m, pa, a, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if i > 0 {
			if r.Delay < prevDelay*(1-1e-9) {
				t.Fatalf("a=%g delay %g below previous %g", a, r.Delay, prevDelay)
			}
			if r.Area > prevArea*(1+1e-9) {
				t.Fatalf("a=%g area %g above previous %g", a, r.Area, prevArea)
			}
		}
		prevDelay, prevArea = r.Delay, r.Area
	}
}

func TestAtSensitivityRejectsPositive(t *testing.T) {
	m := model()
	pa := mkPath(m.Proc, mixed, 120)
	if _, err := AtSensitivity(m, pa, 0.5, Options{}); err == nil {
		t.Fatal("positive sensitivity accepted")
	}
}

func TestDistributeMeetsConstraint(t *testing.T) {
	m := model()
	for _, ratio := range []float64{1.05, 1.2, 1.7, 2.5, 4} {
		pa := mkPath(m.Proc, mixed, 120)
		rt, err := Tmin(m, pa.Clone(), Options{})
		if err != nil {
			t.Fatal(err)
		}
		tc := ratio * rt.Delay
		r, err := Distribute(m, pa, tc, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if r.Delay > tc*(1+1e-4) {
			t.Fatalf("ratio %g: delay %g misses Tc %g", ratio, r.Delay, tc)
		}
		if r.Area > rt.Area*(1+1e-9) {
			t.Fatalf("ratio %g: area %g above Tmin area %g", ratio, r.Area, rt.Area)
		}
	}
}

func TestDistributeAreaMonotoneInConstraint(t *testing.T) {
	m := model()
	pa0 := mkPath(m.Proc, mixed, 120)
	rt, _ := Tmin(m, pa0.Clone(), Options{})
	var prev float64 = math.Inf(1)
	for _, ratio := range []float64{1.05, 1.3, 1.8, 2.5, 4} {
		pa := mkPath(m.Proc, mixed, 120)
		r, err := Distribute(m, pa, ratio*rt.Delay, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if r.Area > prev*(1+1e-9) {
			t.Fatalf("area not monotone: %g after %g at ratio %g", r.Area, prev, ratio)
		}
		prev = r.Area
	}
}

func TestDistributeInfeasible(t *testing.T) {
	m := model()
	pa := mkPath(m.Proc, mixed, 120)
	rt, _ := Tmin(m, pa.Clone(), Options{})
	_, err := Distribute(m, pa, 0.8*rt.Delay, Options{})
	if !errors.Is(err, ErrInfeasible) {
		t.Fatalf("want ErrInfeasible, got %v", err)
	}
}

func TestDistributeLooseConstraintAllMinimum(t *testing.T) {
	m := model()
	pa := mkPath(m.Proc, mixed, 120)
	tmax := Tmax(m, pa.Clone())
	r, err := Distribute(m, pa, tmax*2, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < pa.Len(); i++ {
		if pa.Stages[i].CIn != m.Proc.CRef {
			t.Fatalf("loose constraint: stage %d not at minimum", i)
		}
	}
	if r.Delay > tmax*(1+1e-9) {
		t.Fatal("all-minimum exceeds Tmax")
	}
}

func TestDistributeQuickProperty(t *testing.T) {
	// Random paths and ratios: Distribute always meets the constraint
	// when it reports success.
	m := model()
	prim := []gate.Type{gate.Inv, gate.Nand2, gate.Nand3, gate.Nor2, gate.Nor3, gate.Nand4, gate.Nor4}
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 4 + r.Intn(10)
		types := make([]gate.Type, n)
		for i := range types {
			types[i] = prim[r.Intn(len(prim))]
		}
		pa := mkPath(m.Proc, types, 20+200*r.Float64())
		for i := range pa.Stages {
			pa.Stages[i].COff = 8 * r.Float64()
		}
		pa.Stages[n-1].COff = 20 + 200*r.Float64()
		rt, err := Tmin(m, pa.Clone(), Options{})
		if err != nil {
			return false
		}
		tc := rt.Delay * (1.05 + 2*r.Float64())
		res, err := Distribute(m, pa, tc, Options{})
		if err != nil {
			return false
		}
		return res.Delay <= tc*(1+1e-4)
	}
	cfg := &quick.Config{MaxCount: 40, Rand: rand.New(rand.NewSource(23))}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestSutherlandMeetsConstraintButCostsMore(t *testing.T) {
	// The paper's §3.2 claim (Fig. 4): the constant sensitivity method
	// yields smaller area than the equal-delay distribution at the
	// same constraint.
	m := model()
	pa := mkPath(m.Proc, mixed, 120)
	rt, _ := Tmin(m, pa.Clone(), Options{})
	tc := 1.4 * rt.Delay

	cs := mkPath(m.Proc, mixed, 120)
	rCS, err := Distribute(m, cs, tc, Options{})
	if err != nil {
		t.Fatal(err)
	}
	su := mkPath(m.Proc, mixed, 120)
	rSU, err := SutherlandDistribute(m, su, tc, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Sutherland must roughly meet the budget…
	if rSU.Delay > tc*1.1 {
		t.Fatalf("Sutherland delay %g far above Tc %g", rSU.Delay, tc)
	}
	// …and cost strictly more area.
	if rSU.Area <= rCS.Area {
		t.Fatalf("Sutherland area %g not above constant-sensitivity %g", rSU.Area, rCS.Area)
	}
}

func TestDistributeRespectsFirstStage(t *testing.T) {
	m := model()
	pa := mkPath(m.Proc, mixed, 120)
	first := pa.Stages[0].CIn
	rt, _ := Tmin(m, pa.Clone(), Options{})
	if _, err := Distribute(m, pa, 1.5*rt.Delay, Options{}); err != nil {
		t.Fatal(err)
	}
	if pa.Stages[0].CIn != first {
		t.Fatal("bounded first stage was resized")
	}
}
