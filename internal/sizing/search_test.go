package sizing

import (
	"math"
	"testing"

	"repro/internal/iscas"
	"repro/internal/sta"
)

// TestSaturatedSolveIsTmax pins the fact that makes Distribute's search
// unable to saturate past its Tmax check: at a very negative
// sensitivity every stage i ≥ 1 clamps to CREF, which is the Tmax
// configuration, bit for bit. It holds at −1e300 and already at the
// last a the ×4 expansion can probe, so the expansion always reaches
// any tc < Tmax.
func TestSaturatedSolveIsTmax(t *testing.T) {
	m := model()
	lastProbe := distributePolicy.cold * math.Pow(4, 63)
	for _, base := range suitePaths(t, m) {
		tmax := Tmax(m, base.Clone())
		for _, a := range []float64{lastProbe, -1e300} {
			pa := base.Clone()
			d := probe(m, pa, a, &distributePolicy, nil)
			for i := 1; i < pa.Len(); i++ {
				if pa.Stages[i].CIn != m.Proc.CRef {
					t.Fatalf("%s a %g: stage %d sized %v, not CREF", pa.Name, a, i, pa.Stages[i].CIn)
				}
			}
			if math.Float64bits(d) != math.Float64bits(tmax) {
				t.Fatalf("%s a %g: delay %v, Tmax %v", pa.Name, a, d, tmax)
			}
		}
	}
}

// TestDistributeFrozenSaturates drives the frozen search past its
// expansion budget: with tc above the delay of the all-CREF frozen
// configuration, no a reaches tc, so the search returns its last
// bracket end without bisecting and leaves the path at that
// configuration.
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
	floor := base.Clone()
	for i := 1; i < floor.Len(); i++ {
		if !floor.Stages[i].Inserted {
			floor.Stages[i].CIn = m.Proc.CRef
		}
	}
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
		t.Fatalf("sensitivity %g, want the last bracket end %g", r.A, want)
	}
}
