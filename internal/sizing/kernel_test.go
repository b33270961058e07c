package sizing

import (
	"math"
	"testing"

	"repro/internal/delay"
	"repro/internal/gate"
	"repro/internal/iscas"
	"repro/internal/sta"
)

// twoPassSensitivity is the eq. (6) solve in its two-pass form: each
// sweep first fills every B coefficient with BCoefficientsInto over the
// sweep's starting sizes, then runs the recursion and tests the largest
// relative size change against tol. The fused kernel must reproduce it
// bit for bit.
func twoPassSensitivity(m *delay.Model, pa *delay.Path, a float64, pinInserted bool, maxSweeps int, tol float64) int {
	n := len(pa.Stages)
	var b []float64
	sweeps := 0
	for sweep := 1; sweep <= maxSweeps; sweep++ {
		b = m.BCoefficientsInto(b, pa)
		maxRel := 0.0
		for i := 1; i < n; i++ {
			if pinInserted && pa.Stages[i].Inserted {
				continue
			}
			li := pa.ExternalLoadAt(i)
			den := b[i-1]/pa.Stages[i-1].CIn - a*AreaWeight(&pa.Stages[i])
			if den < 1e-12 {
				den = 1e-12
			}
			x := m.Proc.ClampCap(math.Sqrt(b[i] * li / den))
			if old := pa.Stages[i].CIn; old > 0 {
				if rel := math.Abs(x-old) / old; rel > maxRel {
					maxRel = rel
				}
			}
			pa.Stages[i].CIn = x
		}
		sweeps = sweep
		if maxRel < tol {
			break
		}
	}
	return sweeps
}

// suitePaths returns the critical paths of the 11 suite circuits.
func suitePaths(t *testing.T, m *delay.Model) []*delay.Path {
	t.Helper()
	var paths []*delay.Path
	for _, spec := range iscas.Suite() {
		c, err := iscas.Load(spec.Name)
		if err != nil {
			t.Fatal(err)
		}
		pa, _, err := sta.CriticalPath(c, m, sta.Config{})
		if err != nil {
			t.Fatal(err)
		}
		paths = append(paths, pa)
	}
	if len(paths) != 11 {
		t.Fatalf("want 11 suite paths, got %d", len(paths))
	}
	return paths
}

// withBuffer returns a copy of pa with an inverter inserted after stage
// idx and marked Inserted, taking over the stage's off-path load (the
// structure buffering.InsertStage builds), sized at 3·CREF.
func withBuffer(m *delay.Model, pa *delay.Path, idx int) *delay.Path {
	q := pa.Clone()
	buf := delay.Stage{Cell: gate.MustLookup(gate.Inv), CIn: 3 * m.Proc.CRef, COff: q.Stages[idx].COff, Inserted: true}
	q.Stages[idx].COff = 0
	q.Stages = append(q.Stages[:idx+1], append([]delay.Stage{buf}, q.Stages[idx+1:]...)...)
	return q
}

// TestSensitivityKernelMatchesTwoPass pins the fused eq. (6) sweep
// kernel against the two-pass reference: identical sizes (bit for bit)
// and sweep counts over the 11 suite critical paths and two synthetic
// paths, each with and without an inserted buffer, pinned and
// free, across sensitivities from the minimum-delay end (a = 0) to deep
// in the area-saving range, under the budgets of both search policies
// and two edge budgets, through a reused workspace
// and through none.
func TestSensitivityKernelMatchesTwoPass(t *testing.T) {
	m := model()
	// A two-stage path exercises the slope term's end-of-path cut on
	// stage 0 itself.
	paths := append([]*delay.Path{mkPath(m.Proc, mixed, 120), mkPath(m.Proc, []gate.Type{gate.Nor2, gate.Inv}, 60)},
		suitePaths(t, m)...)
	budgets := []struct {
		sweeps int
		tol    float64
	}{
		{distributePolicy.sweeps, distributePolicy.tol},
		{frozenPolicy.sweeps, frozenPolicy.tol},
		{3, 1e-10},          // budget-bound: stops mid-convergence
		{140, math.Inf(+1)}, // converges on the first sweep
	}
	ws := &Workspace{}
	multiSweep := false
	for _, base := range paths {
		for _, pa := range []*delay.Path{base, withBuffer(m, base, len(base.Stages)/2)} {
			for _, pin := range []bool{false, true} {
				for _, a := range []float64{0, -1e-4, -0.02, -1} {
					for bi, o := range budgets {
						want := pa.Clone()
						wantSweeps := twoPassSensitivity(m, want, a, pin, o.sweeps, o.tol)
						if wantSweeps > 1 {
							multiSweep = true
						}
						for _, w := range []*Workspace{ws, nil} {
							got := pa.Clone()
							sweeps := solveSensitivity(m, got, a, pin, o.sweeps, o.tol, w)
							if sweeps != wantSweeps {
								t.Fatalf("%s (%d stages) pin %v a %g budget %d: %d sweeps, two-pass %d",
									pa.Name, pa.Len(), pin, a, bi, sweeps, wantSweeps)
							}
							for i := range got.Stages {
								if math.Float64bits(got.Stages[i].CIn) != math.Float64bits(want.Stages[i].CIn) {
									t.Fatalf("%s pin %v a %g budget %d: stage %d sized %v, two-pass %v",
										pa.Name, pin, a, bi, i, got.Stages[i].CIn, want.Stages[i].CIn)
								}
							}
						}
					}
				}
			}
		}
	}
	if !multiSweep {
		t.Fatal("no case ran more than one sweep: the comparison is vacuous")
	}
}

// TestSensitivityKernelAblations repeats the two-pass comparison on the
// mixed path with the model's slope and Miller terms switched off,
// which change the B expression the kernel writes out inline.
func TestSensitivityKernelAblations(t *testing.T) {
	for _, slope := range []bool{true, false} {
		for _, miller := range []bool{true, false} {
			m := model()
			m.SlopeEffect, m.CoupleMiller = slope, miller
			base := mkPath(m.Proc, mixed, 120)
			for _, pa := range []*delay.Path{base, withBuffer(m, base, 4)} {
				for _, a := range []float64{0, -0.02} {
					want := pa.Clone()
					wantSweeps := twoPassSensitivity(m, want, a, true, frozenPolicy.sweeps, frozenPolicy.tol)
					got := pa.Clone()
					sweeps := solveSensitivity(m, got, a, true, frozenPolicy.sweeps, frozenPolicy.tol, nil)
					if sweeps != wantSweeps {
						t.Fatalf("slope %v miller %v a %g: %d sweeps, two-pass %d", slope, miller, a, sweeps, wantSweeps)
					}
					for i := range got.Stages {
						if math.Float64bits(got.Stages[i].CIn) != math.Float64bits(want.Stages[i].CIn) {
							t.Fatalf("slope %v miller %v a %g: stage %d sized %v, two-pass %v",
								slope, miller, a, i, got.Stages[i].CIn, want.Stages[i].CIn)
						}
					}
				}
			}
		}
	}
}
