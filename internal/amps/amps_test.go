package amps

import (
	"math"
	"testing"

	"repro/internal/delay"
	"repro/internal/gate"
	"repro/internal/sizing"
	"repro/internal/tech"
)

func model() *delay.Model { return delay.NewModel(tech.CMOS025()) }

var mixed = []gate.Type{gate.Inv, gate.Nand2, gate.Nor2, gate.Inv, gate.Nand3, gate.Inv, gate.Nor3, gate.Inv}

func mkPath(p *tech.Process) *delay.Path {
	pa := &delay.Path{Name: "amps", TauIn: delay.DefaultTauIn(p)}
	for _, ty := range mixed {
		pa.Stages = append(pa.Stages, delay.Stage{Cell: gate.MustLookup(ty), CIn: p.CRef, COff: 4})
	}
	pa.Stages[0].CIn = 2 * p.CRef
	pa.Stages[len(mixed)-1].COff = 90
	return pa
}

func TestMinimizeDelayConvergesAbovePOPS(t *testing.T) {
	// The Fig. 2 shape: the greedy discrete sizer cannot beat the
	// convex optimum, and lands within a modest factor of it.
	m := model()
	pops := mkPath(m.Proc)
	rPops, err := sizing.Tmin(m, pops, sizing.Options{})
	if err != nil {
		t.Fatal(err)
	}
	pa := mkPath(m.Proc)
	rAmps, err := MinimizeDelay(m, pa)
	if err != nil {
		t.Fatal(err)
	}
	if rAmps.Delay < rPops.Delay*(1-1e-9) {
		t.Fatalf("discrete greedy beat the convex optimum: %g < %g", rAmps.Delay, rPops.Delay)
	}
	if rAmps.Delay > rPops.Delay*1.5 {
		t.Fatalf("baseline too weak: %g vs POPS %g", rAmps.Delay, rPops.Delay)
	}
	if rAmps.Moves == 0 || rAmps.Evals == 0 {
		t.Fatal("no work recorded")
	}
	if rAmps.Elapsed <= 0 {
		t.Fatal("elapsed not measured")
	}
}

func TestSizeToConstraintMeetsTc(t *testing.T) {
	m := model()
	ref := mkPath(m.Proc)
	rPops, _ := sizing.Tmin(m, ref, sizing.Options{})
	tc := 1.4 * rPops.Delay
	pa := mkPath(m.Proc)
	res, err := SizeToConstraint(m, pa, tc)
	if err != nil {
		t.Fatal(err)
	}
	if res.Delay > tc {
		t.Fatalf("constraint missed: %g > %g", res.Delay, tc)
	}
	// The applied path matches the result.
	if math.Abs(m.PathDelayWorst(pa)-res.Delay) > 1e-9*res.Delay {
		t.Fatal("path state out of sync with result")
	}
}

func TestSizeToConstraintCostsMoreThanPOPS(t *testing.T) {
	// The Fig. 4 shape: at equal constraint the industrial-style
	// baseline uses at least as much area as the constant-sensitivity
	// distribution.
	m := model()
	ref := mkPath(m.Proc)
	rPops, _ := sizing.Tmin(m, ref, sizing.Options{})
	tc := 1.2 * rPops.Delay

	popsPath := mkPath(m.Proc)
	rDist, err := sizing.Distribute(m, popsPath, tc, sizing.Options{})
	if err != nil {
		t.Fatal(err)
	}
	ampsPath := mkPath(m.Proc)
	rAmps, err := SizeToConstraint(m, ampsPath, tc)
	if err != nil {
		t.Fatal(err)
	}
	if rAmps.Area < rDist.Area*0.98 {
		t.Fatalf("baseline area %g below POPS %g", rAmps.Area, rDist.Area)
	}
}

func TestSizeToConstraintUnreachable(t *testing.T) {
	m := model()
	pa := mkPath(m.Proc)
	res, err := SizeToConstraint(m, pa, 1) // 1 ps: impossible
	if err == nil {
		t.Fatal("impossible constraint accepted")
	}
	if res == nil || res.Delay <= 0 {
		t.Fatal("best-effort result missing")
	}
}

func TestDeterministicWithSeed(t *testing.T) {
	m := model()
	a := mkPath(m.Proc)
	b := mkPath(m.Proc)
	ra, err := MinimizeDelay(m, a)
	if err != nil {
		t.Fatal(err)
	}
	rb, err := MinimizeDelay(m, b)
	if err != nil {
		t.Fatal(err)
	}
	if ra.Delay != rb.Delay || ra.Area != rb.Area {
		t.Fatal("same seed produced different results")
	}
}

func TestGrid(t *testing.T) {
	g := newGrid(1.7, 1700, stepRatio)
	if g.sizes[0] != 1.7 {
		t.Fatal("grid must start at CREF")
	}
	if g.sizes[len(g.sizes)-1] != 1700 {
		t.Fatal("grid must end at CMAX")
	}
	for i := 1; i < len(g.sizes); i++ {
		if g.sizes[i] <= g.sizes[i-1] {
			t.Fatal("grid not increasing")
		}
	}
	if g.clampIndex(-3) != 0 || g.clampIndex(len(g.sizes)+5) != len(g.sizes)-1 {
		t.Fatal("clampIndex broken")
	}
}

func TestRunRejectsInvalidPath(t *testing.T) {
	m := model()
	pa := &delay.Path{Name: "bad"}
	if _, err := MinimizeDelay(m, pa); err == nil {
		t.Fatal("invalid path accepted")
	}
}

func TestCPUGapAgainstPOPS(t *testing.T) {
	// Table 1 shape: the baseline needs orders of magnitude more path
	// evaluations than the closed-form recursion needs sweeps.
	m := model()
	pa := mkPath(m.Proc)
	rPops, err := sizing.Tmin(m, pa.Clone(), sizing.Options{})
	if err != nil {
		t.Fatal(err)
	}
	rAmps, err := MinimizeDelay(m, pa)
	if err != nil {
		t.Fatal(err)
	}
	// Each baseline eval is a full path sweep; POPS does a handful of
	// closed-form sweeps. Even on this 8-stage path the gap is large;
	// the Table 1 benchmark measures the wall-clock ratio on the real
	// suite.
	if rAmps.Evals < 5*rPops.Sweeps {
		t.Fatalf("baseline suspiciously cheap: %d evals vs %d sweeps", rAmps.Evals, rPops.Sweeps)
	}
}
