package buffering

import (
	"math"
	"slices"
	"testing"

	"repro/internal/delay"
	"repro/internal/gate"
	"repro/internal/iscas"
	"repro/internal/sizing"
	"repro/internal/sta"
	"repro/internal/tech"
)

func model() *delay.Model { return delay.NewModel(tech.CMOS025()) }

func TestFlimitInvInvRange(t *testing.T) {
	m := model()
	f, err := Flimit(m, gate.Inv, gate.Inv, nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// The classic single-inverter insertion crossover sits in the
	// mid-single-digits (the paper reports 5.7; slope bookkeeping
	// shifts ours up slightly).
	if f < 3.5 || f > 12 {
		t.Fatalf("Flimit(inv→inv) = %g, outside plausible band", f)
	}
}

func TestFlimitOrderingMatchesTable2(t *testing.T) {
	// Paper Table 2: the less efficient the gate, the lower the limit:
	// inv > nand2 > nand3 > nor2 > nor3, with NOR3 clearly last.
	m := model()
	get := func(ty gate.Type) float64 {
		f, err := Flimit(m, gate.Inv, ty, nil, Options{})
		if err != nil {
			t.Fatalf("Flimit(%v): %v", ty, err)
		}
		return f
	}
	inv, nand2, nand3 := get(gate.Inv), get(gate.Nand2), get(gate.Nand3)
	nor2, nor3 := get(gate.Nor2), get(gate.Nor3)
	if !(inv > nand2 && nand2 > nand3 && nand3 > nor2 && nor2 > nor3) {
		t.Fatalf("ordering violated: inv=%.2f nand2=%.2f nand3=%.2f nor2=%.2f nor3=%.2f",
			inv, nand2, nand3, nor2, nor3)
	}
	// Spread: the paper sees about a 2× ratio between inv and nor3.
	if r := inv / nor3; r < 1.3 || r > 3.5 {
		t.Fatalf("inv/nor3 spread %g implausible", r)
	}
}

func TestFlimitScaleInvariance(t *testing.T) {
	// Flimit is a ratio metric: the characterization sizes should not
	// move it much.
	m := model()
	f1, err := Flimit(m, gate.Inv, gate.Nand2, nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	f2, err := Flimit(m, gate.Inv, gate.Nand2, nil, Options{
		GateCIn:   16 * m.Proc.CRef,
		DriverCIn: 8 * m.Proc.CRef,
	})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(f1-f2) > 0.25*f1 {
		t.Fatalf("Flimit not scale-stable: %g vs %g", f1, f2)
	}
}

func TestCharacterizeLibrary(t *testing.T) {
	m := model()
	entries := CharacterizeLibrary(m, nil, Options{})
	if len(entries) < 5 {
		t.Fatalf("characterization too small: %d entries", len(entries))
	}
	for i := 1; i < len(entries); i++ {
		if entries[i].Flimit > entries[i-1].Flimit {
			t.Fatal("entries not sorted by decreasing limit")
		}
	}
	lim := Limits(entries)
	if lim[gate.Inv] == 0 || lim[gate.Nor3] == 0 {
		t.Fatal("Limits lookup incomplete")
	}
	for _, e := range entries {
		if e.Gate == gate.Buf {
			t.Fatal("BUF must not be characterized")
		}
	}
}

// heavyPath returns a path with one grossly overloaded interior node.
func heavyPath(p *tech.Process) *delay.Path {
	types := []gate.Type{gate.Inv, gate.Nand2, gate.Nor3, gate.Inv, gate.Nand2, gate.Inv}
	pa := &delay.Path{Name: "heavy", TauIn: delay.DefaultTauIn(p)}
	for _, ty := range types {
		pa.Stages = append(pa.Stages, delay.Stage{Cell: gate.MustLookup(ty), CIn: p.CRef, COff: 2})
	}
	pa.Stages[2].COff = 180 // the hub
	pa.Stages[len(types)-1].COff = 40
	return pa
}

func TestCriticalStagesDetection(t *testing.T) {
	m := model()
	lim := Limits(CharacterizeLibrary(m, nil, Options{}))
	pa := heavyPath(m.Proc)
	cands := CriticalStages(m, pa, lim)
	if len(cands) == 0 {
		t.Fatal("overloaded node not detected")
	}
	if cands[0] != 2 {
		t.Fatalf("worst candidate = stage %d, want 2 (the hub)", cands[0])
	}
	// A comfortable path has no candidates.
	quiet := heavyPath(m.Proc)
	quiet.Stages[2].COff = 2
	quiet.Stages[len(quiet.Stages)-1].COff = 4
	if got := CriticalStages(m, quiet, lim); len(got) != 0 {
		t.Fatalf("quiet path flagged: %v", got)
	}
}

func TestCriticalStagesSkipsInserted(t *testing.T) {
	m := model()
	lim := Limits(CharacterizeLibrary(m, nil, Options{}))
	pa := heavyPath(m.Proc)
	q, err := InsertStage(m, pa, 2)
	if err != nil {
		t.Fatal(err)
	}
	for _, idx := range CriticalStages(m, q, lim) {
		if q.Stages[idx].Inserted {
			t.Fatal("inserted buffer flagged for buffering")
		}
	}
}

func TestInsertStageStructure(t *testing.T) {
	m := model()
	pa := heavyPath(m.Proc)
	n := pa.Len()
	q, err := InsertStage(m, pa, 2)
	if err != nil {
		t.Fatal(err)
	}
	if q.Len() != n+1 {
		t.Fatalf("stage count %d, want %d", q.Len(), n+1)
	}
	if !q.Stages[3].Inserted || q.Stages[3].Cell.Type != gate.Inv {
		t.Fatal("inserted stage wrong")
	}
	// The buffer takes over the off-path load; the gate keeps none.
	if q.Stages[2].COff != 0 || q.Stages[3].COff != 180 {
		t.Fatalf("load handoff wrong: %g / %g", q.Stages[2].COff, q.Stages[3].COff)
	}
	// Original is untouched.
	if pa.Len() != n || pa.Stages[2].COff != 180 {
		t.Fatal("InsertStage mutated its input")
	}
	if _, err := InsertStage(m, pa, 99); err == nil {
		t.Fatal("out-of-range insert accepted")
	}
}

func TestMinDelayWithBuffersImproves(t *testing.T) {
	m := model()
	lim := Limits(CharacterizeLibrary(m, nil, Options{}))
	pa := heavyPath(m.Proc)
	base := pa.Clone()
	rBase, err := sizing.Tmin(m, base, sizing.Options{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := MinDelayWithBuffers(m, pa, Solved{Path: base, Result: rBase}, lim, sizing.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Inserted == 0 {
		t.Fatal("no buffer inserted on a grossly overloaded node")
	}
	if res.Delay >= rBase.Delay {
		t.Fatalf("buffers did not help: %g vs %g", res.Delay, rBase.Delay)
	}
}

func TestMinDelayWithBuffersNeverWorse(t *testing.T) {
	// On a path with no overloaded nodes, the result equals plain Tmin.
	m := model()
	lim := Limits(CharacterizeLibrary(m, nil, Options{}))
	pa := heavyPath(m.Proc)
	pa.Stages[2].COff = 2
	pa.Stages[len(pa.Stages)-1].COff = 8
	base := pa.Clone()
	rBase, _ := sizing.Tmin(m, base, sizing.Options{})
	res, err := MinDelayWithBuffers(m, pa, Solved{Path: base, Result: rBase}, lim, sizing.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Delay > rBase.Delay*(1+1e-9) {
		t.Fatalf("buffered flow worse than plain Tmin: %g vs %g", res.Delay, rBase.Delay)
	}
}

func TestDistributeWithBuffersModes(t *testing.T) {
	m := model()
	lim := Limits(CharacterizeLibrary(m, nil, Options{}))
	pa := heavyPath(m.Proc)
	rt, err := sizing.Tmin(m, pa.Clone(), sizing.Options{})
	if err != nil {
		t.Fatal(err)
	}
	tc := 1.3 * rt.Delay
	for _, mode := range []Mode{Local, Global} {
		res, err := DistributeWithBuffers(m, pa, tc, lim, mode, sizing.Options{}, Solved{})
		if err != nil {
			t.Fatalf("mode %v: %v", mode, err)
		}
		if res.Inserted == 0 {
			t.Fatalf("mode %v inserted nothing", mode)
		}
		if res.Delay > tc*(1+1e-3) {
			t.Fatalf("mode %v missed Tc: %g vs %g", mode, res.Delay, tc)
		}
	}
}

func TestGlobalNoWorseThanLocalOnHardConstraint(t *testing.T) {
	// Hard constraints are where global resizing of the buffers pays
	// (paper Fig. 8): global area ≤ local area.
	m := model()
	lim := Limits(CharacterizeLibrary(m, nil, Options{}))
	pa := heavyPath(m.Proc)
	rt, _ := sizing.Tmin(m, pa.Clone(), sizing.Options{})
	tc := 1.1 * rt.Delay
	lres, err := DistributeWithBuffers(m, pa, tc, lim, Local, sizing.Options{}, Solved{})
	if err != nil {
		t.Fatal(err)
	}
	gres, err := DistributeWithBuffers(m, pa, tc, lim, Global, sizing.Options{}, Solved{})
	if err != nil {
		t.Fatal(err)
	}
	if gres.Area > lres.Area*1.05 {
		t.Fatalf("global area %g above local %g", gres.Area, lres.Area)
	}
}

func TestFlimitErrorsWithoutCrossover(t *testing.T) {
	m := model()
	// Bracket entirely below the crossover: no root.
	if _, err := Flimit(m, gate.Inv, gate.Inv, nil, Options{FMin: 1.05, FMax: 1.2}); err == nil {
		t.Fatal("no-crossover bracket accepted")
	}
}

func TestFlimitUnknownTypes(t *testing.T) {
	m := model()
	if _, err := Flimit(m, gate.Input, gate.Inv, nil, Options{}); err == nil {
		t.Fatal("pseudo-cell driver accepted")
	}
	if _, err := Flimit(m, gate.Inv, gate.Output, nil, Options{}); err == nil {
		t.Fatal("pseudo-cell gate accepted")
	}
}

func TestOrdinalOf(t *testing.T) {
	m := model()
	pa := heavyPath(m.Proc)
	q, _ := InsertStage(m, pa, 1)
	// Stage indices: 0,1 original; 2 inserted; 3.. shifted originals.
	if ordinalOf(q, 3) != 2 {
		t.Fatalf("ordinalOf(3) = %d, want 2", ordinalOf(q, 3))
	}
	if ordinalOf(q, 1) != 1 {
		t.Fatalf("ordinalOf(1) = %d, want 1", ordinalOf(q, 1))
	}
}

// TestDistributeWithBuffersPlainStart pins the shared-solve contract:
// Global mode started from the caller's plain Distribute returns
// exactly what it returns when it distributes that start itself, and
// leaves the start untouched; Local mode refuses a plain start.
func TestDistributeWithBuffersPlainStart(t *testing.T) {
	m := model()
	lim := Limits(CharacterizeLibrary(m, nil, Options{}))
	pa := heavyPath(m.Proc)
	rt, err := sizing.Tmin(m, pa.Clone(), sizing.Options{})
	if err != nil {
		t.Fatal(err)
	}
	tc := 1.1 * rt.Delay
	own, err := DistributeWithBuffers(m, pa, tc, lim, Global, sizing.Options{}, Solved{})
	if err != nil {
		t.Fatal(err)
	}
	sized := pa.Clone()
	plain, err := sizing.Distribute(m, sized, tc, sizing.Options{})
	if err != nil {
		t.Fatal(err)
	}
	before, plainBefore := sized.Sizes(), *plain
	shared, err := DistributeWithBuffers(m, pa, tc, lim, Global, sizing.Options{}, Solved{Path: sized, Result: plain})
	if err != nil {
		t.Fatal(err)
	}
	if own.Delay != shared.Delay || own.Area != shared.Area || own.Inserted != shared.Inserted ||
		!slices.Equal(own.Path.Sizes(), shared.Path.Sizes()) {
		t.Fatalf("plain start changed the result: %+v vs %+v", own, shared)
	}
	if !slices.Equal(sized.Sizes(), before) || plain.Delay != plainBefore.Delay || plain.Area != plainBefore.Area {
		t.Fatal("DistributeWithBuffers modified the caller's start")
	}
	if _, err := DistributeWithBuffers(m, pa, tc, lim, Local, sizing.Options{}, Solved{Path: sized, Result: plain}); err == nil {
		t.Fatal("Local mode accepted a plain start")
	}
}

// warmAreaTol bounds the relative area gap between a warm and a cold
// frozen solve of one path. It is the solver's own noise floor, not a
// property of the warm start: the golden-section buffer size sits on a
// flat minimum, resolved only to ~1e-7, and a cold solve whose start
// sizes are scaled by 1+1e-12 already moves its area by up to 3.1e-9
// on these paths (fpd@1.5). Warm and cold differ by at most 4.5e-9.
const warmAreaTol = 1e-8

// TestFrozenWarmStartMatchesCold pins the warm-start contract of the
// frozen-buffer solve: started from the incumbent's sensitivity, as an
// insertion trial is, it reaches the cold solve's answer to solver
// noise. Every suite circuit's critical path at 1.2 and 1.5·Tmin gets
// one buffer after its highest fan-out stage.
func TestFrozenWarmStartMatchesCold(t *testing.T) {
	m := model()
	for _, spec := range iscas.Suite() {
		c, err := iscas.Load(spec.Name)
		if err != nil {
			t.Fatal(err)
		}
		pa, _, err := sta.CriticalPath(c, m, sta.Config{})
		if err != nil {
			t.Fatal(err)
		}
		rt, err := sizing.Tmin(m, pa.Clone(), sizing.Options{})
		if err != nil {
			t.Fatal(err)
		}
		for _, ratio := range []float64{1.2, 1.5} {
			tc := ratio * rt.Delay
			ws := &sizing.Workspace{}
			incumbent := pa.Clone()
			inc, err := distributeFrozenBuffers(m, incumbent, tc, ws, 0)
			if err != nil {
				t.Fatalf("%s@%g: unbuffered frozen solve: %v", spec.Name, ratio, err)
			}
			if inc.A >= 0 {
				t.Fatalf("%s@%g: incumbent sensitivity %g gives no warm start", spec.Name, ratio, inc.A)
			}
			idx, worst := 0, 0.0
			for i := range incumbent.Stages {
				if f := incumbent.ExternalLoadAt(i) / incumbent.Stages[i].CIn; f > worst {
					idx, worst = i, f
				}
			}
			trial, err := InsertStage(m, incumbent, idx)
			if err != nil {
				t.Fatal(err)
			}
			sizeInsertedLocally(m, trial, idx+1, ws.PathEval())
			cold, errC := distributeFrozenBuffers(m, trial.Clone(), tc, ws, 0)
			warm, errW := distributeFrozenBuffers(m, trial.Clone(), tc, ws, inc.A)
			if (errC == nil) != (errW == nil) {
				t.Fatalf("%s@%g: feasibility differs: cold %v, warm %v", spec.Name, ratio, errC, errW)
			}
			if errW != nil {
				continue
			}
			if d := math.Abs(warm.Area-cold.Area) / cold.Area; d > warmAreaTol {
				t.Errorf("%s@%g: warm area %.12g vs cold %.12g (relative %.2e)", spec.Name, ratio, warm.Area, cold.Area, d)
			}
			if warm.Delay > tc*(1+1e-6) {
				t.Errorf("%s@%g: warm delay %.9g misses Tc %.9g", spec.Name, ratio, warm.Delay, tc)
			}
		}
	}
}
