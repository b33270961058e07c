package core

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/delay"
	"repro/internal/gate"
	"repro/internal/iscas"
	"repro/internal/netlist"
	"repro/internal/obs"
	"repro/internal/sizing"
	"repro/internal/sta"
	"repro/internal/tech"
)

// steadyChain builds a deep, heavily-loaded gate chain whose
// all-minimum-drive delay sits ~3.6× above its Tmin: wide enough that
// a weak-domain constraint (> 2.5·Tmin) still leaves real sizing work
// after every gate is knocked back to minimum drive. ISCAS circuits
// cannot stage this scenario (their Tmax/Tmin spread is < 2).
func steadyChain(t *testing.T) *netlist.Circuit {
	t.Helper()
	c := netlist.New("steadychain")
	for _, in := range []string{"a", "b"} {
		if _, err := c.AddInput(in); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := c.AddGate("g0", gate.Nand2, "a", "b"); err != nil {
		t.Fatal(err)
	}
	prev := "g0"
	types := []gate.Type{gate.Inv, gate.Nor2, gate.Inv, gate.Nand2, gate.Inv, gate.Inv, gate.Nor2, gate.Inv, gate.Nand2, gate.Inv, gate.Inv}
	for i, ty := range types {
		name := fmt.Sprintf("h%d", i)
		fanin := []string{prev}
		if gate.MustLookup(ty).FanIn == 2 {
			fanin = append(fanin, "b")
		}
		if _, err := c.AddGate(name, ty, fanin...); err != nil {
			t.Fatal(err)
		}
		prev = name
	}
	if _, err := c.AddOutput(prev, 180); err != nil {
		t.Fatal(err)
	}
	return c
}

// steadyRoundFixture prepares the steady-state scenario: a circuit
// under a weak-domain constraint, plus a perturbation that knocks
// every gate back to minimum drive so the next round has real sizing
// work (worst delay above Tc) without any structural move.
type steadyRoundFixture struct {
	p     *Protocol
	sess  *sta.Session
	ws    *stepWorkspace
	tc    float64
	gates []*netlist.Node
	round int
}

func newSteadyRoundFixture(t *testing.T, rec Recorder) *steadyRoundFixture {
	t.Helper()
	m := delay.NewModel(tech.CMOS025())
	p, err := NewProtocol(Config{Model: m, Recorder: rec})
	if err != nil {
		t.Fatal(err)
	}
	c := steadyChain(t)
	pa, _, err := sta.CriticalPath(c, m, sta.Config{})
	if err != nil {
		t.Fatal(err)
	}
	rmin, err := sizing.Tmin(m, pa, sizing.Options{})
	if err != nil {
		t.Fatal(err)
	}
	f := &steadyRoundFixture{
		p:    p,
		sess: p.NewTimingSession(c),
		ws:   &stepWorkspace{},
		tc:   2.8 * rmin.Delay, // weak domain: sizing only
	}
	for _, n := range c.Nodes {
		if n.IsLogic() {
			f.gates = append(f.gates, n)
		}
	}
	return f
}

// perturb knocks every gate back to minimum drive and repairs the
// session timing in place — pure size writes, no structural mutation,
// no allocation once the session is warm.
func (f *steadyRoundFixture) perturb(t *testing.T) {
	t.Helper()
	res, err := f.sess.Analyze()
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range f.gates {
		n.CIn = f.p.cfg.Model.Proc.CRef
	}
	if _, err := res.Update(f.gates...); err != nil {
		t.Fatal(err)
	}
}

// step runs one workspace round and asserts it was a pure size-only
// sizing round (the steady state under measurement).
func (f *steadyRoundFixture) step(t *testing.T) {
	t.Helper()
	st, err := f.p.optimizeStep(f.ws, f.sess, f.tc, f.round)
	if err != nil {
		t.Fatal(err)
	}
	f.round++
	if st.Met {
		t.Fatal("perturbation left the circuit meeting Tc; no sizing work to measure")
	}
	if st.Outcome.Method != "sizing" {
		t.Fatalf("round used %q, want a plain sizing round", st.Outcome.Method)
	}
	if st.Buffers != 0 || st.NorRewrites != 0 {
		t.Fatalf("round mutated structure: %d buffers, %d rewrites", st.Buffers, st.NorRewrites)
	}
}

// TestOptimizeStepSteadyStateAllocationFree pins the tentpole perf
// contract of the round loop: a steady-state, no-mutation round —
// incremental analysis, critical-path extraction, weak-domain sizing,
// write-back, incremental repair — performs zero heap allocations once
// the session and workspace are warm.
func TestOptimizeStepSteadyStateAllocationFree(t *testing.T) {
	f := newSteadyRoundFixture(t, nil)
	// Warm-up: grow every session/workspace buffer to its steady size.
	for i := 0; i < 3; i++ {
		f.perturb(t)
		f.step(t)
	}
	allocs := testing.AllocsPerRun(8, func() {
		f.perturb(t)
		f.step(t)
	})
	if allocs != 0 {
		t.Errorf("steady-state round allocated %.1f times per run, want 0", allocs)
	}
}

// obsRecorder mirrors the engine's metrics recorder: atomic counter
// increments and histogram observations against internal/obs
// instruments, installed as a pre-built interface value.
type obsRecorder struct {
	rounds *obs.Counter
	stage  *obs.Histogram
}

func (r obsRecorder) RoundDone(bool) { r.rounds.Inc() }

func (r obsRecorder) StageDone(_ string, d time.Duration) { r.stage.Observe(d.Seconds()) }

// TestOptimizeStepInstrumentedAllocationFree re-pins the zero-alloc
// round guarantee with instrumentation enabled: the same steady-state
// scenario, now reporting every round through an obs-backed Recorder
// like the batch engine installs. Observability must be free on the
// hot path.
func TestOptimizeStepInstrumentedAllocationFree(t *testing.T) {
	reg := obs.NewRegistry()
	rec := obsRecorder{
		rounds: reg.Counter("rounds_total", "test rounds"),
		stage:  reg.Histogram("stage_seconds", "test stages", nil),
	}
	f := newSteadyRoundFixture(t, rec)
	for i := 0; i < 3; i++ {
		f.perturb(t)
		f.step(t)
	}
	before := rec.rounds.Value()
	allocs := testing.AllocsPerRun(8, func() {
		f.perturb(t)
		f.step(t)
	})
	if allocs != 0 {
		t.Errorf("instrumented steady-state round allocated %.1f times per run, want 0", allocs)
	}
	if rec.rounds.Value() <= before {
		t.Fatalf("recorder saw no rounds (before %d, after %d)", before, rec.rounds.Value())
	}
}

// TestWorkspaceRoundMatchesPlainStep guards against state leaking
// between rounds through the step workspace: the exported OptimizeStep
// (a fresh workspace per call) and rounds sharing one workspace reused
// across rounds, as Optimize runs them, must produce identical outcomes
// on identical circuits.
func TestWorkspaceRoundMatchesPlainStep(t *testing.T) {
	m := delay.NewModel(tech.CMOS025())
	p, err := NewProtocol(Config{Model: m})
	if err != nil {
		t.Fatal(err)
	}
	load := func() (*netlist.Circuit, *sta.Session, float64) {
		c, err := iscas.Load("fpd")
		if err != nil {
			t.Fatal(err)
		}
		pa, _, err := sta.CriticalPath(c, m, sta.Config{})
		if err != nil {
			t.Fatal(err)
		}
		rmin, err := sizing.Tmin(m, pa.Clone(), sizing.Options{})
		if err != nil {
			t.Fatal(err)
		}
		return c, p.NewTimingSession(c), 1.5 * rmin.Delay
	}

	cPlain, sessPlain, tc := load()
	cWs, sessWs, _ := load()
	ws := &stepWorkspace{}
	for round := 0; round < 4; round++ {
		a, err := p.OptimizeStep(sessPlain, tc, round)
		if err != nil {
			t.Fatal(err)
		}
		b, err := p.optimizeStep(ws, sessWs, tc, round)
		if err != nil {
			t.Fatal(err)
		}
		if a.Met != b.Met {
			t.Fatalf("round %d: Met %v vs %v", round, a.Met, b.Met)
		}
		if a.Met {
			break
		}
		if a.WorstDelay != b.WorstDelay || a.Buffers != b.Buffers || a.NorRewrites != b.NorRewrites {
			t.Fatalf("round %d diverged: %+v vs %+v", round, a, b)
		}
		ao, bo := a.Outcome, b.Outcome
		if ao.Domain != bo.Domain || ao.Method != bo.Method || ao.Delay != bo.Delay ||
			ao.Area != bo.Area || ao.Tmin != bo.Tmin || ao.Tmax != bo.Tmax {
			t.Fatalf("round %d outcomes diverged:\n%+v\n%+v", round, ao, bo)
		}
	}
	var areaPlain, areaWs float64
	areaPlain = cPlain.Area(m.Proc.WidthForCap)
	areaWs = cWs.Area(m.Proc.WidthForCap)
	if areaPlain != areaWs {
		t.Fatalf("final areas diverged: %v vs %v", areaWs, areaPlain)
	}
}
