package engine

import (
	"context"
	"testing"

	"repro/internal/core"
	"repro/internal/delay"
	"repro/internal/iscas"
	"repro/internal/leakage"
	"repro/internal/sizing"
	"repro/internal/sta"
	"repro/internal/tech"
)

// equivRatios are the three Tc points of the determinism contract, one
// per constraint domain: hard (<1.2·Tmin), medium, weak (>2.5·Tmin).
var equivRatios = []float64{1.1, 1.5, 2.6}

// sequentialOutcome reproduces the pre-engine usage exactly: fresh
// benchmark instance, critical path, Tmin from the sizing solver, then
// core.Protocol.Optimize — no engine, no cache, no pool. leak adds the
// default multi-Vt pass, the one policy the engine runs.
func sequentialOutcome(t *testing.T, name string, ratio float64, leak bool) (*core.CircuitOutcome, float64) {
	t.Helper()
	m := delay.NewModel(tech.CMOS025())
	c, err := loadCircuit(name)
	if err != nil {
		t.Fatal(err)
	}
	pa, _, err := sta.CriticalPath(c, m, sta.Config{})
	if err != nil {
		t.Fatal(err)
	}
	r, err := sizing.Tmin(m, pa.Clone(), sizing.Options{})
	if err != nil {
		t.Fatal(err)
	}
	tc := ratio * r.Delay
	proto, err := core.NewProtocol(core.Config{Model: m})
	if err != nil {
		t.Fatal(err)
	}
	var opts *leakage.Options
	if leak {
		opts = &leakage.Options{}
	}
	out, err := proto.Optimize(context.Background(), proto.NewTimingSession(c), tc, opts, nil)
	if err != nil {
		t.Fatal(err)
	}
	return out, tc
}

// TestEngineMatchesSequential is the determinism contract of the
// subsystem: for every benchmark of the suite at three Tc points, with
// the leakage pass off and on, the engine running on a multi-worker
// pool produces a CircuitOutcome byte-identical (canonical dump, full
// float64 precision, Vt result included) to the sequential
// core.Protocol.Optimize path. With -short only the fast benchmarks
// run; the full matrix is the default.
func TestEngineMatchesSequential(t *testing.T) {
	names := []string{}
	for _, s := range iscas.Suite() {
		names = append(names, s.Name)
	}
	if testing.Short() {
		names = []string{"fpd", "c432", "c880"}
	}
	e := newEngine(t, 4)
	for _, name := range names {
		for _, ratio := range equivRatios {
			for _, leak := range []bool{false, true} {
				seq, tc := sequentialOutcome(t, name, ratio, leak)
				res, err := e.Optimize(context.Background(), OptimizeRequest{Circuit: name, Ratio: ratio, Leakage: leak})
				if err != nil {
					t.Fatalf("%s@%.2f leakage=%v: engine: %v", name, ratio, leak, err)
				}
				if res.Tc != tc {
					t.Fatalf("%s@%.2f leakage=%v: engine tc %v, sequential %v", name, ratio, leak, res.Tc, tc)
				}
				a, b := dumpOutcome(seq), dumpOutcome(res.Outcome)
				if a != b {
					t.Errorf("%s@%.2f leakage=%v: engine outcome diverged from sequential\n--- sequential\n%s--- engine\n%s",
						name, ratio, leak, a, b)
				}
			}
		}
	}
}

// TestSuiteDeterministicAcrossWorkers guards the per-task timing
// sessions of the refactored engine: each (circuit, Tc) task owns one
// incremental session over its own clone, so suite results must stay
// byte-identical across worker counts (fresh engines — nothing served
// from a shared memo). Run under -race in CI.
func TestSuiteDeterministicAcrossWorkers(t *testing.T) {
	names := []string{"fpd", "c432", "c880"}
	req := SuiteRequest{Benchmarks: names, Ratios: []float64{1.2, 1.5, 2.0}}
	var dumps []string
	for _, workers := range []int{1, 2, 4} {
		e := newEngine(t, workers)
		res, err := e.Suite(context.Background(), req)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		dumps = append(dumps, dumpSuite(res))
	}
	for i := 1; i < len(dumps); i++ {
		if dumps[0] != dumps[i] {
			t.Errorf("suite diverged across worker counts\n--- first\n%s--- other\n%s", dumps[0], dumps[i])
		}
	}
}

// TestSweepMatchesSequential checks the sweep job against per-point
// sequential runs on one benchmark: cloning the master and sharing
// cached bounds must not leak state between Tc points.
func TestSweepMatchesSequential(t *testing.T) {
	const name = "c432"
	const points = 5
	e := newEngine(t, 4)
	sw, err := e.Sweep(context.Background(), SweepRequest{Circuit: name, Points: points})
	if err != nil {
		t.Fatal(err)
	}
	m := delay.NewModel(tech.CMOS025())
	proto, err := core.NewProtocol(core.Config{Model: m})
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range sw.Points {
		c, err := loadCircuit(name)
		if err != nil {
			t.Fatal(err)
		}
		out, err := proto.Optimize(context.Background(), proto.NewTimingSession(c), p.Tc, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		if out.Delay != p.Delay || out.Area != p.Area || out.Feasible != p.Feasible {
			t.Errorf("point %d (ratio %.2f): sweep %v/%v/%v vs sequential %v/%v/%v",
				i, p.Ratio, p.Delay, p.Area, p.Feasible, out.Delay, out.Area, out.Feasible)
		}
	}
}
