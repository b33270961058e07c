package pops

import (
	"context"
	"errors"
	"math"
	"strings"
	"testing"
)

func TestQuickstartFlow(t *testing.T) {
	proc := DefaultProcess()
	model := NewModel(proc)
	c, err := Benchmark("c432")
	if err != nil {
		t.Fatal(err)
	}
	res, err := Analyze(c, model)
	if err != nil {
		t.Fatal(err)
	}
	if res.WorstDelay <= 0 {
		t.Fatal("degenerate STA result")
	}
	pa, _, err := CriticalPath(c, model)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Bounds(model, pa.Clone())
	if err != nil {
		t.Fatal(err)
	}
	if !(0 < b.Tmin && b.Tmin < b.Tmax) {
		t.Fatalf("bounds %+v", b)
	}
	r, err := Distribute(model, pa, 1.3*b.Tmin)
	if err != nil {
		t.Fatal(err)
	}
	if r.Delay > 1.3*b.Tmin*(1+1e-4) {
		t.Fatalf("constraint missed: %g", r.Delay)
	}
}

func TestBenchmarkNames(t *testing.T) {
	for _, name := range []string{"c17", "rca8", "c432", "Adder16", "fpd"} {
		c, err := Benchmark(name)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if err := c.Validate(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
	for _, bad := range []string{"c404", "rca0", "rcaX", ""} {
		if _, err := Benchmark(bad); err == nil {
			t.Fatalf("%q accepted", bad)
		}
	}
	if len(Benchmarks()) != 11 {
		t.Fatalf("suite size %d", len(Benchmarks()))
	}
}

func TestLoadBenchRoundTrip(t *testing.T) {
	c, err := Benchmark("c17")
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := WriteBench(&sb, c); err != nil {
		t.Fatal(err)
	}
	d, err := LoadBench(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatal(err)
	}
	ce, err := Equivalent(c, d, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if ce != nil {
		t.Fatalf("round trip changed logic: %v", ce)
	}
}

func TestLoadBenchElaborates(t *testing.T) {
	src := `
INPUT(a)
INPUT(b)
OUTPUT(y)
y = XOR(a, b)
`
	c, err := LoadBench(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	// XOR must have been lowered to primitives so STA runs directly.
	if _, err := Analyze(c, NewModel(DefaultProcess())); err != nil {
		t.Fatalf("loaded circuit not analyzable: %v", err)
	}
}

func TestErrInfeasibleExposed(t *testing.T) {
	model := NewModel(DefaultProcess())
	c, err := Benchmark("fpd")
	if err != nil {
		t.Fatal(err)
	}
	pa, _, err := CriticalPath(c, model)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Bounds(model, pa.Clone())
	if err != nil {
		t.Fatal(err)
	}
	_, err = Distribute(model, pa, 0.5*b.Tmin)
	if !errors.Is(err, ErrInfeasible) {
		t.Fatalf("want ErrInfeasible, got %v", err)
	}
}

func TestKWorstPathsFacade(t *testing.T) {
	model := NewModel(DefaultProcess())
	c, err := Benchmark("fpd")
	if err != nil {
		t.Fatal(err)
	}
	paths, err := KWorstPaths(c, model, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) == 0 {
		t.Fatal("no paths")
	}
	prev := math.Inf(1)
	for _, pa := range paths {
		d := model.PathDelayWorst(pa)
		if d > prev*(1+0.05) {
			t.Fatalf("paths badly ordered: %g after %g", d, prev)
		}
		prev = d
	}
}

func TestCharacterizeLibraryFacade(t *testing.T) {
	entries := CharacterizeLibrary(NewModel(DefaultProcess()))
	if len(entries) < 5 {
		t.Fatalf("characterization: %d entries", len(entries))
	}
}

func TestProtocolFacadeEndToEnd(t *testing.T) {
	model := NewModel(DefaultProcess())
	proto, err := NewProtocol(ProtocolConfig{Model: model})
	if err != nil {
		t.Fatal(err)
	}
	c, err := Benchmark("rca8")
	if err != nil {
		t.Fatal(err)
	}
	orig := c.Clone()
	pa, _, err := CriticalPath(c, model)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Bounds(model, pa.Clone())
	if err != nil {
		t.Fatal(err)
	}
	out, err := proto.Optimize(context.Background(), proto.NewTimingSession(c), 1.4*b.Tmin, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !out.Feasible {
		t.Fatalf("protocol failed on rca8: %+v", out)
	}
	ce, err := Equivalent(orig, c, 300, 99)
	if err != nil {
		t.Fatal(err)
	}
	if ce != nil {
		t.Fatalf("adder broken: %v", ce)
	}
}

func TestSimulatorFacade(t *testing.T) {
	proc := DefaultProcess()
	model := NewModel(proc)
	sim := NewSimulator(proc)
	c, err := Benchmark("c17")
	if err != nil {
		t.Fatal(err)
	}
	pa, _, err := CriticalPath(c, model)
	if err != nil {
		t.Fatal(err)
	}
	d, err := sim.PathDelayMean(pa)
	if err != nil {
		t.Fatal(err)
	}
	want := model.PathDelayMean(pa)
	if rel := math.Abs(d-want) / want; rel > 0.3 {
		t.Fatalf("model %g vs sim %g (%.0f%% apart)", want, d, rel*100)
	}
}

func TestApplyWireLoadsFacade(t *testing.T) {
	c, err := Benchmark("fpd")
	if err != nil {
		t.Fatal(err)
	}
	model := NewModel(DefaultProcess())
	before, err := Analyze(c, model)
	if err != nil {
		t.Fatal(err)
	}
	total, err := ApplyWireLoads(c)
	if err != nil {
		t.Fatal(err)
	}
	if total <= 0 {
		t.Fatal("no wire load applied")
	}
	after, err := Analyze(c, model)
	if err != nil {
		t.Fatal(err)
	}
	if after.WorstDelay <= before.WorstDelay {
		t.Fatal("wire loads had no timing effect")
	}
}
