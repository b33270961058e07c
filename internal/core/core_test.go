package core

import (
	"context"
	"fmt"
	"math"
	"strings"
	"testing"

	"repro/internal/delay"
	"repro/internal/gate"
	"repro/internal/iscas"
	"repro/internal/logic"
	"repro/internal/netlist"
	"repro/internal/sizing"
	"repro/internal/sta"
	"repro/internal/tech"
)

func protocol(t *testing.T) *Protocol {
	t.Helper()
	m := delay.NewModel(tech.CMOS025())
	p, err := NewProtocol(Config{Model: m})
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestClassifyBoundaries(t *testing.T) {
	cases := []struct {
		tc, tmin float64
		want     Domain
	}{
		{90, 100, Infeasible},
		{100, 100, Hard},
		{119, 100, Hard},
		{121, 100, Medium},
		{250, 100, Medium},
		{251, 100, Weak},
		{1000, 100, Weak},
	}
	for _, c := range cases {
		if got := Classify(c.tc, c.tmin); got != c.want {
			t.Fatalf("Classify(%g, %g) = %v, want %v", c.tc, c.tmin, got, c.want)
		}
	}
}

func TestDomainString(t *testing.T) {
	for d, want := range map[Domain]string{
		Infeasible: "infeasible", Hard: "hard", Medium: "medium", Weak: "weak",
	} {
		if d.String() != want {
			t.Fatalf("%v.String() = %q", int(d), d.String())
		}
	}
	if !strings.Contains(Domain(9).String(), "9") {
		t.Fatal("unknown domain string")
	}
}

func TestNewProtocolValidation(t *testing.T) {
	if _, err := NewProtocol(Config{}); err == nil {
		t.Fatal("nil model accepted")
	}
	bad := tech.CMOS025()
	bad.Tau = -1
	if _, err := NewProtocol(Config{Model: delay.NewModel(bad)}); err == nil {
		t.Fatal("invalid corner accepted")
	}
	p := protocol(t)
	if len(p.Limits()) < 5 {
		t.Fatalf("library characterization too small: %v", p.Limits())
	}
}

// benchPath extracts the critical path of a generated benchmark.
func benchPath(t *testing.T, name string) (*Protocol, *delay.Path) {
	t.Helper()
	p := protocol(t)
	spec, err := iscas.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	c := iscas.MustGenerate(spec)
	pa, _, err := sta.CriticalPath(c, p.cfg.Model, sta.Config{})
	if err != nil {
		t.Fatal(err)
	}
	return p, pa
}

func TestOptimizePathDomains(t *testing.T) {
	p, pa := benchPath(t, "c432")
	rt, err := sizing.Tmin(p.cfg.Model, pa.Clone(), sizing.Options{})
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		ratio  float64
		domain Domain
	}{
		{1.05, Hard},
		{1.6, Medium},
		{3.2, Weak},
	}
	for _, tc := range cases {
		out, err := p.OptimizePath(pa, tc.ratio*rt.Delay)
		if err != nil {
			t.Fatal(err)
		}
		if out.Domain != tc.domain {
			t.Fatalf("ratio %g: domain %v, want %v", tc.ratio, out.Domain, tc.domain)
		}
		if !out.Feasible {
			t.Fatalf("ratio %g: not feasible", tc.ratio)
		}
		if out.Delay > tc.ratio*rt.Delay*(1+1e-3) {
			t.Fatalf("ratio %g: delay %g misses Tc", tc.ratio, out.Delay)
		}
		if out.Area <= 0 || out.Tmin <= 0 || out.Tmax < out.Tmin {
			t.Fatalf("ratio %g: degenerate outcome %+v", tc.ratio, out)
		}
	}
}

func TestOptimizePathInfeasibleUsesBuffers(t *testing.T) {
	p, pa := benchPath(t, "c880")
	rt, err := sizing.Tmin(p.cfg.Model, pa.Clone(), sizing.Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Below the unbuffered minimum but above the buffered one: the
	// protocol must recover feasibility by structure modification.
	out, err := p.OptimizePath(pa, 0.9*rt.Delay)
	if err != nil {
		t.Fatal(err)
	}
	if out.Domain != Infeasible {
		t.Fatalf("domain %v, want infeasible", out.Domain)
	}
	if !out.Feasible {
		t.Skipf("buffering cannot recover 0.9·Tmin on this instance (delay %.0f)", out.Delay)
	}
	if out.Buffers == 0 {
		t.Fatal("feasible infeasible-domain outcome without buffers")
	}
	if out.Delay > 0.9*rt.Delay*(1+1e-3) {
		t.Fatalf("delay %g misses 0.9·Tmin", out.Delay)
	}
}

func TestOptimizePathAreaOrdering(t *testing.T) {
	// Looser constraints must never cost more area.
	p, pa := benchPath(t, "c1355")
	rt, _ := sizing.Tmin(p.cfg.Model, pa.Clone(), sizing.Options{})
	prev := math.Inf(1)
	for _, ratio := range []float64{1.05, 1.4, 2.0, 3.0} {
		out, err := p.OptimizePath(pa, ratio*rt.Delay)
		if err != nil {
			t.Fatal(err)
		}
		if out.Area > prev*(1+0.02) {
			t.Fatalf("area %g at ratio %g above %g at tighter constraint", out.Area, ratio, prev)
		}
		prev = out.Area
	}
}

// optimizeFresh runs the sizing rounds on a fresh timing session over c.
func optimizeFresh(p *Protocol, c *netlist.Circuit, tc float64) (*CircuitOutcome, error) {
	return p.Optimize(context.Background(), p.NewTimingSession(c), tc, nil, nil)
}

func TestOptimizeCircuitFeasibleAndEquivalent(t *testing.T) {
	m := delay.NewModel(tech.CMOS025())
	p, err := NewProtocol(Config{Model: m})
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"fpd", "c432"} {
		spec, err := iscas.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		c := iscas.MustGenerate(spec)
		orig := c.Clone()
		pa, _, err := sta.CriticalPath(c, m, sta.Config{})
		if err != nil {
			t.Fatal(err)
		}
		rt, err := sizing.Tmin(m, pa.Clone(), sizing.Options{})
		if err != nil {
			t.Fatal(err)
		}
		tc := 1.35 * rt.Delay
		out, err := optimizeFresh(p, c, tc)
		if err != nil {
			t.Fatal(err)
		}
		if !out.Feasible {
			t.Fatalf("%s: protocol failed to meet %g (got %g)", name, tc, out.Delay)
		}
		if out.Delay > tc {
			t.Fatalf("%s: delay %g above Tc %g", name, out.Delay, tc)
		}
		if err := c.Validate(); err != nil {
			t.Fatalf("%s: circuit corrupted: %v", name, err)
		}
		ce, err := logic.Equivalent(orig, c, 200, 5)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if ce != nil {
			t.Fatalf("%s: protocol changed the logic: %v", name, ce)
		}
		if out.Rounds == 0 || out.Area <= 0 {
			t.Fatalf("%s: degenerate outcome %+v", name, out)
		}
	}
}

func TestOptimizeCircuitUnreachableConstraint(t *testing.T) {
	m := delay.NewModel(tech.CMOS025())
	p, err := NewProtocol(Config{Model: m, MaxRounds: 4})
	if err != nil {
		t.Fatal(err)
	}
	spec, _ := iscas.ByName("fpd")
	c := iscas.MustGenerate(spec)
	orig := c.Clone()
	out, err := optimizeFresh(p, c, 1) // 1 ps: impossible
	if err != nil {
		t.Fatal(err)
	}
	if out.Feasible {
		t.Fatal("impossible constraint reported feasible")
	}
	if err := c.Validate(); err != nil {
		t.Fatalf("failed run corrupted circuit: %v", err)
	}
	// Even failed optimization preserves the function.
	ce, err := logic.Equivalent(orig, c, 150, 9)
	if err != nil {
		t.Fatal(err)
	}
	if ce != nil {
		t.Fatalf("failed run changed logic: %v", ce)
	}
}

func TestOptimizeCircuitRewritesNORs(t *testing.T) {
	// Craft a NOR-heavy chain with an unreachable-by-sizing constraint
	// so the driver must restructure.
	m := delay.NewModel(tech.CMOS025())
	p, err := NewProtocol(Config{Model: m})
	if err != nil {
		t.Fatal(err)
	}
	c := buildNorChain(t)
	orig := c.Clone()
	pa, _, err := sta.CriticalPath(c, m, sta.Config{})
	if err != nil {
		t.Fatal(err)
	}
	rt, err := sizing.Tmin(m, pa.Clone(), sizing.Options{})
	if err != nil {
		t.Fatal(err)
	}
	out, err := optimizeFresh(p, c, 0.85*rt.Delay)
	if err != nil {
		t.Fatal(err)
	}
	if out.NorRewrites == 0 {
		t.Skipf("constraint recovered without rewrites (delay %.0f, feasible %v)", out.Delay, out.Feasible)
	}
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	ce, err := logic.Equivalent(orig, c, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if ce != nil {
		t.Fatalf("restructuring changed logic: %v", ce)
	}
}

// buildNorChain makes a NOR-dominated chain with heavy terminal load —
// the worst case for sizing, the best case for De Morgan rewriting.
func buildNorChain(t *testing.T) *netlist.Circuit {
	t.Helper()
	c := netlist.New("norchain")
	for _, in := range []string{"a", "b"} {
		if _, err := c.AddInput(in); err != nil {
			t.Fatal(err)
		}
	}
	prev := "a"
	for i := 0; i < 8; i++ {
		name := "n" + string(rune('0'+i))
		var err error
		if i%2 == 0 {
			_, err = c.AddGate(name, gate.Nor3, prev, "b", "a")
		} else {
			_, err = c.AddGate(name, gate.Nor2, prev, "b")
		}
		if err != nil {
			t.Fatal(err)
		}
		prev = name
	}
	if _, err := c.AddOutput(prev, 60); err != nil {
		t.Fatal(err)
	}
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	return c
}

func TestIsInfeasibleHelper(t *testing.T) {
	if !isInfeasible(sizing.ErrInfeasible) {
		t.Fatal("bare sentinel not recognized")
	}
	wrapped := fmt.Errorf("context: %w", sizing.ErrInfeasible)
	if !isInfeasible(wrapped) {
		t.Fatal("wrapped sentinel not recognized")
	}
	if isInfeasible(fmt.Errorf("other")) {
		t.Fatal("unrelated error classified infeasible")
	}
	if isInfeasible(nil) {
		t.Fatal("nil classified infeasible")
	}
}
