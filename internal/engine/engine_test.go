package engine

import (
	"context"
	"fmt"
	"math"
	"strings"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/delay"
	"repro/internal/sizing"
	"repro/internal/sta"
	"repro/internal/tech"
)

func newEngine(t testing.TB, workers int) *Engine {
	t.Helper()
	e, err := New(Config{Workers: workers})
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func TestNewDefaults(t *testing.T) {
	e := newEngine(t, 0)
	if e.Workers() < 1 {
		t.Fatalf("workers = %d", e.Workers())
	}
	if e.Model().Proc.Name != tech.CMOS025().Name {
		t.Fatalf("default process = %q", e.Model().Proc.Name)
	}
}

func TestOptimizeMeetsConstraint(t *testing.T) {
	e := newEngine(t, 2)
	res, err := e.Optimize(context.Background(), OptimizeRequest{Circuit: "fpd", Ratio: 1.5})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Outcome.Feasible {
		t.Fatalf("fpd at 1.5·Tmin infeasible: delay %.1f vs tc %.1f", res.Outcome.Delay, res.Tc)
	}
	if res.Outcome.Delay > res.Tc {
		t.Fatalf("delay %.1f above tc %.1f", res.Outcome.Delay, res.Tc)
	}
	if res.Tmin <= 0 || res.Tmax <= res.Tmin {
		t.Fatalf("bad bounds: Tmin %.1f Tmax %.1f", res.Tmin, res.Tmax)
	}
}

func TestOptimizeUnknownCircuit(t *testing.T) {
	e := newEngine(t, 1)
	if _, err := e.Optimize(context.Background(), OptimizeRequest{Circuit: "nope"}); err == nil {
		t.Fatal("expected error for unknown benchmark")
	}
}

func TestOptimizeCancelled(t *testing.T) {
	e := newEngine(t, 1)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := e.Optimize(ctx, OptimizeRequest{Circuit: "fpd"}); err == nil {
		t.Fatal("expected cancellation error")
	}
}

func TestSweepCurveShape(t *testing.T) {
	e := newEngine(t, 4)
	sw, err := e.Sweep(context.Background(), SweepRequest{Circuit: "fpd", Points: 5})
	if err != nil {
		t.Fatal(err)
	}
	if len(sw.Points) != 5 {
		t.Fatalf("got %d points", len(sw.Points))
	}
	if sw.Points[0].Ratio != 1.0 || sw.Points[4].Ratio != 2.0 {
		t.Fatalf("grid endpoints %v … %v", sw.Points[0].Ratio, sw.Points[4].Ratio)
	}
	// The trade-off curve must be monotone: looser constraints never
	// cost more area (each point optimizes the same master clone).
	for i := 1; i < len(sw.Points); i++ {
		if sw.Points[i].Tc <= sw.Points[i-1].Tc {
			t.Fatalf("Tc grid not increasing at %d", i)
		}
		if sw.Points[i].Area > sw.Points[i-1].Area*(1+1e-6) {
			t.Fatalf("area increased on looser constraint: %.2f -> %.2f at ratio %.2f",
				sw.Points[i-1].Area, sw.Points[i].Area, sw.Points[i].Ratio)
		}
	}
	// Away from the Tmin wall the constraint must be met.
	for _, p := range sw.Points[1:] {
		if !p.Feasible {
			t.Fatalf("ratio %.2f infeasible (delay %.1f tc %.1f)", p.Ratio, p.Delay, p.Tc)
		}
	}
}

func TestFanOutCaps(t *testing.T) {
	e := newEngine(t, 2)
	if _, err := e.Sweep(context.Background(), SweepRequest{Circuit: "fpd", Points: MaxSweepPoints + 1}); err == nil {
		t.Fatal("oversized sweep accepted")
	}
	ratios := make([]float64, MaxSuiteCells+1)
	for i := range ratios {
		ratios[i] = 1.5
	}
	if _, err := e.Suite(context.Background(), SuiteRequest{Benchmarks: []string{"fpd"}, Ratios: ratios}); err == nil {
		t.Fatal("oversized suite accepted")
	}
}

// TestConstraintValidation pins the range rule of validateConstraint on
// the library methods: out-of-range constraints are rejected, never
// silently replaced by the defaults that zero selects.
func TestConstraintValidation(t *testing.T) {
	e := newEngine(t, 1)
	ctx := context.Background()
	for _, c := range []struct {
		name string
		run  func() error
	}{
		{"negative tc", func() error { _, err := e.Optimize(ctx, OptimizeRequest{Circuit: "c17", Tc: -50}); return err }},
		{"NaN tc", func() error { _, err := e.Optimize(ctx, OptimizeRequest{Circuit: "c17", Tc: math.NaN()}); return err }},
		{"infinite tc", func() error { _, err := e.Optimize(ctx, OptimizeRequest{Circuit: "c17", Tc: math.Inf(1)}); return err }},
		{"negative ratio", func() error { _, err := e.Optimize(ctx, OptimizeRequest{Circuit: "c17", Ratio: -1}); return err }},
		{"negative points", func() error { _, err := e.Sweep(ctx, SweepRequest{Circuit: "c17", Points: -3}); return err }},
		{"negative suite ratio", func() error {
			_, err := e.Suite(ctx, SuiteRequest{Benchmarks: []string{"c17"}, Ratios: []float64{1.5, -1}})
			return err
		}},
		{"zero suite ratio", func() error {
			_, err := e.Suite(ctx, SuiteRequest{Benchmarks: []string{"c17"}, Ratios: []float64{0}})
			return err
		}},
	} {
		if err := c.run(); err == nil || !strings.Contains(err.Error(), "must be") {
			t.Errorf("%s: err = %v, want a range rejection", c.name, err)
		}
	}
	// Zero still selects the defaults.
	res, err := e.Optimize(ctx, OptimizeRequest{Circuit: "c17"})
	if err != nil {
		t.Fatal(err)
	}
	if want := 1.4 * res.Tmin; res.Tc != want {
		t.Fatalf("default tc %v, want 1.4·Tmin = %v", res.Tc, want)
	}
}

func TestSuiteRowsOrdered(t *testing.T) {
	e := newEngine(t, 4)
	req := SuiteRequest{Benchmarks: []string{"fpd", "c432"}, Ratios: []float64{1.3, 1.8}}
	res, err := e.Suite(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 4 {
		t.Fatalf("got %d rows", len(res.Rows))
	}
	want := []struct {
		name  string
		ratio float64
	}{{"fpd", 1.3}, {"fpd", 1.8}, {"c432", 1.3}, {"c432", 1.8}}
	for i, w := range want {
		r := res.Rows[i]
		if r.Circuit != w.name || r.Ratio != w.ratio {
			t.Fatalf("row %d = %s@%.2f, want %s@%.2f", i, r.Circuit, r.Ratio, w.name, w.ratio)
		}
		if !r.Feasible {
			t.Fatalf("row %d infeasible", i)
		}
	}
}

// TestConcurrentJobs hammers one engine from several client goroutines
// so `go test -race` exercises the shared cache, protocol and pool.
func TestConcurrentJobs(t *testing.T) {
	e := newEngine(t, 4)
	var wg sync.WaitGroup
	errs := make([]error, 6)
	for i := 0; i < len(errs); i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			switch i % 3 {
			case 0:
				_, errs[i] = e.Optimize(context.Background(), OptimizeRequest{Circuit: "fpd", Ratio: 1.4})
			case 1:
				_, errs[i] = e.Sweep(context.Background(), SweepRequest{Circuit: "fpd", Points: 3})
			default:
				_, errs[i] = e.Suite(context.Background(), SuiteRequest{
					Benchmarks: []string{"fpd"}, Ratios: []float64{1.5},
				})
			}
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("client %d: %v", i, err)
		}
	}
}

func TestCacheBoundsMemoized(t *testing.T) {
	e := newEngine(t, 2)
	c1, err := loadCircuit("fpd")
	if err != nil {
		t.Fatal(err)
	}
	pa1, _, err := sta.CriticalPath(c1, e.Model(), sta.Config{})
	if err != nil {
		t.Fatal(err)
	}
	proto, err := e.protocol()
	if err != nil {
		t.Fatal(err)
	}
	b1, err := e.cache.Bounds(proto, pa1)
	if err != nil {
		t.Fatal(err)
	}
	// A second, independently generated instance of the same benchmark
	// must hit the same cache entry (same signature → same bounds).
	c2, _ := loadCircuit("fpd")
	pa2, _, _ := sta.CriticalPath(c2, e.Model(), sta.Config{})
	if PathSignature(pa1) != PathSignature(pa2) {
		t.Fatal("regenerated benchmark changed its path signature")
	}
	b2, err := e.cache.Bounds(proto, pa2)
	if err != nil {
		t.Fatal(err)
	}
	if b1 != b2 {
		t.Fatalf("cache returned a second solve: %v/%v vs %v/%v", b1.Tmin, b1.Tmax, b2.Tmin, b2.Tmax)
	}
	r, err := sizing.Tmin(e.Model(), pa1.Clone(), sizing.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if b1.Tmin != r.Delay {
		t.Fatalf("memoized Tmin %v, sizing.Tmin %v", b1.Tmin, r.Delay)
	}
	if len(e.cache.bounds) != 1 {
		t.Fatalf("expected one bounds entry, have %d", len(e.cache.bounds))
	}
}

func TestPathSignatureSensitivity(t *testing.T) {
	c, err := loadCircuit("fpd")
	if err != nil {
		t.Fatal(err)
	}
	m := delay.NewModel(tech.CMOS025())
	pa, _, err := sta.CriticalPath(c, m, sta.Config{})
	if err != nil {
		t.Fatal(err)
	}
	sig := PathSignature(pa)
	q := pa.Clone()
	q.Name = "renamed"
	if PathSignature(q) != sig {
		t.Fatal("signature must ignore the path name")
	}
	q.Stages[0].CIn *= 1.5
	if PathSignature(q) == sig {
		t.Fatal("signature must depend on stage sizes")
	}
}

// dumpOutcome renders a CircuitOutcome canonically: %v on float64
// prints the shortest decimal that uniquely round-trips the bits (and
// fmt sorts the Vt census map), so two dumps are byte-identical iff
// every quantity is bit-identical.
func dumpOutcome(o *core.CircuitOutcome) string {
	var b strings.Builder
	fmt.Fprintf(&b, "tc=%v delay=%v area=%v feasible=%v rounds=%d buffers=%d rewrites=%d\n",
		o.Tc, o.Delay, o.Area, o.Feasible, o.Rounds, o.Buffers, o.NorRewrites)
	for _, po := range o.PathOutcomes {
		fmt.Fprintf(&b, "  domain=%v tmin=%v tmax=%v tc=%v method=%s delay=%v area=%v buffers=%d feasible=%v sizes=%v\n",
			po.Domain, po.Tmin, po.Tmax, po.Tc, po.Method, po.Delay, po.Area, po.Buffers, po.Feasible, po.Path.Sizes())
	}
	if o.Leakage != nil {
		fmt.Fprintf(&b, "  leakage=%+v\n", *o.Leakage)
	}
	return b.String()
}
