package engine

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"

	"repro/internal/iscas"
	"repro/internal/netlist"
)

// rcaBenchSource serializes a genuine ripple-carry adder as .bench
// text — a real arithmetic circuit for the ingestion path.
func rcaBenchSource(t testing.TB, bits int) string {
	t.Helper()
	c, err := iscas.RippleCarryAdder(bits)
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := netlist.WriteBench(&sb, c); err != nil {
		t.Fatal(err)
	}
	return sb.String()
}

func TestParseBench(t *testing.T) {
	pb, err := ParseBench(iscas.C17Bench())
	if err != nil {
		t.Fatal(err)
	}
	if pb.Name != "c17" {
		t.Fatalf("name %q, want c17 (from the # header)", pb.Name)
	}
	if len(pb.Key) != 64 {
		t.Fatalf("key %q is not a fingerprint", pb.Key)
	}
	if st := pb.Circuit.Stats(); st.Gates != 6 {
		t.Fatalf("c17 parsed to %d gates, want 6", st.Gates)
	}

	// Unnamed sources derive a stable name from the fingerprint.
	anon, err := ParseBench("INPUT(a)\nINPUT(b)\nx = NAND(a, b)\nOUTPUT(x)\n")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(anon.Name, "bench-") {
		t.Fatalf("anonymous source name %q", anon.Name)
	}

	// Rejections keep their typed kinds through the engine wrapper.
	cases := []struct {
		src  string
		kind netlist.BenchErrorKind
	}{
		{"INPUT(a\n", netlist.BenchSyntax},
		{"INPUT(a)\nx = NAND(a, x)\nOUTPUT(x)\n", netlist.BenchSemantic},
		{"INPUT(a)\nOUTPUT(a)\n# no gates is fine\n", netlist.BenchErrorKind(-1)}, // accepted
		{"x = NOT(x)\n", netlist.BenchSemantic},
		{"", netlist.BenchSemantic}, // no inputs/outputs
	}
	for _, tc := range cases {
		_, err := ParseBench(tc.src)
		if tc.kind == netlist.BenchErrorKind(-1) {
			if err != nil {
				t.Errorf("ParseBench(%q) rejected: %v", tc.src, err)
			}
			continue
		}
		var be *netlist.BenchError
		if !errors.As(err, &be) || be.Kind != tc.kind {
			t.Errorf("ParseBench(%q) = %v, want kind %v", tc.src, err, tc.kind)
		}
	}
}

// TestOptimizeInlineBench runs the protocol end-to-end on inline
// netlists through every batch entry point: Optimize, Sweep and a
// mixed-entry Suite.
func TestOptimizeInlineBench(t *testing.T) {
	e := newEngine(t, 2)
	ctx := context.Background()
	rca := rcaBenchSource(t, 4)

	res, err := e.Optimize(ctx, OptimizeRequest{Bench: rca, Ratio: 1.4})
	if err != nil {
		t.Fatal(err)
	}
	if res.Circuit != "rca4" {
		t.Fatalf("display name %q", res.Circuit)
	}
	if !res.Outcome.Feasible || res.Outcome.Delay > res.Tc {
		t.Fatalf("rca4 not optimized: delay %.1f tc %.1f feasible=%v",
			res.Outcome.Delay, res.Tc, res.Outcome.Feasible)
	}

	sw, err := e.Sweep(ctx, SweepRequest{Bench: iscas.C17Bench(), Points: 3})
	if err != nil {
		t.Fatal(err)
	}
	if sw.Circuit != "c17" || len(sw.Points) != 3 {
		t.Fatalf("sweep %q with %d points", sw.Circuit, len(sw.Points))
	}
	for _, p := range sw.Points[1:] {
		if !p.Feasible {
			t.Fatalf("c17 sweep point %.2f infeasible", p.Ratio)
		}
	}

	suite, err := e.Suite(ctx, SuiteRequest{
		Benchmarks: []string{"fpd"},
		Benches:    []string{rca},
		Ratios:     []float64{1.5},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(suite.Rows) != 2 {
		t.Fatalf("%d suite rows", len(suite.Rows))
	}
	if suite.Rows[0].Circuit != "fpd" || suite.Rows[1].Circuit != "rca4" {
		t.Fatalf("suite rows %q, %q", suite.Rows[0].Circuit, suite.Rows[1].Circuit)
	}
	if !suite.Rows[1].Feasible {
		t.Fatal("inline suite row infeasible")
	}
}

// TestServiceCapsOnlyBindTheWire pins the trust split: the fan-in and
// size caps guard the HTTP boundary (parseBenchService), while
// trusted callers — the facade and the CLI, like LoadBenchFile before
// them — parse the same source uncapped.
func TestServiceCapsOnlyBindTheWire(t *testing.T) {
	var sb strings.Builder
	args := make([]string, MaxBenchFanIn+1)
	for i := range args {
		fmt.Fprintf(&sb, "INPUT(i%d)\n", i)
		args[i] = fmt.Sprintf("i%d", i)
	}
	fmt.Fprintf(&sb, "x = AND(%s)\nOUTPUT(x)\n", strings.Join(args, ", "))
	src := sb.String()

	if _, err := ParseBench(src); err != nil {
		t.Fatalf("trusted parse rejected a %d-input gate: %v", MaxBenchFanIn+1, err)
	}
	_, err := parseBenchService(src)
	var be *netlist.BenchError
	if !errors.As(err, &be) || be.Kind != netlist.BenchTooLarge {
		t.Fatalf("service parse = %v, want BenchTooLarge", err)
	}
}

// TestRequestSourceValidation pins the exactly-one-of contract.
func TestRequestSourceValidation(t *testing.T) {
	e := newEngine(t, 1)
	ctx := context.Background()
	if _, err := e.Optimize(ctx, OptimizeRequest{}); err == nil {
		t.Fatal("empty request accepted")
	}
	if _, err := e.Optimize(ctx, OptimizeRequest{Circuit: "c17", Bench: iscas.C17Bench()}); err == nil {
		t.Fatal("ambiguous request accepted")
	}
	if _, err := e.Sweep(ctx, SweepRequest{Points: 3}); err == nil {
		t.Fatal("sweep without source accepted")
	}
	if _, err := e.Suite(ctx, SuiteRequest{Benches: []string{"INPUT(a\n"}}); err == nil {
		t.Fatal("suite with malformed inline source accepted")
	}
}

// TestResultMemoKeyedByContent is the cache-rekey regression test: two
// different netlists submitted under the same display name must occupy
// distinct memo entries (keying on the name would alias them — the
// pre-rekey unsoundness), while resubmissions and name aliases of
// identical content share one entry.
func TestResultMemoKeyedByContent(t *testing.T) {
	e := newEngine(t, 2)
	ctx := context.Background()

	// Two structurally different circuits that both claim to be "same".
	inv := "# same\nINPUT(a)\ny = NOT(a)\nOUTPUT(y)\n"
	chain := "# same\nINPUT(a)\nx = NOT(a)\ny = NOT(x)\nz = NOT(y)\nOUTPUT(z)\n"
	r1, err := e.Optimize(ctx, OptimizeRequest{Bench: inv, Ratio: 1.5})
	if err != nil {
		t.Fatal(err)
	}
	r2, err := e.Optimize(ctx, OptimizeRequest{Bench: chain, Ratio: 1.5})
	if err != nil {
		t.Fatal(err)
	}
	if r1.Circuit != "same" || r2.Circuit != "same" {
		t.Fatalf("display names %q, %q", r1.Circuit, r2.Circuit)
	}
	if r1.Gates == r2.Gates {
		t.Fatalf("distinct netlists returned one memo entry: both %d gates", r1.Gates)
	}
	if got := len(e.cache.results); got != 2 {
		t.Fatalf("%d memo entries, want 2", got)
	}

	// Identical content under a different name hits the same entry and
	// is relabelled, not recomputed.
	renamed := strings.Replace(inv, "# same", "# other", 1)
	r3, err := e.Optimize(ctx, OptimizeRequest{Bench: renamed, Ratio: 1.5})
	if err != nil {
		t.Fatal(err)
	}
	if got := len(e.cache.results); got != 2 {
		t.Fatalf("identical netlist under a new name added a memo entry (%d total)", got)
	}
	if r3.Circuit != "other" {
		t.Fatalf("memo hit not relabelled: %q", r3.Circuit)
	}
	if r3.Tc != r1.Tc || r3.Outcome.Area != r1.Outcome.Area {
		t.Fatalf("alias hit diverged: %+v vs %+v", r3, r1)
	}

	// Named suite requests still memoize: one entry per (circuit, Tc),
	// resubmission adds nothing.
	if _, err := e.Optimize(ctx, OptimizeRequest{Circuit: "fpd", Ratio: 1.5}); err != nil {
		t.Fatal(err)
	}
	n := len(e.cache.results)
	if _, err := e.Optimize(ctx, OptimizeRequest{Circuit: "fpd", Ratio: 1.5}); err != nil {
		t.Fatal(err)
	}
	if len(e.cache.results) != n {
		t.Fatal("named resubmission missed the memo")
	}
	if _, ok := e.cache.aliases["fpd"]; !ok {
		t.Fatal("suite name has no fingerprint alias")
	}
}

// TestParseBenchAllocCeiling bounds the allocations of one inline
// ingestion (read, elaborate, validate, fingerprint) of c432. The
// builders take nodes and pin lists from per-circuit slabs, so the
// count no longer grows with the gate count; a regression to per-node
// or per-pin allocation would multiply it.
func TestParseBenchAllocCeiling(t *testing.T) {
	c, err := iscas.Load("c432")
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := netlist.WriteBench(&sb, c); err != nil {
		t.Fatal(err)
	}
	src := sb.String()
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := ParseBench(src); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("c432 parse: %.0f allocs", allocs)
	const ceiling = 85 // measured 76 with go1.24
	if allocs > ceiling {
		t.Fatalf("c432 parse made %.0f allocations, over the ceiling of %d", allocs, ceiling)
	}
}
