package main

import (
	"bytes"
	"context"
	"flag"
	"fmt"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro"
	"repro/internal/iscas"
)

var update = flag.Bool("update", false, "rewrite golden files")

// golden runs one CLI invocation and compares its stdout against
// testdata/<name>.golden. Everything the CLI prints is deterministic:
// benchmarks generate from fixed seeds, power vectors from seed 1, and
// the protocol itself is deterministic by construction.
func golden(t *testing.T, name, cmd, circuit string, tc, ratio float64, k int) {
	t.Helper()
	var buf bytes.Buffer
	if err := run(&buf, cmd, "", circuit, "", "", tc, ratio, k, 11); err != nil {
		t.Fatalf("%s: %v", cmd, err)
	}
	path := filepath.Join("testdata", name+".golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run go test ./cmd/pops -update): %v", err)
	}
	if got := buf.String(); got != string(want) {
		t.Errorf("%s output drifted from %s\n--- got\n%s--- want\n%s", cmd, path, got, want)
	}
}

func TestOptimizeGolden(t *testing.T) {
	golden(t, "optimize_fpd", "optimize", "fpd", 0, 1.5, 3)
}

func TestOptimizeHardGolden(t *testing.T) {
	golden(t, "optimize_c432_hard", "optimize", "c432", 0, 1.1, 3)
}

func TestReportGolden(t *testing.T) {
	golden(t, "report_fpd", "report", "fpd", 0, 0, 3)
}

func TestLeakageGolden(t *testing.T) {
	golden(t, "leakage_fpd", "leakage", "fpd", 0, 1.5, 3)
}

func TestLeakageHardGolden(t *testing.T) {
	golden(t, "leakage_c432_hard", "leakage", "c432", 0, 1.1, 3)
}

func TestListGolden(t *testing.T) {
	golden(t, "list", "list", "", 0, 0, 3)
}

func TestBoundsGolden(t *testing.T) {
	golden(t, "bounds_c880", "bounds", "c880", 0, 0, 3)
}

func TestRunErrors(t *testing.T) {
	var buf bytes.Buffer
	if err := run(&buf, "optimize", "", "fpd", "", "", 0, 0, 3, 11); err == nil ||
		!strings.Contains(err.Error(), "-tc or -ratio") {
		t.Fatalf("optimize without constraint: %v", err)
	}
	if err := run(&buf, "leakage", "", "fpd", "", "", 0, 0, 3, 11); err == nil ||
		!strings.Contains(err.Error(), "-tc or -ratio") {
		t.Fatalf("leakage without constraint: %v", err)
	}
	if err := run(&buf, "analyze", "", "", "", "", 0, 0, 3, 11); err == nil ||
		!strings.Contains(err.Error(), "-bench or -circuit") {
		t.Fatalf("analyze without circuit: %v", err)
	}
	if err := run(&buf, "frobnicate", "", "fpd", "", "", 0, 0, 3, 11); err == nil ||
		!strings.Contains(err.Error(), "unknown command") {
		t.Fatalf("unknown command: %v", err)
	}
	// Both sources is rejected, never silently resolved — the same rule
	// the engine and HTTP layer enforce.
	if err := run(&buf, "optimize", "x.bench", "fpd", "", "", 0, 1.3, 3, 11); err == nil ||
		!strings.Contains(err.Error(), "mutually exclusive") {
		t.Fatalf("optimize with both sources: %v", err)
	}
	if err := run(&buf, "analyze", "x.bench", "fpd", "", "", 0, 0, 3, 11); err == nil ||
		!strings.Contains(err.Error(), "mutually exclusive") {
		t.Fatalf("analyze with both sources: %v", err)
	}
}

func TestSweepGolden(t *testing.T) {
	var buf bytes.Buffer
	if err := run(&buf, "sweep", "", "fpd", "", "", 0, 0, 3, 5); err != nil {
		t.Fatalf("sweep: %v", err)
	}
	path := filepath.Join("testdata", "sweep_fpd.golden")
	if *update {
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run go test ./cmd/pops -update): %v", err)
	}
	if got := buf.String(); got != string(want) {
		t.Errorf("sweep output drifted\n--- got\n%s--- want\n%s", got, want)
	}
}

// TestOptimizeBenchFileMatchesFacade pins the CLI entry point of the
// bring-your-own-netlist path against the facade: `pops optimize
// -bench file` must print exactly the numbers pops.OptimizeBench
// computes for the same source, proving both run one engine path.
func TestOptimizeBenchFileMatchesFacade(t *testing.T) {
	src := iscas.C17Bench()
	dir := t.TempDir()
	file := filepath.Join(dir, "c17.bench")
	if err := os.WriteFile(file, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	if err := run(&got, "optimize", file, "", "", "", 0, 1.3, 3, 11); err != nil {
		t.Fatalf("optimize -bench: %v", err)
	}

	eng, err := pops.NewEngine(pops.EngineConfig{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := pops.OptimizeBench(context.Background(), eng, src,
		pops.OptimizeRequest{Ratio: 1.3})
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	out := res.Outcome
	fmt.Fprintf(&want, "constraint: %.1f ps\n", res.Tc)
	fmt.Fprintf(&want, "result: delay %.1f ps, circuit area %.1f µm, feasible=%v\n",
		out.Delay, out.Area, out.Feasible)
	fmt.Fprintf(&want, "rounds=%d buffers=%d nor-rewrites=%d\n",
		out.Rounds, out.Buffers, out.NorRewrites)
	for i, po := range out.PathOutcomes {
		fmt.Fprintf(&want, "  round %d: domain=%s method=%s delay=%.1f area=%.1f\n",
			i+1, po.Domain, po.Method, po.Delay, po.Area)
	}
	if got.String() != want.String() {
		t.Errorf("CLI output diverged from the facade\n--- cli\n%s--- facade\n%s",
			got.String(), want.String())
	}
}

// TestMetricsSubcommand drives `pops metrics` against an in-process
// engine server: the subcommand must relay the daemon's Prometheus
// exposition verbatim and fail cleanly on a non-200 answer.
func TestMetricsSubcommand(t *testing.T) {
	eng, err := pops.NewEngine(pops.EngineConfig{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	srv := pops.NewEngineServer(context.Background(), eng)
	ts := httptest.NewServer(srv)
	defer ts.Close()
	defer srv.Shutdown()

	var buf bytes.Buffer
	if err := run(&buf, "metrics", "", "", ts.URL, "", 0, 0, 3, 11); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"# TYPE pops_http_requests_total counter", "pops_queue_depth"} {
		if !strings.Contains(out, want) {
			t.Errorf("metrics output missing %q:\n%.400s", want, out)
		}
	}

	if err := run(&buf, "metrics", "", "", ts.URL+"/nope", "", 0, 0, 3, 11); err == nil ||
		!strings.Contains(err.Error(), "answered") {
		t.Fatalf("metrics against a 404 path returned %v, want status error", err)
	}
}

// TestOptimizeDataDirWarmCache: two optimize (or leakage) runs over
// the same -data-dir print byte-identical reports, the second served
// from the records the first persisted — the CLI face of the durable
// result tier.
func TestOptimizeDataDirWarmCache(t *testing.T) {
	for _, cmd := range []string{"optimize", "leakage"} {
		t.Run(cmd, func(t *testing.T) {
			dir := t.TempDir()
			var first, second bytes.Buffer
			if err := run(&first, cmd, "", "fpd", "", dir, 0, 1.3, 3, 11); err != nil {
				t.Fatal(err)
			}
			psr, err := filepath.Glob(filepath.Join(dir, "results", "*.psr"))
			if err != nil {
				t.Fatal(err)
			}
			if len(psr) == 0 {
				t.Fatalf("%s -data-dir persisted no records", cmd)
			}
			if err := run(&second, cmd, "", "fpd", "", dir, 0, 1.3, 3, 11); err != nil {
				t.Fatal(err)
			}
			if first.String() != second.String() {
				t.Errorf("warm -data-dir run differs:\ncold:\n%s\nwarm:\n%s", first.String(), second.String())
			}
		})
	}
}
