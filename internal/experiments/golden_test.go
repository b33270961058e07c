package experiments

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/calib"
	"repro/internal/tech"
)

// The buffered-vs-sizing golden: the experiment rows that run a
// buffered optimizer next to the plain sizing solve on the same path —
// Table 3, Fig. 6's fronts and buffered minimum, Fig. 8 and the Table 3
// seed sweep — pinned byte-identical on fpd and c432. These callers
// hand their own unbuffered solve to the buffering package, so a
// change in how that solve is shared shows here as a diff.
//
// Regenerate (only when the optimizers legitimately change):
//
//	go test ./internal/experiments -run TestBufferedGolden -update-buffered-golden

var updateBufferedGolden = flag.Bool("update-buffered-golden", false,
	"rewrite testdata/buffered_golden.json from the current optimizers")

const bufferedGoldenPath = "testdata/buffered_golden.json"

// bufferedGolden is the recorded content.
type bufferedGolden struct {
	Table3    []Table3Row              `json:"table3"`
	Fig6      map[string]*Fig6Fronts   `json:"fig6"`
	Fig8      []Fig8Row                `json:"fig8"`
	SeedSweep map[string]*SeedSweepRow `json:"seedSweep"`
}

// computeBufferedGolden runs the recorded experiments on fpd and c432.
func computeBufferedGolden(t *testing.T) bufferedGolden {
	t.Helper()
	e := env(t)
	names := []string{"fpd", "c432"}
	g := bufferedGolden{Fig6: map[string]*Fig6Fronts{}, SeedSweep: map[string]*SeedSweepRow{}}
	var err error
	if g.Table3, err = e.Table3(names); err != nil {
		t.Fatal(err)
	}
	if g.Fig8, err = e.Fig8(names); err != nil {
		t.Fatal(err)
	}
	for _, name := range names {
		if g.Fig6[name], err = e.Fig6(name); err != nil {
			t.Fatal(err)
		}
		if g.SeedSweep[name], err = e.SeedSweep(name, 4); err != nil {
			t.Fatal(err)
		}
	}
	return g
}

func TestBufferedGolden(t *testing.T) {
	checkGolden(t, bufferedGoldenPath, *updateBufferedGolden, computeBufferedGolden(t))
}

// The baseline golden: Fig. 2 and Fig. 4 (the AMPS-like grid baseline
// next to the POPS solve) on SmallBenchmarks(), and the model
// calibration against the transistor-level simulator. No other golden
// reaches internal/amps or internal/calib, so their numbers are pinned
// here.
//
// Regenerate (only when the baseline or the calibration legitimately
// changes):
//
//	go test ./internal/experiments -run TestBaselineGolden -update-baseline-golden

var updateBaselineGolden = flag.Bool("update-baseline-golden", false,
	"rewrite testdata/baseline_golden.json from the current baseline and calibration")

const baselineGoldenPath = "testdata/baseline_golden.json"

type baselineGolden struct {
	Fig2  []Fig2Row     `json:"fig2"`
	Fig4  []Fig4Row     `json:"fig4"`
	Calib *calib.Result `json:"calib"`
}

func TestBaselineGolden(t *testing.T) {
	e := env(t)
	names := SmallBenchmarks()
	var g baselineGolden
	var err error
	if g.Fig2, err = e.Fig2(names); err != nil {
		t.Fatal(err)
	}
	if g.Fig4, err = e.Fig4(names, 1.5); err != nil {
		t.Fatal(err)
	}
	if g.Calib, err = calib.Calibrate(tech.CMOS025(), nil, calib.DefaultTypes()); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, baselineGoldenPath, *updateBaselineGolden, g)
}

// checkGolden marshals v and compares it byte for byte with the file
// at path, or rewrites the file when update is set. Float64 values
// survive the JSON round trip exactly, so a byte comparison is a
// bit-level check.
func checkGolden(t *testing.T, path string, update bool, v any) {
	t.Helper()
	got, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	got = append(got, '\n')

	if update {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s", path)
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with the package's -update-*-golden flag to record)", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("rows differ from %s:\n got: %s", path, got)
	}
}
