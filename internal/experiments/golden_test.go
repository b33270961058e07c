package experiments

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"
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

// bufferedGolden is the recorded content. Float64 values survive the
// JSON round trip exactly, so a byte comparison is a bit-level check.
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
	got, err := json.MarshalIndent(computeBufferedGolden(t), "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	got = append(got, '\n')

	if *updateBufferedGolden {
		if err := os.MkdirAll(filepath.Dir(bufferedGoldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(bufferedGoldenPath, got, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s", bufferedGoldenPath)
		return
	}
	want, err := os.ReadFile(bufferedGoldenPath)
	if err != nil {
		t.Fatalf("%v (run with -update-buffered-golden to record)", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("buffered-vs-sizing rows differ from %s:\n got: %s", bufferedGoldenPath, got)
	}
}
