package core

import (
	"context"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/delay"
	"repro/internal/iscas"
	"repro/internal/leakage"
	"repro/internal/netlist"
	"repro/internal/sizing"
	"repro/internal/sta"
	"repro/internal/tech"
)

// The session-equivalence golden: every suite benchmark × constraint
// ratio, optimized by the plain protocol and by the leakage-aware
// protocol, pinned byte-identical against the outcomes recorded before
// the timing-session refactor. The incremental session must be
// indistinguishable from the historical full-Analyze-per-round driver,
// down to the last float bit.
//
// Regenerate (only when the protocol itself legitimately changes):
//
//	go test ./internal/core -run TestSessionGolden -update-session-golden

var updateSessionGolden = flag.Bool("update-session-golden", false,
	"rewrite testdata/session_golden.json from the current protocol")

const sessionGoldenPath = "testdata/session_golden.json"

// goldenCell is one (circuit, ratio) outcome. Float64 values survive
// the JSON round-trip exactly (encoding/json emits the shortest
// representation that parses back to the same bits), so == comparison
// of decoded cells is a bit-level check.
type goldenCell struct {
	Circuit string  `json:"circuit"`
	Ratio   float64 `json:"ratio"`
	Tc      float64 `json:"tc"`

	Delay       float64 `json:"delay"`
	Area        float64 `json:"area"`
	Feasible    bool    `json:"feasible"`
	Rounds      int     `json:"rounds"`
	Buffers     int     `json:"buffers"`
	NorRewrites int     `json:"norRewrites"`

	LeakDelay     float64 `json:"leakDelay"`
	Promoted      int     `json:"promoted"`
	StaticAfterUW float64 `json:"staticAfterUW"`
	TotalAfterUW  float64 `json:"totalAfterUW"`
}

var goldenRatios = []float64{1.2, 1.5, 2.0}

// goldenTmin computes the constraint anchor exactly like the engine: the
// minimum achievable delay of the critical path of a fresh instance.
func goldenTmin(t *testing.T, m *delay.Model, name string) float64 {
	t.Helper()
	c, err := iscas.Load(name)
	if err != nil {
		t.Fatal(err)
	}
	pa, _, err := sta.CriticalPath(c, m, sta.Config{})
	if err != nil {
		t.Fatal(err)
	}
	r, err := sizing.Tmin(m, pa, sizing.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return r.Delay
}

// computeGoldenCell optimizes fresh instances of the named circuit at
// ratio·tmin, plain and leakage-aware, and returns the outcome cell and
// the two optimized circuits.
func computeGoldenCell(t *testing.T, p *Protocol, m *delay.Model, name string, ratio, tmin float64) (goldenCell, [2]*netlist.Circuit) {
	t.Helper()
	tc := ratio * tmin
	cell := goldenCell{Circuit: name, Ratio: ratio, Tc: tc}

	c, err := iscas.Load(name)
	if err != nil {
		t.Fatal(err)
	}
	out, err := optimizeFresh(p, c, tc)
	if err != nil {
		t.Fatal(err)
	}
	cell.Delay = out.Delay
	cell.Area = out.Area
	cell.Feasible = out.Feasible
	cell.Rounds = out.Rounds
	cell.Buffers = out.Buffers
	cell.NorRewrites = out.NorRewrites

	cl, err := iscas.Load(name)
	if err != nil {
		t.Fatal(err)
	}
	lout, err := p.Optimize(context.Background(), p.NewTimingSession(cl), tc, &leakage.Options{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	cell.LeakDelay = lout.Delay
	cell.Promoted = lout.Leakage.Promoted
	cell.StaticAfterUW = lout.Leakage.StaticAfterUW
	cell.TotalAfterUW = lout.Leakage.TotalAfterUW
	return cell, [2]*netlist.Circuit{c, cl}
}

// goldenNames lists the circuits the session golden covers: the suite,
// or with -short only the four fastest benchmarks.
func goldenNames() []string {
	if testing.Short() && !*updateSessionGolden {
		return []string{"fpd", "c432", "c880", "c1355"}
	}
	var names []string
	for _, s := range iscas.Suite() {
		names = append(names, s.Name)
	}
	return names
}

// readSessionGolden loads the checked-in cells keyed by goldenKey.
func readSessionGolden(t *testing.T) map[string]goldenCell {
	t.Helper()
	data, err := os.ReadFile(sessionGoldenPath)
	if err != nil {
		t.Fatalf("missing golden (run with -update-session-golden): %v", err)
	}
	var want []goldenCell
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	byKey := make(map[string]goldenCell, len(want))
	for _, cl := range want {
		byKey[goldenKey(cl)] = cl
	}
	return byKey
}

func goldenKey(c goldenCell) string {
	return c.Circuit + "@" + formatRatio(c.Ratio)
}

// TestSessionGolden pins the protocol outcomes — plain and
// leakage-aware — for every suite benchmark at ratios {1.2, 1.5, 2.0}
// against the pre-refactor record. With -short only the four fastest
// benchmarks are checked.
func TestSessionGolden(t *testing.T) {
	m := delay.NewModel(tech.CMOS025())
	p, err := NewProtocol(Config{Model: m})
	if err != nil {
		t.Fatal(err)
	}
	var cells []goldenCell
	for _, name := range goldenNames() {
		tmin := goldenTmin(t, m, name)
		for _, ratio := range goldenRatios {
			cell, _ := computeGoldenCell(t, p, m, name, ratio, tmin)
			cells = append(cells, cell)
		}
	}

	if *updateSessionGolden {
		data, err := json.MarshalIndent(cells, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Dir(sessionGoldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(sessionGoldenPath, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %d cells to %s", len(cells), sessionGoldenPath)
		return
	}

	byKey := readSessionGolden(t)
	for _, got := range cells {
		key := goldenKey(got)
		exp, ok := byKey[key]
		if !ok {
			t.Errorf("%s: no golden cell recorded", key)
			continue
		}
		if got != exp {
			t.Errorf("%s diverged from pre-refactor outcome:\n got %+v\nwant %+v", key, got, exp)
		}
	}
}

func formatRatio(r float64) string {
	b, _ := json.Marshal(r)
	return string(b)
}

// TestSessionedCircuitMutationStillValid guards the in-place contract:
// after an optimize run the circuit must still validate (the session
// refactor must not leave half-linked mutations behind).
func TestSessionedCircuitMutationStillValid(t *testing.T) {
	m := delay.NewModel(tech.CMOS025())
	p, err := NewProtocol(Config{Model: m})
	if err != nil {
		t.Fatal(err)
	}
	c, err := iscas.Load("fpd")
	if err != nil {
		t.Fatal(err)
	}
	tmin := goldenTmin(t, m, "fpd")
	if _, err := optimizeFresh(p, c, 1.2*tmin); err != nil {
		t.Fatal(err)
	}
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
}
