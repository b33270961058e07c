package core

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"repro/internal/delay"
	"repro/internal/iscas"
	"repro/internal/logic"
	"repro/internal/netlist"
	"repro/internal/tech"
)

// The quality-diff gate. TestSessionGolden fails on any changed bit; a
// change that moves the solver's numbers on purpose regenerates the
// golden, and this test is what shows the move is solver noise and not
// a different optimization. Run it against the checked-in golden before
// regenerating it, and paste its log into the change description:
//
//	go test ./internal/core -run TestSessionQualityDiff -v
//
// Every cell keeps its discrete outcome (feasibility, rounds, buffers,
// NOR rewrites), meets Tc and stays logically equivalent to its input,
// and the relative area move stays within qualityAreaTol. The leakage
// fields are checked by their invariant only and reported in a table of
// their own: the multi-Vt pass is a greedy at the exact delay budget,
// so sub-1e-9 noise in the sizes can flip its decisions.

// qualityAreaTol bounds the relative area move of any cell: the bound
// popsbench sets on its end-to-end area_um metric.
const qualityAreaTol = 1e-9

// relDiff is the relative difference of got against want.
func relDiff(got, want float64) float64 {
	if got == want {
		return 0
	}
	return math.Abs(got-want) / math.Abs(want)
}

// structure renders a circuit's logic, without its sizes or Vt classes:
// the plain and leakage-aware runs of a cell usually end in one
// structure, and the equivalence check runs once per structure.
func structure(c *netlist.Circuit) string {
	var b strings.Builder
	for _, n := range c.Nodes {
		fmt.Fprintf(&b, "%s=%d(", n.Name, n.Type)
		for _, f := range n.Fanin {
			b.WriteString(f.Name)
			b.WriteByte(',')
		}
		b.WriteString(")\n")
	}
	for _, n := range c.Outputs {
		fmt.Fprintf(&b, "out %s\n", n.Name)
	}
	return b.String()
}

func TestSessionQualityDiff(t *testing.T) {
	m := delay.NewModel(tech.CMOS025())
	p, err := NewProtocol(Config{Model: m})
	if err != nil {
		t.Fatal(err)
	}
	byKey := readSessionGolden(t)

	var maxArea, maxDelay float64
	var maxAreaAt, maxDelayAt string
	var leak strings.Builder
	cells := 0
	proven := map[string]bool{} // structures already checked for equivalence
	for _, name := range goldenNames() {
		tmin := goldenTmin(t, m, name)
		for _, ratio := range goldenRatios {
			got, opt := computeGoldenCell(t, p, m, name, ratio, tmin)
			key := goldenKey(got)
			exp, ok := byKey[key]
			if !ok {
				t.Errorf("%s: no golden cell recorded", key)
				continue
			}
			cells++
			if got.Feasible != exp.Feasible || got.Rounds != exp.Rounds ||
				got.Buffers != exp.Buffers || got.NorRewrites != exp.NorRewrites {
				t.Errorf("%s: discrete outcome moved: feasible/rounds/buffers/nor %v/%d/%d/%d, golden %v/%d/%d/%d",
					key, got.Feasible, got.Rounds, got.Buffers, got.NorRewrites,
					exp.Feasible, exp.Rounds, exp.Buffers, exp.NorRewrites)
			}
			if got.Feasible && got.Delay > got.Tc*(1+1e-6) {
				t.Errorf("%s: feasible delay %.9g ps misses Tc %.9g ps", key, got.Delay, got.Tc)
			}
			if budget := math.Max(got.Tc, got.Delay); got.LeakDelay > budget {
				t.Errorf("%s: leakage pass delay %.9g ps exceeds its budget %.9g ps", key, got.LeakDelay, budget)
			}
			for _, c := range opt {
				if s := structure(c); !proven[s] {
					proven[s] = true
					orig, err := iscas.Load(name)
					if err != nil {
						t.Fatal(err)
					}
					if ce, err := logic.Equivalent(orig, c, 64, 1); err != nil || ce != nil {
						t.Errorf("%s: optimized circuit not equivalent to its input: %v %v", key, ce, err)
					}
				}
			}
			if d := relDiff(got.Area, exp.Area); d > maxArea || maxAreaAt == "" {
				maxArea, maxAreaAt = d, key
			}
			for _, d := range []float64{relDiff(got.Delay, exp.Delay), relDiff(got.Tc, exp.Tc)} {
				if d > maxDelay || maxDelayAt == "" {
					maxDelay, maxDelayAt = d, key
				}
			}
			if got.Promoted != exp.Promoted || got.StaticAfterUW != exp.StaticAfterUW || got.LeakDelay != exp.LeakDelay {
				fmt.Fprintf(&leak, "  %-12s %+9d %+15.2e %+11.2e\n", key, got.Promoted-exp.Promoted,
					(got.StaticAfterUW-exp.StaticAfterUW)/exp.StaticAfterUW,
					(got.LeakDelay-exp.LeakDelay)/exp.LeakDelay)
			}
		}
	}

	t.Logf("quality diff against %s, %d cells:\n  max relative Δarea  %.2e (%s)\n  max relative Δdelay %.2e (%s)",
		sessionGoldenPath, cells, maxArea, maxAreaAt, maxDelay, maxDelayAt)
	if leak.Len() == 0 {
		t.Logf("leakage fields: no cell moved")
	} else {
		t.Logf("leakage fields, moved cells (checked by invariant only):\n  %-12s %9s %15s %11s\n%s",
			"cell", "Δpromoted", "ΔstaticAfterUW", "ΔleakDelay", leak.String())
	}
	if maxArea > qualityAreaTol {
		t.Errorf("max relative Δarea %.2e at %s exceeds %.0e", maxArea, maxAreaAt, qualityAreaTol)
	}
}
