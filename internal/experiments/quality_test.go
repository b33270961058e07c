package experiments

import (
	"encoding/json"
	"fmt"
	"maps"
	"math"
	"os"
	"slices"
	"strings"
	"testing"
)

// The quality-diff gate for the buffered-vs-sizing golden, the
// counterpart of internal/core's TestSessionQualityDiff. A change that
// moves the optimizers' numbers on purpose runs it against the
// checked-in golden before regenerating it:
//
//	go test ./internal/experiments -run TestBufferedQualityDiff -v
//
// Names, domains, buffer counts, feasibility flags and sweep points must
// be identical; every area leaf must stay within qualityAreaTol of the
// golden. Delays and gains are reported, not bounded.

// qualityAreaTol bounds the relative area move of any leaf: the bound
// popsbench sets on its end-to-end area_um metric.
const qualityAreaTol = 1e-9

// qualityDiff accumulates one comparison: the largest relative move per
// class of float leaf and every leaf that moved at all.
type qualityDiff struct {
	t     *testing.T
	max   map[string]float64
	at    map[string]string
	moved []string
}

// num compares a float leaf. Gains are percentages, compared in
// percentage points; the other classes relative to the golden value.
func (q *qualityDiff) num(class, leaf string, got, want float64) {
	if got == want {
		return
	}
	d := math.Abs(got - want)
	if class != "gain" {
		d /= math.Abs(want)
	}
	q.moved = append(q.moved, fmt.Sprintf("  %-28s %-5s %.2e", leaf, class, d))
	if d > q.max[class] {
		q.max[class], q.at[class] = d, leaf
	}
}

// same requires a discrete leaf to be identical.
func (q *qualityDiff) same(leaf string, got, want any) {
	if got != want {
		q.t.Errorf("%s: discrete field moved: %v, golden %v", leaf, got, want)
	}
}

func (q *qualityDiff) fronts(leaf string, got, want []Fig3Point) {
	q.same(leaf+" points", len(got), len(want))
	for i := range got {
		if i < len(want) {
			p := fmt.Sprintf("%s[%d]", leaf, i)
			q.same(p+".A", got[i].A, want[i].A)
			q.num("delay", p+".Delay", got[i].Delay, want[i].Delay)
			q.num("area", p+".Area", got[i].Area, want[i].Area)
		}
	}
}

func TestBufferedQualityDiff(t *testing.T) {
	data, err := os.ReadFile(bufferedGoldenPath)
	if err != nil {
		t.Fatalf("%v (run TestBufferedGolden with -update-buffered-golden to record)", err)
	}
	var want bufferedGolden
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	got := computeBufferedGolden(t)
	q := &qualityDiff{t: t, max: map[string]float64{}, at: map[string]string{}}

	q.same("table3 rows", len(got.Table3), len(want.Table3))
	for i := range got.Table3 {
		if i < len(want.Table3) {
			g, w := got.Table3[i], want.Table3[i]
			leaf := "table3." + w.Name
			q.same(leaf+".Name", g.Name, w.Name)
			q.same(leaf+".Buffers", g.Buffers, w.Buffers)
			q.num("delay", leaf+".Sizing", g.Sizing, w.Sizing)
			q.num("delay", leaf+".Buff", g.Buff, w.Buff)
			q.num("gain", leaf+".GainPct", g.GainPct, w.GainPct)
		}
	}
	q.same("fig8 rows", len(got.Fig8), len(want.Fig8))
	for i := range got.Fig8 {
		if i < len(want.Fig8) {
			g, w := got.Fig8[i], want.Fig8[i]
			leaf := "fig8." + w.Name + "." + w.Domain
			q.same(leaf+".Name", g.Name, w.Name)
			q.same(leaf+".Domain", g.Domain, w.Domain)
			q.same(leaf+".OK", [3]bool{g.SizingOK, g.LocalOK, g.GlobOK}, [3]bool{w.SizingOK, w.LocalOK, w.GlobOK})
			q.num("delay", leaf+".Tc", g.Tc, w.Tc)
			q.num("area", leaf+".Sizing", g.Sizing, w.Sizing)
			q.num("area", leaf+".LocalB", g.LocalB, w.LocalB)
			q.num("area", leaf+".GlobalB", g.GlobalB, w.GlobalB)
		}
	}
	for _, name := range slices.Sorted(maps.Keys(want.Fig6)) {
		g, w := got.Fig6[name], want.Fig6[name]
		if g == nil {
			t.Errorf("fig6.%s: not computed", name)
			continue
		}
		leaf := "fig6." + name
		q.num("delay", leaf+".Tmin", g.Tmin, w.Tmin)
		q.num("delay", leaf+".TminBuffered", g.TminBuffered, w.TminBuffered)
		q.fronts(leaf+".Sizing", g.Sizing, w.Sizing)
		q.fronts(leaf+".Buffered", g.Buffered, w.Buffered)
	}
	for _, name := range slices.Sorted(maps.Keys(want.SeedSweep)) {
		g, w := got.SeedSweep[name], want.SeedSweep[name]
		if g == nil {
			t.Errorf("seedSweep.%s: not computed", name)
			continue
		}
		leaf := "seedSweep." + name
		q.same(leaf+" seeds", len(g.Gains), len(w.Gains))
		for i := range g.Gains {
			if i < len(w.Gains) {
				q.num("gain", fmt.Sprintf("%s.Gains[%d]", leaf, i), g.Gains[i], w.Gains[i])
			}
		}
		q.num("gain", leaf+".MeanGain", g.MeanGain, w.MeanGain)
		q.num("gain", leaf+".MinGain", g.MinGain, w.MinGain)
		q.num("gain", leaf+".MaxGain", g.MaxGain, w.MaxGain)
	}

	var b strings.Builder
	fmt.Fprintf(&b, "quality diff against %s:\n", bufferedGoldenPath)
	fmt.Fprintf(&b, "  max relative Δarea  %.2e %s\n", q.max["area"], q.at["area"])
	fmt.Fprintf(&b, "  max relative Δdelay %.2e %s\n", q.max["delay"], q.at["delay"])
	fmt.Fprintf(&b, "  max Δgain (points)  %.2e %s\n", q.max["gain"], q.at["gain"])
	fmt.Fprintf(&b, "  %d leaves moved", len(q.moved))
	for _, m := range q.moved {
		b.WriteString("\n" + m)
	}
	t.Log(b.String())
	if q.max["area"] > qualityAreaTol {
		t.Errorf("max relative Δarea %.2e at %s exceeds %.0e", q.max["area"], q.at["area"], qualityAreaTol)
	}
}
