package experiments

import (
	"fmt"
	"math"

	"repro/internal/buffering"
	"repro/internal/iscas"
	"repro/internal/report"
	"repro/internal/sizing"
	"repro/internal/sta"
	"repro/internal/wire"
)

// Robustness experiments beyond the paper's tables: how stable the
// reproduction's shapes are under (a) routing-capacitance
// mis-estimation — the §2 uncertainty that motivates the protocol —
// and (b) the synthetic benchmark generator's seed.

// WireUncertaintyRow reports the optimizer's sensitivity to wire-load
// error on one benchmark.
type WireUncertaintyRow struct {
	Name       string
	Spread     float64 // applied mis-estimation (e.g. 0.3 = ±30 %)
	TminBase   float64 // ps, with nominal wire loads
	TminWorst  float64 // ps, worst over perturbation seeds
	DriftPct   float64 // |worst−base|/base × 100
	AreaBase   float64 // µm at Tc = 1.3·TminBase, nominal wires
	AreaWorst  float64 // µm, worst over seeds at the same Tc
	AreaDrift  float64 // percent
	SeedsTried int
}

// WireUncertainty measures Tmin and constrained-area drift under
// randomized wire-load errors.
func (e *Env) WireUncertainty(names []string, spread float64, seeds int) ([]WireUncertaintyRow, error) {
	if spread <= 0 {
		spread = 0.3
	}
	if seeds <= 0 {
		seeds = 3
	}
	var rows []WireUncertaintyRow
	for _, name := range names {
		spec, err := iscas.ByName(name)
		if err != nil {
			return nil, err
		}
		measure := func(seed int64) (tmin, area float64, err error) {
			c := iscas.MustGenerate(spec)
			if _, err := wire.Apply(c, wire.Default025()); err != nil {
				return 0, 0, err
			}
			if seed > 0 {
				if _, err := wire.Perturb(c, spread, seed); err != nil {
					return 0, 0, err
				}
			}
			pa, _, err := sta.CriticalPath(c, e.Model, sta.Config{})
			if err != nil {
				return 0, 0, err
			}
			r, err := sizing.Tmin(e.Model, pa.Clone(), sizing.Options{})
			if err != nil {
				return 0, 0, err
			}
			d, err := sizing.Distribute(e.Model, pa, 1.3*r.Delay, sizing.Options{})
			if err != nil {
				return 0, 0, err
			}
			return r.Delay, d.Area, nil
		}
		base, areaBase, err := measure(0)
		if err != nil {
			return nil, err
		}
		row := WireUncertaintyRow{
			Name: name, Spread: spread,
			TminBase: base, TminWorst: base,
			AreaBase: areaBase, AreaWorst: areaBase,
			SeedsTried: seeds,
		}
		for s := int64(1); s <= int64(seeds); s++ {
			tm, ar, err := measure(s)
			if err != nil {
				return nil, err
			}
			if math.Abs(tm-base) > math.Abs(row.TminWorst-base) {
				row.TminWorst = tm
			}
			if math.Abs(ar-areaBase) > math.Abs(row.AreaWorst-areaBase) {
				row.AreaWorst = ar
			}
		}
		row.DriftPct = math.Abs(row.TminWorst-base) / base * 100
		row.AreaDrift = math.Abs(row.AreaWorst-areaBase) / areaBase * 100
		rows = append(rows, row)
	}
	return rows, nil
}

// WireUncertaintyTable renders the sweep.
func WireUncertaintyTable(rows []WireUncertaintyRow) *report.Table {
	t := report.NewTable("Wire-load uncertainty — drift of Tmin and constrained area",
		"Circuit", "spread", "Tmin (ps)", "Tmin drift %", "area (µm)", "area drift %")
	for _, r := range rows {
		t.AddRow(r.Name, fmt.Sprintf("±%.0f%%", r.Spread*100),
			r.TminBase, r.DriftPct, r.AreaBase, r.AreaDrift)
	}
	t.AddNote("the deterministic protocol re-runs in milliseconds instead of carrying a blanket margin (§2)")
	return t
}

// SeedSweepRow captures Table 3's buffer gain across generator seeds —
// robustness of the reproduction's shape to the synthetic circuits.
type SeedSweepRow struct {
	Name     string
	Gains    []float64 // percent, one per seed
	MeanGain float64
	MinGain  float64
	MaxGain  float64
}

// SeedSweep re-runs the Table 3 comparison across generator seeds.
func (e *Env) SeedSweep(name string, seeds int) (*SeedSweepRow, error) {
	if seeds <= 0 {
		seeds = 4
	}
	spec, err := iscas.ByName(name)
	if err != nil {
		return nil, err
	}
	row := &SeedSweepRow{Name: name, MinGain: math.Inf(1), MaxGain: math.Inf(-1)}
	for s := 0; s < seeds; s++ {
		sp := spec
		sp.Seed = int64(s * 7919)
		c, err := iscas.Generate(sp)
		if err != nil {
			return nil, err
		}
		pa, _, err := sta.CriticalPath(c, e.Model, sta.Config{})
		if err != nil {
			return nil, err
		}
		sized := pa.Clone()
		plain, err := sizing.Tmin(e.Model, sized, sizing.Options{})
		if err != nil {
			return nil, err
		}
		buf, err := buffering.MinDelayWithBuffers(e.Model, pa, buffering.Solved{Path: sized, Result: plain}, e.Limits, sizing.Options{})
		if err != nil {
			return nil, err
		}
		gain := (plain.Delay - buf.Delay) / plain.Delay * 100
		row.Gains = append(row.Gains, gain)
		row.MeanGain += gain
		row.MinGain = math.Min(row.MinGain, gain)
		row.MaxGain = math.Max(row.MaxGain, gain)
	}
	row.MeanGain /= float64(len(row.Gains))
	return row, nil
}

// SeedSweepTable renders the robustness sweep.
func SeedSweepTable(rows []*SeedSweepRow) *report.Table {
	t := report.NewTable("Table 3 robustness — buffer-insertion gain across generator seeds",
		"Circuit", "seeds", "mean gain %", "min %", "max %")
	for _, r := range rows {
		t.AddRow(r.Name, len(r.Gains), r.MeanGain, r.MinGain, r.MaxGain)
	}
	return t
}
