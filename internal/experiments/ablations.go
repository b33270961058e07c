package experiments

import (
	"repro/internal/delay"
	"repro/internal/le"
	"repro/internal/report"
	"repro/internal/sizing"
)

// Ablations quantify the design choices DESIGN.md calls out: the
// modelling ingredients of eq. (1) (input slope, Miller coupling), the
// constraint-distribution strategy, and the seeding of the Tmin fixed
// point.

// AblationRow is one ablation measurement.
type AblationRow struct {
	Name     string
	Baseline float64
	Ablated  float64
	DeltaPct float64
}

// AblationSlope measures how much of the minimum path delay the
// input-slope term of eq. (1) accounts for.
func (e *Env) AblationSlope(name string) (*AblationRow, error) {
	pa, _, err := e.criticalPath(name)
	if err != nil {
		return nil, err
	}
	base, err := sizing.Tmin(e.Model, pa.Clone(), sizing.Options{})
	if err != nil {
		return nil, err
	}
	ablated := delay.NewModel(e.Proc)
	ablated.SlopeEffect = false
	ab, err := sizing.Tmin(ablated, pa.Clone(), sizing.Options{})
	if err != nil {
		return nil, err
	}
	return &AblationRow{
		Name:     "slope effect (" + name + ")",
		Baseline: base.Delay,
		Ablated:  ab.Delay,
		DeltaPct: (base.Delay - ab.Delay) / base.Delay * 100,
	}, nil
}

// AblationMiller measures the input-to-output coupling contribution.
func (e *Env) AblationMiller(name string) (*AblationRow, error) {
	pa, _, err := e.criticalPath(name)
	if err != nil {
		return nil, err
	}
	base, err := sizing.Tmin(e.Model, pa.Clone(), sizing.Options{})
	if err != nil {
		return nil, err
	}
	ablated := delay.NewModel(e.Proc)
	ablated.CoupleMiller = false
	ab, err := sizing.Tmin(ablated, pa.Clone(), sizing.Options{})
	if err != nil {
		return nil, err
	}
	return &AblationRow{
		Name:     "Miller coupling (" + name + ")",
		Baseline: base.Delay,
		Ablated:  ab.Delay,
		DeltaPct: (base.Delay - ab.Delay) / base.Delay * 100,
	}, nil
}

// AblationSutherland compares the constant-sensitivity area to the
// Sutherland equal-delay distribution across constraint levels.
func (e *Env) AblationSutherland(name string, ratios []float64) ([]AblationRow, error) {
	if len(ratios) == 0 {
		ratios = []float64{1.2, 1.5, 2.0}
	}
	var rows []AblationRow
	for _, ratio := range ratios {
		pa, _, err := e.criticalPath(name)
		if err != nil {
			return nil, err
		}
		rt, err := sizing.Tmin(e.Model, pa.Clone(), sizing.Options{})
		if err != nil {
			return nil, err
		}
		tc := ratio * rt.Delay
		cs, err := sizing.Distribute(e.Model, pa.Clone(), tc, sizing.Options{})
		if err != nil {
			return nil, err
		}
		su, err := sizing.SutherlandDistribute(e.Model, pa.Clone(), tc, sizing.Options{})
		if err != nil {
			return nil, err
		}
		rows = append(rows, AblationRow{
			Name:     "Sutherland vs const-sensitivity area @" + ratioLabel(ratio),
			Baseline: cs.Area,
			Ablated:  su.Area,
			DeltaPct: (su.Area - cs.Area) / cs.Area * 100,
		})
	}
	return rows, nil
}

func ratioLabel(r float64) string {
	switch {
	case r < 1.3:
		return "1.2Tmin"
	case r < 1.8:
		return "1.5Tmin"
	default:
		return "2.0Tmin"
	}
}

// AblationSeeding verifies the paper's claim that the Tmin fixed point
// is independent of the CREF seed: it re-runs the iteration with a 5×
// smaller minimum drive and reports the relative deviation.
func (e *Env) AblationSeeding(name string) (*AblationRow, error) {
	pa, _, err := e.criticalPath(name)
	if err != nil {
		return nil, err
	}
	base, err := sizing.Tmin(e.Model, pa.Clone(), sizing.Options{})
	if err != nil {
		return nil, err
	}
	proc2 := e.Proc.Clone()
	proc2.CRef /= 5
	m2 := delay.NewModel(proc2)
	alt, err := sizing.Tmin(m2, pa.Clone(), sizing.Options{})
	if err != nil {
		return nil, err
	}
	return &AblationRow{
		Name:     "Tmin seeding, CREF/5 (" + name + ")",
		Baseline: base.Delay,
		Ablated:  alt.Delay,
		DeltaPct: (alt.Delay - base.Delay) / base.Delay * 100,
	}, nil
}

// AblationLogicalEffort compares classic logical-effort sizing
// (reference [4] of the paper) against the eq. (4) fixed point: the
// LE solution evaluated under the full eq. (1) model can only be
// slower, by the margin its no-slope/no-Miller assumptions cost.
func (e *Env) AblationLogicalEffort(name string) (*AblationRow, error) {
	pa, _, err := e.criticalPath(name)
	if err != nil {
		return nil, err
	}
	rt, err := sizing.Tmin(e.Model, pa.Clone(), sizing.Options{})
	if err != nil {
		return nil, err
	}
	a, err := le.Analyze(pa, e.Proc)
	if err != nil {
		return nil, err
	}
	leSized := le.ApplySizes(pa, a, e.Proc)
	leDelay := e.Model.PathDelayWorst(leSized)
	return &AblationRow{
		Name:     "logical-effort sizing vs eq.(4) Tmin (" + name + ")",
		Baseline: rt.Delay,
		Ablated:  leDelay,
		DeltaPct: (leDelay - rt.Delay) / rt.Delay * 100,
	}, nil
}

// AblationTable renders ablation rows.
func AblationTable(rows []AblationRow) *report.Table {
	t := report.NewTable("Ablations — contribution of modelling/design choices",
		"Ablation", "baseline", "ablated", "delta %")
	for _, r := range rows {
		t.AddRow(r.Name, r.Baseline, r.Ablated, r.DeltaPct)
	}
	return t
}
