// Package calib fits the closed-form model's parameters from
// transistor-level measurements, reproducing the paper's methodology:
// the transition-time model of eq. (2-3) is "directly calibrated from
// SPICE simulation". The symmetry prefactor S0 is extracted from the
// reference inverter (whose logical weight is 1 by definition) and the
// per-type logical weights DW follow from load-sweep slopes:
//
//	τ_out = S·τ·C_L/C_IN  with  S_HL = S0·(1+k)·DW_HL
//	                            S_LH = S0·(1+k)·(R/k)·DW_LH
//
// so ∂τ_out/∂C_L = S·τ/C_IN is measured by simulating the same stage
// under two external loads and differencing — the intercept (the
// gate's own parasitic) cancels.
package calib

import (
	"fmt"
	"math"

	"repro/internal/delay"
	"repro/internal/gate"
	"repro/internal/spice"
	"repro/internal/tech"
)

// EdgeWeights is a fitted (DW_HL, DW_LH) pair.
type EdgeWeights struct {
	HL, LH float64
}

// Result is a completed calibration.
type Result struct {
	// S0 is the fitted symmetry prefactor.
	S0 float64
	// Weights maps gate types to fitted logical weights.
	Weights map[gate.Type]EdgeWeights
	// LibraryRMS is the root-mean-square relative deviation between
	// the fitted weights and the library's values — the validation
	// metric of the characterization.
	LibraryRMS float64
}

// measureSlopes simulates a two-stage chain (reference inverter →
// gate, the gate at 8×CREF) under external fan-outs of 3 and 9 and
// returns the gate's per-edge transition slopes S_HL and S_LH
// (dimensionless, in units of τ).
func measureSlopes(sim *spice.Simulator, p *tech.Process, gt gate.Type) (sHL, sLH float64, err error) {
	cell, err := gate.Lookup(gt)
	if err != nil {
		return 0, 0, err
	}
	if !cell.Invert {
		return 0, 0, fmt.Errorf("calib: %v is not an inverting primitive", gt)
	}
	inv := gate.MustLookup(gate.Inv)
	cin := 8 * p.CRef
	loads := [2]float64{3, 9}
	tau := make(map[bool][2]float64) // gate output edge rising? → taus at the two loads
	for li, f := range loads {
		pa := &delay.Path{
			Name:  fmt.Sprintf("calib/%v/F%.0f", gt, f),
			TauIn: delay.DefaultTauIn(p),
			Stages: []delay.Stage{
				{Cell: inv, CIn: 4 * p.CRef, COff: 0},
				{Cell: cell, CIn: cin, COff: f * cin},
			},
		}
		for _, risingInput := range []bool{true, false} {
			m, err := sim.SimulatePath(pa, risingInput)
			if err != nil {
				return 0, 0, err
			}
			// Input rising → inv falls → gate output rises.
			gateRising := risingInput
			t := tau[gateRising]
			t[li] = m.StageTau[1]
			tau[gateRising] = t
		}
	}
	dCL := (loads[1] - loads[0]) * cin
	// τ = S·τ_proc·C_L/C_IN  ⇒  S = C_IN·Δτ/(τ_proc·ΔC_L).
	sHL = cin * (tau[false][1] - tau[false][0]) / (p.Tau * dCL)
	sLH = cin * (tau[true][1] - tau[true][0]) / (p.Tau * dCL)
	if sHL <= 0 || sLH <= 0 {
		return 0, 0, fmt.Errorf("calib: non-positive slope for %v (%g, %g)", gt, sHL, sLH)
	}
	return sHL, sLH, nil
}

// Calibrate fits S0 and the logical weights of the given inverting
// primitives (INV is always included: it anchors S0).
func Calibrate(p *tech.Process, sim *spice.Simulator, types []gate.Type) (*Result, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if sim == nil {
		sim = spice.New(p)
	}

	// Anchor: the inverter's weights are 1 by definition, so its two
	// edges give two independent S0 estimates; average them.
	invHL, invLH, err := measureSlopes(sim, p, gate.Inv)
	if err != nil {
		return nil, err
	}
	s0FromHL := invHL / (1 + p.K)
	s0FromLH := invLH / ((1 + p.K) * p.R / p.K)
	res := &Result{
		S0:      (s0FromHL + s0FromLH) / 2,
		Weights: map[gate.Type]EdgeWeights{gate.Inv: {HL: invHL / (s0FromHL * (1 + p.K)), LH: 1}},
	}
	// Re-derive INV weights against the averaged S0 (≈1 by
	// construction; deviation measures edge-model asymmetry error).
	res.Weights[gate.Inv] = EdgeWeights{
		HL: invHL / (res.S0 * (1 + p.K)),
		LH: invLH / (res.S0 * (1 + p.K) * p.R / p.K),
	}

	seen := map[gate.Type]bool{gate.Inv: true}
	var sumSq float64
	var cnt int
	accumulate := func(gt gate.Type, w EdgeWeights) {
		cell := gate.MustLookup(gt)
		for _, pair := range [][2]float64{{w.HL, cell.DWHL}, {w.LH, cell.DWLH}} {
			rel := (pair[0] - pair[1]) / pair[1]
			sumSq += rel * rel
			cnt++
		}
	}
	accumulate(gate.Inv, res.Weights[gate.Inv])

	for _, gt := range types {
		if seen[gt] {
			continue
		}
		seen[gt] = true
		sHL, sLH, err := measureSlopes(sim, p, gt)
		if err != nil {
			return nil, err
		}
		w := EdgeWeights{
			HL: sHL / (res.S0 * (1 + p.K)),
			LH: sLH / (res.S0 * (1 + p.K) * p.R / p.K),
		}
		res.Weights[gt] = w
		accumulate(gt, w)
	}
	if cnt > 0 {
		res.LibraryRMS = math.Sqrt(sumSq / float64(cnt))
	}
	return res, nil
}

// DefaultTypes lists the primitives worth calibrating (all inverting
// cells of the library).
func DefaultTypes() []gate.Type {
	return []gate.Type{gate.Nand2, gate.Nand3, gate.Nand4, gate.Nor2, gate.Nor3, gate.Nor4}
}
