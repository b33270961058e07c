package calib

import (
	"math"
	"testing"

	"repro/internal/gate"
	"repro/internal/spice"
	"repro/internal/tech"
)

func TestCalibrateInverterAnchors(t *testing.T) {
	p := tech.CMOS025()
	res, err := Calibrate(p, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.S0 <= 0 {
		t.Fatalf("S0 = %g", res.S0)
	}
	// The inverter's fitted weights must straddle 1 (it anchors the
	// fit); deviation measures edge-asymmetry mismatch only.
	w := res.Weights[gate.Inv]
	if w.HL < 0.6 || w.HL > 1.6 || w.LH < 0.6 || w.LH > 1.6 {
		t.Fatalf("inverter weights off anchor: %+v", w)
	}
	// Geometric mean of the two edges is 1 by construction of S0.
	if gm := math.Sqrt(w.HL * w.LH); math.Abs(gm-1) > 0.15 {
		t.Fatalf("inverter weight geometric mean %g", gm)
	}
}

func TestCalibrateS0NearLibrary(t *testing.T) {
	// The fitted prefactor should land in the neighbourhood of the
	// library's S0 — the simulator was calibrated to the model at
	// path level, so they cannot be wildly apart.
	p := tech.CMOS025()
	res, err := Calibrate(p, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if ratio := res.S0 / p.S0; ratio < 0.5 || ratio > 2.0 {
		t.Fatalf("fitted S0 %g vs library %g (ratio %g)", res.S0, p.S0, ratio)
	}
}

func TestCalibrateStackWeightsOrdered(t *testing.T) {
	// Deeper stacks must fit larger weights on their stacked edge:
	// DW_HL(nand3) > DW_HL(nand2) > DW_HL(inv)≈1, and mirrored for
	// NOR on the rising edge.
	p := tech.CMOS025()
	res, err := Calibrate(p, nil, []gate.Type{gate.Nand2, gate.Nand3, gate.Nor2, gate.Nor3})
	if err != nil {
		t.Fatal(err)
	}
	if !(res.Weights[gate.Nand3].HL > res.Weights[gate.Nand2].HL) {
		t.Fatalf("NAND stack ordering broken: %+v", res.Weights)
	}
	if !(res.Weights[gate.Nor3].LH > res.Weights[gate.Nor2].LH) {
		t.Fatalf("NOR stack ordering broken: %+v", res.Weights)
	}
	if res.Weights[gate.Nand2].HL < 1.05 {
		t.Fatalf("NAND2 stacked edge weight %g not above inverter", res.Weights[gate.Nand2].HL)
	}
}

func TestCalibrateMatchesLibraryWithin(t *testing.T) {
	// The library's hand-calibrated weights and a fresh fit from the
	// transistor simulator agree to a reasonable RMS — the same
	// validation the paper performs against HSPICE.
	p := tech.CMOS025()
	res, err := Calibrate(p, nil, DefaultTypes())
	if err != nil {
		t.Fatal(err)
	}
	if res.LibraryRMS > 0.5 {
		t.Fatalf("library RMS deviation %.2f too large", res.LibraryRMS)
	}
	if len(res.Weights) != len(DefaultTypes())+1 {
		t.Fatalf("weights for %d types, want %d", len(res.Weights), len(DefaultTypes())+1)
	}
}

func TestCalibrateRejectsNonInverting(t *testing.T) {
	p := tech.CMOS025()
	if _, err := Calibrate(p, nil, []gate.Type{gate.Buf}); err == nil {
		t.Fatal("BUF accepted for calibration")
	}
	if _, err := Calibrate(p, nil, []gate.Type{gate.And2}); err == nil {
		t.Fatal("composite accepted for calibration")
	}
}

func TestCalibrateDeterministic(t *testing.T) {
	p := tech.CMOS025()
	sim := spice.New(p)
	a, err := Calibrate(p, sim, []gate.Type{gate.Nand2})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Calibrate(p, sim, []gate.Type{gate.Nand2})
	if err != nil {
		t.Fatal(err)
	}
	if a.S0 != b.S0 || a.Weights[gate.Nand2] != b.Weights[gate.Nand2] {
		t.Fatal("calibration not deterministic")
	}
}

func TestCalibrateBadCorner(t *testing.T) {
	p := tech.CMOS025()
	p.Tau = -1
	if _, err := Calibrate(p, nil, nil); err == nil {
		t.Fatal("invalid corner accepted")
	}
}
