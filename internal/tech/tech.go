// Package tech models the CMOS process technology underlying the POPS
// optimization protocol (Verle et al., DATE 2005).
//
// The paper's experiments target a 0.25 µm industrial process. Only a
// handful of abstracted parameters reach the delay model of eq. (1-3):
// the process time unit τ, the N/P current ratio R, the library P/N
// configuration ratio k, the reduced transistor thresholds vTN and vTP,
// the gate capacitance per micron of transistor width, and the minimum
// available drive CREF. This package defines those parameters, a
// calibrated 0.25 µm-class default corner, and the handful of derived
// quantities (Miller coupling ratios, symmetry-factor prefactors) shared
// by every downstream package.
//
// Units used throughout the repository: time in picoseconds (ps),
// capacitance in femtofarads (fF), transistor width in microns (µm),
// voltage in volts (V), current in microamperes (µA).
package tech

import (
	"errors"
	"fmt"
)

// Process holds the abstracted technology parameters consumed by the
// closed-form delay model and by the transistor-level simulator.
type Process struct {
	// Name identifies the corner, e.g. "cmos025".
	Name string

	// Tau is the process metric time unit τ of eq. (2), in ps. It
	// characterizes the intrinsic speed of the process.
	Tau float64

	// R is the ratio of the current available in an N transistor to
	// that of a P transistor of identical width (µN/µP effective).
	R float64

	// K is the library P/N configuration ratio k = WP/WN used for the
	// reference inverter and, by convention, all library cells.
	K float64

	// VTN and VTP are the reduced threshold voltages VT/VDD of the N
	// and P transistors (dimensionless, eq. 1).
	VTN float64
	VTP float64

	// S0 is the dimensionless symmetry-factor prefactor calibrating
	// eq. (3) against the process: S_HL = S0·(1+k)·DW_HL.
	S0 float64

	// CgPerMicron is the gate capacitance per micron of transistor
	// width, in fF/µm. Input pin capacitance is CgPerMicron·(WN+WP).
	CgPerMicron float64

	// CRef is the input capacitance of the minimum available drive
	// (the smallest library inverter), in fF. It seeds the Tmin
	// iteration of §3.1 and is the lower clamp of every sizing
	// variable.
	CRef float64

	// CMax is the input capacitance of the largest realizable drive,
	// in fF. It bounds the optimization space from above.
	CMax float64

	// VDD is the supply voltage in volts (transistor-level simulator
	// only; the closed-form model is supply-normalized).
	VDD float64

	// Alpha is the alpha-power-law velocity-saturation index used by
	// the transistor-level simulator (α = 2 is the long-channel
	// Shichman-Hodges limit; deep submicron sits near 1.3-1.5).
	Alpha float64

	// KPN is the N transconductance factor of the alpha-power model,
	// in µA/µm at (VGS-VT) = 1 V. The P factor is KPN/R.
	KPN float64

	// VDSatRatio is the fraction of (VGS-VT) at which the simulated
	// device enters saturation (Sakurai-Newton linear/saturation
	// boundary).
	VDSatRatio float64

	// CDiffPerMicron is the drain diffusion capacitance per micron of
	// transistor width, in fF/µm. It sets the self-loading parasitic
	// of every gate.
	CDiffPerMicron float64

	// Vt is the multi-threshold extension of the corner: per-VtClass
	// threshold shifts and subthreshold leakage currents (vt.go). The
	// SVT entry is the unshifted reference device of eq. (1-3).
	Vt [NumVtClasses]VtSpec
}

// CMOS025 returns the default 0.25 µm-class corner used by all paper
// experiments. The values are representative of published 0.25 µm data
// (VDD = 2.5 V, FO4 inverter delay around 90-110 ps) and are chosen so
// that path delays land in the same picosecond/nanosecond range as the
// paper's tables.
func CMOS025() *Process {
	return &Process{
		Name: "cmos025",
		Tau:  18.0, // ps
		R:    2.4,
		K:    1.15, // low-power libraries keep P/N near unity

		VTN:            0.20, // 0.50 V / 2.5 V
		VTP:            0.22, // 0.55 V / 2.5 V
		S0:             0.62,
		CgPerMicron:    2.0,  // fF/µm
		CRef:           1.7,  // fF  (min inverter: WN=0.3 µm, WP=0.55 µm)
		CMax:           1700, // fF  (1000× the minimum drive)
		VDD:            2.5,
		Alpha:          1.35,
		KPN:            218.0, // µA/µm at 1 V overdrive (calibrated to eq. 1-3)
		VDSatRatio:     0.45,
		CDiffPerMicron: 1.6, // fF/µm
		Vt:             defaultVt025(),
	}
}

// Validate checks that the corner is physically meaningful. Every
// constructor of downstream packages calls it before use.
func (p *Process) Validate() error {
	if p == nil {
		return errors.New("tech: nil process")
	}
	checks := []struct {
		ok  bool
		msg string
	}{
		{p.Tau > 0, "time unit Tau must be positive"},
		{p.R > 0, "current ratio R must be positive"},
		{p.K > 0, "configuration ratio K must be positive"},
		{p.VTN > 0 && p.VTN < 1, "reduced threshold VTN must lie in (0,1)"},
		{p.VTP > 0 && p.VTP < 1, "reduced threshold VTP must lie in (0,1)"},
		{p.S0 > 0, "symmetry prefactor S0 must be positive"},
		{p.CgPerMicron > 0, "gate capacitance per micron must be positive"},
		{p.CRef > 0, "minimum drive CRef must be positive"},
		{p.CMax > p.CRef, "maximum drive CMax must exceed CRef"},
		{p.VDD > 0, "supply VDD must be positive"},
		{p.Alpha >= 1 && p.Alpha <= 2, "alpha-power index must lie in [1,2]"},
		{p.KPN > 0, "transconductance KPN must be positive"},
		{p.VDSatRatio > 0 && p.VDSatRatio <= 1, "VDSatRatio must lie in (0,1]"},
		{p.CDiffPerMicron >= 0, "diffusion capacitance must be non-negative"},
	}
	for _, c := range checks {
		if !c.ok {
			return fmt.Errorf("tech: %s (corner %q)", c.msg, p.Name)
		}
	}
	return p.validateVt()
}

// Clone returns an independent copy of the corner, so experiments can
// perturb parameters (ablations) without aliasing the shared default.
func (p *Process) Clone() *Process {
	q := *p
	return &q
}

// MillerHL returns the ratio C_M/C_IN for an input rising edge (output
// falling). Per the paper, C_M is evaluated as one half the input
// capacitance of the P transistor: k/(2(1+k)) of the pin capacitance.
func (p *Process) MillerHL() float64 { return p.K / (2 * (1 + p.K)) }

// MillerLH returns the ratio C_M/C_IN for an input falling edge (output
// rising): one half the input capacitance of the N transistor,
// 1/(2(1+k)) of the pin capacitance.
func (p *Process) MillerLH() float64 { return 1 / (2 * (1 + p.K)) }

// VTMean returns the average reduced threshold, used by the
// edge-averaged path optimization objective.
func (p *Process) VTMean() float64 { return (p.VTN + p.VTP) / 2 }

// WidthForCap converts an input pin capacitance (fF) into the total
// transistor width WN+WP (µm) realizing it.
func (p *Process) WidthForCap(c float64) float64 { return c / p.CgPerMicron }

// WN splits a total width WN+WP into its N component using the
// configuration ratio k.
func (p *Process) WN(total float64) float64 { return total / (1 + p.K) }

// WP splits a total width WN+WP into its P component using the
// configuration ratio k.
func (p *Process) WP(total float64) float64 { return total * p.K / (1 + p.K) }

// ClampCap restricts an input capacitance to the realizable drive range
// [CRef, CMax].
func (p *Process) ClampCap(c float64) float64 {
	if c < p.CRef {
		return p.CRef
	}
	if c > p.CMax {
		return p.CMax
	}
	return c
}

// FO4 returns the canonical fan-out-of-4 inverter delay of the corner in
// ps, a sanity metric used by tests and documentation. It evaluates the
// eq. (1) falling delay of an inverter loaded by four copies of itself,
// driven by an identical stage (so the input slope is self-consistent).
func (p *Process) FO4() float64 {
	// Inverter symmetry factors (logical weight 1 on both edges).
	sHL := p.S0 * (1 + p.K)
	sLH := p.S0 * (1 + p.K) * p.R / p.K
	// Output transition driving F = 4, and the same for the driver.
	tauOutHL := sHL * p.Tau * 4
	tauInLH := sLH * p.Tau * 4
	cm := p.MillerHL()
	// Miller factor with C_L = 4·C_IN: 1 + 2cm/(cm+4).
	m := 1 + 2*cm/(cm+4)
	return p.VTN/2*tauInLH + m/2*tauOutHL
}
