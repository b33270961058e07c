package delay

import (
	"repro/internal/gate"
	"repro/internal/tech"
)

// Vt-aware evaluation of the closed-form model. A non-SVT device shifts
// the reduced threshold of the eq. (1) slope term by ΔVT and scales the
// eq. (2) output transition by the inverse of the alpha-power drive
// ratio (a high-Vt gate switches less current, so its edges are slower).
// Every function delegates to its SVT counterpart bit-exactly when the
// class is SVT, so circuits that never leave the default class produce
// byte-identical timing to the pre-multi-Vt model — the invariant the
// engine's equivalence tests rely on. The alpha-power drive ratios are
// read from the tables NewModel fills, not recomputed per gate, and so
// are the classes' halved slope thresholds.

// TransitionHLVt returns the falling output transition time (ps) of
// cell c at Vt class v.
func (m *Model) TransitionHLVt(c gate.Cell, cin, cl float64, v tech.VtClass) float64 {
	t := m.TransitionHL(c, cin, cl)
	if v != tech.SVT {
		t /= m.driveN[v]
	}
	return t
}

// TransitionLHVt returns the rising output transition time (ps) of
// cell c at Vt class v.
func (m *Model) TransitionLHVt(c gate.Cell, cin, cl float64, v tech.VtClass) float64 {
	t := m.TransitionLH(c, cin, cl)
	if v != tech.SVT {
		t /= m.driveP[v]
	}
	return t
}

// GateDelayHLVt returns the eq. (1) falling-output delay (ps) of cell c
// at Vt class v: input rising with transition time tauInLH, load cl.
func (m *Model) GateDelayHLVt(c gate.Cell, cin, cl, tauInLH float64, v tech.VtClass) float64 {
	if v == tech.SVT {
		return m.GateDelayHL(c, cin, cl, tauInLH)
	}
	t := m.millerFactor(m.millerHL, cin, cl) / 2 * m.TransitionHLVt(c, cin, cl, v)
	if m.SlopeEffect {
		t += m.shiftN2[v] * tauInLH
	}
	return t
}

// GateDelayLHVt returns the eq. (1) rising-output delay (ps) of cell c
// at Vt class v: input falling with transition time tauInHL, load cl.
func (m *Model) GateDelayLHVt(c gate.Cell, cin, cl, tauInHL float64, v tech.VtClass) float64 {
	if v == tech.SVT {
		return m.GateDelayLH(c, cin, cl, tauInHL)
	}
	t := m.millerFactor(m.millerLH, cin, cl) / 2 * m.TransitionLHVt(c, cin, cl, v)
	if m.SlopeEffect {
		t += m.shiftP2[v] * tauInHL
	}
	return t
}

// GateTerms is a gate's eq. (1) timing split at its input transition:
// the parts fixed by the gate itself (cell, size, load, Vt class) are
// computed once, and each fan-in edge adds only its slope term. The
// delays it yields equal GateDelayHLVt/LHVt bit for bit.
type GateTerms struct {
	// TauHL and TauLH are the output transitions (ps), as returned by
	// TransitionHLVt and TransitionLHVt.
	TauHL, TauLH float64
	// DHL and DLH are the slope-independent delays (ps):
	// ½·(1 + 2C_M/(C_M+C_L))·τ_out of each output edge.
	DHL, DLH float64
	// KHL and KLH are the slope coefficients v_T/2 of the class's
	// shifted thresholds (VtShiftN/2, VtShiftP/2).
	KHL, KLH float64

	slope bool // the model's SlopeEffect
}

// GateTermsVt returns the gate-level terms of cell c at Vt class v with
// input capacitance cin driving load cl.
func (m *Model) GateTermsVt(c gate.Cell, cin, cl float64, v tech.VtClass) GateTerms {
	tauHL := m.TransitionHLVt(c, cin, cl, v)
	tauLH := m.TransitionLHVt(c, cin, cl, v)
	return GateTerms{
		TauHL: tauHL,
		TauLH: tauLH,
		DHL:   m.millerFactor(m.millerHL, cin, cl) / 2 * tauHL,
		DLH:   m.millerFactor(m.millerLH, cin, cl) / 2 * tauLH,
		KHL:   m.shiftN2[v],
		KLH:   m.shiftP2[v],
		slope: m.SlopeEffect,
	}
}

// DelayHL returns the falling-output delay (ps) for an input rising
// with transition time tauInLH: GateDelayHLVt of the same gate.
func (g *GateTerms) DelayHL(tauInLH float64) float64 {
	t := g.DHL
	if g.slope {
		t += g.KHL * tauInLH
	}
	return t
}

// DelayLH returns the rising-output delay (ps) for an input falling
// with transition time tauInHL: GateDelayLHVt of the same gate.
func (g *GateTerms) DelayLH(tauInHL float64) float64 {
	t := g.DLH
	if g.slope {
		t += g.KLH * tauInHL
	}
	return t
}
