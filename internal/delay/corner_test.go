package delay

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/gate"
	"repro/internal/tech"
)

// refMiller is millerFactor written out on its own.
func refMiller(m *Model, ratio, cin, cl float64) float64 {
	if !m.CoupleMiller || cin <= 0 {
		return 1
	}
	cm := ratio * cin
	return 1 + 2*cm/(cm+cl)
}

// TestCornerConstantsBitExact pins the snapshotted corner constants of
// NewModel: every eq. (1-3) evaluation must equal, bit for bit, the same
// formula written with the gate.Cell and tech.Process methods the
// constants replace — the default corner and seeded perturbations of
// it (so a reassociated constant cannot pass by luck of round
// numbers), every primitive, both ablation flags on and off, every Vt
// class, and a spread of sizes, loads and input slopes.
func TestCornerConstantsBitExact(t *testing.T) {
	corners := []*tech.Process{tech.CMOS025()}
	rng := rand.New(rand.NewSource(7))
	for range 4 {
		p := tech.CMOS025().Clone()
		p.S0 = 0.4 + 0.5*rng.Float64()
		p.K = 0.8 + 1.7*rng.Float64()
		p.R = 1.5 + 2*rng.Float64()
		p.VTN = 0.1 + 0.2*rng.Float64()
		p.VTP = 0.1 + 0.2*rng.Float64()
		p.Tau = 10 + 20*rng.Float64()
		corners = append(corners, p)
	}
	for _, p := range corners {
		testCornerBitExact(t, p)
	}
}

func testCornerBitExact(t *testing.T, p *tech.Process) {
	t.Helper()
	same := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
	for _, slope := range []bool{true, false} {
		for _, miller := range []bool{true, false} {
			m := NewModel(p)
			m.SlopeEffect, m.CoupleMiller = slope, miller
			for _, ty := range gate.Primitives() {
				c := gate.MustLookup(ty)
				for _, cin := range []float64{0.55, 0.9, 2.7, 11.3, 64.1} {
					for _, cl := range []float64{0.3, 3.7, 45.25, 917} {
						trHL := c.SHL(p) * p.Tau * cl / cin
						trLH := c.SLH(p) * p.Tau * cl / cin
						trMean := c.SMean(p) * p.Tau * cl / cin
						if !same(m.TransitionHL(c, cin, cl), trHL) ||
							!same(m.TransitionLH(c, cin, cl), trLH) ||
							!same(m.TransitionMean(c, cin, cl), trMean) {
							t.Fatalf("%v cin %g cl %g (slope %v, miller %v): transitions diverged", ty, cin, cl, slope, miller)
						}
						for _, tau := range []float64{0, 12.5, 80.3, 411} {
							dHL := refMiller(m, p.MillerHL(), cin, cl) / 2 * trHL
							dLH := refMiller(m, p.MillerLH(), cin, cl) / 2 * trLH
							dMean := refMiller(m, 0.25, cin, cl) / 2 * trMean
							if slope {
								dHL += p.VTN / 2 * tau
								dLH += p.VTP / 2 * tau
								dMean += p.VTMean() / 2 * tau
							}
							if !same(m.GateDelayHL(c, cin, cl, tau), dHL) ||
								!same(m.GateDelayLH(c, cin, cl, tau), dLH) ||
								!same(m.GateDelayMean(c, cin, cl, tau), dMean) {
								t.Fatalf("%v cin %g cl %g tau %g (slope %v, miller %v): delays diverged",
									ty, cin, cl, tau, slope, miller)
							}
							for _, v := range tech.VtClasses() {
								vHL := refMiller(m, p.MillerHL(), cin, cl) / 2 * m.TransitionHLVt(c, cin, cl, v)
								vLH := refMiller(m, p.MillerLH(), cin, cl) / 2 * m.TransitionLHVt(c, cin, cl, v)
								if slope {
									vHL += p.VtShiftN(v) / 2 * tau
									vLH += p.VtShiftP(v) / 2 * tau
								}
								if !same(m.GateDelayHLVt(c, cin, cl, tau, v), vHL) ||
									!same(m.GateDelayLHVt(c, cin, cl, tau, v), vLH) {
									t.Fatalf("%v %v cin %g cl %g tau %g (slope %v, miller %v): Vt delays diverged",
										ty, v, cin, cl, tau, slope, miller)
								}
							}
						}
					}
				}
			}

			// B coefficients over a path holding every primitive.
			pa := mkPath(gate.Primitives(), 1, 2.5, 80)
			for i := range pa.Stages {
				pa.Stages[i].CIn = 0.7 + 1.9*float64(i)
			}
			b := m.BCoefficients(pa)
			for i := range pa.Stages {
				st := &pa.Stages[i]
				h := st.Cell.SMean(p) * p.Tau / 2
				coef := h * refMiller(m, 0.25, st.CIn, pa.LoadAt(i))
				if slope && i+1 < len(pa.Stages) {
					coef += h * p.VTMean()
				}
				if !same(b[i], coef) {
					t.Fatalf("stage %d (slope %v, miller %v): B %v, formula %v", i, slope, miller, b[i], coef)
				}
			}
		}
	}
}
