package tech

import (
	"math"
	"testing"
	"testing/quick"
)

func TestCMOS025Valid(t *testing.T) {
	if err := CMOS025().Validate(); err != nil {
		t.Fatalf("default corner invalid: %v", err)
	}
}

func TestValidateNil(t *testing.T) {
	var p *Process
	if err := p.Validate(); err == nil {
		t.Fatal("nil process must not validate")
	}
}

func TestValidateRejectsBadFields(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*Process)
	}{
		{"zero tau", func(p *Process) { p.Tau = 0 }},
		{"negative tau", func(p *Process) { p.Tau = -1 }},
		{"zero R", func(p *Process) { p.R = 0 }},
		{"zero K", func(p *Process) { p.K = 0 }},
		{"vtn zero", func(p *Process) { p.VTN = 0 }},
		{"vtn one", func(p *Process) { p.VTN = 1 }},
		{"vtp negative", func(p *Process) { p.VTP = -0.2 }},
		{"s0 zero", func(p *Process) { p.S0 = 0 }},
		{"cg zero", func(p *Process) { p.CgPerMicron = 0 }},
		{"cref zero", func(p *Process) { p.CRef = 0 }},
		{"cmax below cref", func(p *Process) { p.CMax = p.CRef / 2 }},
		{"vdd zero", func(p *Process) { p.VDD = 0 }},
		{"alpha below 1", func(p *Process) { p.Alpha = 0.9 }},
		{"alpha above 2", func(p *Process) { p.Alpha = 2.1 }},
		{"kpn zero", func(p *Process) { p.KPN = 0 }},
		{"vdsat zero", func(p *Process) { p.VDSatRatio = 0 }},
		{"vdsat above 1", func(p *Process) { p.VDSatRatio = 1.2 }},
		{"cdiff negative", func(p *Process) { p.CDiffPerMicron = -1 }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p := CMOS025()
			tc.mutate(p)
			if err := p.Validate(); err == nil {
				t.Fatalf("%s: expected validation error", tc.name)
			}
		})
	}
}

func TestCloneIndependence(t *testing.T) {
	p := CMOS025()
	q := p.Clone()
	q.Tau = 99
	if p.Tau == 99 {
		t.Fatal("Clone aliases the original")
	}
	if q.Name != p.Name {
		t.Fatal("Clone must copy fields")
	}
}

func TestMillerRatios(t *testing.T) {
	p := CMOS025()
	hl := p.MillerHL()
	lh := p.MillerLH()
	if hl <= 0 || lh <= 0 {
		t.Fatalf("Miller ratios must be positive: %g %g", hl, lh)
	}
	// The two shares add to half the pin capacitance.
	if got := hl + lh; math.Abs(got-0.5) > 1e-12 {
		t.Fatalf("MillerHL+MillerLH = %g, want 0.5", got)
	}
	// P share exceeds N share iff k > 1.
	if p.K > 1 && hl <= lh {
		t.Fatalf("with k=%g>1 the P share must dominate: %g vs %g", p.K, hl, lh)
	}
}

func TestVTMean(t *testing.T) {
	p := CMOS025()
	want := (p.VTN + p.VTP) / 2
	if got := p.VTMean(); got != want {
		t.Fatalf("VTMean=%g want %g", got, want)
	}
}

func TestWidthCapRoundTrip(t *testing.T) {
	p := CMOS025()
	f := func(w float64) bool {
		w = 0.1 + math.Abs(w)
		if math.IsInf(w, 0) || math.IsNaN(w) || w > 1e6 {
			return true
		}
		back := p.WidthForCap(w * p.CgPerMicron)
		return math.Abs(back-w) < 1e-9*w
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestWidthSplit(t *testing.T) {
	p := CMOS025()
	total := 4.3
	wn, wp := p.WN(total), p.WP(total)
	if math.Abs(wn+wp-total) > 1e-12 {
		t.Fatalf("WN+WP=%g want %g", wn+wp, total)
	}
	if math.Abs(wp/wn-p.K) > 1e-9 {
		t.Fatalf("WP/WN=%g want k=%g", wp/wn, p.K)
	}
}

func TestClampCap(t *testing.T) {
	p := CMOS025()
	if got := p.ClampCap(p.CRef / 10); got != p.CRef {
		t.Fatalf("clamp low: got %g want %g", got, p.CRef)
	}
	if got := p.ClampCap(p.CMax * 10); got != p.CMax {
		t.Fatalf("clamp high: got %g want %g", got, p.CMax)
	}
	mid := (p.CRef + p.CMax) / 2
	if got := p.ClampCap(mid); got != mid {
		t.Fatalf("clamp interior: got %g want %g", got, mid)
	}
}

func TestFO4Range(t *testing.T) {
	// A 0.25 µm-class process has an FO4 inverter delay of very
	// roughly 60-150 ps; wildly different values mean the calibration
	// broke.
	fo4 := CMOS025().FO4()
	if fo4 < 40 || fo4 > 200 {
		t.Fatalf("FO4 = %.1f ps, outside the plausible 0.25 µm window", fo4)
	}
}

func TestFO4ScalesWithTau(t *testing.T) {
	p := CMOS025()
	q := p.Clone()
	q.Tau *= 2
	if got, want := q.FO4(), 2*p.FO4(); math.Abs(got-want) > 1e-9*want {
		t.Fatalf("FO4 must scale linearly with tau: %g vs %g", got, want)
	}
}
