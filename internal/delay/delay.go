// Package delay implements the closed-form CMOS timing model of the
// paper (eq. 1-3): transition times à la Maurine et al. (TCAD 2002) and
// gate delays capturing the input-slope effect and the input-to-output
// (Miller) coupling. It also defines the bounded-path abstraction that
// all POPS optimizers operate on, together with the analytic path-delay
// derivatives (the A_i "design parameters" of eq. 4-6).
//
// Model summary, for a gate with per-pin input capacitance C_IN driving
// a total load C_L (next-stage pins + off-path pins + wire + own
// diffusion parasitic):
//
//	τ_outHL = S_HL·τ·C_L/C_IN         S_HL = S0·(1+k)·DW_HL         (2,3)
//	τ_outLH = S_LH·τ·C_L/C_IN         S_LH = S0·(1+k)·(R/k)·DW_LH
//
//	t_HL = (v_TN/2)·τ_inLH + ½·(1 + 2C_M/(C_M+C_L))·τ_outHL          (1)
//	t_LH = (v_TP/2)·τ_inHL + ½·(1 + 2C_M/(C_M+C_L))·τ_outLH
//
// with C_M half the input capacitance of the P (N) device for an input
// rising (falling) edge. Within the fast-input-control range the path
// delay of a bounded path is convex in the gate input capacitances,
// which eq. (4-6) exploit.
package delay

import (
	"fmt"
	"math"

	"repro/internal/gate"
	"repro/internal/netlist"
	"repro/internal/tech"
)

// Model evaluates the closed-form timing equations for one process
// corner. The two flags expose the paper's modelling ingredients for
// ablation studies: CoupleMiller enables the input-to-output coupling
// term of eq. (1) and SlopeEffect enables the input-transition term.
// Both default to on (the paper's model).
//
// Build a Model with NewModel: it snapshots the corner's constants —
// the eq. (1-3) factors and the per-Vt-class drive factors and slope
// coefficients — so no evaluation recomputes them. The snapshot is
// taken once: mutating *Proc after NewModel is unsupported (the model
// would mix old and new values); build a new Model for a new corner.
// The flags may be toggled at any time.
type Model struct {
	Proc         *tech.Process
	CoupleMiller bool
	SlopeEffect  bool

	// The eq. (1-3) corner constants, each computed in the exact
	// operation order of the gate.Cell or tech.Process method it
	// replaces, so every formula below returns the same bits:
	// sHL0 = S0·(1+k) and sLH0 = S0·(1+k)·R/k (sHL0·DW_HL is Cell.SHL,
	// sLH0·DW_LH is Cell.SLH); millerHL, millerLH and vtMean are the
	// Process methods' values; vtn2, vtp2 and vtMean2 are VTN/2, VTP/2
	// and vtMean/2; tau is Proc.Tau.
	tau                 float64
	sHL0, sLH0          float64
	millerHL, millerLH  float64
	vtMean              float64
	vtn2, vtp2, vtMean2 float64

	// driveN and driveP hold Proc.VtDriveN/VtDriveP per Vt class;
	// shiftN2 and shiftP2 hold Proc.VtShiftN/VtShiftP per class, halved
	// (the class's eq. (1) slope coefficients).
	driveN, driveP   [tech.NumVtClasses]float64
	shiftN2, shiftP2 [tech.NumVtClasses]float64
}

// NewModel returns the paper's full model on the given corner, with
// the corner's constants snapshotted (see Model).
func NewModel(p *tech.Process) *Model {
	m := &Model{
		Proc:         p,
		CoupleMiller: true,
		SlopeEffect:  true,
		tau:          p.Tau,
		sHL0:         p.S0 * (1 + p.K),
		sLH0:         p.S0 * (1 + p.K) * p.R / p.K,
		millerHL:     p.MillerHL(),
		millerLH:     p.MillerLH(),
		vtMean:       p.VTMean(),
		vtn2:         p.VTN / 2,
		vtp2:         p.VTP / 2,
		vtMean2:      p.VTMean() / 2,
	}
	for v := tech.VtClass(0); v < tech.NumVtClasses; v++ {
		m.driveN[v] = p.VtDriveN(v)
		m.driveP[v] = p.VtDriveP(v)
		m.shiftN2[v] = p.VtShiftN(v) / 2
		m.shiftP2[v] = p.VtShiftP(v) / 2
	}
	return m
}

// sMean is Cell.SMean on the snapshotted corner.
func (m *Model) sMean(c gate.Cell) float64 {
	return (m.sHL0*c.DWHL + m.sLH0*c.DWLH) / 2
}

// TransitionHL returns the falling output transition time (ps) of cell
// c with input capacitance cin (fF) driving load cl (fF) — eq. (2,3).
func (m *Model) TransitionHL(c gate.Cell, cin, cl float64) float64 {
	return m.sHL0 * c.DWHL * m.tau * cl / cin
}

// TransitionLH returns the rising output transition time (ps).
func (m *Model) TransitionLH(c gate.Cell, cin, cl float64) float64 {
	return m.sLH0 * c.DWLH * m.tau * cl / cin
}

// TransitionMean returns the edge-averaged output transition time (ps)
// used by the convex optimization objective.
func (m *Model) TransitionMean(c gate.Cell, cin, cl float64) float64 {
	return m.sMean(c) * m.tau * cl / cin
}

// millerFactor evaluates 1 + 2C_M/(C_M + C_L) with C_M = ratio·C_IN.
func (m *Model) millerFactor(ratio, cin, cl float64) float64 {
	if !m.CoupleMiller || cin <= 0 {
		return 1
	}
	cm := ratio * cin
	return 1 + 2*cm/(cm+cl)
}

// GateDelayHL returns the eq. (1) falling-output delay (ps) of cell c:
// input rising with transition time tauInLH, load cl.
func (m *Model) GateDelayHL(c gate.Cell, cin, cl, tauInLH float64) float64 {
	t := m.millerFactor(m.millerHL, cin, cl) / 2 * m.TransitionHL(c, cin, cl)
	if m.SlopeEffect {
		t += m.vtn2 * tauInLH
	}
	return t
}

// GateDelayLH returns the eq. (1) rising-output delay (ps) of cell c:
// input falling with transition time tauInHL, load cl.
func (m *Model) GateDelayLH(c gate.Cell, cin, cl, tauInHL float64) float64 {
	t := m.millerFactor(m.millerLH, cin, cl) / 2 * m.TransitionLH(c, cin, cl)
	if m.SlopeEffect {
		t += m.vtp2 * tauInHL
	}
	return t
}

// GateDelayMean returns the edge-averaged delay (ps): the optimization
// objective's per-stage term. The averaged Miller ratio of the
// reference inverter is exactly 1/4 regardless of k.
func (m *Model) GateDelayMean(c gate.Cell, cin, cl, tauIn float64) float64 {
	t := m.millerFactor(0.25, cin, cl) / 2 * m.TransitionMean(c, cin, cl)
	if m.SlopeEffect {
		t += m.vtMean2 * tauIn
	}
	return t
}

// Stage is one gate of a bounded combinational path. CIn is the sizing
// variable (per-pin input capacitance, fF); COff is the fixed off-path
// load on the stage's output net (sibling fan-out pins + wire; for the
// last stage it includes the terminal load). Node optionally links back
// to the netlist gate the stage was extracted from.
type Stage struct {
	Cell gate.Cell
	CIn  float64
	COff float64
	Node *netlist.Node
	// Inserted marks stages added by the buffering optimizer, so that
	// insertion passes do not re-buffer their own buffers and local
	// modes can pin their sizes.
	Inserted bool
}

// Path is a bounded combinational path (§2.2): the first stage's input
// capacitance is fixed by the latch load constraint, and the terminal
// load (folded into the last stage's COff) is fixed by the driven
// registers. TauIn is the input transition time at the path entry (ps).
type Path struct {
	Name   string
	Stages []Stage
	TauIn  float64
}

// DefaultTauIn returns a representative path-entry transition time: the
// edge-averaged output slope of a reference inverter working at fan-out
// 4 on corner p.
func DefaultTauIn(p *tech.Process) float64 {
	inv := gate.MustLookup(gate.Inv)
	return inv.SMean(p) * p.Tau * 4
}

// Clone returns a deep copy of the path (stages are values; Node
// backlinks are shared).
func (pa *Path) Clone() *Path {
	return pa.CopyInto(&Path{})
}

// CopyInto is Clone into caller-owned storage: dst's stage slice is
// reused (truncated and refilled), so a working copy recycled across
// optimizer rounds costs no steady-state allocation. It returns dst.
func (pa *Path) CopyInto(dst *Path) *Path {
	dst.Name = pa.Name
	dst.TauIn = pa.TauIn
	dst.Stages = append(dst.Stages[:0], pa.Stages...)
	return dst
}

// Len returns the number of stages.
func (pa *Path) Len() int { return len(pa.Stages) }

// Sizes returns the stage input capacitances as a slice.
func (pa *Path) Sizes() []float64 {
	x := make([]float64, len(pa.Stages))
	for i := range pa.Stages {
		x[i] = pa.Stages[i].CIn
	}
	return x
}

// AppendSizes is Sizes appending into dst, for callers recycling a
// snapshot buffer (pass dst[:0] to overwrite in place).
func (pa *Path) AppendSizes(dst []float64) []float64 {
	for i := range pa.Stages {
		dst = append(dst, pa.Stages[i].CIn)
	}
	return dst
}

// SetSizes overwrites the stage input capacitances. The first stage is
// fixed by the bounded-path contract, but SetSizes writes it anyway so
// callers can restore snapshots; optimizers simply never change x[0].
func (pa *Path) SetSizes(x []float64) error {
	if len(x) != len(pa.Stages) {
		return fmt.Errorf("delay: SetSizes: %d sizes for %d stages", len(x), len(pa.Stages))
	}
	for i := range pa.Stages {
		pa.Stages[i].CIn = x[i]
	}
	return nil
}

// WriteBack copies the stage sizes into the linked netlist nodes, for
// paths extracted by the sta package.
func (pa *Path) WriteBack() {
	for i := range pa.Stages {
		if n := pa.Stages[i].Node; n != nil {
			n.CIn = pa.Stages[i].CIn
		}
	}
}

// LoadAt returns the total switched load C_L of stage i (fF): next
// stage's pin + off-path load + own diffusion parasitic.
func (pa *Path) LoadAt(i int) float64 {
	st := &pa.Stages[i]
	cl := st.COff + st.Cell.Parasitic(st.CIn)
	if i+1 < len(pa.Stages) {
		cl += pa.Stages[i+1].CIn
	}
	return cl
}

// ExternalLoadAt returns L_i = C_L(i) minus the stage's own parasitic —
// the part of the load that does not cancel in the delay derivative.
func (pa *Path) ExternalLoadAt(i int) float64 {
	st := &pa.Stages[i]
	l := st.COff
	if i+1 < len(pa.Stages) {
		l += pa.Stages[i+1].CIn
	}
	return l
}

// Area returns the total transistor width ΣW (µm) of the path under
// corner p — the paper's cost metric.
func (pa *Path) Area(p *tech.Process) float64 {
	var sum float64
	for i := range pa.Stages {
		sum += pa.Stages[i].Cell.Area(pa.Stages[i].CIn, p)
	}
	return sum
}

// TotalCIn returns ΣC_IN of the path stages (fF) — the x axis of the
// paper's Fig. 1, normalized by CREF.
func (pa *Path) TotalCIn() float64 {
	var sum float64
	for i := range pa.Stages {
		sum += pa.Stages[i].CIn
	}
	return sum
}

// PathDelayMean returns the edge-averaged path delay (ps): the smooth
// convex objective the eq. (4-6) machinery optimizes.
func (m *Model) PathDelayMean(pa *Path) float64 {
	tauIn := pa.TauIn
	var total float64
	for i := range pa.Stages {
		st := &pa.Stages[i]
		cl := pa.LoadAt(i)
		total += m.GateDelayMean(st.Cell, st.CIn, cl, tauIn)
		tauIn = m.TransitionMean(st.Cell, st.CIn, cl)
	}
	return total
}

// PathDelayLaunch returns the exact alternating-edge path delay (ps)
// for a given launch edge at the path input (risingInput true = the
// path entry net rises). Inverting stages flip the edge.
func (m *Model) PathDelayLaunch(pa *Path, risingInput bool) float64 {
	tauIn := pa.TauIn
	rising := risingInput
	var total float64
	for i := range pa.Stages {
		st := &pa.Stages[i]
		d, tr := m.stageTerms(st, rising, pa.LoadAt(i), tauIn)
		total += d
		tauIn = tr
		if st.Cell.Invert {
			rising = !rising
		}
		// Non-inverting cells (BUF) keep the edge; their internal
		// first stage inversion is absorbed in the cell personality.
	}
	return total
}

// stageTerms returns one stage's delay and output transition for the
// given input edge, load cl and input transition tauIn: the per-stage
// step of PathDelayLaunch, shared with PathEval so both evaluate
// every term identically.
func (m *Model) stageTerms(st *Stage, rising bool, cl, tauIn float64) (d, tr float64) {
	d = m.stageDelay(st, rising, cl, tauIn)
	if rising {
		return d, m.TransitionHL(st.Cell, st.CIn, cl)
	}
	return d, m.TransitionLH(st.Cell, st.CIn, cl)
}

// stageDelay is the delay half of stageTerms.
func (m *Model) stageDelay(st *Stage, rising bool, cl, tauIn float64) float64 {
	if rising {
		// Input rising → output falling for inverting cells.
		return m.GateDelayHL(st.Cell, st.CIn, cl, tauIn)
	}
	return m.GateDelayLH(st.Cell, st.CIn, cl, tauIn)
}

// PathDelayWorst returns the worse of the two launch edges (ps) — the
// reported path delay.
func (m *Model) PathDelayWorst(pa *Path) float64 {
	return math.Max(m.PathDelayLaunch(pa, true), m.PathDelayLaunch(pa, false))
}

// BCoefficients returns the per-stage design coefficients A_i of
// eq. (4-6) for the current sizing state: the path delay satisfies
//
//	T ≈ const + Σ_i B_i · C_L(i)/C_IN(i)
//
// where B_i folds the stage's averaged symmetry factor, its (frozen)
// Miller factor, and the slope contribution its output transition makes
// to the next stage's delay. The Miller factor depends weakly on the
// sizes; the optimizers re-freeze it on every sweep, so the fixed point
// of the link equations is the true stationary point.
func (m *Model) BCoefficients(pa *Path) []float64 {
	return m.BCoefficientsInto(nil, pa)
}

// BCoefficientsInto is BCoefficients into caller storage: the
// coefficients land in dst (grown only when its capacity is short) and
// the used slice is returned.
func (m *Model) BCoefficientsInto(dst []float64, pa *Path) []float64 {
	n := len(pa.Stages)
	if cap(dst) < n {
		dst = make([]float64, n)
	}
	b := dst[:n]
	for i := range pa.Stages {
		st := &pa.Stages[i]
		h := m.BScale(st.Cell)
		coef := h * m.BMiller(st.CIn, pa.LoadAt(i))
		if m.SlopeEffect && i+1 < n {
			coef += h * m.vtMean
		}
		b[i] = coef
	}
	return b
}

// The three pieces of one B coefficient, exported for solvers that
// compute B_i inline inside their own sweep. With h = BScale(cell),
//
//	B_i = h·BMiller(C_IN(i), C_L(i)) [+ h·VTMean() when SlopeEffect and i is not the last stage]
//
// is BCoefficientsInto's b[i] bit for bit.

// BScale returns h = S_mean·τ/2, the size-independent factor of the B
// coefficient of a stage built from cell c.
func (m *Model) BScale(c gate.Cell) float64 { return m.sMean(c) * m.tau / 2 }

// BMiller returns the frozen, edge-averaged Miller factor of a B
// coefficient: 1 + 2C_M/(C_M+C_L) with C_M = C_IN/4, or 1 when
// CoupleMiller is off.
func (m *Model) BMiller(cin, cl float64) float64 { return m.millerFactor(0.25, cin, cl) }

// VTMean returns the corner's average reduced threshold
// (tech.Process.VTMean), the slope factor of a B coefficient.
func (m *Model) VTMean() float64 { return m.vtMean }

// Sensitivity returns ∂T/∂C_IN(i) (ps/fF) of the edge-averaged path
// delay for stage i ≥ 1 under frozen B coefficients:
//
//	∂T/∂x_i = B_{i-1}/x_{i-1} − B_i·L_i/x_i²
//
// with L_i the external (non-self) load. This is the "a" of eq. (5).
func (m *Model) Sensitivity(pa *Path, b []float64, i int) float64 {
	if i <= 0 || i >= len(pa.Stages) {
		return 0
	}
	xPrev := pa.Stages[i-1].CIn
	x := pa.Stages[i].CIn
	return b[i-1]/xPrev - b[i]*pa.ExternalLoadAt(i)/(x*x)
}

// NumericSensitivity estimates ∂T/∂C_IN(i) by central finite
// differences on the exact edge-averaged delay; tests use it to
// validate the analytic form.
func (m *Model) NumericSensitivity(pa *Path, i int, h float64) float64 {
	q := pa.Clone()
	x := q.Stages[i].CIn
	q.Stages[i].CIn = x + h
	up := m.PathDelayMean(q)
	q.Stages[i].CIn = x - h
	dn := m.PathDelayMean(q)
	q.Stages[i].CIn = x
	return (up - dn) / (2 * h)
}

// FastInputShare reports the fraction of stages operating in the fast
// input control range — the validity condition of eq. (1) the paper
// assumes throughout ("we always consider that the resulting
// implementation is in the fast input control range"). A stage is in
// range when its input transition does not exceed its own output
// transition by more than the given factor (2.0 is a customary
// boundary; the eq. (1) slope term is linear only below it).
func (m *Model) FastInputShare(pa *Path, factor float64) float64 {
	if factor <= 0 {
		factor = 2.0
	}
	if len(pa.Stages) == 0 {
		return 1
	}
	tauIn := pa.TauIn
	ok := 0
	for i := range pa.Stages {
		st := &pa.Stages[i]
		out := m.TransitionMean(st.Cell, st.CIn, pa.LoadAt(i))
		if tauIn <= factor*out {
			ok++
		}
		tauIn = out
	}
	return float64(ok) / float64(len(pa.Stages))
}

// Validate checks that the path is well-formed: at least one stage,
// positive sizes, non-negative off-path loads, a positive terminal
// load, and a positive entry slope.
func (pa *Path) Validate() error {
	if len(pa.Stages) == 0 {
		return fmt.Errorf("delay: path %q has no stages", pa.Name)
	}
	if pa.TauIn <= 0 {
		return fmt.Errorf("delay: path %q has non-positive entry transition %g", pa.Name, pa.TauIn)
	}
	for i := range pa.Stages {
		st := &pa.Stages[i]
		if st.CIn <= 0 {
			return fmt.Errorf("delay: path %q stage %d has non-positive C_IN %g", pa.Name, i, st.CIn)
		}
		if st.COff < 0 {
			return fmt.Errorf("delay: path %q stage %d has negative C_OFF %g", pa.Name, i, st.COff)
		}
		if !gate.IsPrimitive(st.Cell.Type) {
			return fmt.Errorf("delay: path %q stage %d has non-primitive cell %v", pa.Name, i, st.Cell.Type)
		}
	}
	last := &pa.Stages[len(pa.Stages)-1]
	if last.COff <= 0 {
		return fmt.Errorf("delay: path %q has no terminal load", pa.Name)
	}
	return nil
}
