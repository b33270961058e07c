// Package experiments regenerates every table and figure of the
// paper's evaluation. Each experiment returns typed rows (for test and
// benchmark assertions) plus a rendering into the report package's
// table/figure forms (for cmd/experiments and EXPERIMENTS.md).
//
// Absolute numbers are not expected to match the paper — the substrate
// is a reimplementation, not the authors' 0.25 µm testbed — but the
// shapes are: who wins, by roughly what factor, and where the
// crossovers fall. The assertions encoded in bench_test.go check
// exactly those shapes.
package experiments

import (
	"fmt"
	"time"

	"repro/internal/amps"
	"repro/internal/buffering"
	"repro/internal/core"
	"repro/internal/delay"
	"repro/internal/gate"
	"repro/internal/iscas"
	"repro/internal/netlist"
	"repro/internal/report"
	"repro/internal/restructure"
	"repro/internal/sizing"
	"repro/internal/spice"
	"repro/internal/sta"
	"repro/internal/tech"
)

// Env bundles the shared experiment context: one corner, one model,
// one characterized library.
type Env struct {
	Proc   *tech.Process
	Model  *delay.Model
	Sim    *spice.Simulator
	Limits map[gate.Type]float64
}

// NewEnv builds the default experiment environment on the calibrated
// 0.25 µm corner.
func NewEnv() *Env {
	p := tech.CMOS025()
	m := delay.NewModel(p)
	return &Env{
		Proc:   p,
		Model:  m,
		Sim:    spice.New(p),
		Limits: buffering.Limits(buffering.CharacterizeLibrary(m, nil, buffering.Options{})),
	}
}

// AllBenchmarks lists the Table 1 benchmark names in paper order.
func AllBenchmarks() []string {
	var names []string
	for _, s := range iscas.Suite() {
		names = append(names, s.Name)
	}
	return names
}

// SmallBenchmarks is a fast subset used by unit tests.
func SmallBenchmarks() []string { return []string{"fpd", "c432", "c880", "c1355"} }

// criticalPath generates the named benchmark and extracts its critical
// path.
func (e *Env) criticalPath(name string) (*delay.Path, *netlist.Circuit, error) {
	spec, err := iscas.ByName(name)
	if err != nil {
		return nil, nil, err
	}
	c, err := iscas.Generate(spec)
	if err != nil {
		return nil, nil, err
	}
	pa, _, err := sta.CriticalPath(c, e.Model, sta.Config{})
	if err != nil {
		return nil, nil, err
	}
	return pa, c, nil
}

// ---------------------------------------------------------------------
// Fig. 1 — sensitivity of the path delay to gate sizing: the Tmin
// iteration trajectory from the CREF seed to the fixed point.
// ---------------------------------------------------------------------

// Fig1Point is one iteration of the Tmin fixed point.
type Fig1Point = sizing.IterationPoint

// Fig1 runs the Tmin iteration on the named benchmark's critical path
// and returns the (ΣC_IN/CREF, delay) trajectory plus the bounds.
func (e *Env) Fig1(name string) (points []Fig1Point, tmax, tmin float64, err error) {
	pa, _, err := e.criticalPath(name)
	if err != nil {
		return nil, 0, 0, err
	}
	tmax = sizing.Tmax(e.Model, pa.Clone())
	r, err := sizing.Tmin(e.Model, pa, sizing.Options{})
	if err != nil {
		return nil, 0, 0, err
	}
	return r.Iterations, tmax, r.Delay, nil
}

// Fig1Figure renders the trajectory.
func (e *Env) Fig1Figure(name string) (*report.Figure, error) {
	points, tmax, tmin, err := e.Fig1(name)
	if err != nil {
		return nil, err
	}
	f := report.NewFigure(
		fmt.Sprintf("Fig. 1 — path delay vs sizing iterations (%s)", name),
		"sum C_IN / CREF", "delay (ps)")
	s := f.AddSeries("Tmin iterations")
	for _, pt := range points {
		s.Add(pt.SumCInRef, pt.Delay)
	}
	b := f.AddSeries("bounds")
	b.Add(points[0].SumCInRef, tmax)
	b.Add(points[len(points)-1].SumCInRef, tmin)
	return f, nil
}

// ---------------------------------------------------------------------
// Fig. 2 — minimum delay Tmin: POPS vs the industrial baseline.
// ---------------------------------------------------------------------

// Fig2Row compares the minimum path delay found by the two tools.
type Fig2Row struct {
	Name    string
	PathLen int
	POPS    float64 // ps
	AMPS    float64 // ps
}

// Fig2 computes the comparison for the given benchmarks.
func (e *Env) Fig2(names []string) ([]Fig2Row, error) {
	var rows []Fig2Row
	for _, name := range names {
		pa, _, err := e.criticalPath(name)
		if err != nil {
			return nil, err
		}
		pops, err := sizing.Tmin(e.Model, pa.Clone(), sizing.Options{})
		if err != nil {
			return nil, err
		}
		baseline, err := amps.MinimizeDelay(e.Model, pa.Clone(), amps.Options{Restarts: 2})
		if err != nil {
			return nil, err
		}
		rows = append(rows, Fig2Row{Name: name, PathLen: pa.Len(), POPS: pops.Delay, AMPS: baseline.Delay})
	}
	return rows, nil
}

// Fig2Table renders the comparison.
func Fig2Table(rows []Fig2Row) *report.Table {
	t := report.NewTable("Fig. 2 — minimum delay Tmin (ps): POPS vs AMPS-like baseline",
		"Circuit", "Path gates", "POPS", "AMPS", "AMPS/POPS")
	for _, r := range rows {
		t.AddRow(r.Name, r.PathLen, r.POPS, r.AMPS, r.AMPS/r.POPS)
	}
	t.AddNote("shape check: POPS ≤ AMPS on every row (deterministic convex optimum vs greedy grid)")
	return t
}

// ---------------------------------------------------------------------
// Fig. 3 — the constant sensitivity family on one path.
// ---------------------------------------------------------------------

// Fig3Point is one member of the sensitivity family.
type Fig3Point struct {
	A     float64
	Delay float64 // ps
	Area  float64 // ΣW µm
}

// Fig3 sweeps the sensitivity coefficient on the named benchmark's
// critical path.
func (e *Env) Fig3(name string, as []float64) ([]Fig3Point, error) {
	if len(as) == 0 {
		as = []float64{0, -0.02, -0.06, -0.15, -0.3, -0.6, -0.8, -1.5, -3, -6}
	}
	var points []Fig3Point
	for _, a := range as {
		pa, _, err := e.criticalPath(name)
		if err != nil {
			return nil, err
		}
		r, err := sizing.AtSensitivity(e.Model, pa, a, sizing.Options{})
		if err != nil {
			return nil, err
		}
		points = append(points, Fig3Point{A: a, Delay: r.Delay, Area: r.Area})
	}
	return points, nil
}

// Fig3Figure renders the family as the paper plots it: delay vs ΣW.
func (e *Env) Fig3Figure(name string) (*report.Figure, error) {
	points, err := e.Fig3(name, nil)
	if err != nil {
		return nil, err
	}
	f := report.NewFigure(
		fmt.Sprintf("Fig. 3 — constant sensitivity family (%s)", name),
		"sum W (µm)", "delay (ps)")
	s := f.AddSeries("a sweep (0 → -6)")
	for _, pt := range points {
		s.Add(pt.Area, pt.Delay)
	}
	return f, nil
}

// ---------------------------------------------------------------------
// Fig. 4 — area at Tc = 1.2·Tmin: POPS vs baseline.
// ---------------------------------------------------------------------

// Fig4Row compares implementation area at an identical hard constraint.
type Fig4Row struct {
	Name string
	Tc   float64 // ps
	POPS float64 // ΣW µm
	AMPS float64 // ΣW µm
}

// Fig4 computes the comparison (Tc = ratio × Tmin, the paper uses 1.2).
func (e *Env) Fig4(names []string, ratio float64) ([]Fig4Row, error) {
	if ratio <= 0 {
		ratio = 1.2
	}
	var rows []Fig4Row
	for _, name := range names {
		pa, _, err := e.criticalPath(name)
		if err != nil {
			return nil, err
		}
		rt, err := sizing.Tmin(e.Model, pa.Clone(), sizing.Options{})
		if err != nil {
			return nil, err
		}
		tc := ratio * rt.Delay
		pops, err := sizing.Distribute(e.Model, pa.Clone(), tc, sizing.Options{})
		if err != nil {
			return nil, err
		}
		baseline, err := amps.SizeToConstraint(e.Model, pa.Clone(), tc, amps.Options{Restarts: 2})
		if err != nil {
			// The grid may not reach very tight constraints; report
			// its best effort.
			if baseline == nil {
				return nil, err
			}
		}
		rows = append(rows, Fig4Row{Name: name, Tc: tc, POPS: pops.Area, AMPS: baseline.Area})
	}
	return rows, nil
}

// Fig4Table renders the comparison.
func Fig4Table(rows []Fig4Row) *report.Table {
	t := report.NewTable("Fig. 4 — path area ΣW (µm) at Tc = 1.2·Tmin: POPS vs AMPS-like baseline",
		"Circuit", "Tc (ps)", "POPS", "AMPS", "AMPS/POPS")
	for _, r := range rows {
		t.AddRow(r.Name, r.Tc, r.POPS, r.AMPS, r.AMPS/r.POPS)
	}
	t.AddNote("shape check: the constant sensitivity method needs less area at equal constraint")
	return t
}

// ---------------------------------------------------------------------
// Table 1 — CPU time of the constraint-distribution step.
// ---------------------------------------------------------------------

// Table1Row reports wall-clock time for sizing a path to Tc = 1.2·Tmin.
type Table1Row struct {
	Name    string
	Gates   int // path gate count (the paper's "Gate nb")
	POPS    time.Duration
	AMPS    time.Duration
	Speedup float64
}

// Table1 measures both tools on the given benchmarks.
func (e *Env) Table1(names []string) ([]Table1Row, error) {
	var rows []Table1Row
	for _, name := range names {
		pa, _, err := e.criticalPath(name)
		if err != nil {
			return nil, err
		}
		rt, err := sizing.Tmin(e.Model, pa.Clone(), sizing.Options{})
		if err != nil {
			return nil, err
		}
		tc := 1.2 * rt.Delay

		popsPath := pa.Clone()
		t0 := time.Now()
		if _, err := sizing.Distribute(e.Model, popsPath, tc, sizing.Options{}); err != nil {
			return nil, err
		}
		popsTime := time.Since(t0)

		ampsPath := pa.Clone()
		t1 := time.Now()
		res, err := amps.SizeToConstraint(e.Model, ampsPath, tc, amps.Options{Restarts: 2})
		if err != nil && res == nil {
			return nil, err
		}
		ampsTime := time.Since(t1)

		rows = append(rows, Table1Row{
			Name:    name,
			Gates:   pa.Len(),
			POPS:    popsTime,
			AMPS:    ampsTime,
			Speedup: float64(ampsTime) / float64(popsTime),
		})
	}
	return rows, nil
}

// Table1Table renders the timing comparison.
func Table1Table(rows []Table1Row) *report.Table {
	t := report.NewTable("Table 1 — CPU time of constraint distribution (Tc = 1.2·Tmin)",
		"Circuit", "Gate nb", "POPS (ms)", "AMPS (ms)", "speedup")
	for _, r := range rows {
		t.AddRow(r.Name, r.Gates,
			float64(r.POPS.Microseconds())/1000,
			float64(r.AMPS.Microseconds())/1000,
			r.Speedup)
	}
	t.AddNote("shape check: the deterministic closed-form distribution is orders of magnitude faster")
	return t
}

// ---------------------------------------------------------------------
// Table 2 — the fan-out limit Flimit, calculated vs simulated.
// ---------------------------------------------------------------------

// Table2Row is one characterization pair.
type Table2Row struct {
	Driver, Gate gate.Type
	Calculated   float64
	Simulated    float64
	Paper        [2]float64 // the paper's calculated/simulated values
}

// paperTable2 holds the published Table 2 values for side-by-side
// reporting.
var paperTable2 = map[gate.Type][2]float64{
	gate.Inv:   {5.7, 5.9},
	gate.Nand2: {4.9, 5.4},
	gate.Nand3: {4.5, 5.2},
	gate.Nor2:  {3.8, 3.5},
	gate.Nor3:  {2.7, 2.5},
}

// Table2 characterizes the Fig. 5 structures with both the closed-form
// model and the transistor-level simulator.
func (e *Env) Table2() ([]Table2Row, error) {
	var rows []Table2Row
	for _, gt := range []gate.Type{gate.Inv, gate.Nand2, gate.Nand3, gate.Nor2, gate.Nor3} {
		calc, err := buffering.Flimit(e.Model, gate.Inv, gt, nil, buffering.Options{})
		if err != nil {
			return nil, err
		}
		// The simulator bisection needs fewer, coarser probes.
		simOpts := buffering.Options{Iter: 22}
		simF, err := buffering.Flimit(e.Model, gate.Inv, gt, e.Sim.MeanDelayFn(), simOpts)
		if err != nil {
			return nil, err
		}
		rows = append(rows, Table2Row{
			Driver: gate.Inv, Gate: gt,
			Calculated: calc, Simulated: simF,
			Paper: paperTable2[gt],
		})
	}
	return rows, nil
}

// Table2Table renders the characterization next to the paper's values.
func Table2Table(rows []Table2Row) *report.Table {
	t := report.NewTable("Table 2 — fan-out limit Flimit for a gate driven by an inverter",
		"Gate(i-1)", "Gate(i)", "Calc.", "Simul.", "paper Calc.", "paper Simul.")
	for _, r := range rows {
		t.AddRow(r.Driver.String(), r.Gate.String(), r.Calculated, r.Simulated, r.Paper[0], r.Paper[1])
	}
	t.AddNote("shape check: ordering inv > nand2 > nand3 > nor2 > nor3 and ≈2× spread, as published")
	return t
}

// ---------------------------------------------------------------------
// Table 3 — minimum delay: sizing vs sizing + buffer insertion.
// ---------------------------------------------------------------------

// Table3Row compares Tmin without and with buffer insertion.
type Table3Row struct {
	Name    string
	Sizing  float64 // ps
	Buff    float64 // ps
	GainPct float64
	Buffers int
}

// Table3 computes the comparison.
func (e *Env) Table3(names []string) ([]Table3Row, error) {
	var rows []Table3Row
	for _, name := range names {
		pa, _, err := e.criticalPath(name)
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
		rows = append(rows, Table3Row{
			Name:    name,
			Sizing:  plain.Delay,
			Buff:    buf.Delay,
			GainPct: (plain.Delay - buf.Delay) / plain.Delay * 100,
			Buffers: buf.Inserted,
		})
	}
	return rows, nil
}

// Table3Table renders the comparison.
func Table3Table(rows []Table3Row) *report.Table {
	t := report.NewTable("Table 3 — minimum delay (ps): sizing vs buffer insertion",
		"Circuit", "sizing", "buff", "gain %", "buffers")
	for _, r := range rows {
		t.AddRow(r.Name, r.Sizing, r.Buff, r.GainPct, r.Buffers)
	}
	t.AddNote("paper gains: 2%%–22%% depending on path structure")
	return t
}

// ---------------------------------------------------------------------
// Fig. 6 — constraint-domain definition: delay–area fronts of sizing
// vs buffer insertion.
// ---------------------------------------------------------------------

// Fig6Fronts carries the two trade-off fronts.
type Fig6Fronts struct {
	Tmin         float64 // unbuffered minimum delay (ps)
	TminBuffered float64 // buffered minimum delay (ps)
	Sizing       []Fig3Point
	Buffered     []Fig3Point
}

// Fig6 sweeps the sensitivity family on the named path with and
// without buffer insertion.
func (e *Env) Fig6(name string) (*Fig6Fronts, error) {
	as := []float64{0, -0.02, -0.06, -0.15, -0.3, -0.6, -1.2, -2.5, -5, -10}
	pa, _, err := e.criticalPath(name)
	if err != nil {
		return nil, err
	}
	fronts := &Fig6Fronts{}

	sized := pa.Clone()
	rt, err := sizing.Tmin(e.Model, sized, sizing.Options{})
	if err != nil {
		return nil, err
	}
	fronts.Tmin = rt.Delay

	buf, err := buffering.MinDelayWithBuffers(e.Model, pa, buffering.Solved{Path: sized, Result: rt}, e.Limits, sizing.Options{})
	if err != nil {
		return nil, err
	}
	fronts.TminBuffered = buf.Delay

	for _, a := range as {
		plain := pa.Clone()
		r, err := sizing.AtSensitivity(e.Model, plain, a, sizing.Options{})
		if err != nil {
			return nil, err
		}
		fronts.Sizing = append(fronts.Sizing, Fig3Point{A: a, Delay: r.Delay, Area: r.Area})

		buffered := buf.Path.Clone()
		rb, err := sizing.AtSensitivity(e.Model, buffered, a, sizing.Options{})
		if err != nil {
			return nil, err
		}
		fronts.Buffered = append(fronts.Buffered, Fig3Point{A: a, Delay: rb.Delay, Area: rb.Area})
	}
	return fronts, nil
}

// Fig6Figure renders the two fronts with the paper's domain boundaries.
func (e *Env) Fig6Figure(name string) (*report.Figure, error) {
	fronts, err := e.Fig6(name)
	if err != nil {
		return nil, err
	}
	f := report.NewFigure(
		fmt.Sprintf("Fig. 6 — constraint domains (%s)", name),
		"sum W (µm)", "delay (ps)")
	s := f.AddSeries("gate sizing")
	for _, pt := range fronts.Sizing {
		s.Add(pt.Area, pt.Delay)
	}
	b := f.AddSeries("buffer insertion + global sizing")
	for _, pt := range fronts.Buffered {
		b.Add(pt.Area, pt.Delay)
	}
	d := f.AddSeries("domain boundaries (1.2/2.5 × Tmin)")
	d.Add(0, core.HardBound*fronts.Tmin)
	d.Add(0, core.MediumBound*fronts.Tmin)
	return f, nil
}

// ---------------------------------------------------------------------
// Fig. 8 — area in the three constraint domains for the three methods.
// ---------------------------------------------------------------------

// Fig8Row reports the area of each optimization method at one
// constraint level.
type Fig8Row struct {
	Name                      string
	Domain                    string
	Tc                        float64
	Sizing, LocalB, GlobalB   float64 // ΣW µm; NaN-free: 0 = infeasible
	SizingOK, LocalOK, GlobOK bool
}

// Fig8 evaluates sizing / local buffering / global buffering at the
// paper's three constraint levels.
func (e *Env) Fig8(names []string) ([]Fig8Row, error) {
	levels := []struct {
		domain string
		ratio  float64
	}{
		{"hard", 1.05},
		{"medium", 1.5},
		{"weak", 3.0},
	}
	var rows []Fig8Row
	for _, name := range names {
		pa, _, err := e.criticalPath(name)
		if err != nil {
			return nil, err
		}
		rt, err := sizing.Tmin(e.Model, pa.Clone(), sizing.Options{})
		if err != nil {
			return nil, err
		}
		for _, lv := range levels {
			tc := lv.ratio * rt.Delay
			row := Fig8Row{Name: name, Domain: lv.domain, Tc: tc}

			// The plain distribution doubles as Global mode's start.
			var plain buffering.Solved
			sized := pa.Clone()
			if r, err := sizing.Distribute(e.Model, sized, tc, sizing.Options{}); err == nil {
				row.Sizing, row.SizingOK = r.Area, true
				plain = buffering.Solved{Path: sized, Result: r}
			}
			if r, err := buffering.DistributeWithBuffers(e.Model, pa, tc, e.Limits, buffering.Local, sizing.Options{}, buffering.Solved{}); err == nil {
				row.LocalB, row.LocalOK = r.Area, true
			}
			if r, err := buffering.DistributeWithBuffers(e.Model, pa, tc, e.Limits, buffering.Global, sizing.Options{}, plain); err == nil {
				row.GlobalB, row.GlobOK = r.Area, true
			}
			rows = append(rows, row)
		}
	}
	return rows, nil
}

// Fig8Tables renders one table per constraint domain.
func Fig8Tables(rows []Fig8Row) []*report.Table {
	byDomain := map[string]*report.Table{}
	order := []string{"hard", "medium", "weak"}
	for _, d := range order {
		byDomain[d] = report.NewTable(
			fmt.Sprintf("Fig. 8 — path area ΣW (µm), %s constraint", d),
			"Circuit", "Tc (ps)", "Sizing", "Local Buff", "Global Buff")
	}
	for _, r := range rows {
		t := byDomain[r.Domain]
		if t == nil {
			continue
		}
		t.AddRow(r.Name, r.Tc, cell(r.Sizing, r.SizingOK), cell(r.LocalB, r.LocalOK), cell(r.GlobalB, r.GlobOK))
	}
	var out []*report.Table
	for _, d := range order {
		out = append(out, byDomain[d])
	}
	return out
}

func cell(v float64, ok bool) string {
	if !ok {
		return "-"
	}
	return fmt.Sprintf("%.0f", v)
}

// ---------------------------------------------------------------------
// Table 4 — buffer insertion vs logic restructuring.
// ---------------------------------------------------------------------

// Table4Row compares the two structure-modification alternatives.
type Table4Row struct {
	Name     string
	Domain   string
	Tc       float64
	Buff     float64 // region ΣW µm with buffer insertion
	Restruct float64 // region ΣW µm after De Morgan rewriting
	GainPct  float64
	Rewrites int
}

// Table4 evaluates both flows at hard and medium constraints on the
// paper's four circuits.
func (e *Env) Table4(names []string) ([]Table4Row, error) {
	if names == nil {
		names = []string{"c1355", "c1908", "c5315", "c7552"}
	}
	levels := []struct {
		domain string
		ratio  float64
	}{
		{"hard", 1.15},
		{"medium", 1.5},
	}
	var rows []Table4Row
	for _, name := range names {
		for _, lv := range levels {
			row, err := e.table4One(name, lv.domain, lv.ratio)
			if err != nil {
				return nil, err
			}
			rows = append(rows, *row)
		}
	}
	return rows, nil
}

func (e *Env) table4One(name, domain string, ratio float64) (*Table4Row, error) {
	pa, c, err := e.criticalPath(name)
	if err != nil {
		return nil, err
	}
	rt, err := sizing.Tmin(e.Model, pa.Clone(), sizing.Options{})
	if err != nil {
		return nil, err
	}
	tc := ratio * rt.Delay

	// Flow A: buffer insertion (+ global sizing).
	buf, errBuf := buffering.DistributeWithBuffers(e.Model, pa, tc, e.Limits, buffering.Global, sizing.Options{}, buffering.Solved{})
	buffArea := 0.0
	if errBuf == nil {
		buffArea = buf.Area
	} else {
		// Fall back to plain sizing if no buffers were warranted.
		r, err := sizing.Distribute(e.Model, pa.Clone(), tc, sizing.Options{})
		if err != nil {
			return nil, err
		}
		buffArea = r.Area
	}

	// Flow B: De Morgan restructuring of the path's *inefficient* NOR
	// gates — the ones the Flimit metric flags as over-loaded on the
	// sized implementation (§4.2 targets the low-sensitivity gates,
	// not every NOR). The region area adds the off-path inverters the
	// rewrite created.
	before := map[string]bool{}
	for _, n := range c.Nodes {
		before[n.Name] = true
	}
	sized := pa.Clone()
	if _, err := sizing.Distribute(e.Model, sized, tc, sizing.Options{}); err != nil {
		// Infeasible by sizing: detect on the Tmin configuration the
		// failed Distribute leaves behind.
		_ = err
	}
	targets := e.norTargets(sized)
	rep := &restructure.Report{}
	for _, n := range targets {
		if err := restructure.RewriteNOR(c, n, rep); err != nil {
			return nil, err
		}
	}
	collapsed, err := restructure.CollapseInverterPairs(c)
	if err != nil {
		return nil, err
	}
	rep.Collapsed = collapsed

	pa2, _, err := sta.CriticalPath(c, e.Model, sta.Config{})
	if err != nil {
		return nil, err
	}
	// The rewrite replaces the inefficient gate; the rest of the path
	// keeps the full protocol toolbox (buffers where still warranted).
	b2, err2 := buffering.DistributeWithBuffers(e.Model, pa2, tc, e.Limits, buffering.Global, sizing.Options{}, buffering.Solved{})
	if err2 != nil && b2 == nil {
		return nil, fmt.Errorf("table4 %s/%s: buffered re-optimization: %v", name, domain, err2)
	}
	restructArea := b2.Area
	pa2 = b2.Path
	pa2.WriteBack()
	onPath := map[string]bool{}
	for i := range pa2.Stages {
		if n := pa2.Stages[i].Node; n != nil {
			onPath[n.Name] = true
		}
	}
	for _, n := range c.Nodes {
		if !before[n.Name] && n.IsLogic() && !onPath[n.Name] {
			restructArea += n.Cell().Area(n.CIn, e.Proc)
		}
	}

	return &Table4Row{
		Name:     name,
		Domain:   domain,
		Tc:       tc,
		Buff:     buffArea,
		Restruct: restructArea,
		GainPct:  (buffArea - restructArea) / buffArea * 100,
		Rewrites: len(rep.Rewritten),
	}, nil
}

// norTargets returns the netlist NOR gates on the sized path whose
// effective fan-out approaches or exceeds their insertion limit —
// the §4.2 restructuring candidates. When none qualifies, the single
// most-loaded NOR is returned so the flow always exercises a rewrite.
func (e *Env) norTargets(sized *delay.Path) []*netlist.Node {
	var targets []*netlist.Node
	bestExcess := 0.0
	var bestNode *netlist.Node
	for i := range sized.Stages {
		st := &sized.Stages[i]
		if st.Node == nil {
			continue
		}
		switch st.Cell.Type {
		case gate.Nor2, gate.Nor3, gate.Nor4:
		default:
			continue
		}
		lim, ok := e.Limits[st.Cell.Type]
		if !ok || st.CIn <= 0 {
			continue
		}
		f := sized.ExternalLoadAt(i) / st.CIn
		if f > 0.8*lim {
			targets = append(targets, st.Node)
		}
		if f/lim > bestExcess {
			bestExcess = f / lim
			bestNode = st.Node
		}
	}
	if len(targets) == 0 && bestNode != nil {
		targets = append(targets, bestNode)
	}
	return targets
}

// Table4Table renders the comparison.
func Table4Table(rows []Table4Row) *report.Table {
	t := report.NewTable("Table 4 — region area ΣW (µm): buffer insertion vs De Morgan restructuring",
		"Circuit", "Domain", "Tc (ps)", "buff", "restruct", "gain %", "rewrites")
	for _, r := range rows {
		t.AddRow(r.Name, r.Domain, r.Tc, r.Buff, r.Restruct, r.GainPct, r.Rewrites)
	}
	t.AddNote("paper gains: 4%%–16%% on NOR-rich critical paths")
	return t
}
