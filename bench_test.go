// Benchmark harness: one testing.B target per table and figure of the
// paper's evaluation (see DESIGN.md §4 for the experiment index), plus
// the ablation benches of DESIGN.md §5. Each bench regenerates its
// artifact end-to-end and asserts the published *shape* — who wins and
// by roughly what factor — reporting the headline quantities as custom
// benchmark metrics.
//
// Run everything:  go test -bench=. -benchmem
// One artifact:    go test -bench=BenchmarkTable3 -benchtime=1x
package pops

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/buffering"
	"repro/internal/core"
	"repro/internal/delay"
	"repro/internal/engine"
	"repro/internal/experiments"
	"repro/internal/gate"
	"repro/internal/iscas"
	"repro/internal/leakage"
	"repro/internal/netlist"
	"repro/internal/sizing"
	"repro/internal/sta"
)

// benchSet keeps per-iteration cost bounded; cmd/experiments runs the
// full suite.
var benchSet = []string{"fpd", "c432", "c880", "c1355"}

func newEnv(b *testing.B) *experiments.Env {
	b.Helper()
	return experiments.NewEnv()
}

// BenchmarkFig1TminIterations regenerates Fig. 1: the delay-vs-ΣC_IN
// trajectory of the link-equation fixed point.
func BenchmarkFig1TminIterations(b *testing.B) {
	env := newEnv(b)
	var sweeps int
	for i := 0; i < b.N; i++ {
		points, tmax, tmin, err := env.Fig1("c432")
		if err != nil {
			b.Fatal(err)
		}
		if tmin >= tmax {
			b.Fatalf("Tmin %g not below Tmax %g", tmin, tmax)
		}
		last := points[len(points)-1]
		if last.Delay > tmin*1.01 {
			b.Fatalf("trajectory did not reach Tmin: %g vs %g", last.Delay, tmin)
		}
		sweeps = len(points)
	}
	b.ReportMetric(float64(sweeps), "sweeps")
}

// BenchmarkFig2TminPOPSvsAMPS regenerates Fig. 2: minimum delay, POPS
// vs the industrial-style baseline (POPS must win every row).
func BenchmarkFig2TminPOPSvsAMPS(b *testing.B) {
	env := newEnv(b)
	var worstRatio float64
	for i := 0; i < b.N; i++ {
		rows, err := env.Fig2(benchSet)
		if err != nil {
			b.Fatal(err)
		}
		worstRatio = 0
		for _, r := range rows {
			if r.POPS > r.AMPS*(1+1e-6) {
				b.Fatalf("%s: POPS Tmin %g above AMPS %g", r.Name, r.POPS, r.AMPS)
			}
			if ratio := r.AMPS / r.POPS; ratio > worstRatio {
				worstRatio = ratio
			}
		}
	}
	b.ReportMetric(worstRatio, "AMPS/POPS-max")
}

// BenchmarkFig3SensitivitySweep regenerates Fig. 3: the constant
// sensitivity delay-area family on one path.
func BenchmarkFig3SensitivitySweep(b *testing.B) {
	env := newEnv(b)
	var areaSpan float64
	for i := 0; i < b.N; i++ {
		points, err := env.Fig3("c432", nil)
		if err != nil {
			b.Fatal(err)
		}
		for j := 1; j < len(points); j++ {
			if points[j].Delay < points[j-1].Delay*(1-1e-9) ||
				points[j].Area > points[j-1].Area*(1+1e-9) {
				b.Fatalf("family not monotone at a=%g", points[j].A)
			}
		}
		areaSpan = points[0].Area / points[len(points)-1].Area
	}
	b.ReportMetric(areaSpan, "area-span")
}

// BenchmarkFig4AreaPOPSvsAMPS regenerates Fig. 4: area at Tc = 1.2·Tmin
// (POPS must use no more area than the baseline).
func BenchmarkFig4AreaPOPSvsAMPS(b *testing.B) {
	env := newEnv(b)
	var maxSaving float64
	for i := 0; i < b.N; i++ {
		rows, err := env.Fig4(benchSet, 1.2)
		if err != nil {
			b.Fatal(err)
		}
		maxSaving = 0
		for _, r := range rows {
			if r.POPS > r.AMPS*1.02 {
				b.Fatalf("%s: POPS area %g above baseline %g", r.Name, r.POPS, r.AMPS)
			}
			if s := (r.AMPS - r.POPS) / r.AMPS; s > maxSaving {
				maxSaving = s
			}
		}
	}
	b.ReportMetric(maxSaving*100, "saving-max-%")
}

// BenchmarkTable1CPUTime regenerates Table 1: wall-clock of the
// constraint-distribution step, POPS vs baseline.
func BenchmarkTable1CPUTime(b *testing.B) {
	env := newEnv(b)
	var minSpeedup float64
	for i := 0; i < b.N; i++ {
		rows, err := env.Table1([]string{"c432", "c1355"})
		if err != nil {
			b.Fatal(err)
		}
		minSpeedup = 1e18
		for _, r := range rows {
			if r.Speedup < minSpeedup {
				minSpeedup = r.Speedup
			}
		}
		if minSpeedup < 5 {
			b.Fatalf("speedup collapsed to %.1fx", minSpeedup)
		}
	}
	b.ReportMetric(minSpeedup, "speedup-min")
}

// BenchmarkTable2Flimit regenerates Table 2: the buffer-insertion
// fan-out limits, closed-form vs transistor-level.
func BenchmarkTable2Flimit(b *testing.B) {
	env := newEnv(b)
	var invLimit float64
	for i := 0; i < b.N; i++ {
		rows, err := env.Table2()
		if err != nil {
			b.Fatal(err)
		}
		byGate := map[gate.Type]experiments.Table2Row{}
		for _, r := range rows {
			byGate[r.Gate] = r
		}
		order := []gate.Type{gate.Inv, gate.Nand2, gate.Nand3, gate.Nor2, gate.Nor3}
		for j := 1; j < len(order); j++ {
			if byGate[order[j]].Calculated >= byGate[order[j-1]].Calculated {
				b.Fatalf("Flimit ordering broken at %v", order[j])
			}
		}
		invLimit = byGate[gate.Inv].Calculated
	}
	b.ReportMetric(invLimit, "Flimit-inv")
}

// BenchmarkTable3BufferGain regenerates Table 3: Tmin with sizing vs
// with buffer insertion.
func BenchmarkTable3BufferGain(b *testing.B) {
	env := newEnv(b)
	var maxGain float64
	for i := 0; i < b.N; i++ {
		rows, err := env.Table3(benchSet)
		if err != nil {
			b.Fatal(err)
		}
		maxGain = 0
		for _, r := range rows {
			if r.Buff > r.Sizing*(1+1e-9) {
				b.Fatalf("%s: buffering worsened Tmin", r.Name)
			}
			if r.GainPct > maxGain {
				maxGain = r.GainPct
			}
		}
		// The paper sees gains up to 22%; at least one benchmark must
		// benefit noticeably.
		if maxGain < 2 {
			b.Fatalf("no benchmark gained from buffering (max %.1f%%)", maxGain)
		}
	}
	b.ReportMetric(maxGain, "gain-max-%")
}

// BenchmarkFig6ConstraintDomains regenerates Fig. 6: the delay-area
// fronts whose crossings define the weak/medium/hard domains.
func BenchmarkFig6ConstraintDomains(b *testing.B) {
	env := newEnv(b)
	var minRatio float64
	for i := 0; i < b.N; i++ {
		fronts, err := env.Fig6("c1355")
		if err != nil {
			b.Fatal(err)
		}
		if fronts.TminBuffered > fronts.Tmin*(1+1e-9) {
			b.Fatal("buffered front has worse minimum")
		}
		minRatio = fronts.TminBuffered / fronts.Tmin
	}
	b.ReportMetric(minRatio, "TminBuf/Tmin")
}

// BenchmarkFig8DomainArea regenerates Fig. 8: area of the three
// methods in the three constraint domains (hard: global buffering must
// save area).
func BenchmarkFig8DomainArea(b *testing.B) {
	env := newEnv(b)
	var hardSaving float64
	for i := 0; i < b.N; i++ {
		rows, err := env.Fig8([]string{"c880", "c1355"})
		if err != nil {
			b.Fatal(err)
		}
		hardSaving = 0
		for _, r := range rows {
			if r.Domain != "hard" || !r.SizingOK || !r.GlobOK {
				continue
			}
			if r.GlobalB > r.Sizing*(1+1e-9) {
				b.Fatalf("%s hard: buffering worse than sizing", r.Name)
			}
			if s := (r.Sizing - r.GlobalB) / r.Sizing; s > hardSaving {
				hardSaving = s
			}
		}
	}
	b.ReportMetric(hardSaving*100, "hard-saving-%")
}

// BenchmarkTable4Restructure regenerates Table 4: buffer insertion vs
// De Morgan restructuring at hard and medium constraints.
func BenchmarkTable4Restructure(b *testing.B) {
	env := newEnv(b)
	var bestGain float64
	for i := 0; i < b.N; i++ {
		rows, err := env.Table4([]string{"c1355", "c1908"})
		if err != nil {
			b.Fatal(err)
		}
		bestGain = -1e18
		rewrote := false
		for _, r := range rows {
			if r.Rewrites > 0 {
				rewrote = true
			}
			if r.GainPct > bestGain {
				bestGain = r.GainPct
			}
			if r.Restruct > r.Buff*1.25 {
				b.Fatalf("%s/%s: restructuring far worse than buffering", r.Name, r.Domain)
			}
		}
		if !rewrote {
			b.Fatal("no NOR rewritten")
		}
	}
	b.ReportMetric(bestGain, "gain-best-%")
}

// --- Ablation benches (DESIGN.md §5) ---

// BenchmarkAblationSlopeEffect measures the input-slope term's share of
// the minimum path delay.
func BenchmarkAblationSlopeEffect(b *testing.B) {
	env := newEnv(b)
	var delta float64
	for i := 0; i < b.N; i++ {
		r, err := env.AblationSlope("c880")
		if err != nil {
			b.Fatal(err)
		}
		if r.Ablated > r.Baseline {
			b.Fatal("removing the slope term increased delay")
		}
		delta = r.DeltaPct
	}
	b.ReportMetric(delta, "slope-share-%")
}

// BenchmarkAblationCoupling measures the Miller-coupling term's share.
func BenchmarkAblationCoupling(b *testing.B) {
	env := newEnv(b)
	var delta float64
	for i := 0; i < b.N; i++ {
		r, err := env.AblationMiller("c880")
		if err != nil {
			b.Fatal(err)
		}
		if r.Ablated > r.Baseline {
			b.Fatal("removing coupling increased delay")
		}
		delta = r.DeltaPct
	}
	b.ReportMetric(delta, "miller-share-%")
}

// BenchmarkAblationSutherland measures the area penalty of the
// equal-delay distribution against the constant sensitivity method.
func BenchmarkAblationSutherland(b *testing.B) {
	env := newEnv(b)
	var worst float64
	for i := 0; i < b.N; i++ {
		rows, err := env.AblationSutherland("c880", nil)
		if err != nil {
			b.Fatal(err)
		}
		worst = 0
		for _, r := range rows {
			if r.DeltaPct < 0 {
				b.Fatalf("Sutherland beat constant sensitivity: %+v", r)
			}
			if r.DeltaPct > worst {
				worst = r.DeltaPct
			}
		}
	}
	b.ReportMetric(worst, "penalty-max-%")
}

// BenchmarkAblationLogicalEffort compares classic logical-effort
// sizing (the paper's ref. [4]) against the eq. (4) optimum on a
// hub-loaded benchmark path — fixed off-path loads break LE's
// scaling-branch assumption.
func BenchmarkAblationLogicalEffort(b *testing.B) {
	env := newEnv(b)
	var delta float64
	for i := 0; i < b.N; i++ {
		r, err := env.AblationLogicalEffort("c880")
		if err != nil {
			b.Fatal(err)
		}
		if r.DeltaPct < -0.01 {
			b.Fatal("logical effort beat the convex optimum")
		}
		delta = r.DeltaPct
	}
	b.ReportMetric(delta, "LE-penalty-%")
}

// BenchmarkRobustnessWireUncertainty measures how far ±30% routing
// mis-estimation moves the deterministic bounds (the §2 motivation).
func BenchmarkRobustnessWireUncertainty(b *testing.B) {
	env := newEnv(b)
	var drift float64
	for i := 0; i < b.N; i++ {
		rows, err := env.WireUncertainty([]string{"c880"}, 0.3, 2)
		if err != nil {
			b.Fatal(err)
		}
		drift = rows[0].DriftPct
		if drift > 15 {
			b.Fatalf("Tmin drift %.1f%% under ±30%% wires", drift)
		}
	}
	b.ReportMetric(drift, "Tmin-drift-%")
}

// BenchmarkRobustnessSeedSweep re-runs the Table 3 gain across
// generator seeds — the synthetic-benchmark substitution's stability.
func BenchmarkRobustnessSeedSweep(b *testing.B) {
	env := newEnv(b)
	var mean float64
	for i := 0; i < b.N; i++ {
		row, err := env.SeedSweep("c880", 3)
		if err != nil {
			b.Fatal(err)
		}
		if row.MinGain < -1e-6 {
			b.Fatal("buffering hurt Tmin on some seed")
		}
		mean = row.MeanGain
	}
	b.ReportMetric(mean, "gain-mean-%")
}

// --- Concurrent batch-engine benches (internal/engine) ---

// engineBenchSet × engineRatios is the suite batch used to compare the
// sequential driver against the engine's worker pool: one (circuit,
// Tc) task per cell, heterogeneous circuit sizes for load balancing.
var (
	engineBenchSet = []string{"fpd", "c432", "c880", "c1355"}
	engineRatios   = []float64{1.2, 1.5, 2.0}
)

// BenchmarkSequentialSuite is the single-threaded baseline: the same
// benchmark×ratio batch, one protocol instance (characterized once,
// like the engine's shared cache), strictly serial.
func BenchmarkSequentialSuite(b *testing.B) {
	model := NewModel(DefaultProcess())
	proto, err := NewProtocol(ProtocolConfig{Model: model})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, name := range engineBenchSet {
			for _, ratio := range engineRatios {
				c, err := Benchmark(name)
				if err != nil {
					b.Fatal(err)
				}
				pa, _, err := CriticalPath(c, model)
				if err != nil {
					b.Fatal(err)
				}
				bounds, err := Bounds(model, pa.Clone())
				if err != nil {
					b.Fatal(err)
				}
				out, err := proto.Optimize(context.Background(), proto.NewTimingSession(c), ratio*bounds.Tmin, nil, nil)
				if err != nil {
					b.Fatal(err)
				}
				if !out.Feasible {
					b.Fatalf("%s@%.2f infeasible", name, ratio)
				}
			}
		}
	}
}

// BenchmarkEngineSuite runs the same batch through a primed engine at
// 1/2/4/8 workers: every timed cell is a result-memo hit, so the rows
// measure the service's cached path (lookup, clone, bookkeeping), not
// optimization. BenchmarkEngineSuiteUncached is the compute view.
func BenchmarkEngineSuite(b *testing.B) {
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			eng, err := NewEngine(EngineConfig{Workers: workers})
			if err != nil {
				b.Fatal(err)
			}
			req := SuiteRequest{Benchmarks: engineBenchSet, Ratios: engineRatios}
			// Prime the characterization cache and the result memo
			// outside the timed region, so every timed iteration is the
			// steady state this row claims to measure (memo hits), not
			// first-iteration compute amortized over b.N.
			if _, err := eng.Suite(context.Background(), req); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := eng.Suite(context.Background(), req)
				if err != nil {
					b.Fatal(err)
				}
				for _, r := range res.Rows {
					if !r.Feasible {
						b.Fatalf("%s@%.2f infeasible", r.Circuit, r.Ratio)
					}
				}
			}
		})
	}
}

// BenchmarkEngineSuiteUncached is the memo-defeating variant of
// BenchmarkEngineSuite: every iteration submits freshly generated
// circuit variants (per-iteration seeds, so every fingerprint is new)
// as inline .bench netlists, so the result memo and the bounds cache
// miss on every cell. BenchmarkEngineSuite measures the service's
// steady state — after iteration 1 its cells are all memo hits — while
// this row measures raw optimization throughput; both rows are
// recorded in BENCH_engine.json. Variant generation and serialization
// run outside the timer.
func BenchmarkEngineSuiteUncached(b *testing.B) {
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			eng, err := NewEngine(EngineConfig{Workers: workers})
			if err != nil {
				b.Fatal(err)
			}
			// Warm the characterization cache outside the timed region,
			// like BenchmarkEngineSuite.
			if _, err := eng.Optimize(context.Background(), OptimizeRequest{Circuit: "fpd", Ratio: 2}); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				benches := make([]string, 0, len(engineBenchSet))
				for _, name := range engineBenchSet {
					spec, err := iscas.ByName(name)
					if err != nil {
						b.Fatal(err)
					}
					spec.Seed = int64(1 + i) // unique structure per iteration
					c, err := iscas.Generate(spec)
					if err != nil {
						b.Fatal(err)
					}
					var buf bytes.Buffer
					if err := netlist.WriteBench(&buf, c); err != nil {
						b.Fatal(err)
					}
					benches = append(benches, buf.String())
				}
				b.StartTimer()
				res, err := eng.Suite(context.Background(),
					SuiteRequest{Benches: benches, Ratios: engineRatios})
				if err != nil {
					b.Fatal(err)
				}
				if want := len(benches) * len(engineRatios); len(res.Rows) != want {
					b.Fatalf("suite returned %d rows, want %d", len(res.Rows), want)
				}
			}
		})
	}
}

// BenchmarkEngineSweep measures the Tc-grid job: 9 points on one
// circuit, the workload where cached bounds pay off most (one Tmin
// solve serves every point).
func BenchmarkEngineSweep(b *testing.B) {
	eng, err := NewEngine(EngineConfig{Workers: 4})
	if err != nil {
		b.Fatal(err)
	}
	// Warm the characterization cache and the circuit's bounds entry
	// outside the timed region, like BenchmarkEngineSuite.
	if _, err := eng.Optimize(context.Background(), OptimizeRequest{Circuit: "c880", Ratio: 2}); err != nil {
		b.Fatal(err)
	}
	var area float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sw, err := eng.Sweep(context.Background(), SweepRequest{Circuit: "c880", Points: 9})
		if err != nil {
			b.Fatal(err)
		}
		area = sw.Points[len(sw.Points)-1].Area
	}
	b.ReportMetric(area, "area-at-2Tmin")
}

// BenchmarkEngineHTTP measures the full service path: JSON request in,
// job through the store and pool, JSON result out.
func BenchmarkEngineHTTP(b *testing.B) {
	eng, err := NewEngine(EngineConfig{Workers: 2})
	if err != nil {
		b.Fatal(err)
	}
	srv := engine.NewServer(context.Background(), eng)
	defer srv.Shutdown()
	body := `{"circuit":"fpd","ratio":1.5,"wait":true}`
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		req := httptest.NewRequest("POST", "/v1/optimize", strings.NewReader(body))
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, req)
		if rec.Code != 200 {
			b.Fatalf("status %d: %s", rec.Code, rec.Body.String())
		}
	}
}

// --- Timing-session benches (internal/sta; BENCH_sta.json) ---

// staRoundSet and staRounds model the optimizer's hot loop: per round,
// one timing view of the circuit, one critical-path extraction, one
// worst-path resize. The two benchmarks below run the identical
// workload through the historical flow (a full fresh Analyze per
// round) and through the reusable session (cached analysis + dirty-cone
// Update), so their ns/op and allocs/op ratio is exactly the win of the
// incremental timing session recorded in BENCH_sta.json.
var staRoundSet = []string{"fpd", "c432", "c880", "c1355"}

const staRounds = 8

// staPerturb deterministically resizes the round's critical nodes —
// the stand-in for the protocol's write-back. Alternating factors keep
// sizes bounded across iterations.
func staPerturb(nodes []*Node, round int) {
	f := 1.02
	if round%2 == 1 {
		f = 1 / 1.02
	}
	for _, n := range nodes {
		n.CIn *= f
	}
}

// BenchmarkSTARoundLoopFullAnalyze is the pre-session baseline: every
// round pays a whole-circuit forward pass into freshly allocated
// timing storage, exactly like the historical core.OptimizeStep.
func BenchmarkSTARoundLoopFullAnalyze(b *testing.B) {
	model := NewModel(DefaultProcess())
	circuits := make([]*Circuit, len(staRoundSet))
	for i, name := range staRoundSet {
		c, err := Benchmark(name)
		if err != nil {
			b.Fatal(err)
		}
		circuits[i] = c
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, c := range circuits {
			for round := 0; round < staRounds; round++ {
				res, err := sta.Analyze(c, model, sta.Config{})
				if err != nil {
					b.Fatal(err)
				}
				staPerturb(res.CriticalNodes(), round)
			}
		}
	}
}

// BenchmarkSTARoundLoopSession is the same workload through one
// reusable timing session per circuit: the analysis is served from the
// session's buffers and repaired with a dirty-cone incremental update
// after each resize — the allocation-free round loop of the refactored
// optimizer.
func BenchmarkSTARoundLoopSession(b *testing.B) {
	model := NewModel(DefaultProcess())
	type unit struct {
		sess *sta.Session
		crit []*Node
	}
	units := make([]unit, len(staRoundSet))
	for i, name := range staRoundSet {
		c, err := Benchmark(name)
		if err != nil {
			b.Fatal(err)
		}
		units[i].sess = sta.NewSession(c, model, sta.Config{})
		if _, err := units[i].sess.Analyze(); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for u := range units {
			sess := units[u].sess
			for round := 0; round < staRounds; round++ {
				res, err := sess.Analyze()
				if err != nil {
					b.Fatal(err)
				}
				units[u].crit = res.AppendCriticalNodes(units[u].crit)
				staPerturb(units[u].crit, round)
				if _, err := res.Update(units[u].crit...); err != nil {
					b.Fatal(err)
				}
			}
		}
	}
}

// BenchmarkLeakageAssign measures the multi-Vt pass alone: one
// leakage.AssignSession over a fresh clone of mix6000 at Tc = 1.5× its
// entry worst delay. At so loose a budget no move is rejected: the row
// tracks the cost of the accepted trials (the incremental STA sweeps)
// on a circuit of thousands of gates.
func BenchmarkLeakageAssign(b *testing.B) {
	model := NewModel(DefaultProcess())
	base, err := iscas.MixedLogic(6000)
	if err != nil {
		b.Fatal(err)
	}
	entry, err := sta.Analyze(base, model, sta.Config{})
	if err != nil {
		b.Fatal(err)
	}
	benchLeakagePass(b, model, base, 1.5*entry.WorstDelay)
}

// BenchmarkLeakageAssignSized is the multi-Vt pass of a large-leakage
// op: mix6000 sized by the protocol at Tc = 1.5·Tmin (the sizing runs
// once, outside the timer), then the pass over a fresh clone of the
// sized netlist. Sizing leaves the worst paths at the budget, so this
// row rejects hundreds of moves, and the rejected trials dominate it.
func BenchmarkLeakageAssignSized(b *testing.B) {
	model := NewModel(DefaultProcess())
	base, err := iscas.MixedLogic(6000)
	if err != nil {
		b.Fatal(err)
	}
	pa, _, err := sta.CriticalPath(base, model, sta.Config{})
	if err != nil {
		b.Fatal(err)
	}
	tmin, err := sizing.Tmin(model, pa, sizing.Options{})
	if err != nil {
		b.Fatal(err)
	}
	tc := 1.5 * tmin.Delay
	proto, err := core.NewProtocol(core.Config{Model: model})
	if err != nil {
		b.Fatal(err)
	}
	if _, err := proto.Optimize(context.Background(), proto.NewTimingSession(base), tc, nil, nil); err != nil {
		b.Fatal(err)
	}
	benchLeakagePass(b, model, base, tc)
}

// benchLeakagePass times one leakage.AssignSession per iteration over a
// fresh clone of base at constraint tc. The clone and its first
// analysis are made outside the timer, as the engine hands the pass an
// already-analyzed session.
func benchLeakagePass(b *testing.B, model *Model, base *netlist.Circuit, tc float64) {
	b.Helper()
	var promoted int
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		sess := sta.NewSession(base.Clone(), model, sta.Config{})
		if _, err := sess.Analyze(); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		res, err := leakage.AssignSession(context.Background(), sess, tc, leakage.Options{})
		if err != nil {
			b.Fatal(err)
		}
		promoted = res.Promoted
	}
	b.ReportMetric(float64(promoted), "promoted")
}

// BenchmarkAblationTminSeeding verifies the CREF-independence of the
// link-equation fixed point.
func BenchmarkAblationTminSeeding(b *testing.B) {
	env := newEnv(b)
	var drift float64
	for i := 0; i < b.N; i++ {
		r, err := env.AblationSeeding("c880")
		if err != nil {
			b.Fatal(err)
		}
		drift = r.DeltaPct
		if drift > 1 || drift < -1 {
			b.Fatalf("Tmin drifted %.2f%% under a different seed", drift)
		}
	}
	b.ReportMetric(drift, "drift-%")
}

// --- Path-solver layer benches (internal/sizing, internal/buffering) ---

// suiteCriticalPaths extracts the critical path of every suite circuit
// at its generated sizes: the inputs the protocol's first round hands
// to the path solvers.
func suiteCriticalPaths(b *testing.B, m *Model) []*Path {
	b.Helper()
	var paths []*Path
	for _, spec := range iscas.Suite() {
		c, err := Benchmark(spec.Name)
		if err != nil {
			b.Fatal(err)
		}
		pa, _, err := CriticalPath(c, m)
		if err != nil {
			b.Fatal(err)
		}
		paths = append(paths, pa)
	}
	return paths
}

// BenchmarkTmin measures the §3.1 minimum-delay bound (link-equation
// fixed point plus worst-edge polish) over the 11 suite critical paths,
// through a reused workspace as the round loop runs it.
func BenchmarkTmin(b *testing.B) {
	m := NewModel(DefaultProcess())
	paths := suiteCriticalPaths(b, m)
	work := make([]delay.Path, len(paths))
	opts := sizing.Options{NoTrace: true, Workspace: &sizing.Workspace{}}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for k, pa := range paths {
			if _, err := sizing.Tmin(m, pa.CopyInto(&work[k]), opts); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkDistributeWithBuffers measures the §4.1 buffered constraint
// distribution over the 11 suite critical paths in each mode at the
// ratio where the protocol picks it: Local in the medium domain
// (Tc = 1.2·Tmin, suite-tight's ratio) and Global in the hard domain
// (Tc = 1.1·Tmin).
func BenchmarkDistributeWithBuffers(b *testing.B) {
	m := NewModel(DefaultProcess())
	paths := suiteCriticalPaths(b, m)
	limits := buffering.Limits(buffering.CharacterizeLibrary(m, nil, buffering.Options{}))
	tmin := make([]float64, len(paths))
	for k, pa := range paths {
		r, err := sizing.Tmin(m, pa.Clone(), sizing.Options{NoTrace: true})
		if err != nil {
			b.Fatal(err)
		}
		tmin[k] = r.Delay
	}
	for _, c := range []struct {
		name  string
		mode  buffering.Mode
		ratio float64
	}{{"mode=local", buffering.Local, 1.2}, {"mode=global", buffering.Global, 1.1}} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				for k, pa := range paths {
					_, err := buffering.DistributeWithBuffers(m, pa, c.ratio*tmin[k], limits, c.mode, sizing.Options{NoTrace: true}, buffering.Solved{})
					if err != nil && !errors.Is(err, sizing.ErrInfeasible) {
						b.Fatal(err)
					}
				}
			}
		})
	}
}

// suiteBenchSources serializes the 11 suite circuits to .bench text,
// the inline sources a weak-domain client submits.
func suiteBenchSources(b *testing.B) []string {
	b.Helper()
	var srcs []string
	for _, spec := range iscas.Suite() {
		c, err := iscas.Load(spec.Name)
		if err != nil {
			b.Fatal(err)
		}
		var sb strings.Builder
		if err := netlist.WriteBench(&sb, c); err != nil {
			b.Fatal(err)
		}
		srcs = append(srcs, sb.String())
	}
	return srcs
}

// BenchmarkParseBenchSuite measures inline-source ingestion — read,
// elaborate, validate and fingerprint (engine.ParseBench) — over the
// 11 suite sources, one op per pass.
func BenchmarkParseBenchSuite(b *testing.B) {
	srcs := suiteBenchSources(b)
	b.ReportAllocs()
	for b.Loop() {
		for _, src := range srcs {
			if _, err := engine.ParseBench(src); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkCircuitClone measures the per-task instantiation of a parsed
// master netlist (netlist.Circuit.Clone) on the 6k-gate mix6000.
func BenchmarkCircuitClone(b *testing.B) {
	c, err := iscas.Load("mix6000")
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for b.Loop() {
		if c.Clone() == nil {
			b.Fatal("nil clone")
		}
	}
}
