package sta

import (
	"errors"
	"math"
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/gate"
	"repro/internal/iscas"
	"repro/internal/netlist"
	"repro/internal/tech"
)

// unboundedTry is the reference trial: Try without a report's required
// times, whose sweep stops only at a primary output over budget. It
// returns the verdict and the number of nodes recomputed.
func unboundedTry(r *Result, budget float64, changed ...*netlist.Node) (bool, int) {
	r.undo = r.undo[:0]
	r.seed(changed)
	n, ok := r.sweep(budget, nil, true)
	if ok {
		if d, o, rising := r.worst(); d <= budget {
			r.WorstDelay, r.WorstOutput, r.WorstRising = d, o, rising
			return true, n
		}
	}
	r.restore()
	return false, n
}

// TestBoundedTryMatchesUnbounded replays the multi-Vt pass's moves —
// single gates one step up the ladder and blocks raised to HVT, every
// trial against one report computed before the first — through Try and
// through the unbounded reference sweep on a second analysis. After
// every move both must hold the same verdict and, bit for bit, the same
// timing, preds and worst endpoint. The bounded trial must never
// recompute more nodes than the reference, and fewer in total.
func TestBoundedTryMatchesUnbounded(t *testing.T) {
	m := model()
	c, err := iscas.MixedLogic(400)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(11))
	gates := c.Gates()
	for _, g := range gates {
		if rng.Intn(3) == 0 {
			g.Vt = tech.LVT
		}
	}
	bounded, err := Analyze(c, m, Config{})
	if err != nil {
		t.Fatal(err)
	}
	ref, err := Analyze(c, m, Config{})
	if err != nil {
		t.Fatal(err)
	}
	budget := 1.01 * bounded.WorstDelay
	rep, err := bounded.Slacks(budget)
	if err != nil {
		t.Fatal(err)
	}
	var kept, rejected, boundedWork, refWork int
	for move := 0; move < 400; move++ {
		var changed []*netlist.Node
		var prev []tech.VtClass
		k := 1
		if move%2 == 1 {
			k += rng.Intn(8)
		}
		for len(changed) < k {
			g := gates[rng.Intn(len(gates))]
			next, ok := g.Vt.Promote()
			if !ok {
				continue
			}
			if k > 1 {
				next = tech.HVT
			}
			changed, prev = append(changed, g), append(prev, g.Vt)
			g.Vt = next
		}
		got, n, err := bounded.Try(rep, changed...)
		if err != nil {
			t.Fatal(err)
		}
		want, nRef := unboundedTry(ref, budget, changed...)
		if got != want {
			t.Fatalf("move %d: bounded trial kept %v, unbounded %v", move, got, want)
		}
		if n > nRef {
			t.Fatalf("move %d: bounded trial recomputed %d nodes, unbounded %d", move, n, nRef)
		}
		boundedWork += n
		refWork += nRef
		assertSameState(t, c, bounded, ref)
		if got {
			kept++
			continue
		}
		rejected++
		for i, g := range changed {
			g.Vt = prev[i]
		}
	}
	fresh, err := Analyze(c, m, Config{})
	if err != nil {
		t.Fatal(err)
	}
	assertSameAnalysis(t, c, bounded, fresh)
	if kept == 0 || rejected == 0 {
		t.Fatalf("%d kept, %d rejected: the moves must exercise both verdicts", kept, rejected)
	}
	if boundedWork >= refWork {
		t.Fatalf("bounded trials recomputed %d nodes, unbounded %d: the bound never stopped a sweep", boundedWork, refWork)
	}
	t.Logf("%d kept, %d rejected; recomputed %d bounded, %d unbounded", kept, rejected, boundedWork, refWork)
}

// TestTryMarginFallsThroughToOutputCheck: an arrival over its required
// time by less than the rounding margin must not stop the sweep, so the
// exact output check decides; past the margin the sweep stops at the
// gate. The trial re-times the worst output, which seeds it and its
// driver: the driver is over its required time by exactly what the
// output is over the budget.
func TestTryMarginFallsThroughToOutputCheck(t *testing.T) {
	c := chainCircuit(t, 8, 12)
	res, err := Analyze(c, model(), Config{})
	if err != nil {
		t.Fatal(err)
	}
	before := snapshot(res)
	out := res.WorstOutput
	for _, tc := range []struct {
		name       string
		over       float64 // worst delay over the budget, relative
		kept       bool
		recomputed int
	}{
		{"met", 0, true, 2},
		{"inside margin", 1e-10, false, 2},
		{"past margin", 1e-7, false, 1},
	} {
		rep, err := res.Slacks(res.WorstDelay * (1 - tc.over))
		if err != nil {
			t.Fatal(err)
		}
		kept, n, err := res.Try(rep, out)
		if err != nil {
			t.Fatal(err)
		}
		if kept != tc.kept || n != tc.recomputed {
			t.Errorf("%s: kept %v after %d recomputes, want %v after %d", tc.name, kept, n, tc.kept, tc.recomputed)
		}
		assertSameState(t, c, res, before)
	}
}

// TestTryRefusesStaleReport: a report computed before an Update, before
// a structural re-analysis, or from another analysis no longer bounds
// the timing, and Try must refuse it before touching any; a kept Try
// leaves its report valid.
func TestTryRefusesStaleReport(t *testing.T) {
	m := model()
	c := chainCircuit(t, 6, 12)
	sess := NewSession(c, m, Config{})
	res, err := sess.Analyze()
	if err != nil {
		t.Fatal(err)
	}
	gs := c.Gates()
	rep, err := res.Slacks(math.Inf(1))
	if err != nil {
		t.Fatal(err)
	}
	gs[1].Vt = tech.HVT
	if kept, _, err := res.Try(rep, gs[1]); !kept || err != nil {
		t.Fatalf("unbounded trial kept %v (err %v)", kept, err)
	}
	if kept, _, err := res.Try(rep, gs[1]); !kept || err != nil {
		t.Fatalf("report refused after a kept trial: kept %v (err %v)", kept, err)
	}
	refused := func(what string, rep *SlackReport) {
		t.Helper()
		before := snapshot(res)
		gs[2].Vt = tech.HVT
		kept, n, err := res.Try(rep, gs[2])
		gs[2].Vt = tech.SVT
		if !errors.Is(err, ErrStaleReport) || kept || n != 0 {
			t.Fatalf("%s: kept %v after %d recomputes, err %v; want ErrStaleReport", what, kept, n, err)
		}
		assertSameState(t, c, res, before)
	}

	other, err := Analyze(c, m, Config{})
	if err != nil {
		t.Fatal(err)
	}
	foreign, err := other.Slacks(math.Inf(1))
	if err != nil {
		t.Fatal(err)
	}
	refused("report of another analysis", foreign)

	gs[3].CIn *= 2
	if _, err := res.Update(gs[3]); err != nil {
		t.Fatal(err)
	}
	refused("report from before an Update", rep)

	if rep, err = res.Slacks(math.Inf(1)); err != nil {
		t.Fatal(err)
	}
	if _, err := c.InsertCell(gs[4], gate.Buf, gs[4].Fanout, m.Proc.CRef); err != nil {
		t.Fatal(err)
	}
	if again, err := sess.Analyze(); err != nil || again != res {
		t.Fatalf("re-analysis returned %p (err %v), want the session's result %p", again, err, res)
	}
	refused("report from before a structural re-analysis", rep)
}

// TestReanalysisGrowthIsAmortized: buffer insertion raises the ID bound
// one node per round. The per-ID timing buffers and the sort's scratch
// grow on append's schedule, so a re-analysis allocates only in the few
// rounds where the bound outgrows their capacity.
func TestReanalysisGrowthIsAmortized(t *testing.T) {
	c, err := iscas.Load("c880")
	if err != nil {
		t.Fatal(err)
	}
	m := model()
	sess := NewSession(c, m, Config{})
	if _, err := sess.Analyze(); err != nil {
		t.Fatal(err)
	}
	var drivers []*netlist.Node
	for _, g := range c.Gates() {
		if len(g.Fanout) > 0 {
			drivers = append(drivers, g)
		}
	}
	const rounds = 64
	var allocating []int // rounds whose re-analysis allocated
	var ms runtime.MemStats
	for i := 0; i < rounds; i++ {
		g := drivers[i*len(drivers)/rounds]
		if _, err := c.InsertCell(g, gate.Buf, g.Fanout, m.Proc.CRef); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&ms)
		before := ms.Mallocs
		if _, err := sess.Analyze(); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&ms)
		if ms.Mallocs != before {
			allocating = append(allocating, i)
		}
	}
	// Exact-size growth reallocates in every round.
	if len(allocating) > 4 {
		t.Fatalf("%d of %d re-analyses allocated, in rounds %v", len(allocating), rounds, allocating)
	}
}
