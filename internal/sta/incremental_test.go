package sta

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/delay"
	"repro/internal/gate"
	"repro/internal/iscas"
	"repro/internal/netlist"
	"repro/internal/tech"
)

func TestIncrementalMatchesFullAnalysis(t *testing.T) {
	// Property: after arbitrary size changes, Update produces exactly
	// the timing a fresh Analyze would.
	p := tech.CMOS025()
	m := delay.NewModel(p)
	spec, err := iscas.ByName("c432")
	if err != nil {
		t.Fatal(err)
	}
	c := iscas.MustGenerate(spec)
	res, err := Analyze(c, m, Config{})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(31))
	gates := c.Gates()
	for trial := 0; trial < 12; trial++ {
		var changed []*netlist.Node
		for k := 0; k < 1+rng.Intn(4); k++ {
			g := gates[rng.Intn(len(gates))]
			g.CIn = p.ClampCap(p.CRef * math.Exp(rng.Float64()*4))
			changed = append(changed, g)
		}
		if _, err := res.Update(changed...); err != nil {
			t.Fatal(err)
		}
		fresh, err := Analyze(c, m, Config{})
		if err != nil {
			t.Fatal(err)
		}
		assertSameAnalysis(t, c, res, fresh)
	}
}

// assertSameAnalysis fails unless res and fresh agree to the last bit:
// every node's timing, the worst endpoint and the critical path.
func assertSameAnalysis(t *testing.T, c *netlist.Circuit, res, fresh *Result) {
	t.Helper()
	for _, n := range c.Nodes {
		a, b := res.Timing(n), fresh.Timing(n)
		if math.Float64bits(a.TRise) != math.Float64bits(b.TRise) ||
			math.Float64bits(a.TFall) != math.Float64bits(b.TFall) ||
			math.Float64bits(a.TauRise) != math.Float64bits(b.TauRise) ||
			math.Float64bits(a.TauFall) != math.Float64bits(b.TauFall) {
			t.Fatalf("node %s diverged: incremental %+v vs fresh %+v", n.Name, a, b)
		}
	}
	if math.Float64bits(res.WorstDelay) != math.Float64bits(fresh.WorstDelay) ||
		res.WorstOutput != fresh.WorstOutput || res.WorstRising != fresh.WorstRising {
		t.Fatalf("worst endpoint diverged: incremental %g at %v (rising %v) vs fresh %g at %v (rising %v)",
			res.WorstDelay, res.WorstOutput, res.WorstRising, fresh.WorstDelay, fresh.WorstOutput, fresh.WorstRising)
	}
	a, b := res.CriticalNodes(), fresh.CriticalNodes()
	if len(a) != len(b) {
		t.Fatalf("critical path length diverged: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("critical path diverged at stage %d: %s vs %s", i, a[i].Name, b[i].Name)
		}
	}
}

// scanUpdate is the reference cone repair: a scan of the whole
// topological order recomputing every dirty node. Update's worklist
// must visit exactly the nodes it visits.
func scanUpdate(r *Result, changed *netlist.Node) int {
	dirty := make([]bool, len(r.timing))
	dirty[changed.ID] = true
	for _, f := range changed.Fanin {
		dirty[f.ID] = true
	}
	recomputed := 0
	for _, n := range r.order {
		if !dirty[n.ID] {
			continue
		}
		old := r.timing[n.ID]
		switch n.Type {
		case gate.Input:
			tau := delay.DefaultTauIn(r.Model.Proc)
			r.timing[n.ID] = NodeTiming{TauRise: tau, TauFall: tau}
		case gate.Output:
			r.timing[n.ID] = r.timing[n.Fanin[0].ID]
		default:
			r.analyzeGate(n)
		}
		recomputed++
		if old != r.timing[n.ID] {
			for _, s := range n.Fanout {
				dirty[s.ID] = true
			}
		}
	}
	return recomputed
}

func TestIncrementalVtMovesMatchFullAnalysis(t *testing.T) {
	// The multi-Vt pass's access pattern: move one gate up the Vt
	// ladder and check it against a budget, restoring the class when it
	// fails, with a resize every fourth move. Each move runs twice:
	// through Try, bounded by a report of the state before the move, on
	// one analysis, and through Update plus a rollback Update on a
	// reference analysis. Try must reach the reference's verdict; a
	// kept Try must equal the reference and a fresh Analyze bit for
	// bit, a rejected one must leave its analysis exactly as it was.
	// Each Update must also recompute exactly the nodes the whole-order
	// scan would.
	m := delay.NewModel(tech.CMOS025())
	c, err := iscas.MixedLogic(400)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Analyze(c, m, Config{})
	if err != nil {
		t.Fatal(err)
	}
	tried, err := Analyze(c, m, Config{})
	if err != nil {
		t.Fatal(err)
	}
	ref, err := Analyze(c, m, Config{})
	if err != nil {
		t.Fatal(err)
	}
	update := func(g *netlist.Node) {
		t.Helper()
		got, err := res.Update(g)
		if err != nil {
			t.Fatal(err)
		}
		if want := scanUpdate(ref, g); got != want {
			t.Fatalf("Update of %s recomputed %d nodes, the full-order scan %d", g.Name, got, want)
		}
	}
	// try runs the move through Try and Update and reports the verdict.
	try := func(g *netlist.Node, budget float64) bool {
		t.Helper()
		before := snapshot(tried)
		rep, err := tried.Slacks(budget)
		if err != nil {
			t.Fatal(err)
		}
		kept, _, err := tried.Try(rep, g)
		if err != nil {
			t.Fatal(err)
		}
		update(g)
		if want := res.WorstDelay <= budget; kept != want {
			t.Fatalf("Try of %s at budget %v kept %v, Update reached %v", g.Name, budget, kept, res.WorstDelay)
		}
		if kept {
			assertSameState(t, c, tried, res)
		} else {
			assertSameState(t, c, tried, before)
		}
		return kept
	}
	rng := rand.New(rand.NewSource(7))
	gates := c.Gates()
	classes := tech.VtClasses()
	rejected := 0
	for move := 0; move < 300; move++ {
		g := gates[rng.Intn(len(gates))]
		if move%4 == 3 {
			// A resize also moves the drivers' load: the sizing
			// rounds' pattern, seeding the fanins as well.
			g.CIn = m.Proc.ClampCap(m.Proc.CRef * math.Exp(rng.Float64()*3))
			try(g, math.Inf(1))
			continue
		}
		// Budgets around the current worst delay, some below it: then
		// even a move outside the worst cone must fail. The report
		// bounds only moves up the ladder (a resize runs unbounded).
		budget := res.WorstDelay * (0.995 + 0.02*rng.Float64())
		prev := g.Vt
		g.Vt = classes[prev.Rank()+rng.Intn(len(classes)-prev.Rank())]
		if !try(g, budget) {
			rejected++
			g.Vt = prev
			update(g)
			assertSameState(t, c, tried, res)
		}
		fresh, err := Analyze(c, m, Config{})
		if err != nil {
			t.Fatal(err)
		}
		assertSameAnalysis(t, c, tried, fresh)
		assertSameAnalysis(t, c, res, fresh)
	}
	if rejected == 0 || rejected == 225 {
		t.Fatalf("%d of 225 Vt moves rejected: the pattern must exercise both verdicts", rejected)
	}
}

// snapshot copies the state Try may touch: per-node timing and preds
// and the worst endpoint.
func snapshot(r *Result) *Result {
	return &Result{
		WorstDelay:  r.WorstDelay,
		WorstOutput: r.WorstOutput,
		WorstRising: r.WorstRising,
		timing:      slices.Clone(r.timing),
		predRise:    slices.Clone(r.predRise),
		predFall:    slices.Clone(r.predFall),
	}
}

// assertSameState fails unless got and want hold the same timing and
// preds for every node and the same worst endpoint, bit for bit.
func assertSameState(t *testing.T, c *netlist.Circuit, got, want *Result) {
	t.Helper()
	for _, n := range c.Nodes {
		a, b := got.timing[n.ID], want.timing[n.ID]
		if math.Float64bits(a.TRise) != math.Float64bits(b.TRise) ||
			math.Float64bits(a.TFall) != math.Float64bits(b.TFall) ||
			math.Float64bits(a.TauRise) != math.Float64bits(b.TauRise) ||
			math.Float64bits(a.TauFall) != math.Float64bits(b.TauFall) {
			t.Fatalf("node %s timing %+v, want %+v", n.Name, a, b)
		}
		if got.predRise[n.ID] != want.predRise[n.ID] || got.predFall[n.ID] != want.predFall[n.ID] {
			t.Fatalf("node %s preds diverged", n.Name)
		}
	}
	if math.Float64bits(got.WorstDelay) != math.Float64bits(want.WorstDelay) ||
		got.WorstOutput != want.WorstOutput || got.WorstRising != want.WorstRising {
		t.Fatalf("worst endpoint %v at %v, want %v at %v", got.WorstDelay, got.WorstOutput, want.WorstDelay, want.WorstOutput)
	}
}

func TestIncrementalPrunesCone(t *testing.T) {
	// Changing the last gate of a long chain must touch only a
	// handful of nodes, not the whole circuit.
	m := delay.NewModel(tech.CMOS025())
	c := chainCircuit(t, 30, 12)
	res, err := Analyze(c, m, Config{})
	if err != nil {
		t.Fatal(err)
	}
	last := c.Node("g" + string(rune('0'+29)))
	if last == nil {
		// Chain names use single characters; for n=30 build names
		// differently — fall back to the last gate in order.
		gs := c.Gates()
		last = gs[len(gs)-1]
	}
	last.CIn *= 3
	n, err := res.Update(last)
	if err != nil {
		t.Fatal(err)
	}
	// The cone is: the gate, its driver, and the PO — far below 30.
	if n > 6 {
		t.Fatalf("recomputed %d nodes for a tail-gate change", n)
	}
}

func TestIncrementalDetectsStructureChange(t *testing.T) {
	m := delay.NewModel(tech.CMOS025())
	c := chainCircuit(t, 4, 12)
	res, err := Analyze(c, m, Config{})
	if err != nil {
		t.Fatal(err)
	}
	g := c.Gates()[1]
	// Structural mutation invalidates the cached order.
	if _, _, err := c.InsertBufferPair(g, g.Fanout, 2, 4); err != nil {
		t.Fatal(err)
	}
	if _, err := res.Update(g); err == nil {
		t.Fatal("stale incremental update accepted after mutation")
	}
}

func TestIncrementalRejectsForeignNode(t *testing.T) {
	m := delay.NewModel(tech.CMOS025())
	c := chainCircuit(t, 4, 12)
	d := chainCircuit(t, 4, 12)
	res, err := Analyze(c, m, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := res.Update(d.Gates()[0]); err == nil {
		t.Fatal("node from another circuit accepted")
	}
}

func TestIncrementalUpstreamLoadEffect(t *testing.T) {
	// Resizing a gate changes its driver's delay (load effect): the
	// driver must be recomputed even though it sits upstream.
	m := delay.NewModel(tech.CMOS025())
	c := chainCircuit(t, 5, 12)
	res, err := Analyze(c, m, Config{})
	if err != nil {
		t.Fatal(err)
	}
	gs := c.Gates()
	mid := gs[2]
	driver := gs[1]
	before := res.Timing(driver)
	mid.CIn *= 8
	if _, err := res.Update(mid); err != nil {
		t.Fatal(err)
	}
	after := res.Timing(driver)
	if before.TauRise == after.TauRise && before.TauFall == after.TauFall {
		t.Fatal("driver transitions unchanged despite load change")
	}
}
