package sta

import (
	"errors"
	"math"
	"testing"

	"repro/internal/gate"
	"repro/internal/iscas"
	"repro/internal/netlist"
	"repro/internal/tech"
)

// TestUpdateRejectsCountPreservingMutation is the regression for the
// historical stale-structure guard, which compared node *counts*: a
// structural rewrite that preserves the count — here an in-place
// NOR→NAND retype plus a pin rewire past an inverter that keeps other
// sinks — slipped straight through it, silently producing timing on a
// stale arc personality. The epoch guard must refuse with
// ErrStaleAnalysis.
func TestUpdateRejectsCountPreservingMutation(t *testing.T) {
	m := model()
	c := netlist.New("countpreserving")
	for _, in := range []string{"a", "b"} {
		if _, err := c.AddInput(in); err != nil {
			t.Fatal(err)
		}
	}
	// inv has two sinks, so bypassing one pin does not remove it.
	if _, err := c.AddGate("inv", gate.Inv, "a"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.AddGate("g", gate.Nor2, "inv", "b"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.AddGate("h", gate.Inv, "inv"); err != nil {
		t.Fatal(err)
	}
	for _, out := range []struct {
		net  string
		load float64
	}{{"g", 10}, {"h", 10}} {
		if _, err := c.AddOutput(out.net, out.load); err != nil {
			t.Fatal(err)
		}
	}

	res, err := Analyze(c, m, Config{})
	if err != nil {
		t.Fatal(err)
	}
	g := c.Node("g")
	nodesBefore := len(c.Nodes)

	// Mutation 1: in-place De Morgan retype — node count unchanged.
	if err := c.ReplaceType(g, gate.Nand2); err != nil {
		t.Fatal(err)
	}
	if len(c.Nodes) != nodesBefore {
		t.Fatalf("retype changed the node count: %d vs %d — the regression premise is gone",
			len(c.Nodes), nodesBefore)
	}
	if _, err := res.Update(g); !errors.Is(err, ErrStaleAnalysis) {
		t.Fatalf("count-preserving retype not rejected: err = %v", err)
	}

	// Re-analyze, then mutation 2: rewire g's pin past the inverter.
	// The inverter keeps its second sink, so again the count holds.
	res, err = Analyze(c, m, Config{})
	if err != nil {
		t.Fatal(err)
	}
	removed, err := c.BypassInverter(g, 0)
	if err != nil {
		t.Fatal(err)
	}
	if removed || len(c.Nodes) != nodesBefore {
		t.Fatalf("bypass removed the inverter (%v) or changed the count — premise gone", removed)
	}
	if _, err := res.Update(g); !errors.Is(err, ErrStaleAnalysis) {
		t.Fatalf("count-preserving rewire not rejected: err = %v", err)
	}
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestUpdateFailurePoisonsResult covers the failed-update contract:
// when Update errors after timing was already overwritten (forced here
// by tearing the Outputs slice out from under the analysis, a direct
// field write no mutator guards), the Result must become unusable by
// contract — every subsequent Update refuses with ErrStaleAnalysis —
// rather than staying silently half-mutated.
func TestUpdateFailurePoisonsResult(t *testing.T) {
	m := model()
	c := chainCircuit(t, 5, 12)
	res, err := Analyze(c, m, Config{})
	if err != nil {
		t.Fatal(err)
	}
	gs := c.Gates()
	outputs := c.Outputs
	c.Outputs = nil // simulate external corruption: no epoch bump

	gs[2].CIn *= 2
	if _, err := res.Update(gs[2]); !errors.Is(err, ErrStaleAnalysis) {
		t.Fatalf("update with lost outputs: err = %v, want ErrStaleAnalysis", err)
	}
	// The failure must stick even after the corruption is repaired: the
	// timing was torn mid-update and only a fresh analysis may serve.
	c.Outputs = outputs
	if _, err := res.Update(gs[2]); !errors.Is(err, ErrStaleAnalysis) {
		t.Fatalf("poisoned result accepted another update: err = %v", err)
	}
	if res.Fresh() {
		t.Fatal("poisoned result still reports fresh")
	}

	// A session over the same circuit recovers by re-analyzing.
	sess := NewSession(c, m, Config{})
	fresh, err := sess.Analyze()
	if err != nil {
		t.Fatal(err)
	}
	if fresh.WorstDelay <= 0 || !fresh.Fresh() {
		t.Fatalf("session did not recover a usable analysis: %+v", fresh.WorstDelay)
	}
}

// TestSessionReusesAndRefreshes exercises the session lifecycle: cached
// result while the structure holds, incremental repair after size
// writes, full refresh (same Result object, new values) after a
// structural mutation, and bit-identity with fresh analyses throughout.
func TestSessionReusesAndRefreshes(t *testing.T) {
	m := model()
	c := chainCircuit(t, 8, 12)
	sess := NewSession(c, m, Config{})

	r1, err := sess.Analyze()
	if err != nil {
		t.Fatal(err)
	}
	r2, err := sess.Analyze()
	if err != nil {
		t.Fatal(err)
	}
	if r1 != r2 {
		t.Fatal("unchanged circuit did not serve the cached result")
	}

	// Size-only write + Update: the session keeps serving the repaired
	// analysis, and it matches a from-scratch Analyze bit-exactly.
	g := c.Gates()[3]
	g.CIn *= 2.5
	if _, err := r1.Update(g); err != nil {
		t.Fatal(err)
	}
	r3, err := sess.Analyze()
	if err != nil {
		t.Fatal(err)
	}
	if r3 != r1 {
		t.Fatal("size-only change invalidated the session")
	}
	fresh, err := Analyze(c, m, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if r3.WorstDelay != fresh.WorstDelay {
		t.Fatalf("repaired session %v vs fresh %v", r3.WorstDelay, fresh.WorstDelay)
	}

	// Structural mutation: next Analyze re-propagates into the same
	// Result object with the new structure.
	if _, _, err := c.InsertBufferPair(g, g.Fanout, 2, 4); err != nil {
		t.Fatal(err)
	}
	if r3.Fresh() {
		t.Fatal("structural mutation left the result fresh")
	}
	r4, err := sess.Analyze()
	if err != nil {
		t.Fatal(err)
	}
	if r4 != r1 {
		t.Fatal("session allocated a new Result instead of reusing buffers")
	}
	fresh2, err := Analyze(c, m, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if r4.WorstDelay != fresh2.WorstDelay {
		t.Fatalf("refreshed session %v vs fresh %v", r4.WorstDelay, fresh2.WorstDelay)
	}
	for _, n := range c.Nodes {
		if r4.Timing(n) != fresh2.Timing(n) {
			t.Fatalf("node %s timing diverged after refresh", n.Name)
		}
	}
}

// TestSessionRoundLoopAllocationFree pins the session's claim: once
// warm, an analyze → resize → update round through the session
// performs no allocation, and neither do the multi-Vt pass's trials,
// kept or rejected.
func TestSessionRoundLoopAllocationFree(t *testing.T) {
	m := model()
	c := chainCircuit(t, 40, 12)
	sess := NewSession(c, m, Config{})
	if _, err := sess.Analyze(); err != nil {
		t.Fatal(err)
	}
	gs := c.Gates()
	allocs := testing.AllocsPerRun(50, func() {
		res, err := sess.Analyze()
		if err != nil {
			t.Fatal(err)
		}
		g := gs[len(gs)/2]
		g.CIn *= 1.01
		if _, err := res.Update(g); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 0 {
		t.Fatalf("warm session round allocated %.1f times per run", allocs)
	}

	// The pass's trials share reports computed once, before the first.
	res, err := sess.Analyze()
	if err != nil {
		t.Fatal(err)
	}
	tight, err := res.Slacks(res.WorstDelay)
	if err != nil {
		t.Fatal(err)
	}
	loose, err := res.Slacks(math.Inf(1))
	if err != nil {
		t.Fatal(err)
	}
	i := 0
	allocs = testing.AllocsPerRun(50, func() {
		// Every chain gate is critical: an HVT promotion fails the
		// entry delay as a budget and passes an unbounded one.
		g := gs[i%len(gs)]
		i++
		g.Vt = tech.HVT
		if kept, _, err := res.Try(tight, g); kept || err != nil {
			t.Fatalf("critical promotion kept %v (err %v)", kept, err)
		}
		if kept, _, err := res.Try(loose, g); !kept || err != nil {
			t.Fatalf("unbounded trial rejected (err %v)", err)
		}
	})
	if allocs > 0 {
		t.Fatalf("warm trials allocated %.1f times per run", allocs)
	}
}

// TestSessionInvalidateForcesReanalysis covers the explicit reset path.
func TestSessionInvalidateForcesReanalysis(t *testing.T) {
	m := model()
	c := chainCircuit(t, 4, 12)
	sess := NewSession(c, m, Config{})
	r, err := sess.Analyze()
	if err != nil {
		t.Fatal(err)
	}
	// Silent size write without Update: stale values until reset.
	c.Gates()[1].CIn *= 4
	sess.Invalidate()
	if r.Fresh() {
		t.Fatal("invalidated result still fresh")
	}
	r2, err := sess.Analyze()
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := Analyze(c, m, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if r2.WorstDelay != fresh.WorstDelay {
		t.Fatalf("post-invalidate analysis %v vs fresh %v", r2.WorstDelay, fresh.WorstDelay)
	}
}

// TestSlacksRejectStaleResult: the backward pass reads the cached
// forward state, so it must refuse a stale structure too.
func TestSlacksRejectStaleResult(t *testing.T) {
	m := model()
	c := chainCircuit(t, 4, 12)
	res, err := Analyze(c, m, Config{})
	if err != nil {
		t.Fatal(err)
	}
	g := c.Gates()[1]
	if _, _, err := c.InsertBufferPair(g, g.Fanout, 2, 4); err != nil {
		t.Fatal(err)
	}
	if _, err := res.Slacks(res.WorstDelay); !errors.Is(err, ErrStaleAnalysis) {
		t.Fatalf("stale Slacks not rejected: err = %v", err)
	}
}

// TestVtClassChangeIsNotStructural: Vt writes must stay repairable by
// Update — promoting a gate is the leakage pass's hot move.
func TestVtClassChangeIsNotStructural(t *testing.T) {
	m := model()
	c := chainCircuit(t, 6, 12)
	sess := NewSession(c, m, Config{})
	res, err := sess.Analyze()
	if err != nil {
		t.Fatal(err)
	}
	before := res.WorstDelay
	g := c.Gates()[2]
	g.Vt = tech.HVT
	if _, err := res.Update(g); err != nil {
		t.Fatal(err)
	}
	if !(res.WorstDelay > before) {
		t.Fatalf("HVT promotion did not slow the chain: %v vs %v", res.WorstDelay, before)
	}
	g.Vt = tech.SVT
	if _, err := res.Update(g); err != nil {
		t.Fatal(err)
	}
	if res.WorstDelay != before {
		t.Fatalf("rollback did not restore the baseline bit-exactly: %v vs %v", res.WorstDelay, before)
	}
	if math.IsInf(res.WorstDelay, 0) {
		t.Fatal("nonsense worst delay")
	}
}

// countingRecorder tallies Analyze calls by mode for the recorder-seam
// tests.
type countingRecorder struct {
	full, reused int
}

func (r *countingRecorder) Analyzed(full bool) {
	if full {
		r.full++
	} else {
		r.reused++
	}
}

// TestSessionRecorderCountsAnalyzeModes pins the recorder seam the
// engine's STA-reuse metrics hang off: a full forward pass reports
// full=true, a cached incremental serve reports full=false, and an
// Invalidate forces the next Analyze back to a full pass.
func TestSessionRecorderCountsAnalyzeModes(t *testing.T) {
	m := model()
	c := chainCircuit(t, 6, 30)
	s := NewSession(c, m, Config{})
	rec := &countingRecorder{}
	s.SetRecorder(rec)

	if _, err := s.Analyze(); err != nil {
		t.Fatal(err)
	}
	if rec.full != 1 || rec.reused != 0 {
		t.Fatalf("after first Analyze: full=%d reused=%d, want 1/0", rec.full, rec.reused)
	}
	for i := 0; i < 3; i++ {
		if _, err := s.Analyze(); err != nil {
			t.Fatal(err)
		}
	}
	if rec.full != 1 || rec.reused != 3 {
		t.Fatalf("after cached serves: full=%d reused=%d, want 1/3", rec.full, rec.reused)
	}
	s.Invalidate()
	if _, err := s.Analyze(); err != nil {
		t.Fatal(err)
	}
	if rec.full != 2 || rec.reused != 3 {
		t.Fatalf("after Invalidate: full=%d reused=%d, want 2/3", rec.full, rec.reused)
	}

	// SetRecorder(nil) restores the no-op: further Analyze calls must
	// not reach the old recorder.
	s.SetRecorder(nil)
	if _, err := s.Analyze(); err != nil {
		t.Fatal(err)
	}
	if rec.full != 2 || rec.reused != 3 {
		t.Fatalf("nil recorder still recorded: full=%d reused=%d", rec.full, rec.reused)
	}
}

// TestSmallCircuitStaysAllocFree pins the full re-analysis path: after
// Invalidate, a warm session re-runs the whole forward pass on a
// suite circuit into its reused buffers without allocating.
func TestSmallCircuitStaysAllocFree(t *testing.T) {
	c, err := iscas.Load("c880")
	if err != nil {
		t.Fatal(err)
	}
	sess := NewSession(c, model(), Config{})
	if _, err := sess.Analyze(); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(10, func() {
		sess.Invalidate()
		if _, err := sess.Analyze(); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("c880 full re-analysis: %v allocs/op, want 0", allocs)
	}
}
