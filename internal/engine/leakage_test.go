package engine

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"

	"repro/internal/iscas"
	"repro/internal/tech"
)

var updateLeakageBaseline = flag.Bool("update-leakage-baseline", false,
	"rewrite BENCH_leakage.json at the repository root")

// leakageNames returns the regression set: the full suite by default,
// the three fast benchmarks with -short.
func leakageNames() []string {
	if testing.Short() {
		return []string{"fpd", "c432", "c880"}
	}
	var names []string
	for _, s := range iscas.Suite() {
		names = append(names, s.Name)
	}
	return names
}

// TestLeakageSuiteRegression is the acceptance contract of the
// multi-Vt subsystem: for every suite benchmark at Tc = 1.5·Tmin, the
// leakage-aware run must (a) solve the exact same sizing problem as
// the dynamic-only optimizer (same Tc, same area, same feasibility),
// (b) never violate the delay constraint after Vt assignment, and
// (c) strictly reduce total (dynamic + leakage) power — the pass
// starts from the dynamic-only result, so TotalBeforeUW is that
// optimizer's total power. With -update-leakage-baseline the measured
// numbers are recorded in BENCH_leakage.json at the repository root.
func TestLeakageSuiteRegression(t *testing.T) {
	names := leakageNames()
	const ratio = 1.5
	e := newEngine(t, 4)
	ctx := context.Background()

	dyn, err := e.Suite(ctx, SuiteRequest{Benchmarks: names, Ratios: []float64{ratio}})
	if err != nil {
		t.Fatal(err)
	}
	leak, err := e.Suite(ctx, SuiteRequest{Benchmarks: names, Ratios: []float64{ratio}, Leakage: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(dyn.Rows) != len(leak.Rows) {
		t.Fatalf("row counts diverged: %d vs %d", len(dyn.Rows), len(leak.Rows))
	}

	type baselineRow struct {
		Circuit        string  `json:"circuit"`
		Tc             float64 `json:"tc_ps"`
		Delay          float64 `json:"delay_ps"`
		Promoted       int     `json:"promoted"`
		DynamicUW      float64 `json:"dynamic_uW"`
		LeakBeforeUW   float64 `json:"leakage_before_uW"`
		LeakAfterUW    float64 `json:"leakage_after_uW"`
		TotalBeforeUW  float64 `json:"total_before_uW"`
		TotalAfterUW   float64 `json:"total_after_uW"`
		LeakSavingPct  float64 `json:"leakage_saving_pct"`
		TotalSavingPct float64 `json:"total_saving_pct"`
	}
	var rows []baselineRow

	for i, d := range dyn.Rows {
		l := leak.Rows[i]
		if d.Leakage != nil {
			t.Fatalf("%s: dynamic-only row carries a leakage block", d.Circuit)
		}
		if l.Leakage == nil {
			t.Fatalf("%s: leakage-aware row carries no leakage block", l.Circuit)
		}
		lp := l.Leakage
		// (a) Same sizing problem, same solution: the Vt pass runs
		// after sizing and must not perturb it.
		if l.Tc != d.Tc || l.Tmin != d.Tmin || l.Area != d.Area {
			t.Errorf("%s: leakage run diverged from dynamic sizing: tc %v/%v tmin %v/%v area %v/%v",
				d.Circuit, l.Tc, d.Tc, l.Tmin, d.Tmin, l.Area, d.Area)
		}
		if !d.Feasible || !l.Feasible {
			t.Errorf("%s: infeasible at ratio %.1f (dyn %v, leak %v)", d.Circuit, ratio, d.Feasible, l.Feasible)
		}
		// (b) The Vt-aware delay never violates Tc.
		if l.Delay > l.Tc {
			t.Errorf("%s: leakage-aware delay %v above tc %v", d.Circuit, l.Delay, l.Tc)
		}
		// (c) Strict total-power reduction vs. the dynamic-only result.
		if lp.Promoted == 0 {
			t.Errorf("%s: no gate promoted", d.Circuit)
		}
		if lp.TotalUW >= lp.TotalBeforeUW {
			t.Errorf("%s: total power not reduced: %v -> %v", d.Circuit, lp.TotalBeforeUW, lp.TotalUW)
		}
		leakBefore := lp.TotalBeforeUW - lp.DynamicUW
		rows = append(rows, baselineRow{
			Circuit:        l.Circuit,
			Tc:             l.Tc,
			Delay:          l.Delay,
			Promoted:       lp.Promoted,
			DynamicUW:      lp.DynamicUW,
			LeakBeforeUW:   leakBefore,
			LeakAfterUW:    lp.LeakageUW,
			TotalBeforeUW:  lp.TotalBeforeUW,
			TotalAfterUW:   lp.TotalUW,
			LeakSavingPct:  (leakBefore - lp.LeakageUW) / leakBefore * 100,
			TotalSavingPct: (lp.TotalBeforeUW - lp.TotalUW) / lp.TotalBeforeUW * 100,
		})
	}

	if *updateLeakageBaseline {
		if testing.Short() {
			t.Fatal("refusing to record a -short baseline")
		}
		doc := map[string]any{
			"description": "Leakage-aware optimization baseline (TestLeakageSuiteRegression): every suite benchmark at Tc = 1.5·Tmin, dynamic-only vs leakage-aware engine runs. The Vt pass runs after sizing, so total_before_uW is exactly the dynamic-only optimizer's total power; the delta is the multi-Vt gain at identical delay and area. Deterministic: regenerate with the command below and the file must not change.",
			"command":     "go test ./internal/engine -run TestLeakageSuiteRegression -update-leakage-baseline",
			"ratio":       ratio,
			"results":     rows,
		}
		buf, err := json.MarshalIndent(doc, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile("../../BENCH_leakage.json", append(buf, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// dumpSuite renders suite rows canonically (%v floats round-trip bits).
func dumpSuite(res *SuiteResult) string {
	var b strings.Builder
	for _, r := range res.Rows {
		fmt.Fprintf(&b, "%s@%v tc=%v tmin=%v delay=%v area=%v feasible=%v rounds=%d buffers=%d leakage=%+v\n",
			r.Circuit, r.Ratio, r.Tc, r.Tmin, r.Delay, r.Area, r.Feasible, r.Rounds, r.Buffers, r.Leakage)
	}
	return b.String()
}

// TestLeakageDeterministicAcrossWorkers is the determinism contract of
// the leakage-aware engine: byte-identical suite results regardless of
// worker count (fresh engines, so nothing is served from a shared
// memo). Run under -race in CI.
func TestLeakageDeterministicAcrossWorkers(t *testing.T) {
	names := []string{"fpd", "c432", "c880"}
	req := SuiteRequest{Benchmarks: names, Ratios: []float64{1.2, 1.5}, Leakage: true}
	var dumps []string
	for _, workers := range []int{1, 4} {
		e := newEngine(t, workers)
		res, err := e.Suite(context.Background(), req)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		dumps = append(dumps, dumpSuite(res))
	}
	if dumps[0] != dumps[1] {
		t.Errorf("leakage suite diverged across worker counts\n--- workers=1\n%s--- workers=4\n%s", dumps[0], dumps[1])
	}
}

// TestLeakageMatchesSequential pins the shape of the engine's leakage
// run against the dynamic-only sequential protocol: the multi-Vt pass
// must leave the sizing trajectory untouched, report the Vt-aware delay
// within Tc, and promote gates to HVT. Byte-identity with a sequential
// leakage-aware Protocol.Optimize is checked by the leakage-on cells of
// TestEngineMatchesSequential.
func TestLeakageMatchesSequential(t *testing.T) {
	const name = "c432"
	const ratio = 1.4
	e := newEngine(t, 4)
	res, err := e.Optimize(context.Background(), OptimizeRequest{Circuit: name, Ratio: ratio, Leakage: true})
	if err != nil {
		t.Fatal(err)
	}
	seq, tc := sequentialOutcome(t, name, ratio, false) // dynamic-only reference
	if res.Tc != tc {
		t.Fatalf("tc %v vs sequential %v", res.Tc, tc)
	}
	lr := res.Outcome.Leakage
	if lr == nil {
		t.Fatal("engine leakage run carries no leakage result")
	}
	// The sizing trajectory must be the dynamic-only one.
	if len(res.Outcome.PathOutcomes) != len(seq.PathOutcomes) || res.Outcome.Area != seq.Area {
		t.Fatalf("leakage run perturbed the sizing protocol: %d rounds area %v vs %d rounds area %v",
			len(res.Outcome.PathOutcomes), res.Outcome.Area, len(seq.PathOutcomes), seq.Area)
	}
	// And the final delay is the Vt-aware one, within the constraint.
	if res.Outcome.Delay != lr.Delay || lr.Delay > tc {
		t.Fatalf("delay bookkeeping broken: outcome %v leakage %v tc %v", res.Outcome.Delay, lr.Delay, tc)
	}
	if lr.ByClass[tech.HVT] == 0 {
		t.Fatal("no HVT gate after assignment")
	}
}

// TestResultMemoization checks the (circuit, Tc, policy)-keyed result
// memo: an identical resubmission returns the completed result object,
// and the leakage flag is part of the key.
func TestResultMemoization(t *testing.T) {
	e := newEngine(t, 2)
	ctx := context.Background()
	req := OptimizeRequest{Circuit: "fpd", Ratio: 1.5}
	a, err := e.Optimize(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	b, err := e.Optimize(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if a.Outcome != b.Outcome {
		t.Fatal("identical resubmission was recomputed instead of served from the memo")
	}
	leak, err := e.Optimize(ctx, OptimizeRequest{Circuit: "fpd", Ratio: 1.5, Leakage: true})
	if err != nil {
		t.Fatal(err)
	}
	if leak.Outcome == a.Outcome {
		t.Fatal("leakage flag not part of the memo key")
	}
	if leak.Outcome.Leakage == nil || a.Outcome.Leakage != nil {
		t.Fatal("leakage results attached to the wrong runs")
	}
}

// TestResultMemoNotPoisonedByErrors checks that a failed computation
// (e.g. a cancelled context) is not latched: the next request with the
// same key recomputes instead of replaying the stale error.
func TestResultMemoNotPoisonedByErrors(t *testing.T) {
	ca := NewCache()
	want := &OptimizeResult{Circuit: "x"}
	if _, err := ca.Result(context.Background(), "k", func() (*OptimizeResult, error) {
		return nil, context.Canceled
	}); err == nil {
		t.Fatal("error not propagated")
	}
	got, err := ca.Result(context.Background(), "k", func() (*OptimizeResult, error) { return want, nil })
	if err != nil || got != want {
		t.Fatalf("memo poisoned by the failed round: %v, %v", got, err)
	}
	// And the success is latched: a third call must not recompute.
	again, err := ca.Result(context.Background(), "k", func() (*OptimizeResult, error) {
		t.Fatal("latched key recomputed")
		return nil, nil
	})
	if err != nil || again != want {
		t.Fatalf("latch lost: %v, %v", again, err)
	}
}

// TestResultMemoEviction checks the FIFO bound: the memo never grows
// past MaxResultEntries and old keys are recomputed after eviction.
func TestResultMemoEviction(t *testing.T) {
	ca := NewCache()
	mk := func(i int) taskKey { return taskKey(fmt.Sprintf("key-%d", i)) }
	for i := 0; i < MaxResultEntries+10; i++ {
		if _, err := ca.Result(context.Background(), mk(i), func() (*OptimizeResult, error) {
			return &OptimizeResult{}, nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	ca.mu.Lock()
	n := len(ca.results)
	ca.mu.Unlock()
	if n > MaxResultEntries {
		t.Fatalf("memo grew to %d entries past the %d bound", n, MaxResultEntries)
	}
	recomputed := false
	if _, err := ca.Result(context.Background(), mk(0), func() (*OptimizeResult, error) {
		recomputed = true
		return &OptimizeResult{}, nil
	}); err != nil {
		t.Fatal(err)
	}
	if !recomputed {
		t.Fatal("evicted key still latched")
	}
}
