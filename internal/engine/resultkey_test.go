package engine

import (
	"context"
	"reflect"
	"sort"
	"testing"
)

// TestResultKeyBytes pins the exact bytes of the result-memo key for
// every request shape the engine mints one for: optimize with leakage
// off and on, a ratio-derived and an explicit Tc, and the points of a
// sweep. The durable tier is addressed by storeKeyFor(key), so a
// changed byte silently orphans every record of an existing data dir.
// The keys are read back from the engine's own memo, not rebuilt by
// calling resultKey, so the test pins what the engine really stores.
func TestResultKeyBytes(t *testing.T) {
	e := newEngine(t, 1)
	ctx := context.Background()
	for _, req := range []OptimizeRequest{
		{Circuit: "fpd", Ratio: 1.3},
		{Circuit: "fpd", Ratio: 1.3, Leakage: true},
		{Circuit: "fpd", Tc: 900},
		{Circuit: "fpd", Tc: 900, Leakage: true},
	} {
		if _, err := e.Optimize(ctx, req); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := e.Sweep(ctx, SweepRequest{Circuit: "fpd", Points: 2}); err != nil {
		t.Fatal(err)
	}
	var got []string
	for k := range e.cache.results {
		got = append(got, string(k))
	}
	sort.Strings(got)
	const fpd = "cmos025|785d3fc70a58ef4be6743182207ad496280d9e292178897a81045a22bbc6406f|" // process | fpd's netlist.Fingerprint
	want := []string{
		fpd + "0|3ff4cccccccccccd|dyn",
		fpd + "0|3ff4cccccccccccd|leak|0|0|0|0|0|false|0",
		fpd + "408c200000000000|0|dyn",
		fpd + "408c200000000000|0|leak|0|0|0|0|0|false|0",
		fpd + "409910b0172010ed|0|dyn",
		fpd + "40a910b0172010ed|0|dyn",
	}
	if len(got) != len(want) {
		t.Fatalf("%d memo keys, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("key %d:\n got %q\nwant %q", i, got[i], want[i])
		}
	}
}

// TestConfigResultNeutral fails on any engine.Config field that could
// change a result: resultKey keys a task by circuit, constraint and
// leakage flag only, so a result-affecting knob would let the memo and
// the durable tier serve one configuration's result to another. The
// allowlisted fields cannot change a result: Workers only schedules
// (TestEngineMatchesSequential pins every degree to the sequential
// protocol) and Results only stores.
func TestConfigResultNeutral(t *testing.T) {
	neutral := map[string]bool{"Workers": true, "Results": true}
	ct := reflect.TypeOf(Config{})
	for i := 0; i < ct.NumField(); i++ {
		if f := ct.Field(i); !neutral[f.Name] {
			t.Errorf("engine.Config.%s is not on the result-neutral allowlist: key it in resultKey or make it a constant", f.Name)
		}
	}
}
