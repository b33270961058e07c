package engine

import (
	"context"
	"encoding/json"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/delay"
	"repro/internal/iscas"
	"repro/internal/netlist"
	"repro/internal/sizing"
	"repro/internal/sta"
	"repro/internal/tech"
)

// renamedBench serializes the named benchmark as .bench text with every
// net renamed by prefix: a different source (and display name) with the
// same critical-path signature.
func renamedBench(t *testing.T, name, prefix string) string {
	t.Helper()
	c, err := iscas.Load(name)
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range c.Nodes {
		n.Name = prefix + n.Name
	}
	c.Name = prefix + name
	var sb strings.Builder
	if err := netlist.WriteBench(&sb, c); err != nil {
		t.Fatal(err)
	}
	return sb.String()
}

// unseededOutcome optimizes a fresh parse of src with a standalone
// protocol: Tmin from the sizing solver, then Protocol.Optimize with no
// bounds handed in, so round 0 solves its own Tmin.
func unseededOutcome(t *testing.T, src string, ratio, tc float64) *core.CircuitOutcome {
	t.Helper()
	m := delay.NewModel(tech.CMOS025())
	pb, err := ParseBench(src)
	if err != nil {
		t.Fatal(err)
	}
	c := pb.Circuit
	if tc == 0 {
		pa, _, err := sta.CriticalPath(c, m, sta.Config{})
		if err != nil {
			t.Fatal(err)
		}
		r, err := sizing.Tmin(m, pa.Clone(), sizing.Options{})
		if err != nil {
			t.Fatal(err)
		}
		tc = ratio * r.Delay
	}
	proto, err := core.NewProtocol(core.Config{Model: m})
	if err != nil {
		t.Fatal(err)
	}
	out, err := proto.Optimize(context.Background(), proto.NewTimingSession(c), tc, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestBoundsMemoHitAcrossTasks serves one path's bounds solve to three
// different tasks: a c432 source at 2.6, the same circuit with every net
// renamed at 3.0, and a 5-point sweep of the renamed source. The second
// and third find the first's memo entry by path signature and hand its
// Tmin solve to round 0; every result must be byte-identical to an
// unseeded sequential run.
func TestBoundsMemoHitAcrossTasks(t *testing.T) {
	e := newEngine(t, 2)
	ctx := context.Background()
	a, b := renamedBench(t, "c432", "a_"), renamedBench(t, "c432", "b_")
	for _, tt := range []struct {
		src   string
		ratio float64
	}{{a, 2.6}, {b, 3.0}} {
		res, err := e.Optimize(ctx, OptimizeRequest{Bench: tt.src, Ratio: tt.ratio})
		if err != nil {
			t.Fatal(err)
		}
		want := dumpOutcome(unseededOutcome(t, tt.src, tt.ratio, 0))
		if got := dumpOutcome(res.Outcome); got != want {
			t.Errorf("ratio %v: engine diverged from unseeded sequential\n--- sequential\n%s--- engine\n%s", tt.ratio, want, got)
		}
	}
	sw, err := e.Sweep(ctx, SweepRequest{Bench: b, Points: 5})
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range sw.Points {
		out := unseededOutcome(t, b, 0, p.Tc)
		want := SweepPoint{Ratio: p.Ratio, Tc: p.Tc, Delay: out.Delay, Area: out.Area, Feasible: out.Feasible,
			Rounds: out.Rounds, Buffers: out.Buffers}
		gotJSON, _ := json.Marshal(p)
		wantJSON, _ := json.Marshal(want)
		if string(gotJSON) != string(wantJSON) {
			t.Errorf("sweep point %d: %s, unseeded sequential %s", i, gotJSON, wantJSON)
		}
	}
	if n := len(e.cache.bounds); n != 1 {
		t.Fatalf("%d bounds memo entries, want 1 (every task shares one path signature)", n)
	}
}
