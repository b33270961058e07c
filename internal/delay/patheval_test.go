package delay

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/gate"
	"repro/internal/tech"
)

// randomPath draws a bounded path of n stages over every primitive cell
// (non-inverting BUF included) with random sizes and off-path loads.
func randomPath(rng *rand.Rand, p *tech.Process, n int) *Path {
	types := gate.Primitives()
	pa := &Path{Name: "rand", TauIn: DefaultTauIn(p) * (0.5 + rng.Float64())}
	for j := 0; j < n; j++ {
		pa.Stages = append(pa.Stages, Stage{
			Cell: gate.MustLookup(types[rng.Intn(len(types))]),
			CIn:  p.CRef * (1 + 30*rng.Float64()),
			COff: p.CRef * 5 * rng.Float64(),
		})
	}
	pa.Stages[n-1].COff += 20 * p.CRef
	return pa
}

// TestPathEvalBitExact pins the incremental evaluator to the reference
// definition: every Probe equals PathDelayWorst of the probed path bit
// for bit and leaves the path as it was, on random paths of 1-120
// stages, at the path ends and the interior, with the slope and Miller
// terms on and off, and after random Commit sequences.
func TestPathEvalBitExact(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	var ev PathEval // one evaluator across all paths: reuse must be clean
	for _, flags := range [][2]bool{{true, true}, {false, true}, {true, false}, {false, false}} {
		m := model()
		m.SlopeEffect, m.CoupleMiller = flags[0], flags[1]
		for trial := 0; trial < 40; trial++ {
			n := 1 + rng.Intn(120)
			if trial < 3 {
				n = trial + 1 // the degenerate windows: 1, 2 and 3 stages
			}
			pa := randomPath(rng, m.Proc, n)
			ev.Reset(m, pa)
			for step := 0; step < 30; step++ {
				x := m.Proc.CRef * (1 + 40*rng.Float64())
				for _, i := range []int{0, min(1, n-1), n - 1, rng.Intn(n)} {
					old := pa.Stages[i].CIn
					got := ev.Probe(i, x)
					if pa.Stages[i].CIn != old {
						t.Fatalf("Probe(%d, %g) left CIn %g, want %g", i, x, pa.Stages[i].CIn, old)
					}
					pa.Stages[i].CIn = x
					want := m.PathDelayWorst(pa)
					pa.Stages[i].CIn = old
					if math.Float64bits(got) != math.Float64bits(want) {
						t.Fatalf("slope=%v miller=%v n=%d step %d: Probe(%d, %g) = %v, PathDelayWorst %v",
							flags[0], flags[1], n, step, i, x, got, want)
					}
				}
				i := rng.Intn(n)
				ev.Commit(i, x)
				if pa.Stages[i].CIn != x {
					t.Fatalf("Commit(%d, %g) left CIn %g", i, x, pa.Stages[i].CIn)
				}
			}
		}
	}
}
