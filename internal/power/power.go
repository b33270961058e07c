// Package power estimates the dynamic and static power of a sized
// netlist. Dynamic power is the quantity the paper's area metric ΣW
// stands proxy for ("gate sizing is area (power) expensive"): a CMOS
// net switching with activity α at frequency f under supply VDD burns
//
//	P = α · C_switched · VDD² · f
//
// where C_switched is the total capacitance on the net (sink pins,
// wire, driver diffusion). Static power is the subthreshold leakage of
// the off network of every gate (static.go), a function of Vt class,
// gate size and input state — the standby budget the multi-Vt pass of
// internal/leakage minimizes. Both estimators share one logic
// simulation of the netlist under random input vectors: toggle counts
// give the activities, state counts give the output-high
// probabilities, so every estimate reflects the circuit's real signal
// statistics rather than a flat default. The simulation is
// bit-parallel — 64 vectors per machine word over dense Node.ID-indexed
// state (see simulate) — and bit-identical to the retained scalar
// reference.
package power

import (
	"fmt"
	"math/bits"
	"math/rand"

	"repro/internal/gate"
	"repro/internal/logic"
	"repro/internal/netlist"
	"repro/internal/tech"
)

// Options parameterizes an estimation run.
type Options struct {
	// FrequencyMHz is the switching frequency (default 100 MHz).
	FrequencyMHz float64
	// Vectors is the number of random input vectors simulated for
	// activity extraction (default 512).
	Vectors int
	// Seed drives the random vectors (default 1).
	Seed int64
	// InputActivity is the toggle probability applied to primary
	// inputs between consecutive vectors (default 0.5).
	InputActivity float64
	// Parallelism is ignored: every simulation runs serially.
	//
	// Deprecated: ignored; kept only so the benchmark module builds.
	Parallelism int
}

func (o Options) withDefaults() Options {
	if o.FrequencyMHz <= 0 {
		o.FrequencyMHz = 100
	}
	if o.Vectors <= 0 {
		o.Vectors = 512
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	if o.InputActivity <= 0 || o.InputActivity > 1 {
		o.InputActivity = 0.5
	}
	return o
}

// Estimate is the outcome of a power analysis.
type Estimate struct {
	// TotalUW is the total dynamic power in µW.
	TotalUW float64
	// SwitchedCapFF is the activity-weighted switched capacitance per
	// cycle, in fF.
	SwitchedCapFF float64
	// ByNet maps net (driver node) names to their power share in µW.
	ByNet map[string]float64
	// MeanActivity is the average toggle probability over all nets.
	MeanActivity float64
}

// simulate runs the shared vector simulation: each primary input flips
// with probability o.InputActivity between consecutive cycles, and the
// circuit is re-evaluated in topological order. It returns per-node
// toggle counts (net changed value between consecutive cycles) and
// high counts (net sampled at logic one), both over o.Vectors cycles
// and indexed densely by Node.ID — the common substrate of the dynamic
// (activity) and static (state-probability) estimators.
//
// The evaluation is bit-parallel: 64 vectors are packed per machine
// word, gates are evaluated word-wise through logic.EvalWords, toggle
// counts fall out of popcount(cur XOR (cur<<1 | carry)) with the carry
// bit threading the last vector of the previous word across chunk
// boundaries, and high counts out of popcount(cur). The input-flip
// stream draws the RNG in the exact per-vector order of the historical
// scalar loop (one Intn(2) per input to seed, then one Float64 per
// input per vector), so toggle and high counts — and every Activities,
// StateProbabilities and leakage figure derived from them — are
// bit-identical to the retained scalar reference (simulateScalar in
// scalar_test.go, exercised by the equivalence tests).
func simulate(c *netlist.Circuit, o Options) ([]*netlist.Node, []int, []int, error) {
	order, err := c.TopoOrder()
	if err != nil {
		return nil, nil, nil, err
	}
	rng := rand.New(rand.NewSource(o.Seed))
	bound := c.IDBound()

	cur := make([]uint64, bound)   // packed values, one word per net
	carry := make([]uint64, bound) // previous vector's value (bit 0)
	toggles := make([]int, bound)  // per-net toggle counts
	highs := make([]int, bound)    // per-net high counts
	inState := make([]bool, len(c.Inputs))
	args := make([]uint64, 0, 8) // fan-in gather scratch, reused per gate

	// Initial assignment (the state "before vector 0"): broadcast each
	// input's seed bit across the word, evaluate once, and keep only the
	// carry bits — no counting happens for this pseudo-vector.
	for i, n := range c.Inputs {
		inState[i] = rng.Intn(2) == 1
		if inState[i] {
			cur[n.ID] = ^uint64(0)
		}
	}
	args = logic.EvalWords(order, cur, args)
	for _, n := range order {
		carry[n.ID] = cur[n.ID] & 1
	}

	for base := 0; base < o.Vectors; base += 64 {
		nbits := o.Vectors - base
		if nbits > 64 {
			nbits = 64
		}
		mask := ^uint64(0) >> (64 - uint(nbits))

		// Pack the next nbits vectors. The loop is vector-major so the
		// RNG stream matches the scalar reference draw for draw.
		for _, n := range c.Inputs {
			cur[n.ID] = 0
		}
		for j := 0; j < nbits; j++ {
			bit := uint64(1) << uint(j)
			for i, n := range c.Inputs {
				if rng.Float64() < o.InputActivity {
					inState[i] = !inState[i]
				}
				if inState[i] {
					cur[n.ID] |= bit
				}
			}
		}

		args = logic.EvalWords(order, cur, args)
		for _, n := range order {
			w := cur[n.ID]
			prev := (w << 1) | carry[n.ID]
			toggles[n.ID] += bits.OnesCount64((w ^ prev) & mask)
			highs[n.ID] += bits.OnesCount64(w & mask)
			carry[n.ID] = (w >> uint(nbits-1)) & 1
		}
	}
	return order, toggles, highs, nil
}

// Profile carries both statistics of one vector simulation, keyed by
// driver node name: toggle probabilities (the dynamic estimator's
// input) and output-high probabilities (the static estimator's).
type Profile struct {
	Activities map[string]float64
	StateProbs map[string]float64
}

// SimulateProfile runs the vector simulation once and extracts both
// statistics — the entry point for callers that need dynamic and
// static estimates of the same circuit (the multi-Vt pass) without
// paying for two simulations.
func SimulateProfile(c *netlist.Circuit, opts Options) (*Profile, error) {
	o := opts.withDefaults()
	order, toggles, highs, err := simulate(c, o)
	if err != nil {
		return nil, err
	}
	p := &Profile{
		Activities: make(map[string]float64, len(order)),
		StateProbs: make(map[string]float64, len(order)),
	}
	for _, n := range order {
		if n.Type == gate.Output {
			continue // the PO pseudo-node mirrors its driver
		}
		p.Activities[n.Name] = float64(toggles[n.ID]) / float64(o.Vectors)
		p.StateProbs[n.Name] = float64(highs[n.ID]) / float64(o.Vectors)
	}
	return p, nil
}

// Activities computes per-net toggle probabilities by simulating the
// circuit under correlated random vectors: each input flips with
// probability opts.InputActivity between consecutive cycles. The
// returned map is keyed by driver node name and gives the probability
// that the net changes value between consecutive cycles.
func Activities(c *netlist.Circuit, opts Options) (map[string]float64, error) {
	p, err := SimulateProfile(c, opts)
	if err != nil {
		return nil, err
	}
	return p.Activities, nil
}

// StateProbabilities computes, from the same vector simulation as
// Activities, the probability of each net resting at logic one — the
// input-state statistic the subthreshold leakage model weights its two
// off-network terms with. Keyed by driver node name.
func StateProbabilities(c *netlist.Circuit, opts Options) (map[string]float64, error) {
	p, err := SimulateProfile(c, opts)
	if err != nil {
		return nil, err
	}
	return p.StateProbs, nil
}

// netCap returns the switched capacitance of node n's output net:
// sink pins + wire + the driver's own diffusion parasitic.
func netCap(n *netlist.Node) float64 {
	c := n.FanoutCap()
	if n.IsLogic() {
		c += n.Cell().Parasitic(n.CIn)
	}
	return c
}

// EstimateCircuit computes the dynamic power of the circuit on corner p.
func EstimateCircuit(c *netlist.Circuit, p *tech.Process, opts Options) (*Estimate, error) {
	act, err := Activities(c, opts)
	if err != nil {
		return nil, err
	}
	return EstimateCircuitActivities(c, p, opts, act)
}

// EstimateCircuitActivities is EstimateCircuit on precomputed toggle
// probabilities — the variant for callers that already simulated the
// circuit (e.g. through SimulateProfile).
func EstimateCircuitActivities(c *netlist.Circuit, p *tech.Process, opts Options, act map[string]float64) (*Estimate, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	o := opts.withDefaults()
	est := &Estimate{ByNet: make(map[string]float64)}
	var actSum float64
	var nets int
	for _, n := range c.Nodes {
		if n.Type == gate.Output {
			continue
		}
		a, ok := act[n.Name]
		if !ok {
			continue
		}
		cap := netCap(n)
		// α·C·V²·f: fF × V² × MHz = 1e-15·1e6 W = 1e-9 W = nW;
		// divide by 1000 for µW.
		pw := a * cap * p.VDD * p.VDD * o.FrequencyMHz / 1000
		est.ByNet[n.Name] = pw
		est.TotalUW += pw
		est.SwitchedCapFF += a * cap
		actSum += a
		nets++
	}
	if nets > 0 {
		est.MeanActivity = actSum / float64(nets)
	}
	return est, nil
}

// Compare reports the power delta between two sizings of the same
// circuit (e.g. before/after optimization), in percent of the first.
func Compare(before, after *Estimate) (float64, error) {
	if before == nil || after == nil || before.TotalUW <= 0 {
		return 0, fmt.Errorf("power: invalid comparison operands")
	}
	return (after.TotalUW - before.TotalUW) / before.TotalUW * 100, nil
}
