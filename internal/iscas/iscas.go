// Package iscas provides the benchmark suite of the paper's evaluation:
// the ISCAS'85 circuits (c432 … c7552), the 16-bit adder and the "fpd"
// block of Table 1.
//
// Substitution note (see DESIGN.md): the original ISCAS'85 netlists are
// not redistributable inside this repository, and the paper's
// experiments operate on the *extracted critical path* of each circuit
// (Table 1 lists path gate counts, not circuit sizes). We therefore
// generate, deterministically per benchmark, a synthetic circuit whose
// critical path ("spine") has exactly the paper's gate count, embedded
// in a realistic fan-out environment of side logic sized like the real
// circuit. Every quantity the paper reports — Tmin, ΣW, CPU scaling,
// buffer-insertion gains — depends on the path length, gate-type mix
// and loading statistics, all of which are preserved. Genuine .bench
// files drop in unchanged through netlist.ReadBench; the tiny genuine
// c17 is embedded for parser and logic tests, and a structural
// ripple-carry adder generator provides a real arithmetic circuit.
package iscas

import (
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"strings"

	"repro/internal/gate"
	"repro/internal/netlist"
)

// Spec describes one benchmark of the suite.
type Spec struct {
	Name    string
	Inputs  int // primary input count (≈ the real circuit's)
	Outputs int // primary output count (≈ the real circuit's)
	Gates   int // total gate budget (≈ the real circuit's)
	PathLen int // critical-path gate count — Table 1's "Gate nb"
	Seed    int64
}

// Suite returns the benchmarks of the paper's evaluation in Table 1
// order. Input/output/gate counts follow the real ISCAS'85 circuits;
// PathLen follows Table 1.
func Suite() []Spec {
	return []Spec{
		{Name: "Adder16", Inputs: 33, Outputs: 17, Gates: 480, PathLen: 99},
		{Name: "fpd", Inputs: 16, Outputs: 8, Gates: 60, PathLen: 14},
		{Name: "c432", Inputs: 36, Outputs: 7, Gates: 160, PathLen: 29},
		{Name: "c499", Inputs: 41, Outputs: 32, Gates: 202, PathLen: 29},
		{Name: "c880", Inputs: 60, Outputs: 26, Gates: 383, PathLen: 28},
		{Name: "c1355", Inputs: 41, Outputs: 32, Gates: 546, PathLen: 30},
		{Name: "c1908", Inputs: 33, Outputs: 25, Gates: 880, PathLen: 44},
		{Name: "c3540", Inputs: 50, Outputs: 22, Gates: 1669, PathLen: 58},
		{Name: "c5315", Inputs: 178, Outputs: 123, Gates: 2307, PathLen: 60},
		{Name: "c6288", Inputs: 32, Outputs: 32, Gates: 2416, PathLen: 116},
		{Name: "c7552", Inputs: 207, Outputs: 108, Gates: 3512, PathLen: 47},
	}
}

// ByName returns the spec with the given name.
func ByName(name string) (Spec, error) {
	for _, s := range Suite() {
		if strings.EqualFold(s.Name, name) {
			return s, nil
		}
	}
	return Spec{}, fmt.Errorf("iscas: unknown benchmark %q", name)
}

// Load instantiates any named circuit this package can produce: a
// generated suite benchmark ("c432", "Adder16", "fpd", …), the genuine
// embedded "c17", a structural ripple-carry adder ("rca16" for 16
// bits, any width), or a wide layered random-logic block ("mix50000"
// for a ~50k-gate budget). Every call returns a fresh instance. The
// facade's Benchmark and the batch engine's loader both resolve
// through here.
func Load(name string) (*netlist.Circuit, error) {
	if name == "c17" {
		return C17(), nil
	}
	if n, ok := rcaBits(name); ok {
		return RippleCarryAdder(n)
	}
	if n, ok := mixGates(name); ok {
		return MixedLogic(n)
	}
	spec, err := ByName(name)
	if err != nil {
		return nil, err
	}
	return Generate(spec)
}

// Known reports whether Load can instantiate name, without paying for
// generation — the cheap pre-validation for batch requests.
func Known(name string) bool {
	if name == "c17" {
		return true
	}
	if _, ok := rcaBits(name); ok {
		return true
	}
	if _, ok := mixGates(name); ok {
		return true
	}
	_, err := ByName(name)
	return err == nil
}

// GeneratedGates reports the gate count of a parametric generator
// name without building the circuit: 9N+1 for "rcaN", and the budget
// N for "mixN", whose layers round it down (from N = 64 on, the circuit
// has at most N gates). A count too large for an int saturates at
// math.MaxInt. ok is false for every other name, the fixed suite
// included.
func GeneratedGates(name string) (gates int, ok bool) {
	if n, ok := rcaBits(name); ok {
		if n > (math.MaxInt-1)/9 {
			return math.MaxInt, true
		}
		return 9*n + 1, true
	}
	if n, ok := mixGates(name); ok {
		return n, true
	}
	return 0, false
}

// rcaBits parses an "rcaN" name into its bit width.
func rcaBits(name string) (int, bool) {
	n, ok := nameSize(name, "rca")
	return n, ok && n > 0
}

// nameSize parses the decimal size that follows prefix in a generator
// name. ok is false for another prefix, an empty or non-digit suffix,
// or a size that does not fit in an int.
func nameSize(name, prefix string) (int, bool) {
	digits, ok := strings.CutPrefix(name, prefix)
	if !ok || digits == "" {
		return 0, false
	}
	n := 0
	for _, ch := range digits {
		if ch < '0' || ch > '9' || n > (math.MaxInt-9)/10 {
			return 0, false
		}
		n = n*10 + int(ch-'0')
	}
	return n, true
}

// gate-type distribution of the generated logic, approximating the
// NAND/NOR/INV mix of technology-mapped ISCAS circuits.
var typeMix = []struct {
	t gate.Type
	w int
}{
	{gate.Inv, 26},
	{gate.Nand2, 24},
	{gate.Nor2, 18},
	{gate.Nand3, 12},
	{gate.Nor3, 9},
	{gate.Nand4, 6},
	{gate.Nor4, 5},
}

func pickType(rng *rand.Rand) gate.Type {
	total := 0
	for _, e := range typeMix {
		total += e.w
	}
	r := rng.Intn(total)
	for _, e := range typeMix {
		r -= e.w
		if r < 0 {
			return e.t
		}
	}
	return gate.Inv
}

func seedFor(s Spec) int64 {
	h := fnv.New64a()
	h.Write([]byte(s.Name))
	return int64(h.Sum64()) ^ s.Seed
}

// Generate builds the synthetic benchmark circuit for a spec. The
// construction is deterministic in the spec. Layout:
//
//   - a "spine" of PathLen gates — the designed critical path — whose
//     secondary pins tap shallow nets only, so no alternative path can
//     be longer;
//   - side logic filling the gate budget, biased to load the spine
//     (off-path fan-out is what makes buffer insertion worthwhile);
//   - shallow collector trees merging dangling nets into the primary
//     outputs.
//
// Every gate starts at the minimum drive CREF = 1.7 fF equivalent
// (callers re-size), with small deterministic wire parasitics.
func Generate(spec Spec) (*netlist.Circuit, error) {
	if spec.PathLen < 2 {
		return nil, fmt.Errorf("iscas: %s: path length %d too short", spec.Name, spec.PathLen)
	}
	if spec.Inputs < 2 || spec.Outputs < 1 {
		return nil, fmt.Errorf("iscas: %s: need ≥2 inputs and ≥1 output", spec.Name)
	}
	rng := rand.New(rand.NewSource(seedFor(spec)))
	c := netlist.New(spec.Name)

	// level[n] tracks logic depth to keep side paths shallower than
	// the spine.
	level := make(map[string]int)

	var inputs []string
	for i := 0; i < spec.Inputs; i++ {
		name := fmt.Sprintf("i%d", i)
		if _, err := c.AddInput(name); err != nil {
			return nil, err
		}
		inputs = append(inputs, name)
		level[name] = 0
	}

	// Pools of nets side logic may tap, keyed by shallowness.
	maxSide := spec.PathLen * 55 / 100
	if maxSide < 2 {
		maxSide = 2
	}
	var shallow []string // nets with level ≤ maxSide
	shallow = append(shallow, inputs...)
	var spine []string

	addGate := func(name string, t gate.Type, fanin []string) (*netlist.Node, error) {
		n, err := c.AddGate(name, t, fanin...)
		if err != nil {
			return nil, err
		}
		lv := 0
		for _, f := range fanin {
			if level[f] > lv {
				lv = level[f]
			}
		}
		level[name] = lv + 1
		n.CWire = 0.3 + 2.2*rng.Float64() // fF
		return n, nil
	}

	// pickShallow returns a random net with level ≤ cap.
	pickShallow := func(cap int) string {
		// Rejection-sample a few times, then fall back to inputs.
		for t := 0; t < 12; t++ {
			cand := shallow[rng.Intn(len(shallow))]
			if level[cand] <= cap {
				return cand
			}
		}
		return inputs[rng.Intn(len(inputs))]
	}

	// 1. The spine.
	prev := inputs[0]
	for i := 0; i < spec.PathLen; i++ {
		t := pickType(rng)
		cell := gate.MustLookup(t)
		fanin := []string{prev}
		for len(fanin) < cell.FanIn {
			cap := i // strictly below the spine position
			if cap > maxSide {
				cap = maxSide
			}
			fanin = append(fanin, pickShallow(cap))
		}
		name := fmt.Sprintf("s%d", i)
		if _, err := addGate(name, t, fanin); err != nil {
			return nil, err
		}
		spine = append(spine, name)
		prev = name
	}

	// 2. Side logic. Reserve budget for the collector trees.
	// A side gate either taps the spine (providing the off-path
	// fan-out load that makes buffer insertion worthwhile) or builds
	// shallow logic. Gates that tap the spine deeper than maxSide are
	// "deep tappers": they never feed further logic, so no path through
	// them can outgrow the spine; shallow gates join the mergeable pool.
	//
	// A handful of spine positions are designated "hubs": high-fanout
	// nets (buses, control signals) that concentrate taps. These are
	// the over-limit nodes the buffer-insertion metric of §4.1 exists
	// to find. Side gates model an already-implemented environment:
	// their drives are fixed, log-uniform in [1×, 12×] CREF.
	var hubs []int
	for j := range spine {
		if rng.Intn(100) < 12 {
			hubs = append(hubs, j)
		}
	}
	if len(hubs) == 0 {
		hubs = append(hubs, len(spine)/2)
	}
	reserve := spec.Outputs + spec.Gates/12
	sideBudget := spec.Gates - spec.PathLen - reserve
	var mergeable []string   // shallow dangling side gates
	var deepTappers []string // side gates loading the deep spine
	for i := 0; i < sideBudget; i++ {
		t := pickType(rng)
		cell := gate.MustLookup(t)
		tapsDeep := false
		var fanin []string
		for tries := 0; len(fanin) < cell.FanIn; tries++ {
			if tries > 40 {
				// Give up on distinct pins in degenerate pools.
				fanin = append(fanin, inputs[rng.Intn(len(inputs))])
				continue
			}
			var cand string
			if len(fanin) == 0 && rng.Intn(100) < 45 {
				// First pin taps the spine: usually a hub.
				var j int
				if rng.Intn(100) < 60 {
					j = hubs[rng.Intn(len(hubs))]
				} else {
					j = rng.Intn(len(spine))
				}
				cand = spine[j]
				if j+1 > maxSide {
					tapsDeep = true
				}
			} else {
				cand = pickShallow(maxSide - 1)
			}
			// No duplicate pins from the same net: keeps the logic
			// non-degenerate.
			dup := false
			for _, f := range fanin {
				if f == cand {
					dup = true
				}
			}
			if dup {
				continue
			}
			fanin = append(fanin, cand)
		}
		name := fmt.Sprintf("g%d", i)
		n, err := addGate(name, t, fanin)
		if err != nil {
			return nil, err
		}
		// Fixed, already-implemented drive: log-uniform in [1×, 12×]
		// the minimum (2.49 ≈ ln 12).
		n.CIn = netlist.DefaultGateCIn * math.Exp(rng.Float64()*2.49)
		if tapsDeep {
			deepTappers = append(deepTappers, name)
		} else {
			mergeable = append(mergeable, name)
			if level[name] <= maxSide {
				shallow = append(shallow, name)
			}
		}
	}

	// 3. Collectors: merge dangling shallow nets into about half the
	// output budget with fan-in-4 NAND/NOR trees. Only nets with
	// level ≤ maxSide participate, so the trees stay strictly
	// shallower than the spine.
	var dangling []string
	for _, name := range mergeable {
		if len(c.Node(name).Fanout) == 0 && level[name] <= maxSide {
			dangling = append(dangling, name)
		}
	}
	for _, name := range inputs {
		if len(c.Node(name).Fanout) == 0 {
			dangling = append(dangling, name)
		}
	}
	outBudget := (spec.Outputs - 1) * 2 / 3
	if outBudget < 1 {
		outBudget = 1
	}
	var roots []string
	if len(dangling) <= outBudget {
		roots = dangling
	} else {
		groups := make([][]string, outBudget)
		for i, d := range dangling {
			groups[i%outBudget] = append(groups[i%outBudget], d)
		}
		for gi, grp := range groups {
			root, err := reduceTree(c, addGate, grp, fmt.Sprintf("m%d", gi), rng)
			if err != nil {
				return nil, err
			}
			roots = append(roots, root)
		}
	}

	// 4. Outputs: the spine end first, then collector roots, then deep
	// tappers (their tap position must leave the spine a margin of
	// ≥3 levels so they cannot rival it), then mid-spine taps.
	outNets := []string{spine[len(spine)-1]}
	outNets = append(outNets, roots...)
	for _, name := range deepTappers {
		if len(outNets) >= spec.Outputs {
			break
		}
		if level[name] <= spec.PathLen-3 {
			outNets = append(outNets, name)
		}
	}
	for i := spec.PathLen / 2; len(outNets) < spec.Outputs && i >= 0; i -= 3 {
		outNets = append(outNets, spine[i])
	}
	if len(outNets) > spec.Outputs {
		outNets = outNets[:spec.Outputs]
	}
	for _, name := range outNets {
		if _, err := c.AddOutput(name, netlist.DefaultOutputLoad); err != nil {
			return nil, err
		}
	}
	return c, nil
}

// reduceTree folds a group of nets into one root with 2-4 input
// NAND/NOR gates, alternating polarity per level.
func reduceTree(c *netlist.Circuit, addGate func(string, gate.Type, []string) (*netlist.Node, error),
	nets []string, prefix string, rng *rand.Rand) (string, error) {
	lvl := 0
	for len(nets) > 1 {
		var next []string
		for i := 0; i < len(nets); i += 4 {
			j := i + 4
			if j > len(nets) {
				j = len(nets)
			}
			grp := nets[i:j]
			if len(grp) == 1 {
				next = append(next, grp[0])
				continue
			}
			family := gate.Nand2
			if lvl%2 == 1 {
				family = gate.Nor2
			}
			t, ok := gate.VariantWithFanIn(family, len(grp))
			if !ok {
				return "", fmt.Errorf("iscas: no %v variant with %d inputs", family, len(grp))
			}
			name := fmt.Sprintf("%s_l%d_%d", prefix, lvl, i/4)
			if _, err := addGate(name, t, grp); err != nil {
				return "", err
			}
			next = append(next, name)
		}
		nets = next
		lvl++
	}
	_ = rng
	return nets[0], nil
}

// MustGenerate is Generate for known-good specs; it panics on error.
func MustGenerate(spec Spec) *netlist.Circuit {
	c, err := Generate(spec)
	if err != nil {
		panic(err)
	}
	return c
}
