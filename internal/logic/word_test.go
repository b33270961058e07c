package logic

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"repro/internal/gate"
	"repro/internal/netlist"
)

// equivalentByEval is the reference of Equivalent's contract: the same
// assignments in the same order, each evaluated one at a time through
// the map-based Eval, stopping at the first one on which an output
// differs and naming its first differing output in name order.
func equivalentByEval(a, b *netlist.Circuit, trials int, seed int64) (*Counterexample, error) {
	ins := inputNames(a)
	check := func(assign map[string]bool) (*Counterexample, error) {
		oa, err := Eval(a, assign)
		if err != nil {
			return nil, err
		}
		ob, err := Eval(b, assign)
		if err != nil {
			return nil, err
		}
		names := make([]string, 0, len(oa))
		for name := range oa {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			if va, vb := oa[name], ob[name]; va != vb {
				in := make(map[string]bool, len(assign))
				for k, v := range assign {
					in[k] = v
				}
				return &Counterexample{Inputs: in, Output: name, A: va, B: vb}, nil
			}
		}
		return nil, nil
	}
	var assigns []func(i int) bool
	n := len(ins)
	if n <= ExhaustiveLimit {
		for mask := 0; mask < 1<<uint(n); mask++ {
			assigns = append(assigns, func(i int) bool { return mask&(1<<uint(i)) != 0 })
		}
	} else {
		rng := rand.New(rand.NewSource(seed))
		for t := 0; t < trials; t++ {
			v := make([]bool, n)
			for i := range v {
				v[i] = rng.Intn(2) == 1
			}
			assigns = append(assigns, func(i int) bool { return v[i] })
		}
		assigns = append(assigns, func(int) bool { return false }, func(int) bool { return true })
		for i := range ins {
			assigns = append(assigns, func(j int) bool { return i == j }, func(j int) bool { return i != j })
		}
	}
	for _, value := range assigns {
		assign := make(map[string]bool, n)
		for i, name := range ins {
			assign[name] = value(i)
		}
		if ce, err := check(assign); ce != nil || err != nil {
			return ce, err
		}
	}
	return nil, nil
}

// randomCircuit builds a random DAG of primitive and composite cells
// over nIn inputs (deterministic in rng); every fan-out-free net is an
// output.
func randomCircuit(t *testing.T, rng *rand.Rand, nIn int) *netlist.Circuit {
	t.Helper()
	c := netlist.New("rand")
	var nets []string
	for i := 0; i < nIn; i++ {
		name := fmt.Sprintf("i%d", i)
		if _, err := c.AddInput(name); err != nil {
			t.Fatal(err)
		}
		nets = append(nets, name)
	}
	pool := append(gate.Primitives(), gate.Composites()...)
	for i, nGates := 0, 3+rng.Intn(40); i < nGates; i++ {
		ty := pool[rng.Intn(len(pool))]
		fanin := make([]string, gate.MustLookup(ty).FanIn)
		for j := range fanin {
			fanin[j] = nets[rng.Intn(len(nets))]
		}
		name := fmt.Sprintf("g%d", i)
		if _, err := c.AddGate(name, ty, fanin...); err != nil {
			t.Fatal(err)
		}
		nets = append(nets, name)
	}
	for _, name := range nets {
		if n := c.Node(name); len(n.Fanout) == 0 && n.Type != gate.Input {
			if _, err := c.AddOutput(name, 8); err != nil {
				t.Fatal(err)
			}
		}
	}
	return c
}

// mutate retypes one random gate of c to another cell of equal fan-in.
func mutate(t *testing.T, rng *rand.Rand, c *netlist.Circuit) {
	t.Helper()
	gs := c.Gates()
	g := gs[rng.Intn(len(gs))]
	var same []gate.Type
	for _, ty := range append(gate.Primitives(), gate.Composites()...) {
		if ty != g.Type && gate.MustLookup(ty).FanIn == len(g.Fanin) {
			same = append(same, ty)
		}
	}
	if len(same) == 0 {
		return
	}
	if err := c.ReplaceType(g, same[rng.Intn(len(same))]); err != nil {
		t.Fatal(err)
	}
}

// TestEquivalentMatchesEval compares the word-parallel Equivalent with
// the one-assignment-at-a-time reference on random netlists and random
// single-gate mutants of them, exhaustive (≤ ExhaustiveLimit inputs)
// and randomized (more inputs, trials spanning several 64-assignment
// words): same verdict, same counterexample.
func TestEquivalentMatchesEval(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	differ := 0
	for seed := int64(0); seed < 120; seed++ {
		nIn := 1 + rng.Intn(12)
		if seed%2 == 1 {
			nIn = ExhaustiveLimit + 1 + rng.Intn(6)
		}
		a := randomCircuit(t, rng, nIn)
		b := a.Clone()
		if seed%4 != 0 {
			mutate(t, rng, b)
		}
		trials := rng.Intn(200)
		got, err := Equivalent(a, b, trials, seed)
		if err != nil {
			t.Fatal(err)
		}
		want, err := equivalentByEval(a, b, trials, seed)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("seed %d (%d inputs, %d trials): word-parallel %v, reference %v", seed, nIn, trials, got, want)
		}
		if got != nil {
			differ++
		}
	}
	if differ < 30 {
		t.Fatalf("only %d of 120 cases differ: the mutants do not exercise the counterexample", differ)
	}
}
