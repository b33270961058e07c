// Package logic evaluates the boolean function of a netlist and checks
// functional equivalence between circuits. The restructuring step of
// the protocol (§4.2, De Morgan rewrites) must preserve logic; this
// package provides the proof obligation: exhaustive equivalence for
// small input counts and randomized equivalence for large ones.
package logic

import (
	"fmt"
	"math/bits"
	"math/rand"
	"sort"
	"strings"

	"repro/internal/gate"
	"repro/internal/netlist"
)

// Eval computes the primary-output values of circuit c under the given
// primary-input assignment. The returned map is keyed by output net
// name (without the "$po" suffix of the observation pseudo-node).
func Eval(c *netlist.Circuit, in map[string]bool) (map[string]bool, error) {
	order, err := c.TopoOrder()
	if err != nil {
		return nil, err
	}
	val := make(map[*netlist.Node]bool, len(order))
	for _, n := range order {
		switch {
		case n.Type == gate.Input:
			v, ok := in[n.Name]
			if !ok {
				return nil, fmt.Errorf("logic: no value for input %q", n.Name)
			}
			val[n] = v
		case n.Type == gate.Output:
			val[n] = val[n.Fanin[0]]
		default:
			args := make([]bool, len(n.Fanin))
			for i, f := range n.Fanin {
				args[i] = val[f]
			}
			val[n] = gate.Eval(n.Type, args)
		}
	}
	out := make(map[string]bool, len(c.Outputs))
	for _, o := range c.Outputs {
		out[strings.TrimSuffix(o.Name, "$po")] = val[o]
	}
	return out, nil
}

// Counterexample records an input assignment on which two circuits
// disagree, for diagnostics.
type Counterexample struct {
	Inputs map[string]bool
	Output string // name of a disagreeing output
	A, B   bool
}

func (ce *Counterexample) String() string {
	if ce == nil {
		return "<equivalent>"
	}
	names := make([]string, 0, len(ce.Inputs))
	for k := range ce.Inputs {
		names = append(names, k)
	}
	sort.Strings(names)
	var sb strings.Builder
	for _, k := range names {
		fmt.Fprintf(&sb, "%s=%v ", k, ce.Inputs[k])
	}
	return fmt.Sprintf("output %s: %v vs %v under %s", ce.Output, ce.A, ce.B, strings.TrimSpace(sb.String()))
}

// ExhaustiveLimit is the input count up to which Equivalent checks all
// 2^n assignments.
const ExhaustiveLimit = 16

// Equivalent checks that circuits a and b compute the same function:
// identical input name sets, identical output name sets, and equal
// outputs on every tested assignment. Up to ExhaustiveLimit inputs the
// check is exhaustive; beyond that, trials random assignments drawn
// from the seeded generator are used. It returns a counterexample on
// failure and an error on structural mismatch.
//
// The assignments are evaluated 64 at a time, one per bit of a machine
// word (EvalWords). The counterexample is still the first failing
// assignment in test order, with its first disagreeing output in name
// order.
func Equivalent(a, b *netlist.Circuit, trials int, seed int64) (*Counterexample, error) {
	ins, err := matchNames(inputNames(a), inputNames(b), "input")
	if err != nil {
		return nil, err
	}
	outs, err := matchNames(outputNames(a), outputNames(b), "output")
	if err != nil {
		return nil, err
	}
	ea, err := newWordEval(a, ins, outs)
	if err != nil {
		return nil, err
	}
	eb, err := newWordEval(b, ins, outs)
	if err != nil {
		return nil, err
	}

	// words[i] packs input ins[i] of the batch's assignments: bit j is
	// its value in assignment j.
	n := len(ins)
	words := make([]uint64, n)
	lanes := 0
	// flush evaluates the batch and returns the counterexample of its
	// first failing assignment, if any.
	flush := func() *Counterexample {
		if lanes == 0 {
			return nil
		}
		ea.eval(words)
		eb.eval(words)
		var diff uint64
		for k := range outs {
			diff |= ea.out(k) ^ eb.out(k)
		}
		diff &= ^uint64(0) >> (64 - lanes)
		if diff == 0 {
			clear(words)
			lanes = 0
			return nil
		}
		j := bits.TrailingZeros64(diff)
		in := make(map[string]bool, n)
		for i, name := range ins {
			in[name] = words[i]>>j&1 == 1
		}
		k := 0
		for (ea.out(k)^eb.out(k))>>j&1 == 0 {
			k++
		}
		return &Counterexample{Inputs: in, Output: outs[k], A: ea.out(k)>>j&1 == 1, B: eb.out(k)>>j&1 == 1}
	}
	// add appends the assignment giving input ins[i] the value
	// value(i), in i order, as the batch's next lane.
	add := func(value func(i int) bool) *Counterexample {
		for i := range words {
			if value(i) {
				words[i] |= 1 << lanes
			}
		}
		if lanes++; lanes == 64 {
			return flush()
		}
		return nil
	}

	if n <= ExhaustiveLimit {
		for mask := 0; mask < 1<<uint(n); mask++ {
			if ce := add(func(i int) bool { return mask&(1<<uint(i)) != 0 }); ce != nil {
				return ce, nil
			}
		}
		return flush(), nil
	}

	rng := rand.New(rand.NewSource(seed))
	for t := 0; t < trials; t++ {
		if ce := add(func(int) bool { return rng.Intn(2) == 1 }); ce != nil {
			return ce, nil
		}
	}
	// Also probe the all-zero, all-one, walking-one and walking-zero
	// corners, which random sampling misses with high probability and
	// which exercise wide AND/OR reductions (a single gate swapped
	// deep inside an AND tree only shows under almost-all-ones
	// vectors).
	corners := []func(int) bool{
		func(int) bool { return false },
		func(int) bool { return true },
	}
	for i := range ins {
		corners = append(corners,
			func(j int) bool { return i == j },
			func(j int) bool { return i != j })
	}
	for _, value := range corners {
		if ce := add(value); ce != nil {
			return ce, nil
		}
	}
	return flush(), nil
}

// wordEval evaluates one circuit on 64 input assignments at once.
type wordEval struct {
	order []*netlist.Node
	ins   []*netlist.Node // input nodes, in the caller's name order
	outs  []*netlist.Node // output pseudo-nodes, in the caller's name order
	val   []uint64        // packed net values, indexed by Node.ID
	args  []uint64        // fan-in gather scratch
}

func newWordEval(c *netlist.Circuit, ins, outs []string) (*wordEval, error) {
	order, err := c.TopoOrder()
	if err != nil {
		return nil, err
	}
	e := &wordEval{order: order, val: make([]uint64, c.IDBound())}
	for _, name := range ins {
		e.ins = append(e.ins, c.Node(name))
	}
	byName := make(map[string]*netlist.Node, len(c.Outputs))
	for _, o := range c.Outputs {
		byName[strings.TrimSuffix(o.Name, "$po")] = o
	}
	for _, name := range outs {
		e.outs = append(e.outs, byName[name])
	}
	return e, nil
}

// eval evaluates the circuit with words[i] driving input i.
func (e *wordEval) eval(words []uint64) {
	for i, n := range e.ins {
		e.val[n.ID] = words[i]
	}
	e.args = EvalWords(e.order, e.val, e.args)
}

// out returns output k's packed values from the last eval.
func (e *wordEval) out(k int) uint64 { return e.val[e.outs[k].ID] }

// EvalWords evaluates a circuit on 64 packed input assignments: one
// pass over the topological order, evaluating each gate on one word
// whose bit j belongs to assignment j. Input words are pre-packed by
// the caller in cur (indexed by Node.ID); outputs forward their
// driver's word; gates gather fan-in words into the reused args
// scratch and evaluate through gate.EvalWord. It is also the word
// kernel of the power package's vector simulation, which runs it once
// per 64-vector chunk of every power profile, so its steady state must
// not allocate; the grown scratch is returned so the caller keeps the
// capacity across calls.
//
//pops:noalloc
func EvalWords(order []*netlist.Node, cur []uint64, args []uint64) []uint64 {
	for _, n := range order {
		switch {
		case n.Type == gate.Input:
			// cur[n.ID] was packed by the caller.
		case n.Type == gate.Output:
			cur[n.ID] = cur[n.Fanin[0].ID]
		default:
			args = args[:0]
			for _, f := range n.Fanin {
				args = append(args, cur[f.ID])
			}
			cur[n.ID] = gate.EvalWord(n.Type, args)
		}
	}
	return args
}

func inputNames(c *netlist.Circuit) []string {
	names := make([]string, len(c.Inputs))
	for i, n := range c.Inputs {
		names[i] = n.Name
	}
	sort.Strings(names)
	return names
}

func outputNames(c *netlist.Circuit) []string {
	names := make([]string, len(c.Outputs))
	for i, n := range c.Outputs {
		names[i] = strings.TrimSuffix(n.Name, "$po")
	}
	sort.Strings(names)
	return names
}

func matchNames(a, b []string, kind string) ([]string, error) {
	if len(a) != len(b) {
		return nil, fmt.Errorf("logic: %s count mismatch: %d vs %d", kind, len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			return nil, fmt.Errorf("logic: %s name mismatch: %q vs %q", kind, a[i], b[i])
		}
	}
	return a, nil
}
