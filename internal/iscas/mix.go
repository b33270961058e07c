// Mixed random-logic generator: wide, layered circuits for the
// large-circuit workloads. Where the rcaN family is deep and narrow (a
// carry chain levelizes into thousands of levels of width 4-5), mixN
// levelizes into a few hundred levels that are each hundreds of gates
// wide — the shape real random-logic blocks have.
package iscas

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/gate"
	"repro/internal/netlist"
)

// mixGates parses a "mixN" name into its gate budget.
func mixGates(name string) (int, bool) {
	n, ok := nameSize(name, "mix")
	return n, ok && n >= 16
}

// MixedLogic builds the deterministic layered random-logic circuit
// "mixN" with about gates gates (the budget is rounded to full
// layers). Layout: width ≈ 2·√gates primary inputs feed
// depth = gates/width layers of width gates each; every gate's first
// pin taps its column in the previous layer (so every net is consumed
// and every layer-l gate levelizes to exactly level l), the remaining
// pins tap random nets of the previous layer. The last layer drives
// the primary outputs. The construction is deterministic in the gate
// budget alone.
func MixedLogic(gates int) (*netlist.Circuit, error) {
	if gates < 16 {
		return nil, fmt.Errorf("iscas: mix%d: need a budget of at least 16 gates", gates)
	}
	width := int(2 * math.Sqrt(float64(gates)))
	if width < 16 {
		width = 16
	}
	depth := gates / width
	if depth < 2 {
		depth = 2
	}
	rng := rand.New(rand.NewSource(0x6d6978 ^ int64(gates))) // "mix"
	c := netlist.New(fmt.Sprintf("mix%d", gates))

	prev := make([]string, width)
	for i := range prev {
		name := fmt.Sprintf("i%d", i)
		if _, err := c.AddInput(name); err != nil {
			return nil, err
		}
		prev[i] = name
	}

	cur := make([]string, width)
	for l := 0; l < depth; l++ {
		for i := 0; i < width; i++ {
			t := pickType(rng)
			cell := gate.MustLookup(t)
			fanin := []string{prev[i]}
			for len(fanin) < cell.FanIn {
				cand := prev[rng.Intn(width)]
				dup := false
				for _, f := range fanin {
					if f == cand {
						dup = true
					}
				}
				if !dup {
					fanin = append(fanin, cand)
				}
			}
			name := fmt.Sprintf("x%d_%d", l, i)
			n, err := c.AddGate(name, t, fanin...)
			if err != nil {
				return nil, err
			}
			n.CWire = 0.3 + 2.2*rng.Float64() // fF
			cur[i] = name
		}
		prev, cur = cur, prev
	}

	for _, name := range prev {
		if _, err := c.AddOutput(name, netlist.DefaultOutputLoad); err != nil {
			return nil, err
		}
	}
	return c, nil
}
