package main

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"strings"
	"time"

	"repro/internal/engine"
	"repro/internal/gate"
	"repro/internal/iscas"
	"repro/internal/netlist"
)

// template is one distinct unit of work. Every op of a template has
// the same result: the salt an op carries prefixes every net name,
// which changes the netlist fingerprint (so the engine's result memo
// misses and the task is computed) but neither the structure nor the
// order in which the parser creates nodes, so the optimization is
// byte-identical. That is what lets a run check each result against
// the first one of its template, and what keeps the quality metrics
// identical across seeds.
type template struct {
	id      string
	kind    engine.JobKind
	circuit string           // named suite circuit; empty for an inline source
	src     *netlist.Circuit // inline source, renamed per op
	ratio   float64          // optimize: Tc/Tmin
	leakage bool
	points  int // sweep grid size
}

// op is one request of a run.
type op struct {
	seq  int
	pass int
	tmpl *template
	salt string        // net-name prefix of an inline source
	due  time.Duration // open loop: scheduled send time after the start
}

// workload is a named load shape. A closed loop (pass set) issues whole
// passes over pass from one client; an open loop sends a seeded Poisson
// schedule at rate requests per second.
type workload struct {
	name  string
	pass  []*template
	rate  float64
	hot   []*template // open loop: named cells, memo hits after first touch
	fresh *template   // open loop: an inline optimize request
	sweep *template   // open loop: an inline sweep
}

func (w *workload) closed() bool { return len(w.pass) > 0 }

// Scales: full is the benchmark of record; smoke shrinks every
// workload to a few small circuits for the package test.
const (
	scaleFull  = "full"
	scaleSmoke = "smoke"
)

var workloadNames = []string{"suite-tight", "suite-loose", "large-leakage", "service-mixed"}

// buildWorkload assembles a workload's templates. The circuits are the
// same for every seed; the seed only renames them and, in the open
// loop, shapes the arrival schedule and the request order.
func buildWorkload(name, scale string) (*workload, error) {
	smoke := scale == scaleSmoke
	switch name {
	case "suite-tight":
		// At 1.2 every circuit's first path is hard and half of them go on
		// to medium paths, and a pass is short enough to repeat several
		// times in a run.
		specs, ratios := iscas.Suite(), []float64{1.2}
		if smoke {
			specs = specsNamed("c432", "c499")
		}
		return &workload{name: name, pass: suitePass(specs, ratios)}, nil
	case "suite-loose":
		specs, ratios := iscas.Suite(), []float64{2.6, 3.0}
		if smoke {
			specs, ratios = specsNamed("c432", "c499"), []float64{2.6}
		}
		return &workload{name: name, pass: suitePass(specs, ratios)}, nil
	case "large-leakage":
		sizes := []int{6000, 5500}
		if smoke {
			sizes = []int{300}
		}
		var pass []*template
		for _, n := range sizes {
			c, err := iscas.MixedLogic(n)
			if err != nil {
				return nil, err
			}
			for _, r := range []float64{1.5, 2.0} {
				pass = append(pass, optimizeTemplate(c, r, true))
			}
		}
		return &workload{name: name, pass: pass}, nil
	case "service-mixed":
		type cell struct {
			circuit string
			ratio   float64
		}
		// 20 requests/s puts 500 samples in a 25 s run and keeps the two
		// engine workers about a third busy.
		w := &workload{name: name, rate: 20}
		hot := []cell{
			{"fpd", 1.2}, {"c432", 1.4}, {"c499", 1.4}, {"c880", 1.5},
			{"c1355", 1.8}, {"Adder16", 1.6}, {"c1908", 2.0}, {"c3540", 2.5},
		}
		fresh, swept := iscas.MustGenerate(specsNamed("c432")[0]), iscas.MustGenerate(specsNamed("fpd")[0])
		if smoke {
			// One block of the schedule (see openSchedule) in the smoke
			// test's 0.05 s, on the six-gate c17.
			w.rate, hot, fresh, swept = 400, []cell{{"c17", 1.2}, {"c17", 1.4}}, iscas.C17(), iscas.C17()
		}
		for _, h := range hot {
			w.hot = append(w.hot, &template{
				id: fmt.Sprintf("hot:%s@%.2f", h.circuit, h.ratio), kind: engine.JobOptimize,
				circuit: h.circuit, ratio: h.ratio,
			})
		}
		w.fresh = optimizeTemplate(fresh, 1.3, false)
		w.sweep = &template{id: "sweep:" + swept.Name, kind: engine.JobSweep, src: swept, points: 5}
		return w, nil
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %s)", name, strings.Join(workloadNames, ", "))
}

// specsNamed returns the suite specs of the given circuits.
func specsNamed(names ...string) []iscas.Spec {
	out := make([]iscas.Spec, len(names))
	for i, n := range names {
		s, err := iscas.ByName(n)
		if err != nil {
			panic(err) // the names are constants of this file
		}
		out[i] = s
	}
	return out
}

// suitePass crosses the suite with the ratios. The ops of one circuit
// follow each other, so the later ones find its Tmin/Tmax bounds in the
// engine's memo, as a design resubmitted at a new constraint does.
func suitePass(specs []iscas.Spec, ratios []float64) []*template {
	var pass []*template
	for _, s := range specs {
		c := iscas.MustGenerate(s)
		for _, r := range ratios {
			pass = append(pass, optimizeTemplate(c, r, false))
		}
	}
	return pass
}

func optimizeTemplate(c *netlist.Circuit, ratio float64, leakage bool) *template {
	id := fmt.Sprintf("%s@%.2f", c.Name, ratio)
	if leakage {
		id += "+leakage"
	}
	return &template{id: id, kind: engine.JobOptimize, src: c, ratio: ratio, leakage: leakage}
}

// passOps returns pass p of a closed-loop workload. All ops of one
// circuit in a pass share a salt: the same design resubmitted at each
// constraint.
func (w *workload) passOps(seed int64, p int) []*op {
	ops := make([]*op, len(w.pass))
	for i, t := range w.pass {
		ops[i] = &op{seq: p*len(w.pass) + i, pass: p, tmpl: t, salt: salt(seed, p, t.src.Name)}
	}
	return ops
}

// openSchedule draws the open-loop requests of a run: exactly
// round(rate·seconds) arrivals, placed as a Poisson process conditioned
// on that count (normalized exponential gaps), so the offered load is
// the same for every seed. Requests come in blocks of 20 — 6 hot, 10
// fresh, 4 sweeps, shuffled within the block — and the hot requests
// cycle through the named cells, so the mix is exact. The median then
// falls among the fresh requests and the 90th percentile among the
// sweeps, each inside one kind of request.
func (w *workload) openSchedule(seed int64, seconds float64) []*op {
	rng := rand.New(rand.NewSource(seed))
	n := int(math.Round(w.rate * seconds))
	if n < 1 {
		n = 1
	}
	gaps := make([]float64, n+1)
	total := 0.0
	for i := range gaps {
		gaps[i] = rng.ExpFloat64()
		total += gaps[i]
	}
	var kinds []*template
	for len(kinds) < n {
		block := make([]*template, 0, 20)
		for range 6 {
			block = append(block, nil) // a hot request, filled in below
		}
		for range 10 {
			block = append(block, w.fresh)
		}
		for range 4 {
			block = append(block, w.sweep)
		}
		rng.Shuffle(len(block), func(i, j int) { block[i], block[j] = block[j], block[i] })
		kinds = append(kinds, block...)
	}
	ops := make([]*op, n)
	hot := 0
	at := 0.0
	for i := range ops {
		at += gaps[i]
		o := &op{seq: i, due: time.Duration(seconds * at / total * float64(time.Second)), tmpl: kinds[i]}
		if o.tmpl == nil {
			o.tmpl = w.hot[hot%len(w.hot)]
			hot++
		}
		if o.tmpl.src != nil {
			o.salt = salt(seed, i, o.tmpl.src.Name)
		}
		ops[i] = o
	}
	return ops
}

// salt derives the net-name prefix of one inline source from the
// workload seed.
func salt(seed int64, n int, name string) string {
	h := fnv.New64a()
	fmt.Fprintf(h, "%d|%d|%s", seed, n, name)
	return fmt.Sprintf("p%012x_", h.Sum64()&(1<<48-1))
}

// request renders the op as its HTTP request: the path and the JSON
// body. Jobs are submitted asynchronously (no "wait").
func (o *op) request() (string, []byte, error) {
	t := o.tmpl
	var bench string
	if t.src != nil {
		var err error
		if bench, err = benchText(t.src, o.salt); err != nil {
			return "", nil, err
		}
	}
	if t.kind == engine.JobSweep {
		body, err := json.Marshal(engine.SweepRequest{Bench: bench, Points: t.points, Leakage: t.leakage})
		return "/v1/sweep", body, err
	}
	body, err := json.Marshal(engine.OptimizeRequest{Circuit: t.circuit, Bench: bench, Ratio: t.ratio, Leakage: t.leakage})
	return "/v1/optimize", body, err
}

// benchText writes c as an ISCAS .bench source with every net name
// prefixed. The "# name" header keeps the display name, so results
// carry the template's circuit name whatever the prefix.
func benchText(c *netlist.Circuit, prefix string) (string, error) {
	order, err := c.TopoOrder()
	if err != nil {
		return "", err
	}
	var b strings.Builder
	fmt.Fprintf(&b, "# %s\n", c.Name)
	for _, in := range c.Inputs {
		fmt.Fprintf(&b, "INPUT(%s%s)\n", prefix, in.Name)
	}
	for _, out := range c.Outputs {
		fmt.Fprintf(&b, "OUTPUT(%s%s)\n", prefix, out.Fanin[0].Name)
	}
	for _, n := range order {
		if !n.IsLogic() {
			continue
		}
		var opName string
		switch n.Type {
		case gate.Inv:
			opName = "NOT"
		case gate.Nand2, gate.Nand3, gate.Nand4:
			opName = "NAND"
		case gate.Nor2, gate.Nor3, gate.Nor4:
			opName = "NOR"
		default:
			return "", fmt.Errorf("benchText: %s: no .bench operator for %v", n.Name, n.Type)
		}
		fmt.Fprintf(&b, "%s%s = %s(", prefix, n.Name, opName)
		for i, f := range n.Fanin {
			if i > 0 {
				b.WriteString(", ")
			}
			b.WriteString(prefix)
			b.WriteString(f.Name)
		}
		b.WriteString(")\n")
	}
	return b.String(), nil
}
