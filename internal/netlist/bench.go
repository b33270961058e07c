package netlist

import (
	"bufio"
	"fmt"
	"io"
	"slices"
	"strings"

	"repro/internal/gate"
)

// BenchOptions controls .bench parsing.
type BenchOptions struct {
	// OutputLoad is the terminal capacitance (fF) attached to every
	// primary output — the register input capacitance that bounds the
	// path per §2.2. Zero selects DefaultOutputLoad.
	OutputLoad float64
	// Name overrides the circuit name (otherwise taken from the first
	// "# name" comment or left empty).
	Name string
	// Limits bounds the source for untrusted callers; the zero value
	// applies no limits.
	Limits BenchLimits
}

// DefaultOutputLoad is the terminal load (fF) applied to primary
// outputs when the caller does not specify one: a few minimum register
// input capacitances.
const DefaultOutputLoad = 12.0

// ReadBench parses an ISCAS'85 ".bench" netlist. The format is:
//
//	# comment
//	INPUT(G1)
//	OUTPUT(G22)
//	G10 = NAND(G1, G3)
//	G22 = NOT(G10)
//
// Recognized operators: AND, NAND, OR, NOR, NOT, BUF/BUFF, XOR, XNOR.
// Gates wider than the 4-input library cells are decomposed on the fly
// into balanced trees of library cells (real ISCAS'85 circuits contain
// up to 9-input gates), which preserves the boolean function exactly.
// Forward references are legal: the file is read in two passes.
//
// Every rejection is a typed *BenchError (possibly wrapped): malformed
// text is BenchSyntax, invalid netlists — duplicate or undefined nets,
// duplicate INPUT/OUTPUT declarations, unsupported operators, wrong
// arity, combinational cycles — are BenchSemantic, and violations of
// opts.Limits are BenchTooLarge. Services ingesting untrusted sources
// map these to client-error statuses.
func ReadBench(r io.Reader, opts BenchOptions) (*Circuit, error) {
	load := opts.OutputLoad
	if load <= 0 {
		load = DefaultOutputLoad
	}

	// The source is read whole into one string: every net name is a
	// substring of it, and every gate's operands are a window of argv.
	var text strings.Builder
	_, readErr := io.Copy(&text, r)
	src := text.String()

	type decl struct {
		name string
		line int
	}
	// Pre-size the gate and operand lists for a well-formed source: one
	// gate per '=', one operand per ',' plus one per gate. A gate line
	// takes at least 7 bytes ("x=F(a)\n") and an operand 2, which caps
	// the reservation for a malformed source at what a valid one of the
	// same size would use.
	gates := min(strings.Count(src, "="), len(src)/7+1)
	var (
		inputs  []decl
		outputs []decl
		raws    = make([]rawGate, 0, gates)
		argv    = make([]string, 0, min(strings.Count(src, ",")+gates, len(src)/2+1))
		name    = opts.Name
	)

	lineNo := 0
	for rest := src; rest != ""; {
		line := rest
		rest = ""
		if i := strings.IndexByte(line, '\n'); i >= 0 {
			line, rest = line[:i], line[i+1:]
		}
		if len(line) >= maxBenchLine {
			return nil, benchErr(BenchTooLarge, lineNo+1, "line exceeds the scanner buffer")
		}
		lineNo++
		line = strings.TrimSuffix(line, "\r")
		if i := strings.IndexByte(line, '#'); i >= 0 {
			if name == "" {
				c := strings.TrimSpace(line[i+1:])
				if c != "" && !strings.ContainsAny(c, " \t") {
					name = c
				}
			}
			line = line[:i]
		}
		line = strings.TrimSpace(line)
		if line == "" {
			continue
		}
		switch {
		case hasPrefixFold(line, "INPUT") && !strings.Contains(line, "="):
			arg, err := parseParen(line, "INPUT")
			if err != nil {
				return nil, benchErr(BenchSyntax, lineNo, "%v", err)
			}
			inputs = append(inputs, decl{arg, lineNo})
		case hasPrefixFold(line, "OUTPUT") && !strings.Contains(line, "="):
			arg, err := parseParen(line, "OUTPUT")
			if err != nil {
				return nil, benchErr(BenchSyntax, lineNo, "%v", err)
			}
			outputs = append(outputs, decl{arg, lineNo})
		default:
			eq := strings.IndexByte(line, '=')
			if eq < 0 {
				return nil, benchErr(BenchSyntax, lineNo, "expected assignment, got %q", line)
			}
			lhs := strings.TrimSpace(line[:eq])
			rhs := strings.TrimSpace(line[eq+1:])
			if lhs == "" {
				return nil, benchErr(BenchSyntax, lineNo, "assignment without a net name %q", line)
			}
			first := len(argv)
			op, more, err := parseCall(rhs, argv)
			if err != nil {
				return nil, benchErr(BenchSyntax, lineNo, "%v", err)
			}
			argv = more
			args := argv[first:]
			if m := opts.Limits.MaxFanIn; m > 0 && len(args) > m {
				return nil, benchErr(BenchTooLarge, lineNo,
					"gate %q has %d inputs, over the %d-input cap", lhs, len(args), m)
			}
			if m := opts.Limits.MaxGates; m > 0 && len(raws) >= m {
				return nil, benchErr(BenchTooLarge, lineNo,
					"netlist exceeds the %d-gate cap", m)
			}
			raws = append(raws, rawGate{name: lhs, op: op, args: args, line: lineNo})
		}
	}
	if readErr != nil {
		return nil, benchErr(BenchSyntax, 0, "read: %v", readErr)
	}

	// Every source gate becomes at least one node and every operand or
	// output at least one fanin and one fanout entry; decomposed wide
	// gates take more, from further chunks.
	c := newSized(name, len(inputs), len(outputs), len(inputs)+len(raws)+len(outputs), 2*(len(argv)+len(outputs)))
	b := benchBuild{
		c:       c,
		raws:    raws,
		nets:    make(map[string]int, len(inputs)+len(raws)),
		built:   make([]*Node, len(raws)),
		onStack: make([]bool, len(raws)),
	}
	for _, in := range inputs {
		if _, dup := b.nets[in.name]; dup {
			return nil, benchErr(BenchSemantic, in.line, "duplicate INPUT(%s)", in.name)
		}
		b.nets[in.name] = -1 - len(c.Inputs)
		if _, err := c.AddInput(in.name); err != nil {
			return nil, benchErr(BenchSemantic, in.line, "%v", err)
		}
	}

	// Two-pass construction to allow forward references: first register
	// every gate output name, then wire fanin.
	for i, rg := range raws {
		if j, seen := b.nets[rg.name]; seen {
			if j >= 0 {
				return nil, benchErr(BenchSemantic, rg.line, "duplicate gate %q", rg.name)
			}
			return nil, benchErr(BenchSemantic, rg.line, "gate %q redefines an INPUT", rg.name)
		}
		b.nets[rg.name] = i
	}

	// Emit gates in name order, each after its operands (the files are
	// usually already ordered; this tolerates any order).
	order := make([]gateKey, len(raws))
	for i, rg := range raws {
		order[i] = gateKey{rg.name, i}
	}
	slices.SortFunc(order, func(x, y gateKey) int { return strings.Compare(x.name, y.name) })
	for _, k := range order {
		if _, err := b.emit(k.i); err != nil {
			return nil, err
		}
	}

	seenOut := make(map[string]bool, len(outputs))
	for _, out := range outputs {
		if seenOut[out.name] {
			return nil, benchErr(BenchSemantic, out.line, "duplicate OUTPUT(%s)", out.name)
		}
		seenOut[out.name] = true
		if _, err := c.addOutput(out.name, load); err != nil {
			return nil, benchErr(BenchSemantic, out.line, "%v", err)
		}
	}
	c.wireFanout()
	return c, nil
}

// rawGate is one parsed gate line.
type rawGate struct {
	name string
	op   string
	args []string
	line int
}

// gateKey sorts gates by name.
type gateKey struct {
	name string
	i    int
}

// benchBuild emits the gates of one source by depth-first descent
// through their operands. The onStack flags mark the current descent
// path for O(1) cycle detection — a linear trail scan here is quadratic
// on long chains, long enough to matter for a service parsing untrusted
// megabyte sources.
type benchBuild struct {
	c        *Circuit
	raws     []rawGate
	nets     map[string]int // net name → gate index into raws, or -1-k for c.Inputs[k]
	built    []*Node        // per gate: the node driving its net, once emitted
	onStack  []bool
	operands []*Node // operand stack of the gates being emitted
}

// net resolves the operand name, referenced on line refLine, emitting
// its gate first if needed.
func (b *benchBuild) net(name string, refLine int) (*Node, error) {
	i, ok := b.nets[name]
	if !ok {
		return nil, benchErr(BenchSemantic, refLine, "undefined net %q referenced", name)
	}
	if i < 0 {
		return b.c.Inputs[-1-i], nil
	}
	return b.emit(i)
}

// emit builds gate i after its operands and returns the node driving
// its net.
func (b *benchBuild) emit(i int) (*Node, error) {
	if n := b.built[i]; n != nil {
		return n, nil
	}
	rg := &b.raws[i]
	if b.onStack[i] {
		return nil, benchErr(BenchSemantic, rg.line, "combinational cycle through %q", rg.name)
	}
	b.onStack[i] = true
	base := len(b.operands)
	for _, a := range rg.args {
		d, err := b.net(a, rg.line)
		if err != nil {
			return nil, err
		}
		b.operands = append(b.operands, d)
	}
	b.onStack[i] = false
	n, err := addBenchGate(b.c, rg.name, rg.op, b.operands[base:])
	b.operands = b.operands[:base]
	if err != nil {
		return nil, benchErr(BenchSemantic, rg.line, "%v", err)
	}
	b.built[i] = n
	return n, nil
}

// maxBenchLine caps the length of one source line in bytes, carriage
// return included: a line this long or longer is BenchTooLarge.
const maxBenchLine = 4 * 1024 * 1024

// addBenchGate adds one parsed gate on its operand nets args,
// decomposing wide operators into balanced trees of library cells, and
// returns the node driving the gate's net. Fanout lists are left to the
// caller's wireFanout.
func addBenchGate(c *Circuit, name, op string, args []*Node) (*Node, error) {
	t, err := gate.ParseType(op)
	if err != nil {
		return nil, fmt.Errorf("unsupported bench operator %q", op)
	}
	n := len(args)
	switch t {
	case gate.Inv, gate.Buf:
		if n != 1 {
			return nil, fmt.Errorf("%s expects 1 input, got %d", op, n)
		}
		return c.newGate(name, t, args...)
	case gate.Xor2, gate.Xnor2:
		// XOR/XNOR chains associate left: a^b^c = (a^b)^c.
		if n < 2 {
			return nil, fmt.Errorf("%s expects >=2 inputs, got %d", op, n)
		}
		acc := args[0]
		for i := 1; i < n; i++ {
			// The last link is the named root. It still advances the
			// generated-name counter, on which every later generated
			// name depends (pinned by the ingestion golden).
			tt, gname := t, name
			if i < n-1 {
				tt, gname = gate.Xor2, c.genName(name, "_x")
			} else {
				c.skipGenName(name, "_x")
			}
			if acc, err = c.newGate(gname, tt, acc, args[i]); err != nil {
				return nil, err
			}
		}
		return acc, nil
	case gate.And2, gate.Or2, gate.Nand2, gate.Nor2:
		if n < 1 {
			return nil, fmt.Errorf("%s expects inputs", op)
		}
		if n == 1 {
			// Degenerate single-input AND/OR is a buffer; NAND/NOR an
			// inverter.
			tt := gate.Buf
			if t == gate.Nand2 || t == gate.Nor2 {
				tt = gate.Inv
			}
			return c.newGate(name, tt, args...)
		}
		return addWide(c, name, t, args)
	default:
		return nil, fmt.Errorf("unsupported bench operator %q", op)
	}
}

// addWide realizes an n-input AND/OR/NAND/NOR using library cells of
// fan-in ≤ 4, decomposing as a balanced tree. The inverting forms apply
// the inversion only at the root.
func addWide(c *Circuit, name string, t gate.Type, args []*Node) (*Node, error) {
	w := wideGate{c: c, name: name, inverting: t == gate.Nand2 || t == gate.Nor2}
	switch t {
	case gate.And2, gate.Nand2:
		w.family = gate.And2
	case gate.Or2, gate.Nor2:
		w.family = gate.Or2
	default:
		return nil, fmt.Errorf("addWide: bad family %v", t)
	}
	return w.build(args, true)
}

// wideGate is one addWide decomposition in progress.
type wideGate struct {
	c         *Circuit
	name      string    // the source gate's output net, named at the root
	family    gate.Type // non-inverting reduction family
	inverting bool
}

// build reduces nets to one net, returning its driver.
func (w *wideGate) build(nets []*Node, root bool) (*Node, error) {
	c, name := w.c, w.name
	n := len(nets)
	if n == 1 {
		if root {
			// Single net at root of inverting op: plain inverter.
			if w.inverting {
				return c.newGate(name, gate.Inv, nets...)
			}
			return c.newGate(name, gate.Buf, nets...)
		}
		return nets[0], nil
	}
	if n <= 4 {
		// The root keeps the gate's name but still advances the
		// generated-name counter, like the XOR chain's last link.
		family, gname := w.family, name
		if !root {
			gname = c.genName(name, "_t")
		} else {
			c.skipGenName(name, "_t")
			if w.inverting {
				// NAND family root for AND reduction, NOR for OR.
				if w.family == gate.And2 {
					family = gate.Nand2
				} else {
					family = gate.Nor2
				}
			}
		}
		tt, ok := gate.VariantWithFanIn(family, n)
		if !ok {
			return nil, fmt.Errorf("no %v variant with %d inputs", family, n)
		}
		return c.newGate(gname, tt, nets...)
	}
	// Split into up to 4 balanced groups.
	groups := 4
	if n <= 8 {
		groups = (n + 2) / 3 // keep subtrees ≥ 2 wide where possible
		if groups < 2 {
			groups = 2
		}
	}
	per := (n + groups - 1) / groups
	var tops []*Node
	for i := 0; i < n; i += per {
		j := i + per
		if j > n {
			j = n
		}
		top, err := w.build(nets[i:j], false)
		if err != nil {
			return nil, err
		}
		tops = append(tops, top)
	}
	return w.build(tops, root)
}

// WriteBench serializes the circuit in ISCAS .bench format. Output
// pseudo-nodes are emitted as OUTPUT declarations of their driven net.
func WriteBench(w io.Writer, c *Circuit) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "# %s\n", c.Name)
	fmt.Fprintf(bw, "# %d inputs, %d outputs, %d gates\n",
		len(c.Inputs), len(c.Outputs), len(c.Gates()))
	for _, in := range c.Inputs {
		fmt.Fprintf(bw, "INPUT(%s)\n", in.Name)
	}
	for _, out := range c.Outputs {
		fmt.Fprintf(bw, "OUTPUT(%s)\n", out.Fanin[0].Name)
	}
	order, err := c.TopoOrder()
	if err != nil {
		return err
	}
	for _, n := range order {
		if !n.IsLogic() {
			continue
		}
		op, err := benchOp(n.Type)
		if err != nil {
			return fmt.Errorf("bench write %s: %v", n.Name, err)
		}
		names := make([]string, len(n.Fanin))
		for i, f := range n.Fanin {
			names[i] = f.Name
		}
		fmt.Fprintf(bw, "%s = %s(%s)\n", n.Name, op, strings.Join(names, ", "))
	}
	return bw.Flush()
}

func benchOp(t gate.Type) (string, error) {
	switch t {
	case gate.Inv:
		return "NOT", nil
	case gate.Buf:
		return "BUFF", nil
	case gate.Nand2, gate.Nand3, gate.Nand4:
		return "NAND", nil
	case gate.Nor2, gate.Nor3, gate.Nor4:
		return "NOR", nil
	case gate.And2, gate.And3, gate.And4:
		return "AND", nil
	case gate.Or2, gate.Or3, gate.Or4:
		return "OR", nil
	case gate.Xor2:
		return "XOR", nil
	case gate.Xnor2:
		return "XNOR", nil
	}
	return "", fmt.Errorf("no bench operator for %v", t)
}

func hasPrefixFold(s, prefix string) bool {
	if len(s) < len(prefix) {
		return false
	}
	return strings.EqualFold(s[:len(prefix)], prefix)
}

// parseParen extracts X from "KEYWORD(X)".
func parseParen(line, keyword string) (string, error) {
	rest := strings.TrimSpace(line[len(keyword):])
	if !strings.HasPrefix(rest, "(") || !strings.HasSuffix(rest, ")") {
		return "", fmt.Errorf("malformed %s declaration %q", keyword, line)
	}
	arg := strings.TrimSpace(rest[1 : len(rest)-1])
	if arg == "" {
		return "", fmt.Errorf("empty %s declaration %q", keyword, line)
	}
	return arg, nil
}

// parseCall parses "OP(a, b, c)", appending the operands to argv.
func parseCall(rhs string, argv []string) (op string, _ []string, err error) {
	open := strings.IndexByte(rhs, '(')
	if open < 0 || !strings.HasSuffix(rhs, ")") {
		return "", argv, fmt.Errorf("malformed gate expression %q", rhs)
	}
	op = strings.TrimSpace(rhs[:open])
	first := len(argv)
	for inner, more := rhs[open+1:len(rhs)-1], true; more; {
		var part string
		part, inner, more = strings.Cut(inner, ",")
		p := strings.TrimSpace(part)
		if p == "" {
			return "", argv, fmt.Errorf("empty operand in %q", rhs)
		}
		argv = append(argv, p)
	}
	if op == "" || len(argv) == first {
		return "", argv, fmt.Errorf("malformed gate expression %q", rhs)
	}
	return op, argv, nil
}
