package netlist

import (
	"errors"
	"strings"
	"testing"
)

// readErr parses src and returns the typed rejection, failing the test
// if the source was accepted or the error is untyped.
func readErr(t *testing.T, src string, opts BenchOptions) *BenchError {
	t.Helper()
	_, err := ReadBench(strings.NewReader(src), opts)
	if err == nil {
		t.Fatalf("source accepted:\n%s", src)
	}
	var be *BenchError
	if !errors.As(err, &be) {
		t.Fatalf("untyped rejection %T: %v", err, err)
	}
	return be
}

// TestReadBenchTypedErrors table-tests the hardened validation pass:
// every rejection class carries its BenchErrorKind, so services can
// map malformed text to 400 and invalid netlists to 422 without
// string-matching error messages.
func TestReadBenchTypedErrors(t *testing.T) {
	cases := []struct {
		name string
		src  string
		kind BenchErrorKind
		want string // substring of the message
	}{
		{"malformed input decl", "INPUT a\n", BenchSyntax, "malformed"},
		{"malformed output decl", "INPUT(a)\nOUTPUT[a]\n", BenchSyntax, "malformed"},
		{"missing assignment", "INPUT(a)\njunk line\n", BenchSyntax, "assignment"},
		{"truncated gate expr", "INPUT(a)\nx = NAND(a\n", BenchSyntax, "malformed gate expression"},
		{"empty operand", "INPUT(a)\nx = NAND(a, )\nOUTPUT(x)\n", BenchSyntax, "empty operand"},
		{"empty lhs", "INPUT(a)\n= NOT(a)\n", BenchSyntax, "net name"},
		{"unsupported operator", "INPUT(a)\nINPUT(b)\nx = MUX(a, b)\nOUTPUT(x)\n", BenchSemantic, "unsupported"},
		{"wrong arity NOT", "INPUT(a)\nINPUT(b)\nx = NOT(a, b)\nOUTPUT(x)\n", BenchSemantic, "expects 1 input"},
		{"duplicate gate", "INPUT(a)\ny = NOT(a)\ny = NOT(a)\nOUTPUT(y)\n", BenchSemantic, "duplicate gate"},
		{"duplicate INPUT", "INPUT(a)\nINPUT(a)\ny = NOT(a)\nOUTPUT(y)\n", BenchSemantic, "duplicate INPUT"},
		{"duplicate OUTPUT", "INPUT(a)\ny = NOT(a)\nOUTPUT(y)\nOUTPUT(y)\n", BenchSemantic, "duplicate OUTPUT"},
		{"gate redefines input", "INPUT(a)\na = NOT(a)\nOUTPUT(a)\n", BenchSemantic, "redefines an INPUT"},
		{"undefined net", "INPUT(a)\nx = NAND(a, ghost)\nOUTPUT(x)\n", BenchSemantic, "undefined net"},
		{"undefined output", "INPUT(a)\ny = NOT(a)\nOUTPUT(ghost)\n", BenchSemantic, "undefined net"},
		{"self cycle", "INPUT(a)\nx = NAND(a, x)\nOUTPUT(x)\n", BenchSemantic, "cycle"},
		{"two-gate cycle", "INPUT(a)\nx = NAND(a, y)\ny = NOT(x)\nOUTPUT(y)\n", BenchSemantic, "cycle"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			be := readErr(t, tc.src, BenchOptions{})
			if be.Kind != tc.kind {
				t.Errorf("kind = %v, want %v (%v)", be.Kind, tc.kind, be)
			}
			if !strings.Contains(be.Error(), tc.want) {
				t.Errorf("message %q does not mention %q", be.Error(), tc.want)
			}
			if be.Line == 0 {
				t.Errorf("rejection carries no line number: %v", be)
			}
		})
	}
}

// TestReadBenchLimits exercises the BenchLimits caps: gate-count and
// fan-in violations are BenchTooLarge, and the zero limits accept the
// same sources.
func TestReadBenchLimits(t *testing.T) {
	wide := "INPUT(a)\nINPUT(b)\nINPUT(c)\nx = AND(a, b, c)\nOUTPUT(x)\n"
	be := readErr(t, wide, BenchOptions{Limits: BenchLimits{MaxFanIn: 2}})
	if be.Kind != BenchTooLarge || !strings.Contains(be.Msg, "cap") {
		t.Errorf("fan-in cap: %v (kind %v)", be, be.Kind)
	}
	if _, err := ReadBench(strings.NewReader(wide), BenchOptions{}); err != nil {
		t.Errorf("unlimited parse rejected the wide gate: %v", err)
	}

	var sb strings.Builder
	sb.WriteString("INPUT(a)\n")
	prev := "a"
	for i := 0; i < 5; i++ {
		name := "g" + string(rune('0'+i))
		sb.WriteString(name + " = NOT(" + prev + ")\n")
		prev = name
	}
	sb.WriteString("OUTPUT(" + prev + ")\n")
	be = readErr(t, sb.String(), BenchOptions{Limits: BenchLimits{MaxGates: 3}})
	if be.Kind != BenchTooLarge || !strings.Contains(be.Msg, "gate cap") && !strings.Contains(be.Msg, "-gate cap") {
		t.Errorf("gate cap: %v (kind %v)", be, be.Kind)
	}
	if _, err := ReadBench(strings.NewReader(sb.String()), BenchOptions{Limits: BenchLimits{MaxGates: 5}}); err != nil {
		t.Errorf("at-limit parse rejected: %v", err)
	}
}

// TestReadBenchGateNamedLikeKeyword guards the declaration/assignment
// disambiguation: a gate whose name merely starts with INPUT or OUTPUT
// is an assignment, not a malformed declaration.
func TestReadBenchGateNamedLikeKeyword(t *testing.T) {
	src := "INPUT(a)\ninput1 = NOT(a)\noutput1 = NOT(input1)\nOUTPUT(output1)\n"
	c, err := ReadBench(strings.NewReader(src), BenchOptions{})
	if err != nil {
		t.Fatalf("keyword-prefixed gate names rejected: %v", err)
	}
	if c.Node("input1") == nil || c.Node("output1") == nil {
		t.Fatal("keyword-prefixed gates missing from the circuit")
	}
}

// TestReadBenchLineCap pins the line-length cap at its boundaries: a
// line (carriage return included, newline not) of 4 MiB or more is
// BenchTooLarge at its own line number, unless an earlier line was
// already rejected; one byte shorter parses.
func TestReadBenchLineCap(t *testing.T) {
	const max = 4 << 20
	long := func(n int) string { return "#" + strings.Repeat("x", n-1) }
	body := "y = NOT(a)\nOUTPUT(y)\n"
	cases := []struct {
		name string
		src  string
		line int // 0: accepted
		kind BenchErrorKind
	}{
		{"just under", "INPUT(a)\n" + long(max-1) + "\n" + body, 0, 0},
		{"at cap", "INPUT(a)\n" + long(max) + "\n" + body, 2, BenchTooLarge},
		{"carriage return counts", "INPUT(a)\n" + long(max-1) + "\r\n" + body, 2, BenchTooLarge},
		{"under with carriage return", "INPUT(a)\n" + long(max-2) + "\r\n" + body, 0, 0},
		{"last line under", "INPUT(a)\n" + body + long(max-1), 0, 0},
		{"last line at cap", "INPUT(a)\n" + body + long(max), 4, BenchTooLarge},
		{"earlier error wins", "INPUT(a)\njunk\n" + long(max+1), 2, BenchSyntax},
	}
	for _, tc := range cases {
		_, err := ReadBench(strings.NewReader(tc.src), BenchOptions{})
		if tc.line == 0 {
			if err != nil {
				t.Errorf("%s: rejected: %v", tc.name, err)
			}
			continue
		}
		var be *BenchError
		if !errors.As(err, &be) || be.Kind != tc.kind || be.Line != tc.line {
			t.Errorf("%s: got %v, want a %v rejection on line %d", tc.name, err, tc.kind, tc.line)
		}
	}
}

// failingReader yields src, then fails.
type failingReader struct{ src *strings.Reader }

func (r failingReader) Read(p []byte) (int, error) {
	if r.src.Len() == 0 {
		return 0, errors.New("disk on fire")
	}
	return r.src.Read(p)
}

// TestReadBenchReadError checks that the lines read before a reader
// failure are still checked first, and that the failure itself is a
// line-less BenchSyntax.
func TestReadBenchReadError(t *testing.T) {
	_, err := ReadBench(failingReader{strings.NewReader("INPUT(a)\njunk")}, BenchOptions{})
	var be *BenchError
	if !errors.As(err, &be) || be.Kind != BenchSyntax || be.Line != 2 {
		t.Fatalf("bad line before the failure: %v", err)
	}
	_, err = ReadBench(failingReader{strings.NewReader("INPUT(a)\ny = NOT(a)\nOUTPUT(y)\n")}, BenchOptions{})
	if !errors.As(err, &be) || be.Kind != BenchSyntax || be.Line != 0 || be.Msg != "read: disk on fire" {
		t.Fatalf("reader failure: %v", err)
	}
}

// FuzzReadBench asserts the untrusted-source contract on arbitrary
// inputs: ReadBench either returns a structurally valid circuit or a
// typed *BenchError — never a panic, never an untyped error. The seed
// corpus covers every rejection class plus valid sources.
func FuzzReadBench(f *testing.F) {
	for _, s := range fuzzReadBenchSeeds {
		f.Add(s)
	}
	lim := BenchLimits{MaxGates: 512, MaxFanIn: 16}
	f.Fuzz(func(t *testing.T, src string) {
		c, err := ReadBench(strings.NewReader(src), BenchOptions{Limits: lim})
		if err != nil {
			var be *BenchError
			if !errors.As(err, &be) {
				t.Fatalf("untyped rejection %T: %v", err, err)
			}
			return
		}
		if err := c.Validate(); err != nil {
			t.Fatalf("accepted source produced an invalid circuit: %v\n%s", err, src)
		}
	})
}

// fuzzReadBenchSeeds is FuzzReadBench's seed corpus: every rejection
// class plus valid sources, including forward references, XOR chains
// and wide gates that decompose under generated names. The ingestion
// golden also pins each seed's outcome.
var fuzzReadBenchSeeds = []string{
	"",
	"# c17\nINPUT(G1)\nINPUT(G3)\nOUTPUT(G10)\nG10 = NAND(G1, G3)\n",
	"INPUT(a)\nx = NAND(a, x)\nOUTPUT(x)\n",      // cycle
	"INPUT(a)\ny = NOT(a)\ny = NOT(a)\n",         // duplicate gate
	"INPUT(a)\ny = NOT(a)\nOUTPUT(y)\nOUTPUT(y)", // duplicate output
	"INPUT(a)\nx = FROB(a)\nOUTPUT(x)\n",         // unsupported op
	"INPUT(a)\nx = NAND(a",                       // truncated
	"INPUT(a)\nINPUT(b)\nx = AND(a,b,a,b,a,b)\n", // repeated pins
	"OUTPUT(ghost)\n",                            // undefined output
	"garbage\x00line\n",                          // binary junk
	"INPUT(a)\n= NOT(a)\n",                       // empty lhs
	"INPUT(a)\nINPUT(a)\n",                       // duplicate input
	// forward references, an XOR chain and a 9-input NOR tree
	"INPUT(a)\nINPUT(b)\nINPUT(c)\nOUTPUT(y)\nOUTPUT(z)\ny = XNOR(w, c, a)\nw = XOR(a, b)\n" +
		"z = NOR(a, b, c, w, y, a, b, c, w)\n",
}
