package iscas

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"repro/internal/delay"
	"repro/internal/logic"
	"repro/internal/netlist"
	"repro/internal/sta"
	"repro/internal/tech"
)

func TestSuiteSpecsMatchTable1(t *testing.T) {
	want := map[string]int{ // Table 1 "Gate nb"
		"Adder16": 99, "fpd": 14, "c432": 29, "c499": 29, "c880": 28,
		"c1355": 30, "c1908": 44, "c3540": 58, "c5315": 60, "c6288": 116,
		"c7552": 47,
	}
	suite := Suite()
	if len(suite) != len(want) {
		t.Fatalf("suite has %d entries, want %d", len(suite), len(want))
	}
	for _, s := range suite {
		if want[s.Name] != s.PathLen {
			t.Fatalf("%s: PathLen %d, want %d", s.Name, s.PathLen, want[s.Name])
		}
	}
}

func TestByName(t *testing.T) {
	if _, err := ByName("c432"); err != nil {
		t.Fatal(err)
	}
	if _, err := ByName("C432"); err != nil {
		t.Fatal("ByName must be case-insensitive")
	}
	if _, err := ByName("c404"); err == nil {
		t.Fatal("unknown benchmark accepted")
	}
}

func TestGenerateAllValid(t *testing.T) {
	for _, spec := range Suite() {
		spec := spec
		t.Run(spec.Name, func(t *testing.T) {
			c, err := Generate(spec)
			if err != nil {
				t.Fatal(err)
			}
			if err := c.Validate(); err != nil {
				t.Fatal(err)
			}
			st := c.Stats()
			if st.Gates < spec.Gates*3/4 || st.Gates > spec.Gates*5/4 {
				t.Fatalf("gate count %d far from budget %d", st.Gates, spec.Gates)
			}
			if st.Inputs != spec.Inputs {
				t.Fatalf("inputs %d, want %d", st.Inputs, spec.Inputs)
			}
			if st.Outputs == 0 || st.Outputs > spec.Outputs {
				t.Fatalf("outputs %d, budget %d", st.Outputs, spec.Outputs)
			}
		})
	}
}

func TestGeneratedCriticalPathLength(t *testing.T) {
	p := tech.CMOS025()
	m := delay.NewModel(p)
	for _, spec := range Suite() {
		spec := spec
		t.Run(spec.Name, func(t *testing.T) {
			c := MustGenerate(spec)
			pa, _, err := sta.CriticalPath(c, m, sta.Config{})
			if err != nil {
				t.Fatal(err)
			}
			// The designed spine must be the critical path: the
			// extracted length matches Table 1 within a small margin.
			if pa.Len() < spec.PathLen*9/10 || pa.Len() > spec.PathLen {
				t.Fatalf("critical path %d gates, spec %d", pa.Len(), spec.PathLen)
			}
		})
	}
}

func TestGenerateDeterministic(t *testing.T) {
	spec, _ := ByName("c880")
	a := MustGenerate(spec)
	b := MustGenerate(spec)
	var sa, sb strings.Builder
	if err := netlist.WriteBench(&sa, a); err != nil {
		t.Fatal(err)
	}
	if err := netlist.WriteBench(&sb, b); err != nil {
		t.Fatal(err)
	}
	if sa.String() != sb.String() {
		t.Fatal("generation is not deterministic")
	}
	// Different seed → different circuit.
	spec.Seed = 99
	c := MustGenerate(spec)
	var sc strings.Builder
	if err := netlist.WriteBench(&sc, c); err != nil {
		t.Fatal(err)
	}
	if sc.String() == sa.String() {
		t.Fatal("seed has no effect")
	}
}

func TestGenerateRejectsBadSpecs(t *testing.T) {
	if _, err := Generate(Spec{Name: "x", Inputs: 4, Outputs: 2, Gates: 30, PathLen: 1}); err == nil {
		t.Fatal("path length 1 accepted")
	}
	if _, err := Generate(Spec{Name: "x", Inputs: 1, Outputs: 2, Gates: 30, PathLen: 5}); err == nil {
		t.Fatal("single input accepted")
	}
}

func TestGeneratedSideLogicIsSized(t *testing.T) {
	c := MustGenerate(mustByName(t, "c432"))
	larger := 0
	for _, g := range c.Gates() {
		if g.CIn > netlist.DefaultGateCIn*1.01 {
			larger++
		}
	}
	if larger < 20 {
		t.Fatalf("expected sized side logic, found only %d gates above minimum", larger)
	}
}

func mustByName(t *testing.T, name string) Spec {
	t.Helper()
	s, err := ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestC17(t *testing.T) {
	c := C17()
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	if got := len(c.Gates()); got != 6 {
		t.Fatalf("c17 has %d gates, want 6", got)
	}
	// Known vector: all inputs 0 → both outputs 1 (NAND trees).
	out, err := logic.Eval(c, map[string]bool{
		"G1": false, "G2": false, "G3": false, "G6": false, "G7": false,
	})
	if err != nil {
		t.Fatal(err)
	}
	// G10=1, G11=1, G16=NAND(0,1)=1, G19=NAND(1,0)=1, G22=NAND(1,1)=0,
	// G23=NAND(1,1)=0.
	if out["G22"] != false || out["G23"] != false {
		t.Fatalf("c17 all-zero vector: %v", out)
	}
	if !strings.Contains(C17Bench(), "G22 = NAND(G10, G16)") {
		t.Fatal("embedded source changed")
	}
}

func TestRippleCarryAdderExhaustive3Bit(t *testing.T) {
	c, err := RippleCarryAdder(3)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	for a := 0; a < 8; a++ {
		for b := 0; b < 8; b++ {
			for cin := 0; cin < 2; cin++ {
				in := map[string]bool{"cin": cin == 1}
				for i := 0; i < 3; i++ {
					in[fmt.Sprintf("a%d", i)] = a&(1<<i) != 0
					in[fmt.Sprintf("b%d", i)] = b&(1<<i) != 0
				}
				out, err := logic.Eval(c, in)
				if err != nil {
					t.Fatal(err)
				}
				got := 0
				for i := 0; i < 3; i++ {
					if out[fmt.Sprintf("sum%d", i)] {
						got |= 1 << i
					}
				}
				if out["cout"] {
					got |= 8
				}
				if want := a + b + cin; got != want {
					t.Fatalf("%d+%d+%d = %d, want %d", a, b, cin, got, want)
				}
			}
		}
	}
}

func TestRippleCarryAdder16Spot(t *testing.T) {
	c, err := RippleCarryAdder(16)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct{ a, b, cin int }{
		{0, 0, 0}, {65535, 1, 0}, {12345, 54321, 1}, {32768, 32768, 0},
	}
	for _, tc := range cases {
		in := map[string]bool{"cin": tc.cin == 1}
		for i := 0; i < 16; i++ {
			in[fmt.Sprintf("a%d", i)] = tc.a&(1<<i) != 0
			in[fmt.Sprintf("b%d", i)] = tc.b&(1<<i) != 0
		}
		out, err := logic.Eval(c, in)
		if err != nil {
			t.Fatal(err)
		}
		got := 0
		for i := 0; i < 16; i++ {
			if out[fmt.Sprintf("sum%d", i)] {
				got |= 1 << i
			}
		}
		if out["cout"] {
			got |= 1 << 16
		}
		if want := tc.a + tc.b + tc.cin; got != want {
			t.Fatalf("%d+%d+%d = %d, want %d", tc.a, tc.b, tc.cin, got, want)
		}
	}
}

func TestRippleCarryAdderCriticalPathIsCarryChain(t *testing.T) {
	p := tech.CMOS025()
	m := delay.NewModel(p)
	c, err := RippleCarryAdder(8)
	if err != nil {
		t.Fatal(err)
	}
	pa, _, err := sta.CriticalPath(c, m, sta.Config{})
	if err != nil {
		t.Fatal(err)
	}
	// The carry chain crosses every bit: at least 2 gates per bit.
	if pa.Len() < 16 {
		t.Fatalf("critical path only %d gates for 8 bits", pa.Len())
	}
}

func TestRippleCarryAdderRejectsZeroBits(t *testing.T) {
	if _, err := RippleCarryAdder(0); err == nil {
		t.Fatal("0-bit adder accepted")
	}
}

// TestGeneratedGates pins the size that GeneratedGates reports for
// the parametric generators against the circuits Load builds, and
// checks that a size which overflows int is no generator name at all.
func TestGeneratedGates(t *testing.T) {
	for _, name := range []string{"rca1", "rca16", "rca64", "mix64", "mix1000", "mix5000"} {
		n, ok := GeneratedGates(name)
		if !ok {
			t.Fatalf("%s: not a generator name", name)
		}
		c, err := Load(name)
		if err != nil {
			t.Fatal(err)
		}
		got := len(c.Gates())
		if strings.HasPrefix(name, "rca") && got != n {
			t.Errorf("%s: GeneratedGates %d, Load built %d gates", name, n, got)
		}
		if strings.HasPrefix(name, "mix") && (got > n || got < n*9/10) {
			t.Errorf("%s: GeneratedGates %d, Load built %d gates (want 90–100%%)", name, n, got)
		}
	}
	// 9N+1 overflows int for these widths (the first wraps to 3); the
	// count saturates instead, so no cap check can be slipped past.
	for _, name := range []string{"rca2049638230412172402", "rca1025000000000000000"} {
		if n, ok := GeneratedGates(name); !ok || n != math.MaxInt {
			t.Errorf("%s: GeneratedGates = %d, %v, want math.MaxInt, true", name, n, ok)
		}
	}
	for _, name := range []string{"rca", "rca0", "mix15", "c432", "c17", "rcax",
		"rca" + strings.Repeat("9", 25), "mix" + strings.Repeat("1", 25)} {
		if n, ok := GeneratedGates(name); ok {
			t.Errorf("%s: GeneratedGates = %d, want not a generator name", name, n)
		}
	}
	if Known("rca" + strings.Repeat("1", 25)) {
		t.Error("a 25-digit rca width that overflows int is Known")
	}
}
