// Package gate defines the combinational cell library used by the POPS
// reproduction: the primitive CMOS gates (inverter, NAND, NOR families
// plus a non-inverting buffer), their logical weights DW, symmetry
// factors S (eq. 3 of the paper), parasitic coefficients, and De Morgan
// duals used by the logic-restructuring step of §4.2.
//
// The paper's delay model characterizes each gate type by its logical
// weight DW(HL/LH) — "the ratio of the current available in an inverter
// to that of a serial array of transistors". A NAND stacks its N
// devices (DW_HL ≈ fan-in) while its P devices switch in parallel
// (DW_LH ≈ 1); a NOR is the mirror image, and pays the weak-P penalty
// R/k on top, which is precisely why the paper singles NOR3 out as the
// least efficient cell (lowest buffer-insertion limit in Table 2).
package gate

import (
	"fmt"

	"repro/internal/tech"
)

// Type enumerates the library cells.
type Type int

// Library cell types. INPUT and OUTPUT are pseudo-cells used by netlists
// for primary inputs/outputs; they carry no delay of their own.
const (
	Invalid Type = iota
	Input        // primary input pseudo-cell
	Output       // primary output pseudo-cell
	Inv
	Buf
	Nand2
	Nand3
	Nand4
	Nor2
	Nor3
	Nor4
	And2
	And3
	And4
	Or2
	Or3
	Or4
	Xor2
	Xnor2
	numTypes
)

var typeNames = map[Type]string{
	Invalid: "INVALID",
	Input:   "INPUT",
	Output:  "OUTPUT",
	Inv:     "INV",
	Buf:     "BUF",
	Nand2:   "NAND2",
	Nand3:   "NAND3",
	Nand4:   "NAND4",
	Nor2:    "NOR2",
	Nor3:    "NOR3",
	Nor4:    "NOR4",
	And2:    "AND2",
	And3:    "AND3",
	And4:    "AND4",
	Or2:     "OR2",
	Or3:     "OR3",
	Or4:     "OR4",
	Xor2:    "XOR2",
	Xnor2:   "XNOR2",
}

// String returns the canonical upper-case cell name.
func (t Type) String() string {
	if s, ok := typeNames[t]; ok {
		return s
	}
	return fmt.Sprintf("Type(%d)", int(t))
}

// ParseType resolves a cell name (case-insensitive; ISCAS .bench
// operator names such as "NOT" and "BUFF" are accepted) to a Type.
func ParseType(name string) (Type, error) {
	switch upper(name) {
	case "INV", "NOT":
		return Inv, nil
	case "BUF", "BUFF":
		return Buf, nil
	case "NAND", "NAND2":
		return Nand2, nil
	case "NAND3":
		return Nand3, nil
	case "NAND4":
		return Nand4, nil
	case "NOR", "NOR2":
		return Nor2, nil
	case "NOR3":
		return Nor3, nil
	case "NOR4":
		return Nor4, nil
	case "AND", "AND2":
		return And2, nil
	case "AND3":
		return And3, nil
	case "AND4":
		return And4, nil
	case "OR", "OR2":
		return Or2, nil
	case "OR3":
		return Or3, nil
	case "OR4":
		return Or4, nil
	case "XOR", "XOR2":
		return Xor2, nil
	case "XNOR", "XNOR2":
		return Xnor2, nil
	case "INPUT":
		return Input, nil
	case "OUTPUT":
		return Output, nil
	}
	return Invalid, fmt.Errorf("gate: unknown cell type %q", name)
}

func upper(s string) string {
	b := []byte(s)
	for i, c := range b {
		if c >= 'a' && c <= 'z' {
			b[i] = c - 'a' + 'A'
		}
	}
	return string(b)
}

// Cell describes the electrical personality of a library cell.
type Cell struct {
	Type   Type
	FanIn  int // number of input pins
	Invert bool

	// DWHL and DWLH are the logical weights of the falling and rising
	// output edges (eq. 3): the factor by which the switching current
	// is degraded relative to the reference inverter.
	DWHL float64
	DWLH float64

	// ParasiticFactor scales the gate's self-loading: the output
	// diffusion capacitance is ParasiticFactor × the per-pin input
	// capacitance. It grows with transistor count (the classic
	// logical-effort parasitic delay).
	ParasiticFactor float64

	// StackN and StackP are the series transistor counts of the
	// pull-down and pull-up networks (transistor-level simulator).
	StackN int
	StackP int
}

// Logical weights are calibrated, not the naive series-stack count:
// body effect and the non-switching stack transistors being fully on
// reduce the current degradation below n (cf. Maurine et al., TCAD
// 2002). The values below reproduce the Flimit ordering and magnitudes
// of the paper's Table 2 on the default 0.25 µm corner.
//
// The composite cells (AND/OR/XOR/XNOR) are macros over the primitives;
// they are expanded by netlist elaboration and never reach the delay
// model, but Lookup still returns a personality for them (their
// primitive front stage) so partially elaborated netlists remain
// analyzable.
//
// The table is indexed by Type: Node.Cell serves every timing query of
// the STA and the path solvers from it. Entries outside IsLogic are
// zero and never returned.
var library = [numTypes]Cell{
	Inv:   {Type: Inv, FanIn: 1, Invert: true, DWHL: 1.0, DWLH: 1.0, ParasiticFactor: 1.0, StackN: 1, StackP: 1},
	Buf:   {Type: Buf, FanIn: 1, Invert: false, DWHL: 1.0, DWLH: 1.0, ParasiticFactor: 1.9, StackN: 1, StackP: 1},
	Nand2: {Type: Nand2, FanIn: 2, Invert: true, DWHL: 1.60, DWLH: 1.10, ParasiticFactor: 1.5, StackN: 2, StackP: 1},
	Nand3: {Type: Nand3, FanIn: 3, Invert: true, DWHL: 2.20, DWLH: 1.20, ParasiticFactor: 2.1, StackN: 3, StackP: 1},
	Nand4: {Type: Nand4, FanIn: 4, Invert: true, DWHL: 2.80, DWLH: 1.30, ParasiticFactor: 2.8, StackN: 4, StackP: 1},
	Nor2:  {Type: Nor2, FanIn: 2, Invert: true, DWHL: 1.10, DWLH: 1.80, ParasiticFactor: 1.6, StackN: 1, StackP: 2},
	Nor3:  {Type: Nor3, FanIn: 3, Invert: true, DWHL: 1.15, DWLH: 2.60, ParasiticFactor: 2.3, StackN: 1, StackP: 3},
	Nor4:  {Type: Nor4, FanIn: 4, Invert: true, DWHL: 1.20, DWLH: 3.40, ParasiticFactor: 3.1, StackN: 1, StackP: 4},

	And2:  {Type: And2, FanIn: 2, Invert: false, DWHL: 1.60, DWLH: 1.10, ParasiticFactor: 2.5, StackN: 2, StackP: 1},
	And3:  {Type: And3, FanIn: 3, Invert: false, DWHL: 2.20, DWLH: 1.20, ParasiticFactor: 3.1, StackN: 3, StackP: 1},
	And4:  {Type: And4, FanIn: 4, Invert: false, DWHL: 2.80, DWLH: 1.30, ParasiticFactor: 3.8, StackN: 4, StackP: 1},
	Or2:   {Type: Or2, FanIn: 2, Invert: false, DWHL: 1.10, DWLH: 1.80, ParasiticFactor: 2.6, StackN: 1, StackP: 2},
	Or3:   {Type: Or3, FanIn: 3, Invert: false, DWHL: 1.15, DWLH: 2.60, ParasiticFactor: 3.3, StackN: 1, StackP: 3},
	Or4:   {Type: Or4, FanIn: 4, Invert: false, DWHL: 1.20, DWLH: 3.40, ParasiticFactor: 4.1, StackN: 1, StackP: 4},
	Xor2:  {Type: Xor2, FanIn: 2, Invert: false, DWHL: 1.90, DWLH: 1.90, ParasiticFactor: 3.6, StackN: 2, StackP: 2},
	Xnor2: {Type: Xnor2, FanIn: 2, Invert: true, DWHL: 1.90, DWLH: 1.90, ParasiticFactor: 3.6, StackN: 2, StackP: 2},
}

// Lookup returns the cell personality for a type. It returns an error
// for pseudo-cells (Input/Output) and unknown types.
func Lookup(t Type) (Cell, error) {
	if !IsLogic(t) {
		return Cell{}, fmt.Errorf("gate: type %v has no cell personality", t)
	}
	return library[t], nil
}

// MustLookup is Lookup for callers that have already validated the type.
// It panics on unknown types.
func MustLookup(t Type) Cell {
	if !IsLogic(t) {
		panic(fmt.Errorf("gate: type %v has no cell personality", t))
	}
	return library[t]
}

// Primitives returns the primitive (directly characterized) cell types
// in a stable order.
func Primitives() []Type {
	return []Type{Inv, Buf, Nand2, Nand3, Nand4, Nor2, Nor3, Nor4}
}

// Composites returns the macro cell types expanded during elaboration.
func Composites() []Type {
	return []Type{And2, And3, And4, Or2, Or3, Or4, Xor2, Xnor2}
}

// IsPrimitive reports whether t is directly characterized (reaches the
// delay model without macro expansion).
func IsPrimitive(t Type) bool { return Inv <= t && t <= Nor4 }

// IsLogic reports whether t is a logic cell (primitive or composite),
// as opposed to an Input/Output pseudo-cell.
func IsLogic(t Type) bool {
	return IsPrimitive(t) || isComposite(t)
}

func isComposite(t Type) bool { return And2 <= t && t <= Xnor2 }

// SHL returns the eq. (3) symmetry factor of the falling output edge for
// cell c under process p: S_HL = S0·(1+k)·DW_HL.
func (c Cell) SHL(p *tech.Process) float64 {
	return p.S0 * (1 + p.K) * c.DWHL
}

// SLH returns the eq. (3) symmetry factor of the rising output edge:
// S_LH = S0·(1+k)·(R/k)·DW_LH. The R/k factor is the weak-P penalty.
func (c Cell) SLH(p *tech.Process) float64 {
	return p.S0 * (1 + p.K) * p.R / p.K * c.DWLH
}

// SMean returns the edge-averaged symmetry factor used by the convex
// path-optimization objective.
func (c Cell) SMean(p *tech.Process) float64 {
	return (c.SHL(p) + c.SLH(p)) / 2
}

// Parasitic returns the output self-loading capacitance (fF) of the
// cell when its per-pin input capacitance is cin.
func (c Cell) Parasitic(cin float64) float64 {
	return c.ParasiticFactor * cin
}

// Area returns the total transistor width ΣW (µm) of the cell when its
// per-pin input capacitance is cin: every pin contributes its gate
// width. This is the cost metric of the paper's figures (ΣW in µm).
func (c Cell) Area(cin float64, p *tech.Process) float64 {
	return float64(c.FanIn) * p.WidthForCap(cin)
}

// DeMorganDual returns the cell type realizing the same boolean
// function as t when all of t's inputs and its output are inverted
// (De Morgan's theorem), together with ok=false when t has no dual in
// the library. NAND(a,b) = NOT(a AND b) = (NOT a) OR (NOT b): inverting
// the inputs of an OR-typed cell. Concretely the restructuring step of
// §4.2 uses: NOR_n ↔ NAND_n with inverters moved across the cell.
func DeMorganDual(t Type) (Type, bool) {
	switch t {
	case Nand2:
		return Nor2, true
	case Nand3:
		return Nor3, true
	case Nand4:
		return Nor4, true
	case Nor2:
		return Nand2, true
	case Nor3:
		return Nand3, true
	case Nor4:
		return Nand4, true
	case And2:
		return Or2, true
	case And3:
		return Or3, true
	case And4:
		return Or4, true
	case Or2:
		return And2, true
	case Or3:
		return And3, true
	case Or4:
		return And4, true
	default:
		return Invalid, false
	}
}

// Eval evaluates the boolean function of cell type t on the given
// inputs. It panics if the input count does not match the cell fan-in
// (netlist validation guarantees it never does on elaborated circuits).
func Eval(t Type, in []bool) bool {
	switch t {
	case Inv:
		mustLen(t, in, 1)
		return !in[0]
	case Buf, Output:
		mustLen(t, in, 1)
		return in[0]
	case Nand2, Nand3, Nand4:
		return !allTrue(in)
	case And2, And3, And4:
		return allTrue(in)
	case Nor2, Nor3, Nor4:
		return !anyTrue(in)
	case Or2, Or3, Or4:
		return anyTrue(in)
	case Xor2:
		mustLen(t, in, 2)
		return in[0] != in[1]
	case Xnor2:
		mustLen(t, in, 2)
		return in[0] == in[1]
	}
	panic(fmt.Sprintf("gate: Eval on non-logic type %v", t))
}

func mustLen(t Type, in []bool, n int) {
	if len(in) != n {
		panic(fmt.Sprintf("gate: %v expects %d inputs, got %d", t, n, len(in)))
	}
}

// EvalWord is Eval on 64 packed evaluations at once: bit j of every
// input word is the value of input pin i in evaluation j, and bit j of
// the returned word is the cell's output for that evaluation. All
// library functions are bitwise (AND/OR/XOR trees plus inversion), so
// one machine word evaluates 64 random vectors of the power
// simulation for the cost of one — the word-parallel fast path behind
// power.SimulateProfile. It panics on non-logic types and wrong input
// counts, mirroring Eval.
func EvalWord(t Type, in []uint64) uint64 {
	switch t {
	case Inv:
		mustLenWord(t, in, 1)
		return ^in[0]
	case Buf, Output:
		mustLenWord(t, in, 1)
		return in[0]
	case Nand2, Nand3, Nand4:
		return ^allOnes(in)
	case And2, And3, And4:
		return allOnes(in)
	case Nor2, Nor3, Nor4:
		return ^anyOnes(in)
	case Or2, Or3, Or4:
		return anyOnes(in)
	case Xor2:
		mustLenWord(t, in, 2)
		return in[0] ^ in[1]
	case Xnor2:
		mustLenWord(t, in, 2)
		return ^(in[0] ^ in[1])
	}
	panic(fmt.Sprintf("gate: EvalWord on non-logic type %v", t))
}

func mustLenWord(t Type, in []uint64, n int) {
	if len(in) != n {
		panic(fmt.Sprintf("gate: %v expects %d inputs, got %d", t, n, len(in)))
	}
}

func allOnes(in []uint64) uint64 {
	w := ^uint64(0)
	for _, v := range in {
		w &= v
	}
	return w
}

func anyOnes(in []uint64) uint64 {
	var w uint64
	for _, v := range in {
		w |= v
	}
	return w
}

func allTrue(in []bool) bool {
	for _, v := range in {
		if !v {
			return false
		}
	}
	return true
}

func anyTrue(in []bool) bool {
	for _, v := range in {
		if v {
			return true
		}
	}
	return false
}

// Variable fan-in families, indexed by fan-in (1..4).
var (
	nandFamily = [...]Type{Invalid, Inv, Nand2, Nand3, Nand4}
	norFamily  = [...]Type{Invalid, Inv, Nor2, Nor3, Nor4}
	andFamily  = [...]Type{Invalid, Buf, And2, And3, And4}
	orFamily   = [...]Type{Invalid, Buf, Or2, Or3, Or4}
)

// VariantWithFanIn returns the cell of the same family as t with the
// requested fan-in (e.g. Nand-family, 3 → Nand3). ok=false when the
// family has no such member.
func VariantWithFanIn(t Type, n int) (Type, bool) {
	var fam *[5]Type
	switch t {
	case Nand2, Nand3, Nand4:
		fam = &nandFamily
	case Nor2, Nor3, Nor4:
		fam = &norFamily
	case And2, And3, And4:
		fam = &andFamily
	case Or2, Or3, Or4:
		fam = &orFamily
	default:
		return Invalid, false
	}
	if n < 1 || n >= len(fam) {
		return Invalid, false
	}
	return fam[n], true
}
