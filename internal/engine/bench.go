// Bring-your-own-netlist ingestion: requests may carry a raw ISCAS
// ".bench" source instead of a suite benchmark name. The source is
// parsed once per request behind a hardened validation pass —
// combinational-loop detection, unsupported operators, duplicate
// definitions, fan-in and size caps — elaborated onto the primitive
// library, and fingerprinted so the engine's memoization keys on the
// netlist's *content*, never on a client-chosen name.

package engine

import (
	"fmt"
	"strings"

	"repro/internal/iscas"
	"repro/internal/netlist"
)

// Ingestion limits for inline .bench sources arriving over the wire.
// They bound what an untrusted client can make the engine elaborate;
// violations surface as typed netlist.BenchError values of kind
// BenchTooLarge. The limits apply at the service boundary (the HTTP
// layer's synchronous validation) — trusted callers going through
// ParseBench, the facade or the CLI parse without caps, exactly like
// pops.LoadBenchFile.
const (
	// MaxBenchBytes caps the raw source size (matches the HTTP body
	// limit, so an in-band source can never exceed it anyway).
	MaxBenchBytes = 1 << 20
	// MaxBenchGates caps gate definitions before decomposition.
	MaxBenchGates = 1 << 16
	// MaxBenchFanIn caps the operand count of one gate definition.
	MaxBenchFanIn = 64
)

// ParsedBench is a validated inline netlist, ready to optimize: the
// elaborated master circuit, its canonical content fingerprint (the
// engine's memo key), and the display name reported in results.
type ParsedBench struct {
	// Name labels results: the source's "# name" header comment when
	// present, otherwise "bench-" plus a fingerprint prefix.
	Name string
	// Key is the canonical content fingerprint of the elaborated
	// circuit (netlist.Fingerprint).
	Key string
	// Circuit is the elaborated master netlist. Optimization tasks
	// clone it; the master itself is never mutated.
	Circuit *netlist.Circuit
}

// ParseBench parses, validates and elaborates an inline .bench source
// for a trusted caller (the facade, the CLI): the full structural
// validation pass with no size caps. Rejections are typed
// *netlist.BenchError values (syntax, semantic, too-large).
func ParseBench(src string) (*ParsedBench, error) {
	return parseBench(src, netlist.BenchLimits{}, 0)
}

// parseBenchService is ParseBench under the service ingestion caps —
// what the HTTP layer runs on untrusted wire input.
func parseBenchService(src string) (*ParsedBench, error) {
	return parseBench(src,
		netlist.BenchLimits{MaxGates: MaxBenchGates, MaxFanIn: MaxBenchFanIn},
		MaxBenchBytes)
}

// checkNamed applies the MaxBenchGates cap to a named parametric
// generator (rcaN, mixN), whose size a client would otherwise choose
// freely; the refusal is a BenchTooLarge error, like an over-cap inline
// source. Other names pass: an unknown one fails when its job resolves
// it. Like the caps of parseBenchService, this binds the wire only.
func checkNamed(name string) error {
	if n, ok := iscas.GeneratedGates(name); ok && n > MaxBenchGates {
		return &netlist.BenchError{Kind: netlist.BenchTooLarge,
			Msg: fmt.Sprintf("%s generates %d gates, over the %d-gate limit", name, n, MaxBenchGates)}
	}
	return nil
}

// parseBench is the shared parse/validate/elaborate/fingerprint body.
// maxBytes zero (like zero lim fields) applies no bound.
func parseBench(src string, lim netlist.BenchLimits, maxBytes int) (*ParsedBench, error) {
	if maxBytes > 0 && len(src) > maxBytes {
		return nil, &netlist.BenchError{Kind: netlist.BenchTooLarge,
			Msg: fmt.Sprintf("source of %d bytes exceeds the %d-byte limit", len(src), maxBytes)}
	}
	c, err := netlist.ReadBench(strings.NewReader(src), netlist.BenchOptions{Limits: lim})
	if err != nil {
		return nil, err
	}
	if len(c.Inputs) == 0 {
		return nil, &netlist.BenchError{Kind: netlist.BenchSemantic,
			Msg: "netlist declares no INPUT"}
	}
	if len(c.Outputs) == 0 {
		return nil, &netlist.BenchError{Kind: netlist.BenchSemantic,
			Msg: "netlist declares no OUTPUT"}
	}
	el, err := netlist.Elaborate(c)
	if err != nil {
		return nil, &netlist.BenchError{Kind: netlist.BenchSemantic,
			Msg: fmt.Sprintf("elaboration: %v", err)}
	}
	if err := el.Validate(); err != nil {
		return nil, &netlist.BenchError{Kind: netlist.BenchSemantic,
			Msg: fmt.Sprintf("validation: %v", err)}
	}
	key := netlist.Fingerprint(el)
	name := el.Name
	if name == "" {
		name = "bench-" + key[:12]
	}
	return &ParsedBench{Name: name, Key: key, Circuit: el}, nil
}

// source is the resolved circuit origin of one request: the display
// name carried into results, the canonical fingerprint keying the
// result memo, and an instantiation hook producing a fresh netlist
// that no concurrent task shares.
type source struct {
	display string
	key     string
	// master is the already-elaborated netlist when the resolution had
	// one in hand (inline sources; named circuits loaded to compute a
	// fresh fingerprint alias), or the master a sweep's points share.
	// nil falls back to loading by name.
	master *netlist.Circuit
	name   string // suite name when master is nil
}

// instantiate returns a fresh, caller-owned circuit instance.
func (s *source) instantiate() (*netlist.Circuit, error) {
	if s.master != nil {
		return s.master.Clone(), nil
	}
	return loadCircuit(s.name)
}
