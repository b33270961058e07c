package engine

import (
	"encoding/json"
	"errors"
	"math"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"testing"

	"repro/internal/iscas"
	"repro/internal/netlist"
)

// FuzzOptimizeRequest fuzzes readRequest, the decode and check that
// every POST body passes before it becomes a job (and that crash replay
// runs again), for all three job kinds on arbitrary bodies; the name
// predates the sweep and suite kinds, and the first seeds are its
// optimize corpus. It never panics, a rejection answers 400, 413 or
// 422, and an accepted request has finite, in-range constraints and
// exactly one circuit source, every inline source arrives parsed, and
// every named rcaN/mixN generator is within the gate cap.
func FuzzOptimizeRequest(f *testing.F) {
	c17, err := json.Marshal(iscas.C17Bench())
	if err != nil {
		f.Fatal(err)
	}
	kinds := []JobKind{JobOptimize, JobSweep, JobSuite}
	for _, s := range []struct {
		kind uint8
		body string
	}{
		{0, `{"circuit":"c17","ratio":1.5,"wait":true}`},
		{0, `{"circuit":"fpd","tc":120}`},
		{0, `{"circuit":"c17","tc":-50}`},
		{0, `{"circuit":"c17","ratio":-1}`},
		{0, `{"circuit":"c17","ratio":1e309}`},
		{0, `{"circuit":"c17","bench":"INPUT(a)\n"}`},
		{0, `{"ratio":1.5}`},
		{0, `{"circuit":"c17","leakage":true,"parallelism":2}`},
		{0, `{"circuit":"c17"}{"circuit":"c17"}`},
		{0, `{"bench":` + string(c17) + `}`},
		{0, `{"bench":"INPUT(a)\nx = NAND(a"}`},
		{0, `[]`},
		{0, ``},
		{0, `{"circuit":"mix65537"}`},
		{0, `{"circuit":"rca7281"}`},
		{1, `{"circuit":"fpd","points":3,"wait":true}`},
		{1, `{"circuit":"rca7282","points":3}`},
		{1, `{"bench":` + string(c17) + `,"points":-1}`},
		{2, `{"benchmarks":["fpd","c432"],"ratios":[1.2,2]}`},
		{2, `{"benchmarks":["mix70000"],"benches":[` + string(c17) + `]}`},
		{2, `{"benches":["INPUT(a)\n"],"ratios":[0]}`},
		{2, ``},
		{2, `{"benchmarks":["rca2049638230412172402"]}`},
	} {
		f.Add(s.kind, s.body)
	}
	f.Fuzz(func(t *testing.T, k uint8, data string) {
		kind := kinds[int(k)%len(kinds)]
		w := httptest.NewRecorder()
		r := httptest.NewRequest(http.MethodPost, "/v1/"+string(kind), strings.NewReader(data))
		req, _, ok := readRequest(w, r, kind)
		if !ok {
			switch w.Code {
			case http.StatusBadRequest, http.StatusRequestEntityTooLarge, http.StatusUnprocessableEntity:
			default:
				t.Fatalf("%s rejection answered %d for %q", kind, w.Code, data)
			}
			return
		}
		if w.Body.Len() != 0 {
			t.Fatalf("accepted %s body %q wrote a response: %s", kind, data, w.Body)
		}
		var constraints []float64
		var names []string
		switch req := req.(type) {
		case *OptimizeRequest:
			constraints = []float64{req.Tc, req.Ratio}
			names = oneSource(t, data, req.Circuit, req.Bench, req.parsed)
		case *SweepRequest:
			constraints = []float64{float64(req.Points)}
			names = oneSource(t, data, req.Circuit, req.Bench, req.parsed)
		case *SuiteRequest:
			for _, r := range req.Ratios {
				if r <= 0 {
					t.Fatalf("accepted suite ratio %v in %q", r, data)
				}
			}
			constraints = req.Ratios
			names = req.Benchmarks
			if len(req.parsed) != len(req.Benches) || slices.Contains(req.parsed, nil) {
				t.Fatalf("accepted suite %q without the parse of every inline source", data)
			}
		}
		for _, v := range constraints {
			if math.IsNaN(v) || math.IsInf(v, 0) || v < 0 {
				t.Fatalf("accepted out-of-range constraint %v in %q", v, data)
			}
		}
		for _, name := range names {
			if n, ok := iscas.GeneratedGates(name); ok && n > MaxBenchGates {
				t.Fatalf("accepted %s, a %d-gate generator, in %q", name, n, data)
			}
		}
	})
}

// oneSource fails unless an accepted single-circuit request carries
// exactly one source, with an inline source parsed; it returns the
// named circuit, if any.
func oneSource(t *testing.T, data, circuit, bench string, parsed *ParsedBench) []string {
	t.Helper()
	if (circuit == "") == (bench == "") {
		t.Fatalf("accepted %q without exactly one of circuit and bench", data)
	}
	if bench != "" {
		if parsed == nil {
			t.Fatalf("accepted inline source %q without its parse", data)
		}
		return nil
	}
	return []string{circuit}
}

// FuzzParseBench fuzzes the whole ingestion path under the service
// caps — read, elaborate, validate, fingerprint — and the per-task
// clone of its result: a rejection is a typed *netlist.BenchError, and
// an accepted source yields a valid master whose clone is valid and
// shares its fingerprint.
func FuzzParseBench(f *testing.F) {
	for _, s := range []string{
		iscas.C17Bench(),
		"INPUT(a)\nINPUT(b)\nINPUT(c)\nOUTPUT(y)\nOUTPUT(z)\ny = XNOR(w, c, a)\nw = XOR(a, b)\n" +
			"z = NOR(a, b, c, w, y, a, b, c, w)\n",
		"INPUT(a)\nINPUT(b)\nx = AND(a,b,a,b,a,b)\nOUTPUT(x)\n",
		"INPUT(a)\ny = OR(a)\nz = NAND(a)\nOUTPUT(y)\nOUTPUT(z)\n",
		"INPUT(a)\nx = NAND(a, x)\nOUTPUT(x)\n",
		"INPUT(a)\nx_x_1 = NOT(a)\nx = XOR(a, a, x_x_1)\nOUTPUT(x)\n",
		"INPUT(a)\ny = NOT(a)\ny$po = NOT(y)\nOUTPUT(y)\n",
		"INPUT(a)\n",
		"",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		pb, err := parseBenchService(src)
		if err != nil {
			var be *netlist.BenchError
			if !errors.As(err, &be) {
				t.Fatalf("untyped rejection %T: %v", err, err)
			}
			return
		}
		c := pb.Circuit
		if err := c.Validate(); err != nil {
			t.Fatalf("accepted source produced an invalid master: %v\n%s", err, src)
		}
		cl := c.Clone()
		if err := cl.Validate(); err != nil {
			t.Fatalf("clone invalid: %v\n%s", err, src)
		}
		if fp := netlist.Fingerprint(cl); fp != netlist.Fingerprint(c) || fp != pb.Key {
			t.Fatalf("clone fingerprint %s, master %s, key %s", fp, netlist.Fingerprint(c), pb.Key)
		}
	})
}
