package engine

import (
	"encoding/json"
	"errors"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/iscas"
	"repro/internal/netlist"
)

// FuzzOptimizeRequest fuzzes the POST /v1/optimize request decoder —
// readOptimize, the handler's own decode-and-validate path — on
// arbitrary bodies: it never panics, a rejection answers 400, 413 or
// 422, and every accepted body carries a finite, non-negative tc and
// ratio and exactly one circuit reference (an inline source arrives
// pre-parsed).
func FuzzOptimizeRequest(f *testing.F) {
	c17, err := json.Marshal(iscas.C17Bench())
	if err != nil {
		f.Fatal(err)
	}
	for _, s := range []string{
		`{"circuit":"c17","ratio":1.5,"wait":true}`,
		`{"circuit":"fpd","tc":120}`,
		`{"circuit":"c17","tc":-50}`,
		`{"circuit":"c17","ratio":-1}`,
		`{"circuit":"c17","ratio":1e309}`,
		`{"circuit":"c17","bench":"INPUT(a)\n"}`,
		`{"ratio":1.5}`,
		`{"circuit":"c17","leakage":true,"parallelism":2}`,
		`{"circuit":"c17"}{"circuit":"c17"}`,
		`{"bench":` + string(c17) + `}`,
		`{"bench":"INPUT(a)\nx = NAND(a"}`,
		`[]`,
		``,
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, data string) {
		w := httptest.NewRecorder()
		r := httptest.NewRequest(http.MethodPost, "/v1/optimize", strings.NewReader(data))
		body, ok := readOptimize(w, r)
		if !ok {
			switch w.Code {
			case http.StatusBadRequest, http.StatusRequestEntityTooLarge, http.StatusUnprocessableEntity:
			default:
				t.Fatalf("rejection answered %d for %q", w.Code, data)
			}
			return
		}
		if w.Body.Len() != 0 {
			t.Fatalf("accepted body %q wrote a response: %s", data, w.Body)
		}
		for _, v := range []float64{body.Tc, body.Ratio} {
			if math.IsNaN(v) || math.IsInf(v, 0) || v < 0 {
				t.Fatalf("accepted out-of-range constraint %v in %q", v, data)
			}
		}
		if (body.Circuit == "") == (body.Bench == "") {
			t.Fatalf("accepted %q without exactly one of circuit and bench", data)
		}
		if body.Bench != "" && body.parsed == nil {
			t.Fatalf("accepted inline source %q without its parse", data)
		}
	})
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
