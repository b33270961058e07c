package engine

import (
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/iscas"
)

// TestOptimizeBenchEndpoint drives an inline netlist through POST
// /v1/optimize end-to-end.
func TestOptimizeBenchEndpoint(t *testing.T) {
	_, ts := newTestServer(t)
	resp, body := postJSON(t, ts.URL+"/v1/optimize",
		map[string]any{"bench": iscas.C17Bench(), "ratio": 1.4, "wait": true})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %v", resp.StatusCode, body)
	}
	res := body["result"].(map[string]any)
	if res["circuit"] != "c17" {
		t.Fatalf("result circuit %v", res["circuit"])
	}
	if res["feasible"] != true || res["delay"].(float64) > res["tc"].(float64) {
		t.Fatalf("c17 not optimized: %v", res)
	}
}

// TestBenchEndpointValidation pins the 400/422 mapping of the
// ingestion pass and the exactly-one-of-circuit-and-bench rule.
func TestBenchEndpointValidation(t *testing.T) {
	_, ts := newTestServer(t)
	cases := []struct {
		name   string
		body   map[string]any
		status int
		want   string
	}{
		{"neither source", map[string]any{}, http.StatusBadRequest, "circuit or bench"},
		{"both sources", map[string]any{"circuit": "c17", "bench": iscas.C17Bench()},
			http.StatusBadRequest, "mutually exclusive"},
		{"malformed bench is 400", map[string]any{"bench": "INPUT(a\n"},
			http.StatusBadRequest, "malformed"},
		{"cyclic bench is 422", map[string]any{"bench": "INPUT(a)\nx = NAND(a, x)\nOUTPUT(x)\n"},
			http.StatusUnprocessableEntity, "cycle"},
		{"unsupported gate is 422", map[string]any{"bench": "INPUT(a)\nx = MUX(a, a)\nOUTPUT(x)\n"},
			http.StatusUnprocessableEntity, "unsupported"},
		{"duplicate output is 422", map[string]any{"bench": "INPUT(a)\ny = NOT(a)\nOUTPUT(y)\nOUTPUT(y)\n"},
			http.StatusUnprocessableEntity, "duplicate OUTPUT"},
	}
	for _, endpoint := range []string{"/v1/optimize", "/v1/sweep"} {
		for _, tc := range cases {
			t.Run(endpoint+"/"+tc.name, func(t *testing.T) {
				resp, body := postJSON(t, ts.URL+endpoint, tc.body)
				if resp.StatusCode != tc.status {
					t.Fatalf("status %d, want %d: %v", resp.StatusCode, tc.status, body)
				}
				if msg, _ := body["error"].(string); !strings.Contains(msg, tc.want) {
					t.Fatalf("error %q does not mention %q", msg, tc.want)
				}
			})
		}
	}
	// Suite: inline entries are validated synchronously too.
	resp, body := postJSON(t, ts.URL+"/v1/suite",
		map[string]any{"benches": []string{"INPUT(a)\nx = NAND(a, x)\nOUTPUT(x)\n"}})
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("suite with cyclic inline entry: status %d %v", resp.StatusCode, body)
	}
	if msg, _ := body["error"].(string); !strings.Contains(msg, "benches[0]") {
		t.Fatalf("suite error %q does not locate the entry", msg)
	}
}

// TestNamedGeneratorCap pins the gate cap on named generators: an
// rcaN or mixN name over MaxBenchGates answers 422 BenchTooLarge on
// every POST endpoint before any job is registered, like an over-cap
// inline source; that holds for widths whose 9N+1 gate count overflows
// int. A width too long for an int is no generator name; its job fails
// as an unknown benchmark.
func TestNamedGeneratorCap(t *testing.T) {
	const wraps, overflows = "rca2049638230412172402", "rca1025000000000000000"
	// A check that let one of these through would start a job that
	// builds it, so the check is asked first and no POST follows a miss.
	for _, name := range []string{"mix65537", "rca7282", wraps, overflows} {
		if checkNamed(name) == nil {
			t.Fatalf("checkNamed(%s) accepted an over-cap generator", name)
		}
	}
	srv, ts := newTestServer(t)
	for _, c := range []struct {
		path string
		body map[string]any
	}{
		{"/v1/optimize", map[string]any{"circuit": "mix65537"}},
		{"/v1/optimize", map[string]any{"circuit": "rca7282"}},
		{"/v1/optimize", map[string]any{"circuit": wraps}},
		{"/v1/sweep", map[string]any{"circuit": "rca7282", "points": 3}},
		{"/v1/sweep", map[string]any{"circuit": overflows, "points": 3}},
		{"/v1/suite", map[string]any{"benchmarks": []string{"fpd", "mix65537"}}},
		{"/v1/suite", map[string]any{"benchmarks": []string{wraps}}},
	} {
		resp, body := postJSON(t, ts.URL+c.path, c.body)
		if resp.StatusCode != http.StatusUnprocessableEntity {
			t.Fatalf("%s %v: status %d %v", c.path, c.body, resp.StatusCode, body)
		}
		if msg, _ := body["error"].(string); !strings.Contains(msg, "65536-gate limit") {
			t.Fatalf("%s %v: error %q does not name the gate limit", c.path, c.body, msg)
		}
	}
	if n := srv.Store().Len(); n != 0 {
		t.Fatalf("%d jobs registered for over-cap generators", n)
	}
	long := "rca" + strings.Repeat("1", 25)
	resp, body := postJSON(t, ts.URL+"/v1/optimize", map[string]any{"circuit": long, "wait": true})
	if resp.StatusCode != http.StatusUnprocessableEntity || body["status"] != string(JobFailed) {
		t.Fatalf("%s: status %d %v", long, resp.StatusCode, body)
	}
	if msg, _ := body["error"].(string); !strings.Contains(msg, "unknown benchmark") {
		t.Fatalf("%s: error %q", long, msg)
	}
}

// TestSuiteMixedEntries runs a named benchmark and an inline netlist
// in one suite job.
func TestSuiteMixedEntries(t *testing.T) {
	_, ts := newTestServer(t)
	resp, body := postJSON(t, ts.URL+"/v1/suite", map[string]any{
		"benchmarks": []string{"fpd"},
		"benches":    []string{iscas.C17Bench()},
		"ratios":     []float64{1.5},
		"wait":       true,
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %v", resp.StatusCode, body)
	}
	rows := body["result"].(map[string]any)["rows"].([]any)
	if len(rows) != 2 {
		t.Fatalf("%d rows", len(rows))
	}
	first, second := rows[0].(map[string]any), rows[1].(map[string]any)
	if first["circuit"] != "fpd" || second["circuit"] != "c17" {
		t.Fatalf("rows %v / %v", first["circuit"], second["circuit"])
	}
}

// TestWriteJSONEncodeFailure is the truncated-200 regression test: a
// response value the encoder rejects (a non-finite float, as leaks
// from an infeasible sizing result) must answer a complete 500 JSON
// error body, not a truncated body under an already-committed 200.
func TestWriteJSONEncodeFailure(t *testing.T) {
	rec := httptest.NewRecorder()
	writeJSON(rec, http.StatusOK, map[string]any{"a": math.Inf(-1)})
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("status %d, want 500", rec.Code)
	}
	got := rec.Body.String()
	if !strings.Contains(got, `"error"`) || !strings.Contains(got, "encoding response") {
		t.Fatalf("body %q is not a JSON error", got)
	}
	if !strings.HasSuffix(strings.TrimRight(got, "\n"), "}") {
		t.Fatalf("body %q looks truncated", got)
	}

	// The happy path still writes the requested status and full body.
	rec = httptest.NewRecorder()
	writeJSON(rec, http.StatusTeapot, map[string]string{"ok": "yes"})
	if rec.Code != http.StatusTeapot || !strings.Contains(rec.Body.String(), `"ok"`) {
		t.Fatalf("happy path: %d %q", rec.Code, rec.Body.String())
	}
}

// TestSubmitDuringShutdown is the shutdown-race regression at the HTTP
// layer: once the server's store is closed, POSTs answer 503 instead
// of silently launching jobs after shutdown.
func TestSubmitDuringShutdown(t *testing.T) {
	srv, ts := newTestServer(t)
	srv.Shutdown()
	resp, body := postJSON(t, ts.URL+"/v1/optimize",
		map[string]any{"circuit": "fpd", "ratio": 1.5})
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status %d, want 503: %v", resp.StatusCode, body)
	}
	if msg, _ := body["error"].(string); !strings.Contains(msg, "closed") {
		t.Fatalf("error %q", msg)
	}
	if n := srv.Store().Len(); n != 0 {
		t.Fatalf("store registered %d jobs after shutdown", n)
	}
}

// TestHealthJobCount pins /healthz's job counter: it must reflect the
// store's registered jobs (served by the O(1) Store.Len, not a full
// List snapshot per liveness probe).
func TestHealthJobCount(t *testing.T) {
	srv, ts := newTestServer(t)
	postJSON(t, ts.URL+"/v1/optimize",
		map[string]any{"circuit": "fpd", "ratio": 1.5, "wait": true})
	_, body := getJSON(t, ts.URL+"/healthz")
	if n := int(body["jobs"].(float64)); n != 1 || srv.Store().Len() != 1 {
		t.Fatalf("healthz jobs %d, store Len %d, want 1", n, srv.Store().Len())
	}
}
