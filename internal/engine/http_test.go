package engine

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

func newTestServer(t *testing.T) (*Server, *httptest.Server) {
	t.Helper()
	e := newEngine(t, 2)
	srv := NewServer(context.Background(), e)
	ts := httptest.NewServer(srv)
	t.Cleanup(func() {
		ts.Close()
		srv.Shutdown()
	})
	return srv, ts
}

func postJSON(t *testing.T, url string, body any) (*http.Response, map[string]any) {
	t.Helper()
	buf, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(buf))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatalf("decoding response: %v", err)
	}
	return resp, out
}

func getJSON(t *testing.T, url string) (*http.Response, map[string]any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatalf("decoding response: %v", err)
	}
	return resp, out
}

func TestHealthz(t *testing.T) {
	_, ts := newTestServer(t)
	resp, body := getJSON(t, ts.URL+"/healthz")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if body["status"] != "ok" {
		t.Fatalf("body %v", body)
	}
	if body["workers"].(float64) != 2 {
		t.Fatalf("workers %v", body["workers"])
	}
}

func TestOptimizeEndpointWait(t *testing.T) {
	_, ts := newTestServer(t)
	resp, body := postJSON(t, ts.URL+"/v1/optimize",
		map[string]any{"circuit": "fpd", "ratio": 1.5, "wait": true})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %v", resp.StatusCode, body)
	}
	if body["status"] != string(JobDone) {
		t.Fatalf("job status %v (%v)", body["status"], body["error"])
	}
	res := body["result"].(map[string]any)
	if res["circuit"] != "fpd" || res["feasible"] != true {
		t.Fatalf("result %v", res)
	}
	if res["delay"].(float64) > res["tc"].(float64) {
		t.Fatalf("delay above tc: %v", res)
	}
}

func TestOptimizeEndpointValidation(t *testing.T) {
	_, ts := newTestServer(t)
	resp, _ := postJSON(t, ts.URL+"/v1/optimize", map[string]any{"ratio": 1.5})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("missing circuit: status %d", resp.StatusCode)
	}
	// Unknown fields are rejected on every POST body, never silently
	// ignored: a client sending parallelism, a knob the engine does not
	// have, gets a 400 rather than a request that quietly runs without
	// it.
	for _, ep := range []struct {
		path string
		body map[string]any
	}{
		{"/v1/optimize", map[string]any{"circuit": "fpd"}},
		{"/v1/sweep", map[string]any{"circuit": "fpd"}},
		{"/v1/suite", map[string]any{"benchmarks": []string{"fpd"}}},
	} {
		for _, field := range []string{`bogus`, `parallelism`} {
			req := map[string]any{field: 2}
			for k, v := range ep.body {
				req[k] = v
			}
			resp, body := postJSON(t, ts.URL+ep.path, req)
			if resp.StatusCode != http.StatusBadRequest {
				t.Fatalf("%s with unknown field %q: status %d", ep.path, field, resp.StatusCode)
			}
			if msg, _ := body["error"].(string); !strings.Contains(msg, `unknown field "`+field+`"`) {
				t.Fatalf("%s with unknown field %q: error %q", ep.path, field, msg)
			}
		}
	}
	resp, body := postJSON(t, ts.URL+"/v1/optimize",
		map[string]any{"circuit": "no-such-circuit", "wait": true})
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("unknown benchmark: status %d %v", resp.StatusCode, body)
	}
	if body["status"] != string(JobFailed) || body["error"] == "" {
		t.Fatalf("failed job body %v", body)
	}
}

func TestAsyncJobLifecycle(t *testing.T) {
	srv, ts := newTestServer(t)
	resp, body := postJSON(t, ts.URL+"/v1/sweep", map[string]any{"circuit": "fpd", "points": 3})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("status %d: %v", resp.StatusCode, body)
	}
	id := body["id"].(string)
	if id == "" {
		t.Fatalf("no job id in %v", body)
	}

	// Poll until done, as a client would.
	deadline := time.Now().Add(30 * time.Second)
	for {
		resp, body = getJSON(t, ts.URL+"/v1/jobs/"+id)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("poll status %d", resp.StatusCode)
		}
		st := body["status"].(string)
		if st == string(JobDone) {
			break
		}
		if st == string(JobFailed) {
			t.Fatalf("job failed: %v", body["error"])
		}
		if time.Now().After(deadline) {
			t.Fatal("job did not finish in time")
		}
		time.Sleep(20 * time.Millisecond)
	}
	res := body["result"].(map[string]any)
	if res["circuit"] != "fpd" {
		t.Fatalf("result %v", res)
	}
	if n := len(res["points"].([]any)); n != 3 {
		t.Fatalf("%d points", n)
	}

	// The job must also be visible in the listing and via Await.
	_, listing := getJSON(t, ts.URL+"/v1/jobs")
	if n := len(listing["jobs"].([]any)); n != 1 {
		t.Fatalf("listing has %d jobs", n)
	}
	if j, ok := srv.Store().Await(id); !ok || j.Status != JobDone {
		t.Fatalf("Await: %v %v", j.Status, ok)
	}

	// Pruning drops the finished job and its retained result.
	req, err := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs", nil)
	if err != nil {
		t.Fatal(err)
	}
	presp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	var pruned map[string]int
	if err := json.NewDecoder(presp.Body).Decode(&pruned); err != nil {
		t.Fatal(err)
	}
	presp.Body.Close()
	if pruned["pruned"] != 1 {
		t.Fatalf("pruned %d jobs", pruned["pruned"])
	}
	if resp, _ := getJSON(t, ts.URL+"/v1/jobs/"+id); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("pruned job still visible: %d", resp.StatusCode)
	}
}

func TestJobNotFound(t *testing.T) {
	_, ts := newTestServer(t)
	resp, _ := getJSON(t, ts.URL+"/v1/jobs/job-999999")
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("status %d", resp.StatusCode)
	}
}

func TestSuiteEndpoint(t *testing.T) {
	_, ts := newTestServer(t)
	resp, body := postJSON(t, ts.URL+"/v1/suite",
		map[string]any{"benchmarks": []string{"fpd"}, "ratios": []float64{1.4, 2.0}, "wait": true})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %v", resp.StatusCode, body)
	}
	rows := body["result"].(map[string]any)["rows"].([]any)
	if len(rows) != 2 {
		t.Fatalf("%d rows", len(rows))
	}
	first := rows[0].(map[string]any)
	if first["circuit"] != "fpd" || first["ratio"].(float64) != 1.4 {
		t.Fatalf("row %v", first)
	}
}

// TestConstraintEndpointValidation pins the synchronous range check of
// the three POST handlers: an out-of-range constraint answers 400 before
// any job is submitted, instead of running at a silently substituted
// default.
func TestConstraintEndpointValidation(t *testing.T) {
	srv, ts := newTestServer(t)
	for _, c := range []struct {
		name string
		path string
		body map[string]any
	}{
		{"negative tc", "/v1/optimize", map[string]any{"circuit": "c17", "tc": -50, "wait": true}},
		{"negative ratio", "/v1/optimize", map[string]any{"circuit": "c17", "ratio": -1, "wait": true}},
		{"negative points", "/v1/sweep", map[string]any{"circuit": "fpd", "points": -3, "wait": true}},
		{"negative suite ratio", "/v1/suite", map[string]any{"benchmarks": []string{"fpd"}, "ratios": []float64{-1, 0}, "wait": true}},
		{"zero suite ratio", "/v1/suite", map[string]any{"benchmarks": []string{"fpd"}, "ratios": []float64{1.5, 0}, "wait": true}},
	} {
		t.Run(c.name, func(t *testing.T) {
			resp, body := postJSON(t, ts.URL+c.path, c.body)
			if resp.StatusCode != http.StatusBadRequest {
				t.Fatalf("status %d: %v", resp.StatusCode, body)
			}
			if msg, _ := body["error"].(string); !strings.Contains(msg, "must be") {
				t.Fatalf("error %q does not name the range rule", msg)
			}
		})
	}
	if n := srv.Store().Len(); n != 0 {
		t.Fatalf("%d jobs submitted for rejected requests", n)
	}
}
