package engine

import (
	"bufio"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/obs"
)

// scrapeProm fetches a /metrics exposition and parses it into the set
// of declared metric families (from # TYPE lines) and the flat sample
// map (name{labels} → value, via the registry's own snapshot keying
// convention for cross-checks).
func scrapeProm(t *testing.T, url string) (families map[string]string, body string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics: status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("content type %q", ct)
	}
	families = make(map[string]string)
	var b strings.Builder
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		b.WriteString(line)
		b.WriteByte('\n')
		if rest, ok := strings.CutPrefix(line, "# TYPE "); ok {
			fields := strings.Fields(rest)
			if len(fields) != 2 {
				t.Fatalf("malformed TYPE line %q", line)
			}
			families[fields[0]] = fields[1]
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return families, b.String()
}

// TestMetricsEndpointExposition drives one real optimize through the
// HTTP layer and checks the exposition: at least 12 distinct metric
// families, every expected engine family present, and counters that
// only move up between scrapes.
func TestMetricsEndpointExposition(t *testing.T) {
	srv, ts := newTestServer(t)
	resp, body := postJSON(t, ts.URL+"/v1/optimize",
		map[string]any{"circuit": "fpd", "ratio": 1.5, "wait": true})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("optimize status %d: %v", resp.StatusCode, body)
	}

	families, _ := scrapeProm(t, ts.URL+"/metrics")
	if len(families) < 12 {
		t.Fatalf("exposition declares %d metric families, want >= 12: %v", len(families), families)
	}
	want := map[string]string{
		"pops_http_requests_total":           "counter",
		"pops_http_request_duration_seconds": "histogram",
		"pops_jobs_total":                    "counter",
		"pops_tasks_total":                   "counter",
		"pops_task_duration_seconds":         "histogram",
		"pops_stage_duration_seconds":        "histogram",
		"pops_memo_hits_total":               "counter",
		"pops_memo_misses_total":             "counter",
		"pops_memo_evictions_total":          "counter",
		"pops_queue_depth":                   "gauge",
		"pops_busy_workers":                  "gauge",
		"pops_sizing_rounds_total":           "counter",
		"pops_sta_analyses_total":            "counter",
		"pops_store_hits_total":              "counter",
		"pops_store_misses_total":            "counter",
		"pops_store_writes_total":            "counter",
		"pops_store_errors_total":            "counter",
	}
	for name, kind := range want {
		if got, ok := families[name]; !ok {
			t.Errorf("family %s missing from exposition", name)
		} else if got != kind {
			t.Errorf("family %s declared %s, want %s", name, got, kind)
		}
	}

	// Counter monotonicity across scrapes: the snapshot view of every
	// counter may only grow (the scrapes themselves add http requests).
	before := srv.engine.MetricsSnapshot()
	if _, err := http.Get(ts.URL + "/healthz"); err != nil {
		t.Fatal(err)
	}
	after := srv.engine.MetricsSnapshot()
	for key, v := range before {
		if strings.Contains(key, "queue_depth") || strings.Contains(key, "busy_workers") {
			continue // gauges may move either way
		}
		if after[key] < v {
			t.Errorf("counter %s went backwards: %v -> %v", key, v, after[key])
		}
	}
	if k := `pops_http_requests_total{code="2xx"}`; after[k] <= before[k] {
		t.Errorf("2xx counter did not advance across requests: %v -> %v", before[k], after[k])
	}
}

// TestMetricsSnapshotMemoAndRounds submits the same unit twice through
// the engine and checks the instrument arithmetic: one computed task,
// one result-memo miss then one hit, at least one sizing round, and
// histogram count/sum identities in the snapshot.
func TestMetricsSnapshotMemoAndRounds(t *testing.T) {
	e := newEngine(t, 2)
	ctx := context.Background()
	req := OptimizeRequest{Circuit: "fpd", Ratio: 1.5}
	for i := 0; i < 2; i++ {
		if _, err := e.Optimize(ctx, req); err != nil {
			t.Fatal(err)
		}
	}
	snap := e.MetricsSnapshot()
	if got := snap["pops_tasks_total"]; got != 1 {
		t.Errorf("tasks computed = %v, want 1 (second submission must hit the memo)", got)
	}
	if got := snap[`pops_memo_misses_total{family="result"}`]; got != 1 {
		t.Errorf("result memo misses = %v, want 1", got)
	}
	if got := snap[`pops_memo_hits_total{family="result"}`]; got != 1 {
		t.Errorf("result memo hits = %v, want 1", got)
	}
	rounds := snap[`pops_sizing_rounds_total{structural="false"}`] +
		snap[`pops_sizing_rounds_total{structural="true"}`]
	if rounds < 1 {
		t.Errorf("sizing rounds = %v, want >= 1", rounds)
	}
	if full := snap[`pops_sta_analyses_total{mode="full"}`]; full < 1 {
		t.Errorf("full STA analyses = %v, want >= 1", full)
	}
	if got := snap["pops_task_duration_seconds_count"]; got != 1 {
		t.Errorf("task duration count = %v, want 1", got)
	}
	if snap["pops_task_duration_seconds_sum"] <= 0 {
		t.Errorf("task duration sum = %v, want > 0", snap["pops_task_duration_seconds_sum"])
	}
	if got := snap[`pops_stage_duration_seconds_count{stage="rounds"}`]; got != 1 {
		t.Errorf("rounds stage count = %v, want 1", got)
	}
}

// TestSweepRecordsBoundsStage checks that a sweep job, which solves its
// bounds once for every point, records that solve in the bounds stage
// histogram exactly once — as an optimize task records its own.
func TestSweepRecordsBoundsStage(t *testing.T) {
	e := newEngine(t, 2)
	if _, err := e.Sweep(context.Background(), SweepRequest{Circuit: "fpd", Points: 3}); err != nil {
		t.Fatal(err)
	}
	snap := e.MetricsSnapshot()
	if got := snap[`pops_stage_duration_seconds_count{stage="bounds"}`]; got != 1 {
		t.Errorf("bounds stage count after one sweep = %v, want 1", got)
	}
	if got := snap[`pops_stage_duration_seconds_count{stage="rounds"}`]; got != 3 {
		t.Errorf("rounds stage count after a 3-point sweep = %v, want 3", got)
	}
}

// TestRequestIDAssignedAndEchoed checks the trace spine: a response
// without a client ID carries a fresh valid one; a well-formed client
// ID is adopted verbatim; a malformed one is replaced.
func TestRequestIDAssignedAndEchoed(t *testing.T) {
	_, ts := newTestServer(t)

	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if rid := resp.Header.Get("X-Request-ID"); !obs.ValidRequestID(rid) {
		t.Fatalf("generated request ID %q is not valid", rid)
	}

	for _, tc := range []struct {
		sent  string
		adopt bool
	}{
		{"client-trace-42", true},
		{"bad id with spaces", false},
		{strings.Repeat("x", 300), false},
	} {
		req, err := http.NewRequest(http.MethodGet, ts.URL+"/healthz", nil)
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("X-Request-ID", tc.sent)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		got := resp.Header.Get("X-Request-ID")
		if tc.adopt && got != tc.sent {
			t.Errorf("sent valid ID %q, response echoed %q", tc.sent, got)
		}
		if !tc.adopt && (got == tc.sent || !obs.ValidRequestID(got)) {
			t.Errorf("sent invalid ID %q, response carried %q", tc.sent, got)
		}
	}
}

// TestRequestIDReachesJobRecord submits an async job under a client
// request ID and retrieves the ID from the job record — the
// end-to-end join of response header, job store, and GET /v1/jobs/{id}.
func TestRequestIDReachesJobRecord(t *testing.T) {
	srv, ts := newTestServer(t)
	body := strings.NewReader(`{"circuit":"fpd","ratio":1.5}`)
	req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/optimize", body)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("X-Request-ID", "trace-e2e-007")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	var snap Job
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if resp.Header.Get("X-Request-ID") != "trace-e2e-007" {
		t.Fatalf("response header ID %q", resp.Header.Get("X-Request-ID"))
	}
	if snap.RequestID != "trace-e2e-007" {
		t.Fatalf("submit snapshot request_id %q", snap.RequestID)
	}
	done, ok := srv.Store().Await(snap.ID)
	if !ok {
		t.Fatalf("job %s vanished", snap.ID)
	}
	if done.RequestID != "trace-e2e-007" {
		t.Fatalf("finished job request_id %q", done.RequestID)
	}
	_, jobBody := getJSON(t, ts.URL+"/v1/jobs/"+snap.ID)
	if jobBody["request_id"] != "trace-e2e-007" {
		t.Fatalf("GET /v1/jobs/{id} request_id %v", jobBody["request_id"])
	}
}

// TestHealthzEnriched table-checks the status document: build info,
// uptime, and pool facts must all be present with sane values.
func TestHealthzEnriched(t *testing.T) {
	_, ts := newTestServer(t)
	resp, body := getJSON(t, ts.URL+"/healthz")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	for _, tc := range []struct {
		key string
		ok  func(v any) bool
	}{
		{"status", func(v any) bool { return v == "ok" }},
		{"version", func(v any) bool { s, ok := v.(string); return ok && s != "" }},
		{"revision", func(v any) bool { s, ok := v.(string); return ok && s != "" }},
		{"goVersion", func(v any) bool { s, ok := v.(string); return ok && strings.HasPrefix(s, "go") }},
		{"uptimeSeconds", func(v any) bool { f, ok := v.(float64); return ok && f >= 0 }},
		{"workers", func(v any) bool { f, ok := v.(float64); return ok && f == 2 }},
		{"gomaxprocs", func(v any) bool { f, ok := v.(float64); return ok && f >= 1 }},
		{"process", func(v any) bool { s, ok := v.(string); return ok && s != "" }},
		{"jobs", func(v any) bool { f, ok := v.(float64); return ok && f >= 0 }},
	} {
		v, present := body[tc.key]
		if !present {
			t.Errorf("healthz missing %q: %v", tc.key, body)
			continue
		}
		if !tc.ok(v) {
			t.Errorf("healthz %q = %v (unexpected value)", tc.key, v)
		}
	}
}

// syncWriter is a mutex-guarded log sink: the access-log line is
// written after the response is committed, so the test must not read
// the buffer while the server goroutine may still be appending.
type syncWriter struct {
	mu sync.Mutex
	b  strings.Builder
}

func (w *syncWriter) Write(p []byte) (int, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.b.Write(p)
}

func (w *syncWriter) String() string {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.b.String()
}

// TestMetricsServerOptionLogging checks WithLogger end to end: access
// and job lines land on the installed handler with the request ID.
func TestMetricsServerOptionLogging(t *testing.T) {
	logBuf := &syncWriter{}
	logger, err := obs.NewLogger(logBuf, "info", "text")
	if err != nil {
		t.Fatal(err)
	}
	e := newEngine(t, 2)
	srv := NewServer(context.Background(), e, WithLogger(logger))
	ts := httptest.NewServer(srv)
	defer ts.Close()
	defer srv.Shutdown()

	body := strings.NewReader(`{"circuit":"fpd","ratio":1.5,"wait":true}`)
	req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/optimize", body)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("X-Request-ID", "log-trace-1")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	// The access line lands after the response is committed; poll
	// briefly instead of racing the handler goroutine.
	want := []string{
		"msg=request", "path=/v1/optimize", "request_id=log-trace-1",
		"msg=\"job submitted\"", "circuit=fpd", "msg=\"job done\"",
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		logs := logBuf.String()
		missing := ""
		for _, w := range want {
			if !strings.Contains(logs, w) {
				missing = w
				break
			}
		}
		if missing == "" {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("log output missing %q:\n%s", missing, logs)
		}
		time.Sleep(10 * time.Millisecond)
	}
}
