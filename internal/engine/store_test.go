package engine

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/iscas"
	"repro/internal/store"
)

// goldenCell mirrors the core golden harness's cell shape
// (internal/core/golden_test.go): float64 JSON round-trips are
// bit-exact, so == on decoded cells is a bit-level comparison.
type goldenCell struct {
	Circuit string  `json:"circuit"`
	Ratio   float64 `json:"ratio"`
	Tc      float64 `json:"tc"`

	Delay       float64 `json:"delay"`
	Area        float64 `json:"area"`
	Feasible    bool    `json:"feasible"`
	Rounds      int     `json:"rounds"`
	Buffers     int     `json:"buffers"`
	NorRewrites int     `json:"norRewrites"`

	LeakDelay     float64 `json:"leakDelay"`
	Promoted      int     `json:"promoted"`
	StaticAfterUW float64 `json:"staticAfterUW"`
	TotalAfterUW  float64 `json:"totalAfterUW"`
}

const sessionGoldenPath = "../core/testdata/session_golden.json"

func loadGoldenCells(t *testing.T) map[string]goldenCell {
	t.Helper()
	data, err := os.ReadFile(sessionGoldenPath)
	if err != nil {
		t.Fatalf("missing session golden: %v", err)
	}
	var cells []goldenCell
	if err := json.Unmarshal(data, &cells); err != nil {
		t.Fatal(err)
	}
	byKey := make(map[string]goldenCell, len(cells))
	for _, c := range cells {
		b, _ := json.Marshal(c.Ratio)
		byKey[c.Circuit+"@"+string(b)] = c
	}
	return byKey
}

func newStoreEngine(t *testing.T, results store.Store) *Engine {
	t.Helper()
	e, err := New(Config{Workers: 4, Results: results})
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// runGoldenCell drives one (circuit, ratio) golden cell through an
// engine — the plain protocol and the leakage-aware protocol — and
// returns the cell plus the wire-form JSON of both results.
func runGoldenCell(t *testing.T, e *Engine, name string, ratio float64) (goldenCell, []byte) {
	t.Helper()
	plain, err := e.Optimize(context.Background(), OptimizeRequest{Circuit: name, Ratio: ratio})
	if err != nil {
		t.Fatalf("%s@%g: %v", name, ratio, err)
	}
	leak, err := e.Optimize(context.Background(), OptimizeRequest{Circuit: name, Ratio: ratio, Leakage: true})
	if err != nil {
		t.Fatalf("%s@%g leakage: %v", name, ratio, err)
	}
	cell := goldenCell{
		Circuit:       name,
		Ratio:         ratio,
		Tc:            plain.Tc,
		Delay:         plain.Outcome.Delay,
		Area:          plain.Outcome.Area,
		Feasible:      plain.Outcome.Feasible,
		Rounds:        plain.Outcome.Rounds,
		Buffers:       plain.Outcome.Buffers,
		NorRewrites:   plain.Outcome.NorRewrites,
		LeakDelay:     leak.Outcome.Delay,
		Promoted:      leak.Outcome.Leakage.Promoted,
		StaticAfterUW: leak.Outcome.Leakage.StaticAfterUW,
		TotalAfterUW:  leak.Outcome.Leakage.TotalAfterUW,
	}
	wire, err := json.Marshal([]OptimizeWire{WireOptimize(plain), WireOptimize(leak)})
	if err != nil {
		t.Fatal(err)
	}
	return cell, wire
}

// TestStoreEquivalenceGolden is the equivalence property of the
// durable tier: an engine writing through a disk store produces
// byte-identical outcomes to the memory-only golden record for every
// suite benchmark × constraint ratio — and a second engine warm-started
// over the same directory serves every cell purely from disk (zero
// computed tasks) with identical wire-form bytes. With -short only the
// four fastest benchmarks are checked.
func TestStoreEquivalenceGolden(t *testing.T) {
	golden := loadGoldenCells(t)
	names := []string{}
	for _, s := range iscas.Suite() {
		names = append(names, s.Name)
	}
	if testing.Short() {
		names = []string{"fpd", "c432", "c880", "c1355"}
	}
	ratios := []float64{1.2, 1.5, 2.0}

	dir := t.TempDir()
	disk, err := store.OpenDisk(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	cold := newStoreEngine(t, disk)
	coldWire := make(map[string][]byte)
	for _, name := range names {
		for _, ratio := range ratios {
			cell, wire := runGoldenCell(t, cold, name, ratio)
			b, _ := json.Marshal(ratio)
			key := name + "@" + string(b)
			want, ok := golden[key]
			if !ok {
				t.Fatalf("%s: no golden cell recorded", key)
			}
			if cell != want {
				t.Errorf("%s with disk tier diverged from golden:\n got %+v\nwant %+v", key, cell, want)
			}
			coldWire[key] = wire
		}
	}
	if err := disk.Close(); err != nil {
		t.Fatal(err)
	}

	// Warm start: a fresh engine over the same directory must serve
	// every cell from disk — no computation, byte-identical wire form.
	warmDisk, err := store.OpenDisk(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer warmDisk.Close()
	warm := newStoreEngine(t, warmDisk)
	for _, name := range names {
		for _, ratio := range ratios {
			_, wire := runGoldenCell(t, warm, name, ratio)
			b, _ := json.Marshal(ratio)
			key := name + "@" + string(b)
			if string(wire) != string(coldWire[key]) {
				t.Errorf("%s: warm-start wire form differs from cold run:\n got %s\nwant %s",
					key, wire, coldWire[key])
			}
		}
	}
	snap := warm.MetricsSnapshot()
	if got := snap["pops_tasks_total"]; got != 0 {
		t.Errorf("warm start computed %v tasks, want 0 (all cells served from disk)", got)
	}
	wantHits := float64(len(names) * len(ratios) * 2)
	if got := snap["pops_store_hits_total"]; got != wantHits {
		t.Errorf("warm start store hits = %v, want %v", got, wantHits)
	}
	if got := snap["pops_store_errors_total"]; got != 0 {
		t.Errorf("warm start store errors = %v, want 0", got)
	}
}

// TestStoreMetricsAccounting pins the counter semantics of the tier:
// a cold task is a store miss plus a write; the same task on a fresh
// engine sharing the store is a hit and computes nothing.
func TestStoreMetricsAccounting(t *testing.T) {
	shared, err := store.OpenDisk(t.TempDir(), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer shared.Close()

	cold := newStoreEngine(t, shared)
	if _, err := cold.Optimize(context.Background(), OptimizeRequest{Circuit: "fpd", Ratio: 1.5}); err != nil {
		t.Fatal(err)
	}
	snap := cold.MetricsSnapshot()
	if snap["pops_store_misses_total"] != 1 || snap["pops_store_writes_total"] != 1 {
		t.Errorf("cold run: misses=%v writes=%v, want 1/1",
			snap["pops_store_misses_total"], snap["pops_store_writes_total"])
	}
	if snap["pops_tasks_total"] != 1 {
		t.Errorf("cold run computed %v tasks, want 1", snap["pops_tasks_total"])
	}
	// Same engine again: served by the in-memory memo, no store traffic.
	if _, err := cold.Optimize(context.Background(), OptimizeRequest{Circuit: "fpd", Ratio: 1.5}); err != nil {
		t.Fatal(err)
	}
	snap = cold.MetricsSnapshot()
	if snap["pops_store_hits_total"] != 0 || snap["pops_store_misses_total"] != 1 {
		t.Errorf("memo hit touched the store: hits=%v misses=%v",
			snap["pops_store_hits_total"], snap["pops_store_misses_total"])
	}

	warm := newStoreEngine(t, shared)
	if _, err := warm.Optimize(context.Background(), OptimizeRequest{Circuit: "fpd", Ratio: 1.5}); err != nil {
		t.Fatal(err)
	}
	snap = warm.MetricsSnapshot()
	if snap["pops_store_hits_total"] != 1 {
		t.Errorf("warm run store hits = %v, want 1", snap["pops_store_hits_total"])
	}
	if snap["pops_tasks_total"] != 0 {
		t.Errorf("warm run computed %v tasks, want 0", snap["pops_tasks_total"])
	}
}

// TestStoredResultRoundTrip pins the persisted form: decode(encode(r))
// reproduces every field a consumer reads, including the synthetic
// path's stage count and sizes.
func TestStoredResultRoundTrip(t *testing.T) {
	e := newStoreEngine(t, nil)
	res, err := e.Optimize(context.Background(), OptimizeRequest{Circuit: "c432", Ratio: 1.2, Leakage: true})
	if err != nil {
		t.Fatal(err)
	}
	data, err := encodeStoredResult(res)
	if err != nil {
		t.Fatal(err)
	}
	back, err := decodeStoredResult(data)
	if err != nil {
		t.Fatal(err)
	}
	gotWire, _ := json.Marshal(WireOptimize(back))
	wantWire, _ := json.Marshal(WireOptimize(res))
	if string(gotWire) != string(wantWire) {
		t.Errorf("wire form diverged across persistence:\n got %s\nwant %s", gotWire, wantWire)
	}
	if len(back.Outcome.PathOutcomes) != len(res.Outcome.PathOutcomes) {
		t.Fatalf("path count %d, want %d", len(back.Outcome.PathOutcomes), len(res.Outcome.PathOutcomes))
	}
	for i, po := range res.Outcome.PathOutcomes {
		bp := back.Outcome.PathOutcomes[i]
		if bp.Path.Name != po.Path.Name || bp.Path.Len() != po.Path.Len() {
			t.Errorf("path %d: (%q, %d stages), want (%q, %d)",
				i, bp.Path.Name, bp.Path.Len(), po.Path.Name, po.Path.Len())
		}
		if !reflect.DeepEqual(bp.Path.Sizes(), po.Path.Sizes()) {
			t.Errorf("path %d sizes diverged:\n got %v\nwant %v", i, bp.Path.Sizes(), po.Path.Sizes())
		}
	}
	if !reflect.DeepEqual(back.Outcome.Leakage, res.Outcome.Leakage) {
		t.Errorf("leakage result diverged:\n got %+v\nwant %+v", back.Outcome.Leakage, res.Outcome.Leakage)
	}

	// Version drift is a typed refusal, not a misread.
	var v map[string]any
	if err := json.Unmarshal(data, &v); err != nil {
		t.Fatal(err)
	}
	v["v"] = storedVersion + 1
	drifted, _ := json.Marshal(v)
	if _, err := decodeStoredResult(drifted); err == nil {
		t.Error("decodeStoredResult accepted a future format version")
	}
}

// newJournaledServer builds a Server wired to a journal in dir.
func newJournaledServer(t *testing.T, dir string) (*Server, *httptest.Server, *store.Journal) {
	t.Helper()
	j, _, err := store.OpenJournal(filepath.Join(dir, "jobs.journal"), nil)
	if err != nil {
		t.Fatal(err)
	}
	e := newStoreEngine(t, nil)
	srv := NewServer(context.Background(), e, WithJournal(j))
	ts := httptest.NewServer(srv)
	t.Cleanup(func() {
		ts.Close()
		srv.Shutdown()
		j.Close()
	})
	return srv, ts, j
}

// TestJournalLifecycle pins the durability protocol of one job: an
// accepted record lands before the job runs, a terminal record after,
// and a journal reopened afterwards folds to no unfinished work.
func TestJournalLifecycle(t *testing.T) {
	dir := t.TempDir()
	srv, ts, j := newJournaledServer(t, dir)
	resp, _ := postJSON(t, ts.URL+"/v1/optimize",
		map[string]any{"circuit": "fpd", "ratio": 1.5, "wait": true})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("optimize status %d", resp.StatusCode)
	}
	srv.store.Wait()
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	re, entries, err := store.OpenJournal(filepath.Join(dir, "jobs.journal"), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if len(entries) != 2 {
		t.Fatalf("journal has %d records, want accepted+done", len(entries))
	}
	var accepted journalRecord
	if err := json.Unmarshal(entries[0].Payload, &accepted); err != nil {
		t.Fatal(err)
	}
	if accepted.Event != "accepted" || accepted.Kind != JobOptimize {
		t.Fatalf("first record = %+v, want accepted optimize", accepted)
	}
	var req OptimizeRequest
	if err := json.Unmarshal(accepted.Request, &req); err != nil {
		t.Fatal(err)
	}
	if req.Circuit != "fpd" || req.Ratio != 1.5 {
		t.Fatalf("journaled request = %+v, want fpd@1.5", req)
	}
	var terminal journalRecord
	if err := json.Unmarshal(entries[1].Payload, &terminal); err != nil {
		t.Fatal(err)
	}
	if terminal.Event != "done" || entries[1].ID != entries[0].ID {
		t.Fatalf("second record = (%s, %+v), want done for %s", entries[1].ID, terminal, entries[0].ID)
	}
}

// TestReplayResubmitsUnfinishedJobs simulates a crash: a journal
// holding one finished and one unfinished job is replayed into a fresh
// server, which must re-run exactly the unfinished one and compact the
// journal so a second replay owes nothing.
func TestReplayResubmitsUnfinishedJobs(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "jobs.journal")
	j, _, err := store.OpenJournal(path, nil)
	if err != nil {
		t.Fatal(err)
	}
	finished, err := acceptedRecord(JobOptimize, "req-finished", OptimizeRequest{Circuit: "fpd", Ratio: 1.5})
	if err != nil {
		t.Fatal(err)
	}
	unfinished, err := acceptedRecord(JobOptimize, "req-crashed", OptimizeRequest{Circuit: "fpd", Ratio: 1.2})
	if err != nil {
		t.Fatal(err)
	}
	for _, rec := range []struct {
		id      string
		payload []byte
	}{
		{"job-000001", finished},
		{"job-000002", unfinished},
		{"job-000001", []byte(journalDone)},
		// Unreplayable records must be skipped, never fatal.
		{"job-000003", []byte(`{"event":"accepted","kind":"no-such-kind"}`)},
		{"job-000004", []byte(`not json at all`)},
	} {
		if err := j.Append(rec.id, rec.payload); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	j2, entries, err := store.OpenJournal(path, nil)
	if err != nil {
		t.Fatal(err)
	}
	e := newStoreEngine(t, nil)
	srv := NewServer(context.Background(), e, WithJournal(j2))
	t.Cleanup(func() { srv.Shutdown(); j2.Close() })
	n, err := srv.Replay(entries)
	if err != nil {
		t.Fatal(err)
	}
	// Only job-000002 (accepted, no terminal record) is owed: job-000001
	// finished, job-000003/4 are unreplayable and skipped.
	if n != 1 {
		t.Fatalf("replayed %d jobs, want 1", n)
	}
	srv.store.Wait()
	for _, job := range srv.store.List() {
		if job.Kind == JobOptimize {
			if job.Status != JobDone {
				t.Errorf("replayed job %s: status %s (%s)", job.ID, job.Status, job.Error)
			}
			if job.RequestID != "req-crashed" {
				t.Errorf("replayed job %s carries request_id %q, want req-crashed", job.ID, job.RequestID)
			}
		}
	}

	// The journal was compacted and re-journaled: after the replayed
	// jobs finish it folds to no unfinished work.
	if err := j2.Close(); err != nil {
		t.Fatal(err)
	}
	_, entries, err = store.OpenJournal(path, nil)
	if err != nil {
		t.Fatal(err)
	}
	open := map[string]bool{}
	for _, e := range entries {
		var rec journalRecord
		if err := json.Unmarshal(e.Payload, &rec); err != nil {
			t.Fatal(err)
		}
		if rec.Event == "accepted" {
			open[e.ID] = true
		} else {
			delete(open, e.ID)
		}
	}
	if len(open) != 0 {
		t.Errorf("journal still owes jobs after replay completed: %v", open)
	}
}

// TestReplayMatchesLiveResult posts one job of each kind to a
// journaled server, then replays the journal's accepted records into a
// fresh server over a fresh engine, as after a crash. Every replayed
// job's result JSON must equal the live job's byte for byte.
func TestReplayMatchesLiveResult(t *testing.T) {
	dir := t.TempDir()
	srv, ts, j := newJournaledServer(t, dir)
	posts := []struct {
		path string
		body map[string]any
	}{
		{"/v1/optimize", map[string]any{"circuit": "fpd", "ratio": 1.5}},
		{"/v1/optimize", map[string]any{"bench": iscas.C17Bench(), "tc": 60, "leakage": true}},
		{"/v1/sweep", map[string]any{"circuit": "c17", "points": 3}},
		{"/v1/suite", map[string]any{"benchmarks": []string{"c17"},
			"benches": []string{iscas.C17Bench()}, "ratios": []float64{1.3, 2}}},
	}
	for _, p := range posts {
		p.body["wait"] = true
		if resp, out := postJSON(t, ts.URL+p.path, p.body); resp.StatusCode != http.StatusOK {
			t.Fatalf("POST %s: status %d %v", p.path, resp.StatusCode, out)
		}
	}
	srv.store.Wait()
	results := func(s *Server) [][]byte {
		var out [][]byte
		for _, job := range s.store.List() {
			if job.Status != JobDone {
				t.Fatalf("%s job %s: status %s (%s)", job.Kind, job.ID, job.Status, job.Error)
			}
			b, err := json.Marshal(job.Result)
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, b)
		}
		return out
	}
	live := results(srv)
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	_, entries, err := store.OpenJournal(filepath.Join(dir, "jobs.journal"), nil)
	if err != nil {
		t.Fatal(err)
	}
	var accepted []store.JournalEntry
	for _, e := range entries {
		var rec journalRecord
		if err := json.Unmarshal(e.Payload, &rec); err != nil {
			t.Fatal(err)
		}
		if rec.Event == "accepted" {
			accepted = append(accepted, e)
		}
	}
	replayed := NewServer(context.Background(), newStoreEngine(t, nil))
	t.Cleanup(replayed.Shutdown)
	n, err := replayed.Replay(accepted)
	if err != nil {
		t.Fatal(err)
	}
	if n != len(posts) {
		t.Fatalf("replayed %d jobs, want %d", n, len(posts))
	}
	replayed.store.Wait()
	for i, got := range results(replayed) {
		if !bytes.Equal(got, live[i]) {
			t.Errorf("%s: replayed result differs from the live one\n got: %s\nwant: %s", posts[i].path, got, live[i])
		}
	}
}
