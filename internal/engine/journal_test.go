package engine

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"path/filepath"
	"testing"

	"repro/internal/iscas"
	"repro/internal/store"
)

// twoPassAcceptedRecord is the historical two-pass encoding of an
// "accepted" record — the request marshalled on its own, then wrapped
// as a json.RawMessage — kept as the byte reference for acceptedRecord.
func twoPassAcceptedRecord(kind JobKind, requestID string, req any) ([]byte, error) {
	raw, err := json.Marshal(req)
	if err != nil {
		return nil, err
	}
	return json.Marshal(journalRecord{Event: "accepted", Kind: kind, RequestID: requestID, Request: raw})
}

// TestAcceptedRecordBytes pins the one-pass journal encoding to the
// two-pass bytes on bodies whose bench source and request ID carry the
// characters encoding/json escapes (<, &, ", U+2028), both as values
// and as the pointers dispatch journals, and checks that Server.Replay
// still re-submits every record with its request ID.
func TestAcceptedRecordBytes(t *testing.T) {
	const odd = "<a & \"b\" \u2028 c>"
	src := "# c17\n# " + odd + "\n" + iscas.C17Bench()
	if _, err := ParseBench(src); err != nil {
		t.Fatalf("test source rejected: %v", err)
	}
	rid := "req-" + odd
	bodies := []struct {
		kind JobKind
		req  any
	}{
		{JobOptimize, OptimizeRequest{Bench: src, Ratio: 1.5}},
		{JobSweep, SweepRequest{Bench: src, Points: 3}},
		{JobSuite, SuiteRequest{Benches: []string{src}, Ratios: []float64{2}}},
		{JobOptimize, &OptimizeRequest{Bench: src, Ratio: 1.5}},
		{JobSweep, &SweepRequest{Bench: src, Points: 3}},
		{JobSuite, &SuiteRequest{Benches: []string{src}, Ratios: []float64{2}}},
	}
	path := filepath.Join(t.TempDir(), "jobs.journal")
	j, _, err := store.OpenJournal(path, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i, b := range bodies {
		got, err := acceptedRecord(b.kind, rid, b.req)
		if err != nil {
			t.Fatal(err)
		}
		want, err := twoPassAcceptedRecord(b.kind, rid, b.req)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s: one-pass record differs\n got: %s\nwant: %s", b.kind, got, want)
		}
		if err := j.Append(fmt.Sprintf("job-%06d", i+1), got); err != nil {
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
	srv := NewServer(context.Background(), newEngine(t, 2), WithJournal(j2))
	t.Cleanup(func() { srv.Shutdown(); j2.Close() })
	n, err := srv.Replay(entries)
	if err != nil {
		t.Fatal(err)
	}
	if n != len(bodies) {
		t.Fatalf("replayed %d jobs, want %d", n, len(bodies))
	}
	srv.store.Wait()
	for _, job := range srv.store.List() {
		if job.Status != JobDone {
			t.Errorf("replayed %s job %s: status %s (%s)", job.Kind, job.ID, job.Status, job.Error)
		}
		if job.RequestID != rid {
			t.Errorf("replayed %s job carries request_id %q, want %q", job.Kind, job.RequestID, rid)
		}
	}
}
