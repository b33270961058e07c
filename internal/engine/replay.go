// Job durability: the journal payload schema and the restart replay
// pass. Every POST that popsd accepts with a data directory appends an
// "accepted" journal record carrying the checked request body; the
// job's goroutine appends a terminal record when it finishes. On boot,
// Server.Replay folds the records per job ID, compacts the journal,
// and re-submits every job that was accepted but never finished,
// through the same jobRequest check and run as the POST handlers — so
// a 202 acknowledged before a crash is work the daemon still owes, and
// a client polling after the restart finds its job (under a fresh ID)
// completed with the result the live job would have returned. Replayed
// tasks are content-addressed like live ones: whatever the crashed run
// already persisted to the result store is served, only the genuinely
// unfinished tail recomputes.

package engine

import (
	"context"
	"encoding/json"
	"fmt"

	"repro/internal/store"
)

// Terminal journal payloads. The accepted payload is built per job by
// acceptedRecord; terminals carry no request (replay only needs to
// know the job finished).
const (
	journalDone   = `{"event":"done"}`
	journalFailed = `{"event":"failed"}`
)

// journalRecord is the JSON schema of one journal payload.
type journalRecord struct {
	Event string `json:"event"`
	// Kind and Request are present on "accepted" records: the job kind
	// and its validated request body, enough to re-submit it verbatim.
	Kind JobKind `json:"kind,omitempty"`
	// RequestID preserves the submitting request's trace ID across the
	// restart, so the replayed job joins the original client's trace.
	RequestID string          `json:"request_id,omitempty"`
	Request   json.RawMessage `json:"request,omitempty"`
}

// acceptedRecord renders the "accepted" journal payload of one job in
// one encoding pass: the request is encoded in place, in
// journalRecord's field order and under its tags, instead of being
// marshalled to a json.RawMessage that the outer encode would then
// re-validate and re-compact. The bytes are the same either way.
func acceptedRecord(kind JobKind, requestID string, req any) ([]byte, error) {
	return json.Marshal(struct {
		Event     string  `json:"event"`
		Kind      JobKind `json:"kind,omitempty"`
		RequestID string  `json:"request_id,omitempty"`
		Request   any     `json:"request,omitempty"`
	}{"accepted", kind, requestID, req})
}

// WithJournal installs the durable job journal: accepted jobs are
// logged before they start and replayable after a crash. popsd wires
// it when -data-dir is set.
func WithJournal(j *store.Journal) ServerOption {
	return func(s *Server) { s.store.journal = j }
}

// Replay re-submits the unfinished jobs of a previous run. entries is
// the journal's replayed record stream (OpenJournal's second return);
// records are folded per job ID, the journal is compacted to empty —
// job IDs restart per process, so stale records must not alias fresh
// ones — and every job whose last record is "accepted" is re-submitted
// with its original request body and trace ID. Returns the number of
// jobs re-submitted. Records that fail to decode or fail the POST
// check are logged and skipped, never fatal: one bad record must not
// block the daemon from starting.
func (s *Server) Replay(entries []store.JournalEntry) (int, error) {
	type pending struct {
		rec   journalRecord
		bytes []byte
	}
	unfinished := make(map[string]*pending)
	var order []string
	for _, e := range entries {
		var rec journalRecord
		if err := json.Unmarshal(e.Payload, &rec); err != nil {
			s.log.Warn("replay: skipping unreadable journal record",
				"job", e.ID, "error", err.Error())
			continue
		}
		switch rec.Event {
		case "accepted":
			if _, seen := unfinished[e.ID]; !seen {
				order = append(order, e.ID)
			}
			unfinished[e.ID] = &pending{rec: rec, bytes: e.Payload}
		case "done", "failed":
			delete(unfinished, e.ID)
		default:
			s.log.Warn("replay: skipping journal record with unknown event",
				"job", e.ID, "event", rec.Event)
		}
	}
	if s.store.journal != nil {
		if err := s.store.journal.Rewrite(nil); err != nil {
			return 0, fmt.Errorf("engine: compacting journal: %w", err)
		}
	}
	resubmitted := 0
	for _, id := range order {
		p, ok := unfinished[id]
		if !ok {
			continue
		}
		// The POST check, run again: a journaled request re-enters the
		// way it first entered, inline sources parsed under the caps.
		req, _, _ := newRequest(p.rec.Kind)
		var err error
		if req == nil {
			err = fmt.Errorf("engine: unknown job kind %q", p.rec.Kind)
		} else if err = json.Unmarshal(p.rec.Request, req); err == nil {
			err = req.check()
		}
		if err != nil {
			s.log.Warn("replay: skipping unreplayable job",
				"job", id, "kind", string(p.rec.Kind), "error", err.Error())
			continue
		}
		j, err := s.store.submit(p.rec.Kind, p.rec.RequestID, p.bytes, func(ctx context.Context) (any, error) {
			return req.run(ctx, s.engine)
		})
		if err != nil {
			return resubmitted, err
		}
		s.log.Info("replay: re-submitted unfinished job",
			"job", j.ID, "previous_job", id, "kind", string(p.rec.Kind),
			"request_id", p.rec.RequestID)
		resubmitted++
	}
	return resubmitted, nil
}
