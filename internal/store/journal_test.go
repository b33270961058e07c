package store

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

func entryStrings(entries []JournalEntry) []string {
	out := make([]string, len(entries))
	for i, e := range entries {
		out[i] = e.ID + "=" + string(e.Payload)
	}
	return out
}

func TestJournalAppendAndReplay(t *testing.T) {
	path := filepath.Join(t.TempDir(), "jobs.journal")
	j, entries, err := OpenJournal(path, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 0 {
		t.Fatalf("fresh journal replayed %d entries", len(entries))
	}
	want := []struct{ id, payload string }{
		{"job-000001", `{"event":"accepted"}`},
		{"job-000002", `{"event":"accepted"}`},
		{"job-000001", `{"event":"done"}`},
	}
	for _, w := range want {
		if err := j.Append(w.id, []byte(w.payload)); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	if err := j.Append("job-000003", nil); !errors.Is(err, ErrClosed) {
		t.Fatalf("Append after Close = %v, want ErrClosed", err)
	}

	re, entries, err := OpenJournal(path, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if len(entries) != len(want) {
		t.Fatalf("replayed %d entries, want %d", len(entries), len(want))
	}
	for i, w := range want {
		if entries[i].ID != w.id || string(entries[i].Payload) != w.payload {
			t.Fatalf("entry %d = (%q, %q), want (%q, %q)",
				i, entries[i].ID, entries[i].Payload, w.id, w.payload)
		}
	}
	// Appends after a replayed open extend the log, not overwrite it.
	if err := re.Append("job-000003", []byte("x")); err != nil {
		t.Fatal(err)
	}
	re.Close()
	_, entries, err = OpenJournal(path, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != len(want)+1 {
		t.Fatalf("after append+reopen replayed %d entries, want %d", len(entries), len(want)+1)
	}
}

func TestJournalTruncatesCorruptTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "jobs.journal")
	j, _, err := OpenJournal(path, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 3; i++ {
		if err := j.Append(fmt.Sprintf("job-%06d", i), []byte("accepted")); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	// Simulate a crash mid-append: chop bytes off the final record.
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data[:len(data)-7], 0o644); err != nil {
		t.Fatal(err)
	}

	warns := 0
	re, entries, err := OpenJournal(path, newWarnCounter(&warns))
	if err != nil {
		t.Fatalf("open over corrupt tail: %v", err)
	}
	if len(entries) != 2 {
		t.Fatalf("replayed %v, want the 2 intact records", entryStrings(entries))
	}
	if warns != 1 {
		t.Fatalf("logged %d warnings, want 1", warns)
	}
	// The file healed: a fresh append then a reopen sees 3 clean records.
	if err := re.Append("job-000004", []byte("accepted")); err != nil {
		t.Fatal(err)
	}
	re.Close()
	_, entries, err = OpenJournal(path, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 3 {
		t.Fatalf("after heal+append replayed %v, want 3 records", entryStrings(entries))
	}
	if entries[2].ID != "job-000004" {
		t.Fatalf("healed tail record = %q, want job-000004", entries[2].ID)
	}
}

func TestJournalRewriteCompacts(t *testing.T) {
	path := filepath.Join(t.TempDir(), "jobs.journal")
	j, _, err := OpenJournal(path, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 5; i++ {
		if err := j.Append(fmt.Sprintf("job-%06d", i), []byte("accepted")); err != nil {
			t.Fatal(err)
		}
	}
	keep := []JournalEntry{
		{ID: "job-000002", Payload: []byte("accepted")},
		{ID: "job-000005", Payload: []byte("accepted")},
	}
	if err := j.Rewrite(keep); err != nil {
		t.Fatal(err)
	}
	// The rewritten journal accepts further appends.
	if err := j.Append("job-000006", []byte("accepted")); err != nil {
		t.Fatal(err)
	}
	j.Close()

	_, entries, err := OpenJournal(path, nil)
	if err != nil {
		t.Fatal(err)
	}
	got := entryStrings(entries)
	want := []string{"job-000002=accepted", "job-000005=accepted", "job-000006=accepted"}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("compacted journal = %v, want %v", got, want)
	}
}

func TestJournalRejectsBadID(t *testing.T) {
	j, _, err := OpenJournal(filepath.Join(t.TempDir(), "j"), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	var bk *BadKeyError
	if err := j.Append(".bad id", nil); !errors.As(err, &bk) {
		t.Fatalf("Append with bad ID = %v, want *BadKeyError", err)
	}
}
