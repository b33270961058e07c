// The append-only job journal: a single file of consecutive records
// (the same checksummed codec as the disk backend), one per job event.
// popsd appends an "accepted" record before a job starts and a
// terminal record when it finishes; on restart it replays the stream,
// folds the events per job ID, and re-submits jobs that never reached
// a terminal record. A corrupt tail — the half-written record of a
// crash mid-append — is truncated at the last good record with a
// logged warning, so the journal heals itself instead of blocking
// startup.

package store

import (
	"bytes"
	"errors"
	"io"
	"log/slog"
	"os"
	"path/filepath"
	"sync"
)

// JournalEntry is one replayed journal record: the job ID it was
// appended under and its payload bytes (popsd stores a small JSON
// event there).
type JournalEntry struct {
	ID      string
	Payload []byte
}

// Journal is an append-only record log backed by one file. Appends are
// serialized and synced, so an acknowledged append survives SIGKILL.
type Journal struct {
	path string
	log  *slog.Logger

	mu     sync.Mutex
	f      *os.File
	closed bool
}

// OpenJournal opens (creating if needed) the journal at path and
// replays its existing records in append order. A corrupt tail is
// truncated at the last good record with a logged warning — the only
// record a crash can mangle is the final, partially written one, and
// its job never got an acknowledgement. log may be nil (discard).
func OpenJournal(path string, log *slog.Logger) (*Journal, []JournalEntry, error) {
	if log == nil {
		log = slog.New(slog.DiscardHandler)
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return nil, nil, err
	}
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, nil, err
	}
	entries, good, rerr := replay(f)
	if rerr != nil {
		var ce *CorruptError
		if !errors.As(rerr, &ce) {
			f.Close()
			return nil, nil, rerr
		}
		log.Warn("store: truncating corrupt journal tail",
			"path", path, "good_bytes", good, "error", rerr.Error())
		if err := f.Truncate(good); err != nil {
			f.Close()
			return nil, nil, err
		}
	}
	if _, err := f.Seek(0, io.SeekEnd); err != nil {
		f.Close()
		return nil, nil, err
	}
	return &Journal{path: path, log: log, f: f}, entries, nil
}

// replay reads records from the head of f, returning the entries read,
// the byte offset after the last good record, and the *CorruptError
// that stopped the scan (nil on a clean end of file).
func replay(f *os.File) (entries []JournalEntry, good int64, err error) {
	data, err := io.ReadAll(f)
	if err != nil {
		return nil, 0, err
	}
	r := bytes.NewReader(data)
	for {
		before := int64(len(data)) - int64(r.Len())
		key, value, err := ReadRecord(r)
		if err == io.EOF {
			return entries, before, nil
		}
		if err != nil {
			return entries, before, err
		}
		entries = append(entries, JournalEntry{ID: key, Payload: value})
	}
}

// Append writes one record and syncs it to stable storage before
// returning; an append that returned nil survives SIGKILL.
func (j *Journal) Append(id string, payload []byte) error {
	rec, err := EncodeRecord(id, payload)
	if err != nil {
		return err
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closed {
		return ErrClosed
	}
	if _, err := j.f.Write(rec); err != nil {
		return err
	}
	return j.f.Sync()
}

// Rewrite atomically replaces the journal's contents with entries
// (compaction after replay: terminal records of long-dead jobs need
// not be re-parsed at every boot). The replacement lands by rename,
// so a crash mid-rewrite leaves the previous journal intact.
func (j *Journal) Rewrite(entries []JournalEntry) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closed {
		return ErrClosed
	}
	tmp, err := os.CreateTemp(filepath.Dir(j.path), ".tmp-journal-*")
	if err != nil {
		return err
	}
	tmpName := tmp.Name()
	fail := func(err error) error {
		tmp.Close()
		os.Remove(tmpName)
		return err
	}
	for _, e := range entries {
		rec, err := EncodeRecord(e.ID, e.Payload)
		if err != nil {
			return fail(err)
		}
		if _, err := tmp.Write(rec); err != nil {
			return fail(err)
		}
	}
	if err := tmp.Sync(); err != nil {
		return fail(err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmpName)
		return err
	}
	if err := os.Rename(tmpName, j.path); err != nil {
		os.Remove(tmpName)
		return err
	}
	old := j.f
	f, err := os.OpenFile(j.path, os.O_RDWR|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	j.f = f
	old.Close()
	return nil
}

// Close syncs and closes the journal file. Appends after Close return
// ErrClosed.
func (j *Journal) Close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closed {
		return nil
	}
	j.closed = true
	if err := j.f.Sync(); err != nil {
		j.f.Close()
		return err
	}
	return j.f.Close()
}
