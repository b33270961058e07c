package store

import (
	"bytes"
	"context"
	"errors"
	"log/slog"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestStoreContract(t *testing.T) {
	// The disk backend is the only Store; the subtest names it.
	t.Run("disk", func(t *testing.T) {
		s, err := OpenDisk(t.TempDir(), nil)
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		if _, err := s.Get("absent"); !errors.Is(err, ErrNotFound) {
			t.Fatalf("Get(absent) error = %v, want ErrNotFound", err)
		}
		if err := s.Put("k1", []byte("v1")); err != nil {
			t.Fatal(err)
		}
		if err := s.Put("k1", []byte("v1-replaced")); err != nil {
			t.Fatal(err)
		}
		got, err := s.Get("k1")
		if err != nil || string(got) != "v1-replaced" {
			t.Fatalf("Get(k1) = (%q, %v), want v1-replaced", got, err)
		}
		// Mutating the returned slice must not corrupt the store.
		got[0] = 'X'
		if again, _ := s.Get("k1"); string(again) != "v1-replaced" {
			t.Fatalf("store value mutated through Get result: %q", again)
		}
		var bk *BadKeyError
		if err := s.Put(".bad", nil); !errors.As(err, &bk) {
			t.Fatalf("Put(.bad) error = %v, want *BadKeyError", err)
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		if _, err := s.Get("k1"); !errors.Is(err, ErrClosed) {
			t.Fatalf("Get after Close error = %v, want ErrClosed", err)
		}
		if err := s.Put("k2", nil); !errors.Is(err, ErrClosed) {
			t.Fatalf("Put after Close error = %v, want ErrClosed", err)
		}
	})
}

func TestDiskPersistsAcrossReopen(t *testing.T) {
	dir := t.TempDir()
	d, err := OpenDisk(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	values := map[string][]byte{
		"alpha": []byte("one"),
		"beta":  bytes.Repeat([]byte{0x42}, 2048),
		"gamma": nil,
	}
	for k, v := range values {
		if err := d.Put(k, v); err != nil {
			t.Fatal(err)
		}
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}

	re, err := OpenDisk(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if re.Len() != len(values) {
		t.Fatalf("reopened store has %d records, want %d", re.Len(), len(values))
	}
	for k, v := range values {
		got, err := re.Get(k)
		if err != nil || !bytes.Equal(got, v) {
			t.Fatalf("Get(%q) after reopen = (%x, %v), want %x", k, got, err, v)
		}
	}
}

// countWarns is a slog.Handler that counts WARN-and-above records so
// tests can assert "skipped with a logged error" without parsing text.
type countWarns struct {
	slog.Handler
	warns *int
}

func newWarnCounter(warns *int) *slog.Logger {
	return slog.New(&countWarns{Handler: slog.DiscardHandler, warns: warns})
}

func (h *countWarns) Handle(ctx context.Context, r slog.Record) error {
	if r.Level >= slog.LevelWarn {
		*h.warns++
	}
	return nil
}

func (h *countWarns) Enabled(ctx context.Context, level slog.Level) bool {
	return true
}

func TestDiskOpenSkipsCorruptRecords(t *testing.T) {
	dir := t.TempDir()
	d, err := OpenDisk(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	good := map[string][]byte{"good1": []byte("a"), "good2": []byte("bb")}
	for k, v := range good {
		if err := d.Put(k, v); err != nil {
			t.Fatal(err)
		}
	}
	if err := d.Put("doomed1", []byte("will truncate")); err != nil {
		t.Fatal(err)
	}
	if err := d.Put("doomed2", []byte("will bit-flip")); err != nil {
		t.Fatal(err)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}

	// Inject the corruption classes of the acceptance criteria:
	// truncation, a flipped bit, an empty file, a renamed (key-aliased)
	// record, and an interrupted temp write.
	corrupt := func(name string, f func(path string)) {
		t.Helper()
		f(filepath.Join(dir, name))
	}
	corrupt("doomed1"+recordExt, func(p string) {
		data, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(p, data[:len(data)-6], 0o644); err != nil {
			t.Fatal(err)
		}
	})
	corrupt("doomed2"+recordExt, func(p string) {
		data, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		data[recordHeaderLen+2] ^= 0x10
		if err := os.WriteFile(p, data, 0o644); err != nil {
			t.Fatal(err)
		}
	})
	corrupt("empty"+recordExt, func(p string) {
		if err := os.WriteFile(p, nil, 0o644); err != nil {
			t.Fatal(err)
		}
	})
	corrupt("aliased"+recordExt, func(p string) {
		rec, err := EncodeRecord("othername", []byte("x"))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(p, rec, 0o644); err != nil {
			t.Fatal(err)
		}
	})
	corrupt(".tmp-leftover", func(p string) {
		if err := os.WriteFile(p, []byte("partial"), 0o644); err != nil {
			t.Fatal(err)
		}
	})

	warns := 0
	re, err := OpenDisk(dir, newWarnCounter(&warns))
	if err != nil {
		t.Fatalf("open over corruption failed: %v", err)
	}
	defer re.Close()
	if re.Len() != len(good) {
		t.Fatalf("index has %d records, want %d (corrupt ones skipped)", re.Len(), len(good))
	}
	if warns != 4 {
		t.Fatalf("logged %d warnings, want 4 (one per corrupt record)", warns)
	}
	for k, v := range good {
		got, err := re.Get(k)
		if err != nil || !bytes.Equal(got, v) {
			t.Fatalf("good record %q lost: (%x, %v)", k, got, err)
		}
	}
	for _, k := range []string{"doomed1", "doomed2", "empty", "aliased"} {
		if _, err := re.Get(k); !errors.Is(err, ErrNotFound) {
			t.Fatalf("corrupt record %q still served: %v", k, err)
		}
	}
	if _, err := os.Stat(filepath.Join(dir, ".tmp-leftover")); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("temp leftover not swept: %v", err)
	}
	// A later Put repairs a corrupt key.
	if err := re.Put("doomed1", []byte("healed")); err != nil {
		t.Fatal(err)
	}
	if got, err := re.Get("doomed1"); err != nil || string(got) != "healed" {
		t.Fatalf("repair Put: (%q, %v)", got, err)
	}
}

func TestDiskGetReportsCorruptionAfterOpen(t *testing.T) {
	dir := t.TempDir()
	d, err := OpenDisk(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	if err := d.Put("victim", []byte("value")); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "victim"+recordExt)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-1] ^= 0xff
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	_, gerr := d.Get("victim")
	var ce *CorruptError
	if !errors.As(gerr, &ce) {
		t.Fatalf("Get of corrupted record = %v, want *CorruptError", gerr)
	}
}

func TestDiskRejectsLongKeyAsFilename(t *testing.T) {
	d, err := OpenDisk(t.TempDir(), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	var bk *BadKeyError
	if err := d.Put(strings.Repeat("k", MaxKeyLen+1), nil); !errors.As(err, &bk) {
		t.Fatalf("oversize key error = %v, want *BadKeyError", err)
	}
}
