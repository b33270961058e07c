// The on-disk backend: one checksummed record file per key under a
// data directory. Writes go to a temp file in the same directory and
// land by atomic rename, so a crash (even SIGKILL mid-write) leaves
// either the old record or the new one, never a torn file; the temp
// leftovers of interrupted writes are swept on open. Records that fail
// verification on open or read are skipped with a logged error — a
// corrupt artifact costs one recomputation, never a failed startup.

package store

import (
	"errors"
	"io/fs"
	"log/slog"
	"os"
	"path/filepath"
	"strings"
	"sync"
)

// recordExt is the filename suffix of one record file.
const recordExt = ".psr"

// Disk is a directory-backed Store. The zero value is not usable;
// call OpenDisk.
type Disk struct {
	dir string
	log *slog.Logger

	mu     sync.RWMutex
	keys   map[string]struct{}
	closed bool
}

// OpenDisk opens (creating if needed) a disk store rooted at dir. It
// verifies every record file on open: files that fail to decode — a
// truncated write from a dirty shutdown, a flipped bit, an empty file —
// are skipped with one logged warning each and excluded from the
// index; a later Put to the same key overwrites them. Leftover temp
// files from interrupted writes are removed. log may be nil (discard).
func OpenDisk(dir string, log *slog.Logger) (*Disk, error) {
	if log == nil {
		log = slog.New(slog.DiscardHandler)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	d := &Disk{dir: dir, log: log, keys: make(map[string]struct{}, len(entries))}
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() {
			continue
		}
		if strings.HasPrefix(name, ".tmp-") {
			// An interrupted write; the rename never happened, so the
			// record it replaced (if any) is still intact.
			os.Remove(filepath.Join(dir, name))
			continue
		}
		if !strings.HasSuffix(name, recordExt) {
			continue
		}
		key := strings.TrimSuffix(name, recordExt)
		if err := d.verify(key); err != nil {
			log.Warn("store: skipping corrupt record",
				"file", filepath.Join(dir, name), "error", err.Error())
			continue
		}
		d.keys[key] = struct{}{}
	}
	return d, nil
}

// path returns the record file of key.
func (d *Disk) path(key string) string {
	return filepath.Join(d.dir, key+recordExt)
}

// verify reads and decodes one record file, checking that the embedded
// key matches the filename (a record renamed onto another key's file
// must not alias it).
func (d *Disk) verify(key string) error {
	_, err := d.read(key)
	return err
}

// read loads and verifies the record of key.
func (d *Disk) read(key string) ([]byte, error) {
	data, err := os.ReadFile(d.path(key))
	if err != nil {
		if errors.Is(err, fs.ErrNotExist) {
			return nil, ErrNotFound
		}
		return nil, err
	}
	gotKey, value, err := DecodeRecord(data)
	if err != nil {
		return nil, err
	}
	if gotKey != key {
		return nil, corruptf("record key %q does not match filename key %q", gotKey, key)
	}
	return value, nil
}

// Get implements Store. A record that fails verification is reported
// as a *CorruptError (and logged); the caller treats it as a miss and
// a later Put repairs the file.
func (d *Disk) Get(key string) ([]byte, error) {
	d.mu.RLock()
	if d.closed {
		d.mu.RUnlock()
		return nil, ErrClosed
	}
	_, ok := d.keys[key]
	d.mu.RUnlock()
	if !ok {
		return nil, ErrNotFound
	}
	value, err := d.read(key)
	if err != nil {
		var ce *CorruptError
		if errors.As(err, &ce) {
			d.log.Warn("store: corrupt record on read",
				"file", d.path(key), "error", err.Error())
		}
		return nil, err
	}
	return value, nil
}

// Put implements Store: encode, write to a same-directory temp file,
// fsync, and atomically rename over the final name.
func (d *Disk) Put(key string, value []byte) error {
	rec, err := EncodeRecord(key, value)
	if err != nil {
		return err
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return ErrClosed
	}
	f, err := os.CreateTemp(d.dir, ".tmp-*")
	if err != nil {
		return err
	}
	tmp := f.Name()
	if _, err := f.Write(rec); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	if err := os.Rename(tmp, d.path(key)); err != nil {
		os.Remove(tmp)
		return err
	}
	d.keys[key] = struct{}{}
	return nil
}

// Len reports the number of indexed records.
func (d *Disk) Len() int {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return len(d.keys)
}

// Close releases the store. Get and Put after Close return ErrClosed.
func (d *Disk) Close() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.closed = true
	return nil
}
