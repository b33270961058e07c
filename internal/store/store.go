// Package store is the durable content-addressed result tier of the
// service: a two-method key/value contract (Get/Put) over
// fingerprint-derived keys, with one backend — an on-disk store (one
// checksummed record file per key, written via atomic rename, corrupt
// records skipped with a logged error on open). Without a data
// directory the engine keeps results in its in-memory memo only and
// needs no store. A write-behind Batcher coalesces Puts and flushes
// them on size, interval and Close, so the engine's hot path never
// waits on the filesystem; a Journal provides the append-only job log
// popsd replays on restart.
//
// Keys are content addresses: the engine derives them by hashing its
// (process, circuit fingerprint, constraint, policy) memo key, so a
// persisted record is a reproducible artifact of the optimization
// protocol — two daemons given the same netlist and constraint write
// the same record under the same key, which is what later makes
// replicas shardable by fingerprint with no coordination.
package store

import (
	"errors"
	"fmt"
)

// Typed error values of the store contract.
var (
	// ErrNotFound reports a Get miss: no record under the key.
	ErrNotFound = errors.New("store: key not found")
	// ErrClosed reports an operation against a closed store or batcher
	// (mirroring the engine job store's post-Close Submit contract).
	ErrClosed = errors.New("store: closed")
)

// BadKeyError reports a key outside the store's key grammar.
type BadKeyError struct {
	Key string
}

func (e *BadKeyError) Error() string {
	return fmt.Sprintf("store: invalid key %q", e.Key)
}

// MaxKeyLen bounds key length. Keys are fingerprint-derived (64 hex
// characters in practice); the bound keeps records and filenames sane.
const MaxKeyLen = 128

// ValidKey reports whether key fits the store grammar: 1..MaxKeyLen
// characters of [A-Za-z0-9._-], not starting with a dot (keys double
// as filenames of the disk backend; a leading dot would collide with
// its temp-file namespace and hidden files).
func ValidKey(key string) bool {
	if len(key) == 0 || len(key) > MaxKeyLen || key[0] == '.' {
		return false
	}
	for i := 0; i < len(key); i++ {
		c := key[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9':
		case c == '.' || c == '_' || c == '-':
		default:
			return false
		}
	}
	return true
}

// Store is the durable result tier contract: the two calls the
// engine's result memo makes on a miss and after a computation.
// Implementations are safe for concurrent use. Values passed to Put
// and returned by Get are caller-owned copies — mutating them never
// corrupts the store. Closing is the business of whoever opened the
// concrete backend, not of the contract.
type Store interface {
	// Get returns the value under key, ErrNotFound when absent, or a
	// *CorruptError when the stored record fails verification.
	Get(key string) ([]byte, error)
	// Put stores value under key, replacing any previous value.
	Put(key string, value []byte) error
}
