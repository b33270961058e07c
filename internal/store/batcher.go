// The async write-behind batcher: Puts land in an in-memory pending
// map (coalescing repeated writes to one key) and are flushed to the
// underlying store by a background goroutine when the batch grows past
// a size threshold, when the flush interval elapses, and always on
// Close. Reads are write-through-consistent: Get serves the pending
// value when one exists, so a caller never observes its own write
// missing. The batcher trades a bounded window of durability (one
// flush interval) for keeping the engine's hot path free of
// filesystem I/O.

package store

import (
	"errors"
	"log/slog"
	"sync"
	"sync/atomic"
	"time"
)

// maxPending triggers a flush when this many coalesced keys are
// pending.
const maxPending = 64

// DefaultFlushInterval is the periodic flush cadence.
const DefaultFlushInterval = time.Second

// BatcherOptions tunes a Batcher. The zero value selects the defaults.
type BatcherOptions struct {
	// FlushInterval is the periodic flush cadence (default
	// DefaultFlushInterval).
	FlushInterval time.Duration
	// Logger receives one warning per failed flush write; nil discards.
	Logger *slog.Logger
	// OnError, when set, observes every failed flush write (popsd hooks
	// the engine's store-error counter here so async failures are
	// visible on /metrics, not only in the log).
	OnError func(key string, err error)
}

// Batcher is a write-behind Store decorator. It owns a background
// flush goroutine from NewBatcher until Close; Close flushes the final
// batch, so with a healthy underlying store no accepted Put is ever
// lost across Close. The underlying store is NOT closed — the caller
// composed the layers and unwinds them in order.
type Batcher struct {
	under Store
	opts  BatcherOptions

	mu      sync.Mutex
	pending map[string][]byte
	closed  bool

	writeMu sync.Mutex // orders racing flushes' writes

	kick chan struct{}
	stop chan struct{}
	done chan struct{}

	errs atomic.Uint64
}

// NewBatcher wraps under in a write-behind batcher and starts its
// flush goroutine.
func NewBatcher(under Store, opts BatcherOptions) *Batcher {
	if opts.FlushInterval <= 0 {
		opts.FlushInterval = DefaultFlushInterval
	}
	if opts.Logger == nil {
		opts.Logger = slog.New(slog.DiscardHandler)
	}
	b := &Batcher{
		under:   under,
		opts:    opts,
		pending: make(map[string][]byte),
		kick:    make(chan struct{}, 1),
		stop:    make(chan struct{}),
		done:    make(chan struct{}),
	}
	go b.loop()
	return b
}

// loop is the background flusher: periodic ticks plus size-threshold
// kicks, until Close.
func (b *Batcher) loop() {
	defer close(b.done)
	ticker := time.NewTicker(b.opts.FlushInterval)
	defer ticker.Stop()
	for {
		select {
		case <-ticker.C:
			b.Flush()
		case <-b.kick:
			b.Flush()
		case <-b.stop:
			return
		}
	}
}

// Get implements Store: the pending (unflushed) value wins, then the
// underlying store.
func (b *Batcher) Get(key string) ([]byte, error) {
	b.mu.Lock()
	if b.closed {
		b.mu.Unlock()
		return nil, ErrClosed
	}
	if v, ok := b.pending[key]; ok {
		out := append([]byte(nil), v...)
		b.mu.Unlock()
		return out, nil
	}
	b.mu.Unlock()
	return b.under.Get(key)
}

// Put implements Store: the write is accepted into the pending batch
// and durably stored at the next flush. After Close has begun, Put
// accepts nothing and returns ErrClosed.
func (b *Batcher) Put(key string, value []byte) error {
	if !ValidKey(key) {
		return &BadKeyError{Key: key}
	}
	b.mu.Lock()
	if b.closed {
		b.mu.Unlock()
		return ErrClosed
	}
	b.pending[key] = append([]byte(nil), value...)
	full := len(b.pending) >= maxPending
	b.mu.Unlock()
	if full {
		select {
		case b.kick <- struct{}{}:
		default: // a flush is already signalled
		}
	}
	return nil
}

// Flush writes the pending batch to the underlying store, in sorted
// key order, and returns the joined errors of failed writes (each also
// logged, counted, and reported to OnError). Failed writes are
// dropped, not retried — a result record is reproducible, so the cost
// of a lost write is one recomputation on a future miss.
func (b *Batcher) Flush() error {
	// writeMu is held across snapshot AND write: two racing flushes
	// would otherwise snapshot in one order and write in the other,
	// letting an older value overwrite a newer one.
	b.writeMu.Lock()
	defer b.writeMu.Unlock()
	b.mu.Lock()
	if len(b.pending) == 0 {
		b.mu.Unlock()
		return nil
	}
	batch := b.pending
	b.pending = make(map[string][]byte)
	b.mu.Unlock()

	var errs []error
	for _, key := range sortedKeys(batch) {
		//popslint:ignore locksafe writeMu exists solely to order tier writes; the pending map was snapshotted and b.mu released above, so Puts never stall behind this write
		if err := b.under.Put(key, batch[key]); err != nil {
			b.errs.Add(1)
			b.opts.Logger.Warn("store: flush write failed", "key", key, "error", err.Error())
			if b.opts.OnError != nil {
				b.opts.OnError(key, err)
			}
			errs = append(errs, err)
		}
	}
	return errors.Join(errs...)
}

// sortedKeys returns the keys of m in sorted order (deterministic
// flush order; failures are reproducible).
func sortedKeys(m map[string][]byte) []string {
	keys := make([]string, 0, len(m))
	//pops:orderindep every key is collected; the insertion sort below determinizes the order
	for k := range m {
		keys = append(keys, k)
	}
	// Insertion sort: batches are small (maxPending), and the sort runs
	// off the hot path.
	for i := 1; i < len(keys); i++ {
		for j := i; j > 0 && keys[j] < keys[j-1]; j-- {
			keys[j], keys[j-1] = keys[j-1], keys[j]
		}
	}
	return keys
}

// Errors reports the number of failed flush writes since construction.
func (b *Batcher) Errors() uint64 { return b.errs.Load() }

// Close stops accepting writes, stops the flush goroutine, and flushes
// the final batch. Every Put accepted before Close began is flushed
// exactly once; Puts racing Close either land in that final batch or
// return ErrClosed — no accepted write is silently dropped.
func (b *Batcher) Close() error {
	b.mu.Lock()
	if b.closed {
		b.mu.Unlock()
		return nil
	}
	b.closed = true
	b.mu.Unlock()
	close(b.stop)
	<-b.done
	return b.Flush()
}
