// Package store exercises locksafe's blocking and leak rules on the
// store tier itself.
package store

import (
	"sync"
	"time"
)

// Store is the tier interface: its methods count as blocking.
type Store interface {
	Get(key string) ([]byte, error)
	Put(key string, value []byte) error
}

type Batcher struct {
	mu      sync.Mutex
	writeMu sync.Mutex
	pending map[string][]byte
	under   Store
	kick    chan struct{}
	done    chan struct{}
	wg      sync.WaitGroup
}

// snapshotThenBlock is the blessed convention: snapshot under the
// lock, block after the unlock.
func (b *Batcher) snapshotThenBlock(key string) []byte {
	b.mu.Lock()
	v := b.pending[key]
	b.mu.Unlock()
	<-b.done
	return v
}

// heldSend stalls every later caller if no receiver is ready.
func (b *Batcher) heldSend() {
	b.mu.Lock()
	b.kick <- struct{}{} // want `channel send while holding b\.mu`
	b.mu.Unlock()
}

// heldReceive blocks under the lock.
func (b *Batcher) heldReceive() {
	b.mu.Lock()
	<-b.done // want `channel receive while holding b\.mu`
	b.mu.Unlock()
}

// kickWithDefault never blocks: a select with a default is exempt
// even under the lock.
func (b *Batcher) kickWithDefault() {
	b.mu.Lock()
	select {
	case b.kick <- struct{}{}:
	default:
	}
	b.mu.Unlock()
}

// heldSelect has no default: it parks under the lock.
func (b *Batcher) heldSelect() {
	b.mu.Lock()
	select { // want `select without a default case while holding b\.mu`
	case <-b.done:
	case <-b.kick:
	}
	b.mu.Unlock()
}

// heldWait joins the worker pool while holding the lock the workers
// may need.
func (b *Batcher) heldWait() {
	b.mu.Lock()
	b.wg.Wait() // want `sync Wait while holding b\.mu`
	b.mu.Unlock()
}

// heldSleep is a slow-motion version of the same bug.
func (b *Batcher) heldSleep() {
	b.mu.Lock()
	time.Sleep(10) // want `time\.Sleep while holding b\.mu`
	b.mu.Unlock()
}

// heldStoreCall reaches the underlying tier — a disk, another
// batcher — while holding the write lock.
func (b *Batcher) heldStoreCall(key string, v []byte) error {
	b.writeMu.Lock()
	defer b.writeMu.Unlock()
	return b.under.Put(key, v) // want `store call Put while holding b\.writeMu`
}

// leakOnError returns with the mutex still held.
func (b *Batcher) leakOnError(key string) ([]byte, bool) {
	b.mu.Lock()
	v, ok := b.pending[key]
	if !ok {
		return nil, false // want `b\.mu is locked but not released on this return path`
	}
	b.mu.Unlock()
	return v, true
}

// deferRelease makes every return path safe.
func (b *Batcher) deferRelease(key string) ([]byte, bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	v, ok := b.pending[key]
	if !ok {
		return nil, false
	}
	return v, true
}

// goroutineIsItsOwnWorld: the spawned body runs without the caller's
// locks, so its channel receive is not flagged.
func (b *Batcher) goroutineIsItsOwnWorld() {
	b.mu.Lock()
	go func() {
		<-b.done
	}()
	b.mu.Unlock()
}
