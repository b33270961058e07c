package store

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"
)

// mapStore is a map-backed Store: the batcher's underlying tier
// without the filesystem.
type mapStore struct {
	mu sync.Mutex
	m  map[string][]byte
}

func newMapStore() *mapStore { return &mapStore{m: make(map[string][]byte)} }

func (s *mapStore) Get(key string) ([]byte, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	v, ok := s.m[key]
	if !ok {
		return nil, ErrNotFound
	}
	return append([]byte(nil), v...), nil
}

func (s *mapStore) Put(key string, value []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.m[key] = append([]byte(nil), value...)
	return nil
}

func (s *mapStore) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.m)
}

func TestBatcherCoalescesAndFlushes(t *testing.T) {
	mem := newMapStore()
	b := NewBatcher(mem, BatcherOptions{FlushInterval: time.Hour})
	for i := 0; i < 10; i++ {
		if err := b.Put("hot", []byte(fmt.Sprintf("v%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	// Unflushed: the pending value is served, the backend has nothing.
	got, err := b.Get("hot")
	if err != nil || string(got) != "v9" {
		t.Fatalf("Get before flush = (%q, %v), want v9", got, err)
	}
	if mem.Len() != 0 {
		t.Fatalf("backend has %d records before flush, want 0", mem.Len())
	}
	if err := b.Flush(); err != nil {
		t.Fatal(err)
	}
	if mem.Len() != 1 {
		t.Fatalf("backend has %d records after flush, want 1 (coalesced)", mem.Len())
	}
	if v, err := mem.Get("hot"); err != nil || string(v) != "v9" {
		t.Fatalf("backend value = (%q, %v), want v9", v, err)
	}
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}
	// Close does not close the underlying store.
	if _, err := mem.Get("hot"); err != nil {
		t.Fatalf("underlying store closed by Batcher.Close: %v", err)
	}
}

func TestBatcherSizeTriggeredFlush(t *testing.T) {
	mem := newMapStore()
	b := NewBatcher(mem, BatcherOptions{FlushInterval: time.Hour})
	defer b.Close()
	for i := 0; i < maxPending; i++ {
		if err := b.Put(fmt.Sprintf("k%d", i), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for mem.Len() < maxPending {
		if time.Now().After(deadline) {
			t.Fatalf("size-triggered flush never ran: backend has %d records", mem.Len())
		}
		time.Sleep(time.Millisecond)
	}
}

func TestBatcherIntervalFlush(t *testing.T) {
	mem := newMapStore()
	b := NewBatcher(mem, BatcherOptions{FlushInterval: 10 * time.Millisecond})
	defer b.Close()
	if err := b.Put("k", []byte("v")); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for mem.Len() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("interval flush never ran")
		}
		time.Sleep(time.Millisecond)
	}
}

// TestBatcherConcurrency is the -race hammer of the satellite: many
// goroutines Put/Get/Flush concurrently while Close races them. Every
// Put that returned nil must be durable in the underlying store after
// Close; every Put after Close must return ErrClosed; and nothing may
// trip the race detector.
func TestBatcherConcurrency(t *testing.T) {
	mem := newMapStore()
	b := NewBatcher(mem, BatcherOptions{FlushInterval: time.Millisecond})

	const writers = 8
	const perWriter = 200
	var mu sync.Mutex
	accepted := make(map[string][]byte) // last value of each nil-returning Put
	rejected := 0

	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				key := fmt.Sprintf("w%d-k%d", w, i%17) // repeated keys: coalescing under contention
				value := []byte(fmt.Sprintf("w%d-i%d", w, i))
				err := b.Put(key, value)
				mu.Lock()
				if err == nil {
					accepted[key] = value
				} else if errors.Is(err, ErrClosed) {
					rejected++
				} else {
					mu.Unlock()
					t.Errorf("Put error = %v, want nil or ErrClosed", err)
					return
				}
				mu.Unlock()
				if i%13 == 0 {
					b.Get(key)
				}
				if i%31 == 0 {
					b.Flush()
				}
			}
		}(w)
	}
	// Close races the writers mid-stream.
	closeErr := make(chan error, 1)
	go func() {
		time.Sleep(2 * time.Millisecond)
		closeErr <- b.Close()
	}()
	wg.Wait()
	if err := <-closeErr; err != nil {
		t.Fatalf("Close: %v", err)
	}
	if err := b.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	if err := b.Put("late", []byte("x")); !errors.Is(err, ErrClosed) {
		t.Fatalf("Put after Close = %v, want ErrClosed", err)
	}
	if _, err := b.Get("late"); !errors.Is(err, ErrClosed) {
		t.Fatalf("Get after Close = %v, want ErrClosed", err)
	}

	// No accepted write lost: each key's final accepted value is in the
	// underlying store. (A writer's last accepted Put for a key is the
	// last Put anyone made to it — keys are per-writer.)
	mu.Lock()
	defer mu.Unlock()
	if len(accepted) == 0 {
		t.Fatal("no Put was accepted before Close; hammer did not exercise the batcher")
	}
	for key, want := range accepted {
		got, err := mem.Get(key)
		if err != nil {
			t.Fatalf("accepted write %q lost across Close: %v", key, err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("key %q = %q, want final accepted value %q", key, got, want)
		}
	}
	t.Logf("accepted %d keys, rejected %d post-close Puts", len(accepted), rejected)
}

// failingStore rejects every Put, for error-path coverage.
type failingStore struct{ *mapStore }

func (f *failingStore) Put(key string, value []byte) error {
	return errors.New("disk on fire")
}

func TestBatcherFlushErrorsAreReported(t *testing.T) {
	var reported []string
	b := NewBatcher(&failingStore{newMapStore()}, BatcherOptions{
		FlushInterval: time.Hour,
		OnError:       func(key string, err error) { reported = append(reported, key) },
	})
	if err := b.Put("k", []byte("v")); err != nil {
		t.Fatal(err)
	}
	if err := b.Flush(); err == nil {
		t.Fatal("Flush over a failing store returned nil")
	}
	if b.Errors() != 1 {
		t.Fatalf("Errors() = %d, want 1", b.Errors())
	}
	if len(reported) != 1 || reported[0] != "k" {
		t.Fatalf("OnError saw %v, want [k]", reported)
	}
	// Failed writes are dropped, not retried.
	if err := b.Flush(); err != nil {
		t.Fatalf("second Flush = %v, want nil (batch dropped)", err)
	}
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}
}
