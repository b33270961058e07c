// Characterization cache: the engine memoizes every reusable
// sub-problem of the protocol — the Tmin/Tmax delay bounds of a path
// (shared by every Tc point of a sweep and by repeated submissions of
// the same circuit) and whole (circuit, Tc, leakage flag) task results
// (shared by repeated submissions — the common case for a long-running
// daemon). Entries are computed once under a per-key latch, so
// concurrent workers hitting the same key block on one computation
// instead of duplicating it. The library Flimit table (the Fig. 7
// "library characterization" step) needs no entry: the engine's one
// protocol computes it once (Engine.protocol).
package engine

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync"

	"repro/internal/core"
	"repro/internal/delay"
	"repro/internal/netlist"
	"repro/internal/store"
)

// taskKey indexes the result memo and, hashed through storeKeyFor, the
// durable tier. It is a distinct type so the compiler keeps memo keys
// apart from circuit names and the other string-shaped identifiers in
// the engine: a taskKey is only minted by resultKey, whose circuit
// component is a content fingerprint, never a display name (the PR-5
// aliasing bug class, now also policed by the memokey analyzer).
type taskKey string

// boundsKey indexes the path-bounds memo: process corner plus
// content-derived path signature.
type boundsKey string

// Cache memoizes per-process characterization artifacts. The zero
// value is not usable; call NewCache. A Cache is safe for concurrent
// use and is shared by all workers of an Engine.
type Cache struct {
	mu sync.Mutex

	// Path-bounds memo, bounded FIFO: its keys derive from
	// client-supplied netlists, so like the result memo it must not
	// grow without bound in a long-running daemon.
	bounds      map[boundsKey]*boundsEntry
	boundsOrder []boundsKey

	// Result memoization: completed optimization tasks keyed by
	// (process, circuit fingerprint, Tc, ratio, leakage flag),
	// bounded FIFO.
	results     map[taskKey]*resultEntry
	resultOrder []taskKey

	// aliases maps a suite circuit name to the canonical fingerprint
	// of its deterministically generated netlist. Keying results by
	// fingerprint instead of name keeps the memo sound when inline
	// netlists share a name; the alias preserves the cheap name-based
	// lookup (and every existing cache hit) for suite requests.
	aliases map[string]string

	// metrics receives hit/miss/eviction events per memo family. The
	// engine wires its instrument set in at construction; a standalone
	// cache leaves it nil (every event method is nil-safe).
	metrics *Metrics

	// tier is the durable result store behind the in-memory result
	// memo (nil: memory-only, the default). A memo miss probes it
	// before computing; a computed result is written through to it. The
	// tier outlives the process, so a restarted daemon serves repeated
	// tasks without recomputation.
	tier store.Store
}

// boundsEntry latches the bounds solve of one path shape.
type boundsEntry struct {
	once sync.Once
	b    *core.Bounds
	err  error
}

// resultEntry latches one completed optimization task. done is closed
// when the computation finishes; waiters then read res/err without a
// lock (single write happens-before the close).
type resultEntry struct {
	done chan struct{}
	res  *OptimizeResult
	err  error
}

// MaxResultEntries and MaxBoundsEntries bound the result and bounds
// memos; beyond them the oldest entry is evicted (FIFO — with
// deterministic results, re-deriving an evicted entry is harmless).
// Both maps are fed by untrusted request streams, so neither may grow
// without bound.
const (
	MaxResultEntries = 4096
	MaxBoundsEntries = 4096
)

// NewCache returns an empty characterization cache.
func NewCache() *Cache {
	return &Cache{
		bounds:  make(map[boundsKey]*boundsEntry),
		results: make(map[taskKey]*resultEntry),
		aliases: make(map[string]string),
	}
}

// Alias returns the memoized canonical fingerprint of a named suite
// circuit, computing it through fp on the first request. Suite
// benchmarks generate deterministically, so the mapping is stable; a
// racing duplicate computation produces the identical value and is
// harmless.
func (ca *Cache) Alias(name string, fp func() (string, error)) (string, error) {
	ca.mu.Lock()
	if k, ok := ca.aliases[name]; ok {
		ca.mu.Unlock()
		ca.metrics.memoHit(memoAlias)
		return k, nil
	}
	ca.mu.Unlock()
	ca.metrics.memoMiss(memoAlias)
	k, err := fp()
	if err != nil {
		return "", err
	}
	ca.mu.Lock()
	ca.aliases[name] = k
	ca.mu.Unlock()
	return k, nil
}

// Bounds returns the memoized bounds solve of a path, keyed by process
// corner + path signature: Tmin and Tmax plus the Tmin-sized stage
// sizes and sizing result, solved by proto.SolveBounds with the
// protocol's own solver options. Handed to Protocol.Optimize, the entry
// stands in for round 0's Tmin solve on every task whose worst path
// it solved — sweep points and memo hits from other tasks included.
// The path itself is never mutated: the solvers run on throwaway
// clones. The protocol is not part of the key — a cache belongs to one
// Engine, whose protocol is fixed at construction.
func (ca *Cache) Bounds(proto *core.Protocol, pa *delay.Path) (*core.Bounds, error) {
	m := proto.Model()
	key := boundsKey(m.Proc.Name + "/" + PathSignature(pa))
	ca.mu.Lock()
	e, ok := ca.bounds[key]
	if !ok {
		e = &boundsEntry{}
		ca.bounds[key] = e
		ca.boundsOrder = append(ca.boundsOrder, key)
		if len(ca.boundsOrder) > MaxBoundsEntries {
			oldest := ca.boundsOrder[0]
			ca.boundsOrder = ca.boundsOrder[1:]
			// Holders of the evicted entry's pointer still complete
			// their latch safely; only the map slot is recycled.
			delete(ca.bounds, oldest)
			ca.metrics.memoEvict(memoBounds)
		}
	}
	ca.mu.Unlock()
	if ok {
		ca.metrics.memoHit(memoBounds)
	} else {
		ca.metrics.memoMiss(memoBounds)
	}
	e.once.Do(func() { e.b, e.err = proto.SolveBounds(pa) })
	return e.b, e.err
}

// Result returns the memoized outcome of one optimization task,
// computing it at most once per key across all workers of the engine.
// Concurrent callers with the same key block on the first computation
// (their own pool slots stay held, but the latch never waits on a
// slot, so the pool cannot deadlock). Failed computations are evicted
// immediately and never latched, so a cancelled context does not
// poison the key; a waiter that observes another caller's failure
// retries with its own computation rather than inheriting an error —
// such as a cancellation — that belongs to someone else's context.
// Waiting itself is cancellable: a waiter whose own ctx expires
// returns immediately (releasing its pool slot) instead of blocking
// for the duration of someone else's computation.
func (ca *Cache) Result(ctx context.Context, key taskKey, compute func() (*OptimizeResult, error)) (*OptimizeResult, error) {
	for {
		ca.mu.Lock()
		e, ok := ca.results[key]
		if !ok {
			break // compute it ourselves, mu still held
		}
		ca.mu.Unlock()
		ca.metrics.memoHit(memoResult)
		select {
		case <-e.done:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
		if e.err == nil {
			return e.res, nil
		}
		// The computing caller failed (its entry is already evicted);
		// loop and run our own computation under our own context.
	}
	e := &resultEntry{done: make(chan struct{})}
	ca.results[key] = e
	ca.resultOrder = append(ca.resultOrder, key)
	if len(ca.resultOrder) > MaxResultEntries {
		oldest := ca.resultOrder[0]
		ca.resultOrder = ca.resultOrder[1:]
		delete(ca.results, oldest)
		ca.metrics.memoEvict(memoResult)
	}
	ca.mu.Unlock()
	ca.metrics.memoMiss(memoResult)

	// Second tier: a memo miss probes the durable store before paying
	// for a computation. A hit latches into the memory memo exactly like
	// a computed result, so every waiter on this key is served; a
	// corrupt or unreadable record counts as a store error and falls
	// through to computation (the write-through below repairs it).
	if ca.tier != nil {
		if res, ok := ca.tierGet(key); ok {
			e.res = res
			close(e.done)
			return e.res, nil
		}
	}

	e.res, e.err = compute()
	if e.err != nil {
		ca.mu.Lock()
		if ca.results[key] == e {
			delete(ca.results, key)
			for i, k := range ca.resultOrder {
				if k == key {
					ca.resultOrder = append(ca.resultOrder[:i], ca.resultOrder[i+1:]...)
					break
				}
			}
		}
		ca.mu.Unlock()
	}
	close(e.done)
	if ca.tier != nil && e.err == nil {
		ca.tierPut(key, e.res)
	}
	return e.res, e.err
}

// tierGet probes the durable tier for a memoized task, reporting
// whether it was served. Every outcome feeds the store counters.
func (ca *Cache) tierGet(key taskKey) (*OptimizeResult, bool) {
	data, err := ca.tier.Get(storeKeyFor(key))
	if err != nil {
		if errors.Is(err, store.ErrNotFound) {
			ca.metrics.storeMiss()
		} else {
			ca.metrics.storeError()
		}
		return nil, false
	}
	res, err := decodeStoredResult(data)
	if err != nil {
		// A record that passed the store's checksum but fails the result
		// schema (format drift across versions): recompute and overwrite.
		ca.metrics.storeError()
		return nil, false
	}
	ca.metrics.storeHit()
	return res, true
}

// tierPut writes a computed result through to the durable tier.
// Persistence failures never fail the task — the result is already
// latched in memory — they only count store errors.
func (ca *Cache) tierPut(key taskKey, res *OptimizeResult) {
	data, err := encodeStoredResult(res)
	if err != nil {
		ca.metrics.storeError()
		return
	}
	if err := ca.tier.Put(storeKeyFor(key), data); err != nil {
		ca.metrics.storeError()
		return
	}
	ca.metrics.storeWrite()
}

// resultKey spells out one (process, circuit, request) task as a
// delimited string — the components themselves, not a hash, so
// distinct tasks can never collide into each other's memo entry. The
// circuit is identified by its canonical content fingerprint
// (netlist.Fingerprint), never by a client-chosen name: two different
// netlists sharing a name occupy distinct entries, and identical
// netlists under different names share one. Floats are keyed by their
// exact bit patterns. The engine has one configuration (see Config),
// so nothing else can change a result. The bytes must never change:
// the durable tier addresses records by storeKeyFor(key), so a changed
// byte orphans every record of an existing data dir
// (TestResultKeyBytes pins them).
func resultKey(proc, circuit string, req OptimizeRequest) taskKey {
	key := fmt.Sprintf("%s|%s|%x|%x", proc, circuit,
		math.Float64bits(req.Tc), math.Float64bits(req.Ratio))
	if !req.Leakage {
		return taskKey(key + "|dyn")
	}
	return taskKey(key + leakKeySuffix)
}

// leakKeySuffix ends the key of a leakage-aware task: the zero
// leakage.Options the engine runs, spelled out over the field list
// leakage.Options had when the key format was fixed. The suffix is
// frozen: fields deleted from leakage.Options since then still appear
// here, so existing records keep their addresses (TestResultKeyBytes).
const leakKeySuffix = "|leak|0|0|0|0|0|false|0"

// PathSignature returns a stable fingerprint of a path's optimization
// sub-problem: the stage cell sequence with sizes and off-path loads,
// plus the entry transition time. Two paths with equal signatures have
// identical delay bounds; the path name is deliberately excluded. The
// hash is SHA-256, not a 64-bit mixer: the bounds memo is shared
// across clients of a long-running daemon that now ingests untrusted
// netlists, so a crafted collision must not be able to alias one
// path's cached Tmin/Tmax onto another's (the same reasoning that
// keys the result memo on netlist.Fingerprint).
func PathSignature(pa *delay.Path) string {
	h := netlist.NewCanonicalHasher()
	h.Float(pa.TauIn)
	h.Word(uint64(len(pa.Stages)))
	for i := range pa.Stages {
		st := &pa.Stages[i]
		h.Word(uint64(st.Cell.Type))
		h.Float(st.CIn)
		h.Float(st.COff)
	}
	return h.Sum()
}
