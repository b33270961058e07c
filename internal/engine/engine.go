// Package engine is the concurrent batch-optimization engine of the
// library: it shards protocol work across a bounded worker pool and
// exposes the three batch workloads of an industrial flow —
//
//	Optimize  one circuit at one delay constraint Tc
//	Sweep     one circuit across a Tc grid Tmin·[1.0 … 2.0] (the
//	          area/delay trade-off curve of Fig. 3/6)
//	Suite     a whole benchmark suite at a set of constraint ratios
//
// Jobs fan out over goroutines at path/Tc granularity: every (circuit,
// Tc) unit is an independent task running the sequential Fig. 7
// protocol on its own netlist clone, so results are byte-identical to
// core.Protocol.Optimize regardless of worker count or scheduling (the
// equivalence is enforced by TestEngineMatchesSequential). A shared,
// mutex-guarded characterization cache (Flimit tables and Tmin/Tmax
// bounds keyed by process + path signature) computes repeated
// sub-problems once across all tasks of all jobs.
//
// The Store and Server types layer an async job queue and a
// standard-library JSON HTTP service (cmd/popsd) on top of the same
// pool.
package engine

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/delay"
	"repro/internal/iscas"
	"repro/internal/leakage"
	"repro/internal/netlist"
	"repro/internal/obs"
	"repro/internal/sizing"
	"repro/internal/sta"
	"repro/internal/store"
	"repro/internal/tech"
)

// Config parameterizes an Engine.
type Config struct {
	// Workers bounds the number of concurrently running tasks.
	// Zero selects runtime.GOMAXPROCS(0).
	Workers int
	// Process is the technology corner; nil selects tech.CMOS025().
	Process *tech.Process
	// Sizing tunes the inner solvers (forwarded to the protocol).
	Sizing sizing.Options
	// STA configures path extraction (forwarded to the protocol).
	STA sta.Config
	// MaxRounds bounds the per-circuit optimize-worst-path iterations
	// (default: the core driver's 12).
	MaxRounds int
	// Leakage is the engine-wide multi-Vt policy applied to requests
	// that set their Leakage flag (power-simulation vectors, promotion
	// ceiling). It is part of the result-memoization key.
	Leakage leakage.Options
	// Results is the durable result store behind the in-memory memo
	// (nil: memory-only, the default — behavior is then unchanged). A
	// memo miss probes it before computing; computed results are
	// written through. The engine never closes it — the caller owns
	// the store's lifecycle (popsd closes its batcher and disk store
	// during shutdown, after the job store drains).
	Results store.Store
}

// Engine is a concurrent batch optimizer. It is safe for concurrent
// use; all jobs share one worker pool and one characterization cache.
type Engine struct {
	cfg     Config
	model   *delay.Model
	muProto sync.Mutex // guards lazy construction of proto
	proto   *core.Protocol
	cache   *Cache
	slots   chan struct{} // bounded worker-pool semaphore
	metrics *Metrics      // engine-owned instrument set (never nil)
}

// New builds an engine. The library is characterized lazily, on the
// first job that needs the Flimit table.
func New(cfg Config) (*Engine, error) {
	if cfg.Workers <= 0 {
		cfg.Workers = runtime.GOMAXPROCS(0)
	}
	if cfg.Process == nil {
		cfg.Process = tech.CMOS025()
	}
	if err := cfg.Process.Validate(); err != nil {
		return nil, err
	}
	e := &Engine{
		cfg:     cfg,
		model:   delay.NewModel(cfg.Process),
		cache:   NewCache(),
		slots:   make(chan struct{}, cfg.Workers),
		metrics: newMetrics(),
	}
	e.cache.metrics = e.metrics
	e.cache.tier = cfg.Results
	return e, nil
}

// Workers reports the pool bound.
func (e *Engine) Workers() int { return e.cfg.Workers }

// Model exposes the engine's delay model (read-only).
func (e *Engine) Model() *delay.Model { return e.model }

// Metrics exposes the engine's instrument set (the HTTP layer's
// /metrics handler renders its registry).
func (e *Engine) Metrics() *Metrics { return e.metrics }

// MetricsSnapshot reads every engine instrument as a flat
// name{labels} → value map: counters and gauges by value, histograms
// as _count/_sum pairs. The CLI's `pops metrics`, the /healthz
// metrics block and genbench's BENCH records consume it.
func (e *Engine) MetricsSnapshot() obs.Snapshot { return e.metrics.reg.Snapshot() }

// protocol returns the shared protocol instance, characterizing the
// library through the cache on first use.
func (e *Engine) protocol() (*core.Protocol, error) {
	e.muProto.Lock()
	defer e.muProto.Unlock()
	if e.proto != nil {
		return e.proto, nil
	}
	p, err := core.NewProtocol(core.Config{
		Model:     e.model,
		Limits:    e.cache.Limits(e.model),
		Sizing:    e.cfg.Sizing,
		STA:       e.cfg.STA,
		MaxRounds: e.cfg.MaxRounds,
		Recorder:  e.metrics.coreRec,
	})
	if err != nil {
		return nil, err
	}
	e.proto = p
	return p, nil
}

// fanOut runs n index-addressed tasks on the bounded pool and blocks
// until all scheduled tasks finish. Results land in caller-owned
// slices at their task index, so assembly order — and therefore every
// job result — is independent of scheduling. On context cancellation
// unstarted tasks are skipped; the first error by task index wins.
func (e *Engine) fanOut(ctx context.Context, n int, task func(i int) error) error {
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		if err := ctx.Err(); err != nil {
			errs[i] = err
			break
		}
		// Queue depth counts tasks blocked on a pool slot; busy workers
		// counts held slots. Two gauges and atomic adds — cheap enough
		// to leave on unconditionally.
		e.metrics.queueDepth.Inc()
		select {
		case e.slots <- struct{}{}:
		case <-ctx.Done():
			errs[i] = ctx.Err()
		}
		e.metrics.queueDepth.Dec()
		if errs[i] != nil {
			break
		}
		wg.Add(1)
		e.metrics.busyWorkers.Inc()
		go func(i int) {
			defer wg.Done()
			defer e.metrics.busyWorkers.Dec()
			defer func() { <-e.slots }()
			errs[i] = task(i)
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// loadCircuit instantiates a fresh netlist for a request: a named
// suite benchmark, the genuine c17, or a ripple-carry adder — always a
// new instance, so concurrent tasks never share mutable gates.
func loadCircuit(name string) (*netlist.Circuit, error) { return iscas.Load(name) }

// validateSourceRef enforces the exactly-one-of rule on a request's
// circuit reference. The HTTP layer runs it synchronously (mapping
// failures to 400) and resolveSource runs it for library callers, so
// the rule — and its wording — lives in one place.
func validateSourceRef(circuit, bench string) error {
	switch {
	case circuit == "" && bench == "":
		return errors.New("engine: circuit or bench is required")
	case circuit != "" && bench != "":
		return errors.New("engine: circuit and bench are mutually exclusive")
	}
	return nil
}

// validateConstraint rejects out-of-range constraint fields instead of
// letting them fall back to a default: tc, ratio and points must be
// finite and non-negative (zero selects the default), and every suite
// ratio must be finite and positive. Like validateSourceRef, the HTTP
// layer runs it synchronously (400) and the library methods run it for
// direct callers; fields a request kind does not carry are passed as
// zero.
func validateConstraint(tc, ratio float64, points int, ratios []float64) error {
	switch {
	case !(tc >= 0) || math.IsInf(tc, 1):
		return fmt.Errorf("engine: tc %g must be finite and non-negative (0 derives it from ratio)", tc)
	case !(ratio >= 0) || math.IsInf(ratio, 1):
		return fmt.Errorf("engine: ratio %g must be finite and non-negative (0 selects 1.4)", ratio)
	case points < 0:
		return fmt.Errorf("engine: points %d must be non-negative (0 selects 11)", points)
	}
	for i, r := range ratios {
		if !(r > 0) || math.IsInf(r, 1) {
			return fmt.Errorf("engine: ratios[%d] = %g must be finite and positive", i, r)
		}
	}
	return nil
}

// resolveSource validates a request's circuit reference — exactly one
// of a suite name or an inline .bench source — and resolves it to a
// source: display name, canonical fingerprint (the memo key), and
// instantiation hook. parsed carries a pre-parsed inline netlist (the
// HTTP layer validates sources synchronously) so each request's bench
// text is parsed exactly once; nil parses here.
func (e *Engine) resolveSource(circuit, bench string, parsed *ParsedBench) (*source, error) {
	if err := validateSourceRef(circuit, bench); err != nil {
		return nil, err
	}
	if bench != "" {
		pb := parsed
		if pb == nil {
			start := time.Now()
			var err error
			if pb, err = ParseBench(bench); err != nil {
				return nil, err
			}
			e.metrics.stageDone(stageParse, start)
		}
		return &source{display: pb.Name, key: pb.Key, master: pb.Circuit}, nil
	}
	if !iscas.Known(circuit) {
		return nil, fmt.Errorf("iscas: unknown benchmark %q", circuit)
	}
	// On an alias miss the fingerprint computation has to load the
	// circuit anyway; donate that instance to the request as its
	// master so the first task clones it instead of re-generating
	// (Clone of a deterministic generation is byte-identical to a
	// fresh load). Alias hits skip the load entirely.
	var master *netlist.Circuit
	key, err := e.cache.Alias(circuit, func() (string, error) {
		c, err := loadCircuit(circuit)
		if err != nil {
			return "", err
		}
		master = c
		return netlist.Fingerprint(c), nil
	})
	if err != nil {
		return nil, err
	}
	return &source{display: circuit, key: key, master: master, name: circuit}, nil
}

// OptimizeRequest names one (circuit, Tc) unit of work.
type OptimizeRequest struct {
	// Circuit is a suite benchmark name ("c432", "fpd", …). Exactly
	// one of Circuit and Bench must be set.
	Circuit string `json:"circuit,omitempty"`
	// Bench is a raw ISCAS .bench netlist source optimized in place of
	// a named benchmark. It is parsed once per request behind the
	// ingestion validation pass (see ParseBench).
	Bench string `json:"bench,omitempty"`
	// Tc is the delay constraint in ps. Zero derives it from Ratio.
	Tc float64 `json:"tc,omitempty"`
	// Ratio expresses Tc as a multiple of the critical path's Tmin;
	// used when Tc is zero (default 1.4).
	Ratio float64 `json:"ratio,omitempty"`
	// Leakage requests the leakage-aware protocol: after sizing, the
	// selective multi-Vt pass promotes non-critical gates to higher
	// thresholds under the engine's leakage policy.
	Leakage bool `json:"leakage,omitempty"`

	// parsed caches the validated Bench netlist when the caller (the
	// HTTP layer) already parsed it; never serialized.
	parsed *ParsedBench
}

// OptimizeResult reports one optimized circuit.
type OptimizeResult struct {
	Circuit    string  `json:"circuit"`
	Tc         float64 `json:"tc"`
	Tmin       float64 `json:"tmin"`
	Tmax       float64 `json:"tmax"`
	Gates      int     `json:"gates"`
	Outcome    *core.CircuitOutcome
	FromBounds bool // bounds served from the shared cache
}

// Optimize runs the full circuit protocol for one request on the pool:
// core.Protocol.Optimize over one timing session, with cancellation
// honored between rounds, so the outcome is identical to a sequential
// Protocol.Optimize on the same inputs.
func (e *Engine) Optimize(ctx context.Context, req OptimizeRequest) (*OptimizeResult, error) {
	if err := validateConstraint(req.Tc, req.Ratio, 0, nil); err != nil {
		return nil, err
	}
	src, err := e.resolveSource(req.Circuit, req.Bench, req.parsed)
	if err != nil {
		return nil, err
	}
	res := &OptimizeResult{}
	err = e.fanOut(ctx, 1, func(int) error {
		r, err := e.optimizeTask(ctx, req, src, nil, nil)
		if err != nil {
			return err
		}
		*res = *r
		return nil
	})
	if err != nil {
		return nil, err
	}
	return res, nil
}

// pathBounds carries a precomputed Tmin/Tmax pair into optimizeTask
// when the caller already solved them (sweep points share one master).
type pathBounds struct {
	tmin, tmax float64
}

// optimizeTask is the worker body shared by Optimize, Sweep and Suite.
// It must be called from a pool slot. src carries the resolved circuit
// origin; instantiate overrides circuit loading when the caller
// derives netlists from a shared master (it is only invoked on a memo
// miss, so cached hits never pay for a clone); tb skips the
// critical-path extraction and bounds solve when the caller already
// has them.
//
// The whole task is memoized through the shared cache, keyed by
// (circuit fingerprint, Tc, ratio, leakage policy): repeated
// submissions of the same unit — the common case for a long-running
// daemon, and for suite cells overlapping earlier sweeps — return the
// completed result without recomputation. Determinism makes the memo
// transparent: a hit is byte-identical to a fresh computation.
func (e *Engine) optimizeTask(ctx context.Context, req OptimizeRequest, src *source, instantiate func() *netlist.Circuit, tb *pathBounds) (*OptimizeResult, error) {
	r, err := e.cache.Result(ctx, resultKey(e.model.Proc.Name, src.key, req, e.cfg.Leakage), func() (*OptimizeResult, error) {
		return e.computeTask(ctx, req, src, instantiate, tb)
	})
	if err != nil {
		return nil, err
	}
	if r.Circuit != src.display {
		// A memo hit under a different display name (identical netlist
		// submitted under another alias): relabel a shallow copy, never
		// the shared cached value.
		r2 := *r
		r2.Circuit = src.display
		return &r2, nil
	}
	return r, nil
}

// computeTask is the uncached task body behind optimizeTask.
func (e *Engine) computeTask(ctx context.Context, req OptimizeRequest, src *source, instantiate func() *netlist.Circuit, tb *pathBounds) (*OptimizeResult, error) {
	defer e.metrics.taskComputed(time.Now())
	proto, err := e.protocol()
	if err != nil {
		return nil, err
	}
	var c *netlist.Circuit
	if instantiate != nil {
		c = instantiate()
	} else if c, err = src.instantiate(); err != nil {
		return nil, err
	}
	// One incremental timing session serves the whole task: bounds
	// extraction, every protocol round, and the leakage pass all share
	// the same reused per-node buffers.
	sess := proto.NewTimingSession(c)
	sess.SetRecorder(e.metrics.staRec)
	if tb == nil {
		boundsStart := time.Now()
		pa, _, err := sess.CriticalPath()
		if err != nil {
			return nil, err
		}
		tmin, tmax, err := e.cache.Bounds(e.model, pa, e.cfg.Sizing)
		if err != nil {
			return nil, err
		}
		tb = &pathBounds{tmin: tmin, tmax: tmax}
		e.metrics.stageDone(stageBounds, boundsStart)
	}
	tc := req.Tc
	if tc <= 0 {
		ratio := req.Ratio
		if ratio <= 0 {
			ratio = 1.4
		}
		tc = ratio * tb.tmin
	}

	var leak *leakage.Options
	if req.Leakage {
		leak = &e.cfg.Leakage
	}
	out, err := proto.Optimize(ctx, sess, tc, leak)
	if err != nil {
		return nil, err
	}
	st := c.Stats()
	return &OptimizeResult{
		Circuit: src.display,
		Tc:      tc,
		Tmin:    tb.tmin,
		Tmax:    tb.tmax,
		Gates:   st.Gates,
		Outcome: out,
	}, nil
}

// SweepRequest asks for an area/delay trade-off curve: the circuit is
// optimized at every point of a Tc grid spanning Tmin·[1.0 … 2.0].
type SweepRequest struct {
	// Circuit is a suite benchmark name. Exactly one of Circuit and
	// Bench must be set.
	Circuit string `json:"circuit,omitempty"`
	// Bench is a raw ISCAS .bench netlist source swept in place of a
	// named benchmark (see OptimizeRequest.Bench).
	Bench string `json:"bench,omitempty"`
	// Points is the grid size (default 11: ratio steps of 0.1; at
	// most MaxSweepPoints).
	Points int `json:"points,omitempty"`
	// Leakage makes every point a leakage-aware run (multi-Vt
	// assignment after sizing) under the engine's leakage policy.
	Leakage bool `json:"leakage,omitempty"`

	// parsed caches the validated Bench netlist (see OptimizeRequest).
	parsed *ParsedBench
}

// Fan-out bounds: requests arrive from the network (popsd), so grid
// sizes are capped to keep a single job's allocation and task count
// sane. A 256-point curve already over-resolves the [1.0, 2.0] ratio
// axis by an order of magnitude.
const (
	MaxSweepPoints = 256
	MaxSuiteCells  = 4096
)

// SweepPoint is one Tc point of the curve.
type SweepPoint struct {
	Ratio    float64 `json:"ratio"` // Tc/Tmin
	Tc       float64 `json:"tc"`    // ps
	Delay    float64 `json:"delay"` // achieved worst delay (ps)
	Area     float64 `json:"area"`  // achieved circuit ΣW (µm)
	Feasible bool    `json:"feasible"`
	Rounds   int     `json:"rounds"`
	Buffers  int     `json:"buffers"`
	// Leakage is present exactly when the point was a leakage-aware
	// run — a run that promoted zero gates still carries the block, so
	// it is never confused with a dynamic-only point.
	Leakage *RowPower `json:"leakage,omitempty"`
}

// RowPower is the per-row power split of a leakage-aware sweep point
// or suite cell (µW).
type RowPower struct {
	Promoted      int     `json:"promoted"`
	DynamicUW     float64 `json:"dynamicUW"`
	LeakageUW     float64 `json:"leakageUW"` // after assignment
	TotalUW       float64 `json:"totalUW"`
	TotalBeforeUW float64 `json:"totalBeforeUW"`
}

// rowPower flattens a leakage result for a sweep/suite row; nil in.
func rowPower(lr *leakage.Result) *RowPower {
	if lr == nil {
		return nil
	}
	return &RowPower{
		Promoted:      lr.Promoted,
		DynamicUW:     lr.DynamicUW,
		LeakageUW:     lr.StaticAfterUW,
		TotalUW:       lr.TotalAfterUW,
		TotalBeforeUW: lr.TotalBeforeUW,
	}
}

// Sweep is a completed trade-off curve, points ordered by rising Tc.
type Sweep struct {
	Circuit string       `json:"circuit"`
	Tmin    float64      `json:"tmin"` // ps, critical path
	Tmax    float64      `json:"tmax"` // ps
	Points  []SweepPoint `json:"points"`
}

// Sweep fans the grid points of one circuit out over the pool. Bounds
// are computed once (through the cache) and every point optimizes its
// own clone of one master netlist, keeping points independent and the
// curve deterministic.
func (e *Engine) Sweep(ctx context.Context, req SweepRequest) (*Sweep, error) {
	if err := validateConstraint(0, 0, req.Points, nil); err != nil {
		return nil, err
	}
	points := req.Points
	if points <= 0 {
		points = 11
	}
	if points == 1 {
		return nil, fmt.Errorf("engine: sweep needs at least 2 points")
	}
	if points > MaxSweepPoints {
		return nil, fmt.Errorf("engine: sweep of %d points exceeds the %d-point cap", points, MaxSweepPoints)
	}
	src, err := e.resolveSource(req.Circuit, req.Bench, req.parsed)
	if err != nil {
		return nil, err
	}
	master, err := src.instantiate()
	if err != nil {
		return nil, err
	}
	pa, _, err := sta.CriticalPath(master, e.model, e.cfg.STA)
	if err != nil {
		return nil, err
	}
	tmin, tmax, err := e.cache.Bounds(e.model, pa, e.cfg.Sizing)
	if err != nil {
		return nil, err
	}
	sw := &Sweep{Circuit: src.display, Tmin: tmin, Tmax: tmax, Points: make([]SweepPoint, points)}
	bounds := &pathBounds{tmin: tmin, tmax: tmax}
	err = e.fanOut(ctx, points, func(i int) error {
		ratio := 1.0 + float64(i)/float64(points-1)
		r, err := e.optimizeTask(ctx, OptimizeRequest{Tc: ratio * tmin, Leakage: req.Leakage}, src, master.Clone, bounds)
		if err != nil {
			return err
		}
		sw.Points[i] = SweepPoint{
			Ratio:    ratio,
			Tc:       r.Tc,
			Delay:    r.Outcome.Delay,
			Area:     r.Outcome.Area,
			Feasible: r.Outcome.Feasible,
			Rounds:   r.Outcome.Rounds,
			Buffers:  r.Outcome.Buffers,
			Leakage:  rowPower(r.Outcome.Leakage),
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return sw, nil
}

// SuiteRequest asks for a batch run over a benchmark list at a set of
// constraint ratios. Entries may mix named suite benchmarks and
// inline .bench netlists.
type SuiteRequest struct {
	// Benchmarks lists suite names; empty selects the whole suite
	// (unless Benches supplies inline netlists).
	Benchmarks []string `json:"benchmarks,omitempty"`
	// Benches lists raw ISCAS .bench netlist sources optimized
	// alongside the named benchmarks — a mixed-entry suite. Each
	// source is parsed once, up front, behind the ingestion validation
	// pass; rows are labelled by the source's "# name" comment or a
	// fingerprint-derived name.
	Benches []string `json:"benches,omitempty"`
	// Ratios lists Tc/Tmin constraint points (default {1.2, 1.5, 2.0}).
	Ratios []float64 `json:"ratios,omitempty"`
	// Leakage makes every cell a leakage-aware run (multi-Vt
	// assignment after sizing) under the engine's leakage policy.
	Leakage bool `json:"leakage,omitempty"`

	// parsed caches the validated Benches netlists, index-aligned with
	// Benches (see OptimizeRequest.parsed).
	parsed []*ParsedBench
}

// SuiteRow is one (benchmark, ratio) cell of a suite run.
type SuiteRow struct {
	Circuit  string  `json:"circuit"`
	Ratio    float64 `json:"ratio"`
	Tc       float64 `json:"tc"`
	Tmin     float64 `json:"tmin"`
	Delay    float64 `json:"delay"`
	Area     float64 `json:"area"`
	Feasible bool    `json:"feasible"`
	Rounds   int     `json:"rounds"`
	Buffers  int     `json:"buffers"`
	// Leakage is present exactly when the cell was a leakage-aware
	// run (see SweepPoint.Leakage).
	Leakage *RowPower `json:"leakage,omitempty"`
}

// SuiteResult is a completed suite run, rows ordered benchmark-major.
type SuiteResult struct {
	Rows []SuiteRow `json:"rows"`
}

// Suite fans a benchmark×ratio grid out over the pool, one task per
// (circuit, Tc) cell — the granularity that load-balances the suite's
// heterogeneous circuit sizes across workers. Rows cover the named
// benchmarks first, then the inline netlists, each crossed with every
// ratio.
func (e *Engine) Suite(ctx context.Context, req SuiteRequest) (*SuiteResult, error) {
	if err := validateConstraint(0, 0, 0, req.Ratios); err != nil {
		return nil, err
	}
	names := req.Benchmarks
	if len(names) == 0 && len(req.Benches) == 0 {
		for _, s := range iscas.Suite() {
			names = append(names, s.Name)
		}
	}
	ratios := req.Ratios
	if len(ratios) == 0 {
		ratios = []float64{1.2, 1.5, 2.0}
	}
	if cells := (len(names) + len(req.Benches)) * len(ratios); cells > MaxSuiteCells {
		return nil, fmt.Errorf("engine: suite of %d cells exceeds the %d-cell cap", cells, MaxSuiteCells)
	}
	// Resolve every entry up front: one typo or bad netlist must not
	// cost a full batch of optimization work before the error surfaces
	// (resolveSource validates names before any fan-out).
	srcs := make([]*source, 0, len(names)+len(req.Benches))
	for _, name := range names {
		s, err := e.resolveSource(name, "", nil)
		if err != nil {
			return nil, err
		}
		srcs = append(srcs, s)
	}
	// Inline entries parse up front too — a bad netlist fails the
	// request before any optimization work starts.
	for i, b := range req.Benches {
		var pb *ParsedBench
		if i < len(req.parsed) {
			pb = req.parsed[i]
		}
		s, err := e.resolveSource("", b, pb)
		if err != nil {
			return nil, fmt.Errorf("benches[%d]: %w", i, err)
		}
		srcs = append(srcs, s)
	}
	rows := make([]SuiteRow, len(srcs)*len(ratios))
	err := e.fanOut(ctx, len(rows), func(i int) error {
		src, ratio := srcs[i/len(ratios)], ratios[i%len(ratios)]
		r, err := e.optimizeTask(ctx, OptimizeRequest{Ratio: ratio, Leakage: req.Leakage}, src, nil, nil)
		if err != nil {
			return fmt.Errorf("%s@%.2f: %w", src.display, ratio, err)
		}
		rows[i] = SuiteRow{
			Circuit:  src.display,
			Ratio:    ratio,
			Tc:       r.Tc,
			Tmin:     r.Tmin,
			Delay:    r.Outcome.Delay,
			Area:     r.Outcome.Area,
			Feasible: r.Outcome.Feasible,
			Rounds:   r.Outcome.Rounds,
			Buffers:  r.Outcome.Buffers,
			Leakage:  rowPower(r.Outcome.Leakage),
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return &SuiteResult{Rows: rows}, nil
}
