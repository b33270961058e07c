// Package pops is a from-scratch Go reproduction of the low-power CMOS
// circuit optimization protocol of Verle, Michel, Azemard, Maurine and
// Auvergne (DATE 2005): "Low Power Oriented CMOS Circuit Optimization
// Protocol".
//
// The library selects, deterministically, the cheapest way to make a
// combinational path meet a delay constraint Tc: transistor (gate)
// sizing, buffer insertion, or De Morgan logic restructuring. The
// selection metrics are the path delay bounds Tmin/Tmax (feasibility
// and constraint-domain classification), the constant-sensitivity
// sizing method (minimum-area constraint distribution, eq. 5-6 of the
// paper), and the per-gate fan-out limit Flimit for buffer insertion
// (Table 2 of the paper).
//
// The package is a facade over the internal substrates:
//
//	tech        process corners (0.25 µm class by default)
//	gate        the primitive cell library and its logical weights
//	netlist     circuit graphs, ISCAS'85 .bench I/O, mutations
//	logic       boolean evaluation and equivalence checking
//	iscas       the paper's benchmark suite (synthetic substitutes)
//	delay       the closed-form timing model (eq. 1-3)
//	sta         slope-propagating timing analysis, K worst paths
//	spice       a transistor-level transient simulator (HSPICE stand-in)
//	sizing      Tmin/Tmax bounds and constraint distribution (§3)
//	buffering   Flimit characterization and buffer insertion (§4.1)
//	restructure De Morgan NOR→NAND rewrites (§4.2)
//	amps        an industrial-style baseline sizer (AMPS stand-in)
//	core        the optimization protocol (Fig. 7)
//	power       dynamic power from toggle-counted activities and
//	            subthreshold leakage from state probabilities
//	leakage     selective multi-Vt assignment (standby leakage)
//	calib       model calibration against the transistor simulator
//	wire        fan-out wire-load model and uncertainty sweeps (§2)
//	le          classic logical effort (ref. [4]) baseline
//	store       durable content-addressed record store: checksummed
//	            on-disk records, write-behind batching, job journal
//	engine      concurrent batch engine (a worker pool running one
//	            serial task per worker), async job store, HTTP service
//
// Quick start:
//
//	proc := pops.DefaultProcess()
//	model := pops.NewModel(proc)
//	circuit, _ := pops.Benchmark("c432")
//	path, _, _ := pops.CriticalPath(circuit, model)
//	bounds, _ := pops.Bounds(model, path)
//	res, _ := pops.Distribute(model, path, 1.3*bounds.Tmin)
//	fmt.Printf("area %.1f µm at %.0f ps\n", res.Area, res.Delay)
//
// Batch workloads — many constraint points, many circuits — go through
// the concurrent engine, which shards (circuit, Tc) units over a
// bounded worker pool and memoizes repeated characterization
// sub-problems, with results bit-identical to the sequential protocol:
//
//	eng, _ := pops.NewEngine(pops.EngineConfig{Workers: 8})
//	curve, _ := eng.Sweep(ctx, pops.SweepRequest{Circuit: "c880", Points: 11})
//	for _, pt := range curve.Points {
//		fmt.Printf("Tc=%.0f ps  area %.1f µm\n", pt.Tc, pt.Area)
//	}
//
// The same engine backs cmd/popsd, a standard-library JSON HTTP daemon
// (POST /v1/optimize, /v1/sweep, /v1/suite; GET /v1/jobs/{id},
// /healthz) for serving the optimizer as a long-running service.
//
// Leakage-aware runs extend the protocol with the selective multi-Vt
// pass (internal/leakage): after sizing, non-critical gates are
// promoted to high-threshold devices under incremental-STA guard,
// cutting subthreshold leakage at zero area and zero dynamic cost —
// requested with OptimizeRequest.Leakage, Protocol.Optimize with
// non-nil LeakageOptions, or the "pops leakage" CLI subcommand.
package pops

import (
	"context"
	"io"
	"log/slog"
	"os"

	"repro/internal/buffering"
	"repro/internal/calib"
	"repro/internal/core"
	"repro/internal/delay"
	"repro/internal/engine"
	"repro/internal/gate"
	"repro/internal/iscas"
	"repro/internal/leakage"
	"repro/internal/logic"
	"repro/internal/netlist"
	"repro/internal/obs"
	"repro/internal/power"
	"repro/internal/sizing"
	"repro/internal/spice"
	"repro/internal/sta"
	"repro/internal/store"
	"repro/internal/tech"
	"repro/internal/wire"
)

// Core types, re-exported for users of the facade.
type (
	// Process is a CMOS technology corner.
	Process = tech.Process
	// Model is the closed-form delay model (eq. 1-3).
	Model = delay.Model
	// Path is a bounded combinational path.
	Path = delay.Path
	// Stage is one gate of a bounded path.
	Stage = delay.Stage
	// Circuit is a combinational netlist.
	Circuit = netlist.Circuit
	// Node is a vertex of a netlist.
	Node = netlist.Node
	// GateType enumerates library cells.
	GateType = gate.Type
	// SizingResult reports a sizing run.
	SizingResult = sizing.Result
	// FlimitEntry is one row of the library characterization.
	FlimitEntry = buffering.TableEntry
	// Protocol is the configured Fig. 7 decision diagram.
	Protocol = core.Protocol
	// ProtocolConfig parameterizes the protocol: the delay model, an
	// optional Flimit table, the round bound and a recorder. The
	// solvers and path extraction always run their defaults.
	ProtocolConfig = core.Config
	// PathOutcome reports the protocol's decision on one path.
	PathOutcome = core.PathOutcome
	// CircuitOutcome reports a circuit-level protocol run.
	CircuitOutcome = core.CircuitOutcome
	// Domain is the constraint-domain classification.
	Domain = core.Domain
	// Simulator is the transistor-level transient simulator.
	Simulator = spice.Simulator
	// STAResult is a timing-analysis outcome.
	STAResult = sta.Result
	// TimingSession is a reusable incremental-STA view of one circuit:
	// cached analyses validated against the netlist's structural
	// mutation epoch, repaired in place after size/Vt writes, fully
	// re-propagated into reused buffers after structural edits.
	TimingSession = sta.Session
	// BenchmarkSpec describes one suite benchmark.
	BenchmarkSpec = iscas.Spec
)

// ErrStaleAnalysis reports use of a timing analysis after the circuit's
// structure changed (re-exported from the sta layer). Run a fresh
// Analyze — or hold the analysis through a TimingSession, which
// refreshes automatically.
var ErrStaleAnalysis = sta.ErrStaleAnalysis

// NewTimingSession builds a reusable incremental timing session over an
// elaborated circuit. Session-based drivers — Protocol.Optimize and the
// batch engine's tasks — analyze once and repair incrementally,
// making repeated timing queries allocation-free; see STAResult.Update
// and docs/ARCHITECTURE.md for the epoch semantics.
func NewTimingSession(c *Circuit, m *Model) *TimingSession {
	return sta.NewSession(c, m, sta.Config{})
}

// Constraint domains (Fig. 6/7).
const (
	Infeasible = core.Infeasible
	HardDomain = core.Hard
	MediumDom  = core.Medium
	WeakDomain = core.Weak
)

// DefaultProcess returns the calibrated 0.25 µm-class corner used by
// all paper experiments.
func DefaultProcess() *Process { return tech.CMOS025() }

// NewModel builds the paper's full delay model on a corner.
func NewModel(p *Process) *Model { return delay.NewModel(p) }

// NewSimulator builds the transistor-level simulator on a corner.
func NewSimulator(p *Process) *Simulator { return spice.New(p) }

// LoadBench parses an ISCAS'85 .bench netlist and elaborates it onto
// the primitive library.
func LoadBench(r io.Reader) (*Circuit, error) {
	c, err := netlist.ReadBench(r, netlist.BenchOptions{})
	if err != nil {
		return nil, err
	}
	return netlist.Elaborate(c)
}

// LoadBenchFile is LoadBench on a file path.
func LoadBenchFile(path string) (*Circuit, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return LoadBench(f)
}

// WriteBench serializes a circuit in .bench format.
func WriteBench(w io.Writer, c *Circuit) error { return netlist.WriteBench(w, c) }

// Bring-your-own-netlist types, re-exported from the netlist and
// engine layers.
type (
	// BenchError is the typed rejection of a user-supplied .bench
	// source; its Kind distinguishes malformed text (BenchSyntax) from
	// invalid netlists (BenchSemantic) and limit violations
	// (BenchTooLarge).
	BenchError = netlist.BenchError
	// BenchErrorKind classifies a BenchError.
	BenchErrorKind = netlist.BenchErrorKind
	// ParsedBench is a validated, elaborated inline netlist with its
	// canonical content fingerprint — ready to optimize.
	ParsedBench = engine.ParsedBench
)

// Rejection classes of a user-supplied .bench source, re-exported.
const (
	// BenchSyntax marks text that is not well-formed .bench.
	BenchSyntax = netlist.BenchSyntax
	// BenchSemantic marks well-formed text that is not a valid
	// combinational netlist (cycles, duplicates, unsupported gates).
	BenchSemantic = netlist.BenchSemantic
	// BenchTooLarge marks a source exceeding an ingestion limit.
	BenchTooLarge = netlist.BenchTooLarge
)

// ParseBench parses, validates and elaborates an inline .bench source
// behind the hardened ingestion pass (loop detection, duplicate,
// arity and undefined-net checks). Rejections are typed *BenchError
// values. Like LoadBenchFile, it applies no size caps — those guard
// the untrusted HTTP boundary (popsd), not trusted local sources.
func ParseBench(src string) (*ParsedBench, error) { return engine.ParseBench(src) }

// Fingerprint returns the canonical content hash of a circuit — the
// identity the batch engine memoizes results under, independent of the
// circuit's name.
func Fingerprint(c *Circuit) string { return netlist.Fingerprint(c) }

// OptimizeBench runs the full circuit protocol on an inline .bench
// source through a batch engine: the same ingestion, validation and
// memoization path as POST /v1/optimize {"bench": …} and
// `pops optimize -bench`, so results are byte-identical across all
// three entry points. Constraint fields of req (Tc, Ratio, Leakage)
// apply; its Circuit field is ignored.
func OptimizeBench(ctx context.Context, e *Engine, src string, req OptimizeRequest) (*OptimizeResult, error) {
	req.Circuit = ""
	req.Bench = src
	return e.Optimize(ctx, req)
}

// Benchmarks lists the paper's benchmark suite.
func Benchmarks() []BenchmarkSpec { return iscas.Suite() }

// Benchmark instantiates a suite benchmark by name ("c432", "Adder16",
// "fpd", …), the genuine embedded "c17", or a structural ripple-carry
// adder ("rca16" for 16 bits, any width).
func Benchmark(name string) (*Circuit, error) { return iscas.Load(name) }

// Analyze runs slope-propagating STA over an elaborated circuit.
func Analyze(c *Circuit, m *Model) (*STAResult, error) {
	return sta.Analyze(c, m, sta.Config{})
}

// CriticalPath extracts the worst path of a circuit as a bounded path.
func CriticalPath(c *Circuit, m *Model) (*Path, *STAResult, error) {
	return sta.CriticalPath(c, m, sta.Config{})
}

// KWorstPaths extracts the k most critical paths, worst first.
func KWorstPaths(c *Circuit, m *Model, k int) ([]*Path, error) {
	return sta.KWorstBoundedPaths(c, m, sta.Config{}, k)
}

// PathBounds carries the delay-space exploration of §3.1.
type PathBounds struct {
	Tmin float64 // minimum achievable delay (ps)
	Tmax float64 // all-minimum-drive delay (ps)
}

// Bounds computes Tmin and Tmax of a bounded path. The path is left
// sized at the minimum-delay point.
func Bounds(m *Model, pa *Path) (PathBounds, error) {
	q := pa.Clone()
	tmax := sizing.Tmax(m, q)
	r, err := sizing.Tmin(m, pa, sizing.Options{NoTrace: true})
	if err != nil {
		return PathBounds{}, err
	}
	return PathBounds{Tmin: r.Delay, Tmax: tmax}, nil
}

// Distribute sizes the path to meet tc (ps) at minimum area with the
// constant sensitivity method. It returns sizing.ErrInfeasible (wrapped)
// when tc is below the path's minimum achievable delay.
func Distribute(m *Model, pa *Path, tc float64) (*SizingResult, error) {
	return sizing.Distribute(m, pa, tc, sizing.Options{})
}

// ErrInfeasible is re-exported from the sizing layer.
var ErrInfeasible = sizing.ErrInfeasible

// CharacterizeLibrary computes the buffer-insertion fan-out limits of
// every library gate driven by an inverter (the paper's Table 2).
func CharacterizeLibrary(m *Model) []FlimitEntry {
	return buffering.CharacterizeLibrary(m, nil, buffering.Options{})
}

// NewProtocol configures the Fig. 7 protocol. A zero Config needs only
// the Model field; the library is characterized on first use.
func NewProtocol(cfg ProtocolConfig) (*Protocol, error) { return core.NewProtocol(cfg) }

// Equivalent checks functional equivalence of two circuits (exhaustive
// up to 16 inputs, randomized above). A nil counterexample means
// equivalent.
func Equivalent(a, b *Circuit, trials int, seed int64) (*logic.Counterexample, error) {
	return logic.Equivalent(a, b, trials, seed)
}

// Power estimation and model calibration types, re-exported.
type (
	// PowerEstimate reports dynamic power of a sized netlist.
	PowerEstimate = power.Estimate
	// PowerOptions tunes the activity extraction.
	PowerOptions = power.Options
	// Calibration is a fitted model parameter set.
	Calibration = calib.Result
	// SlackReport carries required times and slacks against Tc.
	SlackReport = sta.SlackReport
)

// Multi-Vt (leakage) types, re-exported from internal/tech, power and
// leakage.
type (
	// VtClass enumerates threshold flavors (LVT, SVT, HVT).
	VtClass = tech.VtClass
	// VtSpec characterizes one threshold class of a process.
	VtSpec = tech.VtSpec
	// StaticPowerEstimate reports subthreshold leakage power.
	StaticPowerEstimate = power.StaticEstimate
	// LeakageOptions parameterizes the selective Vt-assignment pass.
	LeakageOptions = leakage.Options
	// LeakageResult reports a Vt-assignment run (promotions + power
	// breakdown).
	LeakageResult = leakage.Result
)

// Threshold classes of the multi-Vt extension, re-exported. SVT is the
// default device every circuit starts from.
const (
	SVT = tech.SVT
	LVT = tech.LVT
	HVT = tech.HVT
)

// EstimateStaticPower computes the subthreshold leakage power of a
// circuit: per-gate off-currents by Vt class, size, and simulated
// input-state probability.
func EstimateStaticPower(c *Circuit, p *Process, opts PowerOptions) (*StaticPowerEstimate, error) {
	return power.EstimateStatic(c, p, opts)
}

// AssignVt runs the selective multi-Vt pass on an already-optimized
// circuit: gates on non-critical paths are greedily promoted to higher
// thresholds, each move verified by incremental STA against tc. Use
// Protocol.Optimize with non-nil LeakageOptions for the combined
// size-then-assign flow.
func AssignVt(ctx context.Context, c *Circuit, m *Model, tc float64, opts LeakageOptions) (*LeakageResult, error) {
	return leakage.Assign(ctx, c, m, tc, opts)
}

// EstimatePower computes the dynamic power of a circuit under random
// switching activity (toggle-counted by logic simulation).
func EstimatePower(c *Circuit, p *Process, opts PowerOptions) (*PowerEstimate, error) {
	return power.EstimateCircuit(c, p, opts)
}

// Calibrate fits the delay model's S0 and logical weights from the
// transistor-level simulator — the paper's SPICE-calibration step.
// A nil type list calibrates the whole inverting library.
func Calibrate(p *Process, types []GateType) (*Calibration, error) {
	if types == nil {
		types = calib.DefaultTypes()
	}
	return calib.Calibrate(p, nil, types, calib.Options{})
}

// ApplyWireLoads estimates routing capacitance on every net with the
// default fan-out-based wire-load model and returns the total applied
// (fF). Optimization after this reflects pre-layout loading.
func ApplyWireLoads(c *Circuit) (float64, error) {
	return wire.Apply(c, wire.Default025())
}

// Concurrent batch-engine types, re-exported from internal/engine.
type (
	// Engine is the concurrent batch optimizer: a bounded worker pool
	// plus a shared characterization cache.
	Engine = engine.Engine
	// EngineConfig parameterizes NewEngine: the worker-pool bound and
	// an optional durable result store. Neither changes a result; the
	// engine always runs the protocol's defaults on the CMOS025 corner.
	EngineConfig = engine.Config
	// OptimizeRequest is one (circuit, Tc) engine job.
	OptimizeRequest = engine.OptimizeRequest
	// OptimizeResult reports one optimized circuit.
	OptimizeResult = engine.OptimizeResult
	// SweepRequest asks for a Tc-grid trade-off curve.
	SweepRequest = engine.SweepRequest
	// Sweep is the completed area/delay trade-off curve.
	Sweep = engine.Sweep
	// SweepPoint is one Tc point of a Sweep.
	SweepPoint = engine.SweepPoint
	// SuiteRequest asks for a benchmark×ratio batch run.
	SuiteRequest = engine.SuiteRequest
	// SuiteResult is a completed batch run.
	SuiteResult = engine.SuiteResult
	// EngineServer is the popsd JSON HTTP service over an Engine.
	EngineServer = engine.Server
	// ServerOption customizes NewEngineServer.
	ServerOption = engine.ServerOption
	// MetricsSnapshot is a flat name{labels} → value reading of every
	// engine instrument: counters and gauges by value, histograms as
	// _count/_sum pairs (see Engine.MetricsSnapshot and GET /metrics).
	MetricsSnapshot = obs.Snapshot
)

// NewEngine builds a concurrent batch engine. A zero config selects
// GOMAXPROCS workers and a memory-only result memo. Set
// EngineConfig.Results to a ResultStore to add a durable tier behind
// the in-memory result memo (see the durability types below).
func NewEngine(cfg EngineConfig) (*Engine, error) { return engine.New(cfg) }

// Durable result-store types, re-exported from internal/store. The
// store is the optional second tier behind the engine's in-memory
// result memo (EngineConfig.Results) and the substrate of popsd's
// -data-dir crash durability; see the "Durability" section of
// docs/ARCHITECTURE.md.
type (
	// ResultStore is the pluggable durable key/value tier: Get, Put,
	// Delete, Scan and Close over checksummed records addressed by
	// fingerprint-derived keys.
	ResultStore = store.Store
	// MemoryStore is the in-process ResultStore backend (tests,
	// ephemeral tiers).
	MemoryStore = store.Memory
	// DiskStore is the on-disk ResultStore backend: one checksummed
	// record file per key, written by atomic rename, corrupt records
	// skipped with a logged warning on open.
	DiskStore = store.Disk
	// StoreBatcher is the asynchronous write-behind front of a
	// ResultStore: Puts coalesce per key and flush on size, interval
	// and Close.
	StoreBatcher = store.Batcher
	// StoreBatcherOptions tunes NewStoreBatcher.
	StoreBatcherOptions = store.BatcherOptions
	// StoreCorruptError is the typed verdict on a damaged record: the
	// bytes are unreadable, as opposed to absent (ErrResultNotFound).
	StoreCorruptError = store.CorruptError
	// JobJournal is the append-only, fsync-per-record job log popsd
	// replays after a crash.
	JobJournal = store.Journal
	// JournalEntry is one surviving record of a reopened JobJournal.
	JournalEntry = store.JournalEntry
)

// Result-store sentinel errors, re-exported.
var (
	// ErrResultNotFound reports a Get for an absent key.
	ErrResultNotFound = store.ErrNotFound
	// ErrResultStoreClosed reports an operation on a closed store or
	// batcher.
	ErrResultStoreClosed = store.ErrClosed
)

// NewMemoryStore builds the in-process ResultStore backend.
func NewMemoryStore() *MemoryStore { return store.NewMemory() }

// OpenDiskStore opens (creating if needed) the on-disk ResultStore
// backend under dir. Records that fail their checksum are skipped with
// a warning on log — one damaged record never poisons the store. A nil
// log discards.
func OpenDiskStore(dir string, log *slog.Logger) (*DiskStore, error) {
	return store.OpenDisk(dir, log)
}

// NewStoreBatcher wraps a ResultStore with asynchronous write-behind
// batching: Puts coalesce in memory and flush when the pending set
// grows past StoreBatcherOptions.MaxPending, every FlushInterval, and
// on Close. Reads see pending writes immediately. Closing the batcher
// flushes but does not close the underlying store.
func NewStoreBatcher(under ResultStore, opts StoreBatcherOptions) *StoreBatcher {
	return store.NewBatcher(under, opts)
}

// OpenJobJournal opens (creating if needed) an append-only job journal
// at path and returns the surviving entries of a previous run — a
// corrupt tail is truncated with a warning on log, never an error.
// Pass the journal to WithServerJournal and the entries to
// EngineServer.Replay to restore crashed jobs.
func OpenJobJournal(path string, log *slog.Logger) (*JobJournal, []JournalEntry, error) {
	return store.OpenJournal(path, log)
}

// WithServerJournal installs a job journal on an engine server:
// accepted jobs are journaled before they run and marked terminal when
// they finish, so EngineServer.Replay can re-submit work lost to a
// crash. popsd wires this behind -data-dir.
func WithServerJournal(j *JobJournal) ServerOption { return engine.WithJournal(j) }

// NewEngineServer wires the popsd HTTP service (an http.Handler) over
// an engine; jobs submitted through it run under ctx.
func NewEngineServer(ctx context.Context, e *Engine, opts ...ServerOption) *EngineServer {
	return engine.NewServer(ctx, e, opts...)
}

// WithServerLogger installs the structured logger behind an engine
// server's access and job logs (default: discard). popsd builds its
// slog root from -log-level/-log-format and passes it here.
func WithServerLogger(l *slog.Logger) ServerOption { return engine.WithLogger(l) }
