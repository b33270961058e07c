package sta

import (
	"repro/internal/delay"
	"repro/internal/netlist"
)

// Session is a reusable timing view of one circuit: it owns a Result
// whose buffers persist across rounds of an optimization loop, so
// repeated timing queries cost no steady-state allocation.
//
// The contract mirrors an incremental STA engine:
//
//   - Analyze returns the current Result, running a full forward pass
//     only when the circuit's structural epoch moved (buffer replay, De
//     Morgan rewrites) or a failed update poisoned the state — the
//     re-analysis lands in the same slices, not fresh ones.
//   - After size/wire/Vt-only writes, the caller repairs the Result in
//     place with Result.Update(changed...); the session then keeps
//     serving the repaired analysis without re-propagating the whole
//     circuit.
//
// A Session is not safe for concurrent use; the concurrent engine gives
// each (circuit, Tc) task its own session over its own netlist clone.
type Session struct {
	circuit *netlist.Circuit
	model   *delay.Model
	cfg     Config
	res     *Result
	rec     Recorder
}

// Recorder observes session-level analysis events; the engine plugs
// its STA-reuse counters in here. Implementations must be safe for
// concurrent use (many sessions share one recorder) and allocation-
// free — Analyzed is called on the round loop's hot path.
type Recorder interface {
	// Analyzed reports one Analyze call: full is true when a complete
	// forward pass ran, false when the cached incremental state was
	// served (the reuse the session exists for).
	Analyzed(full bool)
}

// nopRecorder is the default Recorder: events vanish.
type nopRecorder struct{}

func (nopRecorder) Analyzed(bool) {}

// NewSession builds a session over a circuit. No analysis runs until
// the first Analyze call.
func NewSession(c *netlist.Circuit, m *delay.Model, cfg Config) *Session {
	return &Session{circuit: c, model: m, cfg: cfg, rec: nopRecorder{}}
}

// SetRecorder installs an analysis-event recorder (nil restores the
// no-op). The engine calls it right after creating each task session.
func (s *Session) SetRecorder(r Recorder) {
	if r == nil {
		r = nopRecorder{}
	}
	s.rec = r
}

// SetParallelism does nothing: every analysis runs serially.
//
// Deprecated: ignored; kept only so the benchmark module builds.
func (s *Session) SetParallelism(int) {}

// Circuit returns the circuit under analysis.
func (s *Session) Circuit() *netlist.Circuit { return s.circuit }

// Model returns the delay model the session analyzes with.
func (s *Session) Model() *delay.Model { return s.model }

// Config returns the STA configuration of the session.
func (s *Session) Config() Config { return s.cfg }

// Analyze returns a Result valid for the circuit's current structural
// epoch: the cached analysis when the structure is unchanged, a full
// re-analysis into the session's reused buffers when it moved.
//
//pops:noalloc round loops call this once per step; the reuse is the point
func (s *Session) Analyze() (*Result, error) {
	if s.res != nil && s.res.Fresh() {
		s.rec.Analyzed(false)
		return s.res, nil
	}
	if s.res == nil {
		s.res = &Result{Circuit: s.circuit, Model: s.model, Config: s.cfg} //popslint:ignore noalloc first-call lazy init; every later Analyze reuses it
	}
	if err := s.res.analyze(); err != nil {
		return nil, err
	}
	s.rec.Analyzed(true)
	return s.res, nil
}

// Invalidate drops the cached analysis, forcing the next Analyze to run
// a full forward pass (still into the reused buffers). Size-only writes
// do not need it — repair those with Result.Update — but a caller that
// lost track of what changed can use it as a safe reset.
func (s *Session) Invalidate() {
	if s.res != nil {
		s.res.epoch = staleEpoch
	}
}

// CriticalPath analyzes (incrementally) and extracts the worst path as
// a bounded-path object, like the package-level CriticalPath but
// through the session's reused state.
func (s *Session) CriticalPath() (*delay.Path, *Result, error) {
	res, err := s.Analyze()
	if err != nil {
		return nil, nil, err
	}
	return criticalPathFrom(res, s.model, s.cfg)
}
