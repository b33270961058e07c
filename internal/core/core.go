// Package core implements the paper's optimization protocol (Fig. 7):
//
//	Library characterization (Flimit determination)
//	Characterization of the optimization space:
//	    path classification, delay bounds Tmax/Tmin
//	Delay constraint distribution:
//	    Tc < Tmin                → structure modification (buffers, then
//	                               De Morgan rewrites at circuit level)
//	    weak   (Tc > 2.5·Tmin)   → gate sizing
//	    medium (1.2 < Tc/Tmin
//	            < 2.5)           → buffer insertion (area reduction)
//	    hard   (Tc < 1.2·Tmin)   → buffer insertion & global sizing
//
// The path-level entry point OptimizePath realizes the decision diagram
// on a bounded path; the circuit-level driver Protocol.Optimize iterates
// it over the worst paths of a netlist, replaying buffer insertions as
// logic-preserving inverter pairs and escalating to NOR→NAND
// restructuring when the constraint is below the buffered minimum
// delay, then optionally runs the selective multi-Vt pass of
// internal/leakage on the same timing session.
package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"time"

	"repro/internal/buffering"
	"repro/internal/delay"
	"repro/internal/gate"
	"repro/internal/leakage"
	"repro/internal/netlist"
	"repro/internal/restructure"
	"repro/internal/sizing"
	"repro/internal/sta"
)

// Domain is the constraint-domain classification of Fig. 6/7.
type Domain int

const (
	// Infeasible: Tc below the minimum achievable delay — structure
	// modification required.
	Infeasible Domain = iota
	// Hard: Tc < 1.2·Tmin — buffer insertion and global sizing.
	Hard
	// Medium: 1.2·Tmin ≤ Tc ≤ 2.5·Tmin — buffer insertion saves area.
	Medium
	// Weak: Tc > 2.5·Tmin — plain gate sizing suffices.
	Weak
)

// Domain boundary ratios from the paper (Fig. 6).
const (
	HardBound   = 1.2
	MediumBound = 2.5
)

// String names the domain as in the paper.
func (d Domain) String() string {
	switch d {
	case Infeasible:
		return "infeasible"
	case Hard:
		return "hard"
	case Medium:
		return "medium"
	case Weak:
		return "weak"
	}
	return fmt.Sprintf("Domain(%d)", int(d))
}

// Classify places a constraint against the path's minimum delay.
func Classify(tc, tmin float64) Domain {
	switch {
	case tc < tmin:
		return Infeasible
	case tc < HardBound*tmin:
		return Hard
	case tc <= MediumBound*tmin:
		return Medium
	default:
		return Weak
	}
}

// Config parameterizes the protocol.
type Config struct {
	Model *delay.Model
	// Limits is the Flimit characterization; nil triggers
	// CharacterizeLibrary on first use.
	Limits map[gate.Type]float64
	// MaxRounds bounds the optimize-worst-path iterations of the
	// circuit driver (default 12).
	MaxRounds int
	// Recorder receives round and stage events; nil selects a no-op.
	// Implementations must be concurrency-safe and allocation-free on
	// the per-round call (see the Recorder doc).
	Recorder Recorder
}

// Protocol is a configured instance of the Fig. 7 decision diagram.
type Protocol struct {
	cfg Config
	rec Recorder
}

// NewProtocol validates the configuration and characterizes the
// library if no Flimit table was supplied.
func NewProtocol(cfg Config) (*Protocol, error) {
	if cfg.Model == nil {
		return nil, fmt.Errorf("core: Config.Model is required")
	}
	if err := cfg.Model.Proc.Validate(); err != nil {
		return nil, err
	}
	if cfg.Limits == nil {
		entries := buffering.CharacterizeLibrary(cfg.Model, nil, buffering.Options{})
		if len(entries) == 0 {
			return nil, fmt.Errorf("core: library characterization produced no Flimit entries")
		}
		cfg.Limits = buffering.Limits(entries)
	}
	if cfg.MaxRounds <= 0 {
		cfg.MaxRounds = 12
	}
	rec := cfg.Recorder
	if rec == nil {
		rec = nopRecorder{}
	}
	return &Protocol{cfg: cfg, rec: rec}, nil
}

// Limits exposes the Flimit table in use.
func (p *Protocol) Limits() map[gate.Type]float64 { return p.cfg.Limits }

// Model exposes the delay model in use.
func (p *Protocol) Model() *delay.Model { return p.cfg.Model }

// Bounds is the solved delay space of one bounded path (§3.1): Tmin
// and Tmax, plus the Tmin-sized stage sizes and the sizing result that
// produced them. SolveBounds builds one on the protocol's model with a
// round's solver options, so it holds exactly the solve a round runs on
// the same path: Optimize's first round adopts it instead of calling
// sizing.Tmin again when the extracted worst path is the path it
// solved. A Bounds is read-only once built and may be shared across
// goroutines.
type Bounds struct {
	Tmin float64 // minimum achievable delay (ps)
	Tmax float64 // all-minimum-drive delay (ps)

	proto  *Protocol     // the protocol (and so the model) that solved it
	tauIn  float64       // the solved path's entry transition
	stages []delay.Stage // the solved path's stages, Node links dropped
	sizes  []float64     // stage input capacitances at the Tmin point
	res    sizing.Result // the Tmin solve's result (untraced)
}

// SolveBounds solves pa's delay bounds on the protocol's model,
// exactly as a round does: Tmax on one copy, Tmin (untraced,
// on a scratch workspace) on another. pa is not modified. The result
// keeps no link to pa's netlist nodes.
func (p *Protocol) SolveBounds(pa *delay.Path) (*Bounds, error) {
	m := p.cfg.Model
	opts := sizing.Options{NoTrace: true, Workspace: &sizing.Workspace{}}
	b := &Bounds{proto: p, tauIn: pa.TauIn, stages: append([]delay.Stage(nil), pa.Stages...)}
	for i := range b.stages {
		b.stages[i].Node = nil
	}
	b.Tmax = sizing.Tmax(m, pa.Clone())
	work := pa.Clone()
	r, err := sizing.Tmin(m, work, opts)
	if err != nil {
		return nil, err
	}
	b.Tmin = r.Delay
	b.res = *r
	b.sizes = work.Sizes()
	return b, nil
}

// solves reports whether b is p's solve of pa: the same stages (cell,
// size, off-path load, inserted flag) and entry transition — every
// input of Tmin and Tmax — solved on p's model.
//
//pops:noalloc
func (b *Bounds) solves(p *Protocol, pa *delay.Path) bool {
	if b == nil || b.proto != p || b.tauIn != pa.TauIn || len(b.stages) != len(pa.Stages) {
		return false
	}
	for i := range pa.Stages {
		s, t := &pa.Stages[i], &b.stages[i]
		if s.Cell != t.Cell || s.CIn != t.CIn || s.COff != t.COff || s.Inserted != t.Inserted {
			return false
		}
	}
	return true
}

// PathOutcome reports the protocol's decision and result on one path.
type PathOutcome struct {
	Domain   Domain
	Tmin     float64 // minimum achievable delay of the original structure (ps)
	Tmax     float64 // all-minimum-drive delay (ps)
	Tc       float64 // the constraint (ps)
	Method   string  // technique the protocol selected
	Delay    float64 // achieved worst-edge delay (ps)
	Area     float64 // achieved ΣW (µm)
	Buffers  int     // buffers inserted
	Feasible bool    // whether Tc was met
	Path     *delay.Path
}

// stepWorkspace is the per-round scratch of the circuit driver: path
// copies, critical-node and sizing buffers, and the StepResult/PathOutcome
// values themselves. One workspace serves one Optimize run (and must not
// be shared across goroutines), so a steady-state size-only round
// performs no heap allocation — pinned by
// TestOptimizeStepSteadyStateAllocationFree. Structural rounds (buffer
// replay, De Morgan rewrites) still allocate for their mutations.
type stepWorkspace struct {
	sizing    sizing.Workspace
	crit      []*netlist.Node // critical-path extraction buffer
	changed   []*netlist.Node // incremental-update node buffer
	path      delay.Path      // extracted worst path
	tmaxPath  delay.Path      // Tmax throwaway copy
	work      delay.Path      // Tmin/Distribute working copy
	plain     delay.Path      // plain-sizing comparison copy
	bounds    *Bounds         // a solve the next round may adopt (Optimize's first round only)
	outcome   PathOutcome
	step      StepResult
	pathNames []string // per-round path names, formatted once up front
}

// roundName returns the "<circuit>/round<N>" path name for a round.
// All MaxRounds names are formatted on first use, so steady-state rounds
// pay no Sprintf; indices past the precomputed window (possible only for
// external drivers that loop beyond MaxRounds) fall back to formatting.
func (ws *stepWorkspace) roundName(circuit string, round, maxRounds int) string {
	if ws.pathNames == nil {
		n := maxRounds
		if n <= round {
			n = round + 1
		}
		ws.pathNames = make([]string, n)
		for i := range ws.pathNames {
			ws.pathNames[i] = fmt.Sprintf("%s/round%d", circuit, i)
		}
	}
	if round < len(ws.pathNames) {
		return ws.pathNames[round]
	}
	return fmt.Sprintf("%s/round%d", circuit, round)
}

// OptimizePath runs the Fig. 7 decision diagram on a bounded path for
// constraint tc. The input path is not modified; the outcome carries
// the optimized copy.
func (p *Protocol) OptimizePath(pa *delay.Path, tc float64) (*PathOutcome, error) {
	return p.optimizePath(&stepWorkspace{}, pa, tc)
}

// optimizePath is OptimizePath over a workspace: path copies and sizing
// results live in its buffers, the sizing iteration trace is suppressed
// (pure observation — identical numbers), and the returned outcome
// points into the workspace: it is valid until the next round. The
// buffering optimizer allocates its own structures (its calls receive a
// workspace-free Options so its internal sizing runs cannot alias the
// round's live results).
//
// Each sub-problem is solved once. When the workspace carries a Bounds
// that solved pa, its Tmin sizes and result stand in for the round's
// own Tmax/Tmin solve (the workspace's Bounds is consumed either way).
// The buffered optimizers start from the round's own solves: the
// infeasible branch hands its Tmin-sized path to MinDelayWithBuffers,
// the hard branch its plain Distribute to the Global-mode
// DistributeWithBuffers.
//
//pops:noalloc every per-round copy lands in reused buffers
func (p *Protocol) optimizePath(ws *stepWorkspace, pa *delay.Path, tc float64) (*PathOutcome, error) {
	m := p.cfg.Model
	opts := sizing.Options{NoTrace: true, Workspace: &ws.sizing}
	work := pa.CopyInto(&ws.work)
	out := &ws.outcome
	*out = PathOutcome{}
	bufOpts := opts
	bufOpts.Workspace = nil

	// Delay bounds: Tmax on a throwaway copy, Tmin on the working copy —
	// or both from the solve the workspace was handed.
	var rmin *sizing.Result
	if b := ws.bounds; b.solves(p, pa) {
		for i := range work.Stages {
			work.Stages[i].CIn = b.sizes[i]
		}
		rmin = &b.res
		out.Tmax = b.Tmax
	} else {
		out.Tmax = sizing.Tmax(m, pa.CopyInto(&ws.tmaxPath))
		var err error
		if rmin, err = sizing.Tmin(m, work, opts); err != nil {
			return nil, err
		}
	}
	ws.bounds = nil
	out.Tmin = rmin.Delay
	out.Tc = tc
	out.Domain = Classify(tc, rmin.Delay)

	switch out.Domain {
	case Weak:
		res, err := sizing.Distribute(m, work, tc, opts)
		if err != nil {
			return nil, err
		}
		out.fill("sizing", work, res.Delay, res.Area, 0, true)
		return out, nil

	case Medium:
		// Sizing meets the constraint; buffer insertion may do so at
		// lower area (load dilution lets the gates shrink).
		plain := pa.CopyInto(&ws.plain)
		resPlain, err := sizing.Distribute(m, plain, tc, opts)
		if err != nil {
			return nil, err
		}
		buf, errBuf := buffering.DistributeWithBuffers(m, pa, tc, p.cfg.Limits, buffering.Local, bufOpts, buffering.Solved{})
		if errBuf == nil && buf.Delay <= tc*(1+1e-6) && buf.Area < resPlain.Area {
			out.fill("buffer-insertion", buf.Path, buf.Delay, buf.Area, buf.Inserted, true)
			return out, nil
		}
		out.fill("sizing", plain, resPlain.Delay, resPlain.Area, 0, true)
		return out, nil

	case Hard:
		plain := pa.CopyInto(&ws.plain)
		resPlain, err := sizing.Distribute(m, plain, tc, opts)
		if err != nil {
			return nil, err
		}
		buf, errBuf := buffering.DistributeWithBuffers(m, pa, tc, p.cfg.Limits, buffering.Global, bufOpts,
			buffering.Solved{Path: plain, Result: resPlain})
		if errBuf == nil && buf.Delay <= tc*(1+1e-6) && buf.Area < resPlain.Area {
			out.fill("buffer-insertion+global-sizing", buf.Path, buf.Delay, buf.Area, buf.Inserted, true)
			return out, nil
		}
		out.fill("sizing", plain, resPlain.Delay, resPlain.Area, 0, true)
		return out, nil

	default: // Infeasible: structure modification.
		best, err := buffering.MinDelayWithBuffers(m, pa, buffering.Solved{Path: work, Result: rmin}, p.cfg.Limits, bufOpts)
		if err != nil {
			return nil, err
		}
		if best.Delay <= tc {
			res, err := sizing.Distribute(m, best.Path, tc, opts)
			if err != nil && !isInfeasible(err) {
				return nil, err
			}
			if err == nil {
				out.fill("buffer-insertion+global-sizing", best.Path, res.Delay, res.Area, best.Inserted, true)
				return out, nil
			}
		}
		// Even the buffered structure cannot reach tc at path level;
		// report the best effort. The circuit driver escalates to
		// De Morgan restructuring.
		out.fill("structure-modification-required", best.Path, best.Delay, best.Area, best.Inserted, false)
		return out, nil
	}
}

//pops:noalloc
func (o *PathOutcome) fill(method string, pa *delay.Path, d, a float64, buffers int, feasible bool) {
	o.Method = method
	o.Path = pa
	o.Delay = d
	o.Area = a
	o.Buffers = buffers
	o.Feasible = feasible
}

func isInfeasible(err error) bool {
	return errors.Is(err, sizing.ErrInfeasible)
}

// CircuitOutcome reports the circuit-level protocol run.
type CircuitOutcome struct {
	Tc           float64
	Delay        float64 // final STA worst delay (ps)
	Area         float64 // final circuit ΣW (µm)
	Feasible     bool
	Rounds       int
	Buffers      int // inverter pairs inserted
	NorRewrites  int // NOR gates replaced by NAND duals
	PathOutcomes []*PathOutcome

	// Leakage reports the selective Vt-assignment pass when Optimize
	// ran with leakage options; nil otherwise.
	Leakage *leakage.Result
}

// StepResult reports one round of the circuit driver (one
// OptimizeStep call).
type StepResult struct {
	// Met is true when the circuit already satisfied Tc at entry; no
	// work was performed and every other field is zero.
	Met bool
	// WorstDelay is the STA worst delay observed at entry (ps).
	WorstDelay float64
	// Outcome is the path protocol's decision for this round.
	Outcome *PathOutcome
	// Buffers counts inverter pairs replayed into the netlist.
	Buffers int
	// NorRewrites counts NOR gates replaced by NAND duals.
	NorRewrites int
	// Progress reports whether the round changed the netlist
	// structure when the path protocol failed to meet the constraint
	// (buffer insertion or a De Morgan rewrite). When Outcome is
	// infeasible and Progress is false the driver is out of moves.
	Progress bool
}

// stepSlack: path-level rounds target a slightly tighter constraint so
// the netlist-level verification lands strictly inside Tc despite the
// bisection tolerance of the distribution step. The margin grows with
// the round count: paths sharing stages perturb each other when
// resized (the paper's "adjacent upward paths"), and a fixed margin
// can plateau just above Tc — progressive tightening forces strict
// progress until the whole path set converges. Capped at 2%.
const stepSlack = 5e-4

// NewTimingSession builds the reusable incremental-STA session Optimize
// and the step drivers run on: one session per circuit, its buffers
// recycled across every round, full re-analysis only when the circuit's
// structural epoch moves.
func (p *Protocol) NewTimingSession(c *netlist.Circuit) *sta.Session {
	return sta.NewSession(c, p.cfg.Model, sta.Config{})
}

// OptimizeStep runs one round of the circuit driver: analyze
// (incrementally, through the session), extract the worst path, run the
// Fig. 7 path protocol at a progressively tightened constraint, write
// the sizes back, replay inserted buffers as inverter pairs, and
// escalate to De Morgan NOR rewrites when the path protocol cannot
// reach Tc. The round index selects the tightening margin; callers
// iterating from zero reproduce Optimize's rounds exactly. The session's
// circuit is modified in place.
//
// Size-only rounds repair the session's timing with an incremental
// Update over the resized path; structural rounds (buffer replay, NOR
// rewrites) bump the circuit's epoch, and the next step re-analyzes
// into the session's reused buffers. Either way the timing handed to
// the following round is bit-identical to a fresh full analysis.
//
// Each call runs on a fresh workspace, so the result stays valid; the
// exported step lets external drivers (tracing replays, tests) observe
// every round while remaining result-identical to Optimize.
func (p *Protocol) OptimizeStep(sess *sta.Session, tc float64, round int) (*StepResult, error) {
	return p.optimizeStep(&stepWorkspace{}, sess, tc, round)
}

// optimizeStep is OptimizeStep over a workspace: the critical path, its
// bounded-path object, the sizing scratch and the returned
// StepResult/PathOutcome all live in reused buffers, so a size-only
// round allocates nothing. The returned result is valid until the next
// optimizeStep call with the same workspace — Optimize copies what it
// keeps.
//
//pops:noalloc size-only rounds are the measured zero-alloc path
func (p *Protocol) optimizeStep(ws *stepWorkspace, sess *sta.Session, tc float64, round int) (*StepResult, error) {
	m := p.cfg.Model
	c := sess.Circuit()
	res, err := sess.Analyze()
	if err != nil {
		return nil, err
	}
	st := &ws.step
	*st = StepResult{}
	st.WorstDelay = res.WorstDelay
	if res.WorstDelay <= tc {
		st.Met = true
		return st, nil
	}
	tighten := stepSlack * float64(1+round)
	if tighten > 0.02 {
		tighten = 0.02
	}
	tcEff := tc * (1 - tighten)
	ws.crit = res.AppendCriticalNodes(ws.crit)
	if len(ws.crit) == 0 {
		//popslint:ignore noalloc degenerate-circuit error path
		return nil, fmt.Errorf("core: circuit %s has no critical path", c.Name)
	}
	name := ws.roundName(c.Name, round, p.cfg.MaxRounds)
	if err := sta.PathFromNodesInto(&ws.path, name, ws.crit, m, sta.Config{}); err != nil {
		return nil, err
	}
	po, err := p.optimizePath(ws, &ws.path, tcEff)
	if err != nil {
		return nil, err
	}
	st.Outcome = po

	// Apply sizes of the original stages back to the netlist.
	po.Path.WriteBack()

	// Replay inserted buffers as inverter pairs.
	inserted, err := replayBuffers(c, m, po.Path)
	if err != nil {
		return nil, err
	}
	st.Buffers = inserted

	// The path's original stages: the De Morgan candidates below and
	// the nodes the incremental update repairs.
	ws.changed = appendLogicNodes(ws.changed[:0], po.Path)
	if !po.Feasible {
		// Structure modification: De Morgan the path's NORs.
		rep, err := restructure.RewritePathNORs(c, ws.changed)
		if err != nil {
			return nil, err
		}
		st.NorRewrites = len(rep.Rewritten)
		st.Progress = len(rep.Rewritten) > 0 || inserted > 0
	}

	// Repair the session's timing in place when the round only resized
	// gates; after structural mutations the epoch has moved and the next
	// Analyze re-propagates the whole circuit into the same buffers.
	if res.Fresh() {
		if _, err := res.Update(ws.changed...); err != nil {
			return nil, err
		}
	}
	p.rec.RoundDone(st.Buffers > 0 || st.NorRewrites > 0)
	return st, nil
}

// Summarize closes a stepped run: it re-analyzes the circuit (served
// from the session's incremental state when still fresh) and fills the
// outcome's final delay, feasibility and area. External step drivers
// call it after their round loop; Optimize uses it for its own
// epilogue.
func (p *Protocol) Summarize(sess *sta.Session, out *CircuitOutcome) error {
	res, err := sess.Analyze()
	if err != nil {
		return err
	}
	out.Delay = res.WorstDelay
	out.Feasible = res.WorstDelay <= out.Tc
	out.Area = sess.Circuit().Area(p.cfg.Model.Proc.WidthForCap)
	return nil
}

// Optimize drives the protocol over the session's circuit against
// constraint tc (ps): repeatedly extract the worst path, run the path
// protocol, write the sizes back, replay buffer insertions as
// logic-preserving inverter pairs, and — when even buffering cannot
// reach Tc — rewrite the path's NOR gates by De Morgan duals before
// retrying. Cancellation is honored between rounds. The circuit is
// modified in place; clone it first to keep the original. The session
// (usually from NewTimingSession) must run the default sta.Config, as
// the rounds' path extraction does.
//
// A non-nil bounds is the session circuit's critical-path solve
// (SolveBounds) — a batch engine solves it to derive Tc from a ratio.
// The first round adopts its Tmin solution instead of solving the same
// sub-problem again, provided the worst path it extracts is the path
// bounds solved; otherwise it solves its own. The outcome is identical
// with or without bounds.
//
// A non-nil leak then runs the selective multi-Vt pass of
// internal/leakage on the same session: gates on non-critical paths
// are promoted to higher-threshold devices, each move verified by
// incremental STA against Tc. The outcome's Delay and Feasible then
// reflect the final Vt-aware timing and its Leakage field carries the
// power breakdown. A zero *leak is the default policy.
//
// The loop owns a step workspace, so a steady-state size-only round
// performs no heap allocation; only the retained per-round PathOutcome
// record is copied out of it. The sequential facade, the CLI and the
// concurrent engine all run this one loop, so their results are
// byte-identical.
func (p *Protocol) Optimize(ctx context.Context, sess *sta.Session, tc float64, leak *leakage.Options, bounds *Bounds) (*CircuitOutcome, error) {
	if !(tc > 0) {
		return nil, fmt.Errorf("core: non-positive constraint %g", tc)
	}
	ws := &stepWorkspace{bounds: bounds}
	out := &CircuitOutcome{Tc: tc}
	start := time.Now()
	for round := 0; round < p.cfg.MaxRounds; round++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		st, err := p.optimizeStep(ws, sess, tc, round)
		if err != nil {
			return nil, err
		}
		if st.Met {
			out.Feasible = true
			break
		}
		// The workspace recycles its PathOutcome (and its Path) next
		// round: copy the record before retaining it.
		po := *st.Outcome
		po.Path = st.Outcome.Path.Clone()
		out.PathOutcomes = append(out.PathOutcomes, &po)
		out.Rounds = round + 1
		out.Buffers += st.Buffers
		out.NorRewrites += st.NorRewrites
		if !st.Outcome.Feasible && !st.Progress {
			// Out of moves: the constraint is unreachable.
			break
		}
	}
	p.rec.StageDone(StageRounds, time.Since(start))
	if err := p.Summarize(sess, out); err != nil {
		return nil, err
	}
	if leak == nil {
		return out, nil
	}
	start = time.Now()
	lr, err := leakage.AssignSession(ctx, sess, tc, *leak)
	if err != nil {
		return nil, err
	}
	p.rec.StageDone(StageLeakage, time.Since(start))
	out.Leakage = lr
	out.Delay = lr.Delay
	out.Feasible = lr.Delay <= tc
	return out, nil
}

// appendLogicNodes appends the netlist nodes of the path's original
// stages to dst.
func appendLogicNodes(dst []*netlist.Node, pa *delay.Path) []*netlist.Node {
	for i := range pa.Stages {
		if n := pa.Stages[i].Node; n != nil {
			dst = append(dst, n)
		}
	}
	return dst
}

// replayBuffers mirrors the path's inserted inverter stages into the
// netlist as inverter pairs (function-preserving). The pair's second
// inverter receives the optimizer's buffer size; the first is a small
// fixed stage. Returns the number of pairs inserted.
func replayBuffers(c *netlist.Circuit, m *delay.Model, pa *delay.Path) (int, error) {
	inserted := 0
	for i := range pa.Stages {
		st := &pa.Stages[i]
		if !st.Inserted {
			continue
		}
		// Find the nearest upstream original stage: its node drives
		// the net the buffer was inserted on.
		var driver *netlist.Node
		for j := i - 1; j >= 0; j-- {
			if pa.Stages[j].Node != nil {
				driver = pa.Stages[j].Node
				break
			}
		}
		if driver == nil || len(driver.Fanout) == 0 {
			continue
		}
		first := math.Max(m.Proc.CRef, st.CIn/4)
		if _, _, err := c.InsertBufferPair(driver, append([]*netlist.Node(nil), driver.Fanout...), first, st.CIn); err != nil {
			return inserted, err
		}
		inserted++
	}
	return inserted, nil
}
