package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/delay"
	"repro/internal/engine"
	"repro/internal/leakage"
	"repro/internal/logic"
	"repro/internal/netlist"
	"repro/internal/power"
	"repro/internal/sizing"
	"repro/internal/sta"
	"repro/internal/store"
)

// perLayer are the traced run's metrics, in print order.
var perLayer = []metricDef{
	{"engine.submit_s", "s"},
	{"engine.encode_s", "s"},
	{"engine.queue_wait_s", "s"},
	{"engine.task_s", "s"},
	{"engine.tasks", "count"},
	{"engine.memo_result_hit_ratio", "ratio"},
	{"engine.memo_result_lookups", "count"},
	{"engine.memo_bounds_hit_ratio", "ratio"},
	{"engine.memo_bounds_lookups", "count"},
	{"engine.jobs_failed", "count"},
	{"netlist.parse_s", "s"},
	{"sta.analyze_s", "s"},
	{"sta.extract_s", "s"},
	{"sta.analyses_full", "count"},
	{"sta.analyses_reused", "count"},
	{"sizing.bounds_s", "s"},
	{"sizing.tmin_s", "s"},
	{"core.path_solve_s", "s"},
	{"core.path_solve_s.hard", "s"},
	{"core.path_solve_s.medium", "s"},
	{"core.path_solve_s.weak", "s"},
	{"core.path_solve_s.infeasible", "s"},
	{"core.paths.hard", "count"},
	{"core.paths.medium", "count"},
	{"core.paths.weak", "count"},
	{"core.paths.infeasible", "count"},
	{"core.step_other_s", "s"},
	{"core.rounds", "count"},
	{"core.rounds_structural", "count"},
	{"restructure.nor_rewrites", "count"},
	{"buffering.buffers", "count"},
	{"leakage.assign_s", "s"},
	{"leakage.considered", "count"},
	{"leakage.promoted", "count"},
	{"power.profile_s", "s"},
	{"store.get_s", "s"},
	{"store.put_s", "s"},
	{"store.gets", "count"},
	{"store.puts", "count"},
	{"store.errors", "count"},
	{"loadgen.sched_lag_p99_ms", "ms"},
	{"trace.coverage", "ratio"},
	{"trace.overhead", "ratio"},
}

var domains = []core.Domain{core.Hard, core.Medium, core.Weak, core.Infeasible}

// span is one timed call. Spans of one op share its op number; parent
// is the enclosing span's id (0 for a root).
type span struct {
	ID     int     `json:"id"`
	Parent int     `json:"parent"`
	Op     int     `json:"op"`
	Name   string  `json:"name"`
	Start  float64 `json:"start_us"`
	End    float64 `json:"end_us"`
}

// tracer keeps spans in memory; a traced run writes them at its end.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// reset drops the spans recorded so far (the set-up's) and restarts
// the clock.
func (t *tracer) reset() {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans, t.t0 = nil, time.Now()
}

func (t *tracer) at(tm time.Time) float64 { return float64(tm.Sub(t.t0)) / float64(time.Microsecond) }

func (t *tracer) add(name string, parent, op int, start, end time.Time) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Op: op, Name: name, Start: t.at(start), End: t.at(end)})
	return id
}

// begin opens a span; end closes it.
func (t *tracer) begin(name string, parent, op int) int {
	now := time.Now()
	return t.add(name, parent, op, now, now)
}

// end closes a span and returns its duration in seconds.
func (t *tracer) end(id int) float64 {
	now := time.Now()
	t.mu.Lock()
	defer t.mu.Unlock()
	s := &t.spans[id-1]
	s.End = t.at(now)
	return (s.End - s.Start) / 1e6
}

// sums totals span durations (seconds) and counts by name.
func (t *tracer) sums() (map[string]float64, map[string]int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	secs, counts := make(map[string]float64), make(map[string]int)
	for _, s := range t.spans {
		secs[s.Name] += (s.End - s.Start) / 1e6
		counts[s.Name]++
	}
	return secs, counts
}

func (t *tracer) write(path string, cfg config) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	buf, err := json.Marshal(struct {
		Workload string `json:"workload"`
		Seed     int64  `json:"seed"`
		Spans    []span `json:"spans"`
	}{cfg.workload, cfg.seed, t.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(buf, '\n'), 0o644)
}

// timedStore wraps the engine's result store in store.get/store.put
// spans.
type timedStore struct {
	store.Store
	tr *tracer
}

func (s *timedStore) Get(key string) ([]byte, error) {
	id := s.tr.begin("store.get", 0, 0)
	v, err := s.Store.Get(key)
	s.tr.end(id)
	return v, err
}

func (s *timedStore) Put(key string, value []byte) error {
	id := s.tr.begin("store.put", 0, 0)
	err := s.Store.Put(key, value)
	s.tr.end(id)
	return err
}

// handler wraps the service in engine.submit spans (POST: decode,
// parse, journal, enqueue, encode the 202) and engine.encode spans
// (GET /v1/jobs/{id}), each joined to the client's op through its
// X-Request-ID.
func (t *tracer) handler(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		name := "engine.encode"
		if r.Method == http.MethodPost {
			name = "engine.submit"
		}
		op, _ := strconv.Atoi(strings.TrimPrefix(r.Header.Get("X-Request-ID"), "op-"))
		id := t.begin(name, 0, op)
		h.ServeHTTP(w, r)
		t.end(id)
	})
}

// openTraceSeconds caps the open loop's traced schedule: 200 requests
// show every template and the service's steady state, and keep the
// traced run about as short as the closed loops'.
const openTraceSeconds = 10.0

// runTraced runs the workload's first pass (closed loop) or the first
// openTraceSeconds of its schedule (open loop) with the decorators on,
// then replays every task the engine computed through the layers'
// exported functions, and reports the per-layer metrics.
func runTraced(cfg config, w *workload, st *stack, tr *tracer, rec *record) error {
	before := st.eng.MetricsSnapshot()
	var res *loadResult
	// The replay runs as many tasks at once as the service did.
	workers := 1
	if w.closed() {
		var err error
		if res, err = closedLoop(st, nil, w, cfg.seed, cfg.seconds, 1); err != nil {
			return err
		}
	} else {
		res = openLoop(st, w.openSchedule(cfg.seed, min(cfg.seconds, openTraceSeconds)))
		workers = st.eng.Workers()
	}
	after := st.eng.MetricsSnapshot()
	delta := func(key string) float64 { return after[key] - before[key] }
	rec.Passes = res.passes
	v := checkOutcomes(res.outcomes)
	var wall float64
	lags := make([]float64, 0, len(res.outcomes))
	for _, oc := range res.outcomes {
		tr.add("client.op", 0, oc.op.seq, oc.start, oc.end)
		wall += oc.latency.Seconds()
		lags = append(lags, float64(oc.lag)/float64(time.Millisecond))
	}
	rec.note("load: %d ops with decorators on, wall %.3f s", len(res.outcomes), res.wall.Seconds())

	// Each task replays at the degree the engine's auto policy gives it
	// under this workload: one plus the idle workers.
	deg := 1 + st.eng.Workers() - workers
	deg = max(1, min(deg, runtime.GOMAXPROCS(0)))
	rp, done, err := replayAll(st.eng.Model(), tr, deg, workers, res.outcomes)
	if err != nil {
		return err
	}
	for _, r := range done {
		t := r.op.tmpl
		if r.err != nil {
			v.fail("replay op %d (%s): %v", r.op.seq, t.id, r.err)
		} else if want := v.results[t]; want == nil || string(r.result) != string(want.canon) {
			v.fail("replay op %d (%s): replayed result differs from the service's", r.op.seq, t.id)
		}
	}
	for _, p := range rp.problems {
		v.fail("replay: %s", p)
	}
	if int(delta("pops_tasks_total")) != rp.tasks {
		v.fail("replay ran %d tasks, the engine computed %.0f", rp.tasks, delta("pops_tasks_total"))
	}
	rounds := delta(`pops_sizing_rounds_total{structural="false"}`) + delta(`pops_sizing_rounds_total{structural="true"}`)
	if int(rounds) != rp.rounds {
		v.fail("replay ran %d rounds, the engine %.0f", rp.rounds, rounds)
	}

	secs, counts := tr.sums()
	dups := secs["sizing.tmin"] + secs["power.profile"]
	solve := 0.0
	for _, d := range domains {
		solve += secs["core.path_solve."+d.String()]
	}
	dups += solve
	real := 0.0
	for _, name := range []string{"netlist.parse", "netlist.clone", "sta.analyze", "sta.extract", "engine.memo",
		"sizing.bounds", "core.step", "core.summarize", "leakage.assign"} {
		real += secs[name]
	}
	taskS := delta("pops_task_duration_seconds_sum")
	submit, encode := secs["engine.submit"], secs["engine.encode"]
	ratio := func(hits, misses float64) float64 {
		if hits+misses == 0 {
			return 0
		}
		return hits / (hits + misses)
	}
	jobsFailed := 0.0
	for _, kind := range []engine.JobKind{engine.JobOptimize, engine.JobSweep, engine.JobSuite} {
		jobsFailed += delta(fmt.Sprintf(`pops_jobs_total{kind=%q,outcome="failed"}`, string(kind)))
	}
	hitsR, missR := delta(`pops_memo_hits_total{family="result"}`), delta(`pops_memo_misses_total{family="result"}`)
	hitsB, missB := delta(`pops_memo_hits_total{family="bounds"}`), delta(`pops_memo_misses_total{family="bounds"}`)

	rec.set("engine.submit_s", "s", submit)
	rec.set("engine.encode_s", "s", encode)
	rec.set("engine.queue_wait_s", "s", math.Max(0, wall-taskS-submit-encode))
	rec.set("engine.task_s", "s", taskS)
	rec.set("engine.tasks", "count", delta("pops_tasks_total"))
	rec.set("engine.memo_result_hit_ratio", "ratio", ratio(hitsR, missR))
	rec.set("engine.memo_result_lookups", "count", hitsR+missR)
	rec.set("engine.memo_bounds_hit_ratio", "ratio", ratio(hitsB, missB))
	rec.set("engine.memo_bounds_lookups", "count", hitsB+missB)
	rec.set("engine.jobs_failed", "count", jobsFailed)
	rec.set("netlist.parse_s", "s", secs["netlist.parse"])
	rec.set("sta.analyze_s", "s", secs["sta.analyze"])
	rec.set("sta.extract_s", "s", secs["sta.extract"])
	rec.set("sta.analyses_full", "count", delta(`pops_sta_analyses_total{mode="full"}`))
	rec.set("sta.analyses_reused", "count", delta(`pops_sta_analyses_total{mode="reused"}`))
	rec.set("sizing.bounds_s", "s", secs["sizing.bounds"])
	rec.set("sizing.tmin_s", "s", secs["sizing.tmin"])
	rec.set("core.path_solve_s", "s", solve)
	for _, d := range domains {
		rec.set("core.path_solve_s."+d.String(), "s", secs["core.path_solve."+d.String()])
		rec.set("core.paths."+d.String(), "count", float64(counts["core.path_solve."+d.String()]))
	}
	rec.set("core.step_other_s", "s", rp.stepOther)
	rec.set("core.rounds", "count", rounds)
	rec.set("core.rounds_structural", "count", delta(`pops_sizing_rounds_total{structural="true"}`))
	rec.set("restructure.nor_rewrites", "count", float64(rp.nors))
	rec.set("buffering.buffers", "count", float64(rp.buffers))
	rec.set("leakage.assign_s", "s", secs["leakage.assign"]-secs["power.profile"])
	rec.set("leakage.considered", "count", float64(rp.considered))
	rec.set("leakage.promoted", "count", float64(rp.promoted))
	rec.set("power.profile_s", "s", secs["power.profile"])
	rec.set("store.get_s", "s", secs["store.get"])
	rec.set("store.put_s", "s", secs["store.put"])
	rec.set("store.gets", "count", float64(counts["store.get"]))
	rec.set("store.puts", "count", float64(counts["store.put"]))
	rec.set("store.errors", "count", delta("pops_store_errors_total"))
	rec.set("loadgen.sched_lag_p99_ms", "ms", percentile(lags, 0.99))
	opWall := secs["replay.op"] - dups
	coverage, overhead := 0.0, 0.0
	if opWall > 0 {
		coverage = real / opWall
	}
	if taskS > 0 {
		overhead = (secs["replay.task"] - dups) / taskS
	}
	rec.set("trace.coverage", "ratio", coverage)
	rec.set("trace.overhead", "ratio", overhead)

	n := len(res.outcomes)
	rec.Attempted, rec.Failed, rec.Problems = n, v.failed, v.problems
	rec.Correct = v.failed == 0 && n > 0
	rec.Digest = v.digest()
	rec.note("replay: %d ops, %d tasks on %d goroutines at degree %d, op wall %.3f s without the %.3f s of duplicate measurement calls",
		len(done), rp.tasks, workers, deg, opWall, dups)
	rec.note("shares of the replayed op wall: parse %.3f, sta %.3f, bounds %.3f, path solve %.3f, step other %.3f, leakage %.3f, power %.3f",
		share(secs["netlist.parse"], opWall), share(secs["sta.analyze"]+secs["sta.extract"], opWall),
		share(secs["sizing.bounds"], opWall), share(solve, opWall), share(rp.stepOther, opWall),
		share(secs["leakage.assign"]-secs["power.profile"], opWall), share(secs["power.profile"], opWall))
	rec.note("shares of the service's request wall (%.3f s): submit %.3f, encode %.3f, task %.3f, store get %.3f, put %.3f",
		wall, share(submit, wall), share(encode, wall), share(taskS, wall), share(secs["store.get"], wall), share(secs["store.put"], wall))
	for _, p := range v.problems {
		rec.note("FAILED %s", p)
	}
	rec.note("result_digest %s", rec.Digest)
	printMetrics(rec, perLayer)
	if cfg.spans != "" {
		if err := tr.write(cfg.spans, cfg); err != nil {
			return fmt.Errorf("spans: %w", err)
		}
		rec.note("spans: %s", cfg.spans)
	}
	return nil
}

func share(part, whole float64) float64 {
	if whole <= 0 {
		return 0
	}
	return part / whole
}

// maxRounds is the round bound the engine runs with: core's default,
// since the engine leaves Config.MaxRounds unset.
const maxRounds = 12

// replayer re-runs computed tasks through the exported layer calls the
// engine makes, one span per call. Where a call's inner work has no
// exported seam — the path solve inside core.OptimizeStep, the power
// profile inside leakage.AssignSession — the replay repeats that work
// on a copy of the same input (sizing.Tmin, core.OptimizePath,
// power.SimulateProfile): identical deterministic work, timed as its
// own span and subtracted from the enclosing call's self time.
type replayer struct {
	tr     *tracer
	model  *delay.Model
	proto  *core.Protocol
	deg    int
	bounds *boundsMemo

	tasks, rounds, buffers, nors, considered, promoted int
	stepOther                                          float64 // seconds
	problems                                           []string
}

func newReplayer(m *delay.Model, tr *tracer, deg int, bounds *boundsMemo) (*replayer, error) {
	proto, err := core.NewProtocol(core.Config{Model: m, MaxRounds: maxRounds})
	if err != nil {
		return nil, err
	}
	return &replayer{tr: tr, model: m, proto: proto, deg: deg, bounds: bounds}, nil
}

// merge adds another replayer's tallies to rp's.
func (rp *replayer) merge(o *replayer) {
	rp.tasks += o.tasks
	rp.rounds += o.rounds
	rp.buffers += o.buffers
	rp.nors += o.nors
	rp.considered += o.considered
	rp.promoted += o.promoted
	rp.stepOther += o.stepOther
	rp.problems = append(rp.problems, o.problems...)
}

// boundsMemo memoizes Tmin/Tmax by path signature across the replay's
// goroutines, as the engine's bounds memo does across its workers: the
// first op to need a signature's bounds solves them and any other waits
// for that solve. Each signature is solved once, so the bounds work is
// the same on every run whatever the interleaving.
type boundsMemo struct {
	mu sync.Mutex
	m  map[string]*boundsEntry
}

type boundsEntry struct {
	done chan struct{} // closed once b and err are set
	b    [2]float64
	err  error
}

// entry returns key's entry, and whether the caller created it and so
// must solve it and close done.
func (bm *boundsMemo) entry(key string) (*boundsEntry, bool) {
	bm.mu.Lock()
	defer bm.mu.Unlock()
	if e, ok := bm.m[key]; ok {
		return e, false
	}
	e := &boundsEntry{done: make(chan struct{})}
	bm.m[key] = e
	return e, true
}

// replayed is one replayed op: its result in the service's JSON form
// and its tasks' final netlists, or the error that stopped the replay.
type replayed struct {
	op     *op
	result []byte
	done   []finished
	err    error
}

// replayAll replays every op the engine computed, in op order, on
// workers goroutines, then checks the netlists of each template's first
// op on the same goroutines, and returns the replayers' merged tallies.
// Named cells were computed before the window and are memo hits in it;
// every inline op carries a fresh fingerprint and is computed.
func replayAll(m *delay.Model, tr *tracer, deg, workers int, outs []*outcome) (*replayer, []replayed, error) {
	var list []replayed
	for _, oc := range outs {
		if oc.err == nil && oc.op.tmpl.circuit == "" {
			list = append(list, replayed{op: oc.op})
		}
	}
	sort.Slice(list, func(i, j int) bool { return list[i].op.seq < list[j].op.seq })

	memo := &boundsMemo{m: make(map[string]*boundsEntry)}
	rps := make([]*replayer, max(1, workers))
	for i := range rps {
		var err error
		if rps[i], err = newReplayer(m, tr, deg, memo); err != nil {
			return nil, nil, err
		}
	}
	// each runs f(rp, i) for i in [0, n), handing out indexes in order
	// to one goroutine per replayer.
	each := func(n int, f func(rp *replayer, i int)) {
		var next atomic.Int64
		var wg sync.WaitGroup
		for _, rp := range rps {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := int(next.Add(1)) - 1; i < n; i = int(next.Add(1)) - 1 {
					f(rp, i)
				}
			}()
		}
		wg.Wait()
	}
	each(len(list), func(rp *replayer, i int) {
		r := &list[i]
		r.result, r.done, r.err = rp.replay(r.op)
	})
	// Every op of a template replays to the same netlists (the caller
	// checks the results are identical), so its first op stands for all.
	var firsts []*replayed
	seen := make(map[*template]bool)
	for i, r := range list {
		if r.err == nil && !seen[r.op.tmpl] {
			seen[r.op.tmpl] = true
			firsts = append(firsts, &list[i])
		}
	}
	each(len(firsts), func(rp *replayer, i int) {
		for _, f := range firsts[i].done {
			rp.check(f)
		}
	})
	for _, rp := range rps[1:] {
		rps[0].merge(rp)
	}
	return rps[0], list, nil
}

// timed runs f inside a span.
func (rp *replayer) timed(name string, parent, op int, f func() error) error {
	id := rp.tr.begin(name, parent, op)
	err := f()
	rp.tr.end(id)
	return err
}

// finished is a replayed task's source and final netlists and its
// outcome, checked once the replay is over.
type finished struct {
	src, c *netlist.Circuit
	out    *core.CircuitOutcome
}

// replay re-runs one op and returns its result in the service's JSON
// form, which the caller compares with what the service returned, and
// its tasks' final netlists.
func (rp *replayer) replay(o *op) ([]byte, []finished, error) {
	t := o.tmpl
	bench, err := benchText(t.src, o.salt)
	if err != nil {
		return nil, nil, err
	}
	root := rp.tr.begin("replay.op", 0, o.seq)
	var (
		master  *netlist.Circuit
		display string
		done    []finished
		result  any
	)
	err = func() error {
		err := rp.timed("netlist.parse", root, o.seq, func() error {
			pb, err := engine.ParseBench(bench)
			if err != nil {
				return err
			}
			master, display = pb.Circuit, pb.Name
			return nil
		})
		if err != nil {
			return err
		}
		if t.kind != engine.JobSweep {
			r, f, err := rp.task(root, o.seq, master, display, t.ratio, 0, t.leakage, nil)
			if err != nil {
				return err
			}
			done = append(done, f)
			result = engine.WireOptimize(r)
			return nil
		}
		sess := sta.NewSession(master, rp.model, sta.Config{})
		tb, err := rp.criticalBounds(root, o.seq, sess)
		if err != nil {
			return err
		}
		sw := engine.Sweep{Circuit: display, Tmin: tb[0], Tmax: tb[1]}
		for i := 0; i < t.points; i++ {
			ratio := 1.0 + float64(i)/float64(t.points-1)
			r, f, err := rp.task(root, o.seq, master, display, 0, ratio*tb[0], t.leakage, &tb)
			if err != nil {
				return err
			}
			done = append(done, f)
			sw.Points = append(sw.Points, engine.SweepPoint{
				Ratio: ratio, Tc: r.Tc, Delay: r.Outcome.Delay, Area: r.Outcome.Area,
				Feasible: r.Outcome.Feasible, Rounds: r.Outcome.Rounds, Buffers: r.Outcome.Buffers,
				Leakage: rowPower(r.Outcome.Leakage),
			})
		}
		result = sw
		return nil
	}()
	rp.tr.end(root)
	if err != nil {
		return nil, nil, err
	}
	buf, err := json.Marshal(result)
	return buf, done, err
}

// rowPower mirrors the engine's sweep-row power block.
func rowPower(lr *leakage.Result) *engine.RowPower {
	if lr == nil {
		return nil
	}
	return &engine.RowPower{Promoted: lr.Promoted, DynamicUW: lr.DynamicUW, LeakageUW: lr.StaticAfterUW,
		TotalUW: lr.TotalAfterUW, TotalBeforeUW: lr.TotalBeforeUW}
}

// criticalBounds extracts the critical path through sess and solves its
// Tmin/Tmax bounds on a memo miss.
func (rp *replayer) criticalBounds(parent, op int, sess *sta.Session) ([2]float64, error) {
	var pa *delay.Path
	err := rp.timed("sta.analyze", parent, op, func() error { _, err := sess.Analyze(); return err })
	if err == nil {
		err = rp.timed("sta.extract", parent, op, func() (err error) { pa, _, err = sess.CriticalPath(); return err })
	}
	if err != nil {
		return [2]float64{}, err
	}
	var key string
	rp.timed("engine.memo", parent, op, func() error { key = engine.PathSignature(pa); return nil })
	e, solve := rp.bounds.entry(key)
	if !solve {
		rp.timed("engine.memo", parent, op, func() error { <-e.done; return nil })
		return e.b, e.err
	}
	e.err = rp.timed("sizing.bounds", parent, op, func() error {
		e.b[1] = sizing.Tmax(rp.model, pa.Clone())
		r, err := sizing.Tmin(rp.model, pa.Clone(), sizing.Options{})
		if err != nil {
			return err
		}
		e.b[0] = r.Delay
		return nil
	})
	close(e.done)
	return e.b, e.err
}

// task replays the engine's task body on a clone of master: bounds
// (unless tb is given), the round loop, the summary and the optional
// Vt pass. tc 0 derives the constraint from ratio.
func (rp *replayer) task(parent, op int, master *netlist.Circuit, display string, ratio, tc float64, leak bool, tb *[2]float64) (*engine.OptimizeResult, finished, error) {
	id := rp.tr.begin("replay.task", parent, op)
	defer func() { rp.tr.end(id) }()
	rp.tasks++
	m := rp.model
	var c *netlist.Circuit
	rp.timed("netlist.clone", id, op, func() error { c = master.Clone(); return nil })
	sess := rp.proto.NewTimingSession(c)
	sess.SetParallelism(rp.deg)
	if tb == nil {
		b, err := rp.criticalBounds(id, op, sess)
		if err != nil {
			return nil, finished{}, err
		}
		tb = &b
	}
	if tc == 0 {
		tc = ratio * tb[0]
	}
	out := &core.CircuitOutcome{Tc: tc}
	for round := 0; round < maxRounds; round++ {
		var res *sta.Result
		if err := rp.timed("sta.analyze", id, op, func() (err error) { res, err = sess.Analyze(); return err }); err != nil {
			return nil, finished{}, err
		}
		var pa *delay.Path
		if res.WorstDelay > tc {
			err := rp.timed("sta.extract", id, op, func() (err error) {
				pa, err = sta.PathFromNodes(fmt.Sprintf("%s/round%d", c.Name, round), res.CriticalNodes(), m, sess.Config())
				return err
			})
			if err != nil {
				return nil, finished{}, err
			}
		}
		stepID := rp.tr.begin("core.step", id, op)
		step, err := rp.proto.OptimizeStep(sess, tc, round)
		stepS := rp.tr.end(stepID)
		if err != nil {
			return nil, finished{}, err
		}
		if step.Met {
			out.Feasible = true
			break
		}
		po := step.Outcome
		if pa == nil {
			return nil, finished{}, fmt.Errorf("round %d: step ran on a circuit that met Tc", round)
		}
		if err := rp.timed("sizing.tmin", id, op, func() error { _, err := sizing.Tmin(m, pa.Clone(), sizing.Options{}); return err }); err != nil {
			return nil, finished{}, err
		}
		solveID := rp.tr.begin("core.path_solve."+po.Domain.String(), id, op)
		dup, err := rp.proto.OptimizePath(pa, po.Tc)
		solveS := rp.tr.end(solveID)
		if err != nil {
			return nil, finished{}, err
		}
		// The step's self time: what it does besides the path solve. The
		// two solves are the same work, so what is left is write-back,
		// buffer replay, NOR rewrites and the incremental update, plus the
		// solves' timing noise, which may not take it below zero.
		rp.stepOther += math.Max(0, stepS-solveS)
		if dup.Domain != po.Domain || dup.Delay != po.Delay || dup.Area != po.Area || dup.Buffers != po.Buffers || dup.Feasible != po.Feasible {
			rp.problems = append(rp.problems, fmt.Sprintf("op %d round %d: repeated path solve differs from the step's", op, round))
		}
		out.PathOutcomes = append(out.PathOutcomes, po)
		out.Rounds = round + 1
		out.Buffers += step.Buffers
		out.NorRewrites += step.NorRewrites
		rp.rounds++
		rp.buffers += step.Buffers
		rp.nors += step.NorRewrites
		if !po.Feasible && !step.Progress {
			break
		}
	}
	if err := rp.timed("core.summarize", id, op, func() error { return rp.proto.Summarize(sess, out) }); err != nil {
		return nil, finished{}, err
	}
	if leak {
		opts := leakage.Options{STA: sess.Config(), Power: power.Options{Parallelism: sess.Config().Parallelism}}
		entry := out.Delay
		var lr *leakage.Result
		err := rp.timed("leakage.assign", id, op, func() (err error) {
			lr, err = leakage.AssignSession(context.Background(), sess, tc, opts)
			return err
		})
		if err == nil {
			err = rp.timed("power.profile", id, op, func() error { _, err := power.SimulateProfile(c, opts.Power); return err })
		}
		if err != nil {
			return nil, finished{}, err
		}
		// The pass guards Tc, or the entry delay when the sizing rounds
		// could not meet Tc, and never ends above that budget.
		if lr.Budget != math.Max(tc, entry) || lr.Delay > lr.Budget {
			rp.problems = append(rp.problems, fmt.Sprintf("op %d: leakage pass delay %v, budget %v, tc %v, entry delay %v", op, lr.Delay, lr.Budget, tc, entry))
		}
		rp.considered += lr.Considered
		rp.promoted += lr.Promoted
		out.Leakage, out.Delay, out.Feasible = lr, lr.Delay, lr.Delay <= tc
	}
	r := &engine.OptimizeResult{Circuit: display, Tc: tc, Tmin: tb[0], Tmax: tb[1], Gates: c.Stats().Gates, Outcome: out}
	return r, finished{master, c, out}, nil
}

// check verifies a replayed task's final circuit, and a fresh full
// timing analysis must read the delay the run reported. A circuit the
// round loop restructured (buffer pairs, De Morgan rewrites) must
// compute the function of its source. One it only resized, and whose Vt
// classes the leakage pass set, changes no logic value, so it need only
// keep its source's gate count: exhaustive equivalence on a 16-input
// circuit alone takes two seconds.
func (rp *replayer) check(f finished) {
	if f.out.Buffers > 0 || f.out.NorRewrites > 0 {
		if ce, err := logic.Equivalent(f.src, f.c, 32, 1); err != nil || ce != nil {
			rp.problems = append(rp.problems, fmt.Sprintf("%s: optimized netlist not equivalent to its source: %v %v", f.c.Name, ce, err))
		}
	} else if got, want := f.c.Stats().Gates, f.src.Stats().Gates; got != want {
		rp.problems = append(rp.problems, fmt.Sprintf("%s: %d gates after sizing alone, %d in the source", f.c.Name, got, want))
	}
	res, err := sta.Analyze(f.c, rp.model, sta.Config{})
	if err != nil {
		rp.problems = append(rp.problems, fmt.Sprintf("%s: fresh analysis: %v", f.c.Name, err))
	} else if res.WorstDelay != f.out.Delay {
		rp.problems = append(rp.problems, fmt.Sprintf("%s: fresh analysis delay %v, reported %v", f.c.Name, res.WorstDelay, f.out.Delay))
	}
}
