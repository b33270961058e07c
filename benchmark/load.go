package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"time"
)

// outcome is what one op returned: the job record fetched with
// GET /v1/jobs/{id}, its latency, and how late the generator sent it.
type outcome struct {
	op      *op
	start   time.Time // when the op was sent
	end     time.Time
	latency time.Duration
	lag     time.Duration
	job     []byte
	err     error
}

// loadResult is one measured load phase.
type loadResult struct {
	outcomes []*outcome
	wall     time.Duration // summed over the passes
	passes   int
	// rates and cpuPerOp hold each pass's completed ops per second of
	// wall and user plus system CPU seconds per op (the open loop is one
	// pass), so a run reports their medians and a burst of host load
	// that slows one pass does not move them.
	rates, cpuPerOp []float64
	// hwmKB is the process's peak resident set (VmHWM) once the first
	// pass has completed (closed loop) or at the end (open loop): the
	// same work on every run, however many passes the run fits.
	hwmKB float64
}

// submit posts one op (202 Accepted) and returns its job id.
func (st *stack) submit(o *op, body []byte, path string) (string, error) {
	resp, err := st.call(http.MethodPost, path, body, opRequestID(o.seq), http.StatusAccepted)
	if err != nil {
		return "", err
	}
	var sub struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal(resp, &sub); err != nil {
		return "", fmt.Errorf("submit response: %w", err)
	}
	return sub.ID, nil
}

// runOp performs one op as a client of the service: submit, wait for
// the job through the server's job store, fetch the record.
func (st *stack) runOp(o *op, body []byte, path string) ([]byte, error) {
	id, err := st.submit(o, body, path)
	if err != nil {
		return nil, err
	}
	if _, ok := st.srv.Store().Await(id); !ok {
		return nil, fmt.Errorf("job %s vanished", id)
	}
	return st.call(http.MethodGet, "/v1/jobs/"+id, nil, opRequestID(o.seq), http.StatusOK)
}

// fillMemo submits each named cell once before the measured window:
// the window then sees a long-running service's steady state, in which
// named cells are answered from the memo and inline sources computed.
func fillMemo(st *stack, w *workload) error {
	for i, t := range w.hot {
		o := &op{seq: -1 - i, tmpl: t}
		path, body, err := o.request()
		if err == nil {
			_, err = st.runOp(o, body, path)
		}
		if err != nil {
			return fmt.Errorf("memo fill %s: %w", t.id, err)
		}
	}
	return nil
}

// closedLoop runs whole passes over w.pass. Pass 0 runs on st; every
// later pass runs on a stack fresh from open, closed when the pass
// ends. So every pass is the same work: each meets an engine whose
// memo holds none of its Tmin/Tmax bounds, as a batch of new designs
// would, and no run amortizes a cold first pass over warm ones. Whole
// passes keep the op mix of every run identical.
//
// A new pass starts only while the run, extended by half a pass, stays
// within seconds, so the pass count is the one that brings the run
// closest to seconds and moves only when the pass time crosses a
// half-integer fraction of it, not with every bit of noise near a
// whole one. The first pass always runs; maxPasses > 0 caps the count.
// Wall and CPU time are taken per pass, without the stack changes
// between passes.
func closedLoop(st *stack, open func() (*stack, error), w *workload, seed int64, seconds float64, maxPasses int) (*loadResult, error) {
	res := &loadResult{}
	start := time.Now()
	for p := 0; ; p++ {
		if p > 0 {
			elapsed := time.Since(start).Seconds()
			if elapsed+elapsed/float64(2*p) >= seconds || (maxPasses > 0 && p >= maxPasses) {
				return res, nil
			}
		}
		cur := st
		if p > 0 {
			var err error
			if cur, err = open(); err != nil {
				return nil, fmt.Errorf("pass %d stack: %w", p, err)
			}
		}
		cpu0, t0 := cpuSeconds(), time.Now()
		outs := runPass(cur, w.passOps(seed, p))
		wall, cpu := time.Since(t0), cpuSeconds()-cpu0
		res.add(outs, wall, cpu)
		if p == 0 {
			res.hwmKB = peakRSSKB()
		}
		if cur != st {
			if err := cur.close(); err != nil {
				return nil, fmt.Errorf("pass %d stack: %w", p, err)
			}
		}
	}
}

// add records one completed pass.
func (res *loadResult) add(outs []*outcome, wall time.Duration, cpu float64) {
	res.outcomes = append(res.outcomes, outs...)
	res.wall += wall
	res.passes++
	n := float64(len(outs))
	res.rates = append(res.rates, n/wall.Seconds())
	res.cpuPerOp = append(res.cpuPerOp, cpu/n)
}

// runPass sends ops from one client, each when the previous one
// returned, and returns their outcomes. One busy client keeps the run
// on about one of the host's cores, so neighbours on a shared host and
// the Go scheduler move it less than they move a run that fills every
// core.
func runPass(st *stack, ops []*op) []*outcome {
	outs := make([]*outcome, 0, len(ops))
	free := time.Now()
	for _, o := range ops {
		path, body, err := o.request()
		oc := &outcome{op: o, start: time.Now(), err: err}
		oc.lag = oc.start.Sub(free)
		if err == nil {
			oc.job, oc.err = st.runOp(o, body, path)
		}
		oc.end = time.Now()
		oc.latency = oc.end.Sub(oc.start)
		free = oc.end
		outs = append(outs, oc)
	}
	return outs
}

// openLoop sends the schedule on time from one goroutine, whatever the
// service's progress, and collects results in a second. A request's
// latency runs from its scheduled send time to the job's finish, plus
// the fetch of its record, so a stall counts against every request it
// delays and the collector's own order does not.
func openLoop(st *stack, ops []*op) *loadResult {
	type sent struct {
		oc *outcome
		id string
	}
	queue := make(chan sent, len(ops)) // one slot per scheduled request: the sender never blocks
	cpu0, start := cpuSeconds(), time.Now()
	go func() {
		defer close(queue)
		for _, o := range ops {
			due := start.Add(o.due)
			time.Sleep(time.Until(due))
			path, body, err := o.request()
			oc := &outcome{op: o, start: time.Now(), err: err}
			oc.lag = oc.start.Sub(due)
			var id string
			if err == nil {
				id, oc.err = st.submit(o, body, path)
			}
			queue <- sent{oc, id}
		}
	}()
	var outcomes []*outcome
	for s := range queue {
		oc := s.oc
		outcomes = append(outcomes, oc)
		if oc.err != nil {
			oc.end = time.Now()
			oc.latency = oc.end.Sub(start.Add(oc.op.due))
			continue
		}
		job, ok := st.srv.Store().Await(s.id)
		if !ok {
			oc.err = fmt.Errorf("job %s vanished", s.id)
			oc.end = time.Now()
			oc.latency = oc.end.Sub(start.Add(oc.op.due))
			continue
		}
		fetch := time.Now()
		oc.job, oc.err = st.call(http.MethodGet, "/v1/jobs/"+s.id, nil, opRequestID(oc.op.seq), http.StatusOK)
		oc.end = time.Now()
		oc.latency = job.Finished.Sub(start.Add(oc.op.due)) + oc.end.Sub(fetch)
	}
	res := &loadResult{hwmKB: peakRSSKB()}
	res.add(outcomes, time.Since(start), cpuSeconds()-cpu0)
	return res
}
