package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"sort"

	"repro/internal/engine"
)

// jobRecord is the part of a GET /v1/jobs/{id} record a run reads.
type jobRecord struct {
	Status string          `json:"status"`
	Error  string          `json:"error"`
	Result json.RawMessage `json:"result"`
}

// templateResult is the first result seen for a template, which every
// later op of the template must repeat byte for byte.
type templateResult struct {
	canon    []byte // compact JSON of the job result
	area     float64
	results  int // optimize results: 1; sweeps: one per point
	feasible int
}

// verdict is the outcome of checking a load phase's results.
type verdict struct {
	results  map[*template]*templateResult
	failed   int
	problems []string
}

// maxProblems caps the problems a record lists; failed counts them all.
const maxProblems = 20

func (v *verdict) fail(format string, args ...any) {
	v.failed++
	if len(v.problems) < maxProblems {
		v.problems = append(v.problems, fmt.Sprintf(format, args...))
	}
}

// checkOutcomes checks every op's result and folds the results by
// template. A failed op — transport error, non-2xx status, failed job,
// or failed check — counts once.
func checkOutcomes(outs []*outcome) *verdict {
	v := &verdict{results: make(map[*template]*templateResult)}
	for _, oc := range outs {
		t := oc.op.tmpl
		if oc.err != nil {
			v.fail("op %d (%s): %v", oc.op.seq, t.id, oc.err)
			continue
		}
		var job jobRecord
		if err := json.Unmarshal(oc.job, &job); err != nil {
			v.fail("op %d (%s): job record: %v", oc.op.seq, t.id, err)
			continue
		}
		if job.Status != "done" {
			v.fail("op %d (%s): job %s: %s", oc.op.seq, t.id, job.Status, job.Error)
			continue
		}
		tr, problems := checkResult(t, job.Result)
		if len(problems) > 0 {
			v.fail("op %d (%s): %v", oc.op.seq, t.id, problems)
			continue
		}
		if first, ok := v.results[t]; !ok {
			v.results[t] = tr
		} else if !bytes.Equal(first.canon, tr.canon) {
			v.fail("op %d (%s): result differs from the template's first result", oc.op.seq, t.id)
		}
	}
	return v
}

// checkResult decodes one job result and checks what every result of
// the protocol must satisfy.
func checkResult(t *template, raw json.RawMessage) (*templateResult, []string) {
	var canon bytes.Buffer
	if err := json.Compact(&canon, raw); err != nil {
		return nil, []string{err.Error()}
	}
	tr := &templateResult{canon: canon.Bytes()}
	var p []string
	if t.kind == engine.JobSweep {
		var s engine.Sweep
		if err := json.Unmarshal(raw, &s); err != nil {
			return nil, []string{err.Error()}
		}
		if len(s.Points) != t.points {
			p = append(p, fmt.Sprintf("%d points, want %d", len(s.Points), t.points))
		}
		for i, pt := range s.Points {
			ratio := 1.0 + float64(i)/float64(t.points-1)
			if pt.Ratio != ratio || pt.Tc != ratio*s.Tmin {
				p = append(p, fmt.Sprintf("point %d: ratio %v tc %v, want %v and %v", i, pt.Ratio, pt.Tc, ratio, ratio*s.Tmin))
			}
			// A sweep point does not report its NOR rewrites, so the Tmin
			// bound cannot be applied to it.
			p = append(p, checkTiming(pt.Feasible, pt.Delay, pt.Tc, s.Tmin, false)...)
			tr.area += pt.Area
			tr.results++
			if pt.Feasible {
				tr.feasible++
			}
		}
		return tr, p
	}
	var w engine.OptimizeWire
	if err := json.Unmarshal(raw, &w); err != nil {
		return nil, []string{err.Error()}
	}
	if w.Tc != t.ratio*w.Tmin {
		p = append(p, fmt.Sprintf("tc %v is not ratio·tmin %v", w.Tc, t.ratio*w.Tmin))
	}
	p = append(p, checkTiming(w.Feasible, w.Delay, w.Tc, w.Tmin, w.Buffers == 0 && w.NorRewrites == 0)...)
	if len(w.Paths) != w.Rounds {
		p = append(p, fmt.Sprintf("%d path records for %d rounds", len(w.Paths), w.Rounds))
	}
	if (w.Leakage != nil) != t.leakage {
		p = append(p, fmt.Sprintf("leakage block present=%v, requested=%v", w.Leakage != nil, t.leakage))
	}
	if l := w.Leakage; l != nil {
		// A Vt swap changes no logic value and no capacitance, so the
		// pass can only lower total power.
		if l.TotalAfterUW > l.TotalBeforeUW {
			p = append(p, fmt.Sprintf("leakage pass raised total power %v → %v µW", l.TotalBeforeUW, l.TotalAfterUW))
		}
		// Without a sizing round the circuit met Tc on entry, so Tc is the
		// pass's delay budget and the result must still meet it.
		if w.Rounds == 0 && !w.Feasible {
			p = append(p, fmt.Sprintf("leakage pass took a circuit that met tc %v on entry to delay %v", w.Tc, w.Delay))
		}
		n := 0
		for _, c := range l.ByClass {
			n += c
		}
		if n != w.Gates {
			p = append(p, fmt.Sprintf("Vt classes cover %d of %d gates", n, w.Gates))
		}
	}
	tr.area, tr.results = w.Area, 1
	if w.Feasible {
		tr.feasible = 1
	}
	return tr, p
}

// checkTiming: a result is feasible exactly when its delay meets Tc,
// and a feasible result reached by sizing alone does not beat Tmin, the
// critical path's minimum delay under sizing. (Inserted buffers and
// NOR rewrites change the structure and may go below it.)
func checkTiming(feasible bool, delay, tc, tmin float64, sizedOnly bool) []string {
	var p []string
	if feasible != (delay <= tc) {
		p = append(p, fmt.Sprintf("feasible=%v with delay %v and tc %v", feasible, delay, tc))
	}
	if feasible && sizedOnly && delay < tmin {
		p = append(p, fmt.Sprintf("feasible delay %v below tmin %v", delay, tmin))
	}
	return p
}

// sortedTemplates lists the checked templates by id.
func (v *verdict) sortedTemplates() []*template {
	ts := make([]*template, 0, len(v.results))
	for t := range v.results {
		ts = append(ts, t)
	}
	sort.Slice(ts, func(i, j int) bool { return ts[i].id < ts[j].id })
	return ts
}

// quality sums the final area over the templates and the share of
// results that met Tc. Templates are visited in id order, so the float
// sum is the same on every run.
func (v *verdict) quality() (area, feasibleFrac float64) {
	results, feasible := 0, 0
	for _, t := range v.sortedTemplates() {
		tr := v.results[t]
		area += tr.area
		results += tr.results
		feasible += tr.feasible
	}
	if results > 0 {
		feasibleFrac = float64(feasible) / float64(results)
	}
	return area, feasibleFrac
}

// digest hashes the canonical result of every template, in id order.
// Two runs with the same seed — and, since salts never change a
// result, with any seeds — produce the same digest.
func (v *verdict) digest() string {
	h := sha256.New()
	for _, t := range v.sortedTemplates() {
		fmt.Fprintf(h, "%s\t%s\n", t.id, v.results[t].canon)
	}
	return "sha256:" + hex.EncodeToString(h.Sum(nil))
}
