package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
)

// benchSpec is the part of BENCHMARK.json compare applies.
type benchSpec struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// floors are absolute allowances (in the metric's unit) below which a
// change in a metric counts as neither worse nor unresolved, however
// large relative to its median: set-up takes a few milliseconds, so a
// relative bound alone would read scheduler jitter as a regression.
var floors = map[string]float64{"setup_s": 0.020}

// Exit codes of compare: exitWorse when any (workload, metric) is worse
// or missing, else exitUnresolved when any is unresolved.
const (
	exitWorse      = 1
	exitUsage      = 2
	exitUnresolved = 3
)

// compareMain compares the untraced records of a parent (before "--")
// with those of a change (after it), per workload and end-to-end
// metric, under the bounds BENCHMARK.json fixes and the rule for
// claiming a gain: at least ten pairs, the change wins nine in ten, and
// the medians differ by more than the parent's quartile spread.
func compareMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("popsbench compare", flag.ContinueOnError)
	fs.SetOutput(stderr)
	specPath := fs.String("bench", "BENCHMARK.json", "benchmark definition holding the metric bounds")
	if err := fs.Parse(args); err != nil {
		return exitUsage
	}
	var parent, change []string
	side := &parent
	for _, a := range fs.Args() {
		if a == "--" && side == &parent {
			side = &change
			continue
		}
		*side = append(*side, a)
	}
	if len(parent) == 0 || len(change) == 0 {
		fmt.Fprintln(stderr, "usage: popsbench compare [-bench BENCHMARK.json] PARENT.json… -- CHANGE.json…")
		return exitUsage
	}
	var spec benchSpec
	buf, err := os.ReadFile(*specPath)
	if err == nil {
		err = json.Unmarshal(buf, &spec)
	}
	if err != nil {
		fmt.Fprintln(stderr, "popsbench compare:", err)
		return exitUsage
	}
	a, err := loadRecords(parent)
	if err == nil {
		var b map[string][]*record
		if b, err = loadRecords(change); err == nil {
			return printComparison(stdout, spec, a, b)
		}
	}
	fmt.Fprintln(stderr, "popsbench compare:", err)
	return exitUsage
}

// loadRecords reads untraced run records, grouped by workload and
// ordered by start time, so the i-th records of both sides form a pair.
func loadRecords(paths []string) (map[string][]*record, error) {
	out := make(map[string][]*record)
	for _, p := range paths {
		buf, err := os.ReadFile(p)
		if err != nil {
			return nil, err
		}
		var r record
		if err := json.Unmarshal(buf, &r); err != nil {
			return nil, fmt.Errorf("%s: %w", p, err)
		}
		if r.Workload == "" || r.Trace {
			return nil, fmt.Errorf("%s: not an untraced popsbench record", p)
		}
		out[r.Workload] = append(out[r.Workload], &r)
	}
	for _, rs := range out {
		sort.Slice(rs, func(i, j int) bool { return rs[i].Started.Before(rs[j].Started) })
	}
	return out, nil
}

func printComparison(w io.Writer, spec benchSpec, a, b map[string][]*record) int {
	worse, unresolved := false, false
	fmt.Fprintf(w, "%-14s %-18s %14s %25s %14s %25s %8s %6s  %s\n",
		"workload", "metric", "parent median", "parent q1..q3", "change median", "change q1..q3", "change", "wins", "verdict")
	for _, wl := range sortedKeys(a) {
		if len(b[wl]) == 0 {
			fmt.Fprintf(w, "%-14s no change records\n", wl)
			worse = true
			continue
		}
		for _, m := range spec.EndToEnd {
			av, bv := values(a[wl], m.Name), values(b[wl], m.Name)
			if len(av) == 0 || len(bv) == 0 {
				fmt.Fprintf(w, "%-14s %-18s missing\n", wl, m.Name)
				worse = true
				continue
			}
			v, wins, pairs := judge(av, bv, m.Better == "lower", m.Bound, floors[m.Name])
			q1a, ma, q3a := quartiles(av)
			q1b, mb, q3b := quartiles(bv)
			fmt.Fprintf(w, "%-14s %-18s %14.6g %12.6g..%-12.6g %14.6g %12.6g..%-12.6g %+7.2f%% %3d/%-2d  %s\n",
				wl, m.Name, ma, q1a, q3a, mb, q1b, q3b, 100*(mb-ma)/math.Abs(ma), wins, pairs, v)
			worse = worse || v == "worse"
			unresolved = unresolved || v == "unresolved"
		}
	}
	switch {
	case worse:
		return exitWorse
	case unresolved:
		return exitUnresolved
	}
	return 0
}

func values(rs []*record, name string) []float64 {
	var out []float64
	for _, r := range rs {
		if m, ok := r.Metrics[name]; ok {
			out = append(out, m.Value)
		}
	}
	return out
}

// judge gives the verdict on one metric of one workload. The allowance
// is the larger of bound·|parent median| and floor:
//
//	better      ≥10 pairs, the change wins ≥9/10 of them (ties count
//	            for neither), and the medians differ by more than the
//	            parent's quartile spread
//	unresolved  the parent's quartile spread is wider than the
//	            allowance, unless every change run reads better than
//	            every parent run
//	worse       the change's median is worse by more than the allowance
//	same        otherwise
func judge(a, b []float64, lower bool, bound, floor float64) (verdict string, wins, pairs int) {
	better := func(x, y float64) bool {
		if lower {
			return x < y
		}
		return x > y
	}
	pairs = min(len(a), len(b))
	for i := 0; i < pairs; i++ {
		if better(b[i], a[i]) {
			wins++
		}
	}
	q1a, ma, q3a := quartiles(a)
	_, mb, _ := quartiles(b)
	gain := ma - mb // > 0: the change is better
	if !lower {
		gain = -gain
	}
	if pairs >= 10 && wins*10 >= 9*pairs && gain > q3a-q1a {
		return "better", wins, pairs
	}
	worstB, bestA := b[0], a[0]
	for _, x := range b {
		if better(worstB, x) {
			worstB = x
		}
	}
	for _, x := range a {
		if better(x, bestA) {
			bestA = x
		}
	}
	allow := max(bound*math.Abs(ma), floor)
	if q3a-q1a > allow && !better(worstB, bestA) {
		return "unresolved", wins, pairs
	}
	if -gain > allow {
		return "worse", wins, pairs
	}
	return "same", wins, pairs
}
