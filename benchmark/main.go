// Command popsbench is the end-to-end benchmark of the POPS
// optimization service. It builds the service in-process the way
// `popsd -data-dir` runs it (engine, durable result store behind the
// write-behind batcher, fsync'd job journal, HTTP on loopback), drives
// one named workload against it from a single process, checks every
// result, and prints every metric by name and unit. The last line of
// standard output is one JSON object:
//
//	{"correct": …, "attempted": …, "failed": …, "metrics": {name: {"value": …, "unit": …}}}
//
// An untraced run (-trace 0) reports the end-to-end metrics; a traced
// run (-trace 1) records spans around the calls into each layer,
// replays the computed tasks through the layers' exported functions,
// and reports the per-layer metrics. BENCHMARK.json at the repository
// root lists both sets; README.md explains them.
//
// Usage:
//
//	popsbench -workload suite-tight -seed 1 -seconds 25 -trace 0 [-out record.json] [-spans spans.json]
//	popsbench compare A.json… -- B.json…
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"time"
)

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:], os.Stdout, os.Stderr))
	}
	os.Exit(runMain(os.Args[1:], os.Stdout, os.Stderr))
}

// config is one run's settings.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	scale    string
	workdir  string // set-up directories live under it and are removed
	spans    string // traced run: write the spans here
}

// setupsAt is the number of stacks a run builds to time set-up, per
// scale; setup_s is their median and the last one serves the workload.
var setupsAt = map[string]int{scaleFull: 21, scaleSmoke: 2}

// metricDef names a metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the untraced run's metrics, in print order.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"throughput_per_s", "1/s"},
	{"latency_p50_ms", "ms"},
	{"latency_p90_ms", "ms"},
	{"cpu_s_per_op", "s"},
	{"rss_peak_mb", "MB"},
	{"area_um", "um"},
	{"feasible_frac", "ratio"},
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// summary is the last line of standard output.
type summary struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// record is everything one run measured; -out writes it and compare
// reads it.
type record struct {
	summary
	Workload string    `json:"workload"`
	Seed     int64     `json:"seed"`
	Trace    bool      `json:"trace"`
	Scale    string    `json:"scale"`
	Seconds  float64   `json:"seconds"`
	Started  time.Time `json:"started"`
	Host     host      `json:"host"`
	Passes   int       `json:"passes"`
	Digest   string    `json:"result_digest"`
	Problems []string  `json:"problems,omitempty"`
	// Notes are the human-readable lines printed before the summary.
	Notes []string `json:"notes"`
}

func (r *record) note(format string, args ...any) {
	r.Notes = append(r.Notes, fmt.Sprintf(format, args...))
}

func (r *record) set(name, unit string, v float64) {
	r.Metrics[name] = metricValue{Value: v, Unit: unit}
}

func runMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("popsbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var cfg config
	var trace int
	var out string
	fs.StringVar(&cfg.workload, "workload", "", "workload to run: suite-tight, suite-loose, large-leakage or service-mixed")
	fs.Int64Var(&cfg.seed, "seed", 1, "workload seed (1 is the baseline; hold 2 out for claims)")
	fs.Float64Var(&cfg.seconds, "seconds", 25, "measured duration: closed loops start no pass after it, the open loop schedules requests across it")
	fs.IntVar(&trace, "trace", 0, "1 runs the traced per-layer run instead of the untraced end-to-end run")
	fs.StringVar(&cfg.scale, "scale", scaleFull, "full, or smoke for a few small circuits")
	fs.StringVar(&cfg.workdir, "workdir", ".bench_build", "directory for the service's data while the run lasts")
	fs.StringVar(&cfg.spans, "spans", "", "traced run: write the recorded spans to this JSON file")
	fs.StringVar(&out, "out", "", "write the full run record (input to compare) to this JSON file")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if trace != 0 && trace != 1 {
		fmt.Fprintln(stderr, "popsbench: -trace must be 0 or 1")
		return 2
	}
	cfg.trace = trace == 1
	if cfg.seconds <= 0 || fs.NArg() > 0 {
		fmt.Fprintln(stderr, "popsbench: need -seconds > 0 and no positional arguments")
		return 2
	}
	rec, err := run(cfg)
	if err != nil {
		fmt.Fprintln(stderr, "popsbench:", err)
		return 1
	}
	for _, n := range rec.Notes {
		fmt.Fprintln(stdout, n)
	}
	if out != "" {
		buf, err := json.MarshalIndent(rec, "", "  ")
		if err == nil {
			err = os.WriteFile(out, append(buf, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintln(stderr, "popsbench:", err)
			return 1
		}
	}
	line, err := json.Marshal(rec.summary)
	if err != nil {
		fmt.Fprintln(stderr, "popsbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !rec.Correct {
		return 1
	}
	return 0
}

// run builds the stack setupsAt[cfg.scale] times, timing each build,
// and drives the workload against the last one. The stacks are built
// before the workload's inputs, so set-up time does not depend on the
// workload.
func run(cfg config) (rec *record, err error) {
	if !slices.Contains(workloadNames, cfg.workload) {
		return nil, fmt.Errorf("unknown workload %q (want one of %s)", cfg.workload, strings.Join(workloadNames, ", "))
	}
	if setupsAt[cfg.scale] == 0 {
		return nil, fmt.Errorf("unknown scale %q (want %s or %s)", cfg.scale, scaleFull, scaleSmoke)
	}
	rec = &record{
		summary:  summary{Metrics: make(map[string]metricValue)},
		Workload: cfg.workload, Seed: cfg.seed, Trace: cfg.trace, Scale: cfg.scale,
		Seconds: cfg.seconds, Started: time.Now().UTC(), Host: hostInfo(),
	}
	mode := "untraced"
	if cfg.trace {
		mode = "traced"
	}
	rec.note("popsbench: workload %s, seed %d, %g s, scale %s, %s", cfg.workload, cfg.seed, cfg.seconds, cfg.scale, mode)
	rec.note("host: %d CPUs (GOMAXPROCS %d), %s, %s", rec.Host.CPUs, rec.Host.GOMAXPROCS, rec.Host.CPUModel, rec.Host.GoVersion)

	var tr *tracer
	if cfg.trace {
		tr = newTracer()
	}
	stacks := 0
	open := func() (*stack, error) {
		stacks++
		return openStack(filepath.Join(cfg.workdir, fmt.Sprintf("popsbench-%d-%d", os.Getpid(), stacks)), tr)
	}
	setups := make([]float64, setupsAt[cfg.scale])
	var st *stack
	for i := range setups {
		start := time.Now()
		s, err := open()
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups[i] = time.Since(start).Seconds()
		if i < len(setups)-1 {
			if err := s.close(); err != nil {
				return nil, fmt.Errorf("set-up teardown: %w", err)
			}
			continue
		}
		st = s
	}
	defer func() {
		if cerr := st.close(); cerr != nil && err == nil {
			err = fmt.Errorf("teardown: %w", cerr)
		}
	}()
	rec.note("setup: %d stacks, median %.4f s (min %.4f, max %.4f)", len(setups), median(setups), percentile(setups, 0), percentile(setups, 1))
	w, err := buildWorkload(cfg.workload, cfg.scale)
	if err != nil {
		return nil, err
	}
	if err := fillMemo(st, w); err != nil {
		return nil, err
	}

	if cfg.trace {
		tr.reset()
		if err := runTraced(cfg, w, st, tr, rec); err != nil {
			return nil, err
		}
		return rec, nil
	}

	var res *loadResult
	if w.closed() {
		if res, err = closedLoop(st, open, w, cfg.seed, cfg.seconds, 0); err != nil {
			return nil, err
		}
		rec.note("load: closed loop, 1 client, %d passes of %d ops, each pass on a fresh stack", res.passes, len(w.pass))
		rec.note("passes: %.4g..%.4g ops/s, %.4g..%.4g CPU s/op; the metrics take the medians", percentile(res.rates, 0),
			percentile(res.rates, 1), percentile(res.cpuPerOp, 0), percentile(res.cpuPerOp, 1))
	} else {
		res = openLoop(st, w.openSchedule(cfg.seed, cfg.seconds))
		rec.note("load: open loop, %g requests/s for %g s", w.rate, cfg.seconds)
	}
	rec.Passes = res.passes
	v := checkOutcomes(res.outcomes)
	n := len(res.outcomes)
	rec.Attempted, rec.Failed, rec.Problems = n, v.failed, v.problems
	rec.Correct = v.failed == 0 && n > 0
	rec.Digest = v.digest()

	lat := make([]float64, 0, n)
	lags := make([]float64, 0, n)
	for _, oc := range res.outcomes {
		lat = append(lat, float64(oc.latency)/float64(time.Millisecond))
		lags = append(lags, float64(oc.lag)/float64(time.Millisecond))
	}
	area, feasible := v.quality()
	rec.set("setup_s", "s", median(setups))
	rec.set("throughput_per_s", "1/s", median(res.rates))
	rec.set("latency_p50_ms", "ms", percentile(lat, 0.50))
	rec.set("latency_p90_ms", "ms", percentile(lat, 0.90))
	rec.set("cpu_s_per_op", "s", median(res.cpuPerOp))
	rec.set("rss_peak_mb", "MB", res.hwmKB/1024)
	rec.set("area_um", "um", area)
	rec.set("feasible_frac", "ratio", feasible)

	rec.note("ops: %d attempted, %d failed, %d templates, wall %.3f s", n, v.failed, len(v.results), res.wall.Seconds())
	tail := "none"
	if n > 10 {
		tail = fmt.Sprintf("p%.1f", 100*(1-10/float64(n)))
	}
	rec.note("latency: %d samples; highest percentile with ten samples beyond it: %s", n, tail)
	rec.note("generator lateness: p50 %.3f ms, p99 %.3f ms", percentile(lags, 0.5), percentile(lags, 0.99))
	for _, p := range v.problems {
		rec.note("FAILED %s", p)
	}
	rec.note("result_digest %s", rec.Digest)
	printMetrics(rec, endToEnd)
	return rec, nil
}

// printMetrics adds one "name value unit" note per metric.
func printMetrics(rec *record, defs []metricDef) {
	for _, d := range defs {
		m, ok := rec.Metrics[d.name]
		if !ok {
			rec.note("%-34s missing", d.name)
			continue
		}
		rec.note("%-34s %16.6f %s", d.name, m.Value, m.Unit)
	}
}

// sortedKeys returns a map's keys in order.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
