package main

import (
	"encoding/json"
	"os"
	"reflect"
	"sort"
	"testing"

	"repro/internal/engine"
)

// specNames reads the metric names BENCHMARK.json lists for a section.
func specNames(t *testing.T, section string) []string {
	t.Helper()
	buf, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec map[string]json.RawMessage
	if err := json.Unmarshal(buf, &spec); err != nil {
		t.Fatal(err)
	}
	var metrics []struct {
		Name string `json:"name"`
	}
	if err := json.Unmarshal(spec[section], &metrics); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, m := range metrics {
		names = append(names, m.Name)
	}
	sort.Strings(names)
	return names
}

func smokeRun(t *testing.T, workload string, seed int64, trace bool) *record {
	t.Helper()
	rec, err := run(config{workload: workload, seed: seed, seconds: 0.05, trace: trace,
		scale: scaleSmoke, workdir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	if !rec.Correct || rec.Failed != 0 || rec.Attempted == 0 {
		t.Fatalf("%s trace=%v: correct=%v attempted=%d failed=%d problems=%v",
			workload, trace, rec.Correct, rec.Attempted, rec.Failed, rec.Problems)
	}
	return rec
}

// TestSmokeMetricsMatchSpec runs every workload at smoke scale, untraced
// and traced, and checks the results pass and each run emits exactly
// the metrics BENCHMARK.json lists, with the units the code declares.
func TestSmokeMetricsMatchSpec(t *testing.T) {
	for _, w := range workloadNames {
		for _, tc := range []struct {
			trace   bool
			section string
			defs    []metricDef
		}{{false, "end_to_end", endToEnd}, {true, "per_layer", perLayer}} {
			rec := smokeRun(t, w, 1, tc.trace)
			if got, want := sortedKeys(rec.Metrics), specNames(t, tc.section); !reflect.DeepEqual(got, want) {
				t.Errorf("%s trace=%v emits %v, BENCHMARK.json lists %v", w, tc.trace, got, want)
			}
			for _, d := range tc.defs {
				if rec.Metrics[d.name].Unit != d.unit {
					t.Errorf("%s: %s unit %q, want %q", w, d.name, rec.Metrics[d.name].Unit, d.unit)
				}
			}
		}
	}
}

// TestSameSeedSameRun checks a seed fixes the op list and the results.
func TestSameSeedSameRun(t *testing.T) {
	for _, name := range workloadNames {
		w, err := buildWorkload(name, scaleSmoke)
		if err != nil {
			t.Fatal(err)
		}
		if a, b := requests(t, w, 1), requests(t, w, 1); !reflect.DeepEqual(a, b) {
			t.Errorf("%s: seed 1 gave two different op lists", name)
		}
		if a, b := requests(t, w, 1), requests(t, w, 2); reflect.DeepEqual(a, b) {
			t.Errorf("%s: seeds 1 and 2 gave the same op list", name)
		}
	}
	a, b := smokeRun(t, "suite-loose", 1, false), smokeRun(t, "suite-loose", 1, false)
	if a.Digest != b.Digest {
		t.Errorf("seed 1 gave digests %s and %s", a.Digest, b.Digest)
	}
}

// TestSeedsRenameCircuits checks seeds 1 and 2 submit different
// netlist fingerprints, so neither run is served from the other's
// results.
func TestSeedsRenameCircuits(t *testing.T) {
	w, err := buildWorkload("suite-tight", scaleSmoke)
	if err != nil {
		t.Fatal(err)
	}
	key := func(seed int64) string {
		o := w.passOps(seed, 0)[0]
		text, err := benchText(o.tmpl.src, o.salt)
		if err != nil {
			t.Fatal(err)
		}
		pb, err := engine.ParseBench(text)
		if err != nil {
			t.Fatal(err)
		}
		return pb.Key
	}
	if key(1) == key(2) {
		t.Error("seeds 1 and 2 submit the same fingerprint")
	}
}

// TestJudge checks compare's verdicts, including that a regression far
// beyond the bound behind a noisy parent reads unresolved, not same.
func TestJudge(t *testing.T) {
	steady := []float64{100, 101, 99, 100, 100, 101, 99, 100, 100, 100}
	noisy := []float64{60, 140, 70, 130, 80, 120, 90, 110, 100, 100}
	faster := []float64{80, 81, 79, 80, 80, 81, 79, 80, 80, 80}
	slower := []float64{150, 151, 149, 150, 150, 151, 149, 150, 150, 150}
	for _, tc := range []struct {
		name         string
		a, b         []float64
		bound, floor float64
		want         string
	}{
		{"same code", steady, steady, 0.1, 0, "same"},
		{"faster", steady, faster, 0.1, 0, "better"},
		{"slower", steady, slower, 0.1, 0, "worse"},
		{"slower behind a noisy parent", noisy, slower, 0.1, 0, "unresolved"},
		{"slower within the floor", steady, slower, 0.1, 60, "same"},
	} {
		if got, _, _ := judge(tc.a, tc.b, true, tc.bound, tc.floor); got != tc.want {
			t.Errorf("%s: verdict %s, want %s", tc.name, got, tc.want)
		}
	}
}

// requests renders the first ops a workload sends for a seed.
func requests(t *testing.T, w *workload, seed int64) []string {
	t.Helper()
	var list []*op
	if w.closed() {
		list = w.passOps(seed, 0)
	} else {
		list = w.openSchedule(seed, 2)
	}
	var out []string
	for _, o := range list {
		path, body, err := o.request()
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, path+" "+o.due.String()+" "+string(body))
	}
	return out
}
