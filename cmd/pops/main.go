// Command pops analyzes and optimizes combinational circuits with the
// paper's protocol.
//
// Usage:
//
//	pops analyze  (-bench file.bench | -circuit c432)
//	pops bounds   (-bench file.bench | -circuit c432)
//	pops optimize (-bench file.bench | -circuit c432) -tc 2500
//	pops optimize -circuit c432 -ratio 1.3          # Tc = 1.3 × Tmin
//	pops sweep    (-bench file.bench | -circuit c880) -points 9
//	pops leakage  -circuit c432 -ratio 1.4          # optimize + multi-Vt assignment
//	pops slack    -circuit c880 -ratio 1.2          # required times / slacks
//	pops power    (-bench file.bench | -circuit c432)
//	pops report   (-bench file.bench | -circuit c432)  # combined summary
//	pops flimit                                      # library characterization
//	pops calibrate                                   # fit model from simulator
//	pops list                                        # benchmark suite
//	pops metrics  [-addr http://localhost:8080]      # scrape a running popsd
//
// Circuits are either ISCAS'85 .bench files (elaborated onto the
// primitive library on load) or named members of the paper's benchmark
// suite. The optimize and sweep subcommands feed a -bench file through
// the batch engine's hardened ingestion pass — the same path as
// POST /v1/optimize {"bench": …} and pops.OptimizeBench, with results
// byte-identical across all three entry points.
//
// optimize and sweep accept -data-dir: a durable result cache shared
// across invocations (and with a popsd running on the same directory),
// so repeating a (circuit, Tc) request serves the persisted record
// instead of recomputing.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"

	"repro"
	"repro/internal/report"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	cmd := os.Args[1]
	fs := flag.NewFlagSet(cmd, flag.ExitOnError)
	benchFile := fs.String("bench", "", "ISCAS'85 .bench netlist file")
	circuit := fs.String("circuit", "", "named benchmark (c432, Adder16, c17, rca16, …)")
	tc := fs.Float64("tc", 0, "delay constraint in ps")
	ratio := fs.Float64("ratio", 0, "delay constraint as a multiple of Tmin")
	k := fs.Int("k", 3, "number of worst paths to report (analyze)")
	points := fs.Int("points", 11, "Tc grid size (sweep)")
	addr := fs.String("addr", "http://localhost:8080", "base URL of a running popsd (metrics)")
	dataDir := fs.String("data-dir", "", "durable result cache shared across invocations (optimize, sweep)")
	if err := fs.Parse(os.Args[2:]); err != nil {
		os.Exit(2)
	}

	if err := run(os.Stdout, cmd, *benchFile, *circuit, *addr, *dataDir, *tc, *ratio, *k, *points); err != nil {
		fmt.Fprintln(os.Stderr, "pops:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage: pops <analyze|bounds|optimize|sweep|leakage|report|slack|power|flimit|calibrate|list|metrics> [flags]
run "pops <command> -h" for command flags`)
}

// load resolves the -bench/-circuit pair to an elaborated circuit for
// the in-process subcommands, through the same source validation and
// ingestion pass as the engine-backed ones (engineSource/ParseBench).
func load(benchFile, circuit string) (*pops.Circuit, error) {
	bench, name, err := engineSource(benchFile, circuit)
	if err != nil {
		return nil, err
	}
	if bench != "" {
		pb, err := pops.ParseBench(bench)
		if err != nil {
			return nil, err
		}
		return pb.Circuit, nil
	}
	return pops.Benchmark(name)
}

// engineSource resolves the -bench/-circuit pair into the inline-bench
// or named-circuit fields of an engine request: a -bench file rides as
// raw source through the engine's ingestion pass (the same path as the
// HTTP service), a -circuit name as a suite reference. Exactly one
// must be given — the engine enforces the same rule, so the CLI never
// silently drops a flag the HTTP layer would reject.
func engineSource(benchFile, circuit string) (bench, name string, err error) {
	switch {
	case benchFile != "" && circuit != "":
		return "", "", fmt.Errorf("-bench and -circuit are mutually exclusive")
	case benchFile != "":
		buf, err := os.ReadFile(benchFile)
		if err != nil {
			return "", "", err
		}
		return string(buf), "", nil
	case circuit != "":
		return "", circuit, nil
	default:
		return "", "", fmt.Errorf("need -bench or -circuit")
	}
}

// printStats prints the one-line circuit header shared by analyze and
// report.
func printStats(w io.Writer, c *pops.Circuit, worst *pops.STAResult) {
	st := c.Stats()
	fmt.Fprintf(w, "circuit %s: %d gates, %d inputs, %d outputs, depth %d\n",
		c.Name, st.Gates, st.Inputs, st.Outputs, st.Depth)
	fmt.Fprintf(w, "worst delay: %.1f ps at %s\n", worst.WorstDelay, worst.WorstOutput.Name)
}

// printPower estimates and prints dynamic power, shared by power and
// report.
func printPower(w io.Writer, c *pops.Circuit, proc *pops.Process) error {
	est, err := pops.EstimatePower(c, proc, pops.PowerOptions{})
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "dynamic power: %.1f µW at 100 MHz (mean activity %.2f, switched cap %.0f fF/cycle)\n",
		est.TotalUW, est.MeanActivity, est.SwitchedCapFF)
	return nil
}

// newEngine builds the batch engine behind optimize and sweep, with a
// durable result tier under dataDir when one is given: a later pops
// run (or a popsd started on the same directory) serves repeated
// (circuit, Tc) results from disk instead of recomputing. The returned
// closer flushes and releases the tier.
func newEngine(dataDir string) (*pops.Engine, func(), error) {
	if dataDir == "" {
		eng, err := pops.NewEngine(pops.EngineConfig{})
		return eng, func() {}, err
	}
	disk, err := pops.OpenDiskStore(filepath.Join(dataDir, "results"), nil)
	if err != nil {
		return nil, nil, err
	}
	eng, err := pops.NewEngine(pops.EngineConfig{Results: disk})
	if err != nil {
		disk.Close()
		return nil, nil, err
	}
	return eng, func() { disk.Close() }, nil
}

func run(w io.Writer, cmd, benchFile, circuit, addr, dataDir string, tc, ratio float64, k, points int) error {
	proc := pops.DefaultProcess()
	model := pops.NewModel(proc)

	switch cmd {
	case "metrics":
		// Scrape a running daemon's Prometheus exposition and relay it
		// verbatim — the CLI face of GET /metrics.
		resp, err := http.Get(strings.TrimSuffix(addr, "/") + "/metrics")
		if err != nil {
			return err
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			return fmt.Errorf("metrics: %s answered %s", addr, resp.Status)
		}
		_, err = io.Copy(w, resp.Body)
		return err

	case "optimize":
		bench, name, err := engineSource(benchFile, circuit)
		if err != nil {
			return err
		}
		if tc == 0 && ratio == 0 {
			return fmt.Errorf("optimize needs -tc or -ratio")
		}
		eng, closeStore, err := newEngine(dataDir)
		if err != nil {
			return err
		}
		defer closeStore()
		res, err := eng.Optimize(context.Background(), pops.OptimizeRequest{
			Circuit: name, Bench: bench, Tc: tc, Ratio: ratio,
		})
		if err != nil {
			return err
		}
		out := res.Outcome
		fmt.Fprintf(w, "constraint: %.1f ps\n", res.Tc)
		fmt.Fprintf(w, "result: delay %.1f ps, circuit area %.1f µm, feasible=%v\n",
			out.Delay, out.Area, out.Feasible)
		fmt.Fprintf(w, "rounds=%d buffers=%d nor-rewrites=%d\n",
			out.Rounds, out.Buffers, out.NorRewrites)
		for i, po := range out.PathOutcomes {
			fmt.Fprintf(w, "  round %d: domain=%s method=%s delay=%.1f area=%.1f\n",
				i+1, po.Domain, po.Method, po.Delay, po.Area)
		}
		return nil

	case "sweep":
		bench, name, err := engineSource(benchFile, circuit)
		if err != nil {
			return err
		}
		eng, closeStore, err := newEngine(dataDir)
		if err != nil {
			return err
		}
		defer closeStore()
		sw, err := eng.Sweep(context.Background(), pops.SweepRequest{
			Circuit: name, Bench: bench, Points: points,
		})
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "circuit %s: Tmin %.1f ps, Tmax %.1f ps\n", sw.Circuit, sw.Tmin, sw.Tmax)
		t := report.NewTable("area/delay trade-off", "Ratio", "Tc (ps)", "Delay (ps)", "Area (µm)", "Feasible", "Rounds", "Buffers")
		for _, p := range sw.Points {
			t.AddRow(fmt.Sprintf("%.2f", p.Ratio), p.Tc, p.Delay, p.Area, p.Feasible, p.Rounds, p.Buffers)
		}
		fmt.Fprint(w, t.String())
		return nil

	case "list":
		t := report.NewTable("benchmark suite", "Name", "Inputs", "Outputs", "Gates", "Path gates")
		for _, s := range pops.Benchmarks() {
			t.AddRow(s.Name, s.Inputs, s.Outputs, s.Gates, s.PathLen)
		}
		fmt.Fprint(w, t.String())
		return nil

	case "flimit":
		t := report.NewTable("library characterization (driver: INV)", "Gate", "Flimit")
		for _, e := range pops.CharacterizeLibrary(model) {
			t.AddRow(e.Gate.String(), e.Flimit)
		}
		fmt.Fprint(w, t.String())
		return nil

	case "calibrate":
		res, err := pops.Calibrate(proc, nil)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "fitted S0 = %.3f (library %.3f)\n", res.S0, proc.S0)
		t := report.NewTable("fitted logical weights (transistor-level)", "Gate", "DW_HL", "DW_LH")
		for _, gt := range pops.CharacterizeLibrary(model) {
			if w, ok := res.Weights[gt.Gate]; ok {
				t.AddRow(gt.Gate.String(), w.HL, w.LH)
			}
		}
		fmt.Fprint(w, t.String())
		fmt.Fprintf(w, "library RMS deviation: %.1f%%\n", res.LibraryRMS*100)
		return nil
	}

	c, err := load(benchFile, circuit)
	if err != nil {
		return err
	}

	switch cmd {
	case "analyze":
		res, err := pops.Analyze(c, model)
		if err != nil {
			return err
		}
		printStats(w, c, res)
		paths, err := pops.KWorstPaths(c, model, k)
		if err != nil {
			return err
		}
		t := report.NewTable("worst paths", "#", "gates", "delay (ps)", "area (µm)")
		for i, pa := range paths {
			t.AddRow(i+1, pa.Len(), model.PathDelayWorst(pa), pa.Area(proc))
		}
		fmt.Fprint(w, t.String())
		return nil

	case "bounds":
		pa, _, err := pops.CriticalPath(c, model)
		if err != nil {
			return err
		}
		b, err := pops.Bounds(model, pa.Clone())
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "critical path: %d gates\n", pa.Len())
		fmt.Fprintf(w, "Tmin = %.1f ps   Tmax = %.1f ps\n", b.Tmin, b.Tmax)
		fmt.Fprintf(w, "domains: hard < %.1f ps ≤ medium ≤ %.1f ps < weak\n",
			1.2*b.Tmin, 2.5*b.Tmin)
		return nil

	case "leakage":
		pa, _, err := pops.CriticalPath(c, model)
		if err != nil {
			return err
		}
		if tc == 0 {
			if ratio == 0 {
				return fmt.Errorf("leakage needs -tc or -ratio")
			}
			b, err := pops.Bounds(model, pa.Clone())
			if err != nil {
				return err
			}
			tc = ratio * b.Tmin
		}
		proto, err := pops.NewProtocol(pops.ProtocolConfig{Model: model})
		if err != nil {
			return err
		}
		out, err := proto.Optimize(context.Background(), proto.NewTimingSession(c), tc, &pops.LeakageOptions{})
		if err != nil {
			return err
		}
		lr := out.Leakage
		fmt.Fprintf(w, "constraint: %.1f ps\n", tc)
		fmt.Fprintf(w, "result: delay %.1f ps, circuit area %.1f µm, feasible=%v\n",
			out.Delay, out.Area, out.Feasible)
		fmt.Fprintf(w, "multi-Vt: %d of %d candidates promoted\n", lr.Promoted, lr.Considered)
		t := report.NewTable("Vt census", "Class", "Gates")
		for _, cls := range []pops.VtClass{pops.LVT, pops.SVT, pops.HVT} {
			t.AddRow(cls.String(), lr.ByClass[cls])
		}
		fmt.Fprint(w, t.String())
		fmt.Fprint(w, report.PowerBreakdown(lr.DynamicUW, lr.StaticBeforeUW, lr.StaticAfterUW).String())
		return nil

	case "power":
		st := c.Stats()
		fmt.Fprintf(w, "circuit %s: %d gates\n", c.Name, st.Gates)
		return printPower(w, c, proc)

	case "report":
		res, err := pops.Analyze(c, model)
		if err != nil {
			return err
		}
		printStats(w, c, res)
		pa, _, err := pops.CriticalPath(c, model)
		if err != nil {
			return err
		}
		b, err := pops.Bounds(model, pa.Clone())
		if err != nil {
			return err
		}
		t := report.NewTable("critical path", "Gates", "Tmin (ps)", "Tmax (ps)", "Hard < (ps)", "Weak > (ps)")
		t.AddRow(pa.Len(), b.Tmin, b.Tmax, 1.2*b.Tmin, 2.5*b.Tmin)
		fmt.Fprint(w, t.String())
		return printPower(w, c, proc)

	case "slack":
		res, err := pops.Analyze(c, model)
		if err != nil {
			return err
		}
		if tc == 0 {
			if ratio == 0 {
				ratio = 1.0
			}
			tc = ratio * res.WorstDelay
		}
		rep, err := res.Slacks(tc)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "constraint %.1f ps: worst slack %.1f ps, %d violating nodes\n",
			tc, rep.WorstSlack, rep.Violations)
		t := report.NewTable("most critical nodes", "Node", "Slack (ps)")
		for _, n := range rep.CriticalBySlack(k) {
			t.AddRow(n.Name, rep.Slack(n))
		}
		fmt.Fprint(w, t.String())
		return nil
	}
	usage()
	return fmt.Errorf("unknown command %q", cmd)
}
