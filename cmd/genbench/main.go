// Command genbench exports the synthetic benchmark suite as ISCAS'85
// .bench files, so the circuits used by the experiments can be fed to
// external tools (or diffed across versions — generation is
// deterministic), and captures Go benchmark runs — including -benchmem
// allocation counters — into the repository's BENCH_*.json records.
//
// Usage:
//
//	genbench [-out bench] [-seed 0] [name ...]
//	genbench bench -out BENCH_x.json -pattern 'BenchmarkX' [-pkg .]
//	         [-benchtime 3x] [-count 1] [-desc "..."] [-note "..."]
//	         [-allow-single-core]
//
// With no names, the whole suite plus c17 and rca16 is exported. The
// bench subcommand shells out to `go test -bench <pattern> -benchmem`,
// parses every result line (ns/op, B/op, allocs/op and custom metrics)
// plus the host header, and writes the JSON record whose exact command
// line is embedded in the file for reproduction.
//
// The bench subcommand runs `go vet` on the target package before
// benchmarking and exits with code 3 on findings — distinct from the
// generic exit 1 — so bench harnesses fail fast on lint errors instead
// of recording a baseline from a tree that will not survive review. On
// a single-core host (runtime.NumCPU() == 1) it refuses to record at
// all — the engine's workers= rows, the only rows that show more than
// one core, would collapse onto the workers=1 number — unless
// -allow-single-core is passed, in which case it records under a loud
// stderr warning and stamps num_cpu into the host block.
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"repro"
	"repro/internal/iscas"
	"repro/internal/netlist"
)

func main() {
	if len(os.Args) > 1 && os.Args[1] == "bench" {
		if err := runBenchCapture(os.Args[2:]); err != nil {
			fmt.Fprintln(os.Stderr, "genbench bench:", err)
			if errors.Is(err, errVet) {
				os.Exit(3)
			}
			os.Exit(1)
		}
		return
	}
	out := flag.String("out", "bench", "output directory")
	seed := flag.Int64("seed", 0, "generator seed override for suite circuits")
	flag.Parse()

	names := flag.Args()
	if len(names) == 0 {
		for _, s := range iscas.Suite() {
			names = append(names, s.Name)
		}
		names = append(names, "c17", "rca16")
	}
	if err := run(*out, *seed, names); err != nil {
		fmt.Fprintln(os.Stderr, "genbench:", err)
		os.Exit(1)
	}
}

func run(outDir string, seed int64, names []string) error {
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	for _, name := range names {
		var c *pops.Circuit
		var err error
		if spec, specErr := iscas.ByName(name); specErr == nil && seed != 0 {
			spec.Seed = seed
			c, err = iscas.Generate(spec)
		} else {
			c, err = pops.Benchmark(name)
		}
		if err != nil {
			return err
		}
		path := filepath.Join(outDir, name+".bench")
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		if err := netlist.WriteBench(f, c); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		st := c.Stats()
		fmt.Printf("%-10s %5d gates → %s\n", name, st.Gates, path)
	}
	return nil
}
