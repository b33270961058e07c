// Command popslint is the repository's project-specific static
// analysis suite: a go vet -vettool multichecker enforcing the
// invariants the compiler cannot see but the optimization protocol's
// correctness rests on.
//
// The seven analyzers:
//
//	mutatorepoch  structural netlist mutations must bump the circuit
//	              epoch (MarkMutated), and only internal/netlist may
//	              rewire Fanin/Fanout/Type directly
//	noalloc       functions annotated //pops:noalloc must not contain
//	              allocation-inducing constructs
//	memokey       engine memo families must key on content-derived
//	              types (netlist.Fingerprint / PathSignature), never
//	              raw circuit-name strings
//	nilrecorder   *engine.Metrics methods and recorder implementations
//	              must begin with a nil-receiver guard
//	rngstream     explicit seeded rand streams only: no global
//	              math/rand, no time-derived seeds
//	maporder      map iteration in result-affecting packages needs an
//	              intervening sort or a //pops:orderindep annotation
//	              before its effect reaches a result
//	locksafe      no blocking operations while holding an engine or
//	              store mutex; every Lock reaches Unlock on all
//	              return paths unless deferred
//
// Usage:
//
//	popslint ./...                      # runs: go vet -vettool=popslint ./...
//	go vet -vettool=$(which popslint) ./...
//	popslint -ignores .                 # list every suppression with its justification
//	popslint -ignores -budget cmd/popslint/ignores_budget.txt .
//	                                    # fail if suppressions drift from the budget
//
// Findings are suppressed per-site with a justified
// //popslint:ignore <analyzer> <reason> comment; see the Static
// analysis section of docs/ARCHITECTURE.md. The -ignores modes keep
// that surface auditable.
//
// The module is dependency-free: internal/analysis mirrors the
// golang.org/x/tools/go/analysis API shape and internal/unit speaks
// cmd/go's vettool config protocol, both on the standard library, so
// the main module's zero-dependency property extends to its linter.
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strings"

	"popslint/internal/analysis"
	"popslint/internal/analyzers/locksafe"
	"popslint/internal/analyzers/maporder"
	"popslint/internal/analyzers/memokey"
	"popslint/internal/analyzers/mutatorepoch"
	"popslint/internal/analyzers/nilrecorder"
	"popslint/internal/analyzers/noalloc"
	"popslint/internal/analyzers/rngstream"
	"popslint/internal/unit"
)

// all returns the full analyzer suite in reporting order.
func all() []*analysis.Analyzer {
	return []*analysis.Analyzer{
		mutatorepoch.Analyzer,
		noalloc.Analyzer,
		memokey.Analyzer,
		nilrecorder.Analyzer,
		rngstream.Analyzer,
		maporder.Analyzer,
		locksafe.Analyzer,
	}
}

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("popslint", flag.ContinueOnError)
	fs.Var(versionFlag{}, "V", "print version and exit (go vet protocol)")
	printFlags := fs.Bool("flags", false, "print analyzer flags in JSON (go vet protocol)")
	jsonOut := fs.Bool("json", false, "emit JSON output")
	ignores := fs.Bool("ignores", false, "list every //popslint:ignore directive with file/line/analyzer/justification")
	budget := fs.String("budget", "", "with -ignores: diff suppressions against this budget file and fail on drift")
	fs.Int("c", -1, "display offending line with this many lines of context (accepted for protocol compatibility)")
	enabled := map[string]*bool{}
	for _, a := range all() {
		enabled[a.Name] = fs.Bool(a.Name, false, "enable only the "+a.Name+" analyzer")
	}
	if err := fs.Parse(args); err != nil {
		return 1
	}
	if *printFlags {
		return printFlagDefs(fs, os.Stdout)
	}
	if *ignores {
		return runIgnores(fs.Args(), *budget, os.Stdout)
	}

	// Selective run: naming any analyzer flag restricts the suite.
	suite := all()
	var picked []*analysis.Analyzer
	for _, a := range suite {
		if *enabled[a.Name] {
			picked = append(picked, a)
		}
	}
	if len(picked) > 0 {
		suite = picked
	}

	rest := fs.Args()
	if len(rest) == 1 && strings.HasSuffix(rest[0], ".cfg") {
		// Invoked by cmd/go on one compilation unit.
		return unit.Run(rest[0], suite, *jsonOut, os.Stdout, os.Stderr)
	}

	// Standalone convenience mode: re-enter through the go toolchain,
	// which owns package loading, caching and dependency export data.
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "popslint:", err)
		return 1
	}
	if len(rest) == 0 {
		rest = []string{"./..."}
	}
	vetArgs := []string{"vet", "-vettool=" + self}
	for _, a := range picked {
		vetArgs = append(vetArgs, "-"+a.Name)
	}
	if *jsonOut {
		vetArgs = append(vetArgs, "-json")
	}
	cmd := exec.Command("go", append(vetArgs, rest...)...)
	cmd.Stdout = os.Stdout
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		if ee, ok := err.(*exec.ExitError); ok {
			return ee.ExitCode()
		}
		fmt.Fprintln(os.Stderr, "popslint:", err)
		return 1
	}
	return 0
}

// printFlagDefs implements the -flags handshake: cmd/go asks the tool
// which flags it supports (as a JSON list) before forwarding any.
func printFlagDefs(fs *flag.FlagSet, w io.Writer) int {
	type jsonFlag struct {
		Name  string
		Bool  bool
		Usage string
	}
	var defs []jsonFlag
	fs.VisitAll(func(f *flag.Flag) {
		isBool := false
		if b, ok := f.Value.(interface{ IsBoolFlag() bool }); ok {
			isBool = b.IsBoolFlag()
		}
		defs = append(defs, jsonFlag{Name: f.Name, Bool: isBool, Usage: f.Usage})
	})
	data, err := json.MarshalIndent(defs, "", "\t")
	if err != nil {
		fmt.Fprintln(os.Stderr, "popslint:", err)
		return 1
	}
	fmt.Fprintln(w, string(data))
	return 0
}

// versionFlag implements -V=full, the version handshake cmd/go uses to
// fingerprint the tool for its build cache (same line shape as the
// x/tools drivers: name, version, and a content hash of the binary).
type versionFlag struct{}

func (versionFlag) IsBoolFlag() bool { return false }
func (versionFlag) Get() any         { return nil }
func (versionFlag) String() string   { return "" }

func (versionFlag) Set(s string) error {
	if s != "full" {
		return fmt.Errorf("unsupported flag value: -V=%s (use -V=full)", s)
	}
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	data, err := os.ReadFile(exe)
	if err != nil {
		return err
	}
	h := sha256.Sum256(data)
	fmt.Printf("%s version devel comments-go-here buildID=%s\n",
		os.Args[0], hex.EncodeToString(h[:16]))
	os.Exit(0)
	return nil
}
