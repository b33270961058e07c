// Package rngstream enforces the repository's reproducible-randomness
// contract. Every stochastic result — Monte-Carlo power estimation,
// generated benchmark netlists, annealing schedules — must replay
// bit-exactly from a recorded seed. Two rules follow:
//
//   - No global math/rand state in non-test code. The package-level
//     functions (rand.Intn, rand.Float64, rand.Shuffle, rand.Seed, …)
//     draw from a process-wide source that any other package can
//     perturb, so a run's results depend on unrelated code. Construct
//     an explicit stream instead: rand.New(rand.NewSource(seed)).
//
//   - No time-derived seeds. time.Now().UnixNano() as a seed makes
//     every run unrepeatable by construction; seeds come from config,
//     flags, or a recorded session.
//
// Test files are exempt throughout: tests may use throwaway
// randomness freely.
package rngstream

import (
	"go/ast"
	"go/types"

	"popslint/internal/analysis"
	"popslint/internal/lintutil"
)

// randPkgs are the package paths whose draws are policed. crypto/rand
// is deliberately absent: it is non-reproducible by design and used
// only for trace-ID generation.
var randPkgs = map[string]bool{"math/rand": true, "math/rand/v2": true}

// constructors build explicit streams and are the blessed alternative
// to global state (their seed arguments are still checked for
// time-derivation).
var constructors = map[string]bool{
	"New": true, "NewSource": true, "NewZipf": true,
	"NewPCG": true, "NewChaCha8": true,
}

var Analyzer = &analysis.Analyzer{
	Name: "rngstream",
	Doc:  "non-test code must use explicit seeded rand streams, never time-derived seeds",
	Run:  run,
}

func run(pass *analysis.Pass) error {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			if call, ok := n.(*ast.CallExpr); ok && !pass.InTestFile(call.Pos()) {
				checkCall(pass, call)
			}
			return true
		})
	}
	return nil
}

func checkCall(pass *analysis.Pass, call *ast.CallExpr) {
	callee := lintutil.CalleeFunc(pass.TypesInfo, call)
	if callee == nil || callee.Pkg() == nil || !randPkgs[callee.Pkg().Path()] {
		return
	}
	sig, _ := callee.Type().(*types.Signature)
	isMethod := sig != nil && sig.Recv() != nil

	// Time-derived seeds anywhere in the argument list. anywhere in the argument list.
	for _, arg := range call.Args {
		if derivedFromTime(pass, arg) {
			pass.Reportf(arg.Pos(),
				"time-derived seed passed to %s.%s: runs become unrepeatable; seeds must come from config, flags, or a recorded session",
				callee.Pkg().Name(), callee.Name())
			return
		}
	}

	// Package-level draws share process-global state. share process-global state.
	if !isMethod && !constructors[callee.Name()] {
		pass.Reportf(call.Pos(),
			"global %s.%s draws from process-wide state any package can perturb: construct an explicit stream with rand.New(rand.NewSource(seed))",
			callee.Pkg().Name(), callee.Name())
	}
}

// derivedFromTime reports whether the expression contains a call into
// package time whose result feeds the value (time.Now().UnixNano(),
// int64(time.Since(start)), …). It does not descend into nested rand
// calls — rand.New(rand.NewSource(time.Now().UnixNano())) is reported
// once, at the innermost constructor that takes the seed.
func derivedFromTime(pass *analysis.Pass, e ast.Expr) bool {
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		f := lintutil.CalleeFunc(pass.TypesInfo, call)
		if f == nil || f.Pkg() == nil {
			return true
		}
		switch {
		case f.Pkg().Path() == "time":
			found = true
			return false
		case randPkgs[f.Pkg().Path()]:
			return false // the nested call reports its own seed
		}
		return true
	})
	return found
}
