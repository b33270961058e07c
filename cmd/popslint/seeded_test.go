package main

import (
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"strings"
	"testing"

	"popslint/internal/analysis"
	"popslint/internal/analyzers/locksafe"
	"popslint/internal/analyzers/maporder"
	"popslint/internal/analyzers/rngstream"
)

// The seeded-violation tests are the suite's dead-man switch: each
// one injects the exact bug class an analyzer exists to catch — a
// global rand.Intn, an unsorted map-order leak, a held-lock channel
// send — into an in-memory package with the
// production import path, runs the full suite through the same
// analysis.Run entrypoint CI uses, and demands a red result. If an
// analyzer regresses into silence, these fail before the tree can
// start quietly accumulating the bugs.

// memPkg is one in-memory package for the seeded harness.
type memPkg struct {
	path string
	src  string
}

const fakeSync = `package sync
type Mutex struct{ state int }
func (m *Mutex) Lock()   {}
func (m *Mutex) Unlock() {}
`

const fakeRand = `package rand
func Intn(n int) int { return 0 }
`

// analyzeSeeded typechecks the dependency packages then the target,
// and returns the target's filtered diagnostics from the given
// analyzer.
func analyzeSeeded(t *testing.T, a *analysis.Analyzer, deps []memPkg, target memPkg) []analysis.Diagnostic {
	t.Helper()
	fset := token.NewFileSet()
	universe := map[string]*types.Package{}
	importer := importerFor(universe)
	for _, p := range append(deps, target) {
		f, err := parser.ParseFile(fset, strings.ReplaceAll(p.path, "/", "_")+".go", p.src, parser.ParseComments)
		if err != nil {
			t.Fatalf("parsing %s: %v", p.path, err)
		}
		info := &types.Info{
			Types:      make(map[ast.Expr]types.TypeAndValue),
			Defs:       make(map[*ast.Ident]types.Object),
			Uses:       make(map[*ast.Ident]types.Object),
			Selections: make(map[*ast.SelectorExpr]*types.Selection),
			Scopes:     make(map[ast.Node]*types.Scope),
		}
		cfg := &types.Config{Importer: importer}
		pkg, err := cfg.Check(p.path, fset, []*ast.File{f}, info)
		if err != nil {
			t.Fatalf("typechecking %s: %v", p.path, err)
		}
		universe[p.path] = pkg
		if p.path == target.path {
			pass := &analysis.Pass{Fset: fset, Files: []*ast.File{f}, Pkg: pkg, TypesInfo: info}
			diags, err := analysis.Run([]*analysis.Analyzer{a}, pass)
			if err != nil {
				t.Fatalf("running %s: %v", a.Name, err)
			}
			return diags
		}
	}
	return nil
}

type importerFor map[string]*types.Package

func (m importerFor) Import(path string) (*types.Package, error) {
	if p, ok := m[path]; ok {
		return p, nil
	}
	return nil, &types.Error{Msg: "seeded harness: unknown import " + path}
}

// wantRed asserts at least one diagnostic matching the substring.
func wantRed(t *testing.T, diags []analysis.Diagnostic, substr string) {
	t.Helper()
	for _, d := range diags {
		if strings.Contains(d.Message, substr) {
			return
		}
	}
	t.Errorf("seeded violation not caught: no diagnostic containing %q in %d finding(s): %+v",
		substr, len(diags), diags)
}

func TestSeededGlobalRandGoesRed(t *testing.T) {
	diags := analyzeSeeded(t, rngstream.Analyzer,
		[]memPkg{{"math/rand", fakeRand}},
		memPkg{"repro/internal/power", `package power
import "math/rand"
func vector(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = rand.Intn(2) // seeded violation: global stream
	}
	return out
}
`})
	wantRed(t, diags, "global rand.Intn")
}

func TestSeededMapOrderLeakGoesRed(t *testing.T) {
	diags := analyzeSeeded(t, maporder.Analyzer, nil,
		memPkg{"repro/internal/engine", `package engine
func keysOf(m map[string]int) []string {
	var keys []string
	for k := range m {
		keys = append(keys, k) // seeded violation: unsorted map-order leak
	}
	return keys
}
`})
	wantRed(t, diags, "append to keys inside map iteration")
}

func TestSeededHeldLockSendGoesRed(t *testing.T) {
	diags := analyzeSeeded(t, locksafe.Analyzer,
		[]memPkg{{"sync", fakeSync}},
		memPkg{"repro/internal/store", `package store
import "sync"
type notifier struct {
	mu sync.Mutex
	ch chan int
	n  int
}
func (x *notifier) bump() {
	x.mu.Lock()
	x.n++
	x.ch <- x.n // seeded violation: channel send under the lock
	x.mu.Unlock()
}
`})
	wantRed(t, diags, "channel send while holding x.mu")
}

// TestSeededCleanStaysGreen is the control: the blessed version of a
// seeded shape — the same send, made after the unlock — produces no
// findings, so the red tests above fail for the right reason.
func TestSeededCleanStaysGreen(t *testing.T) {
	diags := analyzeSeeded(t, locksafe.Analyzer,
		[]memPkg{{"sync", fakeSync}},
		memPkg{"repro/internal/store", `package store
import "sync"
type notifier struct {
	mu sync.Mutex
	ch chan int
	n  int
}
func (x *notifier) bump() {
	x.mu.Lock()
	x.n++
	n := x.n
	x.mu.Unlock()
	x.ch <- n
}
`})
	if len(diags) != 0 {
		t.Errorf("send after unlock flagged: %+v", diags)
	}
}
