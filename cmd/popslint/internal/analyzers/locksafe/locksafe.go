// Package locksafe audits the engine and store mutexes — the locks on
// the daemon's request path. Two rules, both motivated by incidents
// this architecture is one typo away from:
//
//   - No blocking operation while a mutex is held. A channel send or
//     receive, a select without a default, sync.WaitGroup.Wait,
//     sync.Cond.Wait, time.Sleep, or a call into a store tier
//     (Get/Put/Flush/Append/Close/…) can stall indefinitely;
//     holding s.mu across one turns a slow disk or a stuck peer into
//     a frozen daemon. The engine's own convention is snapshot-under-
//     lock, block-after-unlock (jobs.Await, Cache.Result), and this
//     analyzer makes the convention load-bearing.
//
//   - Every Lock must reach Unlock on every return path, unless the
//     unlock is deferred. A conditional early return between Lock and
//     Unlock is a permanent deadlock for every later caller.
//
// The walker is path-sensitive in the mutatorepoch style: it tracks
// the set of held locks (keyed by the receiver expression, "s.mu",
// "b.writeMu") along each control-flow path, merges states at branch
// joins ignoring terminated paths, and collects break states so the
// lock-held-across-break idiom of Cache.Result analyzes exactly.
// Deliberate limits: goroutine bodies and function literals are
// separate worlds (a `go func` does not inherit the holder's locks —
// nor its obligations); raw os.* file I/O is not in the blocking set,
// because the disk store and journal hold their mutexes across file
// writes by design — a bounded local syscall, not an unbounded wait;
// and a `select` with a default case never blocks and is exempt,
// which is what makes the Batcher's kick-channel nudge legal.
package locksafe

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"

	"popslint/internal/analysis"
	"popslint/internal/lintutil"
)

// scopedPkgs hold the mutexes on the request path.
var scopedPkgs = map[string]bool{
	"repro/internal/engine": true,
	"repro/internal/store":  true,
}

// StorePath marks the store tier: methods of its types are assumed to
// reach a disk, a journal, or another tier, and count as blocking.
const StorePath = "repro/internal/store"

// storeMethods are the tier entry points counted as blocking when
// called with a lock held.
var storeMethods = map[string]bool{
	"Get": true, "Put": true,
	"Flush": true, "Close": true, "Append": true,
	"Rewrite": true, "Len": true,
}

var Analyzer = &analysis.Analyzer{
	Name: "locksafe",
	Doc:  "no blocking operations while holding an engine or store mutex; every Lock must reach Unlock on all return paths unless deferred",
	Run:  run,
}

func run(pass *analysis.Pass) error {
	if pass.Pkg == nil || !scopedPkgs[pass.Pkg.Path()] {
		return nil
	}
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil || pass.InTestFile(fd.Pos()) {
				continue
			}
			w := &walker{pass: pass}
			st := w.block(fd.Body.List, newState())
			w.checkLeak(st, fd.Body.Rbrace)
		}
	}
	return nil
}

// lockInfo is one held mutex on a path.
type lockInfo struct {
	pos      token.Pos // the Lock call, for leak reports
	deferred bool      // a defer Unlock releases it at return
}

// pathState is the held-lock set along one control-flow path.
type pathState struct {
	held       map[string]lockInfo
	terminated bool // return/branch ended the path
}

func newState() pathState {
	return pathState{held: map[string]lockInfo{}}
}

func (s pathState) clone() pathState {
	c := pathState{held: make(map[string]lockInfo, len(s.held)), terminated: s.terminated}
	for k, v := range s.held {
		c.held[k] = v
	}
	return c
}

// merge joins branch states, skipping terminated paths. Held sets
// union conservatively: a lock held on either live path is held after
// the join for blocking purposes.
func merge(states ...pathState) pathState {
	out := newState()
	live := 0
	for _, s := range states {
		if s.terminated {
			continue
		}
		live++
		for k, v := range s.held {
			if have, ok := out.held[k]; !ok || (!have.deferred && v.deferred) {
				out.held[k] = v
			}
		}
	}
	out.terminated = live == 0
	return out
}

type loopFrame struct{ breaks []pathState }

type walker struct {
	pass  *analysis.Pass
	loops []*loopFrame
}

// block walks a statement list, threading the path state through.
func (w *walker) block(list []ast.Stmt, st pathState) pathState {
	for _, s := range list {
		if st.terminated {
			return st
		}
		st = w.stmt(s, st)
	}
	return st
}

func (w *walker) stmt(s ast.Stmt, st pathState) pathState {
	switch n := s.(type) {
	case *ast.ExprStmt:
		if call, ok := ast.Unparen(n.X).(*ast.CallExpr); ok {
			if key, isLock, locks := w.lockOp(call); isLock {
				if locks {
					st.held[key] = lockInfo{pos: call.Pos()}
				} else {
					delete(st.held, key)
				}
				return st
			}
		}
		w.checkExpr(n.X, st)
	case *ast.DeferStmt:
		if key, isLock, locks := w.lockOp(n.Call); isLock && !locks {
			if info, ok := st.held[key]; ok {
				info.deferred = true
				st.held[key] = info
			}
		}
		// A deferred call runs at return, outside this path walk.
	case *ast.AssignStmt:
		for _, rhs := range n.Rhs {
			w.checkExpr(rhs, st)
		}
	case *ast.DeclStmt:
		if gd, ok := n.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok {
					for _, v := range vs.Values {
						w.checkExpr(v, st)
					}
				}
			}
		}
	case *ast.SendStmt:
		w.blocking(n.Pos(), "channel send", st)
	case *ast.GoStmt:
		// The goroutine runs without the caller's locks; its body is
		// its own world (function literals are separate scopes).
	case *ast.ReturnStmt:
		for _, res := range n.Results {
			w.checkExpr(res, st)
		}
		w.checkLeak(st, n.Pos())
		st.terminated = true
	case *ast.BranchStmt:
		switch n.Tok {
		case token.BREAK:
			if len(w.loops) > 0 {
				fr := w.loops[len(w.loops)-1]
				fr.breaks = append(fr.breaks, st.clone())
			}
		}
		st.terminated = true
	case *ast.BlockStmt:
		return w.block(n.List, st)
	case *ast.LabeledStmt:
		return w.stmt(n.Stmt, st)
	case *ast.IfStmt:
		if n.Init != nil {
			st = w.stmt(n.Init, st)
		}
		w.checkExpr(n.Cond, st)
		then := w.block(n.Body.List, st.clone())
		els := st.clone()
		if n.Else != nil {
			els = w.stmt(n.Else, els)
		}
		return merge(then, els)
	case *ast.ForStmt:
		if n.Init != nil {
			st = w.stmt(n.Init, st)
		}
		if n.Cond != nil {
			w.checkExpr(n.Cond, st)
		}
		fr := &loopFrame{}
		w.loops = append(w.loops, fr)
		w.block(n.Body.List, st.clone())
		w.loops = w.loops[:len(w.loops)-1]
		states := fr.breaks
		if n.Cond != nil {
			states = append(states, st) // the loop may run zero times
		}
		if len(states) == 0 {
			st.terminated = true // for{} with no break never falls through
			return st
		}
		return merge(states...)
	case *ast.RangeStmt:
		w.checkExpr(n.X, st)
		fr := &loopFrame{}
		w.loops = append(w.loops, fr)
		w.block(n.Body.List, st.clone())
		w.loops = w.loops[:len(w.loops)-1]
		return merge(append(fr.breaks, st)...)
	case *ast.SwitchStmt:
		if n.Init != nil {
			st = w.stmt(n.Init, st)
		}
		if n.Tag != nil {
			w.checkExpr(n.Tag, st)
		}
		return w.caseBodies(n.Body, st, hasDefaultClause(n.Body))
	case *ast.TypeSwitchStmt:
		if n.Init != nil {
			st = w.stmt(n.Init, st)
		}
		return w.caseBodies(n.Body, st, hasDefaultClause(n.Body))
	case *ast.SelectStmt:
		if !hasDefaultComm(n.Body) {
			w.blocking(n.Pos(), "select without a default case", st)
		}
		// The comm clauses themselves are covered by the select-level
		// check: a chosen case's op is ready by definition.
		var branches []pathState
		for _, c := range n.Body.List {
			cc := c.(*ast.CommClause)
			branches = append(branches, w.block(cc.Body, st.clone()))
		}
		if len(branches) == 0 {
			return st
		}
		return merge(branches...)
	}
	return st
}

// caseBodies merges the branch states of a switch body; without a
// default clause the entry state joins too (no case may match).
func (w *walker) caseBodies(body *ast.BlockStmt, st pathState, hasDefault bool) pathState {
	var branches []pathState
	for _, c := range body.List {
		cc, ok := c.(*ast.CaseClause)
		if !ok {
			continue
		}
		for _, e := range cc.List {
			w.checkExpr(e, st)
		}
		branches = append(branches, w.block(cc.Body, st.clone()))
	}
	if !hasDefault {
		branches = append(branches, st)
	}
	if len(branches) == 0 {
		return st
	}
	return merge(branches...)
}

func hasDefaultClause(body *ast.BlockStmt) bool {
	for _, c := range body.List {
		if cc, ok := c.(*ast.CaseClause); ok && cc.List == nil {
			return true
		}
	}
	return false
}

func hasDefaultComm(body *ast.BlockStmt) bool {
	for _, c := range body.List {
		if cc, ok := c.(*ast.CommClause); ok && cc.Comm == nil {
			return true
		}
	}
	return false
}

// lockOp classifies a call as a mutex acquire/release on a
// sync.Mutex/RWMutex and returns the receiver key.
func (w *walker) lockOp(call *ast.CallExpr) (key string, isLock, locks bool) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return "", false, false
	}
	f := lintutil.CalleeFunc(w.pass.TypesInfo, call)
	if f == nil || f.Pkg() == nil || f.Pkg().Path() != "sync" {
		return "", false, false
	}
	switch f.Name() {
	case "Lock", "RLock":
		locks = true
	case "Unlock", "RUnlock":
	default:
		return "", false, false
	}
	return types.ExprString(sel.X), true, locks
}

// checkExpr scans an expression for blocking operations under held
// locks: channel receives and blocking calls. Function literals are
// not entered — they run in their own scope.
func (w *walker) checkExpr(e ast.Expr, st pathState) {
	if e == nil || len(st.held) == 0 {
		return
	}
	ast.Inspect(e, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.UnaryExpr:
			if x.Op == token.ARROW {
				w.blocking(x.Pos(), "channel receive", st)
			}
		case *ast.CallExpr:
			w.checkCall(x, st)
		}
		return true
	})
}

func (w *walker) checkCall(call *ast.CallExpr, st pathState) {
	f := lintutil.CalleeFunc(w.pass.TypesInfo, call)
	if f == nil || f.Pkg() == nil {
		return
	}
	sig, _ := f.Type().(*types.Signature)
	isMethod := sig != nil && sig.Recv() != nil
	switch {
	case f.Pkg().Path() == "time" && f.Name() == "Sleep":
		w.blocking(call.Pos(), "time.Sleep", st)
	case f.Pkg().Path() == "sync" && f.Name() == "Wait" && isMethod:
		w.blocking(call.Pos(), "sync "+f.Name(), st)
	case f.Pkg().Path() == StorePath && isMethod && storeMethods[f.Name()]:
		w.blocking(call.Pos(), "store call "+f.Name(), st)
	}
}

// blocking reports one blocking operation under every held lock.
func (w *walker) blocking(pos token.Pos, what string, st pathState) {
	if len(st.held) == 0 {
		return
	}
	keys := make([]string, 0, len(st.held))
	for k := range st.held {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		w.pass.Reportf(pos,
			"%s while holding %s: a stalled wait here freezes every later caller; snapshot under the lock, block after the unlock",
			what, k)
	}
}

// checkLeak reports held, non-deferred locks at a path exit.
func (w *walker) checkLeak(st pathState, pos token.Pos) {
	if st.terminated {
		return
	}
	keys := make([]string, 0, len(st.held))
	for k := range st.held {
		if !st.held[k].deferred {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	for _, k := range keys {
		w.pass.Reportf(pos,
			"%s is locked but not released on this return path: unlock before returning or defer the unlock",
			k)
	}
}
