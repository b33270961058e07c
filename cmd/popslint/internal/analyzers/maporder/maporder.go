// Package maporder polices Go's deliberately randomized map iteration
// order in the packages whose outputs are pinned by byte-identity
// goldens. A `for k := range m` whose body's effect reaches a returned
// value or an accumulator makes the result depend on the runtime's
// per-iteration shuffle — the protocol's determinism contract (same
// input, same bytes, every run, every degree) cannot survive that.
//
// Within the result-affecting packages (core, sta, power, sizing,
// leakage, engine, store, logic) the analyzer flags, inside a map
// range body:
//
//   - append to a variable declared outside the loop, unless the
//     accumulator is later passed to a sort.*/slices.* call in the
//     same function (the collect-then-sort idiom);
//   - a return statement whose values mention the iteration
//     variables: which element wins depends on the shuffle;
//   - floating-point or string accumulation (+=) into outer state:
//     fp addition is not associative and string concat is not
//     commutative, so iteration order changes the bytes;
//   - plain assignment to an outer variable whose right-hand side
//     mentions the iteration variables: last writer wins, and the
//     shuffle picks the last writer.
//
// Order-independent effects stay silent: writes into another map,
// delete, integer counters (+=/++ on integer types — associative and
// commutative), and assignments that do not involve the iteration
// variables (found = true).
//
// A site whose order-independence the analyzer cannot see can be
// annotated on the line of — or the line before — the range statement:
//
//	//pops:orderindep <reason>
//
// The reason is mandatory; a bare annotation is itself reported. The
// annotation asserts a reviewed invariant ("all keys are compared for
// exact equality, no element wins over another"), which is stronger
// than a //popslint:ignore suppression and therefore preferred for
// this analyzer.
package maporder

import (
	"go/ast"
	"go/token"
	"go/types"
	"regexp"
	"strings"

	"popslint/internal/analysis"
	"popslint/internal/lintutil"
)

// scopedPkgs are the result-affecting packages: only these are
// audited. Map iteration in obs, report formatting, CLI glue, … is
// free to be lazy about order.
var scopedPkgs = map[string]bool{
	"repro/internal/core":    true,
	"repro/internal/sta":     true,
	"repro/internal/power":   true,
	"repro/internal/sizing":  true,
	"repro/internal/leakage": true,
	"repro/internal/engine":  true,
	"repro/internal/store":   true,
	"repro/internal/logic":   true,
}

// sortPkgs provide the blessed determinizers for collect-then-sort.
var sortPkgs = map[string]bool{"sort": true, "slices": true}

var directiveRe = regexp.MustCompile(`^//pops:orderindep(\s+(.*))?$`)

var Analyzer = &analysis.Analyzer{
	Name: "maporder",
	Doc:  "map iteration whose effect flows into a returned value or accumulator needs an intervening sort or a //pops:orderindep annotation",
	Run:  run,
}

func run(pass *analysis.Pass) error {
	if pass.Pkg == nil || !scopedPkgs[pass.Pkg.Path()] {
		return nil
	}
	for _, f := range pass.Files {
		annotated, bare := directiveLines(pass, f)
		for _, pos := range bare {
			pass.Reportf(pos, "//pops:orderindep requires a reason: state why iteration order cannot reach the result")
		}
		// Walk function by function so the collect-then-sort scan has
		// a natural boundary.
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil || pass.InTestFile(fd.Pos()) {
				continue
			}
			checkFunc(pass, fd.Body, annotated)
		}
	}
	return nil
}

// directiveLines collects the file's //pops:orderindep comment lines:
// reasons given (annotated, by line) and bare directives (positions).
func directiveLines(pass *analysis.Pass, f *ast.File) (annotated map[int]bool, bare []token.Pos) {
	annotated = map[int]bool{}
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			m := directiveRe.FindStringSubmatch(c.Text)
			if m == nil {
				continue
			}
			reason := m[2]
			if i := strings.Index(reason, "//"); i >= 0 {
				reason = reason[:i] // an embedded comment is not a reason
			}
			if strings.TrimSpace(reason) == "" {
				bare = append(bare, c.Pos())
				continue
			}
			annotated[pass.Fset.Position(c.Pos()).Line] = true
		}
	}
	return annotated, bare
}

func checkFunc(pass *analysis.Pass, body *ast.BlockStmt, annotated map[int]bool) {
	ast.Inspect(body, func(n ast.Node) bool {
		rng, ok := n.(*ast.RangeStmt)
		if !ok {
			return true
		}
		t := pass.TypesInfo.TypeOf(rng.X)
		if t == nil {
			return true
		}
		if _, isMap := types.Unalias(t).Underlying().(*types.Map); !isMap {
			return true
		}
		line := pass.Fset.Position(rng.Pos()).Line
		if annotated[line] || annotated[line-1] {
			return true // audited order-independence
		}
		checkRange(pass, rng, body)
		return true
	})
}

// checkRange audits one map range's body for order-dependent effects.
func checkRange(pass *analysis.Pass, rng *ast.RangeStmt, fnBody *ast.BlockStmt) {
	c := &rangeCheck{pass: pass, rng: rng}
	ast.Inspect(rng.Body, func(n ast.Node) bool {
		switch st := n.(type) {
		case *ast.AssignStmt:
			c.assign(st)
		case *ast.ReturnStmt:
			c.ret(st)
		}
		return true
	})
	// Collect-then-sort: an appended-to accumulator that a later
	// sort.*/slices.* call in the same function determinizes is fine.
	for obj, pos := range c.appends {
		if !sortedAfter(pass, fnBody, rng.End(), obj) {
			pass.Reportf(pos,
				"append to %s inside map iteration without a later sort: element order follows the runtime's shuffle; sort the accumulator or annotate //pops:orderindep <reason>",
				obj.Name())
		}
	}
}

type rangeCheck struct {
	pass    *analysis.Pass
	rng     *ast.RangeStmt
	appends map[types.Object]token.Pos
}

// loopLocal reports whether the object is declared inside the range
// statement (iteration variables included).
func (c *rangeCheck) loopLocal(obj types.Object) bool {
	if obj == nil {
		return true // unresolvable: stay quiet
	}
	pos := obj.Pos()
	return pos >= c.rng.Pos() && pos <= c.rng.End()
}

// mentionsLoopVars reports whether the expression uses any variable
// declared by the range statement itself (key/value).
func (c *rangeCheck) mentionsLoopVars(e ast.Expr) bool {
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		obj := c.pass.TypesInfo.Uses[id]
		if obj == nil {
			return true
		}
		for _, ke := range []ast.Expr{c.rng.Key, c.rng.Value} {
			if ke == nil {
				continue
			}
			if kid, ok := ast.Unparen(ke).(*ast.Ident); ok &&
				c.pass.TypesInfo.Defs[kid] == obj {
				found = true
				return false
			}
		}
		return true
	})
	return found
}

func rootObject(info *types.Info, e ast.Expr) types.Object {
	for {
		switch x := ast.Unparen(e).(type) {
		case *ast.Ident:
			return info.Uses[x]
		case *ast.SelectorExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		default:
			return nil
		}
	}
}

func (c *rangeCheck) assign(st *ast.AssignStmt) {
	if st.Tok == token.DEFINE {
		return
	}
	for i, lhs := range st.Lhs {
		lhs = ast.Unparen(lhs)
		if id, ok := lhs.(*ast.Ident); ok && id.Name == "_" {
			continue
		}
		// Writes into another map are insertion-order independent.
		if ix, ok := lhs.(*ast.IndexExpr); ok {
			if bt := c.pass.TypesInfo.TypeOf(ix.X); bt != nil {
				if _, isMap := types.Unalias(bt).Underlying().(*types.Map); isMap {
					continue
				}
			}
		}
		root := rootObject(c.pass.TypesInfo, lhs)
		if c.loopLocal(root) {
			continue
		}
		var rhs ast.Expr
		if i < len(st.Rhs) {
			rhs = st.Rhs[i]
		} else if len(st.Rhs) == 1 {
			rhs = st.Rhs[0]
		}

		lt := c.pass.TypesInfo.TypeOf(lhs)
		switch st.Tok {
		case token.ADD_ASSIGN, token.SUB_ASSIGN, token.MUL_ASSIGN, token.QUO_ASSIGN:
			if lt == nil {
				continue
			}
			b, ok := types.Unalias(lt).Underlying().(*types.Basic)
			if !ok {
				continue
			}
			switch {
			case b.Info()&types.IsFloat != 0:
				c.pass.Reportf(lhs.Pos(),
					"floating-point accumulation into %s inside map iteration: fp addition is not associative, so the shuffle changes the rounding; accumulate over sorted keys or annotate //pops:orderindep <reason>",
					types.ExprString(lhs))
			case b.Info()&types.IsString != 0:
				c.pass.Reportf(lhs.Pos(),
					"string concatenation into %s inside map iteration: the result's byte order follows the runtime's shuffle; build from sorted keys or annotate //pops:orderindep <reason>",
					types.ExprString(lhs))
			}
			// Integer accumulation is associative and commutative: silent.
			continue
		}

		// Plain assignment: append-to-accumulator or last-writer-wins.
		if call, ok := appendCall(c.pass.TypesInfo, rhs); ok {
			if c.appends == nil {
				c.appends = map[types.Object]token.Pos{}
			}
			if root != nil {
				if _, seen := c.appends[root]; !seen {
					c.appends[root] = call.Pos()
				}
			}
			continue
		}
		if rhs != nil && c.mentionsLoopVars(rhs) {
			c.pass.Reportf(lhs.Pos(),
				"assignment to %s from the iteration variables inside map iteration: the runtime's shuffle picks the last writer; iterate sorted keys or annotate //pops:orderindep <reason>",
				types.ExprString(lhs))
		}
	}
}

func (c *rangeCheck) ret(st *ast.ReturnStmt) {
	for _, res := range st.Results {
		if c.mentionsLoopVars(res) {
			c.pass.Reportf(st.Pos(),
				"return inside map iteration carries the iteration variables: which element is returned follows the runtime's shuffle; iterate sorted keys or annotate //pops:orderindep <reason>")
			return
		}
	}
}

// appendCall matches `append(...)` (possibly parenthesized) and
// returns the call.
func appendCall(info *types.Info, e ast.Expr) (*ast.CallExpr, bool) {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok {
		return nil, false
	}
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok {
		return nil, false
	}
	b, ok := info.Uses[id].(*types.Builtin)
	if !ok || b.Name() != "append" {
		return nil, false
	}
	return call, true
}

// sortedAfter reports whether, after the given position, the function
// body contains a sort.*/slices.* call that mentions the object — the
// collect-then-sort determinizer.
func sortedAfter(pass *analysis.Pass, fnBody *ast.BlockStmt, after token.Pos, obj types.Object) bool {
	found := false
	ast.Inspect(fnBody, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || call.Pos() < after {
			return true
		}
		callee := lintutil.CalleeFunc(pass.TypesInfo, call)
		if callee == nil || callee.Pkg() == nil || !sortPkgs[callee.Pkg().Path()] {
			return true
		}
		for _, arg := range call.Args {
			mentions := false
			ast.Inspect(arg, func(an ast.Node) bool {
				if id, ok := an.(*ast.Ident); ok && pass.TypesInfo.Uses[id] == obj {
					mentions = true
					return false
				}
				return true
			})
			if mentions {
				found = true
				return false
			}
		}
		return true
	})
	return found
}
