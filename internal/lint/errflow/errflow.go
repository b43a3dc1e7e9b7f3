// Package errflow implements the bbvet error-flow analyzer: on the
// storage and network write paths (internal/logstore, internal/segment,
// internal/netingest, internal/fsx), the error from a durability-
// relevant call — os.Rename/Remove/RemoveAll/Truncate, (*os.File).Sync/
// Close, the mutating fsx.FS methods and fsx.File Write/Sync/Close (the
// filesystem seam those paths write through), every error-returning
// method on the WAL types (walWriter, walSink), an Ingest commit — must
// be consumed. Losing it is the PR 3 bug class: a quarantine rename that
// failed silently and reported durable ingest anyway.
//
// Two shapes lose it. The outright discard: the call used as a
// statement (`f.Sync()`), its results all assigned to _ (`_ =
// f.Sync()` — blanking the error is exactly the bug, not an
// acknowledgement of it), or the call deferred (`defer f.Sync()`).
// Two idioms are exempt from the discard check:
//
//   - defer f.Close() — the read-path convenience close, where the file
//     was only read and the error carries no durability signal;
//   - best-effort cleanup inside a branch that ends by returning an
//     already-raised error (e.g. f.Close(); os.Remove(tmp); return err)
//     — the operation has failed and is being unwound, so the cleanup
//     error cannot mask success.
//
// And the sneakier shape, where the error is bound to a name and then
// lost on one path —
//
//	err := w.flush()
//	if fast {
//		return nil        // flush error vanishes on this path
//	}
//	return err
//
// or clobbered before anyone looks at it —
//
//	err := os.Rename(tmp, final)
//	err = dir.Sync()          // rename failure overwritten unchecked
//
// A "use" is any read of the variable: a comparison, a return, an
// argument (errors.Join, fmt.Errorf, an ack helper), a consuming
// assignment. The analysis is a per-definition may-reach dataflow over
// the function CFG (internal/lint/cfg + internal/lint/dataflow):
// definition facts are generated at the assignment, killed by any use,
// and reported if they survive to a redefinition (overwrite) or to the
// function exit (dropped). Variables captured by a closure or having
// their address taken are exempt — the closure may consume them later.
package errflow

import (
	"go/ast"
	"go/token"
	"go/types"

	"bytebrain/internal/lint"
	"bytebrain/internal/lint/cfg"
	"bytebrain/internal/lint/dataflow"
)

// Analyzer is the error-flow analyzer.
var Analyzer = &lint.Analyzer{
	Name:     "errflow",
	Doc:      "a durability-relevant error is never discarded and is consumed on every path before overwrite or scope exit",
	Packages: []string{"internal/logstore", "internal/segment", "internal/netingest", "internal/fsx"},
	Run:      run,
}

func run(pass *lint.Pass) error {
	for _, file := range pass.Files {
		cleanup := cleanupRanges(pass, file)
		ast.Inspect(file, func(n ast.Node) bool {
			switch fn := n.(type) {
			case *ast.FuncDecl:
				if fn.Body != nil {
					checkBody(pass, fn.Body, fn.Type, cleanup)
				}
			case *ast.FuncLit:
				checkBody(pass, fn.Body, fn.Type, cleanup)
			}
			return true
		})
	}
	return nil
}

// defFact is one tracked definition: an error variable assigned from a
// durability-relevant call.
type defFact struct {
	obj   types.Object
	pos   token.Pos
	label string
}

func checkBody(pass *lint.Pass, body *ast.BlockStmt, ftype *ast.FuncType, cleanup []posRange) {
	g := cfg.New(body)
	checkDiscards(pass, g, cleanup)

	// Variables referenced inside nested closures or address-taken are
	// exempt: their consumption may happen outside this CFG.
	exempt := exemptObjects(pass, body)

	// Named results: a bare `return` implicitly reads them.
	named := namedResults(pass, ftype)

	// Collect definition facts.
	var defs []defFact
	defIndex := map[token.Pos]int{}
	for _, b := range g.Blocks {
		for _, n := range b.Nodes {
			cfg.Inspect(n, func(m ast.Node) bool {
				as, ok := m.(*ast.AssignStmt)
				if !ok {
					return true
				}
				obj, label, ok := durabilityDef(pass, as)
				if !ok || exempt[obj] {
					return true
				}
				defIndex[as.Pos()] = len(defs)
				defs = append(defs, defFact{obj: obj, pos: as.Pos(), label: label})
				return true
			})
		}
	}
	if len(defs) == 0 {
		return
	}

	factsOf := func(s dataflow.BitSet, obj types.Object) []int {
		var out []int
		for i, d := range defs {
			if d.obj == obj && s.Has(i) {
				out = append(out, i)
			}
		}
		return out
	}

	apply := func(b *cfg.Block, in dataflow.BitSet, report bool) dataflow.BitSet {
		s := in.Copy()
		for _, n := range b.Nodes {
			cfg.Inspect(n, func(m ast.Node) bool {
				switch m := m.(type) {
				case *ast.AssignStmt:
					// RHS reads happen before the LHS write.
					for _, r := range m.Rhs {
						useIdents(pass, r, defs, &s)
					}
					// Index/selector expressions on the left still read
					// their bases; only the plain ident LHS is a write.
					for _, l := range m.Lhs {
						if _, ok := l.(*ast.Ident); !ok {
							useIdents(pass, l, defs, &s)
						}
					}
					for _, l := range m.Lhs {
						id, ok := l.(*ast.Ident)
						if !ok || id.Name == "_" {
							continue
						}
						obj := pass.Info.Uses[id]
						if obj == nil {
							continue // := definition of a fresh object
						}
						if live := factsOf(s, obj); len(live) > 0 {
							if report {
								for _, i := range live {
									pass.Reportf(m.Pos(), "error from %s (line %d) may be overwritten before it is checked",
										defs[i].label, pass.Fset.Position(defs[i].pos).Line)
								}
							}
							for _, i := range live {
								s.Clear(i)
							}
						}
					}
					// Finally, generate the fact if this assignment IS a
					// tracked definition.
					if i, ok := defIndex[m.Pos()]; ok {
						s.Set(i)
					}
					return false // children handled above
				case *ast.ReturnStmt:
					if len(m.Results) == 0 {
						// Bare return reads the named results.
						for obj := range named {
							for _, i := range factsOf(s, obj) {
								s.Clear(i)
							}
						}
					}
					return true
				case *ast.Ident:
					useIdent(pass, m, defs, &s)
					return true
				}
				return true
			})
		}
		return s
	}

	res := dataflow.Forward(g, len(defs), dataflow.Union, dataflow.NewBitSet(len(defs)),
		func(b *cfg.Block, in dataflow.BitSet) dataflow.BitSet { return apply(b, in, false) })

	// Report overwrites on the fixpoint.
	for _, b := range g.Blocks {
		if b != g.Entry && len(b.Preds) == 0 {
			continue
		}
		apply(b, res.In[b.Index], true)
	}
	// Report definitions that may reach the exit unread.
	for i, d := range defs {
		if res.In[g.Exit.Index].Has(i) {
			pass.Reportf(d.pos, "error from %s is dropped on at least one path to return; check it or hand it on (return/errors.Join/ack)", d.label)
		}
	}
}

// checkDiscards reports durability-relevant calls whose error is
// discarded outright: a call statement, a call whose results are all
// assigned to _, or a deferred call other than Close. Every statement is
// a node of its own in the CFG, so one pass over the nodes sees them all.
func checkDiscards(pass *lint.Pass, g *cfg.Graph, cleanup []posRange) {
	for _, b := range g.Blocks {
		for _, n := range b.Nodes {
			switch s := n.(type) {
			case *ast.DeferStmt:
				// defer f.Close() is the read-path idiom; deferred
				// renames/removes/syncs still count as discarded.
				if label, ok := durabilityCall(pass, s.Call); ok && !isClose(s.Call) {
					pass.Reportf(s.Call.Pos(), "error from deferred %s is discarded on a durability path", label)
				}
			case *ast.ExprStmt:
				if call, ok := s.X.(*ast.CallExpr); ok && !inRanges(cleanup, call.Pos()) {
					if label, ok := durabilityCall(pass, call); ok {
						pass.Reportf(call.Pos(), "error from %s is discarded on a durability path", label)
					}
				}
			case *ast.AssignStmt:
				if len(s.Rhs) != 1 || !allBlank(s.Lhs) {
					continue
				}
				if call, ok := s.Rhs[0].(*ast.CallExpr); ok && !inRanges(cleanup, call.Pos()) {
					if label, ok := durabilityCall(pass, call); ok {
						pass.Reportf(call.Pos(), "error from %s is blanked with _ on a durability path; check or record it", label)
					}
				}
			}
		}
	}
}

func isClose(call *ast.CallExpr) bool {
	name := call.Fun.(*ast.SelectorExpr).Sel.Name
	return name == "Close" || name == "close"
}

func allBlank(lhs []ast.Expr) bool {
	for _, e := range lhs {
		id, ok := e.(*ast.Ident)
		if !ok || id.Name != "_" {
			return false
		}
	}
	return true
}

type posRange struct{ lo, hi token.Pos }

func inRanges(rs []posRange, p token.Pos) bool {
	for _, r := range rs {
		if r.lo <= p && p < r.hi {
			return true
		}
	}
	return false
}

// cleanupRanges returns the spans of branch bodies (if/else, switch and
// select cases — never a whole function body) that end with a `return`
// carrying a non-nil error value: the best-effort-cleanup-while-
// unwinding exemption.
func cleanupRanges(pass *lint.Pass, file *ast.File) []posRange {
	var out []posRange
	addList := func(list []ast.Stmt) {
		if len(list) < 2 {
			return
		}
		ret, ok := list[len(list)-1].(*ast.ReturnStmt)
		if !ok || !returnsNonNilError(pass, ret) {
			return
		}
		out = append(out, posRange{list[0].Pos(), ret.Pos()})
	}
	ast.Inspect(file, func(n ast.Node) bool {
		switch b := n.(type) {
		case *ast.IfStmt:
			addList(b.Body.List)
			if blk, ok := b.Else.(*ast.BlockStmt); ok {
				addList(blk.List)
			}
		case *ast.CaseClause:
			addList(b.Body)
		case *ast.CommClause:
			addList(b.Body)
		}
		return true
	})
	return out
}

func returnsNonNilError(pass *lint.Pass, ret *ast.ReturnStmt) bool {
	for _, r := range ret.Results {
		if id, ok := r.(*ast.Ident); ok && id.Name == "nil" {
			continue
		}
		if isErrorType(typeOf(pass, r)) {
			return true
		}
	}
	return false
}

// useIdents kills facts for every tracked identifier read inside e.
func useIdents(pass *lint.Pass, e ast.Expr, defs []defFact, s *dataflow.BitSet) {
	cfg.Inspect(e, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok {
			useIdent(pass, id, defs, s)
		}
		return true
	})
}

func useIdent(pass *lint.Pass, id *ast.Ident, defs []defFact, s *dataflow.BitSet) {
	obj := pass.Info.Uses[id]
	if obj == nil {
		return
	}
	for i, d := range defs {
		if d.obj == obj {
			s.Clear(i)
		}
	}
}

// durabilityDef reports whether as assigns the error result of a
// durability-relevant call to a plain identifier, returning the
// variable's object and a label for messages.
func durabilityDef(pass *lint.Pass, as *ast.AssignStmt) (types.Object, string, bool) {
	if len(as.Rhs) != 1 {
		return nil, "", false
	}
	call, ok := as.Rhs[0].(*ast.CallExpr)
	if !ok {
		return nil, "", false
	}
	label, ok := durabilityCall(pass, call)
	if !ok {
		return nil, "", false
	}
	// The LHS ident that receives the error component.
	errIdx := errorResult(pass, call)
	if errIdx >= len(as.Lhs) {
		return nil, "", false
	}
	id, ok := as.Lhs[errIdx].(*ast.Ident)
	if !ok || id.Name == "_" {
		return nil, "", false
	}
	var obj types.Object
	if as.Tok == token.DEFINE {
		obj = pass.Info.Defs[id]
	} else {
		obj = pass.Info.Uses[id]
	}
	if obj == nil {
		return nil, "", false
	}
	return obj, label, true
}

// errorResult returns the index of the (last) error component among
// call's results, or -1 if the call returns no error.
func errorResult(pass *lint.Pass, call *ast.CallExpr) int {
	t := typeOf(pass, call)
	tup, ok := t.(*types.Tuple)
	if !ok {
		if isErrorType(t) {
			return 0
		}
		return -1
	}
	idx := -1
	for i := 0; i < tup.Len(); i++ {
		if isErrorType(tup.At(i).Type()) {
			idx = i
		}
	}
	return idx
}

// durabilityCall reports whether call is a durability-relevant
// operation that returns an error. The label names the callee in
// finding messages.
func durabilityCall(pass *lint.Pass, call *ast.CallExpr) (string, bool) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || errorResult(pass, call) < 0 {
		return "", false
	}
	name := sel.Sel.Name
	// os.Rename / Remove / RemoveAll / Truncate.
	if id, ok := sel.X.(*ast.Ident); ok {
		if obj, ok := pass.Info.Uses[id].(*types.PkgName); ok {
			if obj.Imported().Path() == "os" {
				switch name {
				case "Rename", "Remove", "RemoveAll", "Truncate":
					return "os." + name, true
				}
			}
			return "", false
		}
	}
	recv := typeOf(pass, sel.X)
	if recv == nil {
		return "", false
	}
	if ptr, ok := recv.(*types.Pointer); ok {
		recv = ptr.Elem()
	}
	named, ok := recv.(*types.Named)
	if !ok {
		// The netingest commit hook: a func-typed field named Ingest.
		if name == "Ingest" {
			if _, ok := recv.Underlying().(*types.Struct); ok {
				return types.ExprString(sel.X) + ".Ingest", true
			}
		}
		return "", false
	}
	obj := named.Obj()
	label := types.ExprString(sel.X) + "." + name
	// (*os.File).Sync / Close.
	if obj.Pkg() != nil && obj.Pkg().Path() == "os" && obj.Name() == "File" {
		if name == "Sync" || name == "Close" {
			return label, true
		}
		return "", false
	}
	// The fsx filesystem seam: mutating FS methods and write-side File
	// methods, matched by package name so fixtures with a stub fsx
	// package exercise the same paths as the real internal/fsx.
	if obj.Pkg() != nil && obj.Pkg().Name() == "fsx" {
		switch obj.Name() {
		case "FS":
			switch name {
			case "Rename", "Remove", "Truncate", "MkdirAll", "SyncDir", "WriteFile":
				return label, true
			}
		case "File":
			switch name {
			case "Write", "Sync", "Close":
				return label, true
			}
		}
		return "", false
	}
	// Error-returning methods on the package's WAL types, and the
	// Config.Ingest commit hook (netingest).
	if obj.Pkg() == pass.Pkg {
		switch obj.Name() {
		case "walWriter", "walSink":
			return label, true
		case "Config":
			if name == "Ingest" {
				return label, true
			}
		}
	}
	return "", false
}

// exemptObjects returns objects referenced inside nested function
// literals or with their address taken anywhere in body.
func exemptObjects(pass *lint.Pass, body *ast.BlockStmt) map[types.Object]bool {
	out := map[types.Object]bool{}
	mark := func(n ast.Node) {
		ast.Inspect(n, func(m ast.Node) bool {
			if id, ok := m.(*ast.Ident); ok {
				if obj := pass.Info.Uses[id]; obj != nil {
					out[obj] = true
				}
			}
			return true
		})
	}
	depth := 0
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			if depth == 0 {
				mark(n.Body)
			}
			depth++
			return true
		case *ast.UnaryExpr:
			if n.Op == token.AND {
				mark(n.X)
			}
		}
		return true
	})
	return out
}

// namedResults returns the objects of the function's named results.
func namedResults(pass *lint.Pass, ftype *ast.FuncType) map[types.Object]bool {
	out := map[types.Object]bool{}
	if ftype == nil || ftype.Results == nil {
		return out
	}
	for _, f := range ftype.Results.List {
		for _, name := range f.Names {
			if obj := pass.Info.Defs[name]; obj != nil {
				out[obj] = true
			}
		}
	}
	return out
}

func typeOf(pass *lint.Pass, e ast.Expr) types.Type {
	tv, ok := pass.Info.Types[e]
	if !ok {
		return nil
	}
	return tv.Type
}

var errorType = types.Universe.Lookup("error").Type()

func isErrorType(t types.Type) bool {
	return t != nil && types.Identical(t, errorType)
}
