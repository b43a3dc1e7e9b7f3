// Package lockbalance implements the bbvet lock analyzer: in
// internal/service, internal/logstore and internal/netingest it checks
// two things about every sync.Mutex/RWMutex critical section.
//
// Balance: every Lock is released on EVERY path out of the function —
// by a defer or per-branch Unlocks — and no path may Lock a mutex it
// already holds or Unlock one it does not.
//
// Nothing blocks while a lock may be held. Blocking under a lock is how
// the ingest path deadlocks or convoys: a channel send that waits for a
// slow consumer, a net.Conn write that waits for a stalled client, or a
// store Append that waits on group commit — all while every other
// goroutine queues on the mutex. Flagged while a lock may be held:
//
//   - channel send / receive / range over a channel;
//   - select without a default case;
//   - Read/Write/ReadFrom/WriteTo on a net-package type;
//   - Append* calls through the logstore Store/Compactor interfaces.
//
// A select WITH a default case is non-blocking, and concrete in-memory
// Append implementations are exempt (the CompactingStore buffers its
// hot block under its own lock by design — only calls through the
// interface, whose implementation the caller cannot see, are findings).
//
// Both checks read one may-held forward dataflow over the function's
// CFG (internal/lint/cfg + internal/lint/dataflow), so an Unlock inside
// one branch does not hide a leak, or a blocking operation, on the
// sibling branch. Facts are Lock call sites, each tracked twice: once
// for balance, once for blocking. An Unlock of the same mutex
// expression kills both; a defer mu.Unlock() kills only the balance
// fact, because it is guaranteed to run at exit of every path that
// executed it, while the lock stays held until then. At the function
// exit, any site whose balance fact may survive is a leak, reported at
// the Lock itself.
//
// Approximations, deliberate:
//
//   - mutexes are keyed by the source expression (s.mu, c.wmu); an
//     aliased copy (m := &s.mu) is tracked as a separate lock;
//   - a re-Lock after a deferred unlock is not flagged as a double-lock;
//   - RLock/RUnlock balance is checked (keyed separately from the write
//     side), but double-RLock is not flagged: concurrent read locks are
//     legal and recursive read helpers are common;
//   - each function literal is its own scope: it usually runs on another
//     goroutine or at defer time, outside the caller's critical section.
//     Deferred calls and go statements are not blocking operations of
//     the body either.
package lockbalance

import (
	"go/ast"
	"go/token"
	"go/types"
	"slices"
	"strings"

	"bytebrain/internal/lint"
	"bytebrain/internal/lint/cfg"
	"bytebrain/internal/lint/dataflow"
)

// Analyzer is the lock analyzer.
var Analyzer = &lint.Analyzer{
	Name:     "lockbalance",
	Doc:      "every Lock is released on every exit path; no double-lock, unlock-without-lock or blocking operation while a mutex is held",
	Packages: []string{"internal/service", "internal/logstore", "internal/netingest"},
	Run:      run,
}

func run(pass *lint.Pass) error {
	for _, file := range pass.Files {
		for _, body := range functionBodies(file) {
			checkBody(pass, body)
		}
	}
	return nil
}

// functionBodies returns every function body in the file: declarations
// plus all nested function literals (each literal is its own critical-
// section scope — it usually runs on another goroutine or at defer
// time).
func functionBodies(file *ast.File) []*ast.BlockStmt {
	var out []*ast.BlockStmt
	ast.Inspect(file, func(n ast.Node) bool {
		switch fn := n.(type) {
		case *ast.FuncDecl:
			if fn.Body != nil {
				out = append(out, fn.Body)
			}
		case *ast.FuncLit:
			out = append(out, fn.Body)
		}
		return true
	})
	return out
}

// lockOp is one Lock/Unlock event, or one blocking operation, inside a
// block node.
type lockOp struct {
	key      string // mutex expression, "R:"-prefixed for the read side
	acquire  bool
	read     bool
	deferred bool
	pos      token.Pos
	label    string // expression text for messages

	// blocking, when set, marks a blocking operation instead of a lock
	// op: the finding reads "<blocking> while <locks> is held<tail>".
	blocking string
	tail     string
}

func checkBody(pass *lint.Pass, body *ast.BlockStmt) {
	g := cfg.New(body)
	shapes := blockingShapes(pass, body)

	// Collect ops per block node, in source order, and assign a fact
	// index to every acquisition site.
	opsFor := make(map[ast.Node][]lockOp)
	var sites []lockOp
	siteIndex := map[token.Pos]int{}
	for _, b := range g.Blocks {
		for _, n := range b.Nodes {
			ops := collectOps(pass, n, shapes)
			if len(ops) == 0 {
				continue
			}
			opsFor[n] = ops
			for _, op := range ops {
				if op.acquire {
					siteIndex[op.pos] = len(sites)
					sites = append(sites, op)
				}
			}
		}
	}
	if len(sites) == 0 {
		return
	}
	// Facts [0, n) are "may still need a release" (balance); facts
	// [n, 2n) are "may be held right now" (blocking).
	n := len(sites)

	sameKey := func(s dataflow.BitSet, key string) (int, bool) {
		for i, site := range sites {
			if site.key == key && s.Has(i) {
				return i, true
			}
		}
		return -1, false
	}

	heldNames := func(s dataflow.BitSet) string {
		var names []string
		for i, site := range sites {
			if s.Has(n+i) && !slices.Contains(names, site.label) {
				names = append(names, site.label)
			}
		}
		slices.Sort(names)
		return strings.Join(names, "+")
	}

	apply := func(b *cfg.Block, in dataflow.BitSet, report bool) dataflow.BitSet {
		s := in.Copy()
		for _, node := range b.Nodes {
			for _, op := range opsFor[node] {
				switch {
				case op.blocking != "":
					if !report {
						continue
					}
					if held := heldNames(s); held != "" {
						pass.Reportf(op.pos, "%s while %s is held%s", op.blocking, held, op.tail)
					}
				case op.acquire:
					if report && !op.read {
						if j, held := sameKey(s, op.key); held {
							pass.Reportf(op.pos, "%s.Lock while the same mutex may already be held (locked at line %d): possible self-deadlock",
								op.label, pass.Fset.Position(sites[j].pos).Line)
						}
					}
					i := siteIndex[op.pos]
					s.Set(i)
					s.Set(n + i)
				default:
					// Release: kill every held site of the same mutex; a
					// deferred one keeps the lock held until exit.
					if _, held := sameKey(s, op.key); !held && report && !op.deferred {
						verb := "Unlock"
						if op.read {
							verb = "RUnlock"
						}
						pass.Reportf(op.pos, "%s.%s without a matching lock held on this path", op.label, verb)
					}
					for i, site := range sites {
						if site.key == op.key {
							s.Clear(i)
							if !op.deferred {
								s.Clear(n + i)
							}
						}
					}
				}
			}
		}
		return s
	}

	res := dataflow.Forward(g, 2*n, dataflow.Union, dataflow.NewBitSet(2*n),
		func(b *cfg.Block, in dataflow.BitSet) dataflow.BitSet { return apply(b, in, false) })

	// Verification pass: re-walk each reachable block once with its
	// fixpoint IN set, reporting double-locks, unmatched unlocks and
	// blocking operations.
	for _, b := range g.Blocks {
		if b != g.Entry && len(b.Preds) == 0 {
			continue // unreachable
		}
		apply(b, res.In[b.Index], true)
	}

	// Exit balance: any acquisition site still (possibly) held when the
	// function returns is a leak on at least one path.
	for i, site := range sites {
		if res.In[g.Exit.Index].Has(i) {
			verb := "Lock"
			if site.read {
				verb = "RLock"
			}
			pass.Reportf(site.pos, "%s.%s is not released on every path out of the function", site.label, verb)
		}
	}
}

// blockingShapes maps the CFG nodes that stand in for a blocking
// statement the graph does not keep whole: the ranged expression of a
// range over a channel, and the comm statements of a select. The first
// comm of a select without default carries the select-level op; every
// other comm maps to an empty op, because its channel operation either
// blocks as part of the select or is made non-blocking by the default.
func blockingShapes(pass *lint.Pass, body *ast.BlockStmt) map[ast.Node]lockOp {
	out := map[ast.Node]lockOp{}
	cfg.Inspect(body, func(n ast.Node) bool {
		switch s := n.(type) {
		case *ast.SelectStmt:
			blocks := !slices.ContainsFunc(s.Body.List, func(cl ast.Stmt) bool { return cl.(*ast.CommClause).Comm == nil })
			for i, cl := range s.Body.List {
				op := lockOp{pos: s.Pos()}
				if i == 0 && blocks {
					op.blocking = "select without default"
				}
				if comm := cl.(*ast.CommClause).Comm; comm != nil {
					out[comm] = op
				}
			}
		case *ast.RangeStmt:
			if t := typeOf(pass, s.X); t != nil {
				if _, ok := t.Underlying().(*types.Chan); ok {
					out[s.X] = lockOp{pos: s.Pos(), blocking: "range over channel"}
				}
			}
		}
		return true
	})
	return out
}

// collectOps returns the mutex and blocking operations inside node n in
// source order.
func collectOps(pass *lint.Pass, n ast.Node, shapes map[ast.Node]lockOp) []lockOp {
	if op, ok := shapes[n]; ok {
		if op.blocking == "" {
			return nil
		}
		return []lockOp{op}
	}
	blocking := true
	switch s := n.(type) {
	case *ast.DeferStmt:
		// A deferred Unlock is a release-at-exit; a deferred Lock is
		// pathological, so it counts as immediate and the imbalance
		// surfaces at exit. Any other deferred call runs after the body,
		// outside the critical sections this walk tracks.
		if op, ok := mutexOp(pass, s.Call); ok {
			op.deferred = !op.acquire
			return []lockOp{op}
		}
		blocking = false
	case *ast.GoStmt:
		blocking = false // the call runs on another goroutine
	}
	var out []lockOp
	cfg.Inspect(n, func(m ast.Node) bool {
		switch m := m.(type) {
		case *ast.CallExpr:
			if op, ok := mutexOp(pass, m); ok {
				out = append(out, op)
			} else if op, ok := blockingCall(pass, m); ok && blocking {
				out = append(out, op)
			}
		case *ast.SendStmt:
			if blocking {
				out = append(out, lockOp{pos: m.Pos(), blocking: "channel send"})
			}
		case *ast.UnaryExpr:
			if m.Op == token.ARROW && blocking {
				out = append(out, lockOp{pos: m.Pos(), blocking: "channel receive"})
			}
		}
		return true
	})
	return out
}

// blockingCall reports whether call is network I/O on a net-package type
// or an Append* through the logstore Store/Compactor interfaces — the
// shapes whose implementation may block on a peer or on WAL group
// commit.
func blockingCall(pass *lint.Pass, call *ast.CallExpr) (lockOp, bool) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return lockOp{}, false
	}
	name := sel.Sel.Name
	t := typeOf(pass, sel.X)
	if t == nil {
		return lockOp{}, false
	}
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok || named.Obj().Pkg() == nil {
		return lockOp{}, false
	}
	obj := named.Obj()
	switch {
	case obj.Pkg().Path() == "net":
		switch name {
		case "Read", "Write", "ReadFrom", "WriteTo":
			return lockOp{pos: call.Pos(), blocking: types.ExprString(sel.X) + "." + name + " (network I/O)"}, true
		}
	case obj.Pkg().Name() == "logstore" && (obj.Name() == "Store" || obj.Name() == "Compactor") && types.IsInterface(named):
		if strings.HasPrefix(name, "Append") {
			return lockOp{pos: call.Pos(), blocking: "store " + name + " through the Store interface",
				tail: "; the implementation may block on group commit"}, true
		}
	}
	return lockOp{}, false
}

// mutexOp reports whether call is a Lock/Unlock/RLock/RUnlock on a
// sync.Mutex, sync.RWMutex or sync.Locker.
func mutexOp(pass *lint.Pass, call *ast.CallExpr) (lockOp, bool) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return lockOp{}, false
	}
	name := sel.Sel.Name
	var acquire, read bool
	switch name {
	case "Lock":
		acquire = true
	case "RLock":
		acquire, read = true, true
	case "Unlock":
	case "RUnlock":
		read = true
	default:
		return lockOp{}, false
	}
	if !isSyncLock(pass, sel) {
		return lockOp{}, false
	}
	key := types.ExprString(sel.X)
	if read {
		key = "R:" + key
	}
	return lockOp{
		key:     key,
		acquire: acquire,
		read:    read,
		pos:     call.Pos(),
		label:   types.ExprString(sel.X),
	}, true
}

// isSyncLock reports whether the selected method is declared by
// package sync (covers embedded mutexes and sync.Locker values).
func isSyncLock(pass *lint.Pass, sel *ast.SelectorExpr) bool {
	if s, ok := pass.Info.Selections[sel]; ok {
		obj := s.Obj()
		return obj.Pkg() != nil && obj.Pkg().Path() == "sync"
	}
	// Fallback: type of the receiver expression.
	t := typeOf(pass, sel.X)
	if t == nil {
		return false
	}
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	if obj.Pkg() == nil || obj.Pkg().Path() != "sync" {
		return false
	}
	switch obj.Name() {
	case "Mutex", "RWMutex", "Locker":
		return true
	}
	return false
}

func typeOf(pass *lint.Pass, e ast.Expr) types.Type {
	tv, ok := pass.Info.Types[e]
	if !ok {
		return nil
	}
	return tv.Type
}
