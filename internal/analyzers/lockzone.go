package analyzers

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// Lockzone enforces the mutex discipline of the concurrent state in
// internal/obs and internal/serve: a struct field annotated
//
//	//ssos:guarded-by <mu>
//
// (where <mu> names a sibling mutex field) may only be read or written
// while the owning mutex is held. A function that is documented to run
// under a lock declares it:
//
//	//ssos:locked <mu>        the receiver's <mu> is held on entry
//
// Holding is tracked in source order within each function body: a
// `x.mu.Lock()` (or RLock) call puts x.mu into the held set until the
// matching source-order `x.mu.Unlock()`; a deferred Unlock holds to
// the end. Nested blocks (if/for/switch/select bodies) run on a copy
// of the held set: a branch that terminates (ends in return, break or
// continue — the `if closed { mu.Unlock(); return }` bail-out) leaves
// the outer set untouched, a branch that falls through keeps only the
// locks held on every path (set intersection). One exemption keeps
// the rule practical: accesses through a local variable freshly
// initialized from a composite literal (the object is not yet shared,
// e.g. `s := &Session{...}` during construction). Goroutine and
// closure bodies are skipped — a closure touching guarded state must
// be refactored into a named method to be checked (documented in
// DESIGN.md).
var Lockzone = &Analyzer{
	Name:    "lockzone",
	Doc:     "fields annotated ssos:guarded-by may only be accessed under the owning mutex",
	Applies: pathSuffix("internal/obs", "internal/serve"),
	Run:     runLockzone,
}

const (
	guardedByMark = "ssos:guarded-by"
	lockedMark    = "ssos:locked"
)

// markArg extracts the argument of an annotation like
// "//ssos:guarded-by mu" from a comment group, if present.
func markArg(doc *ast.CommentGroup, mark string) (string, bool) {
	if doc == nil {
		return "", false
	}
	for _, c := range doc.List {
		text := strings.TrimPrefix(c.Text, "//")
		text = strings.TrimSpace(text)
		if rest, ok := strings.CutPrefix(text, mark); ok {
			return strings.TrimSpace(rest), true
		}
	}
	return "", false
}

func runLockzone(pkg *Package, report func(pos token.Pos, format string, args ...any)) {
	// Pass 1: guarded fields, keyed by field object.
	guards := map[*types.Var]string{}
	for _, file := range pkg.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			st, ok := n.(*ast.StructType)
			if !ok {
				return true
			}
			for _, f := range st.Fields.List {
				mu, ok := markArg(f.Doc, guardedByMark)
				if !ok {
					mu, ok = markArg(f.Comment, guardedByMark)
				}
				if !ok {
					continue
				}
				for _, name := range f.Names {
					if obj, ok := pkg.Info.Defs[name].(*types.Var); ok {
						guards[obj] = mu
					}
				}
			}
			return true
		})
	}
	if len(guards) == 0 {
		return
	}

	// Pass 2: per-function source-order lock tracking.
	for _, file := range pkg.Files {
		for _, d := range file.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			checkLockzoneFunc(pkg, fd, guards, report)
		}
	}
}

// exprKey renders a lock-owner expression as a stable key ("s", "r.sub",
// ...). Only chains of identifiers and field selections are
// representable; anything else yields "".
func exprKey(e ast.Expr) string {
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		return e.Name
	case *ast.SelectorExpr:
		base := exprKey(e.X)
		if base == "" {
			return ""
		}
		return base + "." + e.Sel.Name
	case *ast.StarExpr:
		return exprKey(e.X)
	}
	return ""
}

// lockCall matches `<owner>.<field>.Lock()` (and RLock/Unlock/RUnlock),
// returning the held-set key "<owner>.<field>".
func lockCall(call *ast.CallExpr) (key, method string, ok bool) {
	sel, isSel := call.Fun.(*ast.SelectorExpr)
	if !isSel {
		return "", "", false
	}
	switch sel.Sel.Name {
	case "Lock", "RLock", "Unlock", "RUnlock":
	default:
		return "", "", false
	}
	key = exprKey(sel.X)
	if key == "" {
		return "", "", false
	}
	return key, sel.Sel.Name, true
}

// lzCtx carries the per-function lockzone state: the guarded-field
// table, the fresh-local set, and the reporter.
type lzCtx struct {
	pkg    *Package
	guards map[*types.Var]string
	fresh  map[types.Object]bool
	report func(pos token.Pos, format string, args ...any)
}

func checkLockzoneFunc(pkg *Package, fd *ast.FuncDecl, guards map[*types.Var]string, report func(pos token.Pos, format string, args ...any)) {
	held := map[string]bool{}

	// The //ssos:locked annotation pre-holds the receiver's mutex (or a
	// dotted key verbatim).
	if mu, ok := markArg(fd.Doc, lockedMark); ok {
		if strings.Contains(mu, ".") {
			held[mu] = true
		} else if fd.Recv != nil && len(fd.Recv.List) == 1 && len(fd.Recv.List[0].Names) == 1 {
			held[fd.Recv.List[0].Names[0].Name+"."+mu] = true
		}
	}

	c := &lzCtx{pkg: pkg, guards: guards, fresh: map[types.Object]bool{}, report: report}
	c.stmts(fd.Body.List, held)
}

func cloneHeld(held map[string]bool) map[string]bool {
	out := make(map[string]bool, len(held))
	for k := range held {
		out[k] = true
	}
	return out
}

// intersectHeld drops from held every lock not also in branch: after a
// branch that may or may not have run, only locks held on both paths
// are certain.
func intersectHeld(held, branch map[string]bool) {
	for k := range held {
		if !branch[k] {
			delete(held, k)
		}
	}
}

// terminates reports whether a statement list certainly transfers
// control out (return, break, continue, goto, panic-free analysis is
// not attempted).
func terminates(list []ast.Stmt) bool {
	if len(list) == 0 {
		return false
	}
	switch list[len(list)-1].(type) {
	case *ast.ReturnStmt, *ast.BranchStmt:
		return true
	}
	return false
}

// branch walks a nested statement list on a clone of held and folds
// the result back: a terminating branch contributes nothing, a
// fall-through branch intersects.
func (c *lzCtx) branch(list []ast.Stmt, held map[string]bool) {
	clone := cloneHeld(held)
	c.stmts(list, clone)
	if !terminates(list) {
		intersectHeld(held, clone)
	}
}

// stmts walks a statement list in source order, mutating held.
func (c *lzCtx) stmts(list []ast.Stmt, held map[string]bool) {
	for _, s := range list {
		c.stmt(s, held)
	}
}

func (c *lzCtx) stmt(s ast.Stmt, held map[string]bool) {
	switch s := s.(type) {
	case *ast.ExprStmt:
		c.expr(s.X, held)
	case *ast.AssignStmt:
		c.markFresh(s)
		for _, e := range s.Rhs {
			c.expr(e, held)
		}
		for _, e := range s.Lhs {
			c.expr(e, held)
		}
	case *ast.DeclStmt:
		if gd, ok := s.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok {
					for i, v := range vs.Values {
						if i < len(vs.Names) && isCompositeInit(v) {
							if obj := c.pkg.Info.Defs[vs.Names[i]]; obj != nil {
								c.fresh[obj] = true
							}
						}
						c.expr(v, held)
					}
				}
			}
		}
	case *ast.DeferStmt:
		// A deferred Unlock releases at return: the lock stays held for
		// the rest of the body, so a deferred lock call has no source-
		// order effect. Other deferred work is out of scope.
	case *ast.GoStmt:
		// The goroutine body runs elsewhere with its own lock state;
		// out of scope (documented).
	case *ast.IfStmt:
		if s.Init != nil {
			c.stmt(s.Init, held)
		}
		c.expr(s.Cond, held)
		c.branch(s.Body.List, held)
		switch e := s.Else.(type) {
		case *ast.BlockStmt:
			c.branch(e.List, held)
		case *ast.IfStmt:
			c.branch([]ast.Stmt{e}, held)
		}
	case *ast.ForStmt:
		if s.Init != nil {
			c.stmt(s.Init, held)
		}
		if s.Cond != nil {
			c.expr(s.Cond, held)
		}
		body := s.Body.List
		if s.Post != nil {
			body = append(append([]ast.Stmt(nil), body...), s.Post)
		}
		c.branch(body, held)
	case *ast.RangeStmt:
		c.expr(s.X, held)
		c.branch(s.Body.List, held)
	case *ast.SwitchStmt:
		if s.Init != nil {
			c.stmt(s.Init, held)
		}
		if s.Tag != nil {
			c.expr(s.Tag, held)
		}
		for _, cc := range s.Body.List {
			if cl, ok := cc.(*ast.CaseClause); ok {
				for _, e := range cl.List {
					c.expr(e, held)
				}
				c.branch(cl.Body, held)
			}
		}
	case *ast.TypeSwitchStmt:
		if s.Init != nil {
			c.stmt(s.Init, held)
		}
		for _, cc := range s.Body.List {
			if cl, ok := cc.(*ast.CaseClause); ok {
				c.branch(cl.Body, held)
			}
		}
	case *ast.SelectStmt:
		for _, cc := range s.Body.List {
			if cl, ok := cc.(*ast.CommClause); ok {
				if cl.Comm != nil {
					c.stmt(cl.Comm, held)
				}
				c.branch(cl.Body, held)
			}
		}
	case *ast.BlockStmt:
		c.stmts(s.List, held)
	case *ast.LabeledStmt:
		c.stmt(s.Stmt, held)
	case *ast.ReturnStmt:
		for _, e := range s.Results {
			c.expr(e, held)
		}
	case *ast.IncDecStmt:
		c.expr(s.X, held)
	case *ast.SendStmt:
		c.expr(s.Chan, held)
		c.expr(s.Value, held)
	}
}

// markFresh records locals initialized from composite literals.
func (c *lzCtx) markFresh(n *ast.AssignStmt) {
	for i, rhs := range n.Rhs {
		if i >= len(n.Lhs) {
			break
		}
		if !isCompositeInit(rhs) {
			continue
		}
		if id, ok := n.Lhs[i].(*ast.Ident); ok {
			if obj := c.pkg.Info.Defs[id]; obj != nil {
				c.fresh[obj] = true
			} else if obj := c.pkg.Info.Uses[id]; obj != nil {
				c.fresh[obj] = true
			}
		}
	}
}

func isCompositeInit(rhs ast.Expr) bool {
	e := ast.Unparen(rhs)
	if u, ok := e.(*ast.UnaryExpr); ok && u.Op == token.AND {
		e = u.X
	}
	_, ok := e.(*ast.CompositeLit)
	return ok
}

// expr inspects one expression under the current held set: lock calls
// apply their effect, guarded field accesses are checked, closure
// bodies are skipped.
func (c *lzCtx) expr(e ast.Expr, held map[string]bool) {
	ast.Inspect(e, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return false // runs with its own lock state; out of scope
		case *ast.CallExpr:
			if key, method, ok := lockCall(n); ok {
				switch method {
				case "Lock", "RLock":
					held[key] = true
				case "Unlock", "RUnlock":
					delete(held, key)
				}
			}
		case *ast.SelectorExpr:
			c.checkAccess(n, held)
		}
		return true
	})
}

// checkAccess reports a guarded field access outside its lock.
func (c *lzCtx) checkAccess(n *ast.SelectorExpr, held map[string]bool) {
	sel, ok := c.pkg.Info.Selections[n]
	if !ok || sel.Kind() != types.FieldVal {
		return
	}
	fieldObj, ok := sel.Obj().(*types.Var)
	if !ok {
		return
	}
	mu, guarded := c.guards[fieldObj]
	if !guarded {
		return
	}
	owner := exprKey(n.X)
	if owner == "" {
		c.report(n.Pos(), "guarded field %s accessed through an untrackable expression", n.Sel.Name)
		return
	}
	if held[owner+"."+mu] {
		return
	}
	if id, ok := ast.Unparen(n.X).(*ast.Ident); ok {
		if obj := c.pkg.Info.Uses[id]; obj != nil && c.fresh[obj] {
			return
		}
	}
	c.report(n.Pos(), "field %s.%s is guarded by %s.%s but accessed without holding it", owner, n.Sel.Name, owner, mu)
}
