package analyzers

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// Genbump enforces the superblock engine's soundness precondition inside
// internal/mem, whose memory is a table of copy-on-write pages (the Bus
// field pages):
//
//   - Every write into page memory goes through the owning accessor,
//     the Bus method own, which copies a shared page before handing it
//     out. A write through the page table itself — an assignment,
//     increment or copy() into b.pages[p][…], or into a local taken
//     from it — is a finding: on a shared page it would write memory a
//     fork or the zero page shares. Only own and the methods it calls
//     may repoint a page-table entry (b.pages[p] = …).
//   - A method that writes through own — directly (b.own(p)[o] = v) or
//     through a local taken from it — must bump a page generation,
//     either directly (touching b.gens) or by calling, transitively, a
//     sibling method that does. A write that skips the bump would let
//     machine.Machine replay stale decoded instructions (see
//     internal/machine/superblock.go).
//
// The superblock engine adds a second precondition (the stamp rule):
// every method that bumps a page generation directly must also advance
// the bus-wide write stamp, directly or via a sibling in the
// stamp-advancing closure. The fast path in internal/machine/superblock
// proves "no byte changed anywhere" from an unchanged stamp alone, so a
// gens bump the stamp misses would let a built block replay over
// modified code.
var Genbump = &Analyzer{
	Name:    "genbump",
	Doc:     "mem.Bus page writes must go through own and bump page generations and the write stamp",
	Applies: pathSuffix("internal/mem"),
	Run:     runGenbump,
}

// ownerMethod is the owning accessor: the one Bus method through which
// page memory is written.
const ownerMethod = "own"

func runGenbump(pkg *Package, report func(token.Pos, string, ...any)) {
	// Collect Bus methods with their receiver names.
	type method struct {
		decl *ast.FuncDecl
		recv string
	}
	methods := map[string]method{}
	for _, f := range pkg.Files {
		for _, d := range f.Decls {
			fn, ok := d.(*ast.FuncDecl)
			if !ok || fn.Recv == nil || len(fn.Recv.List) != 1 || fn.Body == nil {
				continue
			}
			if receiverTypeName(fn.Recv.List[0].Type) != "Bus" {
				continue
			}
			recv := ""
			if names := fn.Recv.List[0].Names; len(names) == 1 {
				recv = names[0].Name
			}
			methods[fn.Name.Name] = method{decl: fn, recv: recv}
		}
	}
	names := make([]string, 0, len(methods))
	for name := range methods {
		names = append(names, name)
	}
	sort.Strings(names) // finding order never depends on map iteration

	// Seed: methods that write the gens counters (or the write stamp)
	// directly. gensAt remembers where each method first touches gens,
	// for the stamp-rule report.
	bumps := map[string]bool{}
	stamps := map[string]bool{}
	gensAt := map[string]ast.Node{}
	calls := map[string][]string{}
	for name, m := range methods {
		ast.Inspect(m.decl.Body, func(n ast.Node) bool {
			switch st := n.(type) {
			case *ast.IncDecStmt:
				if mentionsField(st.X, m.recv, "gens") {
					bumps[name] = true
					if gensAt[name] == nil {
						gensAt[name] = st
					}
				}
				if mentionsField(st.X, m.recv, "stamp") {
					stamps[name] = true
				}
			case *ast.AssignStmt:
				for _, lhs := range st.Lhs {
					if mentionsField(lhs, m.recv, "gens") {
						bumps[name] = true
						if gensAt[name] == nil {
							gensAt[name] = st
						}
					}
					if mentionsField(lhs, m.recv, "stamp") {
						stamps[name] = true
					}
				}
			case *ast.CallExpr:
				if callee := siblingCall(st, m.recv); callee != "" {
					if _, ok := methods[callee]; ok {
						calls[name] = append(calls[name], callee)
					}
				}
			}
			return true
		})
	}

	// Close over receiver calls: calling a bumping method bumps, and
	// calling a stamp-advancing method advances the stamp.
	for _, set := range []map[string]bool{bumps, stamps} {
		for changed := true; changed; {
			changed = false
			for name := range methods {
				if set[name] {
					continue
				}
				for _, callee := range calls[name] {
					if set[callee] {
						set[name] = true
						changed = true
						break
					}
				}
			}
		}
	}

	// The owner closure: own and every sibling it calls, transitively,
	// may repoint page-table entries.
	owner := map[string]bool{}
	for work := []string{ownerMethod}; len(work) > 0; work = work[1:] {
		if name := work[0]; !owner[name] {
			if _, ok := methods[name]; ok {
				owner[name] = true
				work = append(work, calls[name]...)
			}
		}
	}

	// Stamp rule: a direct gens bump must sit inside the stamp closure.
	for _, name := range names {
		if gensAt[name] != nil && !stamps[name] {
			report(gensAt[name].Pos(), "Bus.%s bumps %s.gens without advancing %s.stamp; superblock stamp validation would replay stale blocks", name, methods[name].recv, methods[name].recv)
		}
	}

	// Page writes. A local taken from an expression that calls own is
	// an owned page (or a slice of one) within its method; a local taken
	// from one that mentions the page table is a table page.
	for _, name := range names {
		m := methods[name]
		isOwned := func(e ast.Expr) bool { return callsMethod(e, m.recv, ownerMethod) }
		isTable := func(e ast.Expr) bool { return !isOwned(e) && mentionsField(e, m.recv, "pages") }
		owned := localAliases(pkg.Info, m.decl.Body, isOwned)
		table := localAliases(pkg.Info, m.decl.Body, isTable)
		var direct, repoint, write ast.Node
		// target classifies one written location: the array or slice
		// an index, a star or a copy() writes into.
		target := func(n ast.Node, base ast.Expr) {
			switch {
			case isTable(base) || mentionsAlias(pkg.Info, base, table):
				if direct == nil {
					direct = n
				}
			case isOwned(base) || mentionsAlias(pkg.Info, base, owned):
				if write == nil {
					write = n
				}
			}
		}
		lhs := func(n ast.Node, e ast.Expr) {
			switch x := e.(type) {
			case *ast.IndexExpr:
				if sel, ok := x.X.(*ast.SelectorExpr); ok && sel.Sel.Name == "pages" && isIdent(sel.X, m.recv) {
					if !owner[name] && repoint == nil {
						repoint = n
					}
					return
				}
				target(n, x.X)
			case *ast.StarExpr:
				target(n, x.X)
			}
		}
		ast.Inspect(m.decl.Body, func(n ast.Node) bool {
			switch st := n.(type) {
			case *ast.AssignStmt:
				for _, e := range st.Lhs {
					lhs(st, e)
				}
			case *ast.IncDecStmt:
				lhs(st, st.X)
			case *ast.CallExpr:
				if id, ok := st.Fun.(*ast.Ident); ok && id.Name == "copy" && len(st.Args) == 2 {
					target(st, st.Args[0])
				}
			}
			return true
		})
		if direct != nil {
			report(direct.Pos(), "Bus.%s writes page memory through %s.pages; write through %s.%s, which copies a shared page first", name, m.recv, m.recv, ownerMethod)
		}
		if repoint != nil {
			report(repoint.Pos(), "Bus.%s repoints a page-table entry outside %s.%s; only the owning accessor may swap a page", name, m.recv, ownerMethod)
		}
		if write != nil && !bumps[name] {
			report(write.Pos(), "Bus.%s writes page memory without bumping a page generation; stale superblock entries would survive", name)
		}
	}
}

// siblingCall returns the method name of a call recv.name(…), or "".
func siblingCall(call *ast.CallExpr, recv string) string {
	if sel, ok := call.Fun.(*ast.SelectorExpr); ok && isIdent(sel.X, recv) {
		return sel.Sel.Name
	}
	return ""
}

// callsMethod reports whether the expression contains a call
// recv.name(…).
func callsMethod(e ast.Expr, recv, name string) bool {
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok && recv != "" && siblingCall(call, recv) == name {
			found = true
		}
		return !found
	})
	return found
}

// isIdent reports whether e is the identifier name.
func isIdent(e ast.Expr, name string) bool {
	id, ok := e.(*ast.Ident)
	return ok && name != "" && id.Name == name
}

// localAliases returns the slice- and pointer-typed locals of body
// assigned (by =, := or var) from an expression that from reports, or
// that uses an alias found earlier in source order.
func localAliases(info *types.Info, body *ast.BlockStmt, from func(ast.Expr) bool) map[types.Object]bool {
	aliases := map[types.Object]bool{}
	bind := func(id *ast.Ident, e ast.Expr) {
		obj := info.ObjectOf(id)
		if obj == nil {
			return
		}
		switch obj.Type().Underlying().(type) {
		case *types.Slice, *types.Pointer:
			if from(e) || mentionsAlias(info, e, aliases) {
				aliases[obj] = true
			}
		}
	}
	ast.Inspect(body, func(n ast.Node) bool {
		switch st := n.(type) {
		case *ast.AssignStmt:
			if len(st.Lhs) == len(st.Rhs) {
				for i, lhs := range st.Lhs {
					if id, ok := lhs.(*ast.Ident); ok {
						bind(id, st.Rhs[i])
					}
				}
			}
		case *ast.ValueSpec:
			if len(st.Names) == len(st.Values) {
				for i, id := range st.Names {
					bind(id, st.Values[i])
				}
			}
		}
		return true
	})
	return aliases
}

// mentionsAlias reports whether the expression uses one of aliases.
func mentionsAlias(info *types.Info, e ast.Expr, aliases map[types.Object]bool) bool {
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && aliases[info.Uses[id]] {
			found = true
		}
		return !found
	})
	return found
}

// receiverTypeName unwraps a method receiver type to its base name.
func receiverTypeName(t ast.Expr) string {
	for {
		switch x := t.(type) {
		case *ast.StarExpr:
			t = x.X
		case *ast.IndexExpr:
			t = x.X
		case *ast.Ident:
			return x.Name
		default:
			return ""
		}
	}
}

// mentionsField reports whether the expression contains a selector
// recv.field anywhere inside it (e.g. b.pages, b.pages[p][i:j],
// &b.gens[p]).
func mentionsField(e ast.Expr, recv, field string) bool {
	if recv == "" {
		return false
	}
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		if sel, ok := n.(*ast.SelectorExpr); ok && sel.Sel.Name == field {
			if id, ok := sel.X.(*ast.Ident); ok && id.Name == recv {
				found = true
				return false
			}
		}
		return !found
	})
	return found
}
