package analyzers

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// Genbump enforces the superblock engine's soundness precondition inside
// internal/mem: every Bus method that mutates backing memory — an
// assignment through b.data, or a copy() whose destination is b.data,
// directly or through a local slice taken from it — must bump a page
// generation, either directly (touching b.gens) or by calling,
// transitively, a sibling method that does. A mutation path
// that skips the bump would let machine.Machine replay stale decoded
// instructions (see internal/machine/superblock.go).
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
	Doc:     "mem.Bus mutations must bump page generations and the write stamp",
	Applies: pathSuffix("internal/mem"),
	Run:     runGenbump,
}

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
				if sel, ok := st.Fun.(*ast.SelectorExpr); ok {
					if id, ok := sel.X.(*ast.Ident); ok && id.Name == m.recv {
						if _, sibling := methods[sel.Sel.Name]; sibling {
							calls[name] = append(calls[name], sel.Sel.Name)
						}
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

	// Stamp rule: a direct gens bump must sit inside the stamp closure.
	// Sorted so finding order never depends on map iteration.
	gensNames := make([]string, 0, len(gensAt))
	for name := range gensAt {
		gensNames = append(gensNames, name)
	}
	sort.Strings(gensNames)
	for _, name := range gensNames {
		if !stamps[name] {
			report(gensAt[name].Pos(), "Bus.%s bumps %s.gens without advancing %s.stamp; superblock stamp validation would replay stale blocks", name, methods[name].recv, methods[name].recv)
		}
	}

	// Every method that mutates b.data must be in the bump closure. A
	// local slice assigned from an expression mentioning b.data (d :=
	// b.data[i:j]) is b.data within its method: writing through it
	// mutates the bus just the same.
	for name, m := range methods {
		aliases := dataAliases(pkg.Info, m.decl.Body, m.recv)
		isData := func(e ast.Expr) bool {
			return mentionsField(e, m.recv, "data") || mentionsAlias(pkg.Info, e, aliases)
		}
		var mutation ast.Node
		ast.Inspect(m.decl.Body, func(n ast.Node) bool {
			if mutation != nil {
				return false
			}
			switch st := n.(type) {
			case *ast.AssignStmt:
				for _, lhs := range st.Lhs {
					if idx, ok := lhs.(*ast.IndexExpr); ok && isData(idx.X) {
						mutation = st
					}
				}
			case *ast.CallExpr:
				if id, ok := st.Fun.(*ast.Ident); ok && id.Name == "copy" && len(st.Args) == 2 {
					if isData(st.Args[0]) {
						mutation = st
					}
				}
			}
			return true
		})
		if mutation != nil && !bumps[name] {
			report(mutation.Pos(), "Bus.%s mutates %s.data without bumping a page generation; stale superblock entries would survive", name, m.recv)
		}
	}
}

// dataAliases returns the slice-typed locals of body assigned (by =,
// := or var) from an expression that mentions recv.data or an alias
// found earlier in source order.
func dataAliases(info *types.Info, body *ast.BlockStmt, recv string) map[types.Object]bool {
	aliases := map[types.Object]bool{}
	bind := func(id *ast.Ident, e ast.Expr) {
		obj := info.ObjectOf(id)
		if obj == nil {
			return
		}
		if _, slice := obj.Type().Underlying().(*types.Slice); slice &&
			(mentionsField(e, recv, "data") || mentionsAlias(info, e, aliases)) {
			aliases[obj] = true
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
// recv.field anywhere inside it (e.g. b.data, b.data[i:j], &b.gens[p]).
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
