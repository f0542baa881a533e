package analyzers

import (
	"go/ast"
	"go/token"
	"sort"
)

// Genbump enforces the superblock engine's soundness precondition inside
// internal/mem: every Bus method that mutates backing memory — an
// assignment through b.data, or a copy() whose destination is b.data —
// must bump a page generation, either directly (touching b.gens) or by
// calling, transitively, a sibling method that does. A mutation path
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

	// Every method that mutates b.data must be in the bump closure.
	for name, m := range methods {
		var mutation ast.Node
		ast.Inspect(m.decl.Body, func(n ast.Node) bool {
			if mutation != nil {
				return false
			}
			switch st := n.(type) {
			case *ast.AssignStmt:
				for _, lhs := range st.Lhs {
					if idx, ok := lhs.(*ast.IndexExpr); ok && mentionsField(idx.X, m.recv, "data") {
						mutation = st
					}
				}
			case *ast.CallExpr:
				if id, ok := st.Fun.(*ast.Ident); ok && id.Name == "copy" && len(st.Args) == 2 {
					if mentionsField(st.Args[0], m.recv, "data") {
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
