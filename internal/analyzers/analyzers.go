// Package analyzers implements the repository's static soundness
// checks as a small go/analysis-style suite over the standard library's
// go/ast and go/types (the repo builds with zero external dependencies,
// so the x/tools analysis driver is re-implemented minimally here).
//
// The analyzers encode contracts that otherwise live only in prose:
//
//   - genbump: every mem.Bus write into page memory goes through the
//     owning accessor, which copies a shared page, and bumps a
//     page-generation counter and the write stamp (the superblock
//     engine's soundness precondition).
//   - detmap: no raw map iteration feeding digests, voters or JSON
//     exporters in the deterministic result paths.
//   - probenil: observability probes are nil-checked before every Emit
//     (the "zero cost when disabled" contract).
//   - nodeterm: no wall-clock or global-rng calls inside the
//     deterministic simulation packages.
//   - noalloc (global): functions reachable from the step-loop hot
//     paths (`//ssos:hotpath` roots) must not allocate.
//   - lockzone: struct fields annotated `//ssos:guarded-by <mu>` may
//     only be touched under the owning mutex or via atomics.
//
// cmd/ssos-lint is the CLI driver; cmd/ssos-verify runs the same suite
// as part of its report.
package analyzers

import (
	"fmt"
	"go/token"
	"sort"
	"strings"
)

// Diagnostic is one analyzer finding.
type Diagnostic struct {
	Analyzer string         `json:"analyzer"`
	Position token.Position `json:"position"`
	Message  string         `json:"message"`
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: %s: %s", d.Position, d.Analyzer, d.Message)
}

// Analyzer is one static check.
type Analyzer struct {
	Name string
	Doc  string
	// Applies reports whether the analyzer checks the given import
	// path; nil means every package.
	Applies func(pkgPath string) bool
	// Run inspects one type-checked package, reporting findings.
	Run func(pkg *Package, report func(pos token.Pos, format string, args ...any))
}

// GlobalAnalyzer is a static check over the whole load set at once,
// for contracts that cross package boundaries (the noalloc call-graph
// closure). All packages from one Loader share a token.FileSet, so
// positions resolve through any member package.
type GlobalAnalyzer struct {
	Name string
	Doc  string
	// Run inspects every loaded package together, reporting findings.
	Run func(pkgs []*Package, report func(pos token.Pos, format string, args ...any))
}

// All returns the per-package analyzer suite.
func All() []*Analyzer {
	return []*Analyzer{Genbump, Detmap, Probenil, Nodeterm, Lockzone}
}

// AllGlobal returns the whole-program analyzer suite.
func AllGlobal() []*GlobalAnalyzer {
	return []*GlobalAnalyzer{Noalloc}
}

// Run applies the analyzers to the packages and returns the findings
// sorted by file position. The result is deterministic: packages are
// visited in the given order, analyzers in suite order, and the final
// sort breaks ties on analyzer name and message.
func Run(pkgs []*Package, analyzers []*Analyzer) []Diagnostic {
	var out []Diagnostic
	for _, pkg := range pkgs {
		for _, a := range analyzers {
			if a.Applies != nil && !a.Applies(pkg.Path) {
				continue
			}
			a := a
			pkg := pkg
			a.Run(pkg, func(pos token.Pos, format string, args ...any) {
				out = append(out, Diagnostic{
					Analyzer: a.Name,
					Position: pkg.Fset.Position(pos),
					Message:  fmt.Sprintf(format, args...),
				})
			})
		}
	}
	Sort(out)
	return out
}

// RunGlobal applies the whole-program analyzers to the load set and
// returns the findings sorted by file position.
func RunGlobal(pkgs []*Package, analyzers []*GlobalAnalyzer) []Diagnostic {
	if len(pkgs) == 0 {
		return nil
	}
	fset := pkgs[0].Fset
	var out []Diagnostic
	for _, a := range analyzers {
		a := a
		a.Run(pkgs, func(pos token.Pos, format string, args ...any) {
			out = append(out, Diagnostic{
				Analyzer: a.Name,
				Position: fset.Position(pos),
				Message:  fmt.Sprintf(format, args...),
			})
		})
	}
	Sort(out)
	return out
}

// Sort orders diagnostics by (file, offset, analyzer, message) — the
// deterministic presentation order every driver uses.
func Sort(out []Diagnostic) {
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Position.Filename != b.Position.Filename {
			return a.Position.Filename < b.Position.Filename
		}
		if a.Position.Offset != b.Position.Offset {
			return a.Position.Offset < b.Position.Offset
		}
		if a.Analyzer != b.Analyzer {
			return a.Analyzer < b.Analyzer
		}
		return a.Message < b.Message
	})
}

// pathSuffix builds an Applies predicate matching any of the given
// import-path suffixes.
func pathSuffix(suffixes ...string) func(string) bool {
	return func(path string) bool {
		for _, s := range suffixes {
			if path == s || strings.HasSuffix(path, s) {
				return true
			}
		}
		return false
	}
}
