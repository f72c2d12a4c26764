// Package analysis is the repository's self-contained static-analysis
// framework: a deliberately small re-implementation of the golang.org/x/tools
// go/analysis vocabulary (Analyzer, Pass, Diagnostic) over nothing but the
// standard library, so the root module stays zero-dependency while the
// project-specific invariants the engine's hot paths rely on — no fmt or map
// allocation in `//semblock:hotpath` functions, nil-receiver guards on the
// obs no-op types, context-first plumbing, semblock_-prefixed metric names,
// lock pairing and lock-order discipline, goroutines started only by
// engine.ParallelTasks — are enforced mechanically at lint time instead of
// by code review alone.
//
// The concrete analyzers live in the subpackages (hotpathalloc, nilreceiver,
// ctxflow, metriclint, lockdiscipline, gostmt), the registry in semlint,
// fixture testing support in analysistest, and the runnable multichecker in
// the nested tools/semlint module.
//
// Two comment directives drive the suite:
//
//   - `//semblock:hotpath` in a function's doc comment (or, file-wide, above
//     the package clause) marks it as an allocation-audited hot path.
//   - `//semblock:allow <analyzer> <reason>` on (or immediately above) a
//     line suppresses that analyzer's diagnostics for the line, with a
//     mandatory human-readable justification.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Analyzer describes one invariant checker. Unlike x/tools analyzers there
// are no Requires/ResultOf facts — every analyzer here is a single
// self-contained pass over one type-checked package.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and in
	// `//semblock:allow <name>` suppressions.
	Name string
	// Doc is the one-paragraph description the driver's -help prints.
	Doc string
	// Run inspects the package behind pass and reports findings through
	// pass.Reportf. Returning an error aborts the whole run (reserved for
	// internal failures, not findings).
	Run func(pass *Pass) error
}

// Pass carries one analyzer's view of one type-checked package.
type Pass struct {
	Analyzer *Analyzer

	PkgPath string
	Fset    *token.FileSet
	Files   []*ast.File
	Pkg     *types.Package
	Info    *types.Info

	diags []Diagnostic
}

// Diagnostic is one finding, positioned and attributed to its analyzer.
type Diagnostic struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

// String renders the diagnostic the way compilers and vet do, so editors
// parse it: path:line:col: message (analyzer).
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: %s (%s)", d.Pos, d.Message, d.Analyzer)
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.diags = append(p.diags, Diagnostic{
		Pos:      p.Fset.Position(pos),
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// Run executes the analyzers over the loaded packages, applies
// `//semblock:allow` suppressions, and returns the surviving diagnostics
// sorted by position. Malformed allow directives (missing analyzer name or
// justification) are themselves reported, so suppressions stay auditable.
func Run(pkgs []*Package, analyzers []*Analyzer) ([]Diagnostic, error) {
	var all []Diagnostic
	for _, pkg := range pkgs {
		allows, bad := collectAllows(pkg.Fset, pkg.Syntax)
		all = append(all, bad...)
		for _, a := range analyzers {
			pass := &Pass{
				Analyzer: a,
				PkgPath:  pkg.PkgPath,
				Fset:     pkg.Fset,
				Files:    pkg.Syntax,
				Pkg:      pkg.Types,
				Info:     pkg.Info,
			}
			if err := a.Run(pass); err != nil {
				return nil, fmt.Errorf("%s: %s: %w", a.Name, pkg.PkgPath, err)
			}
			for _, d := range pass.diags {
				if !allows.suppressed(d) {
					all = append(all, d)
				}
			}
		}
	}
	sort.Slice(all, func(i, j int) bool {
		a, b := all[i], all[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Analyzer < b.Analyzer
	})
	return all, nil
}

// AllowDirective is the parsed form of `//semblock:allow <analyzer> reason`.
const allowPrefix = "//semblock:allow"

// HotpathMarker marks a function (doc comment) or file (header comment) as
// an allocation-audited hot path.
const HotpathMarker = "//semblock:hotpath"

// allowSet records, per file and line, which analyzers are suppressed. A
// directive covers its own line (end-of-line form) and the line below it
// (own-line form), which is where the guarded statement or declaration sits.
type allowSet map[string]map[int]map[string]bool

func (s allowSet) add(file string, line int, analyzer string) {
	lines := s[file]
	if lines == nil {
		lines = make(map[int]map[string]bool)
		s[file] = lines
	}
	names := lines[line]
	if names == nil {
		names = make(map[string]bool)
		lines[line] = names
	}
	names[analyzer] = true
}

func (s allowSet) suppressed(d Diagnostic) bool {
	names := s[d.Pos.Filename][d.Pos.Line]
	return names[d.Analyzer] || names["all"]
}

// collectAllows parses every allow directive in the files. Directives with
// no analyzer name or no justification are reported as diagnostics (under
// the pseudo-analyzer "semlint") rather than silently honoured.
func collectAllows(fset *token.FileSet, files []*ast.File) (allowSet, []Diagnostic) {
	allows := make(allowSet)
	var bad []Diagnostic
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				if !strings.HasPrefix(c.Text, allowPrefix) {
					continue
				}
				rest := strings.TrimPrefix(c.Text, allowPrefix)
				fields := strings.Fields(rest)
				pos := fset.Position(c.Pos())
				if len(fields) < 2 {
					bad = append(bad, Diagnostic{
						Pos:      pos,
						Analyzer: "semlint",
						Message:  "malformed allow directive: want //semblock:allow <analyzer> <reason>",
					})
					continue
				}
				allows.add(pos.Filename, pos.Line, fields[0])
				allows.add(pos.Filename, pos.Line+1, fields[0])
			}
		}
	}
	return allows, bad
}

// FileHotpath reports whether the whole file is marked `//semblock:hotpath`
// in its pre-package header comments.
func FileHotpath(fset *token.FileSet, f *ast.File) bool {
	for _, cg := range f.Comments {
		if cg.End() >= f.Package {
			break
		}
		for _, c := range cg.List {
			if isHotpathComment(c.Text) {
				return true
			}
		}
	}
	return false
}

// FuncHotpath reports whether the function declaration carries the
// `//semblock:hotpath` marker in its doc comment.
func FuncHotpath(fn *ast.FuncDecl) bool {
	if fn.Doc == nil {
		return false
	}
	for _, c := range fn.Doc.List {
		if isHotpathComment(c.Text) {
			return true
		}
	}
	return false
}

func isHotpathComment(text string) bool {
	if !strings.HasPrefix(text, HotpathMarker) {
		return false
	}
	rest := strings.TrimPrefix(text, HotpathMarker)
	return rest == "" || rest[0] == ' ' || rest[0] == '\t'
}

// PathWithin reports whether the import path is, or ends with, the given
// slash-separated suffix — "internal/obs" matches both the real module path
// "semblock/internal/obs" and fixture paths like "example.com/internal/obs".
func PathWithin(pkgPath, suffix string) bool {
	return pkgPath == suffix || strings.HasSuffix(pkgPath, "/"+suffix)
}
