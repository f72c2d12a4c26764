// Package gostmt keeps batch parallelism in one place: in non-test files
// under internal/, a `go` statement may only appear inside
// engine.ParallelTasks, which every batch, resolve and ingest stage hands
// its tasks to. The few lifecycle goroutines that are not batch work (an
// SSE stream's shutdown release, a webhook worker) carry a
// `//semblock:allow gostmt <reason>` suppression.
package gostmt

import (
	"go/ast"
	"strings"

	"semblock/internal/analysis"
)

// Analyzer is the gostmt pass.
var Analyzer = &analysis.Analyzer{
	Name: "gostmt",
	Doc: "go statements in non-test files under internal/ must live in engine.ParallelTasks, " +
		"the one parallel primitive; lifecycle goroutines take a //semblock:allow gostmt suppression",
	Run: run,
}

func run(pass *analysis.Pass) error {
	if !strings.Contains("/"+pass.PkgPath+"/", "/internal/") {
		return nil
	}
	engine := analysis.PathWithin(pass.PkgPath, "internal/engine")
	for _, f := range pass.Files {
		if strings.HasSuffix(pass.Fset.Position(f.Pos()).Filename, "_test.go") {
			continue
		}
		for _, decl := range f.Decls {
			if fn, ok := decl.(*ast.FuncDecl); ok && engine && fn.Recv == nil && fn.Name.Name == "ParallelTasks" {
				continue
			}
			ast.Inspect(decl, func(n ast.Node) bool {
				if g, ok := n.(*ast.GoStmt); ok {
					pass.Reportf(g.Pos(), "go statement outside engine.ParallelTasks: run the work as its tasks, "+
						"or justify a lifecycle goroutine with //semblock:allow gostmt <reason>")
				}
				return true
			})
		}
	}
	return nil
}
