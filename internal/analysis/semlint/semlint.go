// Package semlint is the registry of the repository's project-specific
// analyzers — the suite the tools/semlint multichecker and the self-lint
// integration test both run. Keeping the list here (root module) means
// `go test ./...` exercises every analyzer against the real tree on every
// change, while the nested tools module stays a thin driver.
package semlint

import (
	"semblock/internal/analysis"
	"semblock/internal/analysis/ctxflow"
	"semblock/internal/analysis/gostmt"
	"semblock/internal/analysis/hotpathalloc"
	"semblock/internal/analysis/lockdiscipline"
	"semblock/internal/analysis/metriclint"
	"semblock/internal/analysis/nilreceiver"
)

// All returns the full semlint suite, in stable order.
func All() []*analysis.Analyzer {
	return []*analysis.Analyzer{
		hotpathalloc.Analyzer,
		nilreceiver.Analyzer,
		ctxflow.Analyzer,
		metriclint.Analyzer,
		lockdiscipline.Analyzer,
		gostmt.Analyzer,
	}
}
