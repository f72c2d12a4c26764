package gostmt_test

import (
	"testing"

	"semblock/internal/analysis/analysistest"
	"semblock/internal/analysis/gostmt"
)

func TestGoStmt(t *testing.T) {
	analysistest.Run(t, "testdata", gostmt.Analyzer,
		"example.com/internal/engine", "example.com/internal/server", "example.com/lib")
}
