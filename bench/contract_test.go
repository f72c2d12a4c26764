package main

import (
	"bytes"
	"encoding/json"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

type contractMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

type contractWorkload struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type contract struct {
	Command    []string           `json:"command"`
	Paths      []string           `json:"paths"`
	RunSeconds int                `json:"run_seconds"`
	Workloads  []contractWorkload `json:"workloads"`
	EndToEnd   []contractMetric   `json:"end_to_end"`
	PerLayer   []contractMetric   `json:"per_layer"`
}

// wantContract is BENCHMARK.json as the program's own catalogue defines it.
func wantContract() contract {
	c := contract{
		Command:    []string{"go", "run", "-C", "bench", "."},
		Paths:      []string{"bench"},
		RunSeconds: referenceSeconds,
	}
	for _, w := range workloads {
		c.Workloads = append(c.Workloads, contractWorkload{w.Name, w.Why})
	}
	for _, d := range endToEnd {
		bound := d.Bound
		c.EndToEnd = append(c.EndToEnd, contractMetric{d.Name, d.Unit, d.Better, &bound})
	}
	for _, d := range perLayer {
		c.PerLayer = append(c.PerLayer, contractMetric{d.Name, d.Unit, d.Better, nil})
	}
	return c
}

// TestBenchmarkJSONMatchesCatalogue keeps the root BENCHMARK.json and the
// program's metric and workload catalogue one and the same.
func TestBenchmarkJSONMatchesCatalogue(t *testing.T) {
	want, err := json.MarshalIndent(wantContract(), "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	want = append(want, '\n')
	path := filepath.Join("..", "BENCHMARK.json")
	if os.Getenv("BENCH_WRITE_CONTRACT") != "" {
		if err := os.WriteFile(path, want, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("BENCHMARK.json differs from the catalogue in metrics.go and workloads.go; rerun this test with BENCH_WRITE_CONTRACT=1 to rewrite it")
	}
}

// TestContractLimits checks the catalogue against the limits the driver
// enforces before it makes a single run.
func TestContractLimits(t *testing.T) {
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	use := func(n string) {
		if !name.MatchString(n) {
			t.Errorf("name %q is outside the contract's alphabet or length", n)
		}
		if seen[n] {
			t.Errorf("name %q used twice", n)
		}
		seen[n] = true
	}
	c := wantContract()
	if n := len(c.Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads", n)
	}
	for _, w := range c.Workloads {
		use(w.Name)
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("why of %s is %d characters", w.Name, len(w.Why))
		}
	}
	if n := len(c.EndToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics", n)
	}
	if n := len(c.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics", n)
	}
	setup := false
	for _, m := range append(append([]contractMetric{}, c.EndToEnd...), c.PerLayer...) {
		use(m.Name)
		if !unit.MatchString(m.Unit) {
			t.Errorf("unit %q of %s", m.Unit, m.Name)
		}
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("better %q of %s", m.Better, m.Name)
		}
		if m.Bound != nil && (*m.Bound <= 0 || *m.Bound > 0.25) {
			t.Errorf("bound %v of %s", *m.Bound, m.Name)
		}
		if m.Name == "setup_s" {
			setup = m.Unit == "s" && m.Better == "lower" && m.Bound != nil
		}
	}
	if !setup {
		t.Error("no setup_s in seconds, lower is better, among the end-to-end metrics")
	}
	if c.RunSeconds < 1 || c.RunSeconds > 60 {
		t.Errorf("run_seconds %d", c.RunSeconds)
	}
}

// TestReadmeGlossary: the README defines every metric and names every
// workload.
func TestReadmeGlossary(t *testing.T) {
	raw, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	readme := string(raw)
	for _, d := range append(append([]metricDef{}, endToEnd...), perLayer...) {
		if !strings.Contains(readme, "`"+d.Name+"`") {
			t.Errorf("README.md does not define %s", d.Name)
		}
	}
	for _, w := range workloads {
		if !strings.Contains(readme, "`"+w.Name+"`") {
			t.Errorf("README.md does not describe %s", w.Name)
		}
	}
}

// TestSurfaceIsTheOnlyBinding: surface.go alone imports the program's
// packages, so a later refactor of internal/* has one file to keep working.
func TestSurfaceIsTheOnlyBinding(t *testing.T) {
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range files {
		if f == "surface.go" {
			continue
		}
		parsed, err := parser.ParseFile(token.NewFileSet(), f, nil, parser.ImportsOnly)
		if err != nil {
			t.Fatal(err)
		}
		for _, imp := range parsed.Imports {
			if p := strings.Trim(imp.Path.Value, `"`); p == "semblock" || strings.HasPrefix(p, "semblock/") {
				t.Errorf("%s imports %s; only surface.go may import the program's packages", f, p)
			}
		}
	}
}
