package main

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

// smokeResult is the contract's result line.
type smokeResult struct {
	Correct   bool `json:"correct"`
	Attempted int  `json:"attempted"`
	Failed    int  `json:"failed"`
	Metrics   map[string]struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	} `json:"metrics"`
}

// TestSmoke runs every workload end to end at about a hundredth of its
// size — child server, real HTTP, restart, batch oracle, all verifications —
// once untraced and once traced, and checks the result line of each.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs cmd/semblock")
	}
	for _, mode := range []struct {
		trace string
		defs  []metricDef
	}{{"0", endToEnd}, {"1", perLayer}} {
		for _, w := range workloads {
			t.Run(w.Name+"/trace"+mode.trace, func(t *testing.T) {
				var stdout, stderr bytes.Buffer
				args := []string{"--smoke", "--workload", w.Name, "--seed", "3", "--trace", mode.trace, "--out", t.TempDir()}
				if code := run(args, &stdout, &stderr); code != 0 {
					t.Fatalf("exit code %d\n%s\n%s", code, stderr.String(), stdout.String())
				}
				lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
				var res smokeResult
				dec := json.NewDecoder(strings.NewReader(lines[len(lines)-1]))
				dec.DisallowUnknownFields()
				if err := dec.Decode(&res); err != nil {
					t.Fatalf("last line is not the result object: %v\n%s", err, lines[len(lines)-1])
				}
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Errorf("correct %v, attempted %d, failed %d\n%s", res.Correct, res.Attempted, res.Failed, stdout.String())
				}
				if len(res.Metrics) != len(mode.defs) {
					t.Errorf("%d metrics, want %d", len(res.Metrics), len(mode.defs))
				}
				for _, d := range mode.defs {
					m, ok := res.Metrics[d.Name]
					if !ok || m.Unit != d.Unit {
						t.Errorf("metric %s: present %v, unit %q, want %q", d.Name, ok, m.Unit, d.Unit)
					}
					if mode.trace == "0" && m.Value <= 0 {
						t.Errorf("end-to-end metric %s = %v, must never be 0", d.Name, m.Value)
					}
				}
			})
		}
	}
}

func TestBadArguments(t *testing.T) {
	for _, args := range [][]string{
		{"--trace", "2"}, {"--seconds", "0"}, {"--repeat", "0"}, {"stray"}, {"--no-such-flag"},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(args, &stdout, &stderr); code != 2 {
			t.Errorf("run(%v) = %d, want 2", args, code)
		}
		if stdout.Len() != 0 {
			t.Errorf("run(%v) printed a result: %s", args, stdout.String())
		}
	}
	var stdout, stderr bytes.Buffer
	if code := run([]string{"--smoke", "--workload", "nope"}, &stdout, &stderr); code != 1 || !strings.Contains(stderr.String(), "unknown workload") {
		t.Errorf("unknown workload: code %d, stderr %q", code, stderr.String())
	}
}
