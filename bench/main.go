// Command bench is the repository's end-to-end benchmark: five named
// workloads — three against a real `semblock serve` child process over
// loopback HTTP, two in-process over the paper's batch pipeline — each
// reporting the same end-to-end metrics with tracing off, and, in a
// separate traced pass, a per-layer ledger measured from outside around the
// layers' public functions. See README.md in this directory.
//
//	go run -C bench . --workload serve-paced --seed 1 --seconds 10 --trace 0
//	go run -C bench .                # all five workloads
//	go run -C bench . --trace 1      # the per-layer ledger of all five
//	go run -C bench . --repeat 2     # two sets, checked against the bounds
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/signal"
	"path/filepath"
	"sort"
	"strings"
	"syscall"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    int
	repeat   int
	smoke    bool
	out      string
}

// run is main without the process: the report goes to stdout, whose last
// line is the result object in single-workload mode, and errors to stderr.
func run(args []string, stdout, stderr io.Writer) int {
	var o options
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.StringVar(&o.workload, "workload", "", "workload to run (default: all five)")
	fs.Int64Var(&o.seed, "seed", 1, "seed of the generated inputs")
	fs.Float64Var(&o.seconds, "seconds", referenceSeconds, "run length: workload sizes scale with it")
	fs.IntVar(&o.trace, "trace", 0, "0: end-to-end metrics, tracing off; 1: the traced in-process pass, per-layer metrics")
	fs.IntVar(&o.repeat, "repeat", 1, "run this many full sets, interleaving workloads, and fail when a metric's sets differ by more than its bound")
	fs.BoolVar(&o.smoke, "smoke", false, "every workload at about 1/100 size with one set-up, all verifications on")
	fs.StringVar(&o.out, "out", "", "directory for data dirs and trace files (default: a temporary one under bench/.out, removed at exit)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 || o.seconds <= 0 || o.repeat < 1 || (o.trace != 0 && o.trace != 1) {
		fmt.Fprintln(stderr, "bench: bad arguments; see -h")
		return 2
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := benchmark(ctx, o, stdout); err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	return 0
}

// benchmark builds the server, runs the selected workloads and prints the
// report. It returns an error when anything could not run or failed to
// verify — the process then exits non-zero — except in single-workload
// mode, where a completed run with failed verifications still prints its
// result line (correct: false) before the error.
func benchmark(ctx context.Context, o options, stdout io.Writer) error {
	root, err := repoRoot()
	if err != nil {
		return err
	}
	scratch := filepath.Join(root, "bench", ".out")
	if err := os.MkdirAll(filepath.Join(scratch, "bin"), 0o755); err != nil {
		return err
	}
	out := o.out
	if out == "" {
		if out, err = os.MkdirTemp(scratch, "run-"); err != nil {
			return err
		}
		defer os.RemoveAll(out)
	} else if err := os.MkdirAll(out, 0o755); err != nil {
		return err
	}
	if out, err = filepath.Abs(out); err != nil {
		return err
	}

	bin := filepath.Join(scratch, "bin", "semblock")
	built, err := buildServer(ctx, root, bin)
	if err != nil {
		return err
	}

	selected := workloads
	if o.workload != "" {
		w, err := workloadByName(o.workload)
		if err != nil {
			return err
		}
		selected = []workload{*w}
	}
	env := &runEnv{seed: o.seed, scale: o.seconds / referenceSeconds, repeats: 3, out: out, bin: bin,
		logf: func(format string, args ...any) { fmt.Fprintf(stdout, "  "+format+"\n", args...) }}
	if o.smoke {
		env.scale, env.repeats = 0.01, 1
	}
	fmt.Fprintf(stdout, "bench: seed %d, %.3g s per workload, trace %d, built cmd/semblock in %.2f s\n",
		o.seed, env.scale*referenceSeconds, o.trace, built.Seconds())

	sets := make([]map[string]*runResult, o.repeat)
	failed := 0
	for i := range sets {
		sets[i] = map[string]*runResult{}
		for j := range selected {
			w := &selected[j]
			var res *runResult
			if o.trace == 1 {
				res, err = runLedger(ctx, env, w, built.Seconds())
			} else {
				res, err = w.run(ctx, env)
				if err == nil {
					res.diag("bench.build_s", built.Seconds(), "s")
				}
			}
			if err != nil {
				return fmt.Errorf("%s: %w", w.Name, err)
			}
			sets[i][w.Name] = res
			report(stdout, w, res, o)
			if !res.correct() {
				failed++
			}
		}
	}
	if o.repeat > 1 {
		if bad := compareSets(stdout, selected, sets, o.trace); bad > 0 {
			fmt.Fprintf(stdout, "host.spin_cv %.4f (near 0 on a quiet host)\n", spinCV(time.Second))
			return fmt.Errorf("%d metric(s) did not repeat within their bounds", bad)
		}
		fmt.Fprintln(stdout, "repeat: every metric repeated within its bound and every deterministic output repeated exactly")
	}
	if len(selected) == 1 && o.repeat == 1 {
		if err := printResultLine(stdout, sets[0][selected[0].Name], o.trace); err != nil {
			return err
		}
	}
	if failed > 0 {
		return fmt.Errorf("%d workload run(s) failed verification", failed)
	}
	return nil
}

// report prints one run: every metric by name with its unit, the
// diagnostics, and the verifications.
func report(out io.Writer, w *workload, res *runResult, o options) {
	fmt.Fprintf(out, "== %s  (seed %d) ==\n", w.Name, o.seed)
	defs := endToEnd
	if o.trace == 1 {
		defs = perLayer
	}
	for _, d := range defs {
		what := d.What
		if o.trace == 0 {
			if s, ok := w.Slots[strings.TrimSuffix(strings.TrimSuffix(d.Name, "_p50"), "_p90")]; ok {
				what = s
			}
		}
		fmt.Fprintf(out, "  %-36s %14.6g %-12s %s\n", d.Name, res.Metrics[d.Name], d.Unit, what)
	}
	for _, d := range res.Diags {
		fmt.Fprintf(out, "  %-36s %14.6g %-12s (diagnostic)\n", d.Name, d.Value, d.Unit)
	}
	for _, c := range res.Checks {
		mark := "ok  "
		if !c.OK {
			mark = "FAIL"
		}
		fmt.Fprintf(out, "  %s %s: %s\n", mark, c.Name, c.Detail)
	}
	fmt.Fprintf(out, "  ops_attempted %d, ops_failed %d\n", res.Attempted, res.Failed)
}

// printResultLine prints the contract's result object as the last line of
// standard output.
func printResultLine(out io.Writer, res *runResult, trace int) error {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	defs := endToEnd
	if trace == 1 {
		defs = perLayer
	}
	metrics := map[string]value{}
	for _, d := range defs {
		v, ok := res.Metrics[d.Name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("%s: no value for %s", res.Workload, d.Name)
		}
		metrics[d.Name] = value{v, d.Unit}
	}
	line, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{res.correct(), res.Attempted, res.Failed, metrics})
	if err != nil {
		return err
	}
	fmt.Fprintln(out, string(line))
	return nil
}

// compareSets checks that the sets agree: every end-to-end metric of every
// workload within its bound (largest minus smallest over the sets, as a
// share of their median), every deterministic output exactly. It prints
// each disagreement and returns their number.
func compareSets(out io.Writer, selected []workload, sets []map[string]*runResult, trace int) int {
	bad := 0
	for _, w := range selected {
		var exact []string
		for k := range sets[0][w.Name].Exact {
			exact = append(exact, k)
		}
		sort.Strings(exact)
		for _, k := range exact {
			for _, s := range sets[1:] {
				if a, b := sets[0][w.Name].Exact[k], s[w.Name].Exact[k]; a != b {
					fmt.Fprintf(out, "repeat: %s %s is not deterministic: %s vs %s\n", w.Name, k, a, b)
					bad++
				}
			}
		}
		if trace == 1 {
			continue
		}
		for _, d := range endToEnd {
			vals := make([]float64, len(sets))
			for i, s := range sets {
				vals[i] = s[w.Name].Metrics[d.Name]
			}
			sorted := sortedCopy(vals)
			spread := (sorted[len(sorted)-1] - sorted[0]) / median(vals)
			if spread > d.Bound {
				fmt.Fprintf(out, "repeat: %s %s differs by %.1f%% between sets (bound %.1f%%): %v\n",
					w.Name, d.Name, spread*100, d.Bound*100, vals)
				bad++
			}
		}
	}
	return bad
}
