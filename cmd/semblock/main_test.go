package main

import (
	"bytes"
	"os"
	"os/exec"
	"regexp"
	"slices"
	"strings"
	"testing"

	"semblock/internal/lsh"
)

// runMainEnv, when set in the environment of the test binary, makes it
// behave as the semblock command: the flag tests re-execute themselves to
// observe the real process — usage text on stderr and the exit status.
const runMainEnv = "SEMBLOCK_TEST_RUN_MAIN"

func TestMain(m *testing.M) {
	if os.Getenv(runMainEnv) != "" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// semblockProcess runs the command line in a child process and returns its
// stderr and exit status.
func semblockProcess(t *testing.T, args ...string) (string, int) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), runMainEnv+"=1")
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	err := cmd.Run()
	if err == nil {
		return stderr.String(), 0
	}
	exit, ok := err.(*exec.ExitError)
	if !ok {
		t.Fatalf("semblock %v: %v", args, err)
	}
	return stderr.String(), exit.ExitCode()
}

// TestSubcommandFlags pins the flag names of every subcommand, as -h prints
// them: the command line is the CLI's API.
func TestSubcommandFlags(t *testing.T) {
	block := "attrs demo input k l mode q seed semantic w"
	golden := map[string]string{
		"":         block + " pairs",
		"stream":   block + " batch pairs workers",
		"pipeline": block + " batch budget deadline match meta stream threshold workers",
		"serve": "addr checkpoint compact-bytes compact-segments data-dir debug-addr log-format log-level " +
			"shards slow-request-ms trace-buffer webhook-backoff webhook-retries webhook-timeout",
		"compact": "collection data-dir",
		"tail":    "addr collection create from group",
	}
	if len(golden) != len(subcommands)+1 {
		t.Errorf("golden covers %d subcommands, the dispatch table has %d plus the default", len(golden), len(subcommands))
	}
	flagLine := regexp.MustCompile(`(?m)^  -(\S+)`)
	for sub, flags := range golden {
		args := []string{"-h"}
		if sub != "" {
			args = []string{sub, "-h"}
		}
		usage, exit := semblockProcess(t, args...)
		if exit != 0 {
			t.Errorf("semblock %s -h exited %d", sub, exit)
		}
		var got []string
		for _, m := range flagLine.FindAllStringSubmatch(usage, -1) {
			got = append(got, m[1])
		}
		want := strings.Fields(flags)
		slices.Sort(want)
		if !slices.Equal(got, want) {
			t.Errorf("semblock %s -h lists flags %v, want %v", sub, got, want)
		}
	}
}

// TestUnknownSubcommandRejected: a first word that is not a subcommand is an
// error naming the real ones, not a run of the default blocker — including
// the retired "bench serve".
func TestUnknownSubcommandRejected(t *testing.T) {
	for _, args := range [][]string{{"serv", "-addr", ":0"}, {"bench", "serve"}} {
		err := dispatch(args)
		if err == nil {
			t.Fatalf("semblock %v: accepted", args)
		}
		for name := range subcommands {
			if !strings.Contains(err.Error(), name) {
				t.Errorf("semblock %v: error %q does not list subcommand %q", args, err, name)
			}
		}
	}
	stderr, exit := semblockProcess(t, "serv")
	if exit != 1 || !strings.Contains(stderr, `unknown subcommand "serv"`) {
		t.Errorf("semblock serv: exit %d, stderr %q", exit, stderr)
	}
}

// TestModeValidated: -mode takes what the server's CollectionSpec takes —
// "and" or "or" in any case — and nothing else; it used to map every other
// string to OR.
func TestModeValidated(t *testing.T) {
	for _, sub := range []string{"", "stream", "pipeline"} {
		args := []string{"-demo", "cora", "-semantic", "cora", "-mode", "xor"}
		if sub != "" {
			args = append([]string{sub}, args...)
		}
		if err := dispatch(args); err == nil || !strings.Contains(err.Error(), `"xor"`) {
			t.Errorf("semblock %v: err %v, want -mode xor rejected", args, err)
		}
	}
	for mode, want := range map[string]lsh.Mode{"AND": lsh.ModeAND, "and": lsh.ModeAND, "Or": lsh.ModeOR} {
		bf := blockFlags{demo: "cora", semantic: "cora", mode: mode, q: 2, k: 2, l: 4}
		_, cfg, err := bf.config()
		if err != nil {
			t.Fatalf("-mode %s: %v", mode, err)
		}
		if cfg.Semantic.Mode != want {
			t.Errorf("-mode %s configured %v, want %v", mode, cfg.Semantic.Mode, want)
		}
	}
}

func TestParseMatcher(t *testing.T) {
	for _, good := range []string{"title=0.6,authors=0.4", "title", " title = 2 , authors"} {
		if m, err := parseMatcher(good, 0.5); err != nil || m == nil {
			t.Errorf("parseMatcher(%q): %v", good, err)
		}
	}
	for _, bad := range []string{"", "title=abc", "=0.5", "title=0.6,,authors=0.4", "title=0", "title=-1"} {
		if _, err := parseMatcher(bad, 0.5); err == nil {
			t.Errorf("parseMatcher(%q): accepted", bad)
		}
	}
	if _, err := parseMatcher("title=1", 1.5); err == nil {
		t.Error("parseMatcher: threshold 1.5 accepted")
	}
}

func TestParseMeta(t *testing.T) {
	scheme, algo, err := parseMeta("cbs/Wep")
	if err != nil || scheme.String() != "CBS" || algo.String() != "WEP" {
		t.Errorf(`parseMeta("cbs/Wep") = %v, %v, %v`, scheme, algo, err)
	}
	for _, bad := range []string{"CBS", "CBS/", "XYZ/WEP", "CBS/XYZ"} {
		if _, _, err := parseMeta(bad); err == nil {
			t.Errorf("parseMeta(%q): accepted", bad)
		}
	}
}
