package main

import (
	"bytes"
	"os"
	"os/exec"
	"path/filepath"
	"runtime/pprof"
	"strings"
	"testing"
)

// The CLI tests re-exec this test binary as tfrcsim: TestMain diverts to
// main when the variable is set.
const asTfrcsimEnv = "TFRCSIM_TEST_AS_CLI"

func TestMain(m *testing.M) {
	if os.Getenv(asTfrcsimEnv) != "" {
		main()
		return // unreachable; main exits
	}
	os.Exit(m.Run())
}

// tfrcsim runs the CLI with the given arguments and returns its output
// streams and exit code.
func tfrcsim(t *testing.T, args ...string) (stdout, stderr string, code int) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), asTfrcsimEnv+"=1")
	var out, errb bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &errb
	err := cmd.Run()
	if ee, ok := err.(*exec.ExitError); ok {
		code = ee.ExitCode()
	} else if err != nil {
		t.Fatalf("tfrcsim %v: %v", args, err)
	}
	return out.String(), errb.String(), code
}

func TestCommands(t *testing.T) {
	for _, tc := range []struct {
		args   string
		params string // when set, written to a file passed as the next argument
		code   int
		stdout string // substring of stdout
		stderr string // substring of stderr
		// same, when set, is a run whose stdout this one's must equal,
		// with sameParams as its params.
		same, sameParams string
	}{
		{args: "run fig5 -format json", stdout: `"experiment": "fig5"`},
		{args: "list", stdout: "run one with: tfrcsim run <name>"},
		{args: "run 10 -format json", stdout: `"experiment": "fig9"`}, // registry aliases stay
		{args: "", code: 2, stderr: "want a command"},
		{args: "run", code: 2, stderr: "needs an experiment name"},
		{args: "run faultphas", code: 2, stderr: `did you mean "faultphase"`},
		{args: "run fig5 -format xml", code: 2, stderr: "-format"},
		// A shard's cells and its retry policy are not flags.
		{args: "shard run fig5 -cells 0:1", code: 2, stderr: "flag provided but not defined: -cells"},
		{args: "shard exec fig5 -retries 2", code: 2, stderr: "flag provided but not defined: -retries"},
		// The sender always decreases straight to the equation's rate
		// (§3.2): a decrease policy is not a parameter.
		{args: "run fig3 -params", params: `{"Decrease": 3}`, code: 1, stderr: `unknown field "Decrease"`},
		// A setting the paper fixes is a constant, and naming it is an
		// error, not a silent no-op.
		{args: "run fig21 -params", params: `{"RTT": 0.1}`, code: 1, stderr: `unknown field "RTT"`},
		// -seed and -seeds are the overlays {"Seed": n} and {"Seeds": n}
		// after -params; params without the field ignore the flag.
		{args: "run fig5 -seed 3", stderr: "fig5 takes no -seed; ignored", same: "run fig5"},
		{args: "run chaos -seeds 2", stderr: "chaos takes no -seeds; ignored"},
		{args: "run fig9 -seed 3 -params", params: `{"Seed": 5, "Runs": 2, "FlowsEach": 2}`,
			same: "run fig9 -params", sameParams: `{"Seed": 3, "Runs": 2, "FlowsEach": 2}`},
	} {
		t.Run(tc.args, func(t *testing.T) {
			stdout, stderr, code := tfrcsim(t, withParams(t, tc.args, tc.params)...)
			if tc.same != "" {
				want, _, _ := tfrcsim(t, withParams(t, tc.same, tc.sameParams)...)
				if stdout != want {
					t.Errorf("stdout differs from %q's:\n%s\nvs\n%s", tc.same, stdout, want)
				}
			}
			if code != tc.code {
				t.Errorf("exit %d, want %d (stderr: %s)", code, tc.code, stderr)
			}
			if !strings.Contains(stdout, tc.stdout) {
				t.Errorf("stdout lacks %q:\n%s", tc.stdout, stdout)
			}
			if !strings.Contains(stderr, tc.stderr) {
				t.Errorf("stderr lacks %q:\n%s", tc.stderr, stderr)
			}
			// The flag package lists the flags after its one-line error.
			if tc.code == 2 && !strings.HasPrefix(stderr, "flag provided") && strings.Count(stderr, "\n") != 1 {
				t.Errorf("usage error is not one line:\n%s", stderr)
			}
		})
	}
}

// withParams splits args into fields and, when params is set, writes it
// to a file whose name it appends.
func withParams(t *testing.T, args, params string) []string {
	fields := strings.Fields(args)
	if params == "" {
		return fields
	}
	file := filepath.Join(t.TempDir(), "params.json")
	if err := os.WriteFile(file, []byte(params), 0o644); err != nil {
		t.Fatal(err)
	}
	return append(fields, file)
}

// TestShardMergeEqualsRun pins the distributed contract at the CLI:
// shard envelopes merged back are byte-identical to the single run.
func TestShardMergeEqualsRun(t *testing.T) {
	params := filepath.Join(t.TempDir(), "p.json")
	grid := `{"LinkMbps": [2], "TotalFlows": [2, 4], "Queues": ["droptail", "red"], "Duration": 5, "MeasureTail": 3}`
	if err := os.WriteFile(params, []byte(grid), 0o644); err != nil {
		t.Fatal(err)
	}
	single, stderr, code := tfrcsim(t, "run", "fig6", "-params", params, "-format", "json")
	if code != 0 {
		t.Fatalf("run: exit %d: %s", code, stderr)
	}
	var envs []string
	for _, shard := range []string{"0/2", "1/2"} {
		env := filepath.Join(t.TempDir(), "s.json")
		if _, stderr, code := tfrcsim(t, "shard", "run", "fig6", "-params", params, "-shard", shard, "-o", env); code != 0 {
			t.Fatalf("shard run %s: exit %d: %s", shard, code, stderr)
		}
		envs = append(envs, env)
	}
	merged, stderr, code := tfrcsim(t, append([]string{"merge", "-format", "json"}, envs...)...)
	if code != 0 {
		t.Fatalf("merge: exit %d: %s", code, stderr)
	}
	if merged != single {
		t.Errorf("merged shards differ from the single run:\n%s\nvs\n%s", merged, single)
	}
}

// TestCatchInterruptLeavesNoGoroutine checks that an uninterrupted run's
// stop reaps the signal goroutine.
func TestCatchInterruptLeavesNoGoroutine(t *testing.T) {
	_, _, stop := catchInterrupt()
	stop()
	var stacks bytes.Buffer
	if err := pprof.Lookup("goroutine").WriteTo(&stacks, 1); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(stacks.String(), "catchInterrupt") {
		t.Errorf("a catchInterrupt goroutine outlives stop:\n%s", stacks.String())
	}
}
