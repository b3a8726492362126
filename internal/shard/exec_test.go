package shard

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"strconv"
	"sync"
	"testing"
	"time"

	"tfrc/internal/exp"
)

// The supervisor tests re-exec this test binary as the shard
// subprocess: TestMain diverts to helperMain when the mode variable is
// set, so Exec drives real processes that really crash (SIGKILL via the
// checkpoint crash hooks), hang, or fail.
const helperModeEnv = "TFRC_SHARD_TEST_HELPER"

// helperWorkersEnv, when set, is the helper's in-shard worker count
// (the -parallel of "tfrcsim shard run").
const helperWorkersEnv = "TFRC_SHARD_TEST_WORKERS"

func TestMain(m *testing.M) {
	if os.Getenv(helperModeEnv) != "" {
		helperMain()
		return // unreachable; helperMain exits
	}
	os.Exit(m.Run())
}

// helperMain is the shard subprocess body: run the child spec from the
// environment like "tfrcsim shard run" would, honoring the mode.
func helperMain() {
	mode := os.Getenv(helperModeEnv)
	var c Child
	if err := json.Unmarshal([]byte(os.Getenv("TFRC_SHARD_TEST_CHILD")), &c); err != nil {
		fmt.Fprintln(os.Stderr, "helper: bad child spec:", err)
		os.Exit(1)
	}
	switch mode {
	case "run":
	case "crash": // die after this attempt's first flush
		os.Setenv(crashPointEnv, pointAfterFlush+":1")
	case "fail":
		os.Exit(1)
	case "hang":
		time.Sleep(time.Minute)
		os.Exit(1)
	default:
		fmt.Fprintln(os.Stderr, "helper: unknown mode", mode)
		os.Exit(1)
	}
	desc, ok := exp.Lookup(c.Experiment)
	if !ok {
		fmt.Fprintln(os.Stderr, "helper: unknown experiment", c.Experiment)
		os.Exit(1)
	}
	pj, err := os.ReadFile(c.ParamsFile)
	if err != nil {
		fmt.Fprintln(os.Stderr, "helper:", err)
		os.Exit(1)
	}
	params := desc.Params()
	if err := json.Unmarshal(pj, params); err != nil {
		fmt.Fprintln(os.Stderr, "helper:", err)
		os.Exit(1)
	}
	if w, err := strconv.Atoi(os.Getenv(helperWorkersEnv)); err == nil {
		exp.SetParallelism(w)
	}
	env, err := Run(RunSpec{
		Desc:   desc,
		Params: params,
		Shard: ShardParams{
			Index: c.Shard, Count: c.Count,
			Checkpoint: c.Checkpoint, Resume: true,
		},
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "helper:", err)
		os.Exit(1)
	}
	if err := WriteEnvelopeFile(c.Out, env); err != nil {
		fmt.Fprintln(os.Stderr, "helper:", err)
		os.Exit(1)
	}
	os.Exit(0)
}

// helperCommand builds a Command hook running this test binary in
// helper mode; modeFor picks the mode per (shard, attempt).
func helperCommand(t *testing.T, extraEnv []string, modeFor func(shard, attempt int) string) func(context.Context, Child) *exec.Cmd {
	t.Helper()
	var mu sync.Mutex // Command is called from per-shard goroutines
	attempts := map[int]int{}
	return func(ctx context.Context, c Child) *exec.Cmd {
		mu.Lock()
		attempt := attempts[c.Shard]
		attempts[c.Shard]++
		mu.Unlock()
		spec, err := json.Marshal(c)
		if err != nil {
			t.Fatal(err)
		}
		cmd := exec.CommandContext(ctx, os.Args[0])
		cmd.Env = append(os.Environ(),
			helperModeEnv+"="+modeFor(c.Shard, attempt),
			"TFRC_SHARD_TEST_CHILD="+string(spec))
		cmd.Env = append(cmd.Env, extraEnv...)
		cmd.Stderr = os.Stderr
		return cmd
	}
}

// baseExecConfig builds the common supervisor config: instant fake
// sleeps.
func baseExecConfig(t *testing.T, dir string) ExecConfig {
	t.Helper()
	return ExecConfig{
		Desc:   shardtestDesc(t),
		Params: &shardtestParams{N: 10, Seed: 21},
		Shards: 3,
		Dir:    dir,
		Sleep:  func(time.Duration) {}, // hermetic: no real waiting
		Log:    os.Stderr,
	}
}

// directEnvelope computes the ground-truth complete envelope in
// process.
func directEnvelope(t *testing.T, cfg ExecConfig) *Envelope {
	t.Helper()
	env, err := Run(RunSpec{Desc: cfg.Desc, Params: &shardtestParams{N: 10, Seed: 21},
		Shard: ShardParams{Index: 0, Count: 1}})
	if err != nil {
		t.Fatal(err)
	}
	return env
}

func TestExecAllHealthy(t *testing.T) {
	cfg := baseExecConfig(t, t.TempDir())
	cfg.Command = helperCommand(t, nil, func(int, int) string { return "run" })
	merged, err := Exec(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !merged.Complete {
		t.Fatalf("healthy fan-out must be complete; missing %v", merged.Missing)
	}
	assertEnvelopesIdentical(t, directEnvelope(t, cfg), merged)
}

// TestExecCrashedShardResumes arms the crash-once hook for shard 1: its
// first attempt SIGKILLs itself right after a checkpoint flush, the
// supervisor restarts it, and the resumed run must leave the merged
// envelope byte-identical to a crash-free fan-out.
func TestExecCrashedShardResumes(t *testing.T) {
	dir := t.TempDir()
	cfg := baseExecConfig(t, dir)
	sentinel := dir + "/crashed-once"
	cfg.Command = helperCommand(t,
		[]string{crashOnceEnv + "=1:" + sentinel},
		func(int, int) string { return "run" })
	merged, err := Exec(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !merged.Complete {
		t.Fatalf("crashed-then-resumed fan-out must be complete; missing %v", merged.Missing)
	}
	if _, err := os.Stat(sentinel); err != nil {
		t.Fatal("crash hook never fired; the test exercised nothing")
	}
	assertEnvelopesIdentical(t, directEnvelope(t, cfg), merged)
}

// TestExecHungShardKilledAndRetried: shard 2's first attempt hangs; the
// shard timeout kills it and the retry completes the sweep.
func TestExecHungShardKilledAndRetried(t *testing.T) {
	cfg := baseExecConfig(t, t.TempDir())
	cfg.ShardTimeout = 2 * time.Second
	cfg.Command = helperCommand(t, nil, func(shard, attempt int) string {
		if shard == 2 && attempt == 0 {
			return "hang"
		}
		return "run"
	})
	merged, err := Exec(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !merged.Complete {
		t.Fatalf("hung-then-retried fan-out must be complete; missing %v", merged.Missing)
	}
	assertEnvelopesIdentical(t, directEnvelope(t, cfg), merged)
}

// TestExecPermanentFailureDegradesGracefully: shard 1 fails every
// attempt. The sweep must still produce a well-formed partial envelope
// with exactly shard 1's cells missing — not an error with nothing.
func TestExecPermanentFailureDegradesGracefully(t *testing.T) {
	cfg := baseExecConfig(t, t.TempDir())
	cfg.Command = helperCommand(t, nil, func(shard, attempt int) string {
		if shard == 1 {
			return "fail"
		}
		return "run"
	})
	merged, err := Exec(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if merged.Complete {
		t.Fatal("a permanently failed shard cannot yield a complete envelope")
	}
	total := 10
	want := SplitRange(total, 1, 3)
	if len(merged.Missing) != 1 || merged.Missing[0] != want {
		t.Fatalf("Missing = %v, want [%s]", merged.Missing, want)
	}
	for i := 0; i < total; i++ {
		gotNil := merged.Cells[i] == nil
		wantNil := i >= want.Lo && i < want.Hi
		if gotNil != wantNil {
			t.Fatalf("cell %d nil=%v, want nil=%v", i, gotNil, wantNil)
		}
	}
	if err := merged.Validate(); err != nil {
		t.Fatalf("partial envelope must still be well-formed: %v", err)
	}
}

// TestExecSalvagesCheckpointOfDeadShard: every attempt of shard 2, four
// cells long, dies right after its first checkpoint flush. On one
// worker each attempt resumes the last one's prefix and makes one more
// cell durable, so after the attempt budget the merged partial envelope
// must carry the first maxAttempts cells of the shard and report only
// the truly lost tail as missing.
func TestExecSalvagesCheckpointOfDeadShard(t *testing.T) {
	cfg := baseExecConfig(t, t.TempDir())
	cfg.Command = helperCommand(t, []string{helperWorkersEnv + "=1"}, func(shard, attempt int) string {
		if shard == 2 {
			return "crash"
		}
		return "run"
	})
	merged, err := Exec(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if merged.Complete {
		t.Fatal("a shard that crashes on every attempt cannot complete")
	}
	rng := SplitRange(10, 2, 3) // [6,10)
	durable := exp.CellRange{Lo: rng.Lo, Hi: rng.Lo + maxAttempts}
	if len(merged.Missing) != 1 || merged.Missing[0] != (exp.CellRange{Lo: durable.Hi, Hi: rng.Hi}) {
		t.Fatalf("Missing = %v, want [[%d,%d)]", merged.Missing, durable.Hi, rng.Hi)
	}
	// Salvaged cells must equal the ground truth cells.
	truth := directEnvelope(t, cfg)
	for i := durable.Lo; i < durable.Hi; i++ {
		if !bytes.Equal(merged.Cells[i], truth.Cells[i]) {
			t.Fatalf("salvaged cell %d differs from ground truth: %s vs %s", i, merged.Cells[i], truth.Cells[i])
		}
	}
}

// TestExecBackoffDeterministic: the jittered backoff schedule is a pure
// function of (shard, attempt), positive and within the jittered cap.
func TestExecBackoffDeterministic(t *testing.T) {
	for shard := 0; shard < 4; shard++ {
		for attempt := 0; attempt < 12; attempt++ {
			a := backoff(shard, attempt)
			b := backoff(shard, attempt)
			if a != b {
				t.Fatalf("backoff(%d,%d) not deterministic: %v vs %v", shard, attempt, a, b)
			}
			if a > backoffCap*3/2 {
				t.Fatalf("backoff(%d,%d)=%v exceeds cap×1.5", shard, attempt, a)
			}
			if a <= 0 {
				t.Fatalf("backoff(%d,%d)=%v must be positive", shard, attempt, a)
			}
		}
	}
}
