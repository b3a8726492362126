package shard

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"testing"

	"tfrc/internal/exp"
)

// crashChild launches one helper-process shard attempt (see
// exec_test.go's TestMain) with the given extra environment (crash
// hook, worker count) and reports whether the process exited cleanly.
func crashChild(t *testing.T, c Child, env ...string) bool {
	t.Helper()
	spec, err := json.Marshal(c)
	if err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command(os.Args[0])
	cmd.Env = append(os.Environ(),
		helperModeEnv+"=run",
		"TFRC_SHARD_TEST_CHILD="+string(spec))
	cmd.Env = append(cmd.Env, env...)
	cmd.Stderr = os.Stderr
	runErr := cmd.Run()
	if runErr != nil {
		var ee *exec.ExitError
		if !errors.As(runErr, &ee) {
			t.Fatalf("launching shard subprocess: %v", runErr)
		}
	}
	return runErr == nil
}

// crashFixture is one crash test's working set: a shardtest sweep of n
// cells run as a single shard flushing after every cell, the envelope
// and the checkpoint file an uninterrupted run of it produces, and the
// child spec for subprocess attempts in dir.
type crashFixture struct {
	c         Child
	hdr       checkpointHeader
	clean     *Envelope
	cleanCkpt []byte
}

func newCrashFixture(t *testing.T, n int) crashFixture {
	t.Helper()
	dir := t.TempDir()
	params := &shardtestParams{N: n, Seed: 13}
	paramsJSON, err := json.Marshal(params)
	if err != nil {
		t.Fatal(err)
	}
	paramsFile := filepath.Join(dir, "params.json")
	if err := os.WriteFile(paramsFile, paramsJSON, 0o644); err != nil {
		t.Fatal(err)
	}
	cleanPath := filepath.Join(dir, "clean.ckpt")
	clean, err := Run(RunSpec{Desc: shardtestDesc(t), Params: params,
		Shard: ShardParams{Index: 0, Count: 1, Checkpoint: cleanPath}})
	if err != nil {
		t.Fatal(err)
	}
	cleanCkpt, err := os.ReadFile(cleanPath)
	if err != nil {
		t.Fatal(err)
	}
	return crashFixture{
		c: Child{
			Shard: 0, Count: 1,
			Experiment: "shardtest",
			ParamsFile: paramsFile,
			Checkpoint: filepath.Join(dir, "s.ckpt"),
			Out:        filepath.Join(dir, "s.json"),
		},
		hdr: checkpointHeader{
			Schema:     CheckpointSchema,
			Experiment: "shardtest",
			ParamsHash: mustHash(t, "shardtest", paramsJSON),
			CellRange:  exp.CellRange{Lo: 0, Hi: n},
		},
		clean:     clean,
		cleanCkpt: cleanCkpt,
	}
}

// assertFinished checks a completed attempt: the envelope and the
// checkpoint file are byte-identical to the uninterrupted run's.
func (f crashFixture) assertFinished(t *testing.T) {
	t.Helper()
	resumed, err := ReadEnvelopeFile(f.c.Out)
	if err != nil {
		t.Fatal(err)
	}
	assertEnvelopesIdentical(t, f.clean, resumed)
	got, err := os.ReadFile(f.c.Checkpoint)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, f.cleanCkpt) {
		t.Fatalf("checkpoint file differs from an uninterrupted run's:\nwant %s\ngot  %s", f.cleanCkpt, got)
	}
}

// TestCrashAtEveryPointResumesByteIdentical is the crash-safety sweep:
// a real shard subprocess is SIGKILLed at each instrumented instant of
// the checkpoint write path — after a flush became durable, with the
// new flush encoded but not yet written, and with a torn (truncated)
// flush made visible — at several depths into the run, so the first
// occurrence hits the atomic publish and the later ones the append.
// After each kill a resume must complete and produce an envelope and a
// checkpoint file byte-identical to an uninterrupted run's.
func TestCrashAtEveryPointResumesByteIdentical(t *testing.T) {
	crashSweep(t, 1, 6)
}

// TestCrashAtEveryPointTwoWorkers repeats the sweep with two cells in
// flight beside the committer.
func TestCrashAtEveryPointTwoWorkers(t *testing.T) {
	crashSweep(t, 2, 12)
}

func crashSweep(t *testing.T, workers, cells int) {
	if testing.Short() {
		t.Skip("spawns many subprocesses")
	}
	workersEnv := helperWorkersEnv + "=" + strconv.Itoa(workers)
	for _, point := range []string{pointAfterFlush, pointMidFlush, pointTornFlush} {
		for n := 1; n <= 4; n++ {
			t.Run(point+"/"+strconv.Itoa(n), func(t *testing.T) {
				f := newCrashFixture(t, cells)

				// First attempt: armed to die at the n-th occurrence of
				// the crash point. With a flush per cell that is mid-run,
				// so the process must not survive. Only beside a second
				// worker can it: cells finishing out of order merge
				// flushes, and the n-th may never come. Try again then.
				died := false
				for try := 0; try < 20 && !died; try++ {
					os.Remove(f.c.Checkpoint)
					os.Remove(f.c.Out)
					died = !crashChild(t, f.c, workersEnv, crashPointEnv+"="+point+":"+strconv.Itoa(n))
					if workers == 1 {
						break
					}
				}
				if !died {
					t.Fatalf("shard survived an armed %s crash", point)
				}
				if _, err := os.Stat(f.c.Out); err == nil {
					t.Fatal("killed shard must not have published an envelope")
				}

				// The visible checkpoint, whatever state the kill left it
				// in, must load (possibly short, never wrong).
				if _, err := os.Stat(f.c.Checkpoint); err == nil {
					if _, err := loadCheckpoint(f.c.Checkpoint, f.hdr); err != nil {
						t.Fatalf("post-crash checkpoint unusable: %v", err)
					}
				}

				// Second attempt, crash hook unset: resume and finish.
				if !crashChild(t, f.c, workersEnv) {
					t.Fatal("resume attempt failed")
				}
				f.assertFinished(t)
			})
		}
	}
}

// TestTornAppendThenResumeAppendsBehindCleanPrefix chains two crashes:
// a torn append leaves half a line at the end of the file; the resumed
// attempt then dies right after its second flush, an append. Had its
// first flush appended behind the garbage instead of republishing the
// file, every later line would sit behind an unparseable one and be
// lost to the loader. The third attempt must finish with the envelope
// and the checkpoint file byte-identical to an uninterrupted run's.
func TestTornAppendThenResumeAppendsBehindCleanPrefix(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns subprocesses")
	}
	f := newCrashFixture(t, 6)
	if crashChild(t, f.c, crashPointEnv+"="+pointTornFlush+":3") {
		t.Fatal("shard survived an armed torn-flush crash")
	}
	torn, err := os.ReadFile(f.c.Checkpoint)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.HasSuffix(torn, []byte("\n")) {
		t.Fatalf("third flush was to leave a torn line at the end of the file, got %q", torn)
	}
	if got, err := loadCheckpoint(f.c.Checkpoint, f.hdr); err != nil || len(got) != 2 {
		t.Fatalf("torn checkpoint loaded %d cells, err %v; want the 2 intact ones", len(got), err)
	}

	if crashChild(t, f.c, crashPointEnv+"="+pointAfterFlush+":2") {
		t.Fatal("resumed shard survived an armed after-flush crash")
	}
	if got, err := loadCheckpoint(f.c.Checkpoint, f.hdr); err != nil || len(got) != 4 {
		t.Fatalf("after the second crash the checkpoint loaded %d cells, err %v; want 4", len(got), err)
	}

	if !crashChild(t, f.c) {
		t.Fatal("final resume failed")
	}
	f.assertFinished(t)
}

// mustHash wraps ParamsHash for tests.
func mustHash(t *testing.T, name string, paramsJSON []byte) string {
	t.Helper()
	h, err := ParamsHash(name, paramsJSON)
	if err != nil {
		t.Fatal(err)
	}
	return h
}
