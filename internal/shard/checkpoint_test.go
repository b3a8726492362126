package shard

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"tfrc/internal/exp"
)

func testHeader(rng exp.CellRange) checkpointHeader {
	return checkpointHeader{
		Schema:     CheckpointSchema,
		Experiment: "shardtest",
		ParamsHash: "sha256:abc",
		CellRange:  rng,
	}
}

func testCells(n int) []json.RawMessage {
	cells := make([]json.RawMessage, n)
	for i := range cells {
		cells[i] = json.RawMessage(jsonNum(i))
	}
	return cells
}

func jsonNum(i int) string { return `{"v":` + string(rune('0'+i%10)) + `}` }

func TestCheckpointFlushLoad(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "s.ckpt")
	hdr := testHeader(exp.CellRange{Lo: 5, Hi: 12})
	w := &checkpointWriter{path: path, hdr: hdr}
	defer w.close()
	cells := testCells(7)

	// Progressive flushes: the first publishes the file, each later one
	// appends the cells past the last.
	for done := 1; done <= 7; done++ {
		if err := w.flush(cells, done); err != nil {
			t.Fatal(err)
		}
		got, err := loadCheckpoint(path, hdr)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != done {
			t.Fatalf("after flushing %d cells, loaded %d", done, len(got))
		}
		for i := range got {
			if !bytes.Equal(got[i], cells[i]) {
				t.Fatalf("cell %d round trip: got %s want %s", i, got[i], cells[i])
			}
		}
	}
}

func TestCheckpointTornTailTolerated(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "s.ckpt")
	hdr := testHeader(exp.CellRange{Lo: 0, Hi: 5})
	w := &checkpointWriter{path: path, hdr: hdr}
	defer w.close()
	if err := w.flush(testCells(5), 5); err != nil {
		t.Fatal(err)
	}
	full, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	// Truncate at every byte boundary: the loader must never error and
	// never return more cells than the intact prefix contains.
	for cut := 0; cut < len(full); cut += 7 {
		if err := os.WriteFile(path, full[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		got, err := loadCheckpoint(path, hdr)
		if err != nil {
			t.Fatalf("cut=%d: torn checkpoint must load tolerantly, got %v", cut, err)
		}
		for i := range got {
			var v struct{ V int }
			if json.Unmarshal(got[i], &v) != nil {
				t.Fatalf("cut=%d: loaded a torn cell %q", cut, got[i])
			}
		}
	}

	// Garbage appended after valid lines: prefix survives, tail dropped.
	if err := os.WriteFile(path, append(append([]byte{}, full...), []byte(`{"index":`)...), 0o644); err != nil {
		t.Fatal(err)
	}
	got, err := loadCheckpoint(path, hdr)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 5 {
		t.Errorf("garbage tail: loaded %d cells, want 5", len(got))
	}
}

// TestCheckpointNullCellEndsPrefix: a line whose cell is JSON null is
// not a finished cell — json.RawMessage decodes it to the bytes "null",
// which Reduce would read as a zero cell — so the loaded prefix ends
// there, as it does at a torn line.
func TestCheckpointNullCellEndsPrefix(t *testing.T) {
	path := filepath.Join(t.TempDir(), "s.ckpt")
	hdr := testHeader(exp.CellRange{Lo: 0, Hi: 3})
	w := &checkpointWriter{path: path, hdr: hdr}
	defer w.close()
	cells := testCells(3)
	cells[1] = json.RawMessage("null")
	if err := w.flush(cells, 3); err != nil {
		t.Fatal(err)
	}
	got, err := loadCheckpoint(path, hdr)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || !bytes.Equal(got[0], cells[0]) {
		t.Fatalf("loaded %q, want only cell 0 (%s)", got, cells[0])
	}
}

func TestCheckpointIdentityMismatch(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "s.ckpt")
	hdr := testHeader(exp.CellRange{Lo: 0, Hi: 3})
	w := &checkpointWriter{path: path, hdr: hdr}
	defer w.close()
	if err := w.flush(testCells(3), 2); err != nil {
		t.Fatal(err)
	}

	for name, want := range map[string]checkpointHeader{
		"params hash":  {Schema: CheckpointSchema, Experiment: "shardtest", ParamsHash: "sha256:other", CellRange: hdr.CellRange},
		"experiment":   {Schema: CheckpointSchema, Experiment: "fig6", ParamsHash: hdr.ParamsHash, CellRange: hdr.CellRange},
		"range lo":     {Schema: CheckpointSchema, Experiment: "shardtest", ParamsHash: hdr.ParamsHash, CellRange: exp.CellRange{Lo: 1, Hi: 3}},
		"range shrunk": {Schema: CheckpointSchema, Experiment: "shardtest", ParamsHash: hdr.ParamsHash, CellRange: exp.CellRange{Lo: 0, Hi: 2}},
		"range grown":  {Schema: CheckpointSchema, Experiment: "shardtest", ParamsHash: hdr.ParamsHash, CellRange: exp.CellRange{Lo: 0, Hi: 4}},
		"schema":       {Schema: "tfrc.shard.checkpoint/v999", Experiment: "shardtest", ParamsHash: hdr.ParamsHash, CellRange: hdr.CellRange},
	} {
		if _, err := loadCheckpoint(path, want); err == nil {
			t.Errorf("loading with mismatched %s must fail", name)
		}
	}
}

// TestRunCheckpointResume interrupts a Run after four cells, then
// resumes the shard from the checkpoint: the envelope must be
// byte-identical to an uninterrupted run's.
func TestRunCheckpointResume(t *testing.T) {
	d := shardtestDesc(t)
	params := func() exp.Params { return &shardtestParams{N: 9, Seed: 42} }
	dir := t.TempDir()
	ckpt := filepath.Join(dir, "s.ckpt")

	// Ground truth: one uninterrupted, checkpoint-free run.
	clean, err := Run(RunSpec{Desc: d, Params: params(), Shard: ShardParams{Index: 0, Count: 1}})
	if err != nil {
		t.Fatal(err)
	}

	// Interrupted run: only cells [0,4) reach the checkpoint.
	interruptedRun(t, RunSpec{Desc: d, Params: params(),
		Shard: ShardParams{Index: 0, Count: 1, Checkpoint: ckpt}}, 4)
	pj, err := json.Marshal(params())
	if err != nil {
		t.Fatal(err)
	}
	hdr := checkpointHeader{Schema: CheckpointSchema, Experiment: "shardtest",
		ParamsHash: mustHash(t, "shardtest", pj), CellRange: exp.CellRange{Lo: 0, Hi: 9}}
	if got, err := loadCheckpoint(ckpt, hdr); err != nil || len(got) != 4 {
		t.Fatalf("interrupted run checkpointed %d cells, err %v; want 4", len(got), err)
	}

	// Resume the shard; cells [0,4) load, [4,9) recompute.
	resumed, err := Run(RunSpec{
		Desc: d, Params: params(),
		Shard: ShardParams{Index: 0, Count: 1, Checkpoint: ckpt, Resume: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	assertEnvelopesIdentical(t, clean, resumed)

	// Resume when everything is already done: no recomputation needed,
	// same bytes again.
	again, err := Run(RunSpec{
		Desc: d, Params: params(),
		Shard: ShardParams{Index: 0, Count: 1, Checkpoint: ckpt, Resume: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	assertEnvelopesIdentical(t, clean, again)

	// Resume against changed params must fail loudly, not silently mix
	// cells from two parameter sets.
	if _, err := Run(RunSpec{
		Desc: d, Params: &shardtestParams{N: 9, Seed: 43},
		Shard: ShardParams{Index: 0, Count: 1, Checkpoint: ckpt, Resume: true},
	}); err == nil {
		t.Fatal("resuming a checkpoint from different params must fail")
	}
}

// assertEnvelopesIdentical compares the full serialized envelope bytes,
// the contract the distributed sweep promises.
func assertEnvelopesIdentical(t *testing.T, want, got *Envelope) {
	t.Helper()
	wj, err := json.Marshal(want)
	if err != nil {
		t.Fatal(err)
	}
	gj, err := json.Marshal(got)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(wj, gj) {
		t.Fatalf("envelopes differ:\nwant %s\ngot  %s", wj, gj)
	}
}
