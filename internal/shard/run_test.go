package shard

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"tfrc/internal/exp"
	"tfrc/internal/sweep"
)

// stubDesc is a grid of n cells computed by cell, which sees absolute
// indices and may block, fail or cancel to script the pipeline. Its
// Stream keeps the seam's contract the way the kernel's does: o.Workers
// cells at a time, claimed in order, none started once o.Ctx is done.
func stubDesc(n int, cell func(i int) (json.RawMessage, error)) exp.Descriptor {
	return exp.Descriptor{
		Name: "stub",
		Grid: &exp.Grid{
			Cells: func(exp.Params) (int, error) { return n, nil },
			Stream: func(o exp.RunOptions, _ exp.Params, r exp.CellRange, sink func(int, json.RawMessage, error)) error {
				sweep.MapCtx(o.Workers, r.Len(), func() struct{} { return struct{}{} }, nil,
					func(_ struct{}, i int) struct{} {
						if o.Ctx == nil || o.Ctx.Err() == nil {
							raw, err := cell(r.Lo + i)
							sink(r.Lo+i, raw, err)
						}
						return struct{}{}
					})
				return nil
			},
		},
	}
}

func stubCell(i int) (json.RawMessage, error) {
	return json.RawMessage(fmt.Sprintf(`{"cell":%d}`, i)), nil
}

// withWorkers sets the sweep worker count for one test.
func withWorkers(t *testing.T, n int) {
	t.Helper()
	prev := exp.SetParallelism(n)
	t.Cleanup(func() { exp.SetParallelism(prev) })
}

// assertNoGoroutinesLeft waits for the goroutine count to fall back to
// base: Run's workers have all exited by the time it returns, the
// goroutine that closed their channel may still be on its last
// instruction.
func assertNoGoroutinesLeft(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines outlived Run (started with %d)", runtime.NumGoroutine()-base, base)
		}
		runtime.Gosched()
	}
}

func stubHeader(t *testing.T, n int) checkpointHeader {
	t.Helper()
	pj, err := json.Marshal(&shardtestParams{N: n})
	if err != nil {
		t.Fatal(err)
	}
	return checkpointHeader{
		Schema:     CheckpointSchema,
		Experiment: "stub",
		ParamsHash: mustHash(t, "stub", pj),
		CellRange:  exp.CellRange{Lo: 0, Hi: n},
	}
}

// TestRunInterruptKeepsProgress cancels the run context from inside
// cell 5 of 10. Run must report ErrInterrupted only after flushing the
// cells that ran — the cell that cancelled and any in flight beside it
// included, since the executor hands over every cell it started and no
// other; and a resume must finish the range with the envelope of an
// uninterrupted run.
func TestRunInterruptKeepsProgress(t *testing.T) {
	const n, cancelAt = 10, 5
	params := &shardtestParams{N: n}
	clean, err := Run(RunSpec{Desc: stubDesc(n, stubCell), Params: params, Shard: ShardParams{Count: 1}})
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 2} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			var started [n]atomic.Bool
			// cancel returns once the run's own context, derived from
			// ctx, is cancelled too; ctx.Done closes before that.
			cancelled := make(chan struct{})
			d := stubDesc(n, func(i int) (json.RawMessage, error) {
				started[i].Store(true)
				switch {
				case i == cancelAt:
					cancel()
					close(cancelled)
				case i > cancelAt: // claimed before the cancel: in flight when it comes
					<-cancelled
				}
				return stubCell(i)
			})
			sp := ShardParams{Count: 1, Checkpoint: filepath.Join(t.TempDir(), "s.ckpt")}
			o := exp.RunOptions{Workers: workers, Ctx: ctx}
			if _, err := RunWith(RunSpec{Desc: d, Params: params, Shard: sp}, o); !errors.Is(err, exp.ErrInterrupted) {
				t.Fatalf("RunWith = %v, want ErrInterrupted", err)
			}

			got, err := loadCheckpoint(sp.Checkpoint, stubHeader(t, n))
			if err != nil {
				t.Fatal(err)
			}
			// The checkpoint holds the longest prefix of cells that
			// started: at one worker cell cancelAt and everything below
			// it. At two, a cell the other worker claimed but had not yet
			// started at the cancel never starts, so the prefix may end
			// below cancelAt, or run past it to the cell in flight beside it.
			ran := 0
			for ran < n && started[ran].Load() {
				ran++
			}
			if len(got) != ran || (workers == 1 && ran != cancelAt+1) {
				t.Fatalf("checkpoint holds %d cells, %d started in a row, after a cancel inside cell %d at %d workers", len(got), ran, cancelAt, workers)
			}
			for i, c := range got {
				if !bytes.Equal(c, clean.Cells[i]) {
					t.Fatalf("checkpointed cell %d = %s, want %s", i, c, clean.Cells[i])
				}
			}

			sp.Resume = true
			resumed, err := Run(RunSpec{Desc: stubDesc(n, stubCell), Params: params, Shard: sp})
			if err != nil {
				t.Fatal(err)
			}
			assertEnvelopesIdentical(t, clean, resumed)
		})
	}
}

// TestRunReportsLowestFailingCell: cells 3 and 5 of 8 both fail, and at
// 8 workers cell 3 fails only after cell 5 has. Run must name cell 3 at
// any worker count, leave no goroutine behind, and have flushed the
// cells before the failure so a resume with a healthy grid finishes.
func TestRunReportsLowestFailingCell(t *testing.T) {
	const n = 8
	params := &shardtestParams{N: n}
	clean, err := Run(RunSpec{Desc: stubDesc(n, stubCell), Params: params, Shard: ShardParams{Count: 1}})
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 2, 8} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			withWorkers(t, workers)
			fiveFailed := make(chan struct{})
			d := stubDesc(n, func(i int) (json.RawMessage, error) {
				switch {
				case i == 5:
					close(fiveFailed)
					return nil, errors.New("boom 5")
				case i == 3 && workers == n: // every cell is in flight at once
					<-fiveFailed
					return nil, errors.New("boom 3")
				case i == 3:
					return nil, errors.New("boom 3")
				}
				return stubCell(i)
			})
			sp := ShardParams{Count: 1, Checkpoint: filepath.Join(t.TempDir(), "s.ckpt")}
			base := runtime.NumGoroutine()
			_, err := Run(RunSpec{Desc: d, Params: params, Shard: sp})
			if err == nil || !strings.Contains(err.Error(), "cell 3: boom 3") {
				t.Fatalf("Run = %v, want the failure of cell 3", err)
			}
			assertNoGoroutinesLeft(t, base)

			got, err := loadCheckpoint(sp.Checkpoint, stubHeader(t, n))
			if err != nil || len(got) != 3 {
				t.Fatalf("checkpoint after the failure holds %d cells, err %v; want cells 0..2", len(got), err)
			}
			sp.Resume = true
			resumed, err := Run(RunSpec{Desc: stubDesc(n, stubCell), Params: params, Shard: sp})
			if err != nil {
				t.Fatal(err)
			}
			assertEnvelopesIdentical(t, clean, resumed)
		})
	}
}

// TestRunFlushErrorStopsWorkers: the checkpoint cannot be written (its
// directory does not exist). Run must fail with the flush error rather
// than compute on without durability, and leave no goroutine behind.
func TestRunFlushErrorStopsWorkers(t *testing.T) {
	const n = 50
	for _, workers := range []int{1, 4} {
		withWorkers(t, workers)
		sp := ShardParams{Count: 1, Checkpoint: filepath.Join(t.TempDir(), "missing", "s.ckpt")}
		base := runtime.NumGoroutine()
		_, err := Run(RunSpec{Desc: stubDesc(n, stubCell), Params: &shardtestParams{N: n}, Shard: sp})
		if err == nil || !strings.Contains(err.Error(), "flushing checkpoint") {
			t.Fatalf("workers=%d: Run = %v, want a checkpoint flush error", workers, err)
		}
		assertNoGoroutinesLeft(t, base)
	}
}

// TestRunCellsFinishingInReverseOrder: with every cell in flight at
// once, cell i returns only after cell i+1 has, so the committer sees
// the payloads last-first and the prefix jumps from nothing to
// everything. Completion order must not reach the envelope or the
// checkpoint file.
func TestRunCellsFinishingInReverseOrder(t *testing.T) {
	const n = 6
	params := &shardtestParams{N: n}
	dir := t.TempDir()
	cleanSP := ShardParams{Count: 1, Checkpoint: filepath.Join(dir, "clean.ckpt")}
	clean, err := Run(RunSpec{Desc: stubDesc(n, stubCell), Params: params, Shard: cleanSP})
	if err != nil {
		t.Fatal(err)
	}

	withWorkers(t, n)
	finished := make([]chan struct{}, n+1)
	for i := range finished {
		finished[i] = make(chan struct{})
	}
	close(finished[n])
	d := stubDesc(n, func(i int) (json.RawMessage, error) {
		<-finished[i+1]
		defer close(finished[i])
		return stubCell(i)
	})
	sp := ShardParams{Count: 1, Checkpoint: filepath.Join(dir, "s.ckpt")}
	got, err := Run(RunSpec{Desc: d, Params: params, Shard: sp})
	if err != nil {
		t.Fatal(err)
	}
	assertEnvelopesIdentical(t, clean, got)
	assertFilesIdentical(t, cleanSP.Checkpoint, sp.Checkpoint)
}

// interruptedRun runs spec on one worker and cancels it once cell
// Lo+stop-1 of its range is handed over, so no later cell starts and the
// checkpoint holds exactly the first stop cells.
func interruptedRun(t *testing.T, spec RunSpec, stop int) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	inner := spec.Desc.Grid
	grid := *inner
	grid.Stream = func(o exp.RunOptions, p exp.Params, r exp.CellRange, sink func(int, json.RawMessage, error)) error {
		return inner.Stream(o, p, r, func(idx int, raw json.RawMessage, err error) {
			sink(idx, raw, err)
			if idx == r.Lo+stop-1 {
				cancel()
			}
		})
	}
	spec.Desc.Grid = &grid
	if _, err := RunWith(spec, exp.RunOptions{Workers: 1, Ctx: ctx}); !errors.Is(err, exp.ErrInterrupted) {
		t.Fatalf("RunWith = %v, want ErrInterrupted", err)
	}
}

// batchedDesc hands d's cells to the committer k at a time, last first,
// and what is left over once d's stream has returned: the finished prefix
// then grows several cells at once, and one flush appends them all. k of
// 0 or 1 leaves d as it is.
func batchedDesc(d exp.Descriptor, k int) exp.Descriptor {
	if k <= 1 {
		return d
	}
	inner := d.Grid
	grid := *inner
	grid.Stream = func(o exp.RunOptions, p exp.Params, r exp.CellRange, sink func(int, json.RawMessage, error)) error {
		type cell struct {
			idx int
			raw json.RawMessage
			err error
		}
		var mu sync.Mutex
		var held []cell
		hand := func(batch []cell) {
			for i := len(batch) - 1; i >= 0; i-- {
				sink(batch[i].idx, batch[i].raw, batch[i].err)
			}
		}
		err := inner.Stream(o, p, r, func(idx int, raw json.RawMessage, err error) {
			mu.Lock()
			held = append(held, cell{idx, raw, err})
			var full []cell
			if len(held) == k {
				full, held = held, nil
			}
			mu.Unlock()
			hand(full)
		})
		hand(held)
		return err
	}
	d.Grid = &grid
	return d
}

// TestRunByteIdentityMatrix: the envelope and the finished checkpoint
// file are the same bytes at any worker count, however many cells a
// flush appends (flush=k: batchedDesc), with or without a checkpoint,
// fresh or resumed from a half-done range.
func TestRunByteIdentityMatrix(t *testing.T) {
	const n = 10
	d := shardtestDesc(t)
	params := func() exp.Params { return &shardtestParams{N: n, Seed: 7} }
	dir := t.TempDir()
	cleanCkpt := filepath.Join(dir, "clean.ckpt")
	clean, err := Run(RunSpec{Desc: d, Params: params(), Shard: ShardParams{Count: 1, Checkpoint: cleanCkpt}})
	if err != nil {
		t.Fatal(err)
	}

	for _, workers := range []int{1, 2, 8} {
		for _, flush := range []int{0, 1, 3, n + 5} {
			for _, mode := range []string{"no-checkpoint", "checkpoint", "resume-from-half"} {
				t.Run(fmt.Sprintf("workers=%d/flush=%d/%s", workers, flush, mode), func(t *testing.T) {
					withWorkers(t, workers)
					sp := ShardParams{Count: 1}
					if mode != "no-checkpoint" {
						sp.Checkpoint = filepath.Join(t.TempDir(), "s.ckpt")
					}
					if mode == "resume-from-half" {
						interruptedRun(t, RunSpec{Desc: d, Params: params(), Shard: sp}, n/2)
						sp.Resume = true
					}
					got, err := Run(RunSpec{Desc: batchedDesc(d, flush), Params: params(), Shard: sp})
					if err != nil {
						t.Fatal(err)
					}
					assertEnvelopesIdentical(t, clean, got)
					if sp.Checkpoint != "" {
						assertFilesIdentical(t, cleanCkpt, sp.Checkpoint)
					}
				})
			}
		}
	}
}

// TestRunResumesParentCommitCheckpoint: testdata holds two checkpoints
// of shardtest {N: 9, Seed: 42} written by the code before the
// pipelined runner (whole-file rewrite per flush): one from a run
// SIGKILLed after its fourth flush, one from a run that finished. The
// crashed one must resume under this code, and the file this code
// leaves must be byte-identical to the finished one.
func TestRunResumesParentCommitCheckpoint(t *testing.T) {
	d := shardtestDesc(t)
	params := &shardtestParams{N: 9, Seed: 42}
	clean, err := Run(RunSpec{Desc: d, Params: params, Shard: ShardParams{Count: 1}})
	if err != nil {
		t.Fatal(err)
	}
	crashed, err := os.ReadFile(filepath.Join("testdata", "parent_crashed.ckpt"))
	if err != nil {
		t.Fatal(err)
	}
	withWorkers(t, 2)
	ckpt := filepath.Join(t.TempDir(), "s.ckpt")
	if err := os.WriteFile(ckpt, crashed, 0o644); err != nil {
		t.Fatal(err)
	}
	var computed atomic.Int64
	counting := d
	counting.Grid = &exp.Grid{
		Cells: d.Grid.Cells,
		Stream: func(o exp.RunOptions, p exp.Params, r exp.CellRange, sink func(int, json.RawMessage, error)) error {
			computed.Add(int64(r.Len()))
			return d.Grid.Stream(o, p, r, sink)
		},
	}
	resumed, err := Run(RunSpec{Desc: counting, Params: params,
		Shard: ShardParams{Count: 1, Checkpoint: ckpt, Resume: true}})
	if err != nil {
		t.Fatal(err)
	}
	if c := computed.Load(); c != 5 {
		t.Errorf("resume recomputed %d cells, want only the 5 the parent's checkpoint lacks", c)
	}
	assertEnvelopesIdentical(t, clean, resumed)
	assertFilesIdentical(t, filepath.Join("testdata", "parent_full.ckpt"), ckpt)
}

func assertFilesIdentical(t *testing.T, wantPath, gotPath string) {
	t.Helper()
	want, err := os.ReadFile(wantPath)
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(gotPath)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(want, got) {
		t.Fatalf("%s differs from %s:\nwant %s\ngot  %s", gotPath, wantPath, want, got)
	}
}

// TestOverlappingRunsDoNotPoisonLaterRuns is internal/exp's test of the
// same name seen from here: run A starts, run B starts, A finishes, B
// finishes. A later shard.Run must compute every cell, on the installed
// worker count.
func TestOverlappingRunsDoNotPoisonLaterRuns(t *testing.T) {
	withWorkers(t, 3)

	// start launches a run that blocks until release is closed and
	// returns once it is in flight.
	start := func(release chan struct{}) (done chan struct{}) {
		started, done := make(chan struct{}), make(chan struct{})
		d := exp.Descriptor{Name: "overlap", Run: func(exp.RunOptions, exp.Params) (exp.Result, error) {
			close(started)
			<-release
			return nil, nil
		}}
		go func() {
			defer close(done)
			exp.RunExperiment(d, &shardtestParams{N: 1}, exp.DefaultRunOptions())
		}()
		<-started
		return done
	}
	releaseA, releaseB := make(chan struct{}), make(chan struct{})
	doneA := start(releaseA)
	doneB := start(releaseB)
	close(releaseA)
	<-doneA
	close(releaseB)
	<-doneB
	exp.SetParallelism(1)

	const n = 6
	var cur, peak atomic.Int32
	d := stubDesc(n, func(i int) (json.RawMessage, error) {
		c := cur.Add(1)
		for p := peak.Load(); c > p && !peak.CompareAndSwap(p, c); p = peak.Load() {
		}
		time.Sleep(200 * time.Microsecond)
		cur.Add(-1)
		return stubCell(i)
	})
	env, err := Run(RunSpec{Desc: d, Params: &shardtestParams{N: n}, Shard: ShardParams{Count: 1}})
	if err != nil {
		t.Fatalf("Run after the overlapping runs = %v", err)
	}
	for i, c := range env.Cells {
		if want, _ := stubCell(i); !bytes.Equal(c, want) {
			t.Errorf("cell %d = %s, want %s", i, c, want)
		}
	}
	if p := peak.Load(); p != 1 {
		t.Errorf("%d cells ran at once with 1 worker installed", p)
	}
}

// raceEnabled is set by race_test.go in a -race build.
var raceEnabled bool

// parentShardAllocsPerCell is what one more cell cost a checkpoint-less
// shard.Run at the parent commit, where every cell was a RunRange of
// its own (a closure, two one-element slices and a pool round-trip for
// the arena beside the marshal), measured as below.
const parentShardAllocsPerCell = 8

// TestWarmShardCellAllocatesOnlyItsPayload is the shard path's twin of
// internal/exp's TestWarmCellAllocatesNothingNew: on a warm arena, what
// a checkpoint-less Run pays for one more cell is the streaming seam's
// marshal of it and nothing else — the committer's slot is an element
// of a slice and of a channel buffer the run allocates once. The
// per-run costs (params hash, context, channel, envelope) cancel in the
// difference between a 16- and a 32-cell run.
func TestWarmShardCellAllocatesOnlyItsPayload(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not deterministic under -race")
	}
	d := shardtestDesc(t)
	run := func(n, workers int) float64 {
		spec := RunSpec{Desc: d, Params: &shardtestParams{N: n, Seed: 7}, Shard: ShardParams{Count: 1}}
		return testing.AllocsPerRun(20, func() {
			if _, err := RunWith(spec, exp.RunOptions{Workers: workers}); err != nil {
				t.Fatal(err)
			}
		})
	}
	marshal := testing.AllocsPerRun(100, func() { json.Marshal(shardtestCell{Index: 3, Value: 1.5}) })
	for _, workers := range []int{1, 2} {
		a16, a32 := run(16, workers), run(32, workers)
		perCell := (a32 - a16) / 16
		t.Logf("workers=%d: %.0f allocs for 16 cells, %.0f for 32: %.2f per cell (marshal %.0f; parent commit %d)",
			workers, a16, a32, perCell, marshal, parentShardAllocsPerCell)
		if perCell > marshal {
			t.Errorf("workers=%d: one more cell costs %.2f allocations, its marshal %.0f", workers, perCell, marshal)
		}
	}
}
