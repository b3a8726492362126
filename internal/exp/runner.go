package exp

import (
	"context"
	"sync"
	"sync/atomic"

	"tfrc/internal/sim"
	"tfrc/internal/sweep"
)

// RunOptions is everything a run is told beyond its parameters. The
// zero value runs the cells one after another and is never cancelled.
// A run reads its options once, at its entry point, and hands them
// down, so any number of runs may be in flight at once, each on its own.
type RunOptions struct {
	// Workers is the number of goroutines executing independent cells
	// (below 2: sequential, on the caller's goroutine; never more than
	// there are cells). Each worker holds one live simulation, so
	// memory grows with it; the Go scheduler bounds effective CPU
	// parallelism to GOMAXPROCS. Results are bit-identical at any
	// value: cells are pure and merged in cell order.
	Workers int
	// Ctx, once done, stops the run claiming cells: those in flight
	// finish, the rest never start, and the run reports ErrInterrupted
	// alongside whatever it assembled. nil means never cancelled.
	Ctx context.Context
}

func (o RunOptions) interrupted() bool { return o.Ctx != nil && o.Ctx.Err() != nil }

// defaultWorkers is the process default: the worker count a run started
// through an option-less spelling (experiment.Run, Grid.RunRange,
// shard.Run) is handed. DefaultRunOptions is its only reader.
var defaultWorkers atomic.Int64 // 0 and 1 both mean sequential

// SetParallelism sets the default worker count (clamped to ≥ 1) of runs
// started afterwards through the option-less spellings and returns the
// previous value.
func SetParallelism(n int) int {
	prev := defaultWorkers.Swap(int64(max(1, n)))
	return int(max(1, prev))
}

// DefaultRunOptions returns the process default as it stands now: the
// default worker count, never cancelled.
func DefaultRunOptions() RunOptions { return RunOptions{Workers: int(defaultWorkers.Load())} }

// schedPool recycles schedulers across runs and RunScenario calls; it is
// the only pool of them. A scheduler keeps its package arenas warm across
// Reset, so a worker's cell i+workers rebuilds its working set out of
// cell i's memory: after each worker's first cell, a cell touches the
// allocator only for the result it keeps.
var schedPool = sync.Pool{New: func() any { return sim.NewScheduler() }}

// runCells is the one cell executor: it calls fn(s, i) for every i in
// [0, n) on o.Workers worker schedulers, rewinding s first, so
// every cell runs at most once, starts at time zero with nothing pending,
// and shares an arena with the worker's previous cell. Once o.Ctx is done
// no further cell starts; fn is never called for a cell that did not
// run, so what it stored for the others is a well-formed partial result.
func runCells(o RunOptions, n int, fn func(s *sim.Scheduler, i int)) {
	sweep.MapCtx(o.Workers, n,
		func() *sim.Scheduler { return schedPool.Get().(*sim.Scheduler) },
		func(s *sim.Scheduler) { schedPool.Put(s) },
		func(s *sim.Scheduler, i int) struct{} {
			if !o.interrupted() {
				s.Reset()
				fn(s, i)
			}
			return struct{}{}
		})
}
