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

// Cell is a worker-pinned simulation arena: a pinned scheduler plus the
// package arenas riding on it (network, topology, monitors, TCP/TFRC/
// traffic agents, scenario builders). A sweep worker passes the same
// Cell to every cell it executes, so cell i+workers rebuilds its entire
// working set out of cell i's memory — after each worker's first cell, a
// scenario run touches the allocator only to harvest its result.
type Cell struct {
	sched   *sim.Scheduler
	scratch []float64 // per-cell float scratch (access-delay draws)
}

func newCell() *Cell {
	s := sim.NewScheduler()
	s.Pin()
	return &Cell{sched: s}
}

// cellPool recycles Cells across sweeps and across the standalone
// entry points (RunScenario et al.), so even non-sweep callers reuse a
// warm arena.
var cellPool = sync.Pool{New: func() any { return newCell() }}

func getCell() *Cell { return cellPool.Get().(*Cell) }

// putCell deliberately pools the cell warm — keeping its scheduler,
// arenas, and slabs live is the whole point (a cold cell costs the PR-4
// setup allocations again); begin() rewinds everything on next Get.
func putCell(c *Cell) {
	cellPool.Put(c) //tfrclint:allow releasecheck warm reuse by design; begin() rewinds on next Get
}

// begin rewinds the cell's arena for a fresh scenario and returns its
// scheduler. Everything drawn from the previous scenario on this cell is
// reclaimed — results harvested earlier stay valid because harvests copy
// into private storage.
func (c *Cell) begin() *sim.Scheduler {
	c.sched.Reset()
	return c.sched
}

// floats returns an n-element scratch slice owned by the cell, valid
// until the next call.
func (c *Cell) floats(n int) []float64 {
	if cap(c.scratch) < n {
		c.scratch = make([]float64, n)
	}
	return c.scratch[:n]
}

// runCells is the one cell executor: it calls fn(c, i) for every i in
// [0, n) on o.Workers worker-pinned Cells, so every cell runs at most
// once and consecutive cells on one worker share an arena. Once o.Ctx is
// done no further cell starts; fn is never called for a cell that did
// not run, so what it stored for the others is a well-formed partial
// result.
func runCells(o RunOptions, n int, fn func(c *Cell, i int)) {
	sweep.MapCtx(o.Workers, n, getCell, putCell, func(c *Cell, i int) struct{} {
		if !o.interrupted() {
			fn(c, i)
		}
		return struct{}{}
	})
}
