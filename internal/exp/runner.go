package exp

import (
	"context"
	"sync"
	"sync/atomic"

	"tfrc/internal/sim"
	"tfrc/internal/sweep"
)

// runCtx is the process-wide cancellation context consulted between
// sweep cells. nil (the default) means never cancelled.
var runCtx atomic.Pointer[context.Context]

// SetContext installs a cancellation context for experiment runs: once
// ctx is done, remaining sweep cells are skipped (their results stay
// zero values), in-flight cells finish, and RunExperiment reports
// ErrInterrupted alongside whatever partial result the experiment
// assembled. Process-wide, like SetParallelism; passing nil restores the
// default never-cancelled behavior.
//
// Because the setting is process-global, RunExperiment snapshots it (and
// the parallelism) at run start: a SetContext call made while an
// experiment is running configures the next run, never the one in
// flight. Concurrent RunExperiment calls still share one configuration —
// callers needing different settings per run must serialize.
func SetContext(ctx context.Context) {
	if ctx == nil {
		runCtx.Store(nil)
		return
	}
	runCtx.Store(&ctx)
}

// Interrupted reports whether the governing run context is cancelled:
// the one snapshotted by the active RunExperiment when inside a run, the
// currently installed one otherwise.
func Interrupted() bool {
	p := runCtx.Load()
	if s := activeSnap.Load(); s != nil {
		p = s.ctx
	}
	return p != nil && (*p).Err() != nil
}

// runSnap freezes the process-global run configuration — worker count
// and cancellation context — for the duration of one RunExperiment
// call, so a mid-sweep SetParallelism or SetContext cannot split a
// single sweep across two configurations (which would break the
// bit-identical-at-any-parallelism contract mid-merge and let a late
// SetContext silently truncate a running sweep).
type runSnap struct {
	workers int
	ctx     *context.Context
}

// activeSnap is the configuration snapshot of the innermost running
// RunExperiment, nil outside of one.
var activeSnap atomic.Pointer[runSnap]

// beginRun installs a snapshot of the current configuration and returns
// the previous snapshot for endRun to restore (experiments can nest:
// fig21's cells call RunFig19).
func beginRun() *runSnap {
	s := &runSnap{workers: int(parallelism.Load()), ctx: runCtx.Load()}
	return activeSnap.Swap(s)
}

// endRun restores the snapshot that beginRun displaced.
func endRun(prev *runSnap) { activeSnap.Store(prev) }

// parallelism is the worker count every experiment's cells run on
// (atomic so runs may be launched from any goroutine). The default of 1
// keeps library callers fully sequential; cmd/tfrcsim raises it via
// SetParallelism from its -parallel flag.
var parallelism atomic.Int64

func init() { parallelism.Store(1) }

// SetParallelism sets the number of worker goroutines used to execute
// independent sweep cells (clamped to ≥ 1 and to the cell count) and
// returns the previous value. Each worker holds one live simulation, so
// memory grows with the setting; the Go scheduler bounds effective CPU
// parallelism to GOMAXPROCS. Results are bit-identical at any setting:
// cells are pure and merged in deterministic cell order.
//
// Like SetContext, this is process-global and snapshotted by
// RunExperiment at run start: a mid-sweep call configures the next run,
// not the one in flight.
func SetParallelism(n int) int {
	if n < 1 {
		n = 1
	}
	return int(parallelism.Swap(int64(n)))
}

// Parallelism returns the governing sweep worker count: the one
// snapshotted by the active RunExperiment when inside a run, the
// currently installed one otherwise.
func Parallelism() int {
	if s := activeSnap.Load(); s != nil {
		return s.workers
	}
	return int(parallelism.Load())
}

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

// runCellsCtx executes n independent experiment cells on the configured
// worker pool with worker-pinned Cells, returning results in cell order:
// every cell runs exactly once and consecutive cells on one worker share
// an arena. Cells reached after the run context is cancelled are skipped
// and yield zero values, so an interrupted sweep still returns a
// well-formed partial slice.
func runCellsCtx[T any](n int, fn func(c *Cell, i int) T) []T {
	return sweep.MapCtx(Parallelism(), n, getCell, putCell, func(c *Cell, i int) T {
		if Interrupted() {
			var zero T
			return zero
		}
		return fn(c, i)
	})
}
