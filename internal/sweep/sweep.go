// Package sweep executes embarrassingly parallel experiment grids. The
// figure experiments are pure functions over parameter cells — every
// simulation owns its scheduler, clock, and seeded random sources — so
// cells can run on a worker pool with no shared state. MapCtx preserves
// cell order in its result slice, which keeps parallel output
// bit-identical to a sequential run: parallelism changes only which OS
// thread computes a cell, never what the cell computes or where its
// result lands.
package sweep

import (
	"sync"
	"sync/atomic"
)

// MapCtx runs fn(c, i) for every i in [0, n) and returns the results
// indexed by cell. At most workers goroutines run concurrently, clamped
// to n; the Go scheduler multiplexes them onto at most GOMAXPROCS
// threads, so effective CPU parallelism is GOMAXPROCS-bounded without an
// explicit clamp here. workers ≤ 1 runs every cell inline on the calling
// goroutine. fn must be safe to call concurrently from multiple
// goroutines for distinct i (pure cells are, by construction).
//
// Each worker acquires one context C and passes it to fn for every cell
// it executes, so cell i+workers reuses cell i's entire working set (a
// simulation arena — scheduler, network, topology, and agents) instead
// of returning it to shared pools and re-fetching. Contexts never cross
// goroutines concurrently, so C needs no locking. release (optional) is
// called once per worker context when the sweep completes, letting
// callers hand contexts back to a pool that outlives the sweep.
//
// Results land in cell order and every cell runs exactly once, so output
// is bit-identical at any worker count — provided fn(c, i) computes the
// same result for any correctly recycled context, which the experiment
// layer's differential tests pin.
//
// Panic safety: a panic while running fn poisons the worker's context —
// its arena may be half-built — so the worker discards it (without
// release) and retries the cell once on a freshly acquired context. A
// cell that also panics on a fresh context is genuinely broken: the
// first such panic value is re-raised on the caller's goroutine after
// the remaining workers drain.
func MapCtx[C, T any](workers, n int, acquire func() C, release func(C), fn func(c C, i int) T) []T {
	if n <= 0 {
		return nil
	}
	if workers > n {
		workers = n
	}
	out := make([]T, n)
	var panicked atomic.Pointer[any]
	runCell := func(c *C, i int) {
		defer func() {
			if r := recover(); r != nil {
				// Poisoned context: fall back to fresh construction and
				// give the cell one clean retry.
				*c = acquire()
				func() {
					defer func() {
						if r2 := recover(); r2 != nil {
							panicked.CompareAndSwap(nil, &r2)
						}
					}()
					out[i] = fn(*c, i)
				}()
			}
		}()
		out[i] = fn(*c, i)
	}
	if workers <= 1 {
		c := acquire()
		for i := 0; i < n; i++ {
			runCell(&c, i)
		}
		if release != nil {
			release(c)
		}
	} else {
		var next atomic.Int64
		var wg sync.WaitGroup
		wg.Add(workers)
		for w := 0; w < workers; w++ {
			go func() {
				defer wg.Done()
				c := acquire()
				for {
					i := int(next.Add(1)) - 1
					if i >= n {
						break
					}
					runCell(&c, i)
				}
				if release != nil {
					release(c)
				}
			}()
		}
		wg.Wait()
	}
	if p := panicked.Load(); p != nil {
		panic(*p)
	}
	return out
}
