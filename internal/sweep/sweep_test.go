package sweep

import (
	"sync/atomic"
	"testing"
)

// testCtx is a minimal worker context: it counts the cells it has run so
// tests can observe reuse, and carries a poison marker for panic tests.
type testCtx struct {
	cells    int
	poisoned bool
}

func TestMapCtxPreservesOrderAndReusesContexts(t *testing.T) {
	for _, workers := range []int{1, 2, 4, 64} {
		var acquired atomic.Int32
		acquire := func() *testCtx { acquired.Add(1); return &testCtx{} }
		got := MapCtx(workers, 100, acquire, nil, func(c *testCtx, i int) int {
			c.cells++
			return i * i
		})
		for i, v := range got {
			if v != i*i {
				t.Fatalf("workers=%d: cell %d = %d, want %d", workers, i, v, i*i)
			}
		}
		want := int32(workers)
		if workers > 100 {
			want = 100
		}
		if acquired.Load() != want {
			t.Fatalf("workers=%d: %d contexts acquired, want %d (one per worker)",
				workers, acquired.Load(), want)
		}
	}
}

func TestMapCtxRunsEveryCellExactlyOnce(t *testing.T) {
	const n = 1000
	var counts [n]atomic.Int32
	MapCtx(8, n, func() *testCtx { return &testCtx{} }, nil,
		func(c *testCtx, i int) struct{} {
			counts[i].Add(1)
			return struct{}{}
		})
	for i := range counts {
		if c := counts[i].Load(); c != 1 {
			t.Fatalf("cell %d ran %d times", i, c)
		}
	}
}

func TestMapCtxEmptyAndSingle(t *testing.T) {
	acquire := func() *testCtx { return &testCtx{} }
	if got := MapCtx(4, 0, acquire, nil, func(*testCtx, int) int { return 1 }); got != nil {
		t.Fatalf("n=0 returned %v, want nil", got)
	}
	if got := MapCtx(4, 1, acquire, nil, func(*testCtx, int) int { return 7 }); len(got) != 1 || got[0] != 7 {
		t.Fatalf("n=1 returned %v", got)
	}
}

func TestMapCtxSequentialFallback(t *testing.T) {
	// workers ≤ 1 must run inline: cells may then share state freely.
	acquire := func() *testCtx { return &testCtx{} }
	shared := 0
	MapCtx(1, 50, acquire, nil, func(*testCtx, int) int { shared++; return shared })
	if shared != 50 {
		t.Fatalf("inline run touched shared state %d times, want 50", shared)
	}
	MapCtx(0, 50, acquire, nil, func(*testCtx, int) int { shared++; return shared })
	if shared != 100 {
		t.Fatalf("workers=0 not inline: %d", shared)
	}
}

func TestMapCtxReleasesEveryWorkerContext(t *testing.T) {
	var acquired, released atomic.Int32
	MapCtx(4, 32,
		func() *testCtx { acquired.Add(1); return &testCtx{} },
		func(*testCtx) { released.Add(1) },
		func(c *testCtx, i int) int { return i })
	if acquired.Load() != released.Load() {
		t.Fatalf("%d contexts acquired but %d released", acquired.Load(), released.Load())
	}
}

// TestMapCtxPoisonedContextFallsBackToFresh pins the panic-safety
// contract: a cell that panics on a recycled (poisoned) context is
// retried exactly once on a freshly constructed one, and the poisoned
// context is never released back to the caller.
func TestMapCtxPoisonedContextFallsBackToFresh(t *testing.T) {
	for _, workers := range []int{1, 4} {
		var released atomic.Int32
		got := MapCtx(workers, 64,
			func() *testCtx { return &testCtx{} },
			func(c *testCtx) {
				if c.poisoned {
					t.Error("poisoned context released back to the pool")
				}
				released.Add(1)
			},
			func(c *testCtx, i int) int {
				// Cell 17 rejects any reused context: it poisons it and
				// panics, succeeding only on a fresh one.
				if i == 17 && c.cells > 0 {
					c.poisoned = true
					panic("arena corrupted")
				}
				c.cells++
				return i * i
			})
		for i, v := range got {
			if v != i*i {
				t.Fatalf("workers=%d: cell %d = %d after fallback, want %d", workers, i, v, i*i)
			}
		}
		if released.Load() == 0 {
			t.Fatalf("workers=%d: no contexts released", workers)
		}
	}
}

// TestMapCtxBrokenCellPropagatesPanic pins the other half of the panic
// contract: a cell that panics even on a fresh context re-raises on the
// caller's goroutine.
func TestMapCtxBrokenCellPropagatesPanic(t *testing.T) {
	defer func() {
		if r := recover(); r != "broken cell" {
			t.Fatalf("recovered %v, want the cell's panic value", r)
		}
	}()
	MapCtx(4, 16,
		func() *testCtx { return &testCtx{} }, nil,
		func(c *testCtx, i int) int {
			if i == 5 {
				panic("broken cell")
			}
			return i
		})
	t.Fatal("MapCtx returned instead of panicking")
}

// BenchmarkMapCtxOverhead measures the per-cell scheduling cost of the
// worker-pinned runner on trivial cells — the floor the experiment grids
// pay on top of their simulations.
func BenchmarkMapCtxOverhead(b *testing.B) {
	acquire := func() *testCtx { return &testCtx{} }
	for i := 0; i < b.N; i++ {
		MapCtx(8, 1024, acquire, nil, func(c *testCtx, i int) int { return i })
	}
	b.ReportMetric(float64(b.N)*1024/b.Elapsed().Seconds(), "cells/sec")
}
