package exp

import (
	"context"
	"errors"
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// snapParams/snapResult are a minimal unregistered experiment used to
// observe, from its cells, the options a run is executing under.
type snapParams struct{ Probes int }

func (p *snapParams) Validate() error {
	if p.Probes < 1 {
		return fmt.Errorf("Probes must be at least 1, got %d", p.Probes)
	}
	return nil
}

// snapResult counts the cells that ran: a cell yields 1, and one that
// never started is left at zero.
type snapResult struct{ Ran int }

func (r *snapResult) Table(io.Writer) {}

// snapDescriptor describes an experiment whose cells call probe, and
// its typed run.
func snapDescriptor(probe func(i int)) (Descriptor, func(*snapParams) *snapResult) {
	return describe(Spec[snapParams, int, *snapResult]{
		Name:    "snapshot-test",
		Default: func() snapParams { return snapParams{Probes: 4} },
		Cells:   func(p *snapParams) int { return p.Probes },
		Cell: func(_ *Cell, _ *snapParams, i int) int {
			probe(i)
			return 1
		},
		Reduce: func(_ *snapParams, cells []int) *snapResult {
			res := &snapResult{}
			for _, c := range cells {
				res.Ran += c
			}
			return res
		},
	})
}

// gauge counts the cells that ran and the most that ran at once; every
// cell dwells long enough for the other workers of its run to overlap it.
type gauge struct{ cur, peak, ran atomic.Int32 }

func (g *gauge) cell() {
	g.enter()
	time.Sleep(200 * time.Microsecond)
	g.cur.Add(-1)
}

func (g *gauge) enter() {
	n := g.cur.Add(1)
	for p := g.peak.Load(); n > p && !g.peak.CompareAndSwap(p, n); p = g.peak.Load() {
	}
	g.ran.Add(1)
}

// meet makes the first n cells of a run wait for one another, so a run
// on n workers shows a peak of exactly n; a run on fewer would hang, so
// the wait gives up after a second and the peak assertion reports it.
func meet(n int) func() {
	var arrived atomic.Int32
	all := make(chan struct{})
	return func() {
		if arrived.Add(1) == int32(n) {
			close(all)
		}
		select {
		case <-all:
		case <-time.After(time.Second):
		}
	}
}

// TestRunConfigSnapshot: a run keeps the options it was started with. A
// SetParallelism made from inside one of its cells neither changes how
// many of its cells run at once nor truncates it, and does configure
// the next option-less run.
func TestRunConfigSnapshot(t *testing.T) {
	prev := SetParallelism(3)
	defer SetParallelism(prev)

	const n = 12
	var g gauge
	together := meet(3)
	d, _ := snapDescriptor(func(i int) {
		if i == 0 {
			// Mid-run mutation: it must only affect the NEXT run.
			SetParallelism(7)
		}
		g.enter()
		together()
		g.cur.Add(-1)
	})
	res, err := RunExperiment(d, &snapParams{Probes: n}, DefaultRunOptions())
	if err != nil {
		t.Fatalf("RunExperiment: %v", err)
	}
	if ran := res.(*snapResult).Ran; ran != n {
		t.Errorf("%d of %d cells ran; a mid-run SetParallelism must not truncate the run in flight", ran, n)
	}
	if peak := g.peak.Load(); peak != 3 {
		t.Errorf("%d cells ran at once, want the 3 workers the run started with", peak)
	}

	// After the run the mutation is the default.
	if o := DefaultRunOptions(); o.Workers != 7 {
		t.Errorf("defaults after the run = %+v, want 7 workers", o)
	}
}

// TestRunConfigSnapshotRace hammers SetParallelism from a writer
// goroutine while option-less runs (RunRange) execute, for the race
// detector, and checks that no run is truncated or exceeds the 8
// workers the writer ever installs.
func TestRunConfigSnapshotRace(t *testing.T) {
	prev := SetParallelism(2)
	defer SetParallelism(prev)

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		n := 1
		for {
			select {
			case <-stop:
				return
			default:
			}
			SetParallelism(n%8 + 1)
			n++
		}
	}()

	for run := 0; run < 50; run++ {
		var g gauge
		d, _ := snapDescriptor(func(int) { g.cell() })
		if _, err := d.Grid.RunRange(&snapParams{Probes: 16}, CellRange{0, 16}); err != nil {
			t.Fatal(err)
		}
		if ran := g.ran.Load(); ran != 16 {
			t.Fatalf("run %d: %d of 16 cells ran", run, ran)
		}
		if peak := g.peak.Load(); peak > 8 {
			t.Fatalf("run %d: %d cells at once, more than any installed worker count", run, peak)
		}
	}
	close(stop)
	wg.Wait()
}

// TestOverlappingRunsDoNotPoisonLaterRuns: run A starts, run B starts,
// A finishes, B finishes — two library callers side by side. Nothing of
// those two runs may reach a later one: a fresh typed run and a fresh
// RunRange run every cell, on the installed worker count.
func TestOverlappingRunsDoNotPoisonLaterRuns(t *testing.T) {
	prev := SetParallelism(3)
	defer SetParallelism(prev)

	// start launches a run whose cells block until release is closed and
	// returns once its first cell is in flight.
	start := func(release chan struct{}) (done chan struct{}) {
		started, done := make(chan struct{}), make(chan struct{})
		var once sync.Once
		d, _ := snapDescriptor(func(int) {
			once.Do(func() { close(started) })
			<-release
		})
		go func() {
			defer close(done)
			RunExperiment(d, &snapParams{Probes: 3}, DefaultRunOptions())
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
	SetParallelism(1)

	const n = 6
	var g gauge
	d, typed := snapDescriptor(func(int) { g.cell() })
	typed(&snapParams{Probes: n})
	if _, err := d.Grid.RunRange(&snapParams{Probes: n}, CellRange{0, n}); err != nil {
		t.Fatal(err)
	}
	if ran := g.ran.Load(); ran != 2*n {
		t.Errorf("%d of %d cells ran after the overlapping runs", ran, 2*n)
	}
	if peak := g.peak.Load(); peak != 1 {
		t.Errorf("%d cells ran at once with 1 worker installed", peak)
	}
}

// TestConcurrentRunsKeepTheirOwnOptions: two runs in flight at once on
// different worker counts and contexts. Cancelling one mid-run stops
// that one only, and neither ever has more cells in flight than its own
// Workers.
func TestConcurrentRunsKeepTheirOwnOptions(t *testing.T) {
	const n = 40
	ctxA, cancelA := context.WithCancel(context.Background())
	defer cancelA()
	var gA, gB gauge
	bStarted, aCancelled := make(chan struct{}), make(chan struct{})
	var once sync.Once
	dA, _ := snapDescriptor(func(i int) {
		if i == 4 {
			cancelA()
			close(aCancelled)
		}
		gA.cell()
	})
	dB, _ := snapDescriptor(func(i int) {
		once.Do(func() { close(bStarted) })
		if i == n-1 {
			<-aCancelled // B is still in flight when A is cancelled
		}
		gB.cell()
	})

	var resB Result
	var errB error
	doneB := make(chan struct{})
	go func() {
		defer close(doneB)
		resB, errB = RunExperiment(dB, &snapParams{Probes: n}, RunOptions{Workers: 5, Ctx: context.Background()})
	}()
	<-bStarted
	resA, errA := RunExperiment(dA, &snapParams{Probes: n}, RunOptions{Workers: 2, Ctx: ctxA})
	<-doneB

	if !errors.Is(errA, ErrInterrupted) {
		t.Errorf("cancelled run: err = %v, want ErrInterrupted", errA)
	}
	// Cells 0..4 started before the cancel and the second worker may
	// have had more in flight; the result holds exactly those.
	if ran := resA.(*snapResult).Ran; ran < 5 || ran == n || ran != int(gA.ran.Load()) {
		t.Errorf("cancelled run: result counts %d cells, %d ran; want at least 5, not all %d, and the two equal", ran, gA.ran.Load(), n)
	}
	if errB != nil || resB.(*snapResult).Ran != n {
		t.Errorf("other run: %+v, %v; want all %d cells and no error", resB, errB, n)
	}
	if peak := gA.peak.Load(); peak > 2 {
		t.Errorf("run on 2 workers had %d cells in flight", peak)
	}
	if peak := gB.peak.Load(); peak > 5 {
		t.Errorf("run on 5 workers had %d cells in flight", peak)
	}
}
