package exp

import (
	"context"
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// snapParams/snapResult are a minimal unregistered experiment used to
// observe the run configuration from inside a run.
type snapParams struct{ Probes int }

func (p *snapParams) Validate() error {
	if p.Probes < 1 {
		return fmt.Errorf("Probes must be at least 1, got %d", p.Probes)
	}
	return nil
}

// snapCell is what one cell observed of the run configuration.
type snapCell struct {
	Workers     int
	Interrupted bool
}

type snapResult struct {
	Workers     []int
	Interrupted []bool
}

func (r *snapResult) Table(io.Writer) {}

// snapDescriptor describes an experiment whose cells report the
// Parallelism and Interrupted values they observe; probe gates each
// cell so the test can mutate the globals mid-run.
func snapDescriptor(probe func(i int)) Descriptor {
	d, _ := describe(Spec[snapParams, snapCell, *snapResult]{
		Name:    "snapshot-test",
		Default: func() snapParams { return snapParams{Probes: 4} },
		Cells:   func(p *snapParams) int { return p.Probes },
		Cell: func(_ *Cell, _ *snapParams, i int) snapCell {
			probe(i)
			return snapCell{Parallelism(), Interrupted()}
		},
		Reduce: func(_ *snapParams, cells []snapCell) *snapResult {
			res := &snapResult{}
			for _, c := range cells {
				res.Workers = append(res.Workers, c.Workers)
				res.Interrupted = append(res.Interrupted, c.Interrupted)
			}
			return res
		},
	})
	return d
}

// TestRunConfigSnapshot verifies that RunExperiment freezes the
// process-global parallelism and context at run start: mutating either
// mid-run must not change what the running experiment observes.
func TestRunConfigSnapshot(t *testing.T) {
	prev := SetParallelism(3)
	defer SetParallelism(prev)
	defer SetContext(nil)

	cancelled, cancel := context.WithCancel(context.Background())
	cancel()

	d := snapDescriptor(func(i int) {
		if i == 2 {
			// Mid-run mutation: both must only affect the NEXT run.
			SetParallelism(7)
			SetContext(cancelled)
		}
	})
	res, err := RunExperiment(d, &snapParams{Probes: 4})
	if err != nil {
		t.Fatalf("RunExperiment: %v", err)
	}
	sr := res.(*snapResult)
	for i, w := range sr.Workers {
		if w != 3 {
			t.Errorf("probe %d saw Parallelism()=%d, want the snapshot value 3", i, w)
		}
	}
	for i, intr := range sr.Interrupted {
		if intr {
			t.Errorf("probe %d saw Interrupted()=true; mid-run SetContext must not cancel the active run", i)
		}
	}

	// After the run the mutations take effect.
	if got := Parallelism(); got != 7 {
		t.Errorf("after run Parallelism()=%d, want 7", got)
	}
	if !Interrupted() {
		t.Error("after run Interrupted()=false, want true (cancelled context installed)")
	}
}

// TestRunConfigSnapshotRace hammers SetParallelism/SetContext from a
// writer goroutine while an experiment runs, for the race detector, and
// checks every cell of one run observes a single worker count.
func TestRunConfigSnapshotRace(t *testing.T) {
	prev := SetParallelism(2)
	defer SetParallelism(prev)
	defer SetContext(nil)

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
			SetContext(context.Background())
			n++
		}
	}()

	for run := 0; run < 50; run++ {
		d := snapDescriptor(func(int) {})
		res, err := RunExperiment(d, &snapParams{Probes: 8})
		if err != nil {
			t.Fatalf("RunExperiment: %v", err)
		}
		sr := res.(*snapResult)
		for i, w := range sr.Workers {
			if w != sr.Workers[0] {
				t.Fatalf("run %d: probe %d saw Parallelism()=%d, probe 0 saw %d; one run split across two worker counts",
					run, i, w, sr.Workers[0])
			}
		}
	}
	close(stop)
	wg.Wait()
}

// gauge counts the cells that ran and the most that ran at once; every
// cell dwells long enough for the other workers of its run to overlap it.
type gauge struct{ cur, peak, ran atomic.Int32 }

func (g *gauge) cell() {
	n := g.cur.Add(1)
	for p := g.peak.Load(); n > p && !g.peak.CompareAndSwap(p, n); p = g.peak.Load() {
	}
	g.ran.Add(1)
	time.Sleep(200 * time.Microsecond)
	g.cur.Add(-1)
}

// TestOverlappingRunsDoNotPoisonLaterRuns: run A starts, run B starts,
// A finishes, B finishes — two library callers side by side — under a
// context that is cancelled while both are in flight and uninstalled
// afterwards. Nothing of those two runs may reach a later one: a fresh
// typed run and a fresh RunRange see no interrupt and run on the
// installed worker count.
func TestOverlappingRunsDoNotPoisonLaterRuns(t *testing.T) {
	prev := SetParallelism(3)
	defer SetParallelism(prev)
	defer SetContext(nil)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	SetContext(ctx)

	// start launches a run whose cells block until release is closed and
	// returns once its first cell is in flight.
	start := func(release chan struct{}) (done chan struct{}) {
		started, done := make(chan struct{}), make(chan struct{})
		var once sync.Once
		d := snapDescriptor(func(int) {
			once.Do(func() { close(started) })
			<-release
		})
		go func() {
			defer close(done)
			RunExperiment(d, &snapParams{Probes: 3})
		}()
		<-started
		return done
	}
	releaseA, releaseB := make(chan struct{}), make(chan struct{})
	doneA := start(releaseA)
	doneB := start(releaseB)
	cancel()
	close(releaseA)
	<-doneA
	close(releaseB)
	<-doneB
	SetContext(nil)
	SetParallelism(1)

	if Interrupted() {
		t.Error("Interrupted() = true with no context installed")
	}
	if got := Parallelism(); got != 1 {
		t.Errorf("Parallelism() = %d with 1 installed", got)
	}
	const n = 6
	var g gauge
	d, typed := describe(Spec[snapParams, snapCell, *snapResult]{
		Name:    "overlap-test",
		Default: func() snapParams { return snapParams{Probes: n} },
		Cells:   func(p *snapParams) int { return p.Probes },
		Cell:    func(*Cell, *snapParams, int) snapCell { g.cell(); return snapCell{} },
		Reduce:  func(*snapParams, []snapCell) *snapResult { return &snapResult{} },
	})
	typed(&snapParams{Probes: n})
	if _, err := d.Grid.RunRange(&snapParams{Probes: n}, CellRange{0, n}); err != nil {
		t.Fatal(err)
	}
	if ran := g.ran.Load(); ran != 2*n {
		t.Errorf("%d of %d cells ran after the overlapping runs: the later runs saw their interrupt", ran, 2*n)
	}
	if peak := g.peak.Load(); peak != 1 {
		t.Errorf("%d cells ran at once with 1 worker installed", peak)
	}
}
