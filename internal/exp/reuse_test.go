package exp

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"tfrc/internal/netsim"
	"tfrc/internal/sim"
)

// The arena discipline's core promise: a cell computed on a recycled
// worker context is indistinguishable from one computed on freshly
// constructed state. These tests drive a randomized mixed sequence of
// dumbbell (fig-6 style) and parking-lot cells through ONE
// scheduler, rewound before each cell as the executor rewinds it —
// maximizing cross-contamination opportunities between consecutive,
// differently-shaped scenarios — and require every result to match a
// fresh-cell run field for field.

// reuseCellSpec describes one randomized cell of the differential test.
type reuseCellSpec struct {
	parking bool
	queue   netsim.QueueKind
	link    float64
	flows   int
	lots    int
	seed    int64
}

func randomReuseSequence(n int, seed int64) []reuseCellSpec {
	rng := rand.New(rand.NewSource(seed))
	specs := make([]reuseCellSpec, n)
	for i := range specs {
		q := netsim.QueueDropTail
		if rng.Intn(2) == 1 {
			q = netsim.QueueRED
		}
		specs[i] = reuseCellSpec{
			parking: rng.Intn(3) == 0, // every third cell, on average
			queue:   q,
			link:    []float64{2, 4, 8}[rng.Intn(3)],
			flows:   []int{2, 4, 8}[rng.Intn(3)],
			lots:    1 + rng.Intn(2),
			seed:    rng.Int63n(1 << 30),
		}
	}
	return specs
}

// run executes the spec on the given worker scheduler, rewound first.
func (s reuseCellSpec) run(sched *sim.Scheduler) any {
	sched.Reset()
	if s.parking {
		return s.runLot(sched)
	}
	return runFig06Cell(sched, s.queue, s.link, s.flows, 16, 8, s.seed)
}

// runLot is a parking-lot cell of s.lots bottlenecks: a TFRC and a TCP
// through flow, one TCP cross pair per segment, and a monitor on every
// bottleneck. It returns every flow's series at every bottleneck, the
// drop rates and the first bottleneck's utilization.
func (s reuseCellSpec) runLot(sched *sim.Scheduler) []float64 {
	rng := sched.NewRand(s.seed)
	bw := s.link * 1e6
	limit, red := houseQueue(bw, 0.1)
	pl := netsim.NewParkingLot(sched, netsim.ParkingLotConfig{
		Bottlenecks: s.lots, ThroughPairs: 2, CrossPairs: 1,
		BottleneckBW: bw, BottleneckDly: 0.010,
		Queue: s.queue, QueueLimit: limit, RED: red,
	}, sched.NewRand(s.seed+1))
	b := NewScenarioBuilder(pl.Topo)
	mons := make([]*netsim.FlowMonitor, s.lots)
	for i := range mons {
		mons[i] = b.MonitorLink(pl.BottleneckName(i), 0.5, 6)
	}
	b.MonitorUtilization(pl.BottleneckName(0), 6)
	start := func() float64 { return rng.Uniform(0, 5) }
	b.AddTFRC("ts0", "td0", houseTFRC(s.seed), start())
	b.AddTCP("ts1", "td1", houseTCP(s.seed), start())
	for i := range s.lots {
		b.AddTCP(netsim.SubName("cs", i, 0), netsim.SubName("cd", i, 0), houseTCP(s.seed), start())
	}
	res := b.Run(16)
	out := []float64{res.Utilization}
	for _, m := range mons {
		for f := range 2 + s.lots {
			out = append(out, m.Series(f, res.Bins)...)
		}
		out = append(out, m.DropRate())
	}
	b.Release()
	return out
}

// TestReusedCellMatchesFreshCell is the randomized reuse-vs-fresh
// differential: the same mixed cell sequence, once through a single
// recycled scheduler (a worker's reuse) and once with a brand-new
// scheduler per cell (fresh construction), must produce identical
// results.
func TestReusedCellMatchesFreshCell(t *testing.T) {
	specs := randomReuseSequence(14, 71)

	pooled := sim.NewScheduler() // one worker context reused for every cell
	for i, spec := range specs {
		reused := spec.run(pooled)
		fresh := spec.run(sim.NewScheduler())
		if !reflect.DeepEqual(reused, fresh) {
			t.Fatalf("cell %d (%+v): pooled-context result differs from fresh construction:\npooled: %+v\nfresh:  %+v",
				i, spec, reused, fresh)
		}
	}
}

// TestReusedCellPrintedOutputByteIdentical renders a reused-cell grid
// and a fresh-cell grid to text and compares bytes, catching any
// divergence DeepEqual's field comparison could mask (NaN, -0, shared
// aliasing) on the exact surface the figure files are built from.
func TestReusedCellPrintedOutputByteIdentical(t *testing.T) {
	specs := randomReuseSequence(10, 1234)
	render := func(results []any) string {
		out := ""
		for _, r := range results {
			out += fmt.Sprintf("%#v\n", r)
		}
		return out
	}
	pooled := sim.NewScheduler()
	var reused, fresh []any
	for _, spec := range specs {
		reused = append(reused, spec.run(pooled))
	}
	for _, spec := range specs {
		fresh = append(fresh, spec.run(sim.NewScheduler()))
	}
	if a, b := render(reused), render(fresh); a != b {
		t.Fatalf("pooled-context output differs from fresh construction:\n--- pooled\n%s--- fresh\n%s", a, b)
	}
}

// TestRunScenarioResultsOutliveCellReuse pins result privacy: a
// ScenarioResult harvested as RunScenario harvests it must not change
// when its worker scheduler is recycled and a grid cell harvests in
// place over the queue monitor's and the builder's storage; nor must
// what a run of any registered experiment returns. Each experiment runs
// its contract grid, at one seed, on one scheduler grown first by a
// larger Figure 6 cell, so that its cells harvest into kept storage, and
// is rendered; the larger cell then rewrites that storage, and the
// result must render to the same bytes.
func TestRunScenarioResultsOutliveCellReuse(t *testing.T) {
	sched := sim.NewScheduler()
	sc := Scenario{
		NTCP: 2, NTFRC: 2,
		BottleneckBW: 4e6,
		Queue:        netsim.QueueRED,
		Duration:     12,
		Warmup:       4,
		Seed:         9,
	}
	b := buildScenario(sched, sc)
	first := b.Run(sc.Duration)
	b.Release()
	snapshot := fmt.Sprintf("%#v %v %v %v", *first, first.TCPSeries, first.TFRCSeries, first.Queue)

	// Overwrite the arena with a differently shaped, shorter scenario, so
	// the queue monitor refills the same samples backing.
	sc2 := sc
	sc2.NTCP, sc2.NTFRC, sc2.Seed, sc2.Duration = 4, 4, 10, 10
	_ = runScenarioCell(rewound(sched), sc2)

	if got := fmt.Sprintf("%#v %v %v %v", *first, first.TCPSeries, first.TFRCSeries, first.Queue); got != snapshot {
		t.Fatalf("harvested result mutated by cell reuse:\nbefore: %s\nafter:  %s", snapshot, got)
	}

	for _, d := range Experiments() {
		t.Run(d.Name, func(t *testing.T) {
			sched := sim.NewScheduler()
			overwrite := func() { runFig06Cell(rewound(sched), netsim.QueueRED, 4, 16, 30, 30, 3) }
			p := d.Params()
			if err := json.Unmarshal([]byte(contractOverlays[d.Name]), p); err != nil {
				t.Fatalf("overlay: %v", err)
			}
			for _, reps := range []string{"Seeds", "Runs"} {
				if f := reflect.ValueOf(p).Elem().FieldByName(reps); f.CanInt() {
					f.SetInt(1)
				}
			}
			overwrite()
			var kept Result
			onlyScheduler(sched, func() {
				var err error
				if kept, err = RunExperiment(d, p, RunOptions{Workers: 1}); err != nil {
					t.Fatal(err)
				}
			})
			before := rendered(t, kept)
			overwrite()
			if after := rendered(t, kept); !bytes.Equal(before, after) {
				t.Fatalf("later cells on the same scheduler rewrote the result:\nbefore: %.300s\nafter:  %.300s", before, after)
			}
		})
	}
}

// onlyScheduler runs fn with every run's cells on sched: the scheduler
// pool is emptied and then hands out sched alone until fn returns.
func onlyScheduler(sched *sim.Scheduler, fn func()) {
	mk := schedPool.New
	defer func() { schedPool.New = mk }()
	schedPool.New = func() any { return sched }
	for schedPool.Get() != sched {
	}
	fn()
}

// TestKeptSeriesSurviveCellReuse pins the clones of the grid cells that
// keep what runScenarioCell harvests in place: Figure 8's traces, Figure
// 14's queue trace and Figure 15's traces. They run on one scheduler,
// grown first by a larger Figure 6 cell so that all of them harvest into
// the same kept storage, and are marshalled; a second such Figure 6 cell
// then rewrites that storage, and the kept results must marshal to the
// same bytes.
func TestKeptSeriesSurviveCellReuse(t *testing.T) {
	sched := sim.NewScheduler()
	// 16 flows × 60 bins and 601 queue samples: more than any cell below.
	overwrite := func() { runFig06Cell(rewound(sched), netsim.QueueRED, 4, 16, 30, 30, 3) }
	overwrite()
	p14 := Fig14Params{Flows: 8, Stagger: 2, Duration: 10, LinkMbps: 4, Queue: 50, MiceLoad: 0.2}
	kept := []any{
		runFig08Seed(rewound(sched), netsim.QueueRED, 8, 1),
		runFig14Side(rewound(sched), &p14, false, 1),
		runFig15Seed(rewound(sched), 20, 1),
	}
	before, err := json.Marshal(kept)
	if err != nil {
		t.Fatal(err)
	}
	overwrite()
	after, err := json.Marshal(kept)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(before, after) {
		t.Fatalf("a later cell on the same scheduler rewrote kept results:\nbefore: %.300s\nafter:  %.300s", before, after)
	}
}
