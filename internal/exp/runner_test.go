package exp

import (
	"bytes"
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	"tfrc/internal/netsim"
	"tfrc/internal/sim"
)

// goroutineID reads the calling goroutine's number off its stack header,
// "goroutine N [running]:". A sweep worker is a goroutine, so this names
// the worker a cell runs on.
func goroutineID() uint64 {
	var buf [64]byte
	b := bytes.TrimPrefix(buf[:runtime.Stack(buf[:], false)], []byte("goroutine "))
	var id uint64
	for _, c := range b {
		if c < '0' || c > '9' {
			break
		}
		id = id*10 + uint64(c-'0')
	}
	return id
}

// dirtyCell leaves sched as a careless cell would: the clock advanced to
// 3 s, one event fired, and two still pending, one of them fatal should
// it ever fire.
func dirtyCell(sched *sim.Scheduler, stale func()) {
	sched.At(1, func() {})
	sched.At(5, stale)
	sched.At(7, func() {})
	sched.RunUntil(3)
}

// TestExecutorRewindsEveryCell runs a Spec whose cells leave their
// scheduler dirty — the clock advanced, events pending — at 1, 2 and 8
// workers. Every cell must start on a rewound scheduler, at time zero
// with nothing pending, and each worker must hand all of its cells the
// one scheduler it holds, no other worker's.
func TestExecutorRewindsEveryCell(t *testing.T) {
	const cells = 24
	for _, workers := range []int{1, 2, 8} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			var (
				mu       sync.Mutex
				byWorker = map[uint64]*sim.Scheduler{}
				owner    = map[*sim.Scheduler]uint64{}
				errs     []string
			)
			fail := func(format string, args ...any) {
				mu.Lock()
				errs = append(errs, fmt.Sprintf(format, args...))
				mu.Unlock()
			}
			d := describe(Spec[snapParams, int, *snapResult]{
				Name:    "rewind-test",
				Default: func() snapParams { return snapParams{Probes: cells} },
				Cells:   func(p *snapParams) int { return p.Probes },
				Cell: func(sched *sim.Scheduler, _ *snapParams, i int) int {
					if now := sched.Now(); now != 0 {
						fail("cell %d starts at t = %v, want 0", i, now)
					}
					if sched.Step() {
						fail("cell %d starts with an event pending", i)
					}
					g := goroutineID()
					mu.Lock()
					if s, ok := byWorker[g]; ok && s != sched {
						errs = append(errs, fmt.Sprintf("cell %d: its worker was handed %p before, now %p", i, s, sched))
					}
					if w, ok := owner[sched]; ok && w != g {
						errs = append(errs, fmt.Sprintf("cell %d: scheduler %p was another worker's", i, sched))
					}
					byWorker[g], owner[sched] = sched, g
					mu.Unlock()
					dirtyCell(sched, func() { fail("a pending event of a cell before %d fired in it", i) })
					time.Sleep(100 * time.Microsecond) // long enough for the workers to overlap
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
			res, err := d.Run(RunOptions{Workers: workers}, d.Params())
			if err != nil {
				t.Fatal(err)
			}
			for _, e := range errs {
				t.Error(e)
			}
			if ran := res.(*snapResult).Ran; ran != cells {
				t.Fatalf("%d cells ran, want %d", ran, cells)
			}
			if len(byWorker) > workers {
				t.Errorf("cells ran on %d goroutines, more than the %d workers", len(byWorker), workers)
			}
		})
	}
}

// TestRunScenarioRewindsItsScheduler is the same check on the standalone
// path: RunScenario, whose pool hands it a dirty scheduler, must rewind
// it, so nothing left pending fires and the result equals a run on a
// clean scheduler.
func TestRunScenarioRewindsItsScheduler(t *testing.T) {
	sc := Scenario{
		NTCP: 1, NTFRC: 1,
		BottleneckBW: 2e6,
		Queue:        netsim.QueueDropTail,
		Duration:     6,
		Warmup:       2,
		Seed:         5,
	}
	var clean *ScenarioResult
	onlyScheduler(sim.NewScheduler(), func() { clean = RunScenario(sc) })

	sched := sim.NewScheduler()
	fired := false
	dirtyCell(sched, func() { fired = true })
	var got *ScenarioResult
	onlyScheduler(sched, func() { got = RunScenario(sc) })
	if fired {
		t.Error("an event pending before RunScenario fired in its scenario")
	}
	if a, b := fmt.Sprintf("%+v", *clean), fmt.Sprintf("%+v", *got); a != b {
		t.Errorf("RunScenario on a dirty scheduler:\n%s\nwant, as on a clean one:\n%s", b, a)
	}
}
