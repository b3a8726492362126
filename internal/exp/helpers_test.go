package exp

import (
	"testing"

	"tfrc/internal/netsim"
	"tfrc/internal/sim"
)

// rewound resets sched and returns it: a test that runs a cell function
// itself rewinds the scheduler as the executor does before every cell.
func rewound(sched *sim.Scheduler) *sim.Scheduler {
	sched.Reset()
	return sched
}

// runWith runs the registered experiment name on p under RunOptions
// {Workers: workers} — through RunExperiment, so p is validated first.
func runWith[R Result](t testing.TB, name string, p Params, workers int) R {
	t.Helper()
	d, ok := Lookup(name)
	if !ok {
		t.Fatalf("%s not registered", name)
	}
	res, err := RunExperiment(d, p, RunOptions{Workers: workers})
	if err != nil {
		t.Fatal(err)
	}
	return res.(R)
}

// fig06Cell runs one cell of the Figure 6 grid: flows/2 TCP and flows/2
// TFRC flows, measured over the last tail seconds.
func fig06Cell(t testing.TB, queue netsim.QueueKind, linkMbps float64, flows int, duration, tail float64, seed int64) Fig06Cell {
	t.Helper()
	pr := Fig06Params{
		LinkMbps:    []float64{linkMbps},
		TotalFlows:  []int{flows},
		Queues:      []netsim.QueueKind{queue},
		Duration:    duration,
		MeasureTail: tail,
		Seed:        seed,
	}
	return runWith[*Fig06Result](t, "fig6", &pr, 1).Cells[0]
}
