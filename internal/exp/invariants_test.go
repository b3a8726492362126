package exp

import (
	"testing"

	"tfrc/internal/netsim"
	"tfrc/internal/sim"
	"tfrc/internal/tcp"
	"tfrc/internal/tfrcsim"
)

// TestScenarioConservation checks packet conservation end to end: after
// a scenario finishes and the network drains, no packets are leaked from
// the pool, and bottleneck arrivals equal departures plus drops.
func TestScenarioConservation(t *testing.T) {
	sched := sim.NewScheduler()
	d := netsim.NewDumbbell(sched, netsim.DumbbellConfig{
		Hosts:         4,
		BottleneckBW:  4e6,
		BottleneckDly: 0.02,
		QueueLimit:    25,
	}, sim.NewRand(1))
	mon := netsim.NewFlowMonitor(1, 0)
	d.Forward.AddTap(mon.Tap())
	for i := 0; i < 2; i++ {
		tcp.NewSink(d.Net, d.Right[i], 1, i, 40)
		s := tcp.NewSender(d.Net, d.Left[i], d.Right[i].ID, 1, 2, i, tcp.Config{Variant: tcp.Sack})
		s.Start(0.1 * float64(i))
	}
	for i := 2; i < 4; i++ {
		s, _ := tfrcsim.Pair(d.Net, d.Left[i], d.Right[i], 1, 2, i, tfrcsim.DefaultConfig())
		s.Start(0.1 * float64(i))
	}
	sched.RunUntil(30)
	arr, dep, drops := mon.Stats()
	queued := d.ForwardQ.Len()
	if inService := arr - dep - drops - queued; inService < 0 || inService > 1 {
		// At the horizon exactly 0 or 1 packet may be mid-serialization.
		t.Fatalf("conservation violated: %d arrivals, %d departures, %d drops, %d queued",
			arr, dep, drops, queued)
	}
	if arr == 0 {
		t.Fatal("nothing flowed")
	}
}

// TestExperimentsDeterministic re-runs a representative sample of the
// figure experiments and requires bit-identical headline numbers.
func TestExperimentsDeterministic(t *testing.T) {
	f20 := DefaultFig20()
	if a, b := runWith[*Fig19Result](t, "fig20", &f20, 1), runWith[*Fig19Result](t, "fig20", &f20, 1); a.HalvedAfterRTTs != b.HalvedAfterRTTs {
		t.Fatalf("fig20 not deterministic: %d vs %d", a.HalvedAfterRTTs, b.HalvedAfterRTTs)
	}
	c1 := fig06Cell(t, netsim.QueueRED, 4, 4, 30, 15, 9)
	c2 := fig06Cell(t, netsim.QueueRED, 4, 4, 30, 15, 9)
	if c1.NormTCP != c2.NormTCP || c1.DropRate != c2.DropRate {
		t.Fatalf("fig6 cell not deterministic: %+v vs %+v", c1, c2)
	}
	f15 := Fig15Params{Duration: 40, Seed: 3}
	r1 := runWith[*Fig15Result](t, "fig15", &f15, 1)
	r2 := runWith[*Fig15Result](t, "fig15", &f15, 1)
	if r1.MeanTCP != r2.MeanTCP || r1.MeanTFRC != r2.MeanTFRC {
		t.Fatal("fig15 not deterministic")
	}
}

// TestSeedChangesOutcome guards against accidentally ignoring the seed.
func TestSeedChangesOutcome(t *testing.T) {
	a := fig06Cell(t, netsim.QueueRED, 4, 4, 30, 15, 1)
	b := fig06Cell(t, netsim.QueueRED, 4, 4, 30, 15, 2)
	if a.NormTCP == b.NormTCP && a.DropRate == b.DropRate {
		t.Fatal("different seeds produced identical results")
	}
}
