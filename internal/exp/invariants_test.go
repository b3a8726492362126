package exp

import (
	"testing"

	"tfrc/internal/netsim"
	"tfrc/internal/sim"
	"tfrc/internal/stats"
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
	var tfrcSenders []*tfrcsim.Sender
	for i := 2; i < 4; i++ {
		s, _ := tfrcsim.Pair(d.Net, d.Left[i], d.Right[i], 1, 2, i, tfrcsim.DefaultConfig())
		s.Start(0.1 * float64(i))
		tfrcSenders = append(tfrcSenders, s)
	}
	sched.RunUntil(30)
	for _, s := range tfrcSenders {
		s.Stop()
	}
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
	if a, b := RunFig19(DefaultFig20()), RunFig19(DefaultFig20()); a.HalvedAfterRTTs != b.HalvedAfterRTTs {
		t.Fatalf("fig20 not deterministic: %d vs %d", a.HalvedAfterRTTs, b.HalvedAfterRTTs)
	}
	c1 := RunFig06Cell(netsim.QueueRED, 4, 4, 30, 15, 9)
	c2 := RunFig06Cell(netsim.QueueRED, 4, 4, 30, 15, 9)
	if c1.NormTCP != c2.NormTCP || c1.DropRate != c2.DropRate {
		t.Fatalf("fig6 cell not deterministic: %+v vs %+v", c1, c2)
	}
	r1 := RunFig15(Fig15Params{Duration: 40, Seed: 3})
	r2 := RunFig15(Fig15Params{Duration: 40, Seed: 3})
	if r1.MeanTCP != r2.MeanTCP || r1.MeanTFRC != r2.MeanTFRC {
		t.Fatal("fig15 not deterministic")
	}
}

// TestSeedChangesOutcome guards against accidentally ignoring the seed.
func TestSeedChangesOutcome(t *testing.T) {
	a := RunFig06Cell(netsim.QueueRED, 4, 4, 30, 15, 1)
	b := RunFig06Cell(netsim.QueueRED, 4, 4, 30, 15, 2)
	if a.NormTCP == b.NormTCP && a.DropRate == b.DropRate {
		t.Fatal("different seeds produced identical results")
	}
}

// TestScenarioECNVariant runs a mixed scenario with ECN-enabled TFRC to
// exercise the §7 extension inside the full harness.
func TestScenarioECNVariant(t *testing.T) {
	cfg := tfrcsim.DefaultConfig()
	cfg.ECN = true
	sc := Scenario{
		NTCP: 2, NTFRC: 2,
		BottleneckBW: 4e6,
		Queue:        netsim.QueueRED,
		TCPVariant:   tcp.Sack,
		TFRC:         cfg,
		Duration:     40, Warmup: 10,
		Seed: 1,
	}
	// RED in the dumbbell builder does not enable marking by default;
	// the flows remain correct (ECT without marking is a no-op).
	r := RunScenario(sc)
	if r.Utilization < 0.9 {
		t.Fatalf("utilization %v", r.Utilization)
	}
	for i, s := range r.TFRCSeries {
		if stats.Mean(s) == 0 {
			t.Fatalf("ECN TFRC flow %d starved", i)
		}
	}
}
