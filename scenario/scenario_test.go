package scenario_test

import (
	"math"
	"testing"

	"tfrc/scenario"
)

// buildAndRun composes a two-bottleneck topology with mixed flows on
// the public package and returns the harvested numbers.
func buildAndRun(t *testing.T) (tfrcKB, tcpKB, drop float64) {
	t.Helper()
	sched := scenario.NewScheduler()
	topo := scenario.NewTopology(sched, scenario.NewRand(7))
	bott := scenario.LinkSpec{
		Bandwidth: 3e6, Delay: 0.01,
		Queue: scenario.QueueRED, QueueLimit: 40, RED: scenario.DefaultRED(40),
	}
	access := scenario.LinkSpec{
		Bandwidth: 30e6, Delay: 0.001,
		Queue: scenario.QueueDropTail, QueueLimit: 1000,
	}
	topo.Link("r0", "r1", bott)
	topo.Link("r1", "r2", bott)
	topo.Link("src", "r0", access)
	topo.Link("dst", "r2", access)
	topo.Link("xs", "r1", access)
	topo.Link("xd", "r2", access)

	b := scenario.NewBuilder(topo)
	mon := b.MonitorLink("r0->r1", 0.5, 10)
	rng := sched.NewRand(1)
	tfrcFlow := b.AddTFRC("src", "dst", scenario.DefaultTFRCConfig(), rng.Uniform(0, 2))
	tcpFlow := b.AddTCP("src", "dst", scenario.TCPConfig{Variant: scenario.TCPSack}, rng.Uniform(0, 2))
	b.AddOnOff("xs", "xd", scenario.DefaultOnOff(), sched.NewRand(2), 0.5)
	b.Run(40)

	tfrcKB = mon.TotalBytes(tfrcFlow) / 1000
	tcpKB = mon.TotalBytes(tcpFlow) / 1000
	drop = mon.DropRate()
	b.Release()
	return tfrcKB, tcpKB, drop
}

// TestBuilderComposesAndHarvests: a scenario composed purely on the
// public surface runs and moves plausible traffic.
func TestBuilderComposesAndHarvests(t *testing.T) {
	tfrcKB, tcpKB, drop := buildAndRun(t)
	if tfrcKB <= 0 || tcpKB <= 0 {
		t.Fatalf("flows moved no bytes: tfrc=%v tcp=%v", tfrcKB, tcpKB)
	}
	if drop <= 0 || drop > 0.5 {
		t.Fatalf("implausible drop rate %v", drop)
	}
}

// TestReleaseReuseDeterministic: Release must return the working set to
// the pools without poisoning determinism — an identical scenario
// rebuilt afterwards (likely on recycled memory) harvests identical
// numbers.
func TestReleaseReuseDeterministic(t *testing.T) {
	a1, b1, d1 := buildAndRun(t)
	a2, b2, d2 := buildAndRun(t)
	if a1 != a2 || b1 != b2 || d1 != d2 {
		t.Fatalf("reuse changed results: (%v %v %v) vs (%v %v %v)", a1, b1, d1, a2, b2, d2)
	}
}

// TestSpecRunMatchesSeries: the dumbbell preset validates its spec and
// produces a self-consistent result.
func TestSpecRunMatchesSeries(t *testing.T) {
	res, err := scenario.Run(scenario.Spec{
		NTCP: 2, NTFRC: 2,
		BottleneckBW: 2e6,
		TCPVariant:   scenario.TCPSack,
		Duration:     30,
		Warmup:       10,
		BinWidth:     0.5,
		Seed:         1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.TCPSeries) != 2 || len(res.TFRCSeries) != 2 {
		t.Fatalf("series counts: tcp=%d tfrc=%d", len(res.TCPSeries), len(res.TFRCSeries))
	}
	if res.FairShare <= 0 {
		t.Fatal("fair share not derived")
	}
	sum := res.NormalizedMeanTCP() + res.NormalizedMeanTFRC()
	if math.IsNaN(sum) || sum <= 0.5 || sum > 3 {
		t.Fatalf("implausible normalized throughput sum %v", sum)
	}

	if _, err := scenario.Run(scenario.Spec{NTCP: 1}); err == nil {
		t.Fatal("Run accepted a spec with no bandwidth and no duration")
	}

	// RED thresholds the queue would refuse are an error, not a panic;
	// a 10-packet RED buffer with defaulted thresholds runs.
	red := scenario.Spec{NTCP: 1, NTFRC: 1, BottleneckBW: 1e6, Duration: 10, Queue: scenario.QueueRED}
	red.REDMin, red.REDMax = 40, 10
	if _, err := scenario.Run(red); err == nil {
		t.Fatal("Run accepted REDMin > REDMax")
	}
	red.REDMin, red.REDMax, red.QueueLimit = 0, 0, 10
	if _, err := scenario.Run(red); err != nil {
		t.Fatalf("10-packet RED buffer: %v", err)
	}
}

// TestScheduledLinkChange: a bandwidth step scheduled on the public
// surface must actually throttle the measured flow.
func TestScheduledLinkChange(t *testing.T) {
	run := func(step bool) float64 {
		sched := scenario.NewScheduler()
		topo := scenario.NewTopology(sched, nil)
		topo.Link("a", "b", scenario.LinkSpec{
			Bandwidth: 4e6, Delay: 0.02,
			Queue: scenario.QueueDropTail, QueueLimit: 50,
		})
		if step {
			sched.At(10, func() { topo.LinkByName("a->b").SetBandwidth(4e5) })
		}
		b := scenario.NewBuilder(topo)
		mon := b.MonitorLink("a->b", 0.5, 0)
		f := b.AddTFRC("a", "b", scenario.DefaultTFRCConfig(), 0)
		b.Run(30)
		bytes := mon.TotalBytes(f)
		b.Release()
		return bytes
	}
	full, stepped := run(false), run(true)
	if stepped >= full*0.7 {
		t.Fatalf("bandwidth step had no effect: full=%v stepped=%v", full, stepped)
	}
}
