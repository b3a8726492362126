package exp

import (
	"strings"
	"testing"

	"tfrc/internal/netsim"
	"tfrc/internal/sim"
	"tfrc/internal/tcp"
	"tfrc/internal/tfrcsim"
	"tfrc/internal/traffic"
)

// TestScenarioBuilderArbitraryPairs places flows on hand-picked host
// pairs of a custom topology — the composition the monolithic
// RunScenario could not express.
func TestScenarioBuilderArbitraryPairs(t *testing.T) {
	topo := netsim.NewTopology(sim.NewScheduler(), nil)
	spec := netsim.LinkSpec{Bandwidth: 4e6, Delay: 0.010,
		Queue: netsim.QueueDropTail, QueueLimit: 50}
	access := netsim.LinkSpec{Bandwidth: 40e6, Delay: 0.001,
		Queue: netsim.QueueDropTail, QueueLimit: 1000}
	topo.Link("r1", "r2", spec)
	for _, h := range []string{"a", "b"} {
		topo.Link(h, "r1", access)
	}
	for _, h := range []string{"x", "y"} {
		topo.Link(h, "r2", access)
	}

	b := NewScenarioBuilder(topo)
	b.MonitorLink("r1->r2", 0.5, 5)
	b.MonitorUtilization("r1->r2", 5)
	// Two flows share host a; a third runs b→y. All cross the bottleneck.
	b.AddTFRC("a", "x", tfrcsim.DefaultConfig(), 0)
	b.AddTCP("a", "y", tcp.Config{Variant: tcp.Sack}, 0.5)
	b.AddTCP("b", "y", tcp.Config{Variant: tcp.Sack}, 1)
	res := b.Run(30)

	if len(res.TCPSeries) != 2 || len(res.TFRCSeries) != 1 {
		t.Fatalf("series: %d TCP, %d TFRC", len(res.TCPSeries), len(res.TFRCSeries))
	}
	if res.Utilization < 0.8 {
		t.Fatalf("utilization %v < 0.8", res.Utilization)
	}
	for i, s := range append(append([][]float64{}, res.TCPSeries...), res.TFRCSeries...) {
		var sum float64
		for _, v := range s {
			sum += v
		}
		if sum == 0 {
			t.Fatalf("flow %d starved", i)
		}
	}
	if res.FairShare != 4e6/8/3 {
		t.Fatalf("fair share = %v", res.FairShare)
	}
}

// TestMonitorUtilizationNeedsThePrimaryMonitor: utilization is read off
// the primary monitor's bytes, so asking for any other link or start is
// a bug the builder reports at once.
func TestMonitorUtilizationNeedsThePrimaryMonitor(t *testing.T) {
	topo := netsim.NewTopology(sim.NewScheduler(), nil)
	spec := netsim.LinkSpec{Bandwidth: 4e6, Delay: 0.010, Queue: netsim.QueueDropTail, QueueLimit: 50}
	topo.Link("r1", "r2", spec)
	topo.Link("r2", "r3", spec)
	b := NewScenarioBuilder(topo)
	mustPanic := func(what string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: no panic", what)
			}
		}()
		f()
	}
	mustPanic("no primary monitor", func() { b.MonitorUtilization("r1->r2", 5) })
	b.MonitorLink("r1->r2", 0.5, 5)
	mustPanic("another link", func() { b.MonitorUtilization("r2->r3", 5) })
	mustPanic("another start", func() { b.MonitorUtilization("r1->r2", 0) })
	b.MonitorUtilization("r1->r2", 5)
}

// TestBWStepExperiment runs the bandwidth-step transient and checks that
// both protocols track the capacity change: high utilization before,
// near the reduced capacity during the squeeze, and recovery after.
func TestBWStepExperiment(t *testing.T) {
	pr := DefaultFaultPhase()
	stepAt, restoreAt := 20.0, 40.0
	pr.Faults = halveBottleneck(8e6, stepAt, restoreAt)
	pr.Duration = 60
	r := runWith[*FaultPhaseResult](t, "faultphase", &pr, 1)
	if len(r.Phases) != 3 {
		t.Fatalf("got %d phases", len(r.Phases))
	}
	for _, p := range r.Phases {
		total := p.TFRCFrac + p.TCPFrac
		if total < 0.6 || total > 1.15 {
			t.Fatalf("phase %s: aggregate fraction %v outside [0.6, 1.15]", p.Name, total)
		}
		if p.TFRCFrac <= 0.05 {
			t.Fatalf("phase %s: TFRC starved (%v)", p.Name, p.TFRCFrac)
		}
	}
	// The squeezed phase halves capacity: aggregate throughput in
	// bytes must drop accordingly between the before and squeezed bins.
	var beforeSum, squeezedSum float64
	for i := range r.TFRCTotal {
		ts := float64(i) * houseBin
		tot := r.TFRCTotal[i] + r.TCPTotal[i]
		switch {
		case ts >= 5 && ts < stepAt:
			beforeSum += tot
		case ts >= stepAt+5 && ts < restoreAt:
			squeezedSum += tot
		}
	}
	perBinBefore := beforeSum / ((stepAt - 5) / houseBin)
	perBinSqueezed := squeezedSum / ((restoreAt - stepAt - 5) / houseBin)
	if perBinSqueezed > 0.8*perBinBefore {
		t.Fatalf("throughput did not drop under the squeeze: %v vs %v",
			perBinSqueezed, perBinBefore)
	}
}

// TestBWStepShortRun pins the phase-window clamping: a run ending just
// after the restore leaves the "after" phase empty rather than panicking
// on an inverted slice.
func TestBWStepShortRun(t *testing.T) {
	pr := DefaultFaultPhase()
	pr.Faults = halveBottleneck(8e6, 10, 20)
	pr.Duration = 22
	r := runWith[*FaultPhaseResult](t, "faultphase", &pr, 1)
	if len(r.Phases) != 3 {
		t.Fatalf("got %d phases", len(r.Phases))
	}
	if after := r.Phases[2]; after.TFRCFrac != 0 || after.TCPFrac != 0 {
		t.Fatalf("empty after-phase should report zero fractions: %+v", after)
	}
}

// TestFig08FI14Fig15MultiSeed exercises the multi-seed CI mode the
// sweep-runner adoption added to figures 8, 14, and 15.
func TestFig08Fig14Fig15MultiSeed(t *testing.T) {
	f8 := Fig08GridParams{Queues: []netsim.QueueKind{netsim.QueueRED}, Flows: 8, Seed: 1, Seeds: 3}
	var a, b *Fig08Result
	a = runWith[*Fig08GridResult](t, "fig8", &f8, 4).Results[0]
	b = runWith[*Fig08GridResult](t, "fig8", &f8, 1).Results[0]
	if a.Seeds != 3 || a.CoVTCPCI <= 0 || a.CoVTFRCCI <= 0 {
		t.Fatalf("fig08 multi-seed CIs not populated: %+v", a)
	}
	if a.CoVTCP != b.CoVTCP || a.CoVTCPCI != b.CoVTCPCI {
		t.Fatalf("fig08 multi-seed depends on parallelism")
	}

	f14 := DefaultFig14()
	f14.Flows, f14.Duration, f14.Stagger = 8, 10, 5
	f14.Seeds = 2
	var c, d *Fig14Result
	c = runWith[*Fig14Result](t, "fig14", &f14, 4)
	d = runWith[*Fig14Result](t, "fig14", &f14, 1)
	if c.TCP.Seeds != 2 || c.TFRC.Seeds != 2 {
		t.Fatalf("fig14 sides not aggregated: %+v", c)
	}
	if c.TCP.Utilization != d.TCP.Utilization || c.TFRC.DropRate != d.TFRC.DropRate {
		t.Fatalf("fig14 multi-seed depends on parallelism")
	}

	var e, f *Fig15Result
	f15 := Fig15Params{Duration: 40, Seed: 1, Seeds: 2}
	e = runWith[*Fig15Result](t, "fig15", &f15, 4)
	f = runWith[*Fig15Result](t, "fig15", &f15, 1)
	if e.Seeds != 2 || e.MeanTCPCI < 0 {
		t.Fatalf("fig15 multi-seed not populated: %+v", e)
	}
	if e.MeanTCP != f.MeanTCP || e.MeanTFRC != f.MeanTFRC {
		t.Fatalf("fig15 multi-seed depends on parallelism")
	}
	// Single-seed results are unchanged by the refactor: Seeds stays 0.
	f15.Seeds = 0
	if g := runWith[*Fig15Result](t, "fig15", &f15, 1); g.Seeds != 0 {
		t.Fatalf("fig15 single-seed gained Seeds=%d", g.Seeds)
	}
}

// TestBuilderPortsAreDense builds a fig14-shaped scenario with ON/OFF
// and mice background on its last host pair, adds a second mice
// generator and then a TCP flow on that same pair, and runs it: twice,
// on one scheduler, so the second build lands on node slots whose
// tables a previous tenant grew. A collision would panic in Attach
// (TestMiceRefuseABoundPort); besides, no binding made while building
// may be gone after the run, and the destination host
// must end with every sink bound: its ON/OFF sinks, both generators'
// MiceSlots sinks and the TCP sink. Every node's delivery table must end
// within the ports the builder issued on it, and the TCP flow, issued
// last, ends both of the pair's tables.
func TestBuilderPortsAreDense(t *testing.T) {
	sched := sim.NewScheduler()
	for round := range 2 {
		sc := Scenario{
			NTCP: 4, NTFRC: 4,
			BottleneckBW: 15e6, BottleneckDly: 0.010,
			Queue: netsim.QueueDropTail, QueueLimit: 250,
			TCPVariant:   tcp.Sack,
			OnOffSources: 2,
			MiceLoad:     0.2,
			Duration:     10,
			BinWidth:     0.15,
			Seed:         int64(round + 1),
		}
		b := buildScenario(rewound(sched), sc)
		src, dst := netsim.IndexedName("l", 8), netsim.IndexedName("r", 8)
		b.AddMice(src, dst, traffic.MiceConfig{MeanInterarrival: 0.05, MeanSize: 20, Variant: tcp.Sack}, sched.NewRand(9), 0)
		b.AddTCP(src, dst, houseTCP(sc.Seed), 1)
		nodes := b.nw.Nodes()
		built := make([][]uintptr, len(nodes))
		for i, n := range nodes {
			built[i] = portTable(n)
		}
		b.Run(sc.Duration)

		for i, n := range nodes {
			tab := portTable(n)
			for port, a := range built[i] {
				if a != 0 && (port >= len(tab) || tab[port] != a) {
					t.Errorf("round %d: node %d lost the binding of port %d during the run", round, n.ID, port)
				}
			}
			if issued := b.ports[n.ID]; len(tab) > issued+1 {
				t.Errorf("round %d: node %d has a table of %d entries for %d ports issued", round, n.ID, len(tab), issued)
			}
		}
		for _, host := range []string{src, dst} {
			n := b.topo.Lookup(host)
			if tab := portTable(n); len(tab) != b.ports[n.ID]+1 {
				t.Errorf("round %d: %s has a table of %d entries, want %d", round, host, len(tab), b.ports[n.ID]+1)
			}
		}
		sinks := 0
		for _, a := range portTable(b.topo.Lookup(dst)) {
			if a != 0 {
				sinks++
			}
		}
		if want := sc.OnOffSources + 2*traffic.MiceSlots + 1; sinks != want {
			t.Errorf("round %d: %s ends with %d sinks bound, want %d", round, dst, sinks, want)
		}
		b.Release()
	}
}

// TestMiceRefuseABoundPort places a TCP flow on l0→r0, which takes port
// 1 on both hosts, and then a mice generator whose BasePort is 1 on the
// same hosts: its first session must panic binding a port the TCP flow
// owns, not unbind the flow's agents.
func TestMiceRefuseABoundPort(t *testing.T) {
	sched := sim.NewScheduler()
	b := NewScenarioBuilder(houseDumbbell(sched, 1, 2e6, 0.02, netsim.QueueDropTail, 7).Topo)
	b.AddTCP("l0", "r0", houseTCP(7), 0)
	b.AddMice("l0", "r0", traffic.MiceConfig{MeanInterarrival: 0.2, MeanSize: 20, Variant: tcp.Sack, BasePort: 1}, sched.NewRand(7), 0)
	got := func() (r any) {
		defer func() { r = recover() }()
		b.runInPlace(5)
		return nil
	}()
	if msg, _ := got.(string); !strings.Contains(msg, "already bound") {
		t.Fatalf("overlapping mice ports: got %v, want an \"already bound\" panic", got)
	}
}
