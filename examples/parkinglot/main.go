// Parkinglot: the declarative topology layer beyond the paper's
// dumbbell — a hand-built 3-bottleneck parking lot where one TFRC and
// one TCP flow cross every bottleneck while per-segment TCP cross
// traffic loads each hop, plus a scheduled bandwidth step on the middle
// bottleneck halfway through. Built entirely on the public scenario
// and experiment packages — no internal imports.
//
//	go run ./examples/parkinglot
package main

import (
	"fmt"

	"tfrc/experiment"
	"tfrc/scenario"
)

func main() {
	const (
		bw       = 4e6
		duration = 60.0
		warmup   = 20.0
	)
	// Declare the topology: 4 routers in a row, a through pair on each
	// end, one cross pair per segment.
	topo := scenario.NewTopology(scenario.NewScheduler(), scenario.NewRand(2))
	bottleneck := scenario.LinkSpec{
		Bandwidth: bw, Delay: 0.010,
		Queue: scenario.QueueRED, QueueLimit: 50,
		RED: scenario.DefaultRED(50),
	}
	access := scenario.LinkSpec{
		Bandwidth: 10 * bw, Delay: 0.001,
		Queue: scenario.QueueDropTail, QueueLimit: 1000,
	}
	for s := 0; s < 3; s++ {
		topo.Link(fmt.Sprintf("r%d", s), fmt.Sprintf("r%d", s+1), bottleneck)
	}
	topo.Link("src", "r0", access)
	topo.Link("dst", "r3", access)
	for s := 0; s < 3; s++ {
		topo.Link(fmt.Sprintf("xs%d", s), fmt.Sprintf("r%d", s), access)
		topo.Link(fmt.Sprintf("xd%d", s), fmt.Sprintf("r%d", s+1), access)
	}
	// The middle bottleneck loses half its capacity for 20 seconds.
	squeeze := experiment.FaultSchedule{Faults: []experiment.Fault{
		{At: 25, Link: "r1->r2", Kind: "bandwidth", Bandwidth: bw / 2},
		{At: 45, Link: "r1->r2", Kind: "bandwidth", Bandwidth: bw},
	}}
	squeeze.Apply(topo)

	// Compose the scenario: flows on named host pairs, monitors on the
	// named bottlenecks, one harvest at the end.
	rng := scenario.NewRand(1)
	b := scenario.NewBuilder(topo)
	mon0 := b.MonitorLink("r0->r1", 0.5, warmup)
	mon1 := b.MonitorLink("r1->r2", 0.5, warmup)
	tfrcFlow := b.AddTFRC("src", "dst", scenario.DefaultTFRCConfig(), rng.Uniform(0, 2))
	tcpFlow := b.AddTCP("src", "dst", scenario.TCPConfig{Variant: scenario.TCPSack}, rng.Uniform(0, 2))
	for s := 0; s < 3; s++ {
		b.AddTCP(fmt.Sprintf("xs%d", s), fmt.Sprintf("xd%d", s),
			scenario.TCPConfig{Variant: scenario.TCPSack}, rng.Uniform(0, 2))
	}
	res := b.Run(duration)

	fmt.Println("3-bottleneck parking lot, middle hop squeezed to 50% in [25s, 45s)")
	fmt.Println()
	kbps := func(m *scenario.FlowMonitor, flow int) float64 {
		return m.TotalBytes(flow) / (duration - warmup) / 1000
	}
	fmt.Printf("through TFRC: %6.1f KB/s   (crosses all 3 bottlenecks)\n", kbps(mon0, tfrcFlow))
	fmt.Printf("through TCP:  %6.1f KB/s\n", kbps(mon0, tcpFlow))
	fmt.Printf("drop rates:   hop0 %.4f, hop1 %.4f\n", mon0.DropRate(), mon1.DropRate())
	fmt.Printf("bins (%.1fs): %d per flow at the first bottleneck\n", res.BinWidth, res.Bins)
	fmt.Println()
	fmt.Println("(the through flows compete at every hop, so they get less than the")
	fmt.Println(" per-hop fair share — and TFRC degrades the same way TCP does)")
}
