// Ccfair: the congestion-control zoo head to head — TFRC, a
// delay-based Vegas flow, and a Relentless flow (which repairs losses
// for one packet each instead of halving) all cross a 2-bottleneck
// parking lot at once. Built entirely on the public scenario package —
// no internal imports.
//
//	go run ./examples/ccfair
package main

import (
	"fmt"

	"tfrc/scenario"
)

func main() {
	const (
		bw       = 6e6
		duration = 90.0
		warmup   = 30.0
	)
	// The 2-bottleneck parking lot preset: routers r0-r1-r2, one through
	// host pair (ts{i} -> td{i}) per contender crossing both bottlenecks.
	contenders := []string{"tfrc", "vegas", "relentless"}
	pl := scenario.NewParkingLot(scenario.NewScheduler(), scenario.ParkingLotConfig{
		Bottlenecks:  2,
		ThroughPairs: len(contenders),
		BottleneckBW: bw, BottleneckDly: 0.015,
		Queue: scenario.QueueDropTail, QueueLimit: 60,
	}, nil)

	// Compose the scenario: one flow per contender, started together.
	rng := scenario.NewRand(1)
	b := scenario.NewBuilder(pl.Topo)
	mon := b.MonitorLink("r0->r1", 0.5, warmup)
	b.MonitorQueue("r0->r1", 0.05, duration)
	flows := make([]int, len(contenders))
	for i, proto := range contenders {
		src, dst := scenario.IndexedName("ts", i), scenario.IndexedName("td", i)
		start := rng.Uniform(0, 2)
		if proto == "tfrc" {
			flows[i] = b.AddTFRC(src, dst, scenario.DefaultTFRCConfig(), start)
			continue
		}
		// Each controller runs at its one fixed tuning; AddCC ignores
		// the CCConfig.
		flows[i] = b.AddCC(scenario.CCName(proto), scenario.CCConfig{},
			src, dst, scenario.TCPConfig{}, start)
	}
	res := b.Run(duration)

	fmt.Println("ccfair: TFRC vs Vegas vs Relentless, 2-bottleneck parking lot, DropTail")
	fmt.Println()
	var total float64
	rates := make([]float64, len(contenders))
	for i, f := range flows {
		rates[i] = mon.TotalBytes(f) / (duration - warmup) / 1000
		total += rates[i]
	}
	for i, proto := range contenders {
		fmt.Printf("%-11s %7.1f KB/s  (%4.1f%% of delivered bytes)\n",
			proto, rates[i], 100*rates[i]/total)
	}
	fmt.Printf("\ndrop rate %.4f, mean queue %.1f packets\n", mon.DropRate(), res.QueueMean)
	fmt.Println()
	fmt.Println("(Relentless never halves, so it keeps the queue full and the loss")
	fmt.Println(" rate up; TFRC absorbs that as a high steady loss-event rate, and")
	fmt.Println(" Vegas — which backs off as soon as the queue adds delay — starves.)")
}
