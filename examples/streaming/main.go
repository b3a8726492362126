// Streaming: the paper's motivating application — unicast streaming
// media that adapts its encoding tier to a smoothly changing TCP-fair
// rate instead of suffering TCP's rate halvings.
//
// A synthetic "encoder" offers four quality tiers. The real wire
// endpoints stream over a simulated path whose available bandwidth drops
// sharply mid-run (a competing flow arrives) and then recovers — two
// bandwidth faults on the link, in virtual time, so the run is
// deterministic and instant. Watch the tier track the TFRC rate without the
// oscillation a TCP-driven player would see.
//
//	go run ./examples/streaming
package main

import (
	"fmt"
	"strings"

	"tfrc"
	"tfrc/experiment"
	"tfrc/scenario"
)

// tiers are encoder ladder rungs in bytes/sec (≈ 0.4-2.4 Mb/s video).
var tiers = []float64{50e3, 100e3, 200e3, 300e3}

// encoder fills packets with the current tier index so the receiver can
// reassemble "frames" of the right quality.
type encoder struct{ tier byte }

func (e *encoder) Fill(b []byte) int {
	for i := range b {
		b[i] = e.tier
	}
	return len(b)
}

func pickTier(rate float64) int {
	// Leave 20% headroom below the congestion-controlled rate.
	best := 0
	for i, t := range tiers {
		if t <= rate*0.8 {
			best = i
		}
	}
	return best
}

func main() {
	sched := scenario.NewScheduler()
	topo := scenario.NewTopology(sched, nil)
	topo.Link("server", "player", scenario.LinkSpec{Bandwidth: 3e6, Delay: 0.025, QueueLimit: 60})
	topo.Build()
	// Mid-run congestion: at t=4s the path loses most of its capacity
	// (as if competing flows arrived), recovering at t=8s; a little
	// corruption loss throughout.
	path := experiment.FaultSchedule{Seed: 42, Faults: []experiment.Fault{
		{At: 4, Link: "server->player", Kind: "bandwidth", Bandwidth: 600e3},
		{At: 8, Link: "server->player", Kind: "bandwidth", Bandwidth: 3e6},
		{At: 0, Link: "server->player", Kind: "impair", Corrupt: 0.002},
	}}
	path.Apply(topo)

	enc := &encoder{}
	send, recv := tfrc.NewSimWirePair(topo, "server", "player", 1, enc, tfrc.WireConfig{PacketSize: 1000})
	var frames [4]int
	recv.OnData = func(seq uint32, payload []byte) {
		if len(payload) > 0 && int(payload[0]) < len(tiers) {
			frames[payload[0]]++
		}
	}
	sched.At(0, send.Run)

	fmt.Println("time   tfrc-rate   tier   (encoder follows the smooth rate)")
	for i := 1; i <= 24; i++ {
		sched.RunUntil(0.5 * float64(i))
		rate := send.Rate()
		tier := pickTier(rate)
		enc.tier = byte(tier)
		fmt.Printf("%4.1fs  %7.1f kB/s  T%d %s\n",
			0.5*float64(i), rate/1000, tier, strings.Repeat("█", tier+1))
		switch i {
		case 8:
			fmt.Println("--- congestion begins: capacity cut to 600 kb/s ---")
		case 16:
			fmt.Println("--- congestion clears ---")
		}
	}
	send.Stop()
	recv.Stop()

	fmt.Println("\nframes delivered per tier:")
	for i := range tiers {
		fmt.Printf("  T%d (%.0f kB/s): %d packets\n", i, tiers[i]/1000, frames[i])
	}
}
