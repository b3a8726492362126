// Quickstart: a TFRC sender and receiver — the real wire endpoints, codec
// and timers included — streaming over a simulated 2 Mb/s path in virtual
// time, printing the sender's TCP-fair rate as it converges beside the
// paper's Equation (1) evaluated at the receiver's loss event rate and the
// sender's smoothed RTT. The run is deterministic and takes no wall-clock
// time.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"math"
	"time"

	"tfrc"
	"tfrc/experiment"
	"tfrc/scenario"
)

func main() {
	// A Dummynet-style pipe: 2 Mb/s, 20 ms one-way delay, 60-packet
	// queue, 0.5% random loss on the data direction.
	sched := scenario.NewScheduler()
	topo := scenario.NewTopology(sched, nil)
	topo.Link("src", "dst", scenario.LinkSpec{Bandwidth: 2e6, Delay: 0.020, QueueLimit: 60})
	topo.Build()
	loss := experiment.FaultSchedule{Seed: 1, Faults: []experiment.Fault{
		{At: 0, Link: "src->dst", Kind: "impair", Corrupt: 0.005},
	}}
	loss.Apply(topo)

	send, recv := tfrc.NewSimWirePair(topo, "src", "dst", 1, nil, tfrc.WireConfig{PacketSize: 1000})
	sched.At(0, send.Run)

	// Where the equation binds, the sender's rate is Eq. 1 with RTO = 4R;
	// while the cap of twice the receive rate binds, the rate sits below
	// it. Before the first loss p is 0, and the equation allows any rate.
	fmt.Println("time    rate         eq. 1        rtt       p        sent/received")
	for i := 1; i <= 10; i++ {
		sched.RunUntil(0.5 * float64(i))
		s, r := send.Stats(), recv.Stats()
		eq := "      -     "
		if x := tfrc.Throughput(1000, s.SRTT.Seconds(), 4*s.SRTT.Seconds(), r.P); !math.IsInf(x, 1) {
			eq = fmt.Sprintf("%7.1f kB/s", x/1000)
		}
		fmt.Printf("%4.1fs  %7.1f kB/s  %s  %6.1f ms  %.5f  %d/%d\n",
			0.5*float64(i), s.Rate/1000, eq, float64(s.SRTT)/float64(time.Millisecond), r.P, s.Sent, r.Received)
	}
	send.Stop()
	recv.Stop()

	s, r := send.Stats(), recv.Stats()
	fmt.Printf("\ndone: %d data packets sent, %d delivered (%.1f%%), %d feedback reports (%d processed)\n",
		s.Sent, r.Received, 100*float64(r.Received)/float64(s.Sent), r.Reports, s.Feedbacks)
}
