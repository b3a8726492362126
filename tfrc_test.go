package tfrc_test

import (
	"testing"
	"time"

	"tfrc"
	"tfrc/scenario"
)

func TestFacadeThroughput(t *testing.T) {
	// The equation is decreasing in p.
	hi := tfrc.Throughput(1000, 0.1, 0.4, 0.001)
	lo := tfrc.Throughput(1000, 0.1, 0.4, 0.1)
	if hi <= lo {
		t.Fatalf("equation not decreasing: %v vs %v", hi, lo)
	}
}

func TestFacadeWirePath(t *testing.T) {
	// The wire endpoints over a simulated Dummynet-style path, composed
	// from the public packages only.
	sched := scenario.NewScheduler()
	topo := scenario.NewTopology(sched, nil)
	topo.Link("src", "dst", scenario.LinkSpec{Bandwidth: 4e6, Delay: 0.005, QueueLimit: 60})
	topo.Build()
	send, recv := tfrc.NewSimWirePair(topo, "src", "dst", 1, nil, tfrc.WireConfig{PacketSize: 400})
	sched.At(0, send.Run)
	sched.RunUntil(5)
	var s tfrc.WireSenderStats = send.Stats()
	var r tfrc.WireReceiverStats = recv.Stats()
	if s.Sent < 1000 || s.Feedbacks == 0 || r.Received < s.Sent*9/10 {
		t.Fatalf("wire quickstart too quiet: %+v %+v", s, r)
	}
	if s.SRTT < 10*time.Millisecond || send.Rate() != s.Rate {
		t.Fatalf("sender snapshot: %+v, Rate() %v", s, send.Rate())
	}
}
