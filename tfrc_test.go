package tfrc_test

import (
	"math"
	"testing"
	"time"

	"tfrc"
	"tfrc/scenario"
)

func TestFacadeThroughput(t *testing.T) {
	// The equation is decreasing in p and matches its simple form at
	// low loss.
	hi := tfrc.Throughput(1000, 0.1, 0.4, 0.001)
	lo := tfrc.Throughput(1000, 0.1, 0.4, 0.1)
	if hi <= lo {
		t.Fatalf("equation not decreasing: %v vs %v", hi, lo)
	}
	simple := tfrc.SimpleThroughput(1000, 0.1, 0.0001)
	full := tfrc.Throughput(1000, 0.1, 0.4, 0.0001)
	if r := full / simple; r < 0.9 || r > 1.0 {
		t.Fatalf("full/simple at low p = %v", r)
	}
	p := tfrc.InverseLossRate(tfrc.Throughput, 1000, 0.1, 0.4, hi)
	if math.Abs(p-0.001)/0.001 > 1e-5 {
		t.Fatalf("inverse gave %v, want 0.001", p)
	}
}

func TestFacadeStateMachines(t *testing.T) {
	s := tfrc.NewSender(tfrc.DefaultSenderConfig())
	s.OnFeedback(tfrc.Feedback{P: 0.01, XRecv: 1e9, RTTSample: 0.1})
	if s.Rate() <= 0 {
		t.Fatal("sender rate not positive")
	}
	r := tfrc.NewReceiver(tfrc.ReceiverConfig{PacketSize: 1000})
	for i := int64(0); i < 10; i++ {
		r.OnData(float64(i)*0.01, tfrc.DataPacket{Seq: i, Size: 1000, SenderRTT: 0.05})
	}
	rep, ok := r.MakeReport(0.1)
	if !ok || rep.EchoSeq != 9 {
		t.Fatalf("report: ok=%v %+v", ok, rep)
	}
	h := tfrc.NewLossHistory(tfrc.DefaultLossHistory())
	h.OnLossEvent(100)
	if p := h.LossEventRate(); math.Abs(p-0.01) > 1e-12 {
		t.Fatalf("p = %v", p)
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
