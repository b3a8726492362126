package netsim

import (
	"fmt"
	"testing"

	"tfrc/internal/sim"
)

func sendOne(nw *Network, from, to *Node, port, size int) {
	p := nw.NewPacket()
	p.Kind = KindCBR
	p.Size = size
	p.Src = from.ID
	p.Dst = to.ID
	p.DstPort = port
	from.Send(p)
}

// TestParkingLotRouting verifies BFS next-hop correctness across a
// 4-router (3-bottleneck) parking lot: through traffic crosses every
// router in order, cross traffic crosses exactly its own segment, and
// reverse-path delivery works end to end.
func TestParkingLotRouting(t *testing.T) {
	sched := sim.NewScheduler()
	pl := NewParkingLot(sched, ParkingLotConfig{
		Bottlenecks:   3,
		ThroughPairs:  1,
		CrossPairs:    1,
		BottleneckBW:  1e7,
		BottleneckDly: 0.001,
		Queue:         QueueDropTail,
		QueueLimit:    100,
	}, nil)
	nw := pl.Net

	if len(pl.Routers) != 4 || len(pl.Bottlenecks) != 3 {
		t.Fatalf("got %d routers, %d bottlenecks", len(pl.Routers), len(pl.Bottlenecks))
	}

	// Tap every bottleneck to observe which segments a packet crosses.
	crossed := make([]int, 3)
	for s, l := range pl.Bottlenecks {
		s := s
		l.AddTap(func(ev TapEvent, now float64, p *Packet) {
			if ev == TapDepart {
				crossed[s]++
			}
		})
	}

	// Through traffic must serialize on every bottleneck in order.
	sinkT := &collector{nw: nw}
	pl.ThroughDst[0].Attach(7, sinkT)
	sendOne(nw, pl.ThroughSrc[0], pl.ThroughDst[0], 7, 1000)
	for sched.Step() {
	}
	if len(sinkT.times) != 1 {
		t.Fatalf("through packet not delivered: %d", len(sinkT.times))
	}
	if crossed[0] != 1 || crossed[1] != 1 || crossed[2] != 1 {
		t.Fatalf("through packet crossings = %v, want [1 1 1]", crossed)
	}

	// Cross traffic on segment 1 must touch only bottleneck 1.
	crossed[0], crossed[1], crossed[2] = 0, 0, 0
	sinkC := &collector{nw: nw}
	pl.CrossDst[1][0].Attach(7, sinkC)
	sendOne(nw, pl.CrossSrc[1][0], pl.CrossDst[1][0], 7, 1000)
	for sched.Step() {
	}
	if len(sinkC.times) != 1 {
		t.Fatalf("cross packet not delivered: %d", len(sinkC.times))
	}
	if crossed[0] != 0 || crossed[1] != 1 || crossed[2] != 0 {
		t.Fatalf("cross packet crossings = %v, want [0 1 0]", crossed)
	}

	// Reverse path: through destination back to through source.
	sinkR := &collector{nw: nw}
	pl.ThroughSrc[0].Attach(8, sinkR)
	sendOne(nw, pl.ThroughDst[0], pl.ThroughSrc[0], 8, 500)
	for sched.Step() {
	}
	if len(sinkR.times) != 1 || sinkR.bytes != 500 {
		t.Fatalf("reverse packet not delivered: %d/%d", len(sinkR.times), sinkR.bytes)
	}

	if nw.Pool().Live() != 0 {
		t.Fatalf("leaked %d packets", nw.Pool().Live())
	}
}

// TestParkingLotNextHops checks the routing tables directly: from the
// through source, the next hop toward the far sink is the access link to
// router 0, and each router forwards along the chain.
func TestParkingLotNextHops(t *testing.T) {
	sched := sim.NewScheduler()
	pl := NewParkingLot(sched, ParkingLotConfig{
		Bottlenecks:   3,
		ThroughPairs:  1,
		CrossPairs:    0,
		BottleneckBW:  1e7,
		BottleneckDly: 0.001,
		Queue:         QueueDropTail,
		QueueLimit:    100,
	}, nil)
	for s := 0; s < 3; s++ {
		// From router s the next hop toward the far destination must be
		// the forward bottleneck of segment s.
		if got := pl.Routers[s].route[pl.ThroughDst[0].ID]; got != pl.Bottlenecks[s] {
			t.Fatalf("router %d next hop toward through sink is not bottleneck %d", s, s)
		}
	}
	// And the reverse direction walks the chain backwards.
	for s := 3; s > 0; s-- {
		want := pl.Routers[s].LinkTo(pl.Routers[s-1])
		if got := pl.Routers[s].route[pl.ThroughSrc[0].ID]; got != want {
			t.Fatalf("router %d reverse next hop wrong", s)
		}
	}
}

// TestLinkScheduleAffectsSerialization checks that a scheduled bandwidth
// cut actually slows packet delivery: the same packet sent before and
// after the step observes different serialization times.
func TestLinkScheduleAffectsSerialization(t *testing.T) {
	sched := sim.NewScheduler()
	topo := NewTopology(sched, nil)
	topo.Link("a", "b", LinkSpec{
		Bandwidth: 8e6, Delay: 0, Queue: QueueDropTail, QueueLimit: 50,
	})
	nw := topo.Build()
	a, b := topo.Lookup("a"), topo.Lookup("b")
	sched.At(1, func() { topo.LinkByName("a->b").SetBandwidth(8e5) })

	var arrivals []float64
	sink := &collector{nw: nw}
	b.Attach(1, sink)
	topo.LinkByName("a->b").AddTap(func(ev TapEvent, now float64, p *Packet) {
		if ev == TapDepart {
			arrivals = append(arrivals, now)
		}
	})
	// 1000 bytes at 8 Mb/s = 1 ms; at 0.8 Mb/s = 10 ms.
	sched.At(0.5, func() { sendOne(nw, a, b, 1, 1000) })
	sched.At(1.5, func() { sendOne(nw, a, b, 1, 1000) })
	for sched.Step() {
	}
	if len(arrivals) != 2 {
		t.Fatalf("arrivals = %v", arrivals)
	}
	if d := arrivals[0] - 0.5; d < 0.0009 || d > 0.0011 {
		t.Fatalf("pre-step serialization took %v, want ≈ 1 ms", d)
	}
	if d := arrivals[1] - 1.5; d < 0.009 || d > 0.011 {
		t.Fatalf("post-step serialization took %v, want ≈ 10 ms", d)
	}
}

// TestTopologyNameErrors pins the fail-fast behavior for bad names.
func TestTopologyNameErrors(t *testing.T) {
	topo := NewTopology(sim.NewScheduler(), nil)
	topo.Link("a", "b", LinkSpec{Bandwidth: 1e6, Delay: 0.001, QueueLimit: 10})
	mustPanic := func(name string, f func()) {
		defer func() {
			if recover() == nil {
				t.Fatalf("%s did not panic", name)
			}
		}()
		f()
	}
	mustPanic("Lookup", func() { topo.Lookup("nope") })
	mustPanic("LinkByName", func() { topo.LinkByName("a->z") })
	mustPanic("duplicate link", func() {
		topo.Link("a", "b", LinkSpec{Bandwidth: 1e6, Delay: 0.001, QueueLimit: 10})
	})
	topo.Build()
	mustPanic("link after build", func() {
		topo.Link("a", "c", LinkSpec{Bandwidth: 1e6, Delay: 0.001, QueueLimit: 10})
	})
}

// TestDumbbellPresetEquivalence verifies that the preset dumbbell built
// over the Topology names its pieces consistently with its struct fields.
func TestDumbbellPresetEquivalence(t *testing.T) {
	sched := sim.NewScheduler()
	d := NewDumbbell(sched, DumbbellConfig{
		Hosts:         3,
		BottleneckBW:  1e7,
		BottleneckDly: 0.010,
		QueueLimit:    50,
	}, nil)
	if d.Topo.Lookup("rl") != d.RouterL || d.Topo.Lookup("rr") != d.RouterR {
		t.Fatal("router names do not match struct fields")
	}
	for i := 0; i < 3; i++ {
		if d.Topo.Lookup(fmt.Sprintf("l%d", i)) != d.Left[i] ||
			d.Topo.Lookup(fmt.Sprintf("r%d", i)) != d.Right[i] {
			t.Fatalf("host %d names do not match struct fields", i)
		}
	}
	if d.Topo.LinkByName("rl->rr") != d.Forward || d.Topo.LinkByName("rr->rl") != d.Reverse {
		t.Fatal("bottleneck names do not match struct fields")
	}
}

// TestNominalPacketSizeDrivesPTC verifies that capacity-aware queues are
// told their drain rate in the scenario's configured packet size, both
// at connect time and across a scheduled bandwidth change.
func TestNominalPacketSizeDrivesPTC(t *testing.T) {
	sched := sim.NewScheduler()
	d := NewDumbbell(sched, DumbbellConfig{
		Hosts:         1,
		BottleneckBW:  8e6,
		BottleneckDly: 0.010,
		Queue:         QueueRED,
		QueueLimit:    50,
		RED:           DefaultRED(50),
		PktBytes:      500,
	}, sim.NewRand(1))
	q := d.ForwardQ.(*RED)
	if got, want := q.PTC(), 8e6/(8*500.0); got != want {
		t.Fatalf("PTC = %v, want %v (500-byte packets)", got, want)
	}
	// A scheduled bandwidth change re-derives the drain rate at the same
	// packet size.
	sched.At(1, func() { d.Forward.SetBandwidth(2e6) })
	sched.RunUntil(2)
	if got, want := q.PTC(), 2e6/(8*500.0); got != want {
		t.Fatalf("PTC after step = %v, want %v", got, want)
	}
	// Default stays the 1000-byte nominal.
	d2 := NewDumbbell(sim.NewScheduler(), DumbbellConfig{
		Hosts: 1, BottleneckBW: 8e6, BottleneckDly: 0.010,
		Queue: QueueRED, QueueLimit: 50, RED: DefaultRED(50),
	}, sim.NewRand(1))
	if got, want := d2.ForwardQ.(*RED).PTC(), 8e6/(8*1000.0); got != want {
		t.Fatalf("default PTC = %v, want %v", got, want)
	}
}
