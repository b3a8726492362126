package netsim

import (
	"math"
	"testing"

	"tfrc/internal/sim"
)

func sendN(nw *Network, a, b *Node, n int, firstSeq int64) {
	for i := 0; i < n; i++ {
		p := nw.NewPacket()
		p.Size = 1000
		p.Seq = firstSeq + int64(i)
		p.Src, p.Dst, p.DstPort = a.ID, b.ID, 1
		a.Send(p)
	}
}

func TestLinkSetDownDropFlushesQueueAndDropsArrivals(t *testing.T) {
	sched, nw, a, b, sink := twoNodeNet(t, 1e6, 0.010, 100)
	l := a.LinkTo(b)
	var drops int
	l.AddTap(func(ev TapEvent, now float64, p *Packet) {
		if ev == TapDrop {
			drops++
		}
	})
	// 5 packets: one serializing, 4 queued. The outage flushes the queue
	// and eats everything offered while down; the in-flight packet still
	// arrives (it already left this hop).
	sendN(nw, a, b, 5, 0)
	sched.At(0.001, func() {
		l.SetDown(DownDrop)
		sendN(nw, a, b, 2, 10)
	})
	sched.At(0.1, func() {
		l.SetUp()
		sendN(nw, a, b, 1, 20)
	})
	for sched.Step() {
	}
	if !l.IsDown() && drops != 6 { // 4 flushed + 2 offered while down
		t.Fatalf("drops = %d, want 6", drops)
	}
	if got := len(sink.seqs); got != 2 {
		t.Fatalf("delivered %d packets, want 2 (the in-flight one and the post-heal one)", got)
	}
	if sink.seqs[0] != 0 || sink.seqs[1] != 20 {
		t.Fatalf("delivered seqs %v, want [0 20]", sink.seqs)
	}
	if nw.Pool().Live() != 0 {
		t.Fatalf("%d packets leaked", nw.Pool().Live())
	}
}

func TestLinkSetDownHoldParksQueueAndDrainsOnHeal(t *testing.T) {
	sched, nw, a, b, sink := twoNodeNet(t, 1e6, 0.010, 100)
	l := a.LinkTo(b)
	l.SetDown(DownHold)
	sendN(nw, a, b, 3, 0)
	sched.At(0.5, func() { l.SetUp() })
	for sched.Step() {
	}
	if got := len(sink.seqs); got != 3 {
		t.Fatalf("delivered %d packets, want all 3 after heal", got)
	}
	for i, s := range sink.seqs {
		if s != int64(i) {
			t.Fatalf("delivery order %v, want FIFO", sink.seqs)
		}
	}
	// First delivery: heal + serialization + propagation.
	if got := sink.times[0]; math.Abs(got-(0.5+0.008+0.010)) > 1e-12 {
		t.Fatalf("first post-heal delivery at %v, want 0.518", got)
	}
	if nw.Pool().Live() != 0 {
		t.Fatalf("%d packets leaked", nw.Pool().Live())
	}
}

func TestLinkDownHoldOverflowDrops(t *testing.T) {
	sched, nw, a, b, sink := twoNodeNet(t, 1e6, 0.010, 2)
	l := a.LinkTo(b)
	l.SetDown(DownHold)
	var drops int
	l.AddTap(func(ev TapEvent, now float64, p *Packet) {
		if ev == TapDrop {
			drops++
		}
	})
	sendN(nw, a, b, 5, 0) // queue limit 2: 3 overflow even while held
	sched.At(0.1, func() { l.SetUp() })
	for sched.Step() {
	}
	if drops != 3 {
		t.Fatalf("drops = %d, want 3", drops)
	}
	if len(sink.seqs) != 2 {
		t.Fatalf("delivered %d, want 2", len(sink.seqs))
	}
	if nw.Pool().Live() != 0 {
		t.Fatalf("%d packets leaked", nw.Pool().Live())
	}
}

func TestLinkBlackholeEatsSilently(t *testing.T) {
	sched, nw, a, b, sink := twoNodeNet(t, 1e6, 0.010, 100)
	l := a.LinkTo(b)
	l.SetBlackhole(true)
	sendN(nw, a, b, 3, 0)
	sched.At(0.1, func() {
		l.SetBlackhole(false)
		sendN(nw, a, b, 1, 10)
	})
	for sched.Step() {
	}
	if len(sink.seqs) != 1 || sink.seqs[0] != 10 {
		t.Fatalf("delivered %v, want just seq 10 after the blackhole lifts", sink.seqs)
	}
	if nw.Pool().Live() != 0 {
		t.Fatalf("%d packets leaked", nw.Pool().Live())
	}
}

func TestImpairmentsDuplicateAndCorrupt(t *testing.T) {
	sched, nw, a, b, sink := twoNodeNet(t, 1e6, 0.010, 100)
	l := a.LinkTo(b)
	l.SetImpairments(Impairments{Duplicate: 1}, sched.NewRand(7))
	sendN(nw, a, b, 2, 0)
	for sched.Step() {
	}
	// Every packet duplicated exactly once: clones skip the dice.
	if len(sink.seqs) != 4 {
		t.Fatalf("delivered %d with duplicate=1, want 4", len(sink.seqs))
	}
	if nw.Pool().Live() != 0 {
		t.Fatalf("%d packets leaked", nw.Pool().Live())
	}

	l.SetImpairments(Impairments{Corrupt: 1}, sched.NewRand(7))
	sendN(nw, a, b, 3, 10)
	for sched.Step() {
	}
	if len(sink.seqs) != 4 {
		t.Fatalf("corrupt=1 still delivered packets: %v", sink.seqs)
	}
	l.SetImpairments(Impairments{}, nil) // heal: all-zero config, rng optional
	sendN(nw, a, b, 1, 20)
	for sched.Step() {
	}
	if sink.seqs[len(sink.seqs)-1] != 20 {
		t.Fatalf("healed link did not deliver: %v", sink.seqs)
	}
	if nw.Pool().Live() != 0 {
		t.Fatalf("%d packets leaked", nw.Pool().Live())
	}
}

func TestImpairmentsReorderDelaysByConfiguredAmount(t *testing.T) {
	sched, nw, a, b, sink := twoNodeNet(t, 1e6, 0.010, 100)
	l := a.LinkTo(b)
	l.SetImpairments(Impairments{Reorder: 1, ReorderDelay: 0.050}, sched.NewRand(7))
	sendN(nw, a, b, 1, 0)
	for sched.Step() {
	}
	if len(sink.times) != 1 {
		t.Fatalf("delivered %d, want 1", len(sink.times))
	}
	// Held 50 ms, then reoffered (held packets skip the dice), then the
	// normal 8 ms serialization + 10 ms propagation.
	if got := sink.times[0]; math.Abs(got-0.068) > 1e-12 {
		t.Fatalf("reordered delivery at %v, want 0.068", got)
	}
	if nw.Pool().Live() != 0 {
		t.Fatalf("%d packets leaked", nw.Pool().Live())
	}
}

func TestImpairmentsDeterministicAcrossRuns(t *testing.T) {
	run := func() []int64 {
		sched := sim.NewScheduler()
		nw := New(sched)
		a, b := nw.NewNode(), nw.NewNode()
		nw.Connect(a, b, 1e6, 0.010, func() Queue { return NewDropTail(100) })
		nw.BuildRoutes()
		sink := &collector{nw: nw}
		b.Attach(1, sink)
		a.LinkTo(b).SetImpairments(
			Impairments{Reorder: 0.3, ReorderDelay: 0.02, Duplicate: 0.2, Corrupt: 0.1},
			sched.NewRand(42))
		sendN(nw, a, b, 50, 0)
		for sched.Step() {
		}
		return sink.seqs
	}
	first, second := run(), run()
	if len(first) != len(second) {
		t.Fatalf("runs delivered %d vs %d packets", len(first), len(second))
	}
	for i := range first {
		if first[i] != second[i] {
			t.Fatalf("delivery sequence diverged at %d: %v vs %v", i, first, second)
		}
	}
}

// lineNet builds a -> b -> c with per-hop links both ways.
func lineNet(t *testing.T) (*sim.Scheduler, *Network, *Node, *Node, *Node, *collector) {
	t.Helper()
	sched := sim.NewScheduler()
	nw := New(sched)
	a, b, c := nw.NewNode(), nw.NewNode(), nw.NewNode()
	q := func() Queue { return NewDropTail(100) }
	nw.Connect(a, b, 1e6, 0.010, q) // Connect wires both directions
	nw.Connect(b, c, 1e6, 0.010, q)
	nw.BuildRoutes()
	sink := &collector{nw: nw}
	c.Attach(1, sink)
	return sched, nw, a, b, c, sink
}

func TestRecomputeRoutesToleratesPartition(t *testing.T) {
	sched, nw, a, b, c, sink := lineNet(t)
	l := b.LinkTo(c)
	l.SetDown(DownDrop)
	nw.RecomputeRoutes()
	sendN(nw, a, c, 3, 0) // unroutable at b: counted, not panicking
	sched.At(0.1, func() {
		l.SetUp()
		nw.RecomputeRoutes()
		sendN(nw, a, c, 2, 10)
	})
	for sched.Step() {
	}
	if got := nw.RouteDrops(); got != 3 {
		t.Fatalf("RouteDrops = %d, want 3", got)
	}
	if len(sink.seqs) != 2 || sink.seqs[0] != 10 || sink.seqs[1] != 11 {
		t.Fatalf("post-reconvergence deliveries %v, want [10 11]", sink.seqs)
	}
	if nw.Pool().Live() != 0 {
		t.Fatalf("%d packets leaked", nw.Pool().Live())
	}
}

// TestLinkChangesMidSerializationKeepOrder is the regression test for
// mid-flight link mutation: whatever mix of SetBandwidth, SetDelay
// (non-decreasing), and a hold-mode outage lands mid-serialization, a
// single link must never reorder deliveries. (A delay *decrease* is the
// one documented exception: propagation is pipelined, so a later packet
// launched under a much smaller delay may legitimately overtake.)
func TestLinkChangesMidSerializationKeepOrder(t *testing.T) {
	sched, nw, a, b, sink := twoNodeNet(t, 1e6, 0.010, 200)
	l := a.LinkTo(b)
	rng := sched.NewRand(9)
	// A steady stream of packets...
	for i := 0; i < 100; i++ {
		seq := int64(i)
		sched.At(float64(i)*0.003, func() { sendN(nw, a, b, 1, seq) })
	}
	// ...while the link mutates under it, every change mid-serialization
	// of some packet (sends every 3 ms, serialization 8 ms at 1 Mb/s).
	delay := 0.010
	for i := 0; i < 40; i++ {
		at := 0.004 + float64(i)*0.007
		switch i % 4 {
		case 0:
			sched.At(at, func() { l.SetBandwidth(rng.Uniform(2e5, 2e6)) })
		case 1:
			sched.At(at, func() {
				delay += rng.Uniform(0, 0.005) // only ever increases
				l.SetDelay(delay)
			})
		case 2:
			sched.At(at, func() { l.SetDown(DownHold) })
		case 3:
			sched.At(at, func() { l.SetUp() })
		}
	}
	for sched.Step() {
	}
	if len(sink.seqs) == 0 {
		t.Fatal("nothing delivered")
	}
	for i := 1; i < len(sink.seqs); i++ {
		if sink.seqs[i] < sink.seqs[i-1] {
			t.Fatalf("reordered delivery: seq %d after %d (index %d)", sink.seqs[i], sink.seqs[i-1], i)
		}
		if sink.times[i] < sink.times[i-1] {
			t.Fatalf("delivery times went backwards at %d: %v < %v", i, sink.times[i], sink.times[i-1])
		}
	}
	if nw.Pool().Live() != 0 {
		t.Fatalf("%d packets leaked", nw.Pool().Live())
	}
}
