package netsim

import (
	"math"
	"testing"

	"tfrc/internal/sim"
)

// collector is a sink agent recording deliveries.
type collector struct {
	nw    *Network
	times []float64
	seqs  []int64
	bytes int
}

func (c *collector) Recv(p *Packet) {
	c.times = append(c.times, c.nw.Now())
	c.seqs = append(c.seqs, p.Seq)
	c.bytes += p.Size
	c.nw.Free(p)
}

func twoNodeNet(t *testing.T, bw, delay float64, qlen int) (*sim.Scheduler, *Network, *Node, *Node, *collector) {
	t.Helper()
	sched := sim.NewScheduler()
	nw := New(sched)
	a, b := nw.NewNode(), nw.NewNode()
	nw.Connect(a, b, bw, delay, func() Queue { return NewDropTail(qlen) })
	nw.BuildRoutes()
	sink := &collector{nw: nw}
	b.Attach(1, sink)
	return sched, nw, a, b, sink
}

func TestLinkLatencyAndSerialization(t *testing.T) {
	// 1 Mb/s, 10 ms: a 1000-byte packet takes 8 ms to serialize + 10 ms
	// propagation = 18 ms end to end.
	sched, nw, a, b, sink := twoNodeNet(t, 1e6, 0.010, 100)
	p := nw.NewPacket()
	p.Size = 1000
	p.Src, p.Dst, p.DstPort = a.ID, b.ID, 1
	a.Send(p)
	for sched.Step() {
	}
	if len(sink.times) != 1 {
		t.Fatalf("delivered %d packets, want 1", len(sink.times))
	}
	if got := sink.times[0]; math.Abs(got-0.018) > 1e-12 {
		t.Fatalf("delivery at %v, want 0.018", got)
	}
}

func TestLinkBackToBackSpacing(t *testing.T) {
	// Two packets sent at once: the second is delayed by one
	// serialization time, not by propagation.
	sched, nw, a, b, sink := twoNodeNet(t, 1e6, 0.010, 100)
	for i := 0; i < 2; i++ {
		p := nw.NewPacket()
		p.Size = 1000
		p.Seq = int64(i)
		p.Src, p.Dst, p.DstPort = a.ID, b.ID, 1
		a.Send(p)
	}
	for sched.Step() {
	}
	if len(sink.times) != 2 {
		t.Fatalf("delivered %d packets, want 2", len(sink.times))
	}
	gap := sink.times[1] - sink.times[0]
	if math.Abs(gap-0.008) > 1e-12 {
		t.Fatalf("inter-delivery gap %v, want 0.008 (serialization)", gap)
	}
}

func TestLinkDropsWhenQueueFull(t *testing.T) {
	// Queue limit 2 plus 1 in service: sending 5 at once drops 2.
	sched, nw, a, b, sink := twoNodeNet(t, 1e6, 0.010, 2)
	var drops int
	a.LinkTo(b).AddTap(func(ev TapEvent, now float64, p *Packet) {
		if ev == TapDrop {
			drops++
		}
	})
	for i := 0; i < 5; i++ {
		p := nw.NewPacket()
		p.Size = 1000
		p.Seq = int64(i)
		p.Src, p.Dst, p.DstPort = a.ID, b.ID, 1
		a.Send(p)
	}
	for sched.Step() {
	}
	if len(sink.seqs) != 3 {
		t.Fatalf("delivered %d, want 3", len(sink.seqs))
	}
	if drops != 2 {
		t.Fatalf("dropped %d, want 2", drops)
	}
	if nw.Pool().Live() != 0 {
		t.Fatalf("%d packets leaked", nw.Pool().Live())
	}
}

func TestMultiHopRouting(t *testing.T) {
	// a — r1 — r2 — b: delivery crosses three links.
	sched := sim.NewScheduler()
	nw := New(sched)
	a, r1, r2, b := nw.NewNode(), nw.NewNode(), nw.NewNode(), nw.NewNode()
	mk := func() Queue { return NewDropTail(10) }
	nw.Connect(a, r1, 1e6, 0.001, mk)
	nw.Connect(r1, r2, 1e6, 0.001, mk)
	nw.Connect(r2, b, 1e6, 0.001, mk)
	nw.BuildRoutes()
	sink := &collector{nw: nw}
	b.Attach(7, sink)
	p := nw.NewPacket()
	p.Size = 125 // 1 ms serialization at 1 Mb/s
	p.Src, p.Dst, p.DstPort = a.ID, b.ID, 7
	a.Send(p)
	for sched.Step() {
	}
	if len(sink.times) != 1 {
		t.Fatalf("delivered %d, want 1", len(sink.times))
	}
	// 3 × (1 ms tx + 1 ms prop) = 6 ms.
	if got := sink.times[0]; math.Abs(got-0.006) > 1e-12 {
		t.Fatalf("delivery at %v, want 0.006", got)
	}
}

func TestRoutingDisconnectedPanics(t *testing.T) {
	sched := sim.NewScheduler()
	nw := New(sched)
	nw.NewNode()
	nw.NewNode() // never connected
	defer func() {
		if recover() == nil {
			t.Fatal("BuildRoutes on disconnected graph did not panic")
		}
	}()
	nw.BuildRoutes()
}

func TestLocalDelivery(t *testing.T) {
	sched := sim.NewScheduler()
	nw := New(sched)
	a := nw.NewNode()
	b := nw.NewNode()
	nw.Connect(a, b, 1e6, 0.001, func() Queue { return NewDropTail(10) })
	nw.BuildRoutes()
	sink := &collector{nw: nw}
	a.Attach(1, sink)
	p := nw.NewPacket()
	p.Size = 100
	p.Src, p.Dst, p.DstPort = a.ID, a.ID, 1
	a.Send(p)
	for sched.Step() {
	}
	if len(sink.times) != 1 || sink.times[0] != 0 {
		t.Fatalf("local delivery: %v", sink.times)
	}
}

func TestUnboundPortDiscards(t *testing.T) {
	sched, nw, a, b, _ := twoNodeNet(t, 1e6, 0.001, 10)
	p := nw.NewPacket()
	p.Size = 100
	p.Src, p.Dst, p.DstPort = a.ID, b.ID, 42 // nobody listens on 42
	a.Send(p)
	for sched.Step() {
	}
	if nw.Pool().Live() != 0 {
		t.Fatal("packet to unbound port leaked")
	}
}

func TestFlowMonitorBinsAndDropRate(t *testing.T) {
	sched, nw, a, b, _ := twoNodeNet(t, 8e6, 0.001, 2)
	mon := NewFlowMonitor(0.1, 0)
	a.LinkTo(b).AddTap(mon.Tap())
	// 1000-byte packet = 1 ms serialization at 8 Mb/s. Send 10 spaced at
	// 50 ms: all in bin 0..4, none dropped.
	for i := 0; i < 10; i++ {
		i := i
		sched.At(float64(i)*0.050, func() {
			p := nw.NewPacket()
			p.Size = 1000
			p.Flow = 5
			p.Src, p.Dst, p.DstPort = a.ID, b.ID, 1
			a.Send(p)
		})
	}
	for sched.Step() {
	}
	series := mon.Series(5, 5)
	var total float64
	for _, v := range series {
		total += v
	}
	if total != 10000 {
		t.Fatalf("monitored %v bytes, want 10000", total)
	}
	if mon.Series(5, 5)[0] != 2000 {
		t.Fatalf("bin 0 = %v, want 2000 (packets at t=0 and t=0.05)", series[0])
	}
	if got := mon.TotalBytes(5); got != 10000 {
		t.Fatalf("TotalBytes = %v", got)
	}
	if mon.DropRate() != 0 {
		t.Fatalf("drop rate %v, want 0", mon.DropRate())
	}
}

func TestQueueMonitorSamples(t *testing.T) {
	sched, nw, a, b, _ := twoNodeNet(t, 1e5, 0.001, 50)
	qm := NewQueueMonitor(nw, a.LinkTo(b).Queue(), 0.01, 1.0)
	// 1000-byte packets take 80 ms each at 100 kb/s; send 10 at t=0 so
	// the queue holds ~9 then drains.
	for i := 0; i < 10; i++ {
		p := nw.NewPacket()
		p.Size = 1000
		p.Src, p.Dst, p.DstPort = a.ID, b.ID, 1
		a.Send(p)
	}
	sched.RunUntil(1.0)
	if len(qm.Samples) == 0 {
		t.Fatal("no queue samples")
	}
	if qm.Max() < 8 {
		t.Fatalf("max sampled queue %d, want ≥ 8", qm.Max())
	}
	last := qm.Samples[len(qm.Samples)-1]
	if last.Len != 0 {
		t.Fatalf("queue did not drain: %d", last.Len)
	}
}

func TestUtilizationMonitor(t *testing.T) {
	sched, nw, a, b, _ := twoNodeNet(t, 8e6, 0.001, 100)
	mon := NewFlowMonitor(1, 0)
	a.LinkTo(b).AddTap(mon.Tap())
	// Saturate for 1 second: one 1000-byte packet per 1 ms serialization
	// slot = exactly 8 Mb delivered.
	for i := 0; i < 1000; i++ {
		sched.At(float64(i)*0.001, func() {
			p := nw.NewPacket()
			p.Size = 1000
			p.Src, p.Dst, p.DstPort = a.ID, b.ID, 1
			a.Send(p)
		})
	}
	for sched.Step() {
	}
	if u := mon.TotalBytes(0) * 8 / 8e6; math.Abs(u-1.0) > 1e-9 {
		t.Fatalf("utilization %v, want 1.0", u)
	}
}

func TestPoolRecycles(t *testing.T) {
	var pool Pool
	p := pool.Get()
	p.Seq = 77
	pool.Put(p)
	q := pool.Get()
	if q.Seq != 0 {
		t.Fatal("pool returned a dirty packet")
	}
	if q != p {
		t.Fatal("pool did not reuse the freed packet")
	}
	pool.Put(q)
	pool.Put(nil) // must not panic
	if pool.Live() != 0 {
		t.Fatalf("live = %d, want 0", pool.Live())
	}
}

func TestDumbbellTopology(t *testing.T) {
	sched := sim.NewScheduler()
	d := NewDumbbell(sched, DumbbellConfig{
		Hosts:         4,
		BottleneckBW:  15e6,
		BottleneckDly: 0.025,
		QueueLimit:    100,
	}, sim.NewRand(1))
	if len(d.Left) != 4 || len(d.Right) != 4 {
		t.Fatalf("hosts: %d/%d", len(d.Left), len(d.Right))
	}
	// Base RTT: 2·(2·1ms + 25ms) = 54 ms.
	if rtt := d.RTT(0); math.Abs(rtt-0.054) > 1e-12 {
		t.Fatalf("RTT = %v, want 0.054", rtt)
	}
	// A packet from left0 to right0 traverses the bottleneck.
	sink := &collector{nw: d.Net}
	d.Right[0].Attach(1, sink)
	var crossed bool
	d.Forward.AddTap(func(ev TapEvent, now float64, p *Packet) {
		if ev == TapDepart {
			crossed = true
		}
	})
	p := d.Net.NewPacket()
	p.Size = 1000
	p.Src, p.Dst, p.DstPort = d.Left[0].ID, d.Right[0].ID, 1
	d.Left[0].Send(p)
	for sched.Step() {
	}
	if !crossed || len(sink.times) != 1 {
		t.Fatalf("bottleneck crossed=%v delivered=%d", crossed, len(sink.times))
	}
}

func TestDumbbellREDQueue(t *testing.T) {
	sched := sim.NewScheduler()
	d := NewDumbbell(sched, DumbbellConfig{
		Hosts:         1,
		BottleneckBW:  1e6,
		BottleneckDly: 0.010,
		Queue:         QueueRED,
		QueueLimit:    100,
		RED:           DefaultRED(100),
	}, sim.NewRand(1))
	if _, ok := d.ForwardQ.(*RED); !ok {
		t.Fatalf("forward queue is %T, want *RED", d.ForwardQ)
	}
}

// portSink is a minimal agent counting deliveries per binding.
type portSink struct {
	nw *Network
	n  int
}

func (s *portSink) Recv(p *Packet) { s.n++; s.nw.Free(p) }

func TestDensePortTable(t *testing.T) {
	sched, nw, a, b, _ := twoNodeNet(t, 1e9, 0.001, 1000)
	// Bind a dense run of ports: the table must cover them all.
	const n = 200
	sinks := make([]*portSink, n)
	for i := 2; i < n; i++ { // port 1 already bound by twoNodeNet
		sinks[i] = &portSink{nw: nw}
		b.Attach(i, sinks[i])
	}
	if len(b.portTab) == 0 || b.portSparse {
		t.Fatalf("dense numbering did not build the port table (len=%d sparse=%v)",
			len(b.portTab), b.portSparse)
	}
	send := func(port int) {
		p := nw.NewPacket()
		p.Size = 100
		p.Src, p.Dst, p.DstPort = a.ID, b.ID, port
		a.Send(p)
	}
	for i := 2; i < n; i++ {
		send(i)
	}
	send(n + 50) // unbound: discarded
	send(-3)     // nonsense port: discarded
	for sched.Step() {
	}
	for i := 2; i < n; i++ {
		if sinks[i].n != 1 {
			t.Fatalf("port %d got %d deliveries, want 1", i, sinks[i].n)
		}
	}
	// Detach clears the table slot; redelivery is a discard, and rebinding
	// works again.
	b.Detach(7)
	send(7)
	for sched.Step() {
	}
	if sinks[7].n != 1 {
		t.Fatalf("detached port got %d deliveries, want 1", sinks[7].n)
	}
	re := &portSink{nw: nw}
	b.Attach(7, re)
	send(7)
	for sched.Step() {
	}
	if re.n != 1 {
		t.Fatalf("rebound port got %d deliveries, want 1", re.n)
	}
	if nw.Pool().Live() != 0 {
		t.Fatalf("leaked %d packets", nw.Pool().Live())
	}
}

func TestSparsePortsFallBackToScan(t *testing.T) {
	sched, nw, a, b, sink := twoNodeNet(t, 1e9, 0.001, 1000)
	// A mice-style high base port abandons the dense table.
	far := &portSink{nw: nw}
	b.Attach(5000, far)
	if !b.portSparse || len(b.portTab) != 0 {
		t.Fatalf("sparse binding kept the table (len=%d sparse=%v)",
			len(b.portTab), b.portSparse)
	}
	// Duplicate detection still works in sparse mode.
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("duplicate sparse bind did not panic")
			}
		}()
		b.Attach(5000, far)
	}()
	for _, port := range []int{1, 5000} {
		p := nw.NewPacket()
		p.Size = 100
		p.Src, p.Dst, p.DstPort = a.ID, b.ID, port
		a.Send(p)
	}
	for sched.Step() {
	}
	if sink.bytes != 100 || far.n != 1 {
		t.Fatalf("scan fallback delivered sink=%dB far=%d, want 100B and 1", sink.bytes, far.n)
	}
}

// TestAttachDoubleBindPanics covers the duplicate check in each of the
// node's three binding modes, and that a port the dense table does not
// reach binds without a panic: past the table's end nothing can be bound,
// so Attach answers from the table alone instead of walking n.ports.
func TestAttachDoubleBindPanics(t *testing.T) {
	for _, tc := range []struct {
		name   string
		bound  []int // bound first, in order (-2 detaches port 2)
		dup    int   // then binding this again must panic
		fresh  int   // and this must not
		sparse bool  // mode the node must be in when dup is tried
	}{
		{"first binding", []int{4}, 4, 5, false},
		{"dense, inside the table", []int{1, 2, 3, 40}, 2, 17, false},
		{"dense, past the table's end", []int{1, 2, 3}, 3, 4, false},
		{"dense, rebound after a detach", []int{1, 2, 3, -2, 2}, 2, 4, false},
		{"sparse", []int{1, 5000, 2}, 5000, 3, true},
		{"sparse by a negative port", []int{1, -7}, -7, -8, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			nw := New(sim.NewScheduler())
			n := nw.NewNode()
			a := &portSink{nw: nw}
			for _, port := range tc.bound {
				if port == -2 {
					n.Detach(2)
					continue
				}
				n.Attach(port, a)
			}
			if n.portSparse != tc.sparse || (len(n.portTab) == 0) != tc.sparse {
				t.Fatalf("node in the wrong mode: sparse=%v, table of %d", n.portSparse, len(n.portTab))
			}
			bindings := len(n.ports)
			func() {
				defer func() {
					if recover() == nil {
						t.Fatalf("binding port %d twice did not panic", tc.dup)
					}
				}()
				n.Attach(tc.dup, a)
			}()
			if len(n.ports) != bindings {
				t.Fatal("the refused binding was recorded")
			}
			n.Attach(tc.fresh, a)
			if len(n.ports) != bindings+1 {
				t.Fatalf("port %d did not bind", tc.fresh)
			}
		})
	}
}
