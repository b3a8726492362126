package tcp

import (
	"fmt"
	"math"
	"runtime"
	"testing"

	"tfrc/internal/netsim"
	"tfrc/internal/sim"
)

// rig is a two-node network with one TCP flow and hooks for loss
// injection at the bottleneck.
type rig struct {
	sched  *sim.Scheduler
	nw     *netsim.Network
	sender *Sender
	sink   *Sink
	lnk    *netsim.Link
}

func newRig(t *testing.T, cfg Config, bw, delay float64, qlen int) *rig {
	t.Helper()
	sched := sim.NewScheduler()
	nw := netsim.New(sched)
	a, b := nw.NewNode(), nw.NewNode()
	nw.Connect(a, b, bw, delay, func() netsim.Queue { return netsim.NewDropTail(qlen) })
	nw.BuildRoutes()
	snk := NewSink(nw, b, 1, 1, 40)
	snd := NewSender(nw, a, b.ID, 1, 2, 1, cfg)
	return &rig{sched: sched, nw: nw, sender: snd, sink: snk, lnk: a.LinkTo(b)}
}

func TestBulkTransferNoLoss(t *testing.T) {
	for _, v := range []Variant{Tahoe, Reno, NewReno, Sack} {
		t.Run(v.String(), func(t *testing.T) {
			// 8 Mb/s, 10 ms one-way, ample queue: no drops possible.
			r := newRig(t, Config{Variant: v}, 8e6, 0.010, 10000)
			r.sender.Start(0)
			r.sched.RunUntil(10)
			// Capacity is 1000 pkts/sec; slow start converges quickly, so
			// expect ≥ 95% of capacity delivered in order.
			if got := r.sink.Delivered; got < 9500 {
				t.Fatalf("delivered %d packets in 10 s, want ≥ 9500", got)
			}
			if r.sender.Rtx != 0 {
				t.Fatalf("%d retransmissions without loss", r.sender.Rtx)
			}
			if r.sender.Timeouts != 0 {
				t.Fatalf("%d timeouts without loss", r.sender.Timeouts)
			}
		})
	}
}

func TestUtilizationUnderTightQueue(t *testing.T) {
	// Realistic bottleneck: queue of a bandwidth-delay product. All
	// variants should keep utilization high despite periodic drops.
	for _, v := range []Variant{Reno, NewReno, Sack} {
		t.Run(v.String(), func(t *testing.T) {
			r := newRig(t, Config{Variant: v}, 2e6, 0.020, 10)
			mon := netsim.NewFlowMonitor(1, 5)
			r.lnk.AddTap(mon.Tap())
			r.sender.Start(0)
			r.sched.RunUntil(60)
			if u := mon.TotalBytes(1) * 8 / (2e6 * 55); u < 0.70 {
				t.Fatalf("utilization = %v, want ≥ 0.70", u)
			}
			if r.sender.Rtx == 0 {
				t.Fatal("expected losses at a BDP-sized queue")
			}
		})
	}
}

// lossyRig injects deterministic single-packet drops by sequence number.
type lossyRig struct {
	*rig
	drop map[int64]bool
}

func newLossyRig(t *testing.T, cfg Config, drops ...int64) *lossyRig {
	t.Helper()
	// Generous queue so only injected losses occur.
	r := newRig(t, cfg, 8e6, 0.010, 10000)
	lr := &lossyRig{rig: r, drop: map[int64]bool{}}
	for _, d := range drops {
		lr.drop[d] = true
	}
	// Replace direct sink delivery with a filter agent between link and
	// sink: easiest is a tap cannot drop, so wrap the sink port.
	return lr
}

// filter drops designated data sequence numbers, first occurrence only.
type filter struct {
	nw   *netsim.Network
	next netsim.Agent
	drop map[int64]bool
}

func (f *filter) Recv(p *netsim.Packet) {
	if p.Kind == netsim.KindData && f.drop[p.Seq] {
		delete(f.drop, p.Seq)
		f.nw.Free(p)
		return
	}
	f.next.Recv(p)
}

func newFilteredRig(t *testing.T, cfg Config, drops ...int64) *rig {
	t.Helper()
	sched := sim.NewScheduler()
	nw := netsim.New(sched)
	a, b := nw.NewNode(), nw.NewNode()
	nw.Connect(a, b, 8e6, 0.010, func() netsim.Queue { return netsim.NewDropTail(10000) })
	nw.BuildRoutes()
	snk := &Sink{net: nw, node: b, ackSize: 40, flow: 1}
	dm := map[int64]bool{}
	for _, d := range drops {
		dm[d] = true
	}
	b.Attach(1, &filter{nw: nw, next: snk, drop: dm})
	snd := NewSender(nw, a, b.ID, 1, 2, 1, cfg)
	return &rig{sched: sched, nw: nw, sender: snd, sink: snk, lnk: a.LinkTo(b)}
}

func TestFastRetransmitSingleLoss(t *testing.T) {
	for _, v := range []Variant{Reno, NewReno, Sack} {
		t.Run(v.String(), func(t *testing.T) {
			r := newFilteredRig(t, Config{Variant: v}, 50)
			r.sender.Start(0)
			r.sched.RunUntil(5)
			if r.sender.FastRecov != 1 {
				t.Fatalf("fast recoveries = %d, want 1", r.sender.FastRecov)
			}
			if r.sender.Timeouts != 0 {
				t.Fatalf("single loss caused %d timeouts", r.sender.Timeouts)
			}
			if r.sender.Rtx != 1 {
				t.Fatalf("retransmissions = %d, want 1", r.sender.Rtx)
			}
			if r.sink.Delivered < 1000 {
				t.Fatalf("delivered only %d packets", r.sink.Delivered)
			}
		})
	}
}

func TestTahoeCollapsesToSlowStart(t *testing.T) {
	r := newFilteredRig(t, Config{Variant: Tahoe}, 50)
	r.sender.Start(0)
	r.sched.RunUntil(5)
	if r.sender.FastRecov != 1 || r.sender.Timeouts != 0 {
		t.Fatalf("recov=%d timeouts=%d", r.sender.FastRecov, r.sender.Timeouts)
	}
	if r.sink.Delivered < 500 {
		t.Fatalf("delivered %d", r.sink.Delivered)
	}
}

func TestSackHandlesBurstLossWithoutTimeout(t *testing.T) {
	// Four packets lost from one window: SACK recovers all within one
	// recovery episode and never times out — the behavior that lets
	// "Sack TCP implementations halve the congestion window once in
	// response to several losses in a window" (§3.5.1).
	r := newFilteredRig(t, Config{Variant: Sack}, 60, 62, 64, 66)
	r.sender.Start(0)
	r.sched.RunUntil(5)
	if r.sender.Timeouts != 0 {
		t.Fatalf("SACK took %d timeouts on a burst", r.sender.Timeouts)
	}
	if r.sender.FastRecov != 1 {
		t.Fatalf("fast recoveries = %d, want 1", r.sender.FastRecov)
	}
	if r.sender.Rtx != 4 {
		t.Fatalf("retransmissions = %d, want 4", r.sender.Rtx)
	}
}

func TestRenoBurstLossIsWorseThanSack(t *testing.T) {
	// Reno on the same burst either times out or halves repeatedly; it
	// must end up delivering less than SACK by 5 s.
	run := func(v Variant) int64 {
		r := newFilteredRig(t, Config{Variant: v}, 60, 62, 64, 66)
		r.sender.Start(0)
		r.sched.RunUntil(5)
		return r.sink.Delivered
	}
	reno, sack := run(Reno), run(Sack)
	if reno >= sack {
		t.Fatalf("Reno delivered %d ≥ SACK %d on burst loss", reno, sack)
	}
}

func TestNewRenoRecoversBurstWithoutTimeout(t *testing.T) {
	r := newFilteredRig(t, Config{Variant: NewReno}, 60, 62, 64)
	r.sender.Start(0)
	r.sched.RunUntil(5)
	if r.sender.Timeouts != 0 {
		t.Fatalf("NewReno took %d timeouts", r.sender.Timeouts)
	}
	if r.sender.FastRecov != 1 {
		t.Fatalf("entered recovery %d times, want 1", r.sender.FastRecov)
	}
}

func TestTimeoutOnTailLoss(t *testing.T) {
	// With a one-packet window no duplicate ACKs can ever arrive, so a
	// loss is only recoverable through the retransmit timer.
	sched := sim.NewScheduler()
	nw := netsim.New(sched)
	a, b := nw.NewNode(), nw.NewNode()
	nw.Connect(a, b, 8e6, 0.010, func() netsim.Queue { return netsim.NewDropTail(100) })
	nw.BuildRoutes()
	snk := &Sink{net: nw, node: b, ackSize: 40, flow: 1}
	b.Attach(1, &filter{nw: nw, next: snk, drop: map[int64]bool{9: true}})
	cfg := Config{Variant: Sack, MaxWindow: 1}
	snd := NewSender(nw, a, b.ID, 1, 2, 1, cfg)
	snd.Start(0)
	sched.RunUntil(10)
	if snd.Timeouts == 0 {
		t.Fatal("tail loss never timed out")
	}
	if snk.CumAck() < 10 {
		t.Fatalf("cumack = %d, hole never repaired", snk.CumAck())
	}
	if snk.Delivered < 100 {
		t.Fatalf("stalled after timeout: delivered %d", snk.Delivered)
	}
}

func TestCoarseGranularityQuantizesRTO(t *testing.T) {
	cfg := Config{Variant: Sack, Granularity: 0.5}
	r := newRig(t, cfg, 8e6, 0.010, 10000)
	r.sender.Start(0)
	r.sched.RunUntil(2)
	// SRTT ≈ 21 ms; a 500 ms clock must round the RTO up to ≥ 1 tick
	// and the 2-tick floor makes it 1.0 s.
	if got := r.sender.rto(); got < 0.5 {
		t.Fatalf("RTO = %v, want ≥ 0.5 with coarse clock", got)
	}
	fine := newRig(t, Config{Variant: Sack, Granularity: 0.01}, 8e6, 0.010, 10000)
	fine.sender.Start(0)
	fine.sched.RunUntil(2)
	if fine.sender.rto() >= r.sender.rto() {
		t.Fatalf("fine clock RTO %v not below coarse %v", fine.sender.rto(), r.sender.rto())
	}
}

func TestAggressiveRTORetransmitsSpuriously(t *testing.T) {
	// The Solaris-like sender on a clean but jittery path (cross
	// traffic varies queueing delay) should retransmit despite zero
	// loss; the conservative sender should not.
	run := func(aggressive bool) (rtx int64, timeouts int64) {
		sched := sim.NewScheduler()
		nw := netsim.New(sched)
		a, b := nw.NewNode(), nw.NewNode()
		nw.Connect(a, b, 2e6, 0.020, func() netsim.Queue { return netsim.NewDropTail(40) })
		nw.BuildRoutes()
		NewSink(nw, b, 1, 1, 40)
		cfg := Config{Variant: Reno, Granularity: 0.01, AggressiveRTO: aggressive, MaxWindow: 8}
		snd := NewSender(nw, a, b.ID, 1, 2, 1, cfg)
		// Bursty competing traffic on the same link modulates the RTT.
		rng := sim.NewRand(3)
		var burst func()
		burst = func() {
			for i := 0; i < 12; i++ {
				p := nw.NewPacket()
				p.Kind = netsim.KindCBR
				p.Flow = 99
				p.Size = 1000
				p.Src, p.Dst, p.DstPort = a.ID, b.ID, 9
				a.Send(p)
			}
			sched.After(0.05+rng.Float64()*0.2, burst)
		}
		sched.After(0.1, burst)
		snd.Start(0)
		sched.RunUntil(30)
		return snd.Rtx, snd.Timeouts
	}
	aggRtx, aggTO := run(true)
	consRtx, _ := run(false)
	if aggTO == 0 || aggRtx == 0 {
		t.Fatalf("aggressive RTO produced no spurious activity (rtx=%d to=%d)", aggRtx, aggTO)
	}
	if consRtx > aggRtx/2 {
		t.Fatalf("conservative sender retransmitted %d vs aggressive %d", consRtx, aggRtx)
	}
}

func TestTwoFlowsShareFairly(t *testing.T) {
	// Two identical SACK flows over one bottleneck split it roughly
	// evenly over 60 s.
	sched := sim.NewScheduler()
	d := netsim.NewDumbbell(sched, netsim.DumbbellConfig{
		Hosts:         2,
		BottleneckBW:  4e6,
		BottleneckDly: 0.020,
		QueueLimit:    25,
	}, sim.NewRand(1))
	mon := netsim.NewFlowMonitor(1.0, 10)
	d.Forward.AddTap(mon.Tap())
	for i := 0; i < 2; i++ {
		NewSink(d.Net, d.Right[i], 1, i, 40)
		snd := NewSender(d.Net, d.Left[i], d.Right[i].ID, 1, 2, i, Config{Variant: Sack})
		snd.Start(float64(i) * 0.37)
	}
	sched.RunUntil(70)
	b0, b1 := mon.TotalBytes(0), mon.TotalBytes(1)
	ratio := b0 / b1
	if ratio < 0.6 || ratio > 1.67 {
		t.Fatalf("unfair split: %v vs %v bytes (ratio %v)", b0, b1, ratio)
	}
	// And together they fill the pipe.
	total := (b0 + b1) * 8 / 60
	if total < 0.85*4e6 {
		t.Fatalf("aggregate %v b/s under-utilizes 4 Mb/s", total)
	}
}

func TestSenderCountersString(t *testing.T) {
	if got := fmt.Sprintf("%v %v %v %v", Tahoe, Reno, NewReno, Sack); got != "tahoe reno newreno sack" {
		t.Fatalf("variant names: %s", got)
	}
	if got := Variant(9).String(); got != "variant(9)" {
		t.Fatalf("unknown variant: %s", got)
	}
}

// rangePeak passes data on to a sink and records the most ranges the
// sink's received set ever held.
type rangePeak struct {
	sink *Sink
	peak int
}

func (c *rangePeak) Recv(p *netsim.Packet) {
	c.sink.Recv(p)
	c.peak = max(c.peak, len(c.sink.received.r))
}

// TestScoreboardGrowsPastOldFixedHalf drives a SACK pair through 300
// simultaneous holes — more than the 256 ranges each scoreboard used to
// be born with — and requires nothing to be lost on the way: every range
// is kept, the transfer recovers fully, and every sequence number is
// delivered in order exactly once. The grown scoreboards then stay with
// their arena slots.
func TestScoreboardGrowsPastOldFixedHalf(t *testing.T) {
	const (
		limit = 6000
		first = 2001 // odd sequence numbers from here are dropped once
		holes = 300
	)
	sched := sim.NewScheduler()
	nw := netsim.New(sched)
	a, b := nw.NewNode(), nw.NewNode()
	nw.Connect(a, b, 8e6, 0.010, func() netsim.Queue { return netsim.NewDropTail(10000) })
	nw.BuildRoutes()
	drop := map[int64]bool{}
	for i := int64(0); i < holes; i++ {
		drop[first+2*i] = true
	}
	snk := NewSink(nw, b, 9, 1, 40) // a slab sink; data reaches it through the filter on port 1
	count := &rangePeak{sink: snk}
	b.Attach(1, &filter{nw: nw, next: count, drop: drop})
	snd := NewSenderLimited(nw, a, b.ID, 1, 2, 1, Config{Variant: Sack}, limit)
	if cap(snd.sacked.r) != 0 || cap(snd.rtxed.r) != 0 || cap(snk.received.r) != 0 {
		t.Fatal("fresh agents already own scoreboard storage")
	}
	done := false
	snd.OnComplete = func(*Sender) { done = true }
	snd.Start(0)
	sched.RunUntil(60)

	if !done || snk.Delivered != limit || snk.CumAck() != limit {
		t.Fatalf("transfer incomplete: done=%v delivered=%d cumack=%d, want %d", done, snk.Delivered, snk.CumAck(), limit)
	}
	if count.peak < holes {
		t.Fatalf("sink held at most %d ranges, want ≥ %d simultaneous holes", count.peak, holes)
	}
	// rtxed is bounded by the recovery's pipe, not by the hole count, and
	// stays small; the other two must have outgrown the old fixed 256.
	if cap(snd.sacked.r) <= 256 || cap(snk.received.r) <= 256 || cap(snd.rtxed.r) == 0 {
		t.Fatalf("scoreboards did not grow with the holes: sacked %d, rtxed %d, received %d",
			cap(snd.sacked.r), cap(snd.rtxed.r), cap(snk.received.r))
	}

	// A recycled slot starts logically empty but keeps what it grew.
	sackedCap, rtxedCap, receivedCap := cap(snd.sacked.r), cap(snd.rtxed.r), cap(snk.received.r)
	snd.sacked.add(nil, 1, 2) // leftovers a new tenant must not see
	b.Detach(9)
	snd.Release()
	snk.Release()
	snd2 := NewSender(nw, a, b.ID, 1, 2, 2, Config{Variant: Sack})
	snk2 := NewSink(nw, b, 9, 2, 40)
	if snd2 != snd || snk2 != snk {
		t.Fatal("released agents were not the next ones handed out")
	}
	if len(snd2.sacked.r)+len(snd2.rtxed.r)+len(snk2.received.r) != 0 {
		t.Fatal("recycled agents inherited scoreboard contents")
	}
	if cap(snd2.sacked.r) != sackedCap || cap(snd2.rtxed.r) != rtxedCap || cap(snk2.received.r) != receivedCap {
		t.Fatalf("recycled agents lost their grown scoreboards: %d/%d/%d, want %d/%d/%d",
			cap(snd2.sacked.r), cap(snd2.rtxed.r), cap(snk2.received.r), sackedCap, rtxedCap, receivedCap)
	}
}

// cleanPath is two nodes joined by an 8 Mb/s, 10 ms link whose queue
// never fills: nothing is lost or reordered on it.
func cleanPath() (*sim.Scheduler, *netsim.Network, *netsim.Node, *netsim.Node) {
	sched := sim.NewScheduler()
	nw := netsim.New(sched)
	a, b := nw.NewNode(), nw.NewNode()
	nw.Connect(a, b, 8e6, 0.010, func() netsim.Queue { return netsim.NewDropTail(10000) })
	nw.BuildRoutes()
	return sched, nw, a, b
}

// TestInOrderFlowNeverAllocates pins what NewSink promises: a flow that
// sees no hole owns no scoreboard storage and costs the allocator nothing
// once it is built. Every measured transfer runs on a sender and a sink
// whose slab slots nothing has used before, so no earlier run's leftovers
// can hide an allocation of this one's.
func TestInOrderFlowNeverAllocates(t *testing.T) {
	const (
		pairs = 6
		limit = 1000
	)
	sched, nw, a, b := cleanPath()
	var senders [pairs]*Sender
	var sinks [pairs]*Sink
	for i := range senders {
		sinks[i] = NewSink(nw, b, i+1, i, 40)
		senders[i] = NewSenderLimited(nw, a, b.ID, i+1, i+1, i, Config{Variant: Sack}, limit)
	}
	next := 0
	perTransfer := testing.AllocsPerRun(pairs-1, func() {
		senders[next].Start(sched.Now())
		next++
		sched.RunUntil(sched.Now() + 30)
	})
	if perTransfer != 0 {
		t.Errorf("a %d-packet in-order transfer allocated %v times after construction, want 0", limit, perTransfer)
	}
	for i, snk := range sinks {
		if snk.Delivered != limit || senders[i].Rtx != 0 {
			t.Fatalf("transfer %d: delivered %d of %d with %d retransmissions: the path is not clean", i, snk.Delivered, limit, senders[i].Rtx)
		}
		if cap(snk.received.r)+cap(senders[i].sacked.r)+cap(senders[i].rtxed.r) != 0 {
			t.Errorf("transfer %d saw no hole but owns scoreboard storage: received %d, sacked %d, rtxed %d",
				i, cap(snk.received.r), cap(senders[i].sacked.r), cap(senders[i].rtxed.r))
		}
	}
}

// TestOneHoleCostsOneScoreboard is the other half: the first packet to
// arrive ahead of a hole gives the sink's range set a minRanges segment,
// once, cut from the arena's carver. The first sink warms the path (and
// cuts the carver's first chunk); the first holes of a batch of five
// sinks after it together cost at most one more chunk, where a make per
// set cost five. The allocator's counter is process-wide, so three fresh
// batches are measured and the cheapest is judged, as the warm-cell
// matrix judges its rows.
func TestOneHoleCostsOneScoreboard(t *testing.T) {
	const batches, batch = 3, 5
	sched, nw, a, b := cleanPath()
	sinks := make([]*Sink, 1+batches*batch)
	for i := range sinks {
		sinks[i] = NewSink(nw, b, i+1, i, 40)
	}
	arrivals := []int64{0, 1, 2, 4, 3, 5, 6, 7, 9, 8} // two reorderings, one scoreboard
	hole := func(snk *Sink) {
		for _, seq := range arrivals {
			p := nw.NewPacket()
			p.Kind, p.Seq, p.Src, p.Dst = netsim.KindData, seq, a.ID, b.ID
			snk.Recv(p)
		}
		for sched.Step() { // the ACKs cross to a, where nothing is bound
		}
	}
	hole(sinks[0])
	cheapest := uint64(math.MaxUint64)
	for k := range batches {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for _, snk := range sinks[1+k*batch : 1+(k+1)*batch] {
			hole(snk)
		}
		runtime.ReadMemStats(&after)
		cheapest = min(cheapest, after.Mallocs-before.Mallocs)
	}
	if cheapest > 1 {
		t.Errorf("%d sinks' first holes allocated %d times in the cheapest of %d batches, want at most one carver chunk", batch, cheapest, batches)
	}
	for i, snk := range sinks {
		if snk.CumAck() != int64(len(arrivals)) || len(snk.received.r) != 0 {
			t.Fatalf("sink %d: cumack %d with %d ranges held, want %d and none", i, snk.CumAck(), len(snk.received.r), len(arrivals))
		}
		if cap(snk.received.r) != minRanges {
			t.Errorf("sink %d: range set of %d, want minRanges = %d", i, cap(snk.received.r), minRanges)
		}
	}
}
