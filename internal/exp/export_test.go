package exp

import (
	"reflect"

	"tfrc/internal/netsim"
	"tfrc/internal/sim"
)

// portTable returns node n's delivery table as the address of the agent
// bound at each port, 0 where none is. The table is netsim's own, so it
// is read by reflection.
func portTable(n *netsim.Node) []uintptr {
	tab := reflect.ValueOf(n).Elem().FieldByName("ports")
	agents := make([]uintptr, tab.Len())
	for port := range agents {
		if a := tab.Index(port); !a.IsNil() {
			agents[port] = a.Elem().Pointer()
		}
	}
	return agents
}

// fixedPoint is what one long-lived flow of a fig6 cell did over the
// measurement tail: the rate it offered the bottleneck and the loss
// event rate and round-trip time the rate equation takes.
type fixedPoint struct {
	tfrc bool
	rate float64 // data bytes per second offered to the bottleneck
	p    float64 // loss event rate
	r    float64 // round-trip time, seconds
	pkts int     // data packets offered to the bottleneck
}

// fig06FixedPoints runs the fig6 cell (queue, linkMbps, flows) as the
// experiment runs it and returns each long-lived flow's fixedPoint, TCP
// flows first. Everything is read off taps, which only watch: both
// directions of the bottleneck and the TCP senders' reverse access links.
//
// A TFRC flow's p is the mean loss event rate its receiver reported in
// the tail, and its R the mean RTT estimate its sender stamped on its
// data. A TCP flow keeps no p, so its p is its loss events per packet
// offered, where a loss event is a drop at least one mean RTT after the
// previous event began (one window cut per round-trip, as SACK TCP cuts).
// Its R is the mean of the samples its sender takes: an ACK's arrival
// less the send time it echoes.
func fig06FixedPoints(queue netsim.QueueKind, linkMbps float64, flows int, duration, tail float64, seed int64) []fixedPoint {
	// buildScenario's access links when the scenario draws no delays.
	const accessDelay = 0.001
	sc := fig06Scenario(queue, linkMbps, flows, duration, tail, seed)
	sched := sim.NewScheduler()
	b := buildScenario(sched, sc)
	defer b.Release()

	n := sc.NTCP + sc.NTFRC
	type tally struct {
		bytes      float64
		pkts       int
		drops      []float64
		rSum, pSum float64
		rN, pN     int
	}
	flow := make([]tally, n)
	from := sc.Warmup
	b.topo.LinkByName("rl->rr").AddTap(func(ev netsim.TapEvent, now float64, p *netsim.Packet) {
		if now < from || p.Kind != netsim.KindData || p.Flow >= n {
			return
		}
		f := &flow[p.Flow]
		switch ev {
		case netsim.TapArrive:
			f.bytes += float64(p.Size)
			f.pkts++
			if p.Flow >= sc.NTCP {
				f.rSum += p.SenderRTT
				f.rN++
			}
		case netsim.TapDrop:
			f.drops = append(f.drops, now)
		}
	})
	b.topo.LinkByName("rr->rl").AddTap(func(ev netsim.TapEvent, now float64, p *netsim.Packet) {
		if ev == netsim.TapArrive && now >= from && p.Kind == netsim.KindFeedback && p.Flow < n {
			flow[p.Flow].pSum += p.LossEventRate
			flow[p.Flow].pN++
		}
	})
	for i := range sc.NTCP {
		b.topo.LinkByName("rl->" + netsim.IndexedName("l", i)).AddTap(func(ev netsim.TapEvent, now float64, p *netsim.Packet) {
			if ev == netsim.TapDepart && now >= from && p.Kind == netsim.KindAck && p.EchoTime > 0 {
				flow[i].rSum += now + accessDelay - p.EchoTime
				flow[i].rN++
			}
		})
	}
	b.simulate(sc.Duration)

	points := make([]fixedPoint, n)
	for i, f := range flow {
		pt := &points[i]
		pt.tfrc = i >= sc.NTCP
		pt.rate = f.bytes / tail
		pt.r = f.rSum / float64(f.rN)
		pt.pkts = f.pkts
		if pt.tfrc {
			pt.p = f.pSum / float64(f.pN)
			continue
		}
		events, start := 0, 0.0
		for _, t := range f.drops {
			if events == 0 || t >= start+pt.r {
				events, start = events+1, t
			}
		}
		pt.p = float64(events) / float64(f.pkts)
	}
	return points
}
