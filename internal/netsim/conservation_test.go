package netsim_test

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"tfrc/internal/faults"
	"tfrc/internal/netsim"
	"tfrc/internal/sim"
	"tfrc/internal/wire"
)

// probeAgent counts the packets netsim hands to a port.
type probeAgent struct {
	netsim.Agent
	n *int64
}

func (a probeAgent) Recv(p *netsim.Packet) { *a.n++; a.Agent.Recv(p) }

// TestWireFramesConserved runs a wire connection in virtual time while an
// arbitrary interleaving of a feedback-link blackhole, a data-link outage,
// reorder + duplicate impairments and one sender Stop plays against it.
// After every single event, every frame either endpoint sent, and every
// copy a duplicate impairment made of one, has been delivered, dropped by
// a link, or is a packet still checked out of the pool; once the run
// drains, none is. (An external test: wire imports netsim.)
func TestWireFramesConserved(t *testing.T) {
	const fwd, rev = "a->b", "b->a" // data, feedback
	kinds := []faults.Fault{
		{Link: rev, Kind: faults.Blackhole},
		{Link: rev, Kind: faults.BlackholeOff},
		{Link: fwd, Kind: faults.LinkDown},
		{Link: fwd, Kind: faults.LinkDown, Drain: true},
		{Link: fwd, Kind: faults.LinkUp},
		{Link: fwd, Kind: faults.Impair, Reorder: 0.2, ReorderDelay: 0.015, Duplicate: 0.2},
		{Link: fwd, Kind: faults.Impair},
	}
	f := func(ops []uint16) bool {
		sched := sim.NewScheduler()
		topo := netsim.NewTopology(sched, nil)
		topo.Link("a", "b", netsim.LinkSpec{Bandwidth: 500e3, Delay: 0.010, QueueLimit: 20})
		topo.Build()
		snd, rcv := wire.NewSimPair(topo, "a", "b", 1, nil, wire.Config{PacketSize: 500, MaxRate: 100e3})

		var delivered, drops, dups int64
		for _, host := range []string{"a", "b"} {
			n := topo.Lookup(host)
			ag := n.Agent(1)
			n.Detach(1)
			n.Attach(1, probeAgent{ag, &delivered})
		}
		for _, name := range []string{fwd, rev} {
			seen := map[int64]bool{}
			topo.LinkByName(name).AddTap(func(ev netsim.TapEvent, _ float64, p *netsim.Packet) {
				switch ev {
				case netsim.TapDrop:
					drops++
				case netsim.TapArrive:
					if seen[p.Seq] {
						dups++ // the second of two copies to reach the link
					}
					seen[p.Seq] = true
				}
			})
		}

		fs := faults.Schedule{Seed: int64(len(ops))}
		add := func(f faults.Fault, at float64) { f.At = at; fs.Faults = append(fs.Faults, f) }
		now, dupFrom := 0.5, math.Inf(1)
		for _, op := range ops {
			now += float64(op%97) / 100
			switch k := int(op/97) % 64; {
			case k < 8*len(kinds):
				add(kinds[k%len(kinds)], now)
				if kinds[k%len(kinds)].Duplicate > 0 {
					dupFrom = math.Min(dupFrom, now)
				}
			case k == 63:
				sched.At(now, snd.Stop)
			}
		}
		// Wind down: stop both ends and heal every link, so that what is
		// parked or held drains and the scheduler runs dry.
		end := now + 1
		for _, k := range []int{1, 4, 6} {
			add(kinds[k], end)
		}
		if err := fs.Validate(); err != nil {
			t.Fatal(err)
		}
		fs.Apply(topo)
		sched.At(0, snd.Run)
		sched.At(end, snd.Stop)
		sched.At(end, rcv.Stop)

		live := topo.Network().Pool().Live
		sent := func() int64 { return snd.Stats().Sent + rcv.Stats().Reports }
		// A duplicate is known as one only when the second copy reaches
		// the link, which a reorder hold can delay — so mid-run the count
		// of objects is bounded below, and exact while nothing duplicates.
		for sched.Step() {
			if objects := delivered + drops + int64(live()); objects < sent()+dups || (sched.Now() < dupFrom && objects != sent()) {
				t.Errorf("t=%v: %d frames sent and %d duplicates seen, but %d delivered + %d dropped + %d in flight",
					sched.Now(), sent(), dups, delivered, drops, live())
				return false
			}
		}
		if live() != 0 || delivered+drops != sent()+dups || snd.Stats().Sent == 0 {
			t.Errorf("drained: %d frames sent + %d duplicates, %d delivered + %d dropped, %d still live",
				sent(), dups, delivered, drops, live())
		}
		return !t.Failed()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100, Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Fatal(err)
	}
}
