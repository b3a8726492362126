package faults

import (
	"encoding/json"
	"fmt"
	"math"
	"slices"
	"strings"
	"testing"

	"tfrc/internal/netsim"
	"tfrc/internal/sim"
	"tfrc/internal/tcp"
)

// fuzzLot is a two-bottleneck parking lot carrying a SACK TCP flow
// across both bottlenecks and one across the first: links r0->r1,
// r1->r2 and their reverses, plus the hosts' access links. It returns
// the two flows' sinks.
func fuzzLot() (*sim.Scheduler, *netsim.Topology, []*tcp.Sink) {
	sched := sim.NewScheduler()
	pl := netsim.NewParkingLot(sched, netsim.ParkingLotConfig{
		Bottlenecks: 2, ThroughPairs: 1, CrossPairs: 1,
		BottleneckBW: 1e6, BottleneckDly: 0.01,
		Queue: netsim.QueueDropTail, QueueLimit: 20,
	}, sched.NewRand(1))
	var sinks []*tcp.Sink
	node := pl.Topo.Lookup
	for i, ends := range [][2]*netsim.Node{
		{node("ts0"), node("td0")},
		{node("cs0.0"), node("cd0.0")},
	} {
		sinks = append(sinks, tcp.NewSink(pl.Net, ends[1], 1, i, 40))
		tcp.NewSender(pl.Net, ends[0], ends[1].ID, 1, 2, i, tcp.Config{Variant: tcp.Sack}).Start(0)
	}
	return sched, pl.Topo, sinks
}

// linkCount is what a counting tap saw on one link.
type linkCount struct {
	from, to                 netsim.NodeID
	l                        *netsim.Link
	arrived, departed, drops int
}

// tapEveryLink puts a counting tap on every link of the topology.
func tapEveryLink(topo *netsim.Topology) []*linkCount {
	var counts []*linkCount
	nodes := topo.Network().Nodes()
	for _, a := range nodes {
		for _, b := range nodes {
			l := a.LinkTo(b)
			if l == nil {
				continue
			}
			c := &linkCount{from: a.ID, to: b.ID, l: l}
			l.AddTap(func(ev netsim.TapEvent, _ float64, _ *netsim.Packet) {
				switch ev {
				case netsim.TapArrive:
					c.arrived++
				case netsim.TapDepart:
					c.departed++
				case netsim.TapDrop:
					c.drops++
				}
			})
			counts = append(counts, c)
		}
	}
	return counts
}

// received is each sink's count of arrived and of in-order packets.
func received(sinks []*tcp.Sink) [][2]int64 {
	var n [][2]int64
	for _, s := range sinks {
		n = append(n, [2]int64{s.Received, s.Delivered})
	}
	return n
}

// hasLink reports whether the topology declares the named link.
func hasLink(topo *netsim.Topology, name string) (ok bool) {
	defer func() { ok = recover() == nil }()
	topo.LinkByName(name)
	return
}

// poison overwrites one float field of one fault with NaN or ±Inf, which
// JSON cannot spell: selector's high byte picks the fault, the next six
// bits the field and the low two bits the value; 0 leaves the schedule
// as decoded.
func poison(sc *Schedule, selector uint16) {
	if selector == 0 || len(sc.Faults) == 0 {
		return
	}
	f := &sc.Faults[int(selector>>8)%len(sc.Faults)]
	fields := [...]*float64{&f.At, &f.Delay, &f.Bandwidth, &f.Reorder, &f.ReorderDelay, &f.Duplicate, &f.Corrupt}
	values := [...]float64{math.NaN(), math.Inf(1), math.Inf(-1), math.NaN()}
	*fields[int(selector>>2&63)%len(fields)] = values[selector&3]
}

// FuzzFaultSchedule feeds arbitrary JSON through the one entry point a
// fault schedule has. Apply must panic exactly when Validate rejects a
// fault or a fault names a link the topology lacks, and the panic must
// name that fault by index. Any other schedule runs five simulated
// seconds of traffic twice, once with a counting tap on every link and
// once without. A tap only watches, so both runs' sinks must have
// received the same packets. In the tapped run every link must account
// for each packet offered to it: departed, dropped, queued, or the one
// still serializing.
//
//	go test -run '^$' -fuzz FuzzFaultSchedule -fuzztime 20s ./internal/faults
func FuzzFaultSchedule(f *testing.F) {
	for _, seed := range []struct {
		json   string
		poison uint16
	}{
		{`{"faults":[{"at":1,"link":"r0->r1","kind":"down"},{"at":2,"link":"r0->r1","kind":"up"}]}`, 0},
		{`{"reroute":true,"faults":[{"at":1,"link":"r1->r2","kind":"down","drain":true},{"at":1.5,"link":"r1->r2","kind":"blackhole"},{"at":1.2,"link":"r1->r2","kind":"up"},{"at":3,"link":"r1->r2","kind":"blackhole-off"}]}`, 0},
		{`{"faults":[{"at":0.5,"link":"r1->r0","kind":"blackhole"},{"at":0.5,"link":"r1->r0","kind":"down"},{"at":0.6,"link":"r1->r0","kind":"up"},{"at":0.7,"link":"r1->r0","kind":"up"}]}`, 0},
		{`{"seed":7,"faults":[{"at":0,"link":"r0->r1","kind":"impair","reorder":1,"reorderDelay":0.05,"duplicate":1,"corrupt":0.2}]}`, 0},
		{`{"faults":[{"at":1,"link":"r0->r1","kind":"delay","delay":0.3},{"at":2,"link":"r0->r1","kind":"bandwidth","bandwidth":1e4}]}`, 0},
		{`{"faults":[{"at":1,"link":"r0->r9","kind":"down"}]}`, 0},
		{`{"faults":[{"at":1,"link":"r0->r1","kind":"up"},{"at":1,"link":"nowhere","kind":"blackhole"}]}`, 0},
		{`{"faults":[{"at":-1,"link":"r0->r1","kind":"down"}]}`, 0},
		{`{"faults":[{"at":1,"link":"r0->r1","kind":"bandwidth","bandwidth":-5}]}`, 0},
		{`{"faults":[{"at":1,"link":"r0->r1","kind":"delay","delay":-0.1}]}`, 0},
		{`{"faults":[{"at":1,"link":"r0->r1","kind":"impair","reorder":1.5}]}`, 0},
		{`{"faults":[{"at":1,"link":"r0->r1","kind":"impair","duplicate":-0.5}]}`, 0},
		{`{"faults":[{"at":1,"link":"r0->r1","kind":"meteor"}]}`, 0},
		{`{"faults":[{"at":1,"kind":"down"}]}`, 0},
		{`{"faults":[{"at":1,"link":"r0->r1","kind":"down"}]}`, 0x0001},                    // At NaN
		{`{"faults":[{"at":1,"link":"r0->r1","kind":"delay"}]}`, 0x0006},                   // Delay +Inf
		{`{"faults":[{"at":1,"link":"r0->r1","kind":"bandwidth","bandwidth":1}]}`, 0x000a}, // Bandwidth −Inf
		{`{"faults":[{"at":1,"link":"r0->r1","kind":"impair","reorder":0.5}]}`, 0x000c},    // Reorder NaN
		{`{"faults":[{"at":1,"link":"r0->r1","kind":"impair"}]}`, 0x0011},                  // ReorderDelay +Inf
		{`{"faults":[{"at":1e308,"link":"r0->r1","kind":"delay","delay":1e308}]}`, 0},
		// Found by this fuzzer: a misspelled link panicked without the
		// fault's index, and these validated, then put an event at +Inf
		// mid-run (a denormal rate; two huge delays summed).
		{`{"faults":[{"at":0,"link":"r0->r1","kind":"bandwidth","bandwidth":5e-324}]}`, 0},
		{`{"faults":[{"at":0,"link":"r0->r1","kind":"delay","delay":1e308},{"at":0,"link":"r0->r1","kind":"impair","reorder":1,"reorderDelay":1e308}]}`, 0},
		// The extremes that still validate.
		{`{"faults":[{"at":0,"link":"r1->r2","kind":"bandwidth","bandwidth":1e-6},{"at":0,"link":"r2->r1","kind":"delay","delay":1e9},{"at":0,"link":"r2->r1","kind":"impair","reorder":1,"reorderDelay":1e9}]}`, 0},
	} {
		f.Add([]byte(seed.json), seed.poison)
	}
	f.Fuzz(func(t *testing.T, data []byte, selector uint16) {
		var sc Schedule
		if json.Unmarshal(data, &sc) != nil || len(sc.Faults) > 64 {
			return
		}
		poison(&sc, selector)
		sched, topo, sinks := fuzzLot()
		defer sched.Release()

		bad := -1 // the fault Apply must name: Validate's first, else the first unknown link
		if err := sc.Validate(); err != nil {
			for i := range sc.Faults {
				if sc.Faults[i].Validate() != nil {
					bad = i
					break
				}
			}
		} else {
			for i := range sc.Faults {
				if !hasLink(topo, sc.Faults[i].Link) {
					bad = i
					break
				}
			}
		}
		msg, panicked := func() (msg string, panicked bool) {
			defer func() {
				if r := recover(); r != nil {
					msg, panicked = fmt.Sprint(r), true
				}
			}()
			sc.Apply(topo)
			return
		}()
		switch {
		case bad < 0 && panicked:
			t.Fatalf("Apply panicked on a valid schedule: %s\n%+v", msg, sc.Faults)
		case bad >= 0 && !panicked:
			t.Fatalf("Apply accepted faults[%d] = %+v", bad, sc.Faults[bad])
		case bad >= 0 && !strings.Contains(msg, fmt.Sprintf("faults[%d]:", bad)):
			t.Fatalf("Apply's panic %q does not name faults[%d]", msg, bad)
		case bad < 0:
			counts := tapEveryLink(topo)
			sched.RunUntil(5)
			for _, c := range counts {
				if inFlight := c.arrived - c.departed - c.drops - c.l.Queue().Len(); inFlight != 0 && inFlight != 1 {
					t.Fatalf("link %d->%d saw %d arrivals but %d departures, %d drops and %d queued\n%+v",
						c.from, c.to, c.arrived, c.departed, c.drops, c.l.Queue().Len(), sc.Faults)
				}
			}
			quiet, quietTopo, quietSinks := fuzzLot()
			defer quiet.Release()
			sc.Apply(quietTopo)
			quiet.RunUntil(5)
			if got, want := received(sinks), received(quietSinks); !slices.Equal(got, want) {
				t.Fatalf("sinks received %v with every link tapped, %v without\n%+v", got, want, sc.Faults)
			}
		}
	})
}
