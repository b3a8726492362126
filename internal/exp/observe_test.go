package exp

import (
	"slices"
	"testing"

	"tfrc/internal/netsim"
	"tfrc/internal/sim"
)

// TestReadingTheReceiverDoesNotSteerIt runs Figure 2's pipe twice, once
// reading the receiver's loss event rate every round-trip time and once
// not. Watching a flow must not change it: the sender's per-RTT rates and
// its packet count must be equal.
func TestReadingTheReceiverDoesNotSteerIt(t *testing.T) {
	pr := DefaultFig02()
	run := func(observe bool) (rates []float64, sent int64) {
		sched := sim.NewScheduler()
		snd, rcv, drop := periodicLossPipe(sched, int(1/fig2P1))
		sched.At(pr.T1, func() { drop.every = int(1 / fig2P2) })
		sched.At(pr.T2, func() { drop.every = int(1 / fig2P3) })
		var sample func()
		sample = func() {
			if observe {
				_ = rcv.P()
			}
			rates = append(rates, snd.Rate())
			sched.After(lossyPipeRTT, sample)
		}
		sched.After(lossyPipeRTT, sample)
		snd.Start(0)
		sched.RunUntil(pr.Duration)
		return rates, snd.Sent
	}
	quiet, quietSent := run(false)
	watched, watchedSent := run(true)
	if len(quiet) != len(watched) {
		t.Fatalf("%d vs %d rate samples", len(quiet), len(watched))
	}
	differ := 0
	for i := range quiet {
		if quiet[i] != watched[i] {
			differ++
		}
	}
	if differ > 0 || quietSent != watchedSent {
		t.Fatalf("reading p every RTT changed %d of %d rate samples; Sent %d unobserved vs %d observed",
			differ, len(quiet), quietSent, watchedSent)
	}
}

// TestTapDoesNotSteerRED runs an 8-flow dumbbell twice per seed, once
// with a tap on the bottleneck that does nothing and once without, for
// each queue discipline, on a clean bottleneck and on one whose rate
// halves mid-run and which then goes down for a second holding its
// backlog. A tap only watches, so every flow's delivered bytes must be
// equal, bin for bin. Each flow is measured where it leaves the
// dumbbell, on its rr->r{i} access link (tapped in both runs), so in the
// quiet run the bottleneck carries no tap at all.
func TestTapDoesNotSteerRED(t *testing.T) {
	const hosts, duration, bin = 8, 20.0, 0.5
	nbins := int(duration/bin) + 1
	run := func(queue netsim.QueueKind, faulted bool, seed int64, tapped bool) [][]float64 {
		sched := sim.NewScheduler()
		d := houseDumbbell(sched, hosts, 8e6, 0.025, queue, seed)
		if tapped {
			d.Forward.AddTap(func(netsim.TapEvent, float64, *netsim.Packet) {})
		}
		if faulted {
			sched.At(6, func() { d.Forward.SetBandwidth(4e6) })
			sched.At(10, func() { d.Forward.SetDown(netsim.DownHold) })
			sched.At(11, d.Forward.SetUp)
		}
		b := NewScenarioBuilder(d.Topo)
		mon := b.Network().NewFlowMonitor(bin, 0)
		for _, r := range d.Right {
			d.RouterR.LinkTo(r).AddTap(mon.Tap())
		}
		placeMix(b, hosts/2, hosts/2, sched.NewRand(seed), seed)
		b.Run(duration)
		series := make([][]float64, hosts)
		for f := range series {
			series[f] = mon.Series(f, nbins)
		}
		b.Release()
		return series
	}
	for _, queue := range []netsim.QueueKind{netsim.QueueRED, netsim.QueueDropTail} {
		for _, faulted := range []bool{false, true} {
			name := queue.String() + "/clean"
			if faulted {
				name = queue.String() + "/step+outage"
			}
			t.Run(name, func(t *testing.T) {
				for seed := int64(1); seed <= 4; seed++ {
					quiet, tapped := run(queue, faulted, seed, false), run(queue, faulted, seed, true)
					differ := 0
					for f := range quiet {
						if !slices.Equal(quiet[f], tapped[f]) {
							differ++
						}
					}
					if differ > 0 {
						t.Errorf("seed %d: a no-op tap on the bottleneck changed %d of %d flows' delivered series", seed, differ, hosts)
					}
				}
			})
		}
	}
}
