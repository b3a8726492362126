package wire

import (
	"math"
	"testing"

	"tfrc/internal/core"
	"tfrc/internal/faults"
	"tfrc/internal/netsim"
	"tfrc/internal/sim"
	"tfrc/internal/tfrcsim"
)

// TestSimVsWireDifferential runs one core configuration over one path
// twice — once as the tfrcsim agents, which ship header fields in the
// netsim packet and never touch the codec, and once as the wire
// endpoints on the simulator driver, which encode every frame and run
// their own timers — and holds the two per-second traces of send rate
// and loss event rate together, within the tolerance stated per case
// below. Known differences: wire timestamps and
// the stamped sender RTT are quantised to microseconds, timers to
// nanoseconds, and the wire receiver's report timer has a 1 ms floor
// (tfrcsim: 0.1 ms). A testbed implementation and a draft-faithful simulation of one
// controller disagreeing is the failure this pins (Rossi et al., arXiv
// 0908.0812).
func TestSimVsWireDifferential(t *testing.T) {
	const seconds = 40
	type trace struct {
		rate, p [seconds]float64
		sent    int64
	}
	cc := core.DefaultSenderConfig()

	path := func(corrupt float64) (*sim.Scheduler, *netsim.Topology) {
		sched, topo := simPath(2e6, 0.025, 60)
		// One path for both: a tfrcsim report is 40 bytes on the link by
		// ns-2 convention, a wire report its 34 encoded bytes. Those 24 µs
		// of serialization decide on which side of a report a slow-start
		// data packet lands, and the loss history remembers it for the
		// rest of the run; size every report as the wire's.
		topo.LinkByName("b->a").AddTap(func(ev netsim.TapEvent, _ float64, p *netsim.Packet) {
			if ev == netsim.TapArrive && p.Kind == netsim.KindFeedback {
				p.Size = feedbackPacketLen
			}
		})
		impair(topo, "a->b", 3, faults.Fault{Corrupt: corrupt})
		return sched, topo
	}
	sample := func(sched *sim.Scheduler, rate, p func() float64, sent func() int64) (tr trace) {
		for i := 0; i < seconds; i++ {
			sched.RunUntil(float64(i + 1))
			tr.rate[i], tr.p[i] = rate(), p()
		}
		tr.sent = sent()
		return tr
	}
	simulated := func(corrupt float64) trace {
		sched, topo := path(corrupt)
		snd, rcv := tfrcsim.Pair(topo.Network(), topo.Lookup("a"), topo.Lookup("b"), 1, 1, 1,
			tfrcsim.Config{Sender: cc})
		snd.Start(0)
		return sample(sched, snd.Rate, rcv.P, func() int64 { return snd.Sent })
	}
	wired := func(corrupt float64) trace {
		sched, topo := path(corrupt)
		snd, rcv := NewSimPair(topo, "a", "b", 1, nil, Config{PacketSize: cc.PacketSize, Sender: cc})
		sched.At(0, snd.Run)
		return sample(sched, snd.Rate, func() float64 { return rcv.Stats().P }, func() int64 { return snd.Stats().Sent })
	}

	for _, c := range []struct {
		name    string
		corrupt float64
		// tol bounds |wire − sim| / sim for every per-second sample of
		// both traces; sentTol the same for the packets sent by the end.
		tol, sentTol float64
	}{
		// Random loss ends slow start within the first second and keeps
		// the loss history turning over: the traces stay together.
		{"corrupt 1%", 0.01, 0.05, 0.01},
		// Alone on a clean path the sender doubles its rate from
		// s/RTT, so its packet spacing divides the RTT exactly and data
		// arrivals tie with the receiver's once-per-RTT report timer to
		// the last bit. The simulation breaks those ties by float
		// rounding, the wire endpoints by their nanosecond clock; one
		// packet more or less in a report's receive rate moves the
		// slow-start exit, and the loss history — fed only by the
		// flow's own rare queue overflows — remembers it for minutes.
		// The throughput does not care.
		{"clean", 0, 0.40, 0.01},
	} {
		t.Run(c.name, func(t *testing.T) {
			want, got := simulated(c.corrupt), wired(c.corrupt)
			off := func(what string, at int, sim, wire, tol float64) float64 {
				d := math.Abs(wire-sim) / sim
				if !(d <= tol) {
					t.Errorf("%s at %d s: sim %v, wire %v (off by %.1f%%, tolerance %.0f%%)", what, at, sim, wire, 100*d, 100*tol)
				}
				return d
			}
			var worstRate, worstP float64
			for i := 0; i < seconds; i++ {
				worstRate = math.Max(worstRate, off("send rate", i+1, want.rate[i], got.rate[i], c.tol))
				if want.p[i] != 0 || got.p[i] != 0 {
					worstP = math.Max(worstP, off("loss event rate", i+1, want.p[i], got.p[i], c.tol))
				}
			}
			dSent := off("packets sent", seconds, float64(want.sent), float64(got.sent), c.sentTol)
			t.Logf("largest disagreement: send rate %.2f%%, loss event rate %.2f%%, packets sent %.2f%% (%d vs %d)",
				100*worstRate, 100*worstP, 100*dSent, want.sent, got.sent)
		})
	}
}
