package exp

import (
	"fmt"
	"io"

	"tfrc/internal/core"
	"tfrc/internal/faults"
	"tfrc/internal/netsim"
)

// BlackoutParams is the total-feedback-outage soak: one TFRC flow on a
// dumbbell whose reverse bottleneck blackholes every feedback packet
// during [OutageStart, OutageEnd). The experiment verifies the paper's
// §4.4 graceful-degradation story end to end — the no-feedback timer
// halves the rate down to at most one packet per RTO, the sender never
// goes silent or undercuts the one-packet-per-t_mbi floor, and goodput
// returns to ≥ RecoverFrac of its pre-fault level within RecoverRTTs
// round-trips of the heal.
type BlackoutParams struct {
	LinkMbps    float64
	Delay       float64 // bottleneck one-way propagation delay, seconds
	OutageStart float64
	OutageEnd   float64
	Duration    float64
	BinWidth    float64
	Queue       netsim.QueueKind
	// RecoverFrac of pre-fault goodput must return after heal (0: 0.9).
	RecoverFrac float64
	// RecoverRTTs bounds the post-heal recovery time, in round-trips.
	RecoverRTTs float64
	Seed        int64
}

// DefaultBlackout is the laptop-scale outage: 15 s of total feedback
// loss — long enough for the halving cascade to pass one packet per RTO
// by a wide margin — healed 30 s before the run ends.
func DefaultBlackout() BlackoutParams {
	return BlackoutParams{
		LinkMbps:    4,
		Delay:       0.025,
		OutageStart: 25,
		OutageEnd:   40,
		Duration:    70,
		BinWidth:    0.5,
		Queue:       netsim.QueueRED,
		RecoverRTTs: 100,
		Seed:        1,
	}
}

// Validate implements Params.
func (p *BlackoutParams) Validate() error {
	var v checks
	positive(&v, "LinkMbps", p.LinkMbps)
	nonNegative(&v, "Delay", p.Delay)
	check(&v, 0 < p.OutageStart && p.OutageStart < p.OutageEnd && p.OutageEnd < p.Duration,
		"need 0 < OutageStart < OutageEnd < Duration, got OutageStart=%v OutageEnd=%v Duration=%v", p.OutageStart, p.OutageEnd, p.Duration)
	positive(&v, "BinWidth", p.BinWidth)
	check(&v, 0 <= p.RecoverFrac && p.RecoverFrac <= 1, "RecoverFrac must be in [0, 1], got %v", p.RecoverFrac)
	nonNegative(&v, "RecoverRTTs", p.RecoverRTTs)
	return v.err
}

// SetSeed implements SeedSetter.
func (p *BlackoutParams) SetSeed(seed int64) { p.Seed = seed }

var runBlackout = Define(single("blackout", "graceful degradation through a total feedback outage",
	nil, DefaultBlackout, blackoutCell))

// RunBlackout runs the outage scenario and judges it with
// faults.CheckGraceful.
func RunBlackout(pr BlackoutParams) *BlackoutResult { return runBlackout(&pr) }

// BlackoutResult carries the graceful-degradation verdict plus the
// traces it was judged on.
type BlackoutResult struct {
	Params   BlackoutParams
	BinWidth float64
	RTT      float64 // propagation round-trip of the probe flow
	RTO      float64 // sender's 4·SRTT estimate as the outage began
	Floor    float64 // protocol floor, bytes/sec (one packet per t_mbi)
	NoFbCuts int64   // no-feedback halvings over the whole run
	Report   faults.GracefulReport
	Goodput  []float64          // delivered bytes per bin at the bottleneck
	Rates    []faults.RatePoint // allowed-rate trace
}

func blackoutCell(c *Cell, pr *BlackoutParams) *BlackoutResult {
	sched := c.begin()
	bw := pr.LinkMbps * 1e6
	d := houseDumbbell(sched, 1, bw, pr.Delay, pr.Queue, pr.Seed)

	b := NewScenarioBuilder(d.Topo)
	b.MonitorLink("rl->rr", pr.BinWidth, 0)

	tf := houseTFRC(pr.Seed)
	b.AddTFRC("l0", "r0", tf, 0)

	snd := b.TFRCSender(0)
	var rates []faults.RatePoint
	snd.OnRateChange = func(now, rate float64) {
		rates = append(rates, faults.RatePoint{T: now, Rate: rate})
	}
	var sends []float64
	d.Topo.LinkByName("l0->rl").AddTap(func(ev netsim.TapEvent, now float64, p *netsim.Packet) {
		if ev == netsim.TapArrive && p.Kind == netsim.KindData {
			sends = append(sends, now)
		}
	})

	// The fault: blackhole the reverse bottleneck, so every feedback
	// packet vanishes while data still flows.
	outage := faults.Blackout("rr->rl", pr.OutageStart, pr.OutageEnd)
	outage.Apply(d.Topo)

	// Sample the sender's own RTO estimate as the outage begins; the
	// degradation target "one packet per RTO" is judged against it.
	var rto float64
	sched.At(pr.OutageStart, func() { rto = snd.Core().RTT().RTO() })

	res := b.Run(pr.Duration)

	pkt := float64(tf.Sender.PacketSize)
	out := &BlackoutResult{
		Params:   *pr,
		BinWidth: pr.BinWidth,
		RTT:      d.RTT(0),
		RTO:      rto,
		Floor:    pkt / core.MaxBackoffInterval,
		NoFbCuts: snd.NoFbCuts,
		Goodput:  res.TFRCSeries[0],
		Rates:    rates,
	}
	b.Release()

	if rto <= 0 {
		rto = 2 // sender never measured an RTT; its initial timeout
	}
	out.Report = faults.CheckGraceful(faults.GracefulSpec{
		OutageStart:   pr.OutageStart,
		OutageEnd:     pr.OutageEnd,
		PreFrom:       pr.OutageStart / 2,
		PacketSize:    pkt,
		DegradeBelow:  pkt / rto,
		FloorRate:     out.Floor,
		RecoverFrac:   pr.RecoverFrac,
		RecoverWithin: pr.RecoverRTTs * d.RTT(0),
		RampSlack:     4,
	}, sends, rates, out.Goodput, pr.BinWidth)
	return out
}

// Table implements Result: the verdict and the goodput/allowed-rate
// traces.
func (r *BlackoutResult) Table(w io.Writer) {
	fmt.Fprintf(w, "# Feedback blackout: %.0f Mb/s bottleneck, outage [%.0f, %.0f) s of %.0f s\n",
		r.Params.LinkMbps, r.Params.OutageStart, r.Params.OutageEnd, r.Params.Duration)
	fmt.Fprintf(w, "# rtt %.1f ms, rto at outage %.0f ms, floor %.1f B/s, %d no-feedback cuts\n",
		r.RTT*1e3, r.RTO*1e3, r.Floor, r.NoFbCuts)
	fmt.Fprintf(w, "# %s\n", r.Report)
	fmt.Fprintln(w, "# time\tgoodputKBps\tallowedKBps")
	ri, rate := 0, 0.0
	for i := range r.Goodput {
		t := float64(i+1) * r.BinWidth
		for ri < len(r.Rates) && r.Rates[ri].T <= t {
			rate = r.Rates[ri].Rate
			ri++
		}
		fmt.Fprintf(w, "%.1f\t%.2f\t%.2f\n",
			float64(i)*r.BinWidth, r.Goodput[i]/1000/r.BinWidth, rate/1000)
	}
}
