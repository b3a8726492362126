package exp

import (
	"fmt"
	"io"

	"tfrc/internal/faults"
	"tfrc/internal/netsim"
	"tfrc/internal/sim"
	"tfrc/internal/stats"
)

// The dumbbell's bottleneck: rl->rr carries the data and is monitored,
// rr->rl carries the feedback. A phase waits settle seconds after the
// run starts or the capacity changes, for the flows to settle.
const (
	bottleneck   = "rl->rr"
	feedbackLink = "rr->rl"
	settle       = 5.0
)

// FaultPhaseParams is a fault program on a house dumbbell's bottleneck:
// NTCP SACK and NTFRC TFRC flows, starting in the first 5 s, share a
// LinkMbps bottleneck of Delay seconds one way while Faults runs on
// rl->rr or rr->rl. The metrics are each protocol's share of the
// capacity before, during and after the faults. It earns its place as
// the paper's §4.4 feedback blackout, the "§4.4 blackout" row of
// TestPaperClaims.
//
// The schedule sets the phases and the capacity; no other setting does.
// The fault window runs from the earliest fault to the latest. "before"
// is [settle, window start), "during" the window and "after" [window end
// + settle, Duration), settle being 5 s. A bandwidth fault on rl->rr
// changes the capacity the fractions are taken of, from its time on, and
// a window that opens with one starts settle later; an outage (down,
// blackhole) does not change the capacity, so the time a link is down
// counts as capacity unused.
type FaultPhaseParams struct {
	NTCP, NTFRC int
	LinkMbps    float64
	Delay       float64 // bottleneck one-way propagation delay, seconds
	Queue       netsim.QueueKind
	Duration    float64
	BinWidth    float64
	Seed        int64

	// Seeds > 1 repeats the run at that many seeds, reporting the phase
	// aggregates as means with 90% confidence half-widths.
	Seeds int

	Faults faults.Schedule
}

// DefaultFaultPhase is the laptop-scale bandwidth step: the bottleneck
// halves at 30 s and recovers at 60 s.
func DefaultFaultPhase() FaultPhaseParams {
	return FaultPhaseParams{
		NTCP: 2, NTFRC: 2, LinkMbps: 8, Delay: 0.025, Queue: netsim.QueueRED,
		Duration: 90, BinWidth: 0.5, Seed: 1,
		Faults: halveBottleneck(8e6, 30, 60),
	}
}

// halveBottleneck is two bandwidth faults: rl->rr at half of bw from
// from, back at bw from to.
func halveBottleneck(bw, from, to float64) faults.Schedule {
	return faults.Schedule{Faults: []faults.Fault{
		{At: from, Link: bottleneck, Kind: faults.BandwidthCollapse, Bandwidth: bw / 2},
		{At: to, Link: bottleneck, Kind: faults.BandwidthCollapse, Bandwidth: bw},
	}}
}

// faultPhasePresets are the full-scale bandwidth step ("paper"), §4.4's
// feedback blackout — one TFRC flow whose reports are all lost for 15 s,
// long enough for the halving cascade to pass one packet per RTO by a
// wide margin, healed 30 s before the end — and four 500 ms held outages
// of the bottleneck, 5 s apart ("flap").
var faultPhasePresets = map[string]func() FaultPhaseParams{
	"paper": func() FaultPhaseParams {
		p := DefaultFaultPhase()
		p.NTCP, p.NTFRC, p.LinkMbps, p.Duration = 8, 8, 15, 300
		p.Faults = halveBottleneck(15e6, 100, 200)
		return p
	},
	"blackout": func() FaultPhaseParams {
		p := DefaultFaultPhase()
		p.NTCP, p.NTFRC, p.LinkMbps, p.Duration = 0, 1, 4, 70
		p.Faults = faults.Blackout(feedbackLink, 25, 40)
		return p
	},
	"flap": func() FaultPhaseParams {
		p := DefaultFaultPhase()
		p.Faults = faults.Flap(bottleneck, 30, 5, 0.5, 4, true, false)
		return p
	},
}

// Validate implements Params.
func (p *FaultPhaseParams) Validate() error {
	var v checks
	check(&v, p.NTCP >= 0 && p.NTFRC >= 0 && p.NTCP+p.NTFRC >= 1, "need at least one flow, got NTCP=%d NTFRC=%d", p.NTCP, p.NTFRC)
	positive(&v, "LinkMbps", p.LinkMbps)
	nonNegative(&v, "Delay", p.Delay)
	queueKinds(&v, "Queue", p.Queue)
	positive(&v, "Duration", p.Duration)
	positive(&v, "BinWidth", p.BinWidth)
	binCount(&v, p.Duration, p.BinWidth)
	nonNegative(&v, "Seeds", p.Seeds)
	nonEmpty(&v, "Faults.faults", len(p.Faults.Faults))
	if err := p.Faults.Validate(); err != nil {
		v.fail("%w", err)
	}
	for i := range p.Faults.Faults {
		f := &p.Faults.Faults[i]
		if f.Link != bottleneck && f.Link != feedbackLink {
			v.fail("faults[%d]: link %q is not the bottleneck (%s or %s)", i, f.Link, bottleneck, feedbackLink)
		}
		check(&v, 0 < f.At && f.At <= p.Duration, "faults[%v] at %v must be in (0, Duration=%v]", float64(i), f.At, p.Duration)
	}
	return v.err
}

// window returns the fault window [from, to) and when "during" starts.
func (p *FaultPhaseParams) window() (from, to, during float64) {
	first := &p.Faults.Faults[0]
	to = first.At
	for i := range p.Faults.Faults {
		f := &p.Faults.Faults[i]
		if f.At < first.At {
			first = f
		}
		to = max(to, f.At)
	}
	from, during = first.At, first.At
	if first.Link == bottleneck && first.Kind == faults.BandwidthCollapse {
		during += settle
	}
	return from, to, during
}

// capacity is the bottleneck's rate at time t in bits/sec: the last
// bandwidth fault on it fired by then, or LinkMbps.
func (p *FaultPhaseParams) capacity(t float64) float64 {
	c, at := p.LinkMbps*1e6, -1.0
	for _, f := range p.Faults.Faults {
		if f.Link == bottleneck && f.Kind == faults.BandwidthCollapse && f.At <= t && f.At >= at {
			c, at = f.Bandwidth, f.At
		}
	}
	return c
}

// faultphase is one cell per replicate.
func init() {
	Define(Spec[FaultPhaseParams, FaultPhaseResult, *FaultPhaseResult]{
		Name:        "faultphase",
		Description: "flows riding out a fault program on the bottleneck",
		Default:     DefaultFaultPhase,
		Presets:     faultPhasePresets,
		Cells:       func(p *FaultPhaseParams) int { return replicas(p.Seeds) },
		Cell: func(sched *sim.Scheduler, p *FaultPhaseParams, rep int) FaultPhaseResult {
			_, run := faultPhaseScenario(sched, p, replicaSeed(p.Seed, rep))
			return run()
		},
		Reduce: faultPhaseReduce,
	})
}

// FaultPhase summarizes one phase: each protocol's aggregate throughput
// as a fraction of the phase's capacity, and the TFRC aggregate's CoV
// within the phase.
type FaultPhase struct {
	Name                  string
	TFRCFrac, TCPFrac     float64
	CoVTFRC               float64
	TFRCFracCI, TCPFracCI float64
}

// FaultPhaseResult carries the phase summaries, the aggregate traces,
// and TFRC flow 0's no-feedback halvings and allowed-rate trace.
type FaultPhaseResult struct {
	Params    FaultPhaseParams
	Phases    []FaultPhase
	TFRCTotal []float64 // aggregate bytes per bin
	TCPTotal  []float64
	Capacity  []float64 // bytes the bottleneck could carry per bin
	QueueMax  int
	DropRate  float64
	NoFbCuts  int64
	Rates     []faults.RatePoint
	Seeds     int
}

// faultPhaseScenario builds one replicate of p at seed and returns its
// builder and the call that runs and harvests it, so a test can tap the
// topology in between.
func faultPhaseScenario(sched *sim.Scheduler, p *FaultPhaseParams, seed int64) (*ScenarioBuilder, func() FaultPhaseResult) {
	rng := sched.NewRand(seed)
	d := houseDumbbell(sched, p.NTCP+p.NTFRC, p.LinkMbps*1e6, p.Delay, p.Queue, seed)
	p.Faults.Apply(d.Topo)

	b := NewScenarioBuilder(d.Topo)
	b.MonitorLink(bottleneck, p.BinWidth, 0)
	b.MonitorQueue(bottleneck, 0.05, p.Duration)
	placeMix(b, p.NTCP, p.NTFRC, rng, seed)

	out := FaultPhaseResult{Params: *p}
	if p.NTFRC > 0 {
		b.TFRCSender(0).OnRateChange = func(now, rate float64) {
			out.Rates = append(out.Rates, faults.RatePoint{T: now, Rate: rate})
		}
	}
	return b, func() FaultPhaseResult {
		res := b.runInPlace(p.Duration)
		out.TFRCTotal = sumSeries(res.TFRCSeries, res.Bins)
		out.TCPTotal = sumSeries(res.TCPSeries, res.Bins)
		out.QueueMax, out.DropRate = res.QueueMax, res.DropRate
		if p.NTFRC > 0 {
			out.NoFbCuts = b.TFRCSender(0).NoFbCuts
		}
		out.Capacity = make([]float64, res.Bins)
		for i := range out.Capacity {
			out.Capacity[i] = p.capacity(float64(i)*p.BinWidth) / 8 * p.BinWidth
		}
		from, to, during := p.window()
		out.Phases = []FaultPhase{
			out.phase("before", settle, from),
			out.phase("during", during, to),
			out.phase("after", to+settle, p.Duration),
		}
		return out
	}
}

// phase sums the aggregate traces over the bins of [lo, hi) seconds,
// clamped to the run; an empty window reports zeros.
func (r *FaultPhaseResult) phase(name string, lo, hi float64) FaultPhase {
	w := r.Params.BinWidth
	z := min(int(hi/w), len(r.TFRCTotal))
	a := min(int(lo/w), z)
	ph := FaultPhase{Name: name, CoVTFRC: stats.CoV(r.TFRCTotal[a:z])}
	if z > a {
		var tf, tc, c float64
		for i := a; i < z; i++ {
			tf += r.TFRCTotal[i]
			tc += r.TCPTotal[i]
			c += r.Capacity[i]
		}
		ph.TFRCFrac, ph.TCPFrac = tf/c, tc/c
	}
	return ph
}

// faultPhaseReduce collapses the replicates phase by phase.
func faultPhaseReduce(_ *FaultPhaseParams, cells []FaultPhaseResult) *FaultPhaseResult {
	out := &cells[0]
	if len(cells) > 1 {
		out.Seeds = len(cells)
		for pi := range out.Phases {
			ph := &out.Phases[pi]
			ph.TFRCFrac, ph.TFRCFracCI = meanCI(cells, func(c *FaultPhaseResult) float64 { return c.Phases[pi].TFRCFrac })
			ph.TCPFrac, ph.TCPFracCI = meanCI(cells, func(c *FaultPhaseResult) float64 { return c.Phases[pi].TCPFrac })
			ph.CoVTFRC, _ = meanCI(cells, func(c *FaultPhaseResult) float64 { return c.Phases[pi].CoVTFRC })
		}
	}
	return out
}

// faultPhaseColumns is the phase summary: fractions of the phase's capacity.
var faultPhaseColumns = []column[FaultPhase]{
	{"phase", "%s", func(p *FaultPhase) any { return p.Name }, nil},
	{"tfrcFrac", "%.3f", func(p *FaultPhase) any { return p.TFRCFrac }, func(p *FaultPhase) any { return p.TFRCFracCI }},
	{"tcpFrac", "%.3f", func(p *FaultPhase) any { return p.TCPFrac }, func(p *FaultPhase) any { return p.TCPFracCI }},
	{"tfrcCoV", "%.3f", func(p *FaultPhase) any { return p.CoVTFRC }, nil},
}

// Table implements Result: the phase summary and the per-bin traces,
// flow 0's allowed rate as it stood at each bin's end.
func (r *FaultPhaseResult) Table(w io.Writer) {
	p := &r.Params
	var from, to float64
	if len(p.Faults.Faults) > 0 { // a cell an interrupted run never started has none
		from, to, _ = p.window()
	}
	fmt.Fprintf(w, "# Fault phases: %d faults over [%g, %g) s, %g Mb/s bottleneck, %d TCP + %d TFRC\n",
		len(p.Faults.Faults), from, to, p.LinkMbps, p.NTCP, p.NTFRC)
	if r.Seeds > 1 {
		fmt.Fprintf(w, "# phase summary over %d seeds (fraction of phase capacity)\n", r.Seeds)
	}
	writeColumns(w, faultPhaseColumns, r.Phases, r.Seeds > 1)
	fmt.Fprintf(w, "# max queue %d pkts, drop rate %.4f, %d no-feedback cuts\n", r.QueueMax, r.DropRate, r.NoFbCuts)
	fmt.Fprintln(w, "# time\ttfrcKBps\ttcpKBps\tcapKBps\tallowedKBps")
	ri, rate := 0, 0.0
	allowed := func(i int) float64 {
		for ri < len(r.Rates) && r.Rates[ri].T <= float64(i+1)*p.BinWidth {
			rate = r.Rates[ri].Rate
			ri++
		}
		return rate / 1000
	}
	writeMatrix(w, len(r.TFRCTotal), "%.1f", binStart(p.BinWidth), "%.1f",
		kbps(r.TFRCTotal, p.BinWidth), kbps(r.TCPTotal, p.BinWidth), kbps(r.Capacity, p.BinWidth), allowed)
}
