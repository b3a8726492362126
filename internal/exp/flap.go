package exp

import (
	"fmt"
	"io"

	"tfrc/internal/faults"
	"tfrc/internal/netsim"
	"tfrc/internal/sim"
)

// FlapParams is the link-flap soak: TFRC and TCP flows share a dumbbell
// whose bottleneck goes hard down for DownFor seconds at the start of
// each Period, Flaps times in a row. Held-mode outages park the queue
// and drain it on heal; drop-mode outages flush it. The metrics are the
// utilization fractions before, during, and after the flapping window —
// the "after" fraction recovering to the "before" level is the
// robustness claim.
type FlapParams struct {
	NTCP, NTFRC int
	LinkMbps    float64
	FlapStart   float64
	Period      float64 // seconds between consecutive down-transitions
	DownFor     float64 // seconds each outage lasts (< Period)
	Flaps       int
	// Drain holds queued packets across each outage instead of flushing
	// them (faults.Fault.Drain semantics).
	Drain    bool
	Duration float64
	BinWidth float64
	Queue    netsim.QueueKind
	Seed     int64
}

// DefaultFlap is the laptop-scale flap run: four 500 ms outages, 5 s
// apart, on an 8 Mb/s bottleneck.
func DefaultFlap() FlapParams {
	return FlapParams{
		NTCP: 2, NTFRC: 2,
		LinkMbps:  8,
		FlapStart: 30,
		Period:    5,
		DownFor:   0.5,
		Flaps:     4,
		Drain:     true,
		Duration:  90,
		BinWidth:  0.5,
		Queue:     netsim.QueueRED,
		Seed:      1,
	}
}

// Validate implements Params.
func (p *FlapParams) Validate() error {
	var v checks
	check(&v, p.NTCP >= 0 && p.NTFRC >= 0 && p.NTCP+p.NTFRC >= 1, "need at least one flow, got NTCP=%d NTFRC=%d", p.NTCP, p.NTFRC)
	positive(&v, "LinkMbps", p.LinkMbps)
	atLeast(&v, "Flaps", 1, p.Flaps)
	check(&v, 0 < p.DownFor && p.DownFor < p.Period, "need 0 < DownFor < Period, got DownFor=%v Period=%v", p.DownFor, p.Period)
	end := p.FlapStart + float64(p.Flaps-1)*p.Period + p.DownFor
	check(&v, 0 < p.FlapStart && end < p.Duration, "flap window [%v, %v) must sit inside (0, Duration=%v)", p.FlapStart, end, p.Duration)
	positive(&v, "BinWidth", p.BinWidth)
	return v.err
}

func init() {
	Define(single("flap", "riding out repeated hard outages of the bottleneck",
		nil, DefaultFlap, flapCell))
}

// FlapPhase is one phase's utilization summary.
type FlapPhase struct {
	Name     string
	TFRCFrac float64 // TFRC aggregate / nominal phase capacity
	TCPFrac  float64
}

// FlapResult carries the phase summaries and the aggregate traces.
type FlapResult struct {
	Params    FlapParams
	BinWidth  float64
	FlapEnd   float64 // when the last outage healed
	Phases    []FlapPhase
	TFRCTotal []float64 // aggregate bytes per bin
	TCPTotal  []float64
	DropRate  float64
}

func flapCell(sched *sim.Scheduler, pr *FlapParams) *FlapResult {
	rng := sched.NewRand(pr.Seed)
	bw := pr.LinkMbps * 1e6
	d := houseDumbbell(sched, pr.NTCP+pr.NTFRC, bw, 0.025, pr.Queue, pr.Seed)

	flaps := faults.Flap("rl->rr", pr.FlapStart, pr.Period, pr.DownFor, pr.Flaps, pr.Drain, false)
	flaps.Apply(d.Topo)

	b := NewScenarioBuilder(d.Topo)
	b.MonitorLink("rl->rr", pr.BinWidth, 0)

	placeMix(b, pr.NTCP, pr.NTFRC, rng, pr.Seed)
	res := b.Run(pr.Duration)

	out := &FlapResult{
		Params:    *pr,
		BinWidth:  pr.BinWidth,
		FlapEnd:   pr.FlapStart + float64(pr.Flaps-1)*pr.Period + pr.DownFor,
		TFRCTotal: sumSeries(res.TFRCSeries, res.Bins),
		TCPTotal:  sumSeries(res.TCPSeries, res.Bins),
		DropRate:  res.DropRate,
	}
	b.Release()

	capPerBin := bw / 8 * pr.BinWidth
	capacity := func(a, z int) float64 { return capPerBin * float64(z-a) }
	phase := func(name string, lo, hi float64) FlapPhase {
		p := FlapPhase{Name: name}
		p.TFRCFrac, p.TCPFrac, _, _ = phaseFractions(out.TFRCTotal, out.TCPTotal, pr.BinWidth, lo, hi, capacity)
		return p
	}
	margin := 5.0
	out.Phases = []FlapPhase{
		phase("before", margin, pr.FlapStart),
		phase("flapping", pr.FlapStart, out.FlapEnd),
		phase("recovered", out.FlapEnd+margin, pr.Duration),
	}
	return out
}

// Table implements Result: the phase summary and the aggregate traces.
func (r *FlapResult) Table(w io.Writer) {
	mode := "drop"
	if r.Params.Drain {
		mode = "hold"
	}
	fmt.Fprintf(w, "# Link flaps: %d × %.2f s down (%s) every %.1f s from %.0f s, %.0f Mb/s bottleneck, %d TCP + %d TFRC\n",
		r.Params.Flaps, r.Params.DownFor, mode, r.Params.Period, r.Params.FlapStart,
		r.Params.LinkMbps, r.Params.NTCP, r.Params.NTFRC)
	fmt.Fprintln(w, "# phase\ttfrcFrac\ttcpFrac")
	for _, p := range r.Phases {
		fmt.Fprintf(w, "%s\t%.3f\t%.3f\n", p.Name, p.TFRCFrac, p.TCPFrac)
	}
	fmt.Fprintf(w, "# drop rate %.4f\n", r.DropRate)
	fmt.Fprintln(w, "# time\ttfrcKBps\ttcpKBps")
	writeMatrix(w, len(r.TFRCTotal), "%.1f", binStart(r.BinWidth), "%.1f",
		kbps(r.TFRCTotal, r.BinWidth), kbps(r.TCPTotal, r.BinWidth))
}
