package exp

import (
	"fmt"
	"io"

	"tfrc/internal/faults"
	"tfrc/internal/netsim"
	"tfrc/internal/sim"
	"tfrc/internal/stats"
)

// BWStepParams is the bandwidth-step transient: TFRC and TCP flows share
// a dumbbell whose bottleneck rate drops to Factor of nominal at StepAt
// and restores at RestoreAt — two bandwidth faults on the bottleneck.
// The metrics are how quickly and smoothly each protocol tracks the
// change.
type BWStepParams struct {
	NTCP, NTFRC int
	LinkMbps    float64
	Factor      float64 // step-down multiplier in (0, 1); default 0.5
	StepAt      float64
	RestoreAt   float64
	Duration    float64
	BinWidth    float64
	Queue       netsim.QueueKind
	Seed        int64

	// Seeds > 1 repeats the run at that many seeds, reporting the phase
	// aggregates as means with 90% confidence half-widths.
	Seeds int
}

// DefaultBWStep is the laptop-scale transient.
func DefaultBWStep() BWStepParams {
	return BWStepParams{
		NTCP: 2, NTFRC: 2,
		LinkMbps:  8,
		Factor:    0.5,
		StepAt:    30,
		RestoreAt: 60,
		Duration:  90,
		BinWidth:  0.5,
		Queue:     netsim.QueueRED,
		Seed:      1,
	}
}

// PaperBWStep is the full-scale transient -preset paper selects.
func PaperBWStep() BWStepParams {
	p := DefaultBWStep()
	p.NTCP, p.NTFRC = 8, 8
	p.LinkMbps = 15
	p.StepAt, p.RestoreAt, p.Duration = 100, 200, 300
	return p
}

// Validate implements Params.
func (p *BWStepParams) Validate() error {
	var v checks
	check(&v, p.NTCP >= 0 && p.NTFRC >= 0 && p.NTCP+p.NTFRC >= 1, "need at least one flow, got NTCP=%d NTFRC=%d", p.NTCP, p.NTFRC)
	positive(&v, "LinkMbps", p.LinkMbps)
	check(&v, 0 <= p.Factor && p.Factor < 1, "Factor must be in (0, 1) (or 0 for the default 0.5), got %v", p.Factor)
	check(&v, 0 < p.StepAt && p.StepAt < p.RestoreAt && p.RestoreAt <= p.Duration,
		"need 0 < StepAt < RestoreAt <= Duration, got StepAt=%v RestoreAt=%v Duration=%v", p.StepAt, p.RestoreAt, p.Duration)
	positive(&v, "BinWidth", p.BinWidth)
	nonNegative(&v, "Seeds", p.Seeds)
	return v.err
}

// bwstep is one cell per replicate.
func init() {
	Define(Spec[BWStepParams, BWStepResult, *BWStepResult]{
		Name:        "bwstep",
		Description: "tracking a bottleneck bandwidth step",
		Default:     DefaultBWStep,
		Presets:     map[string]func() BWStepParams{"paper": PaperBWStep},
		Cells:       func(p *BWStepParams) int { return replicas(p.Seeds) },
		Cell: func(sched *sim.Scheduler, p *BWStepParams, rep int) BWStepResult {
			pr := *p
			if pr.Factor == 0 {
				pr.Factor = 0.5
			}
			return runBWStepSeed(sched, pr, replicaSeed(pr.Seed, rep))
		},
		Reduce: bwStepReduce,
	})
}

// BWStepPhase aggregates one phase (before / squeezed / after) of the
// transient: per-protocol aggregate throughput as a fraction of the
// phase's capacity, and the TFRC smoothness within the phase.
type BWStepPhase struct {
	Name     string
	TFRCFrac float64 // TFRC aggregate / phase capacity
	TCPFrac  float64
	CoVTFRC  float64 // CoV of the TFRC aggregate within the phase

	TFRCFracCI float64
	TCPFracCI  float64
}

// BWStepResult carries the aggregate traces and the phase summaries.
type BWStepResult struct {
	Params    BWStepParams
	BinWidth  float64
	TFRCTotal []float64 // aggregate bytes per bin
	TCPTotal  []float64
	Capacity  []float64 // capacity per bin, bytes
	Phases    []BWStepPhase
	QueueMax  int
	DropRate  float64
	Seeds     int
}

func runBWStepSeed(sched *sim.Scheduler, pr BWStepParams, seed int64) BWStepResult {
	rng := sched.NewRand(seed)
	bw := pr.LinkMbps * 1e6
	d := houseDumbbell(sched, pr.NTCP+pr.NTFRC, bw, 0.025, pr.Queue, seed)

	// The bottleneck is a time-varying link: a rate step and its restore.
	step := faults.Schedule{Faults: []faults.Fault{
		{At: pr.StepAt, Link: "rl->rr", Kind: faults.BandwidthCollapse, Bandwidth: bw * pr.Factor},
		{At: pr.RestoreAt, Link: "rl->rr", Kind: faults.BandwidthCollapse, Bandwidth: bw},
	}}
	step.Apply(d.Topo)

	b := NewScenarioBuilder(d.Topo)
	b.MonitorLink("rl->rr", pr.BinWidth, 0)
	qm := b.MonitorQueue("rl->rr", 0.05, pr.Duration)

	placeMix(b, pr.NTCP, pr.NTFRC, rng, seed)
	res := b.Run(pr.Duration)

	out := BWStepResult{Params: pr, BinWidth: pr.BinWidth}
	out.TFRCTotal = sumSeries(res.TFRCSeries, res.Bins)
	out.TCPTotal = sumSeries(res.TCPSeries, res.Bins)
	out.Capacity = make([]float64, res.Bins)
	for i := range out.Capacity {
		t := float64(i) * pr.BinWidth
		c := bw
		if t >= pr.StepAt && t < pr.RestoreAt {
			c = bw * pr.Factor
		}
		out.Capacity[i] = c / 8 * pr.BinWidth
	}
	out.QueueMax = qm.Max()
	out.DropRate = res.DropRate
	b.Release()

	capacity := func(a, z int) (sum float64) {
		for _, c := range out.Capacity[a:z] {
			sum += c
		}
		return sum
	}
	phase := func(name string, lo, hi float64) BWStepPhase {
		p := BWStepPhase{Name: name}
		var a, z int
		p.TFRCFrac, p.TCPFrac, a, z = phaseFractions(out.TFRCTotal, out.TCPTotal, pr.BinWidth, lo, hi, capacity)
		p.CoVTFRC = stats.CoV(out.TFRCTotal[a:z])
		return p
	}
	// Skip a settling margin after each transition so the phase numbers
	// measure steady behavior, not the discontinuity itself.
	margin := 5.0
	out.Phases = []BWStepPhase{
		phase("before", margin, pr.StepAt),
		phase("squeezed", pr.StepAt+margin, pr.RestoreAt),
		phase("after", pr.RestoreAt+margin, pr.Duration),
	}
	return out
}

func sumSeries(series [][]float64, bins int) []float64 {
	out := make([]float64, bins)
	for _, s := range series {
		for i := 0; i < bins && i < len(s); i++ {
			out[i] += s[i]
		}
	}
	return out
}

// bwStepReduce collapses the replicates phase by phase.
func bwStepReduce(_ *BWStepParams, cells []BWStepResult) *BWStepResult {
	out := &cells[0]
	if len(cells) > 1 {
		out.Seeds = len(cells)
		for pi := range out.Phases {
			ph := &out.Phases[pi]
			ph.TFRCFrac, ph.TFRCFracCI = meanCI(cells, func(c *BWStepResult) float64 { return c.Phases[pi].TFRCFrac })
			ph.TCPFrac, ph.TCPFracCI = meanCI(cells, func(c *BWStepResult) float64 { return c.Phases[pi].TCPFrac })
			ph.CoVTFRC, _ = meanCI(cells, func(c *BWStepResult) float64 { return c.Phases[pi].CoVTFRC })
		}
	}
	return out
}

// bwStepColumns is the phase summary: fractions of the phase's capacity.
var bwStepColumns = []column[BWStepPhase]{
	{"phase", "%s", func(p *BWStepPhase) any { return p.Name }, nil},
	{"tfrcFrac", "%.3f", func(p *BWStepPhase) any { return p.TFRCFrac }, func(p *BWStepPhase) any { return p.TFRCFracCI }},
	{"tcpFrac", "%.3f", func(p *BWStepPhase) any { return p.TCPFrac }, func(p *BWStepPhase) any { return p.TCPFracCI }},
	{"tfrcCoV", "%.3f", func(p *BWStepPhase) any { return p.CoVTFRC }, nil},
}

// Table implements Result: the phase summary and the aggregate traces.
func (r *BWStepResult) Table(w io.Writer) {
	fmt.Fprintf(w, "# Bandwidth step: %.0f Mb/s bottleneck × %.2f during [%.0f, %.0f) s, %d TCP + %d TFRC\n",
		r.Params.LinkMbps, r.Params.Factor, r.Params.StepAt, r.Params.RestoreAt,
		r.Params.NTCP, r.Params.NTFRC)
	if r.Seeds > 1 {
		fmt.Fprintf(w, "# phase summary over %d seeds (fraction of phase capacity)\n", r.Seeds)
	}
	writeColumns(w, bwStepColumns, r.Phases, r.Seeds > 1)
	fmt.Fprintf(w, "# max queue %d pkts, drop rate %.4f\n", r.QueueMax, r.DropRate)
	fmt.Fprintln(w, "# time\ttfrcKBps\ttcpKBps\tcapKBps")
	writeMatrix(w, len(r.TFRCTotal), "%.1f", binStart(r.BinWidth), "%.1f",
		kbps(r.TFRCTotal, r.BinWidth), kbps(r.TCPTotal, r.BinWidth), kbps(r.Capacity, r.BinWidth))
}
