package exp

import (
	"fmt"
	"io"

	"tfrc/internal/netsim"
	"tfrc/internal/sim"
	"tfrc/internal/tcp"
)

// Fig09Params reproduces Figures 9 and 10: equivalence ratio and
// coefficient of variation as functions of the measurement timescale, for
// 16 SACK TCP and 16 TFRC flows on a 15 Mb/s RED bottleneck with
// per-flow base RTTs uniform in [80, 120] ms, averaged over several runs
// with 90% confidence intervals (the paper uses 14 runs of 150 s,
// measuring the last 100 s).
type Fig09Params struct {
	Runs       int
	FlowsEach  int // TCP count = TFRC count (paper: 16)
	Duration   float64
	Warmup     float64
	Timescales []float64
	Seed       int64
}

// DefaultFig09 is a reduced-cost version of the paper's setup.
func DefaultFig09() Fig09Params {
	return Fig09Params{
		Runs:       4,
		FlowsEach:  16,
		Duration:   60,
		Warmup:     20,
		Timescales: []float64{0.2, 0.5, 1, 2, 5, 10},
		Seed:       1,
	}
}

// PaperFig09 matches the paper's methodology.
func PaperFig09() Fig09Params {
	p := DefaultFig09()
	p.Runs = 14
	p.Duration = 150
	p.Warmup = 50
	return p
}

// Validate implements Params.
func (p *Fig09Params) Validate() error {
	var v checks
	atLeast(&v, "Runs", 1, p.Runs)
	check(&v, p.FlowsEach >= 2, "FlowsEach must be at least 2 (the equivalence ratio pairs flows), got %d", p.FlowsEach)
	window(&v, "Warmup", p.Warmup, "Duration", p.Duration)
	nonEmpty(&v, "Timescales", len(p.Timescales))
	positive(&v, "Timescales", p.Timescales...)
	return v.err
}

// fig9 is one cell per independent run.
func init() {
	Define(Spec[Fig09Params, Fig09Run, *Fig09Result]{
		Name:        "fig9",
		Aliases:     []string{"9", "fig10", "10"},
		Description: "equivalence ratio and CoV vs timescale (incl. fig 10)",
		Default:     DefaultFig09,
		Presets:     map[string]func() Fig09Params{"paper": PaperFig09},
		Cells:       func(p *Fig09Params) int { return p.Runs },
		Cell:        fig09Cell,
		Reduce:      fig09Reduce,
	})
}

// MeanCI is a mean with its 90% confidence half-width.
type MeanCI struct{ Mean, CI float64 }

// Fig09Result carries one curve per pairing (Figure 9) and the CoV
// curves (Figure 10).
type Fig09Result struct {
	Timescales []float64
	TCPvTCP    []MeanCI
	TFRCvTFRC  []MeanCI
	TCPvTFRC   []MeanCI
	CoVTCP     []MeanCI
	CoVTFRC    []MeanCI
}

// Fig09Run carries one run's per-timescale metrics, aligned with
// Params.Timescales. Exported (with JSON-round-trippable fields) so a
// run is a shard-able grid cell.
type Fig09Run struct {
	EqTT, EqFF, EqTF, CoVT, CoVF []float64
}

// fig09Cell is one run, an independent simulation whose seed derives
// from its absolute run index.
func fig09Cell(sched *sim.Scheduler, pr *Fig09Params, run int) Fig09Run {
	const base = 0.1
	res := runScenarioCell(sched, Scenario{
		NTCP:          pr.FlowsEach,
		NTFRC:         pr.FlowsEach,
		BottleneckBW:  15e6,
		BottleneckDly: 0.025,
		Queue:         netsim.QueueRED,
		QueueLimit:    100,
		REDMin:        10,
		REDMax:        50,
		AccessDlyMin:  0.0075,
		AccessDlyMax:  0.0175,
		TCPVariant:    tcp.Sack,
		Duration:      pr.Duration,
		Warmup:        pr.Warmup,
		BinWidth:      base,
		Seed:          pr.Seed + int64(run)*1000,
	})
	var out Fig09Run
	out.EqTT, _, _ = timescaleCurves(res.TCPSeries[0], res.TCPSeries[1], base, pr.Timescales)
	out.EqFF, _, _ = timescaleCurves(res.TFRCSeries[0], res.TFRCSeries[1], base, pr.Timescales)
	out.EqTF, out.CoVT, out.CoVF = timescaleCurves(res.TCPSeries[0], res.TFRCSeries[0], base, pr.Timescales)
	return out
}

// fig09Reduce aggregates all runs into per-timescale means with 90% CI.
func fig09Reduce(pr *Fig09Params, runs []Fig09Run) *Fig09Result {
	n := len(pr.Timescales)
	return &Fig09Result{
		Timescales: pr.Timescales,
		TCPvTCP:    meanCICurve(runs, n, func(r *Fig09Run) []float64 { return r.EqTT }),
		TFRCvTFRC:  meanCICurve(runs, n, func(r *Fig09Run) []float64 { return r.EqFF }),
		TCPvTFRC:   meanCICurve(runs, n, func(r *Fig09Run) []float64 { return r.EqTF }),
		CoVTCP:     meanCICurve(runs, n, func(r *Fig09Run) []float64 { return r.CoVT }),
		CoVTFRC:    meanCICurve(runs, n, func(r *Fig09Run) []float64 { return r.CoVF }),
	}
}

// Table implements Result: both figures' rows.
func (r *Fig09Result) Table(w io.Writer) {
	fmt.Fprintln(w, "# Figure 9: equivalence ratio vs measurement timescale (mean ± 90% CI)")
	fmt.Fprintln(w, "# timescale\tTFRCvTFRC\tci\tTCPvTCP\tci\tTFRCvTCP\tci")
	for i, ts := range r.Timescales {
		fmt.Fprintf(w, "%.1f\t%.3f\t%.3f\t%.3f\t%.3f\t%.3f\t%.3f\n", ts,
			r.TFRCvTFRC[i].Mean, r.TFRCvTFRC[i].CI,
			r.TCPvTCP[i].Mean, r.TCPvTCP[i].CI,
			r.TCPvTFRC[i].Mean, r.TCPvTFRC[i].CI)
	}
	fmt.Fprintln(w, "# Figure 10: coefficient of variation vs timescale")
	fmt.Fprintln(w, "# timescale\tTFRC\tci\tTCP\tci")
	for i, ts := range r.Timescales {
		fmt.Fprintf(w, "%.1f\t%.3f\t%.3f\t%.3f\t%.3f\n", ts,
			r.CoVTFRC[i].Mean, r.CoVTFRC[i].CI,
			r.CoVTCP[i].Mean, r.CoVTCP[i].CI)
	}
}
