package exp

import (
	"fmt"
	"io"

	"tfrc/internal/netsim"
	"tfrc/internal/sim"
	"tfrc/internal/tcp"
)

// Fig11Params reproduces Figures 11-13: one long-lived TCP and one
// long-lived TFRC flow monitored over self-similar ON/OFF background
// traffic (mean ON 1 s, mean OFF 2 s, 500 kb/s while ON, Pareto shape
// 1.5) on the 15 Mb/s RED bottleneck, sweeping the number of sources.
type Fig11Params struct {
	Sources    []int // paper: 50..150
	Duration   float64
	Warmup     float64
	Timescales []float64
	Runs       int
	Seed       int64
}

// DefaultFig11 reduces the paper's 5000 s × 10 runs to test scale.
func DefaultFig11() Fig11Params {
	return Fig11Params{
		Sources:    []int{60, 100, 130, 150},
		Duration:   200,
		Warmup:     50,
		Timescales: []float64{0.5, 1, 2, 5, 10, 20, 50},
		Runs:       2,
		Seed:       1,
	}
}

// PaperFig11 matches the paper's scale (long!).
func PaperFig11() Fig11Params {
	p := DefaultFig11()
	p.Sources = []int{50, 60, 70, 80, 90, 100, 110, 120, 130, 140, 150}
	p.Duration = 5000
	p.Warmup = 100
	p.Runs = 10
	return p
}

// Validate implements Params.
func (p *Fig11Params) Validate() error {
	var v checks
	nonEmpty(&v, "Sources", len(p.Sources))
	atLeast(&v, "Sources", 1, p.Sources...)
	window(&v, "Warmup", p.Warmup, "Duration", p.Duration)
	nonEmpty(&v, "Timescales", len(p.Timescales))
	positive(&v, "Timescales", p.Timescales...)
	atLeast(&v, "Runs", 1, p.Runs)
	return v.err
}

// fig11 flattens the sweep source-major, run-minor.
func init() {
	Define(Spec[Fig11Params, Fig11Cell, *Fig11Result]{
		Name:        "fig11",
		Aliases:     []string{"11", "fig12", "12", "fig13", "13"},
		Description: "ON/OFF background sweep (incl. figs 12, 13)",
		Default:     DefaultFig11,
		Presets:     map[string]func() Fig11Params{"paper": PaperFig11},
		Cells:       func(p *Fig11Params) int { return len(p.Sources) * p.Runs },
		Cell:        fig11Cell,
		Reduce:      fig11Reduce,
	})
}

// Fig11Row summarizes one source count.
type Fig11Row struct {
	Sources  int
	LossRate MeanCI // bottleneck drop fraction (Figure 11)
	// Per-timescale metrics (Figures 12 and 13), aligned with
	// Params.Timescales.
	EqTCPvTFRC []MeanCI
	CoVTFRC    []MeanCI
	CoVTCP     []MeanCI
}

// Fig11Result is the sweep.
type Fig11Result struct {
	Timescales []float64
	Rows       []Fig11Row
}

// Fig11Cell is one (source count, run) cell's harvest. Exported (with
// JSON-round-trippable fields) so the sweep is shard-able.
type Fig11Cell struct {
	Loss    float64
	Eq      []float64 // aligned with Params.Timescales
	CoVTFRC []float64
	CoVTCP  []float64
}

// fig11Cell is one (source count, run) simulation; its seed derives
// from those absolute coordinates.
func fig11Cell(sched *sim.Scheduler, pr *Fig11Params, idx int) Fig11Cell {
	const base = 0.1
	at := unravel(idx, len(pr.Sources), pr.Runs)
	n, run := pr.Sources[at[0]], at[1]
	sr := runScenarioCell(sched, Scenario{
		NTCP:          1,
		NTFRC:         1,
		BottleneckBW:  15e6,
		BottleneckDly: 0.025,
		Queue:         netsim.QueueRED,
		QueueLimit:    100,
		REDMin:        10,
		REDMax:        50,
		TCPVariant:    tcp.Sack,
		OnOffSources:  n,
		Duration:      pr.Duration,
		Warmup:        pr.Warmup,
		BinWidth:      base,
		Seed:          pr.Seed + int64(run)*977 + int64(n),
	})
	out := Fig11Cell{Loss: sr.DropRate}
	out.Eq, out.CoVTCP, out.CoVTFRC = timescaleCurves(sr.TCPSeries[0], sr.TFRCSeries[0], base, pr.Timescales)
	return out
}

// fig11Reduce aggregates each source count's runs in run order.
func fig11Reduce(pr *Fig11Params, cells []Fig11Cell) *Fig11Result {
	res := &Fig11Result{Timescales: pr.Timescales}
	for si, n := range pr.Sources {
		group := cells[si*pr.Runs : (si+1)*pr.Runs]
		nscale := len(pr.Timescales)
		row := Fig11Row{
			Sources:    n,
			EqTCPvTFRC: meanCICurve(group, nscale, func(c *Fig11Cell) []float64 { return c.Eq }),
			CoVTFRC:    meanCICurve(group, nscale, func(c *Fig11Cell) []float64 { return c.CoVTFRC }),
			CoVTCP:     meanCICurve(group, nscale, func(c *Fig11Cell) []float64 { return c.CoVTCP }),
		}
		row.LossRate.Mean, row.LossRate.CI = meanCI(group, func(c *Fig11Cell) float64 { return c.Loss })
		res.Rows = append(res.Rows, row)
	}
	return res
}

// Table implements Result: all three figures' rows.
func (r *Fig11Result) Table(w io.Writer) {
	fmt.Fprintln(w, "# Figure 11: bottleneck loss rate vs number of ON/OFF sources")
	fmt.Fprintln(w, "# sources\tlossRate\tci")
	for _, row := range r.Rows {
		fmt.Fprintf(w, "%d\t%.4f\t%.4f\n", row.Sources, row.LossRate.Mean, row.LossRate.CI)
	}
	fmt.Fprintln(w, "# Figure 12: TCP/TFRC equivalence ratio vs timescale, by source count")
	fmt.Fprint(w, "# timescale")
	for _, row := range r.Rows {
		fmt.Fprintf(w, "\tN=%d", row.Sources)
	}
	fmt.Fprintln(w)
	// means is one curve per source count: the mean of f at each timescale.
	means := func(f func(*Fig11Row) []MeanCI) (out []curve) {
		for j := range r.Rows {
			out = append(out, func(i int) float64 { return f(&r.Rows[j])[i].Mean })
		}
		return out
	}
	eq := means(func(row *Fig11Row) []MeanCI { return row.EqTCPvTFRC })
	writeMatrix(w, len(r.Timescales), "%.1f", curveOf(r.Timescales), "%.3f", eq...)
	fmt.Fprintln(w, "# Figure 13: CoV vs timescale (TFRC, then TCP), by source count")
	cov := append(means(func(row *Fig11Row) []MeanCI { return row.CoVTFRC }),
		means(func(row *Fig11Row) []MeanCI { return row.CoVTCP })...)
	writeMatrix(w, len(r.Timescales), "%.1f", curveOf(r.Timescales), "%.3f", cov...)
}
