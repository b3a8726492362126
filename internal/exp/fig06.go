package exp

import (
	"fmt"
	"io"
	"slices"

	"tfrc/internal/netsim"
	"tfrc/internal/sim"
	"tfrc/internal/tcp"
)

// Fig06Params reproduces Figure 6: n TCP and n TFRC flows share a
// bottleneck across a grid of link rates and flow counts, for both
// DropTail and RED queues; the metric is the mean TCP throughput
// normalized by the fair share.
type Fig06Params struct {
	LinkMbps    []float64 // paper: 1..64
	TotalFlows  []int     // paper: 2..128 (half TCP, half TFRC)
	Queues      []netsim.QueueKind
	Duration    float64 // paper: 150 s
	MeasureTail float64 // paper: last 60 s
	Seed        int64

	// Seeds > 1 runs every grid cell that many times at distinct seeds
	// and reports per-cell means with 90% confidence half-widths — the
	// multi-seed mode the parallel runner makes affordable.
	Seeds int
}

// DefaultFig06 is a laptop-scale grid preserving the paper's span; the
// CLI can pass the full one.
func DefaultFig06() Fig06Params {
	return Fig06Params{
		LinkMbps:    []float64{1, 4, 16, 64},
		TotalFlows:  []int{2, 8, 32},
		Queues:      []netsim.QueueKind{netsim.QueueDropTail, netsim.QueueRED},
		Duration:    90,
		MeasureTail: 45,
		Seed:        1,
	}
}

// PaperFig06 is the full grid from the paper.
func PaperFig06() Fig06Params {
	p := DefaultFig06()
	p.LinkMbps = []float64{1, 2, 4, 8, 16, 32, 64}
	p.TotalFlows = []int{2, 8, 32, 128}
	p.Duration, p.MeasureTail = 150, 60
	return p
}

// Validate implements Params.
func (p *Fig06Params) Validate() error {
	var v checks
	nonEmpty(&v, "LinkMbps", len(p.LinkMbps))
	nonEmpty(&v, "TotalFlows", len(p.TotalFlows))
	nonEmpty(&v, "Queues", len(p.Queues))
	positive(&v, "LinkMbps", p.LinkMbps...)
	atLeast(&v, "TotalFlows", 2, p.TotalFlows...) // half TCP, half TFRC
	check(&v, 0 < p.MeasureTail && p.MeasureTail <= p.Duration, "need 0 < MeasureTail <= Duration, got MeasureTail=%v Duration=%v", p.MeasureTail, p.Duration)
	nonNegative(&v, "Seeds", p.Seeds)
	return v.err
}

// fig6 is the grid: (queue, link, flows) points in that nesting
// order, replicate-minor.
func init() {
	Define(Spec[Fig06Params, Fig06Cell, *Fig06Result]{
		Name:        "fig6",
		Aliases:     []string{"6"},
		Description: "normalized TCP throughput vs link rate × flows × queue",
		Default:     DefaultFig06,
		Presets:     map[string]func() Fig06Params{"paper": PaperFig06},
		Cells: func(p *Fig06Params) int {
			return len(p.Queues) * len(p.LinkMbps) * len(p.TotalFlows) * replicas(p.Seeds)
		},
		Cell: func(sched *sim.Scheduler, p *Fig06Params, idx int) Fig06Cell {
			at := unravel(idx, len(p.Queues), len(p.LinkMbps), len(p.TotalFlows), replicas(p.Seeds))
			return runFig06Cell(sched, p.Queues[at[0]], p.LinkMbps[at[1]], p.TotalFlows[at[2]],
				p.Duration, p.MeasureTail, replicaSeed(p.Seed, at[3]))
		},
		Reduce: fig06Reduce,
	})
}

// fig7 is the 15 Mb/s RED column of the Figure 6 grid, one cell per
// flow count.
func init() {
	Define(Spec[Fig07Params, Fig06Cell, *Fig07Result]{
		Name:        "fig7",
		Aliases:     []string{"7"},
		Description: "per-flow normalized throughput at 15 Mb/s RED",
		Default:     DefaultFig07,
		Presets:     map[string]func() Fig07Params{"paper": PaperFig07},
		Cells:       func(p *Fig07Params) int { return len(p.TotalFlows) },
		Cell: func(sched *sim.Scheduler, p *Fig07Params, idx int) Fig06Cell {
			return runFig06Cell(sched, netsim.QueueRED, 15, p.TotalFlows[idx], p.Duration, p.MeasureTail, p.Seed)
		},
		Reduce: func(_ *Fig07Params, cells []Fig06Cell) *Fig07Result { return &Fig07Result{Cells: cells} },
	})
}

// Fig06Cell is one grid cell.
type Fig06Cell struct {
	Queue       netsim.QueueKind
	LinkMbps    float64
	Flows       int // total (TCP + TFRC)
	NormTCP     float64
	NormTFRC    float64
	Utilization float64
	DropRate    float64
	PerFlowTCP  []float64 // normalized per-flow throughputs (Figure 7)
	PerFlowTFRC []float64

	// Multi-seed statistics: with Seeds > 1 the scalar metrics above are
	// means across seeds and the CI fields carry their 90% confidence
	// half-widths; PerFlowTCP/PerFlowTFRC remain the first seed's sample
	// (per-flow vectors are Figure 7 scatter input, not aggregated).
	// Seeds ≤ 1 leaves the CIs zero.
	Seeds      int
	NormTCPCI  float64
	NormTFRCCI float64
}

// Fig06Result is the full surface.
type Fig06Result struct{ Cells []Fig06Cell }

// fig06Scenario is one cell of the grid: flows/2 TCP and flows/2 TFRC
// flows, measured over the last tail seconds.
func fig06Scenario(queue netsim.QueueKind, linkMbps float64, flows int, duration, tail float64, seed int64) Scenario {
	return Scenario{
		NTCP:         flows / 2,
		NTFRC:        flows / 2,
		BottleneckBW: linkMbps * 1e6,
		Queue:        queue,
		TCPVariant:   tcp.Sack,
		Duration:     duration,
		Warmup:       duration - tail,
		BinWidth:     0.5,
		Seed:         seed,
	}
}

// runFig06Cell runs one cell of the grid on the worker's scheduler.
func runFig06Cell(sched *sim.Scheduler, queue netsim.QueueKind, linkMbps float64, flows int, duration, tail float64, seed int64) Fig06Cell {
	res := runScenarioCell(sched, fig06Scenario(queue, linkMbps, flows, duration, tail, seed))
	return Fig06Cell{
		Queue:       queue,
		LinkMbps:    linkMbps,
		Flows:       flows,
		NormTCP:     res.NormalizedMeanTCP(),
		NormTFRC:    res.NormalizedMeanTFRC(),
		Utilization: res.Utilization,
		DropRate:    res.DropRate,
		PerFlowTCP:  res.NormalizedPerFlow(res.TCPSeries),
		PerFlowTFRC: res.NormalizedPerFlow(res.TFRCSeries),
	}
}

// fig06Reduce aggregates the full cell set in index order: each grid
// point's seed replicates collapse to means with 90% CI half-widths.
func fig06Reduce(pr *Fig06Params, raw []Fig06Cell) *Fig06Result {
	return &Fig06Result{Cells: reducePoints(raw, pr.Seeds, func(cell *Fig06Cell, group []Fig06Cell) {
		cell.Seeds = len(group)
		cell.NormTCP, cell.NormTCPCI = meanCI(group, func(g *Fig06Cell) float64 { return g.NormTCP })
		cell.NormTFRC, cell.NormTFRCCI = meanCI(group, func(g *Fig06Cell) float64 { return g.NormTFRC })
		cell.Utilization, _ = meanCI(group, func(g *Fig06Cell) float64 { return g.Utilization })
		cell.DropRate, _ = meanCI(group, func(g *Fig06Cell) float64 { return g.DropRate })
	})}
}

// fig06Columns is the surface as rows.
var fig06Columns = []column[Fig06Cell]{
	{"queue", "%s", func(c *Fig06Cell) any { return c.Queue }, nil},
	{"link(Mbps)", "%.0f", func(c *Fig06Cell) any { return c.LinkMbps }, nil},
	{"flows", "%d", func(c *Fig06Cell) any { return c.Flows }, nil},
	{"normTCP", "%.3f", func(c *Fig06Cell) any { return c.NormTCP }, func(c *Fig06Cell) any { return c.NormTCPCI }},
	{"normTFRC", "%.3f", func(c *Fig06Cell) any { return c.NormTFRC }, func(c *Fig06Cell) any { return c.NormTFRCCI }},
	{"util", "%.3f", func(c *Fig06Cell) any { return c.Utilization }, nil},
	{"dropRate", "%.4f", func(c *Fig06Cell) any { return c.DropRate }, nil},
}

// Table implements Result; multi-seed runs gain CI columns.
func (r *Fig06Result) Table(w io.Writer) {
	fmt.Fprintln(w, "# Figure 6: normalized mean TCP throughput when competing with TFRC")
	multiSeed := slices.ContainsFunc(r.Cells, func(c Fig06Cell) bool { return c.Seeds > 1 })
	writeColumns(w, fig06Columns, r.Cells, multiSeed)
}

// Fig07Params selects the Figure 7 column: the flow counts to run at
// 15 Mb/s RED.
type Fig07Params struct {
	TotalFlows  []int
	Duration    float64
	MeasureTail float64
	Seed        int64
}

// DefaultFig07 is the laptop-scale column.
func DefaultFig07() Fig07Params {
	return Fig07Params{TotalFlows: []int{16, 32, 64}, Duration: 60, MeasureTail: 30, Seed: 1}
}

// PaperFig07 is the paper's full flow ladder.
func PaperFig07() Fig07Params {
	p := DefaultFig07()
	p.TotalFlows = []int{16, 32, 48, 64, 80, 96, 112, 128}
	p.Duration, p.MeasureTail = 150, 60
	return p
}

// Validate implements Params.
func (p *Fig07Params) Validate() error {
	var v checks
	nonEmpty(&v, "TotalFlows", len(p.TotalFlows))
	atLeast(&v, "TotalFlows", 2, p.TotalFlows...) // half TCP, half TFRC
	check(&v, 0 < p.MeasureTail && p.MeasureTail <= p.Duration, "need 0 < MeasureTail <= Duration, got MeasureTail=%v Duration=%v", p.MeasureTail, p.Duration)
	return v.err
}

// Fig07Result wraps the per-flow scatter cells.
type Fig07Result struct{ Cells []Fig06Cell }

// Table implements Result: the per-flow scatter for the 15 Mb/s RED
// column, one row per flow.
func (r *Fig07Result) Table(w io.Writer) {
	fmt.Fprintln(w, "# Figure 7: per-flow normalized throughput, RED")
	fmt.Fprintln(w, "# flows\tprotocol\tnormThroughput")
	for _, c := range r.Cells {
		for _, v := range c.PerFlowTCP {
			fmt.Fprintf(w, "%d\tTCP\t%.3f\n", c.Flows, v)
		}
		for _, v := range c.PerFlowTFRC {
			fmt.Fprintf(w, "%d\tTFRC\t%.3f\n", c.Flows, v)
		}
	}
}
