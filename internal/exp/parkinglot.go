package exp

import (
	"fmt"
	"io"
	"strings"

	"tfrc/internal/netsim"
	"tfrc/internal/sim"
	"tfrc/internal/stats"
)

// ParkingLotParams is the multi-bottleneck fairness grid the single
// dumbbell cannot express: one TFRC and one TCP through flow cross k
// bottlenecks in a row while per-segment TCP cross traffic loads each
// bottleneck independently. The question is whether equation-based
// control keeps its TCP-fairness when congestion is spread over several
// points along the path — the parking-lot setting of the delay-based
// congestion-control literature.
type ParkingLotParams struct {
	Bottlenecks []int // grid axis: number of bottlenecks per cell
	CrossPairs  int   // TCP cross pairs per segment
	LinkMbps    float64
	Queue       netsim.QueueKind
	Duration    float64
	Warmup      float64
	Seed        int64

	// Seeds > 1 repeats every cell at that many seeds, reporting means
	// with 90% confidence half-widths.
	Seeds int
}

// DefaultParkingLot is the laptop-scale grid.
func DefaultParkingLot() ParkingLotParams {
	return ParkingLotParams{
		Bottlenecks: []int{1, 2, 3},
		CrossPairs:  2,
		LinkMbps:    4,
		Queue:       netsim.QueueRED,
		Duration:    60,
		Warmup:      20,
		Seed:        1,
	}
}

// PaperParkingLot is the full-scale grid -preset paper selects.
func PaperParkingLot() ParkingLotParams {
	p := DefaultParkingLot()
	p.Duration, p.Warmup = 300, 60
	p.LinkMbps = 15
	return p
}

// Validate implements Params.
func (p *ParkingLotParams) Validate() error {
	var v checks
	nonEmpty(&v, "Bottlenecks", len(p.Bottlenecks))
	atLeast(&v, "Bottlenecks", 1, p.Bottlenecks...)
	nonNegative(&v, "CrossPairs", p.CrossPairs)
	positive(&v, "LinkMbps", p.LinkMbps)
	window(&v, "Warmup", p.Warmup, "Duration", p.Duration)
	nonNegative(&v, "Seeds", p.Seeds)
	return v.err
}

// parkinglot is the grid, bottleneck-major, replicate-minor.
func init() {
	Define(Spec[ParkingLotParams, ParkingLotCell, *ParkingLotResult]{
		Name:        "parkinglot",
		Description: "through TFRC vs TCP across 1-3 bottlenecks",
		Default:     DefaultParkingLot,
		Presets:     map[string]func() ParkingLotParams{"paper": PaperParkingLot},
		Cells:       func(p *ParkingLotParams) int { return len(p.Bottlenecks) * replicas(p.Seeds) },
		Cell: func(sched *sim.Scheduler, p *ParkingLotParams, idx int) ParkingLotCell {
			at := unravel(idx, len(p.Bottlenecks), replicas(p.Seeds))
			return runParkingLotCell(sched, *p, p.Bottlenecks[at[0]], replicaSeed(p.Seed, at[1]))
		},
		Reduce: parkingLotReduce,
	})
}

// ParkingLotCell is one grid cell: the through flows' throughputs
// normalized by the single-bottleneck fair share, and the aggregate
// behavior of the most loaded bottleneck.
type ParkingLotCell struct {
	Bottlenecks int
	ThroughTFRC float64 // normalized mean throughput of the TFRC through flow
	ThroughTCP  float64 // … of the TCP through flow
	CrossMean   float64 // mean normalized throughput of segment-0 cross flows
	DropRates   []float64
	Utilization float64 // bottleneck 0

	Seeds         int
	ThroughTFRCCI float64
	ThroughTCPCI  float64
}

// ParkingLotResult is the grid.
type ParkingLotResult struct {
	Params ParkingLotParams
	Cells  []ParkingLotCell
}

// runParkingLotCell runs one (bottlenecks, seed) cell on the declarative
// topology + scenario layer, over the worker's arena. The random
// sources come from the scheduler's recycled generators, which re-seed
// to exactly the stream a fresh source would produce.
func runParkingLotCell(sched *sim.Scheduler, pr ParkingLotParams, k int, seed int64) ParkingLotCell {
	rng := sched.NewRand(seed)
	bw := pr.LinkMbps * 1e6
	queueLimit, red := houseQueue(bw, 0.1)
	pl := netsim.NewParkingLot(sched, netsim.ParkingLotConfig{
		Bottlenecks:   k,
		ThroughPairs:  2, // pair 0 carries TFRC, pair 1 TCP
		CrossPairs:    pr.CrossPairs,
		BottleneckBW:  bw,
		BottleneckDly: 0.010,
		Queue:         pr.Queue,
		QueueLimit:    queueLimit,
		RED:           red,
	}, sched.NewRand(seed+1))

	b := NewScenarioBuilder(pl.Topo)
	segMons := make([]*netsim.FlowMonitor, k)
	segMons[0] = b.MonitorLink(pl.BottleneckName(0), 0.5, pr.Warmup) // primary
	b.MonitorUtilization(pl.BottleneckName(0), pr.Warmup)
	for s := 1; s < k; s++ {
		segMons[s] = b.MonitorLink(pl.BottleneckName(s), 0.5, pr.Warmup)
	}

	start := func() float64 { return rng.Uniform(0, 5) }
	tcpCfg := houseTCP(seed)
	throughTFRC := b.AddTFRC("ts0", "td0", houseTFRC(seed), start())
	throughTCP := b.AddTCP("ts1", "td1", tcpCfg, start())
	crossFlows := make([][]int, k)
	for s := 0; s < k; s++ {
		for i := 0; i < pr.CrossPairs; i++ {
			f := b.AddTCP(netsim.SubName("cs", s, i), netsim.SubName("cd", s, i), tcpCfg, start())
			crossFlows[s] = append(crossFlows[s], f)
		}
	}

	res := b.Run(pr.Duration)

	// Normalize by the per-bottleneck fair share: 2 through flows plus
	// CrossPairs cross flows share each bottleneck.
	fair := bw / 8 / float64(2+pr.CrossPairs)
	norm := func(series []float64) float64 {
		return stats.Mean(series) / res.BinWidth / fair
	}
	primary := segMons[0]
	cell := ParkingLotCell{
		Bottlenecks: k,
		ThroughTFRC: norm(primary.Series(throughTFRC, res.Bins)),
		ThroughTCP:  norm(primary.Series(throughTCP, res.Bins)),
		Utilization: res.Utilization,
	}
	var crossSum float64
	for _, f := range crossFlows[0] {
		crossSum += norm(primary.Series(f, res.Bins))
	}
	if len(crossFlows[0]) > 0 {
		cell.CrossMean = crossSum / float64(len(crossFlows[0]))
	}
	for s := 0; s < k; s++ {
		cell.DropRates = append(cell.DropRates, segMons[s].DropRate())
	}
	b.Release()
	return cell
}

// parkingLotReduce aggregates each bottleneck count's seeds in order.
func parkingLotReduce(pr *ParkingLotParams, raw []ParkingLotCell) *ParkingLotResult {
	return &ParkingLotResult{Params: *pr, Cells: reducePoints(raw, pr.Seeds, func(cell *ParkingLotCell, group []ParkingLotCell) {
		cell.Seeds = len(group)
		cell.ThroughTFRC, cell.ThroughTFRCCI = meanCI(group, func(g *ParkingLotCell) float64 { return g.ThroughTFRC })
		cell.ThroughTCP, cell.ThroughTCPCI = meanCI(group, func(g *ParkingLotCell) float64 { return g.ThroughTCP })
	})}
}

// parkingLotColumns is one row per bottleneck count.
var parkingLotColumns = []column[ParkingLotCell]{
	{"bottlenecks", "%d", func(c *ParkingLotCell) any { return c.Bottlenecks }, nil},
	{"throughTFRC", "%.3f", func(c *ParkingLotCell) any { return c.ThroughTFRC }, func(c *ParkingLotCell) any { return c.ThroughTFRCCI }},
	{"throughTCP", "%.3f", func(c *ParkingLotCell) any { return c.ThroughTCP }, func(c *ParkingLotCell) any { return c.ThroughTCPCI }},
	{"crossMean", "%.3f", func(c *ParkingLotCell) any { return c.CrossMean }, nil},
	{"util0", "%.3f", func(c *ParkingLotCell) any { return c.Utilization }, nil},
	{"dropRates", "%s", func(c *ParkingLotCell) any {
		rates := make([]string, len(c.DropRates))
		for i, d := range c.DropRates {
			rates[i] = fmt.Sprintf("%.4f", d)
		}
		return strings.Join(rates, ",")
	}, nil},
}

// Table implements Result.
func (r *ParkingLotResult) Table(w io.Writer) {
	fmt.Fprintln(w, "# Parking lot: through TFRC vs through TCP across k bottlenecks")
	fmt.Fprintf(w, "# %d cross TCP pairs per segment, %.0f Mb/s links, %s queues; throughput normalized by the per-bottleneck fair share\n",
		r.Params.CrossPairs, r.Params.LinkMbps, r.Params.Queue)
	writeColumns(w, parkingLotColumns, r.Cells, r.Params.Seeds > 1)
}
