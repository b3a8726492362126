package exp

import (
	"fmt"
	"io"
	"slices"

	"tfrc/internal/netsim"
	"tfrc/internal/sim"
	"tfrc/internal/tcp"
)

// Fig14Params reproduces Figure 14: queue dynamics at a 15 Mb/s DropTail
// bottleneck carrying 40 long-lived flows (start times spread over 20 s)
// plus ~20% short-lived background TCP and a little reverse traffic —
// once with all-TCP long-lived flows, once with all-TFRC.
type Fig14Params struct {
	Flows    int     // paper: 40
	Stagger  float64 // paper: 20 s
	Duration float64 // paper: ~25 s shown
	LinkMbps float64
	Queue    int // bottleneck buffer in packets
	Seed     int64

	// Seeds > 1 repeats both sides at that many seeds on the sweep
	// runner; scalar summaries become means with 90% confidence
	// half-widths and queue traces stay the first seed's sample.
	Seeds int
}

// DefaultFig14 matches the paper's setup.
func DefaultFig14() Fig14Params {
	return Fig14Params{
		Flows:    40,
		Stagger:  20,
		Duration: 25,
		LinkMbps: 15,
		Queue:    250,
		Seed:     1,
	}
}

// Validate implements Params.
func (p *Fig14Params) Validate() error {
	var v checks
	atLeast(&v, "Flows", 1, p.Flows)
	nonNegative(&v, "Stagger", p.Stagger)
	positive(&v, "Duration", p.Duration)
	positive(&v, "LinkMbps", p.LinkMbps)
	atLeast(&v, "Queue", 1, p.Queue) // packets
	nonNegative(&v, "Seeds", p.Seeds)
	return v.err
}

// fig14 is the (side × replicate) grid, side-major: all-TCP then
// all-TFRC long-lived flows.
func init() {
	Define(Spec[Fig14Params, Fig14Side, *Fig14Result]{
		Name:        "fig14",
		Aliases:     []string{"14"},
		Description: "queue dynamics: 40 TCP vs 40 TFRC flows",
		Default:     DefaultFig14,
		Cells:       func(p *Fig14Params) int { return 2 * replicas(p.Seeds) },
		Cell: func(sched *sim.Scheduler, p *Fig14Params, idx int) Fig14Side {
			at := unravel(idx, 2, replicas(p.Seeds))
			return runFig14Side(sched, p, at[0] == 1, replicaSeed(p.Seed, at[1]))
		},
		Reduce: func(p *Fig14Params, cells []Fig14Side) *Fig14Result {
			seeds := replicas(p.Seeds)
			return &Fig14Result{TCP: fig14Aggregate(cells[:seeds]), TFRC: fig14Aggregate(cells[seeds:])}
		},
	})
}

// Fig14Side is one of the two runs. With Seeds > 1 the scalar fields
// are means across seeds and the CI fields carry 90% half-widths.
type Fig14Side struct {
	Protocol    string
	Queue       []netsim.QueueSample
	QueueMean   float64
	Utilization float64
	DropRate    float64

	Seeds         int
	QueueMeanCI   float64
	UtilizationCI float64
	DropRateCI    float64
}

// Fig14Result pairs the TCP and TFRC runs.
type Fig14Result struct{ TCP, TFRC Fig14Side }

func runFig14Side(sched *sim.Scheduler, pr *Fig14Params, useTFRC bool, seed int64) Fig14Side {
	sc := Scenario{
		BottleneckBW:  pr.LinkMbps * 1e6,
		BottleneckDly: 0.010, // paper: RTTs roughly 45 ms
		Queue:         netsim.QueueDropTail,
		QueueLimit:    pr.Queue,
		TCPVariant:    tcp.Sack,
		MiceLoad:      0.2, // paper: ~20% short-lived background TCP
		Duration:      pr.Duration,
		Warmup:        0,
		BinWidth:      0.15,
		StaggerStarts: pr.Stagger,
		Seed:          seed,
	}
	name := "TCP"
	if useTFRC {
		sc.NTFRC = pr.Flows
		name = "TFRC"
	} else {
		sc.NTCP = pr.Flows
	}
	r := runScenarioCell(sched, sc)
	return Fig14Side{
		Protocol:    name,
		Queue:       slices.Clone(r.Queue),
		QueueMean:   r.QueueMean,
		Utilization: r.Utilization,
		DropRate:    r.DropRate,
	}
}

// fig14Aggregate collapses one side's replicates: the queue trace stays
// the first seed's sample, the scalar summaries become means with 90% CI.
func fig14Aggregate(group []Fig14Side) Fig14Side {
	side := group[0]
	if len(group) > 1 {
		side.Seeds = len(group)
		side.QueueMean, side.QueueMeanCI = meanCI(group, func(g *Fig14Side) float64 { return g.QueueMean })
		side.Utilization, side.UtilizationCI = meanCI(group, func(g *Fig14Side) float64 { return g.Utilization })
		side.DropRate, side.DropRateCI = meanCI(group, func(g *Fig14Side) float64 { return g.DropRate })
	}
	return side
}

// Table implements Result: the queue traces and the summary comparison.
func (r *Fig14Result) Table(w io.Writer) {
	fmt.Fprintln(w, "# Figure 14: queue dynamics, 40 long-lived TCP vs TFRC flows, DropTail")
	for _, side := range []Fig14Side{r.TCP, r.TFRC} {
		if side.Seeds > 1 {
			fmt.Fprintf(w, "## %s (%d seeds): util %.3f±%.3f, drop rate %.4f±%.4f, mean queue %.1f±%.1f pkts\n",
				side.Protocol, side.Seeds, side.Utilization, side.UtilizationCI,
				side.DropRate, side.DropRateCI, side.QueueMean, side.QueueMeanCI)
		} else {
			fmt.Fprintf(w, "## %s: util %.3f, drop rate %.4f, mean queue %.1f pkts\n",
				side.Protocol, side.Utilization, side.DropRate, side.QueueMean)
		}
		for _, s := range side.Queue {
			fmt.Fprintf(w, "%.2f\t%d\n", s.Time, s.Len)
		}
	}
}
