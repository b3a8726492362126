package exp

import (
	"fmt"
	"io"

	"tfrc/internal/netsim"
	"tfrc/internal/sim"
	"tfrc/internal/stats"
	"tfrc/internal/tcp"
)

// Fig08GridParams reproduces Figure 8: throughput traces of individual
// TCP and TFRC flows sharing a 15 Mb/s bottleneck with 32 flows total,
// averaged over 0.15 s bins, once per queue discipline. The paper's RED
// parameters (footnote 1) are min 25, max 125, max_p 0.1, gentle.
type Fig08GridParams struct {
	Queues []netsim.QueueKind
	Flows  int
	Seed   int64

	// Seeds > 1 repeats every queue's simulation at that many seeds and
	// reports the smoothness summaries as means with 90% confidence
	// half-widths; traces stay the first seed's sample.
	Seeds int
}

// DefaultFig08Grid traces both queue disciplines at the paper's setup.
func DefaultFig08Grid() Fig08GridParams {
	return Fig08GridParams{
		Queues: []netsim.QueueKind{netsim.QueueDropTail, netsim.QueueRED},
		Flows:  32,
		Seed:   1,
	}
}

// Validate implements Params.
func (p *Fig08GridParams) Validate() error {
	var v checks
	nonEmpty(&v, "Queues", len(p.Queues))
	atLeast(&v, "Flows", 2, p.Flows) // half TCP, half TFRC
	nonNegative(&v, "Seeds", p.Seeds)
	return v.err
}

// Fig08GridResult is one Fig08Result per requested queue discipline.
type Fig08GridResult struct{ Results []*Fig08Result }

// Table implements Result, printing each queue's block in order.
func (r *Fig08GridResult) Table(w io.Writer) {
	for _, res := range r.Results {
		res.Table(w)
	}
}

// fig8 is the (queue × replicate) grid: every cell is one trace
// simulation at the paper's setup for its queue discipline.
func init() {
	Define(Spec[Fig08GridParams, Fig08Result, *Fig08GridResult]{
		Name:        "fig8",
		Aliases:     []string{"8"},
		Description: "per-flow throughput traces (DropTail and RED)",
		Default:     DefaultFig08Grid,
		Cells:       func(p *Fig08GridParams) int { return len(p.Queues) * replicas(p.Seeds) },
		Cell: func(sched *sim.Scheduler, p *Fig08GridParams, idx int) Fig08Result {
			at := unravel(idx, len(p.Queues), replicas(p.Seeds))
			return runFig08Seed(sched, p.Queues[at[0]], p.Flows, replicaSeed(p.Seed, at[1]))
		},
		Reduce: fig08Reduce,
	})
}

// Fig08Result carries the traced series plus smoothness summaries.
type Fig08Result struct {
	Queue      netsim.QueueKind
	BinWidth   float64
	TCPTraces  [][]float64 // bytes per bin
	TFRCTraces [][]float64
	CoVTCP     float64 // mean CoV across traced TCP flows
	CoVTFRC    float64

	// Multi-seed statistics (Seeds > 1): the CoV fields above become
	// means across seeds and the CI fields carry 90% half-widths.
	Seeds     int
	CoVTCPCI  float64
	CoVTFRCCI float64
}

// runFig08Seed runs one trace simulation at one seed, at the paper's
// setup: 30 s, the second half traced in 0.15 s bins, four flows of
// each kind.
func runFig08Seed(sched *sim.Scheduler, queue netsim.QueueKind, flows int, seed int64) Fig08Result {
	const binWidth, nTrace = 0.15, 4
	res := runScenarioCell(sched, Scenario{
		NTCP:         flows / 2,
		NTFRC:        flows / 2,
		BottleneckBW: 15e6,
		Queue:        queue,
		QueueLimit:   250,
		REDMin:       25,
		REDMax:       125,
		TCPVariant:   tcp.Sack,
		Duration:     30,
		Warmup:       16,
		BinWidth:     binWidth,
		Seed:         seed,
	})
	out := Fig08Result{Queue: queue, BinWidth: binWidth}
	out.TCPTraces = cloneSeries(res.TCPSeries[:min(nTrace, len(res.TCPSeries))])
	out.TFRCTraces = cloneSeries(res.TFRCSeries[:min(nTrace, len(res.TFRCSeries))])
	var ct, cf float64
	for _, s := range out.TCPTraces {
		ct += stats.CoV(s)
	}
	for _, s := range out.TFRCTraces {
		cf += stats.CoV(s)
	}
	if len(out.TCPTraces) > 0 {
		out.CoVTCP = ct / float64(len(out.TCPTraces))
	}
	if len(out.TFRCTraces) > 0 {
		out.CoVTFRC = cf / float64(len(out.TFRCTraces))
	}
	return out
}

// fig08Reduce collapses each queue's replicates: traces stay the first
// seed's sample, the CoV summaries become means with 90% CI.
func fig08Reduce(pr *Fig08GridParams, cells []Fig08Result) *Fig08GridResult {
	out := &Fig08GridResult{}
	queues := reducePoints(cells, pr.Seeds, func(res *Fig08Result, group []Fig08Result) {
		res.Seeds = len(group)
		res.CoVTCP, res.CoVTCPCI = meanCI(group, func(g *Fig08Result) float64 { return g.CoVTCP })
		res.CoVTFRC, res.CoVTFRCCI = meanCI(group, func(g *Fig08Result) float64 { return g.CoVTFRC })
	})
	for q := range queues {
		out.Results = append(out.Results, &queues[q])
	}
	return out
}

// Table writes one queue's block: "bin TF1..TFn TCP1..TCPn" traces in KB
// per bin, then the CoV summary.
func (r *Fig08Result) Table(w io.Writer) {
	fmt.Fprintf(w, "# Figure 8: per-flow throughput traces, %s queue (KB per %.2fs bin)\n",
		r.Queue, r.BinWidth)
	fmt.Fprint(w, "# time")
	for i := range r.TFRCTraces {
		fmt.Fprintf(w, "\tTF%d", i+1)
	}
	for i := range r.TCPTraces {
		fmt.Fprintf(w, "\tTCP%d", i+1)
	}
	fmt.Fprintln(w)
	bins := 0
	if len(r.TFRCTraces) > 0 {
		bins = len(r.TFRCTraces[0])
	}
	for b := 0; b < bins; b++ {
		fmt.Fprintf(w, "%.2f", float64(b)*r.BinWidth)
		for _, s := range r.TFRCTraces {
			fmt.Fprintf(w, "\t%.1f", s[b]/1000)
		}
		for _, s := range r.TCPTraces {
			if b < len(s) {
				fmt.Fprintf(w, "\t%.1f", s[b]/1000)
			}
		}
		fmt.Fprintln(w)
	}
	if r.Seeds > 1 {
		fmt.Fprintf(w, "# mean CoV over %d seeds: TFRC %.3f±%.3f, TCP %.3f±%.3f\n",
			r.Seeds, r.CoVTFRC, r.CoVTFRCCI, r.CoVTCP, r.CoVTCPCI)
		return
	}
	fmt.Fprintf(w, "# mean CoV: TFRC %.3f, TCP %.3f\n", r.CoVTFRC, r.CoVTCP)
}
