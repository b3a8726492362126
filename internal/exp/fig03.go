package exp

import (
	"fmt"
	"io"

	"tfrc/internal/netsim"
	"tfrc/internal/sim"
	"tfrc/internal/stats"
	"tfrc/internal/tfrcsim"
)

// Fig03Params reproduces Figures 3 and 4: a single TFRC flow over a
// Dummynet-like pipe (one bottleneck queue and delay — our emulated
// substitute for the paper's FreeBSD Dummynet testbed) across a sweep of
// buffer sizes. With a small RTT-EWMA weight and no inter-packet-spacing
// adjustment the flow oscillates (Figure 3); enabling the √RTT spacing
// adjustment damps the oscillation (Figure 4).
type Fig03Params struct {
	BufferSizes []int // queue limits in packets
	Duration    float64
	Warmup      float64
	SqrtSpacing bool // false → Figure 3, true → Figure 4
}

// The paper's pipe of figures 3 and 4 and its RTT EWMA weight, and the
// rate-sampling bin.
const (
	fig3Bandwidth = 2e6   // bits/sec
	fig3BaseRTT   = 0.050 // propagation round-trip, seconds
	fig3RTTWeight = 0.05
	fig3BinWidth  = 0.2 // seconds
)

// DefaultFig03 runs the sweep without the adjustment.
func DefaultFig03() Fig03Params {
	return Fig03Params{
		BufferSizes: []int{2, 4, 8, 16, 32, 64},
		Duration:    120,
		Warmup:      40,
	}
}

// DefaultFig04 enables the inter-packet-spacing adjustment.
func DefaultFig04() Fig03Params {
	p := DefaultFig03()
	p.SqrtSpacing = true
	return p
}

// Validate implements Params.
func (p *Fig03Params) Validate() error {
	var v checks
	nonEmpty(&v, "BufferSizes", len(p.BufferSizes))
	atLeast(&v, "BufferSizes", 1, p.BufferSizes...)
	binCount(&v, p.Duration, fig3BinWidth)
	window(&v, "Warmup", p.Warmup, "Duration", p.Duration)
	return v.err
}

// fig03Spec is the buffer sweep, one cell per buffer size; figures 3
// and 4 are the same experiment at different defaults.
func fig03Spec(name, alias, description string, def func() Fig03Params) Spec[Fig03Params, Fig03Curve, *Fig03Result] {
	return Spec[Fig03Params, Fig03Curve, *Fig03Result]{
		Name:        name,
		Aliases:     []string{alias},
		Description: description,
		Default:     def,
		Cells:       func(p *Fig03Params) int { return len(p.BufferSizes) },
		Cell:        fig03Cell,
		Reduce: func(p *Fig03Params, curves []Fig03Curve) *Fig03Result {
			return &Fig03Result{SqrtSpacing: p.SqrtSpacing, BinWidth: fig3BinWidth, Curves: curves}
		},
	}
}

func init() {
	Define(fig03Spec("fig3", "3", "send-rate oscillation vs buffer size (no spacing adjustment)", DefaultFig03))
	Define(fig03Spec("fig4", "4", "send-rate oscillation vs buffer size (with adjustment)", DefaultFig04))
}

// Fig03Curve is the send-rate trace for one buffer size plus its
// oscillation measure.
type Fig03Curve struct {
	Buffer int
	Series []float64 // send rate per bin, bytes/sec
	CoV    float64   // oscillation metric over the measured window
}

// Fig03Result is the buffer sweep.
type Fig03Result struct {
	SqrtSpacing bool
	BinWidth    float64
	Curves      []Fig03Curve
}

// fig03Cell runs one cell of the buffer sweep: a two-node pipe topology
// with a single TFRC flow, composed on the scenario builder over the
// worker's arena.
func fig03Cell(sched *sim.Scheduler, pr *Fig03Params, idx int) Fig03Curve {
	buf := pr.BufferSizes[idx]
	t := netsim.NewTopology(sched, nil)
	t.Link("src", "dst", netsim.LinkSpec{
		Bandwidth: fig3Bandwidth, Delay: fig3BaseRTT / 2,
		Queue: netsim.QueueDropTail, QueueLimit: buf,
	})
	b := NewScenarioBuilder(t)
	b.MonitorLink("src->dst", fig3BinWidth, pr.Warmup)

	cfg := tfrcsim.DefaultConfig()
	cfg.Sender.SqrtSpacing = pr.SqrtSpacing
	cfg.Sender.RTTWeight = fig3RTTWeight
	b.AddTFRC("src", "dst", cfg, 0)
	res := b.Run(pr.Duration)
	b.Release()

	series := res.TFRCSeries[0]
	for i := range series {
		series[i] /= fig3BinWidth // bytes per bin → bytes/sec
	}
	return Fig03Curve{Buffer: buf, Series: series, CoV: stats.CoV(series)}
}

// Table implements Result: "buffer cov" summary rows and the traces.
func (r *Fig03Result) Table(w io.Writer) {
	fig := "3 (no inter-packet spacing adjustment)"
	if r.SqrtSpacing {
		fig = "4 (with inter-packet spacing adjustment)"
	}
	fmt.Fprintf(w, "# Figure %s: TFRC send-rate oscillation vs buffer size\n", fig)
	fmt.Fprintln(w, "# buffer(pkts)\tsendRateCoV")
	for _, c := range r.Curves {
		fmt.Fprintf(w, "%d\t%.4f\n", c.Buffer, c.CoV)
	}
	fmt.Fprintln(w, "# traces: time(bin) rate(KB/s) per buffer size")
	for _, c := range r.Curves {
		fmt.Fprintf(w, "## buffer=%d\n", c.Buffer)
		writeMatrix(w, len(c.Series), "%.1f", binStart(r.BinWidth), "%.1f", func(i int) float64 { return c.Series[i] / 1000 })
	}
}
