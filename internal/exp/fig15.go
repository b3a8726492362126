package exp

import (
	"fmt"
	"io"
	"slices"

	"tfrc/internal/netsim"
	"tfrc/internal/sim"
	"tfrc/internal/stats"
	"tfrc/internal/tcp"
)

// Path is an emulated Internet path profile — the substitution for the
// paper's real-world measurement sites (§4.3, Figures 15-17). Each
// profile captures what actually drove the paper's per-site differences:
// bandwidth, base RTT, buffer, the peer TCP's flavor and timer behavior,
// and background load.
type Path struct {
	Name           string
	BW             float64 // bits/sec
	RTT            float64 // base round-trip, seconds
	QueueLimit     int     // DropTail buffer, packets
	TCPVariant     tcp.Variant
	TCPGranularity float64
	TCPAggressive  bool
	OnOffSources   int // light cross traffic
}

// Paths returns the catalogue standing in for the paper's measurement
// sites. "UMASS (Solaris)" carries the aggressive-RTO sender that the
// paper diagnosed as retransmitting spuriously; "Nokia, Boston" is the
// heavily buffered T1.
func Paths() []Path {
	return []Path{
		{Name: "UCL", BW: 2e6, RTT: 0.150, QueueLimit: 40,
			TCPVariant: tcp.Sack, TCPGranularity: 0.1, OnOffSources: 4},
		{Name: "Mannheim", BW: 5e6, RTT: 0.035, QueueLimit: 60,
			TCPVariant: tcp.NewReno, TCPGranularity: 0.1, OnOffSources: 2},
		{Name: "UMASS (Linux)", BW: 10e6, RTT: 0.070, QueueLimit: 100,
			TCPVariant: tcp.Sack, TCPGranularity: 0.01, OnOffSources: 2},
		{Name: "UMASS (Solaris)", BW: 10e6, RTT: 0.070, QueueLimit: 100,
			TCPVariant: tcp.Reno, TCPGranularity: 0.01, TCPAggressive: true, OnOffSources: 2},
		{Name: "Nokia, Boston", BW: 1.544e6, RTT: 0.060, QueueLimit: 30,
			TCPVariant: tcp.Reno, TCPGranularity: 0.5, OnOffSources: 2},
	}
}

func pathScenario(p Path, nTCP, nTFRC int, duration, warmup float64, seed int64) Scenario {
	return Scenario{
		NTCP:           nTCP,
		NTFRC:          nTFRC,
		BottleneckBW:   p.BW,
		BottleneckDly:  p.RTT/2 - 0.002,
		Queue:          netsim.QueueDropTail,
		QueueLimit:     p.QueueLimit,
		TCPVariant:     p.TCPVariant,
		TCPGranularity: p.TCPGranularity,
		TCPAggressive:  p.TCPAggressive,
		OnOffSources:   p.OnOffSources,
		Duration:       duration,
		Warmup:         warmup,
		BinWidth:       0.1,
		Seed:           seed,
	}
}

// Fig15Params is the registry's parameter struct for the Figure 15
// trace experiment on the transcontinental (UCL) path profile.
type Fig15Params struct {
	Duration float64
	Seed     int64
	Seeds    int
}

// DefaultFig15 is the laptop-scale run.
func DefaultFig15() Fig15Params { return Fig15Params{Duration: 120, Seed: 1} }

// PaperFig15 matches the paper's 300 s traces.
func PaperFig15() Fig15Params {
	p := DefaultFig15()
	p.Duration = 300
	return p
}

// Validate implements Params.
func (p *Fig15Params) Validate() error {
	var v checks
	positive(&v, "Duration", p.Duration)
	nonNegative(&v, "Seeds", p.Seeds)
	return v.err
}

// Fig16Params is the registry's parameter struct for the per-path
// equivalence study (Figures 16 and 17).
type Fig16Params struct {
	Timescales []float64
	Duration   float64
	Seed       int64
}

// DefaultFig16 is the laptop-scale study.
func DefaultFig16() Fig16Params {
	return Fig16Params{Timescales: []float64{0.5, 1, 2, 5, 10, 20, 50}, Duration: 120, Seed: 1}
}

// PaperFig16 matches the paper's 600 s per-path runs.
func PaperFig16() Fig16Params {
	p := DefaultFig16()
	p.Duration = 600
	return p
}

// Validate implements Params.
func (p *Fig16Params) Validate() error {
	var v checks
	nonEmpty(&v, "Timescales", len(p.Timescales))
	positive(&v, "Timescales", p.Timescales...)
	positive(&v, "Duration", p.Duration)
	return v.err
}

// fig15 is one cell per replicate.
func init() {
	Define(Spec[Fig15Params, Fig15Result, *Fig15Result]{
		Name:        "fig15",
		Aliases:     []string{"15"},
		Description: "3 TCP + 1 TFRC on the transcontinental path profile",
		Default:     DefaultFig15,
		Presets:     map[string]func() Fig15Params{"paper": PaperFig15},
		Cells:       func(p *Fig15Params) int { return replicas(p.Seeds) },
		Cell: func(sched *sim.Scheduler, p *Fig15Params, rep int) Fig15Result {
			return runFig15Seed(sched, p.Duration, replicaSeed(p.Seed, rep))
		},
		Reduce: func(_ *Fig15Params, cells []Fig15Result) *Fig15Result {
			out := &cells[0]
			if len(cells) > 1 {
				out.Seeds = len(cells)
				out.MeanTCP, out.MeanTCPCI = meanCI(cells, func(c *Fig15Result) float64 { return c.MeanTCP })
				out.MeanTFRC, out.MeanTFRCCI = meanCI(cells, func(c *Fig15Result) float64 { return c.MeanTFRC })
			}
			return out
		},
	})
}

// fig16 is one cell per path profile.
func init() {
	Define(Spec[Fig16Params, Fig16Row, *Fig16Result]{
		Name:        "fig16",
		Aliases:     []string{"16", "fig17", "17"},
		Description: "equivalence and CoV across path profiles (incl. fig 17)",
		Default:     DefaultFig16,
		Presets:     map[string]func() Fig16Params{"paper": PaperFig16},
		Cells:       func(*Fig16Params) int { return len(Paths()) },
		Cell: func(sched *sim.Scheduler, p *Fig16Params, idx int) Fig16Row {
			path := Paths()[idx]
			sr := runScenarioCell(sched, pathScenario(path, 1, 1, p.Duration, p.Duration/6, p.Seed))
			row := Fig16Row{Path: path.Name}
			row.Eq, row.CoVTCP, row.CoVTFRC = timescaleCurves(sr.TCPSeries[0], sr.TFRCSeries[0], 0.1, p.Timescales)
			return row
		},
		Reduce: func(p *Fig16Params, rows []Fig16Row) *Fig16Result {
			return &Fig16Result{Timescales: p.Timescales, Rows: rows}
		},
	})
}

// Fig15Result is the Figure 15 trace: three TCP flows and one TFRC flow
// on the transcontinental profile, bandwidth in 1 s bins. With seeds > 1
// the scalar summaries are means across seeds with 90% half-widths in
// the CI fields; traces stay the first seed's sample.
type Fig15Result struct {
	BinWidth   float64
	TCPTraces  [][]float64 // bytes per bin
	TFRCTrace  []float64
	MeanTCP    float64 // bytes/sec, averaged over the TCP flows
	MeanTFRC   float64
	CoVTCPMean float64
	CoVTFRC    float64

	Seeds      int
	MeanTCPCI  float64
	MeanTFRCCI float64
}

func runFig15Seed(sched *sim.Scheduler, duration float64, seed int64) Fig15Result {
	p := Paths()[0]
	sc := pathScenario(p, 3, 1, duration, duration/6, seed)
	sc.BinWidth = 1.0
	r := runScenarioCell(sched, sc)
	out := Fig15Result{BinWidth: 1.0, TFRCTrace: slices.Clone(r.TFRCSeries[0])}
	out.TCPTraces = cloneSeries(r.TCPSeries)
	var covSum float64
	for _, s := range r.TCPSeries {
		out.MeanTCP += stats.Mean(s)
		covSum += stats.CoV(s)
	}
	out.MeanTCP /= float64(len(r.TCPSeries))
	out.CoVTCPMean = covSum / float64(len(r.TCPSeries))
	out.MeanTFRC = stats.Mean(r.TFRCSeries[0])
	out.CoVTFRC = stats.CoV(r.TFRCSeries[0])
	return out
}

// Table implements Result: "time tcp1 tcp2 tcp3 tfrc" rows in KB/s.
func (r *Fig15Result) Table(w io.Writer) {
	fmt.Fprintln(w, "# Figure 15: 3 TCP + 1 TFRC on the transcontinental path profile (KB/s)")
	fmt.Fprintln(w, "# time\tTCP1\tTCP2\tTCP3\tTFRC")
	var traces []curve
	for _, s := range r.TCPTraces {
		traces = append(traces, kbps(s, r.BinWidth))
	}
	traces = append(traces, kbps(r.TFRCTrace, r.BinWidth))
	writeMatrix(w, len(r.TFRCTrace), "%.0f", binStart(r.BinWidth), "%.1f", traces...)
	if r.Seeds > 1 {
		fmt.Fprintf(w, "# mean over %d seeds: TCP %.1f±%.1f KB/s, TFRC %.1f±%.1f KB/s\n",
			r.Seeds, r.MeanTCP/1000, r.MeanTCPCI/1000, r.MeanTFRC/1000, r.MeanTFRCCI/1000)
		return
	}
	fmt.Fprintf(w, "# mean: TCP %.1f KB/s (CoV %.3f), TFRC %.1f KB/s (CoV %.3f)\n",
		r.MeanTCP/1000, r.CoVTCPMean, r.MeanTFRC/1000, r.CoVTFRC)
}

// Fig16Row carries the per-path equivalence and CoV curves (Figures 16
// and 17).
type Fig16Row struct {
	Path    string
	Eq      []float64 // TCP-vs-TFRC equivalence ratio per timescale
	CoVTFRC []float64
	CoVTCP  []float64
}

// Fig16Result is the per-path study.
type Fig16Result struct {
	Timescales []float64
	Rows       []Fig16Row
}

// Table implements Result: Figures 16 and 17 rows.
func (r *Fig16Result) Table(w io.Writer) {
	fmt.Fprintln(w, "# Figure 16: TCP equivalence with TFRC across path profiles")
	fmt.Fprint(w, "# timescale")
	for _, row := range r.Rows {
		fmt.Fprintf(w, "\t%q", row.Path)
	}
	fmt.Fprintln(w)
	// curves is one curve per path.
	curves := func(f func(*Fig16Row) []float64) (out []curve) {
		for j := range r.Rows {
			out = append(out, curveOf(f(&r.Rows[j])))
		}
		return out
	}
	eq := curves(func(row *Fig16Row) []float64 { return row.Eq })
	writeMatrix(w, len(r.Timescales), "%.1f", curveOf(r.Timescales), "%.3f", eq...)
	fmt.Fprintln(w, "# Figure 17: CoV across paths (TFRC block, then TCP block)")
	cov := append(curves(func(row *Fig16Row) []float64 { return row.CoVTFRC }),
		curves(func(row *Fig16Row) []float64 { return row.CoVTCP })...)
	writeMatrix(w, len(r.Timescales), "%.1f", curveOf(r.Timescales), "%.3f", cov...)
}
