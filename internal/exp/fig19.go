package exp

import (
	"fmt"
	"io"

	"tfrc/internal/sim"
)

// Fig19Params reproduces Figures 19-21 (Appendix A): a single TFRC flow
// on an uncongested path with injected periodic loss that changes at a
// known instant, tracing the sender's allowed rate.
type Fig19Params struct {
	// DropEveryBefore injects one loss per this many packets until
	// SwitchTime (paper: 100).
	DropEveryBefore int
	// DropEveryAfter applies from SwitchTime on; 0 disables loss (the
	// Figure 19 end-of-congestion case), 2 is Figure 20's persistent
	// congestion.
	DropEveryAfter int
	SwitchTime     float64
	Duration       float64
}

// DefaultFig19 is the end-of-congestion run: every 100th packet dropped
// until t = 10, then nothing.
func DefaultFig19() Fig19Params {
	return Fig19Params{DropEveryBefore: 100, DropEveryAfter: 0, SwitchTime: 10, Duration: 13}
}

// DefaultFig20 is the persistent-congestion run: every 100th packet until
// t = 10, then every 2nd.
func DefaultFig20() Fig19Params {
	return Fig19Params{DropEveryBefore: 100, DropEveryAfter: 2, SwitchTime: 10, Duration: 12}
}

// Validate implements Params.
func (p *Fig19Params) Validate() error {
	var v checks
	atLeast(&v, "DropEveryBefore", 1, p.DropEveryBefore)
	nonNegative(&v, "DropEveryAfter", p.DropEveryAfter)
	check(&v, 0 < p.SwitchTime && p.SwitchTime < p.Duration, "need 0 < SwitchTime < Duration, got SwitchTime=%v Duration=%v", p.SwitchTime, p.Duration)
	return v.err
}

// Fig21Params is the registry's parameter struct for the Figure 21
// drop-rate sweep. The default sweep's high end deviates from the
// paper, whose sender halves its rate within three to eight round-trips
// at every drop rate: here p = 0.2 and 0.25 take 18 and 30 RTTs. Eq. (1)
// at their pre-switch rates allows 0.54 and 0.32 packets per RTT, so
// round-trips pass with no packet and no loss event; TestPaperClaims
// logs both as outside its domain.
type Fig21Params struct {
	DropRates []float64
}

// DefaultFig21 matches the paper's sweep.
func DefaultFig21() Fig21Params {
	return Fig21Params{DropRates: []float64{0.005, 0.01, 0.02, 0.05, 0.1, 0.15, 0.2, 0.25}}
}

// Validate implements Params.
func (p *Fig21Params) Validate() error {
	var v checks
	nonEmpty(&v, "DropRates", len(p.DropRates))
	for _, d := range p.DropRates {
		check(&v, 0 < d && d < 1, "drop rates must be in (0, 1), got %v", d)
	}
	return v.err
}

// Figures 19 and 20 are the same single rate trace at different
// defaults.
func init() {
	Define(single("fig19", "rate increase after congestion ends", []string{"19"}, DefaultFig19, fig19Cell))
	Define(single("fig20", "rate decrease under persistent congestion", []string{"20"}, DefaultFig20, fig19Cell))
}

// fig21 sweeps the pre-switch packet drop rate, one cell per rate:
// every-2nd-packet loss from t = 10, counting round-trips until the
// rate halves.
func init() {
	Define(Spec[Fig21Params, Fig21Row, *Fig21Result]{
		Name:        "fig21",
		Aliases:     []string{"21"},
		Description: "round-trips to halve the rate vs initial drop rate",
		Default:     DefaultFig21,
		Cells:       func(p *Fig21Params) int { return len(p.DropRates) },
		Cell: func(sched *sim.Scheduler, p *Fig21Params, idx int) Fig21Row {
			rate := p.DropRates[idx]
			res := fig19Cell(sched, &Fig19Params{
				DropEveryBefore: max(3, int(1/rate+0.5)),
				DropEveryAfter:  2,
				SwitchTime:      10,
				Duration:        14,
			})
			return Fig21Row{DropRate: rate, RTTs: res.HalvedAfterRTTs}
		},
		Reduce: func(_ *Fig21Params, rows []Fig21Row) *Fig21Result { return &Fig21Result{Rows: rows} },
	})
}

// Fig19Point samples the allowed sending rate.
type Fig19Point struct {
	Time       float64
	RateBps    float64 // bytes/sec
	PktsPerRTT float64
}

// Fig19Result is the rate trace plus derived summary numbers.
type Fig19Result struct {
	Points []Fig19Point
	RTT    float64

	// HalvedAfterRTTs counts round-trips from SwitchTime until the rate
	// first drops to half its pre-switch value (Figure 20/21 metric);
	// 0 if it never halves.
	HalvedAfterRTTs int
	// PreSwitchRate is the allowed rate just before the switch.
	PreSwitchRate float64
	// MaxIncreasePerRTT is the steepest observed rate increase after
	// SwitchTime, in packets/RTT per RTT (Figure 19 metric).
	MaxIncreasePerRTT float64
}

func fig19Cell(sched *sim.Scheduler, pr *Fig19Params) *Fig19Result {
	snd, _, drop := periodicLossPipe(sched, pr.DropEveryBefore)
	sched.At(pr.SwitchTime, func() { drop.every = pr.DropEveryAfter })

	res := &Fig19Result{RTT: lossyPipeRTT}
	pktSize := float64(snd.Core().PacketSize())
	var sample func()
	sample = func() {
		rate := snd.Rate()
		res.Points = append(res.Points, Fig19Point{
			Time:       sched.Now(),
			RateBps:    rate,
			PktsPerRTT: rate * lossyPipeRTT / pktSize,
		})
		sched.After(lossyPipeRTT, sample)
	}
	sched.After(lossyPipeRTT, sample)

	snd.Start(0)
	sched.RunUntil(pr.Duration)

	// Derive the summary metrics from the trace.
	for i := 1; i < len(res.Points); i++ {
		pt := res.Points[i]
		if pt.Time <= pr.SwitchTime {
			res.PreSwitchRate = pt.RateBps
			continue
		}
		if res.HalvedAfterRTTs == 0 && pt.RateBps <= res.PreSwitchRate/2 {
			res.HalvedAfterRTTs = int((pt.Time - pr.SwitchTime) / lossyPipeRTT)
		}
		if inc := pt.PktsPerRTT - res.Points[i-1].PktsPerRTT; inc > res.MaxIncreasePerRTT &&
			res.Points[i-1].Time > pr.SwitchTime {
			res.MaxIncreasePerRTT = inc
		}
	}
	return res
}

// Table implements Result: "time rate(pkts/RTT)" rows plus a summary.
func (r *Fig19Result) Table(w io.Writer) {
	fmt.Fprintln(w, "# Figures 19/20: allowed sending rate of a single TFRC flow")
	fmt.Fprintln(w, "# time\trate(pkts/RTT)\trate(KB/s)")
	for _, p := range r.Points {
		fmt.Fprintf(w, "%.2f\t%.2f\t%.1f\n", p.Time, p.PktsPerRTT, p.RateBps/1000)
	}
	fmt.Fprintf(w, "# max increase after switch: %.3f pkts/RTT per RTT\n", r.MaxIncreasePerRTT)
	if r.HalvedAfterRTTs > 0 {
		fmt.Fprintf(w, "# rate halved after %d RTTs\n", r.HalvedAfterRTTs)
	}
}

// Fig21Row is one point of Figure 21: round-trips of persistent
// congestion needed to halve the rate, by initial drop rate.
type Fig21Row struct {
	DropRate float64
	RTTs     int
}

// Fig21Result is the sweep.
type Fig21Result struct{ Rows []Fig21Row }

// Table implements Result: "dropRate rttsToHalve" rows.
func (r *Fig21Result) Table(w io.Writer) {
	fmt.Fprintln(w, "# Figure 21: round-trips of persistent congestion to halve the rate")
	fmt.Fprintln(w, "# dropRate\tRTTs")
	for _, row := range r.Rows {
		fmt.Fprintf(w, "%.3f\t%d\n", row.DropRate, row.RTTs)
	}
}
