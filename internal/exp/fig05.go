package exp

import (
	"fmt"
	"io"
	"math"
	"slices"

	"tfrc/internal/core"
	"tfrc/internal/sim"
)

// Fig05Params reproduces Figure 5: the loss-event fraction as a function
// of the Bernoulli packet-loss probability, for flows transmitting at
// 0.5×, 1× and 2× the rate the control equation allows.
type Fig05Params struct {
	PLoss []float64 // Bernoulli loss probabilities to evaluate
}

// fig5Multipliers are the paper's rate multipliers, one column each.
var fig5Multipliers = [...]float64{1.0, 2.0, 0.5}

// The fixed point is solved at a 0.1 s RTT and 1000-byte packets, which
// do not change it: N = mult·PFTK(s, R, 4R, p)·R/s = mult/f(p), so R and
// s cancel. They stay so that the rounding, and the output, do not move.
const fig5RTT, fig5PacketSize = 0.1, 1000

// DefaultFig05 covers the paper's range p ∈ (0, 0.25].
func DefaultFig05() Fig05Params {
	var ps []float64
	for p := 0.005; p <= 0.25+1e-9; p += 0.005 {
		ps = append(ps, p)
	}
	return Fig05Params{PLoss: ps}
}

// Validate implements Params.
func (p *Fig05Params) Validate() error {
	var v checks
	nonEmpty(&v, "PLoss", len(p.PLoss))
	for _, q := range p.PLoss {
		check(&v, 0 < q && q < 1, "loss probabilities must be in (0, 1), got %v", q)
	}
	return v.err
}

func init() {
	Define(Spec[Fig05Params, Fig05Row, *Fig05Result]{
		Name:        "fig5",
		Aliases:     []string{"5"},
		Description: "loss-event fraction vs Bernoulli loss probability",
		Default:     DefaultFig05,
		Cells:       func(p *Fig05Params) int { return len(p.PLoss) },
		Cell:        fig05Cell,
		Reduce: func(p *Fig05Params, rows []Fig05Row) *Fig05Result {
			return &Fig05Result{Multiplier: slices.Clone(fig5Multipliers[:]), Rows: rows}
		},
	})
}

// Fig05Row is one curve point: the loss-event fraction for each rate
// multiplier at one Bernoulli loss probability.
type Fig05Row struct {
	PLoss  float64
	PEvent []float64 // aligned with Fig05Result.Multiplier
}

// Fig05Result is the family of curves.
type Fig05Result struct {
	Multiplier []float64
	Rows       []Fig05Row
}

// lossEventFraction solves the fixed point of §3.5.1: a flow sending N
// packets per RTT under Bernoulli loss p_loss sees loss events at rate
// p_event = (1-(1-p_loss)^N)/N per packet, while N itself is set by the
// control equation evaluated at p_event (times the rate multiplier).
func lossEventFraction(pLoss, mult, rtt float64, pktSize int) float64 {
	s := float64(pktSize)
	pEvent := pLoss // initial guess
	for i := 0; i < 200; i++ {
		rate := mult * core.PFTK(s, rtt, 4*rtt, pEvent)
		n := rate * rtt / s // packets per RTT
		if n < 1 {
			n = 1
		}
		next := (1 - math.Pow(1-pLoss, n)) / n
		if math.Abs(next-pEvent) < 1e-12 {
			return next
		}
		// Damped iteration for stability at high loss rates.
		pEvent = 0.5*pEvent + 0.5*next
	}
	return pEvent
}

func fig05Cell(_ *sim.Scheduler, pr *Fig05Params, idx int) Fig05Row {
	row := Fig05Row{PLoss: pr.PLoss[idx]}
	for _, m := range fig5Multipliers {
		row.PEvent = append(row.PEvent, lossEventFraction(row.PLoss, m, fig5RTT, fig5PacketSize))
	}
	return row
}

// Table implements Result: "pLoss pEvent(m1) pEvent(m2) ..." rows.
func (r *Fig05Result) Table(w io.Writer) {
	fmt.Fprintln(w, "# Figure 5: loss-event fraction vs Bernoulli loss probability")
	fmt.Fprint(w, "# pLoss")
	for _, m := range r.Multiplier {
		fmt.Fprintf(w, "\trate=%.1fx", m)
	}
	fmt.Fprintln(w)
	for _, row := range r.Rows {
		fmt.Fprintf(w, "%.3f", row.PLoss)
		for _, pe := range row.PEvent {
			fmt.Fprintf(w, "\t%.4f", pe)
		}
		fmt.Fprintln(w)
	}
}
