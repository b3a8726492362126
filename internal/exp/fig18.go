package exp

import (
	"fmt"
	"io"
	"math"

	"tfrc/internal/core"
	"tfrc/internal/netsim"
	"tfrc/internal/sim"
	"tfrc/internal/stats"
	"tfrc/internal/tcp"
	"tfrc/internal/tfrcsim"
)

// Fig18Params reproduces Figure 18: the quality of the loss estimator as
// a one-step predictor of the future loss rate, for history sizes 2-32
// loss intervals, with constant versus decreasing weights. Loss-interval
// traces are harvested from a mix of simulated conditions (DropTail
// congestion, RED congestion, and step-changing random loss), standing in
// for the paper's set of Internet experiments.
type Fig18Params struct {
	HistorySizes []int
	Duration     float64 // per trace source
	Seed         int64
}

// DefaultFig18 matches the paper's history-size ladder.
func DefaultFig18() Fig18Params {
	return Fig18Params{HistorySizes: []int{2, 4, 8, 16, 32}, Duration: 150, Seed: 1}
}

// PaperFig18 extends the trace sources to the paper's 600 s.
func PaperFig18() Fig18Params {
	p := DefaultFig18()
	p.Duration = 600
	return p
}

// Validate implements Params.
func (p *Fig18Params) Validate() error {
	var v checks
	nonEmpty(&v, "HistorySizes", len(p.HistorySizes))
	atLeast(&v, "HistorySizes", 1, p.HistorySizes...)
	positive(&v, "Duration", p.Duration)
	return v.err
}

// fig18 harvests one loss-interval trace per cell — a DropTail and a
// RED dumbbell shared with TCP, and step-changing Bernoulli loss on a
// clean pipe — and scores the estimators over all of them in Reduce.
func init() {
	Define(Spec[Fig18Params, []float64, *Fig18Result]{
		Name:        "fig18",
		Aliases:     []string{"18"},
		Description: "loss-predictor error vs history size and weighting",
		Default:     DefaultFig18,
		Presets:     map[string]func() Fig18Params{"paper": PaperFig18},
		Cells:       func(*Fig18Params) int { return 3 },
		Cell: func(sched *sim.Scheduler, p *Fig18Params, idx int) []float64 {
			switch idx {
			case 0:
				return congestedTrace(sched, netsim.QueueDropTail, p.Duration, p.Seed)
			case 1:
				return congestedTrace(sched, netsim.QueueRED, p.Duration, p.Seed+1)
			default:
				return bernoulliTrace(sched, p.Duration, p.Seed)
			}
		},
		Reduce: fig18Reduce,
	})
}

// Fig18Point is one bar of the figure.
type Fig18Point struct {
	HistorySize     int
	ConstantWeights bool
	AvgError        float64
	ErrStdDev       float64
}

// Fig18Result carries all bars plus the trace inventory.
type Fig18Result struct {
	Points    []Fig18Point
	Intervals int // total intervals evaluated
}

// congestedTrace records the loss intervals one TFRC flow sees sharing
// a dumbbell with two TCP flows.
func congestedTrace(sched *sim.Scheduler, q netsim.QueueKind, duration float64, seed int64) []float64 {
	var log []float64
	cfg := tfrcsim.DefaultConfig()
	cfg.OnLossInterval = func(iv float64) { log = append(log, iv) }
	runScenarioCell(sched, Scenario{
		NTCP:         2,
		NTFRC:        1,
		BottleneckBW: 4e6,
		Queue:        q,
		TCPVariant:   tcp.Sack,
		TFRC:         cfg,
		Duration:     duration,
		BinWidth:     1,
		Seed:         seed,
	})
	return log
}

// bernoulliTrace records the loss intervals of one TFRC flow under
// step-changing Bernoulli loss on a clean pipe.
func bernoulliTrace(sched *sim.Scheduler, duration float64, seed int64) []float64 {
	var log []float64
	cfg := tfrcsim.DefaultConfig()
	cfg.OnLossInterval = func(iv float64) { log = append(log, iv) }
	drop := &lossDropper{p: 0.02, rng: sched.NewRand(seed + 9)}
	snd, _ := lossyPipe(sched, 1e8, 0.060, 10000, cfg, drop)
	rates := []float64{0.05, 0.01, 0.08, 0.005, 0.03}
	for i, r := range rates {
		sched.At(duration*float64(i+1)/6, func() { drop.p = r })
	}
	snd.Start(0)
	sched.RunUntil(duration)
	return log
}

// fig18Reduce evaluates every estimator configuration as a
// one-step-ahead predictor: after each closed interval the estimator
// predicts p̂, which is scored against the realized next interval's rate
// 1/s_next.
func fig18Reduce(pr *Fig18Params, traces [][]float64) *Fig18Result {
	res := &Fig18Result{}
	for _, constant := range []bool{true, false} {
		for _, n := range pr.HistorySizes {
			var errs []float64
			for _, tr := range traces {
				if len(tr) < n+2 {
					continue
				}
				h := core.NewLossHistory(core.LossHistoryConfig{
					N:               n,
					ConstantWeights: constant,
				})
				for k, iv := range tr {
					if k >= n { // history warm: score the prediction
						pHat := h.LossEventRate()
						actual := 1 / iv
						errs = append(errs, math.Abs(pHat-actual))
					}
					h.OnLossEvent(iv)
				}
			}
			res.Points = append(res.Points, Fig18Point{
				HistorySize:     n,
				ConstantWeights: constant,
				AvgError:        stats.Mean(errs),
				ErrStdDev:       stats.StdDev(errs),
			})
			if len(errs) > res.Intervals {
				res.Intervals = len(errs)
			}
		}
	}
	return res
}

// Table implements Result: "history weights avgError errStdDev" rows.
func (r *Fig18Result) Table(w io.Writer) {
	fmt.Fprintln(w, "# Figure 18: loss-prediction error by history size and weighting")
	fmt.Fprintln(w, "# history\tweights\tavgError\terrStdDev")
	for _, p := range r.Points {
		kind := "decreasing"
		if p.ConstantWeights {
			kind = "constant"
		}
		fmt.Fprintf(w, "%d\t%s\t%.5f\t%.5f\n", p.HistorySize, kind, p.AvgError, p.ErrStdDev)
	}
}
