package exp

import (
	"fmt"
	"math"
	"runtime"
	"sync"
	"testing"

	"tfrc/internal/core"
	"tfrc/internal/faults"
	"tfrc/internal/tfrcsim"
	"tfrc/internal/traffic"
)

// The paper's claims as assertions. Goldens show that the code agrees
// with itself; each row here holds a quantity an experiment measures to
// a band the paper or a model puts it in. A row's band is derived in the
// comment above it. A cell outside a row's stated domain is logged, not
// checked, so the disagreement stays visible under -v, where every
// reading is logged. The paper's section numbers and its readings of its
// own figures are cited from memory: the repository holds only its
// title.

// under1 is the top of a band that reads "below 1": the largest float64
// under 1.
var under1 = math.Nextafter(1, 0)

// shared runs the experiment name at the parameters params returns, on
// every CPU, the first time a row or test reads it; every later reader
// gets the same result, which it must not modify.
func shared[R Result](name string, params func() Params) func(testing.TB) R {
	var (
		once sync.Once
		res  Result
		err  error
	)
	return func(t testing.TB) R {
		t.Helper()
		once.Do(func() {
			d, _ := Lookup(name)
			res, err = RunExperiment(d, params(), RunOptions{Workers: runtime.NumCPU()})
		})
		if err != nil {
			t.Fatal(err)
		}
		return res.(R)
	}
}

// The runs that rows and the shape tests of exp_test.go share.
var (
	fig02Run = shared[*Fig02Result]("fig2", func() Params { p := DefaultFig02(); return &p })
	fig05Run = shared[*Fig05Result]("fig5", func() Params { p := DefaultFig05(); return &p })
	fig09Run = shared[*Fig09Result]("fig9", func() Params { p := DefaultFig09(); return &p })
	fig11Run = shared[*Fig11Result]("fig11", func() Params {
		return &Fig11Params{Sources: []int{60, 150}, Duration: 120, Warmup: 30, Timescales: []float64{1, 10}, Runs: 1, Seed: 1}
	})
	fig14Run = shared[*Fig14Result]("fig14", func() Params { p := DefaultFig14(); return &p })
	fig15Run = shared[*Fig15Result]("fig15", func() Params { return &Fig15Params{Duration: 90, Seed: 1} })
	fig16Run = shared[*Fig16Result]("fig16", func() Params { return &Fig16Params{Timescales: []float64{1, 5, 20}, Duration: 90, Seed: 1} })
	fig18Run = shared[*Fig18Result]("fig18", func() Params { p := DefaultFig18(); p.Duration = 80; return &p })
)

// eq1 is the paper's Equation (1), the TCP response function of Padhye,
// Firoiu, Towsley and Kurose, with t_RTO = 4R as the paper sets it
// (§3.2), in bytes per second for s-byte packets:
//
//	T = s / (R·√(2p/3) + 4R·3·√(3p/8)·p·(1+32p²))
//
// It is written out here, not taken from core, so that the rows hold the
// simulation to the paper rather than to the code under test.
func eq1(s, r, p float64) float64 {
	return s / (r*math.Sqrt(2*p/3) + 4*r*3*math.Sqrt(3*p/8)*p*(1+32*p*p))
}

// a1Increase is the bound of the paper's Appendix A.1 on how fast a
// TFRC sender's rate grows once losses stop, in packets per RTT per
// RTT. At an average loss interval of A packets the sender's rate is
// 1.2·√A packets per RTT (Eq. (1) without its timeout term), so in one
// loss-free RTT the open interval grows by 1.2·√A packets, and the
// average, which weighs the open interval w of the whole, by w·1.2·√A.
// The rate then grows by 1.2·(√(A + w·1.2·√A) − √A), which rises with A
// towards 0.72·w; the bound is its largest value over A.
func a1Increase(w float64) float64 {
	worst := 0.0
	for a := 1.0; a < 1e6; a *= 1.1 {
		worst = max(worst, 1.2*(math.Sqrt(a+w*1.2*math.Sqrt(a))-math.Sqrt(a)))
	}
	return worst
}

// lossWeights are the paper's weights of the last eight loss intervals
// (§3.3), most recent first.
var lossWeights = [8]float64{1, 1, 1, 1, 0.8, 0.6, 0.4, 0.2}

// halvingFloor is the fewest round-trips in which a TFRC sender at loss
// event rate p0 can halve its rate once every second packet is lost
// (Appendix A.2). The history starts as eight intervals of 1/p0. After k
// loss events of persistent congestion, each closing an interval near
// zero, the old intervals hold the slots from k on, so the average
// interval is at least their weight, Σ_{i≥k} w_i / Σ w_i, times 1/p0:
// 5/6, 4/6, 3/6, 2/6, 1.2/6, … The rate, Eq. (1) at p0 over that
// fraction, halves at the first k where it falls to half Eq. (1) at p0.
// A loss event begins at least one RTT after the last, the first at the
// switch, and the sender hears of each a round-trip after it begins, so
// the k-th event moves the rate no sooner than k RTTs after the switch.
func halvingFloor(p0 float64) int {
	var total float64
	for _, w := range lossWeights {
		total += w
	}
	rest := total
	for k := 1; k < len(lossWeights); k++ {
		rest -= lossWeights[k-1]
		if eq1(1, 1, p0*total/rest) <= eq1(1, 1, p0)/2 {
			return k
		}
	}
	return len(lossWeights)
}

// halving is the reading of a cell that halved its rate after rtts
// round-trips of persistent congestion, having lost one packet in
// dropEvery before it.
func halving(cell string, dropEvery, rtts int) reading {
	p0 := 1 / float64(dropEvery)
	perRTT := eq1(1, 1, p0) // Eq. (1) in packets per RTT
	return reading{
		cell:     cell,
		value:    float64(rtts),
		inDomain: perRTT >= 1,
		lo:       float64(halvingFloor(p0)),
		note:     fmt.Sprintf("(Eq. 1 at p0=%.3f: %.2f packets per RTT; floor %d RTTs)", p0, perRTT, halvingFloor(p0)),
	}
}

// reading is one cell's value of a claim's quantity.
type reading struct {
	cell     string
	value    float64
	inDomain bool    // false: logged, not held to the band
	lo       float64 // the cell's own lower edge, where above the claim's
	note     string  // what else the log line shows
}

// claim is one row of the claims table.
type claim struct {
	name   string
	lo, hi float64
	read   func(t *testing.T) []reading
}

func TestPaperClaims(t *testing.T) {
	fig6 := sync.OnceValue(fig06Cells) // run by the first row that reads it
	claims := []claim{
		// Figure 2, §3.3 (the Average Loss Interval method): one flow
		// over a pipe that drops every (1/P)-th packet, P = 1 % until
		// T1 = 6 s and 10 % until T2 = 9 s. Once the eight intervals the
		// average weighs all date from one phase, each is 1/P packets and
		// their weighted mean is 1/P. The open interval s0 enters only
		// when it raises the mean, as (s0 + 5/P)/6 (§3.3's weights sum to
		// 6, the open interval's is 1), and the next drop closes it well
		// before it reaches 2/P, so the estimate lies in [6/7·P, P].
		// Domain: from the ninth drop of a phase on, when no older
		// interval is left: 9/P packets, which go out at no less than
		// Eq. (1)'s rate at P and the base RTT (no interval is shorter
		// than 1/P, and the 1 Gb/s link queues nothing), so by 4.0 s at
		// 1 % and 2.5 s after T1 at 10 %. Readings: each window's lowest
		// and highest estimate over P.
		{"fig2 p estimate / link loss rate, settled", 6.0 / 7, 1, func(t *testing.T) []reading {
			pr := DefaultFig02()
			var out []reading
			for _, ph := range [][3]float64{{0, pr.T1, fig2P1}, {pr.T1, pr.T2, fig2P2}} {
				from, to, p := ph[0]+9/ph[2]/eq1(1, lossyPipeRTT, ph[2]), ph[1], ph[2]
				lo, hi := math.Inf(1), math.Inf(-1)
				for _, pt := range fig02Run(t).Points {
					if from <= pt.Time && pt.Time < to {
						lo, hi = min(lo, pt.EstLossRate), max(hi, pt.EstLossRate)
					}
				}
				cell := fmt.Sprintf("p=%g from %.2f s to %g s:", p, from, to)
				out = append(out, reading{cell: cell + " lowest", value: lo / p, inDomain: true},
					reading{cell: cell + " highest", value: hi / p, inDomain: true})
			}
			return out
		}},
		// Figures 3 and 4, §3.4 (the sender's inter-packet spacing): one
		// flow through a DropTail pipe with the paper's RTT weight 0.05,
		// without and with the adjustment that scales each gap by
		// √R_sample/M, M the average of √R_sample. The slow RTT average
		// lets the rate overshoot while the queue fills and hold on after
		// it drains, an oscillation at the queue's own period. The
		// adjustment stretches the gaps as soon as a sample sees the
		// queue and shrinks them as it drains, negative feedback within
		// a round-trip, so the sent rate varies less. Band: Figure 4's
		// CoV of the binned rate over Figure 3's below 1, at every buffer
		// size of the default sweep.
		{"fig4 CoV / fig3 CoV", 0, under1, func(t *testing.T) []reading {
			p3, p4 := DefaultFig03(), DefaultFig04()
			r3 := runWith[*Fig03Result](t, "fig3", &p3, runtime.NumCPU())
			r4 := runWith[*Fig03Result](t, "fig4", &p4, runtime.NumCPU())
			out := make([]reading, len(r3.Curves))
			for i, c := range r3.Curves {
				out[i] = reading{cell: fmt.Sprintf("buffer=%d", c.Buffer), value: r4.Curves[i].CoV / c.CoV, inDomain: true,
					note: fmt.Sprintf("(CoV %.4f against %.4f)", r4.Curves[i].CoV, c.CoV)}
			}
			return out
		}},
		// Figure 5, §3.5.1: a loss event is one or more losses in one
		// round-trip, so a flow sending N packets per RTT under Bernoulli
		// loss p_loss sees p_event = (1-(1-p_loss)^N)/N ≤ p_loss, which
		// to first order is p_loss·(1 - (N-1)·p_loss/2). With N set by
		// Eq. (1), the timeout term keeps N·p_loss small at high loss,
		// and the paper reads the gap as at most about 10 % for a flow
		// sending at the rate the equation allows. Domain: that rate and
		// below (multipliers ≤ 1); the 2× curve, a flow sending twice
		// what the equation allows, sees larger gaps and is logged.
		{"fig5 (p_loss-p_event)/p_loss", 0, 0.10, func(t *testing.T) []reading {
			res := fig05Run(t)
			var out []reading
			for i, m := range res.Multiplier {
				var worst reading
				for _, row := range res.Rows {
					r := reading{
						cell:     fmt.Sprintf("rate=%.1fx p_loss=%.3f", m, row.PLoss),
						value:    (row.PLoss - row.PEvent[i]) / row.PLoss,
						inDomain: m <= 1,
					}
					if r.inDomain {
						out = append(out, r)
					} else if r.value >= worst.value {
						worst = r
					}
				}
				if m > 1 {
					out = append(out, worst) // only the largest gap of a curve outside the domain
				}
			}
			return out
		}},
		// Figure 5 again: p_event = (1-(1-p_loss)^N)/N is at most p_loss,
		// since (1-p)^N ≥ 1-Np (Bernoulli's inequality), and falls as N
		// grows, since 1-(1-p)^N is concave in N and zero at N = 0. A
		// flow sending m times what Eq. (1) allows has the larger N at
		// any p_event the larger m is, so the curves are ordered: p_loss
		// ≥ p_event(0.5×) ≥ p_event(1×) ≥ p_event(2×). The row above
		// holds the first step for the curves in its domain; this one
		// holds each step between adjacent curves. Reading: the smallest
		// p_event of the slower curve minus the faster, over p_loss, over
		// every p_loss. Band: at least 0 (and at most 1).
		{"fig5 slower minus faster p_event / p_loss", 0, 1, func(t *testing.T) []reading {
			res := fig05Run(t)
			var out []reading
			for _, pair := range [][2]int{{2, 0}, {0, 1}} { // the curves are 1×, 2×, 0.5×
				slow, fast := pair[0], pair[1]
				r := reading{value: math.Inf(1), inDomain: true}
				for _, row := range res.Rows {
					if d := (row.PEvent[slow] - row.PEvent[fast]) / row.PLoss; d < r.value {
						r.value, r.cell = d, fmt.Sprintf("%.1fx minus %.1fx, smallest at p_loss=%.3f", res.Multiplier[slow], res.Multiplier[fast], row.PLoss)
					}
				}
				out = append(out, r)
			}
			return out
		}},
		// Eq. (1) at the fixed point, TFRC side (§3). A TFRC sender sets
		// its rate to T(s, R, p) at the p its receiver last reported and
		// its own R, so its mean rate over the tail is the mean of T over
		// the tail's (p, R). T is convex in p (∝ p^-1/2 while the timeout
		// term is small), so by Jensen that mean sits above T at the mean
		// p, by about 3/8·CV² of p: a few percent for an average of eight
		// loss intervals. The 2·X_recv cap, the √R spacing and a tail
		// with only tens of loss events at the lowest loss rates move it
		// either way. Band: within a factor 4/3 either way, the tolerance
		// the ccfair CI check holds TFRC to against TCP. Cell means over
		// the cell's TFRC flows.
		{"fig6 TFRC rate / Eq.1(p, R)", 0.75, 1.33, func(*testing.T) []reading {
			return fig6().ratios(true, 0)
		}},
		// Eq. (1) at the fixed point, TCP side: Eq. (1) is a model of
		// TCP, so a TCP flow's sending rate at its own loss event rate
		// and RTT should sit on it too, in the same band. Domain: the
		// model repairs losses by fast retransmit and times out on a
		// fraction 3/W of them; fast retransmit needs three duplicate
		// ACKs after the loss, so a window W of at least 4 packets.
		// Below it nearly every loss ends in a timeout, timed by TCP's
		// own RTO and backoff rather than Eq. (1)'s 4R, and the cell is
		// logged. Cell means over the cell's TCP flows.
		{"fig6 TCP rate / Eq.1(p, R)", 0.75, 1.33, func(*testing.T) []reading {
			return fig6().ratios(false, 4)
		}},
		// Figure 8, §4.1: 16 TCP and 16 TFRC flows on a 15 Mb/s
		// bottleneck, flows of each traced in 0.15 s bins, about two
		// round-trips, once per queue discipline. The fig10 row's
		// argument holds at this timescale: TCP halves its window at
		// every loss event, TFRC moves its rate by at most the weight of
		// one new interval. Band: TFRC's mean CoV over TCP's below 1, for
		// each queue.
		{"fig8 TFRC CoV / TCP CoV", 0, under1, func(t *testing.T) []reading {
			pr := DefaultFig08Grid()
			var out []reading
			for _, r := range runWith[*Fig08GridResult](t, "fig8", &pr, runtime.NumCPU()).Results {
				out = append(out, reading{cell: r.Queue.String(), value: r.CoVTFRC / r.CoVTCP, inDomain: true})
			}
			return out
		}},
		// Figure 10: the coefficient of variation of a flow's throughput
		// in bins of one timescale, for 16 SACK and 16 TFRC flows on a
		// RED bottleneck, is lower for TFRC than for TCP at every
		// timescale the paper plots: TFRC is the smoother. A TCP flow
		// halves its window at every loss event, so over a few RTTs its
		// rate swings by a factor of two about its mean; a TFRC sender
		// sets its rate from the average of eight loss intervals, which
		// one new interval moves by at most its weight, a sixth without
		// discounting. Longer bins average over more loss events, both
		// CoVs fall, and what is left is the drift of each flow's share
		// of the link, which both protocols see, so the ratio climbs
		// towards 1 without reaching it. Band: the ratio of the mean
		// CoVs over the runs below 1, at each of the default grid's
		// six timescales.
		{"fig10 TFRC CoV / TCP CoV", 0, under1, func(t *testing.T) []reading {
			r := fig09Run(t)
			out := make([]reading, len(r.Timescales))
			for i, ts := range r.Timescales {
				out[i] = reading{cell: fmt.Sprintf("timescale=%gs", ts), value: r.CoVTFRC[i].Mean / r.CoVTCP[i].Mean, inDomain: true}
			}
			return out
		}},
		// Figure 9: on the same runs, two TFRC flows are at least as
		// equivalent to each other as two TCP flows are, at every
		// timescale. The equivalence ratio of a pair at one timescale
		// is the mean over bins of min(a/b, b/a) (Eq. (3)). Each pair's
		// two base RTTs are drawn from the same range, and both
		// protocols' rates go as 1/R, so the pairs' mean rates differ
		// by the same factor for both; what separates them is how far
		// each flow's rate wanders from its mean. For two independent
		// rates of mean μ and CoV c, 1 − E[min/max] grows with E|a−b|/μ,
		// about 1.13·c for small c, so the protocol with Figure 10's
		// lower CoV has the higher ratio. Band: TFRC-vs-TFRC minus
		// TCP-vs-TCP, each the mean over the runs, at least 0 (and at
		// most 1, since both ratios lie in [0, 1]).
		{"fig9 TFRC-TFRC minus TCP-TCP equivalence", 0, 1, func(t *testing.T) []reading {
			r := fig09Run(t)
			out := make([]reading, len(r.Timescales))
			for i, ts := range r.Timescales {
				out[i] = reading{cell: fmt.Sprintf("timescale=%gs", ts), value: r.TFRCvTFRC[i].Mean - r.TCPvTCP[i].Mean, inDomain: true}
			}
			return out
		}},
		// Figure 11, §4.1: one TCP and one TFRC flow on a 15 Mb/s RED
		// bottleneck with n ON/OFF sources, each sending 500 kb/s through
		// Pareto ON periods of mean 1 s and OFF periods of mean 2 s: an
		// offered load L = n·500/3 kb/s that never backs off. Where L
		// exceeds the capacity C, at least L − C of it is dropped
		// whatever the two responsive flows do, and their packets only
		// add arrivals, so the drop fraction is at least 1 − C/L (0.4 at
		// 150 sources). The band takes L at its long-run mean. Domain:
		// L > C; below it nothing forces a loss and the cell is logged.
		// Reading: the drop fraction over 1 − C/L. Band: at least 1.
		{"fig11 loss rate / forced-loss floor 1-C/L", 1, math.Inf(1), func(t *testing.T) []reading {
			const capacity = 15e6 // fig11Cell's bottleneck
			on := traffic.DefaultOnOff()
			var out []reading
			for _, row := range fig11Run(t).Rows {
				load := float64(row.Sources) * on.Rate * on.MeanOn / (on.MeanOn + on.MeanOff)
				out = append(out, reading{cell: fmt.Sprintf("%d sources", row.Sources), value: row.LossRate.Mean / (1 - capacity/load), inDomain: load > capacity,
					note: fmt.Sprintf("(loss %.4f, offered %.1f Mb/s)", row.LossRate.Mean, load/1e6)})
			}
			return out
		}},
		// Figure 14, §4.1: 40 long-lived flows, all TCP or all TFRC, on a
		// 15 Mb/s DropTail bottleneck with a 250-packet buffer and
		// short-lived TCP background. A TCP window grows a packet per RTT
		// and sends each ACK's allowance back to back, so the buffer
		// overflows in bursts; TFRC paces its packets at a rate that one
		// loss event moves by at most the weight of one interval, so at
		// the same load it offers the queue no burst beyond its rate and
		// overflows it no more often. The paper reads 3.5 % for TFRC
		// against 4.9 % for TCP, 0.71. Band: TFRC's drop rate over TCP's
		// at most 1.
		{"fig14 TFRC drop rate / TCP drop rate", 0, 1, func(t *testing.T) []reading {
			r := fig14Run(t)
			return []reading{{cell: "default", value: r.TFRC.DropRate / r.TCP.DropRate, inDomain: true,
				note: fmt.Sprintf("(%.4f against %.4f)", r.TFRC.DropRate, r.TCP.DropRate)}}
		}},
		// Figure 15, §4.3: one TCP and one TFRC flow over the UCL path
		// profile (2 Mb/s, 150 ms, a 40-packet DropTail buffer, four
		// ON/OFF sources), in 1 s bins, about seven round-trips. The
		// fig10 row's argument again: TCP halves at each loss event, TFRC
		// averages eight intervals. Band: TFRC's CoV over TCP's below 1.
		{"fig15 TFRC CoV / TCP CoV", 0, under1, func(t *testing.T) []reading {
			r := fig15Run(t)
			return []reading{{cell: "UCL", value: r.CoVTFRC / r.CoVTCPMean, inDomain: true}}
		}},
		// Figures 16 and 17, §4.3: the two UMASS profiles are one 10 Mb/s,
		// 70 ms path with a 100-packet DropTail buffer and the same load;
		// only the TCP sender differs. Linux's is SACK; Solaris's is Reno,
		// whose recovery from several losses in one window ends in a
		// timeout that SACK avoids, with an aggressive RTO that adds
		// spurious ones (the paper's diagnosis). That makes its TCP the
		// more variable flow at every timescale, and by the fig9 row's
		// argument a flow that wanders further from its mean is less
		// equivalent to its peer. Band: the
		// Linux path's TCP-vs-TFRC equivalence minus the Solaris path's
		// at least 0 (and at most 1), at each timescale.
		{"fig16 Linux minus Solaris equivalence", 0, 1, func(t *testing.T) []reading {
			r := fig16Run(t)
			eq := map[string][]float64{}
			for _, row := range r.Rows {
				eq[row.Path] = row.Eq
			}
			out := make([]reading, len(r.Timescales))
			for i, ts := range r.Timescales {
				out[i] = reading{cell: fmt.Sprintf("timescale=%gs", ts), value: eq["UMASS (Linux)"][i] - eq["UMASS (Solaris)"][i], inDomain: true}
			}
			return out
		}},
		// Figure 17, §4.3: on the Solaris path the anomaly is TCP's. Its
		// timeouts, above, collapse the window on top of the halvings at
		// loss events, while the TFRC trace "appears normal".
		// Band: TFRC's CoV over TCP's below 1, at each timescale. Domain:
		// the Solaris path. The paper claims nothing of the kind for the
		// other paths, whose cells are logged.
		{"fig17 TFRC CoV / TCP CoV", 0, under1, func(t *testing.T) []reading {
			r := fig16Run(t)
			var out []reading
			for _, row := range r.Rows {
				for i, ts := range r.Timescales {
					out = append(out, reading{cell: fmt.Sprintf("%s timescale=%gs", row.Path, ts), value: row.CoVTFRC[i] / row.CoVTCP[i], inDomain: row.Path == "UMASS (Solaris)"})
				}
			}
			return out
		}},
		// Figure 18, §4 (the loss estimator as a predictor): the
		// weighted average of the last n loss intervals predicts the
		// next. For intervals drawn about a steady mean with variance σ²,
		// a plain average's prediction error has variance σ²(1 + 1/n),
		// and the decreasing weights' stays near it, so the error falls
		// with n; a longer history loses only where the mean drifts
		// within it. The paper picked n = 8 where its error curve
		// flattens. Band: the average error at n = 8 over that at n = 2
		// at most 1, for constant and for decreasing weights.
		{"fig18 predictor error, history 8 / history 2", 0, 1, func(t *testing.T) []reading {
			r := fig18Run(t)
			var out []reading
			for _, constant := range []bool{true, false} {
				e := map[int]float64{}
				for _, p := range r.Points {
					if p.ConstantWeights == constant {
						e[p.HistorySize] = p.AvgError
					}
				}
				out = append(out, reading{cell: fmt.Sprintf("constant weights=%v", constant), value: e[8] / e[2], inDomain: true})
			}
			return out
		}},
		// Figure 19, Appendix A.1: once losses stop, the sender's rate
		// grows by at most a1Increase(w) packets per RTT per RTT, where w
		// is the weight of the open interval. Without history
		// discounting w = 1/6 (§3.3's weights sum to 6), a bound of
		// 0.12. Discounting the older intervals, to a quarter of their
		// weight at most, raises w towards 1/(1 + 5/4) = 0.44; the paper
		// takes it as about 0.4, a bound of 0.288 that it rounds to
		// 0.28. Band: above the undiscounted bound, since the sender
		// discounts, and at most the paper's discounted one.
		{"fig19 rate increase per RTT after loss stops", a1Increase(1.0 / 6), a1Increase(0.4), func(t *testing.T) []reading {
			pr := DefaultFig19()
			r := runWith[*Fig19Result](t, "fig19", &pr, 1)
			if r.PreSwitchRate <= 0 {
				t.Fatal("no pre-switch rate")
			}
			if last := r.Points[len(r.Points)-1]; last.RateBps < 1.2*r.PreSwitchRate {
				t.Errorf("rate did not grow after loss ended: %v vs %v", last.RateBps, r.PreSwitchRate)
			}
			return []reading{{cell: "default", value: r.MaxIncreasePerRTT, inDomain: true}}
		}},
		// Figures 20 and 21, Appendix A.2: under persistent congestion
		// (every second packet lost from the switch on) the paper's
		// sender halves its rate in three to eight round-trips, its band
		// here. A cell whose halvingFloor lies above three raises the
		// lower edge to it. With the simple response function, where the
		// rate goes as √(average interval), halving takes the fifth loss
		// event, so it is not possible in four RTTs or fewer; Eq. (1)'s
		// timeout term steepens the rate at higher p, so at Figure 20's
		// pre-switch p = 1/100 the fourth can do it (a floor of 4), and
		// at Figure 21's higher drop rates fewer still (the paper's 3
		// holds there). Domain: a pre-switch rate, Eq. (1) at p0, of at
		// least one packet per RTT. Below that a round-trip can pass
		// with no packet sent, so with no loss event, and the count grows
		// as the packets thin out: Figure 21's p = 0.2 and 0.25 are
		// logged.
		{"fig20 RTTs to halve the rate", 3, 8, func(t *testing.T) []reading {
			pr := DefaultFig20()
			r := runWith[*Fig19Result](t, "fig20", &pr, 1)
			return []reading{halving(fmt.Sprintf("p0=%.3f", 1/float64(pr.DropEveryBefore)), pr.DropEveryBefore, r.HalvedAfterRTTs)}
		}},
		// §4.4, through a feedback blackout: the blackout preset loses
		// every report of its one TFRC flow for L = 15 s. Each expiry of
		// the no-feedback timer halves the rate X and re-arms the timer
		// max(4R, 2s/X) ahead, R being the sender's RTT estimate, which
		// no sample moves during the outage; X stops at the floor of one
		// packet per t_mbi = 64 s. The last report arrives within R of
		// the outage's start, and while X ≥ s/(2R) the timer runs 4R, so
		// X falls to s/(2R) or below within R + 4R·k of the start, where
		// k = ⌈log2(2R·X0/s)⌉ and X0 is the highest rate the outage saw.
		// From a rate Y ≤ s/(2R) on, the timer runs 2s/X: m halvings take
		// 2s/Y·(2^m − 1), so D seconds after reaching Y the rate is below
		// 4s/(D + 2s/Y) < 4s/D. The lowest rate of the outage is
		// therefore below 4s/(L − R − 4R·k), well under one packet per
		// t_RTO = 4R for this L (2 to 3 s reach s/(2R)), and at least
		// the floor. Readings, each over its bound: the lowest rate over
		// 4s/(L − R − 4R·k), and over s/t_RTO with the floor s/t_mbi as
		// its lower edge; liveness, the longest send gap in the outage
		// over three packet spacings at the lowest rate (a pacing
		// interval, doubled by a halving mid-gap, plus timer slack;
		// faults.CheckGraceful also holds every gap to the rate in effect
		// at its end); and recovery, the time from the heal to the first
		// bin back at recoverFrac of the pre-outage goodput, over
		// recoverRTTs base round-trips plus the Θ(s/X) ramp the first
		// reports need at the lowest rate X.
		{"§4.4 blackout: reading / bound", 0, 1, blackoutReadings},
		{"fig21 RTTs to halve the rate", 3, 8, func(t *testing.T) []reading {
			pr := DefaultFig21()
			var out []reading
			for _, row := range runWith[*Fig21Result](t, "fig21", &pr, 1).Rows {
				// The cell drops one packet in max(3, round(1/p)).
				out = append(out, halving(fmt.Sprintf("p=%.3f", row.DropRate), max(3, int(1/row.DropRate+0.5)), row.RTTs))
			}
			return out
		}},
	}
	for _, c := range claims {
		t.Run(c.name, func(t *testing.T) {
			for _, r := range c.read(t) {
				lo := max(c.lo, r.lo)
				switch {
				case !r.inDomain:
					t.Logf("outside the domain, not checked: %s: %.3f %s", r.cell, r.value, r.note)
				case !(lo <= r.value && r.value <= c.hi):
					t.Errorf("%s: %.3f outside [%.4g, %.4g] %s", r.cell, r.value, lo, c.hi, r.note)
				default:
					t.Logf("%s: %.3f in [%.4g, %.4g] %s", r.cell, r.value, lo, c.hi, r.note)
				}
			}
		})
	}
}

// The §4.4 row's recovery target: recoverFrac of the pre-outage
// goodput back within recoverRTTs base round-trips of the heal.
const (
	recoverFrac = 0.9
	recoverRTTs = 100
)

// blackoutReadings runs the blackout preset and reads the §4.4 row's
// cells off it, each over its bound.
func blackoutReadings(t *testing.T) []reading {
	p := faultPhasePresets["blackout"]()
	res, sends, r := faultPhaseProbe(&p)
	if r <= 0 {
		t.Fatalf("no RTT estimate as the outage began: %v", r)
	}
	if res.NoFbCuts == 0 {
		t.Error("no no-feedback cuts during the outage")
	}
	from, to, _ := p.window()
	s := float64(tfrcsim.DefaultConfig().Sender.PacketSize)
	floor := s / core.MaxBackoffInterval
	x0 := 0.0 // the highest rate in effect during the outage
	for _, rp := range res.Rates {
		switch {
		case rp.T < from:
			x0 = rp.Rate
		case rp.T < to:
			x0 = max(x0, rp.Rate)
		}
	}
	k := math.Ceil(math.Log2(2 * r * x0 / s))
	cascade := 4 * s / (to - from - r - 4*r*k)
	rep := faults.CheckGraceful(faults.GracefulSpec{
		OutageStart:   from,
		OutageEnd:     to,
		PreFrom:       from / 2,
		PacketSize:    s,
		DegradeBelow:  s / (4 * r),
		FloorRate:     floor,
		RecoverFrac:   recoverFrac,
		RecoverWithin: recoverRTTs * 2 * (2*accessDelay + houseDelay),
		RampSlack:     4,
	}, sends, res.Rates, res.TFRCTotal, houseBin)
	if !rep.Live {
		t.Errorf("a send gap outgrew three spacings at the rate then: %s", rep)
	}
	recovery := math.Inf(1)
	if rep.RecoveredAt >= 0 {
		recovery = (rep.RecoveredAt - to) / (rep.RecoverBy - to)
	}
	note := rep.String()
	return []reading{
		{cell: fmt.Sprintf("lowest rate / 4s/(L-R-4Rk), k=%v", k), value: rep.DegradedRate / cascade, inDomain: cascade > 0, note: note},
		{cell: "lowest rate / (s/t_RTO)", value: rep.DegradedRate * 4 * r / s, inDomain: true, lo: floor * 4 * r / s, note: note},
		{cell: "longest send gap / (3s/lowest rate)", value: rep.MaxSendGap * rep.DegradedRate / (3 * s), inDomain: true, note: note},
		{cell: "recovery time / budget", value: recovery, inDomain: true, note: note},
	}
}

// fig06Grid is every cell of fig6's default grid with its flows' fixed
// points.
type fig06Grid struct {
	cells  []string
	points [][]fixedPoint
}

// fig06Cells runs fig6's default grid through fig06FixedPoints, a cell
// per CPU at a time.
func fig06Cells() *fig06Grid {
	pr := DefaultFig06()
	g := &fig06Grid{}
	type at struct {
		i     int
		queue int
		link  float64
		flows int
	}
	var todo []at
	for q := range pr.Queues {
		for _, l := range pr.LinkMbps {
			for _, n := range pr.TotalFlows {
				todo = append(todo, at{len(todo), q, l, n})
				g.cells = append(g.cells, fmt.Sprintf("%v %g Mb/s %d flows", pr.Queues[q], l, n))
			}
		}
	}
	g.points = make([][]fixedPoint, len(todo))
	work := make(chan at)
	var wg sync.WaitGroup
	for range runtime.GOMAXPROCS(0) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for c := range work {
				g.points[c.i] = fig06FixedPoints(pr.Queues[c.queue], c.link, c.flows, pr.Duration, pr.MeasureTail, pr.Seed)
			}
		}()
	}
	for _, c := range todo {
		work <- c
	}
	close(work)
	wg.Wait()
	return g
}

// ratios is, per cell, the mean over the TFRC (or TCP) flows of each
// flow's rate over Eq. (1) at its own p and R. A cell is in the domain
// when those flows average at least minWindow packets per RTT and 16
// loss events in the tail: with k events p is known to about 1/√k, and
// the ratio, which goes as √p, to 1/(2√k), so 16 events hold that to
// 12.5 %, half the band's lower side.
func (g *fig06Grid) ratios(tfrc bool, minWindow float64) []reading {
	const s = 1000 // every data packet in fig6 is 1000 bytes
	var out []reading
	for i, points := range g.points {
		var ratio, window, p, events, n float64
		for _, pt := range points {
			if pt.tfrc == tfrc {
				ratio += pt.rate / eq1(s, pt.r, pt.p)
				window += pt.rate * pt.r / s
				p += pt.p
				events += pt.p * float64(pt.pkts)
				n++
			}
		}
		ratio, window, p, events = ratio/n, window/n, p/n, events/n
		out = append(out, reading{
			cell:     g.cells[i],
			value:    ratio,
			inDomain: window >= minWindow && events >= 16,
			note:     fmt.Sprintf("(mean p %.4f, %.1f packets per RTT, %.1f loss events)", p, window, events),
		})
	}
	return out
}
