package exp

import (
	"fmt"
	"math"
	"runtime"
	"sync"
	"testing"
)

// The paper's claims as assertions. Goldens show that the code agrees
// with itself; each row here holds a quantity an experiment measures to
// a band the paper or a model puts it in. A row's band is derived in the
// comment above it. A cell outside a row's stated domain is logged, not
// checked, so the disagreement stays visible under -v.

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

// reading is one cell's value of a claim's quantity.
type reading struct {
	cell     string
	value    float64
	inDomain bool   // false: logged, not held to the band
	note     string // what else the log line shows
}

// claim is one row of the claims table.
type claim struct {
	name   string
	lo, hi float64
	read   func(t *testing.T) []reading
}

func TestPaperClaims(t *testing.T) {
	fig6 := fig06Cells()
	claims := []claim{
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
			pr := DefaultFig05()
			rows := runWith[*Fig05Result](t, "fig5", &pr, 1).Rows
			var out []reading
			for i, m := range pr.Multiplier {
				var worst reading
				for _, row := range rows {
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
			return fig6.ratios(true, 0)
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
			return fig6.ratios(false, 4)
		}},
	}
	for _, c := range claims {
		t.Run(c.name, func(t *testing.T) {
			for _, r := range c.read(t) {
				switch {
				case !r.inDomain:
					t.Logf("outside the domain, not checked: %s: %.3f %s", r.cell, r.value, r.note)
				case !(c.lo <= r.value && r.value <= c.hi):
					t.Errorf("%s: %.3f outside [%v, %v] %s", r.cell, r.value, c.lo, c.hi, r.note)
				}
			}
		})
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
