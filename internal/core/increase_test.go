package core

import (
	"math"
	"testing"
)

// deltaT is the paper's Equation (4): the per-RTT increase in allowed rate
// (packets/RTT) for average loss interval A and normalized weight w on the
// most recent interval.
func deltaT(a, w float64) float64 {
	return 1.2 * (math.Sqrt(a+w*1.2*math.Sqrt(a)) - math.Sqrt(a))
}

func TestAppendixA1Formula(t *testing.T) {
	// ΔT(A, w) approaches 0.72·w from below as A grows: 0.12 for
	// w = 1/6 (the paper's no-discounting bound), 0.288 for w = 0.4
	// (paper rounds to 0.28), 0.72 for w = 1 (paper: "less than one
	// packet/RTT", rounded to 0.7).
	cases := []struct {
		w float64
	}{{1.0 / 6.0}, {0.4}, {1.0}}
	for _, c := range cases {
		bound := 0.72 * c.w
		worst := 0.0
		for a := 1.0; a < 1e7; a *= 1.3 {
			if d := deltaT(a, c.w); d > worst {
				worst = d
			}
		}
		if worst > bound+1e-9 {
			t.Fatalf("w=%v: max ΔT = %v exceeds asymptote %v", c.w, worst, bound)
		}
		// The asymptote is nearly attained: this is a tight bound.
		if worst < bound-0.01 {
			t.Fatalf("w=%v: max ΔT = %v far below asymptote %v", c.w, worst, bound)
		}
	}
}

func TestIncreaseRateBoundDynamics(t *testing.T) {
	// Drive the real LossHistory the way a congestion-free period does
	// (paper Appendix A.1 / Figure 19): average interval A = 100, then
	// the open interval grows by the allowed 1.2√Â packets per RTT.
	// Without discounting the rate climbs by at most 0.12 pkts/RTT per
	// RTT. With discounting the paper's bound is 0.28; our RFC 3448
	// discount trigger (compare s₀ against the *reported* average,
	// which itself grows) settles at ≈ 0.195 — inside the paper's bound
	// and clearly faster than the undiscounted 0.12.
	for _, tc := range []struct {
		name       string
		discount   bool
		upper      float64
		mustExceed float64
	}{
		{"no discounting", false, 0.121, 0.11},
		{"with discounting", true, 0.28, 0.15},
	} {
		// One report per RTT: the rate follows the reported p, and each
		// report is the discount trigger of the next.
		h := NewLossHistory(LossHistoryConfig{N: 8, Discounting: tc.discount})
		fill(h, 100, 100, 100, 100, 100, 100, 100, 100)
		open := 0.0
		prevRate := 1.2 * math.Sqrt(1/h.Report())
		peak := 0.0
		for rtt := 0; rtt < 2000; rtt++ {
			open += prevRate // 1.2√Â packets arrive per RTT
			h.SetOpen(open)
			rate := 1.2 * math.Sqrt(1/h.Report())
			inc := rate - prevRate
			if inc > tc.upper {
				t.Fatalf("%s: increase %v pkts/RTT at rtt %d exceeds %v",
					tc.name, inc, rtt, tc.upper)
			}
			if inc > peak {
				peak = inc
			}
			prevRate = rate
		}
		if peak < tc.mustExceed {
			t.Fatalf("%s: peak increase %v never exceeded %v", tc.name, peak, tc.mustExceed)
		}
	}
}

func TestNoIncreaseUntilLongerThanAverage(t *testing.T) {
	// §3.5.3: TFRC does not increase at all until a longer-than-average
	// loss-free period has passed (s0 must exceed the average before
	// max(ŝ, ŝ_new) moves).
	h := NewLossHistory(DefaultLossHistory())
	fill(h, 100, 100, 100, 100, 100, 100, 100, 100)
	base := h.AvgInterval()
	for s0 := 1.0; s0 <= 100; s0++ {
		h.SetOpen(s0)
		if h.AvgInterval() > base+1e-9 {
			t.Fatalf("average rose at s0 = %v ≤ Â", s0)
		}
	}
	h.SetOpen(150)
	if h.AvgInterval() <= base {
		t.Fatal("average did not rise for s0 = 1.5·Â")
	}
}
