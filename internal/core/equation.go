// Package core implements the TFRC congestion-control algorithms from
// Floyd, Handley, Padhye & Widmer, "Equation-Based Congestion Control for
// Unicast Applications" (SIGCOMM 2000): the TCP response function used as
// the control equation, the Average Loss Interval loss-event-rate
// estimator with history discounting, RTT smoothing, and the sender and
// receiver agents. Everything here is transport-agnostic and clock-free:
// an agent's turns (send, report arrival and no-feedback expiry on the
// sender; data arrival and report-timer expiry on the receiver) take
// the driver's clock reading and return what to send and which timer to
// arm, so the same code drives both the packet-level simulator
// (internal/tfrcsim) and the wire implementation (internal/wire).
package core

import "math"

// ThroughputEq is a TCP response function: it returns the allowed sending
// rate in bytes/sec given the segment size s (bytes), round-trip time r
// (seconds), retransmit timeout tRTO (seconds), and loss event rate p.
type ThroughputEq func(s float64, r, tRTO, p float64) float64

// PFTK is the full TCP response function of Padhye, Firoiu, Towsley &
// Kurose (SIGCOMM '98), the paper's Equation (1):
//
//	T = s / ( R·√(2p/3) + t_RTO·(3·√(3p/8))·p·(1+32p²) )
//
// It gives an upper bound on the steady-state sending rate of a Reno TCP
// experiencing loss event rate p. p ≤ 0 returns +Inf (no loss observed:
// the equation imposes no limit); p is clamped to 1 from above.
func PFTK(s float64, r, tRTO, p float64) float64 {
	if p <= 0 {
		return math.Inf(1)
	}
	if p > 1 {
		p = 1
	}
	denom := r*math.Sqrt(2*p/3) + tRTO*3*math.Sqrt(3*p/8)*p*(1+32*p*p)
	return s / denom
}

// Simple is the deterministic TCP response function of Mahdavi & Floyd
// used by the paper's Appendix A analysis:
//
//	T = s·√1.5 / (R·√p)
//
// It ignores timeouts, so it is accurate only at small-to-moderate loss
// rates. p ≤ 0 returns +Inf.
func Simple(s float64, r, _ float64, p float64) float64 {
	if p <= 0 {
		return math.Inf(1)
	}
	if p > 1 {
		p = 1
	}
	return s * math.Sqrt(1.5) / (r * math.Sqrt(p))
}

// InverseP inverts a response function: it returns the loss event rate p
// at which eq yields sending rate target (bytes/sec) under the given s, r
// and tRTO. TFRC uses this to seed the loss history when slow start ends
// (§3.4.1): the expected loss interval that would produce half the rate at
// which the first loss occurred. The response functions are strictly
// decreasing in p, so a bisection on [1e-9, 1] suffices. Targets above
// eq(1e-9) return 1e-9; targets below eq(1) return 1.
func InverseP(eq ThroughputEq, s float64, r, tRTO, target float64) float64 {
	const lo, hi = 1e-9, 1.0
	if target >= eq(s, r, tRTO, lo) {
		return lo
	}
	if target <= eq(s, r, tRTO, hi) {
		return hi
	}
	a, b := lo, hi
	for i := 0; i < 80; i++ {
		mid := (a + b) / 2
		if eq(s, r, tRTO, mid) > target {
			a = mid // rate too high: need more loss
		} else {
			b = mid
		}
	}
	return (a + b) / 2
}
