package core

import "math"

// RTTEstimator smooths round-trip time samples with an exponentially
// weighted moving average, and maintains the auxiliary average M of the
// square roots of the samples used by the paper's inter-packet-spacing
// adjustment (§3.4):
//
//	t_inter-packet = s·√R₀ / (T·M)
//
// A small weight on new samples keeps the rate responsive without the
// oscillation of rate ∝ 1/R₀; the √RTT term restores short-term
// delay-based congestion avoidance at reduced loop gain.
type RTTEstimator struct {
	weight float64 // fraction of a new sample blended into the averages
	srtt   float64
	sqrtM  float64 // EWMA of √sample
	last   float64 // most recent raw sample R₀
	init   bool
}

// NewRTTEstimator returns an estimator placing weight q on each new
// sample (the paper's recommended middle ground is a small q such as 0.1;
// q must be in (0, 1]).
func NewRTTEstimator(q float64) *RTTEstimator {
	e := new(RTTEstimator)
	e.Init(q)
	return e
}

// Init resets an estimator in place — the re-initialization path for
// estimators embedded by value in pooled agents.
func (e *RTTEstimator) Init(q float64) {
	if q <= 0 || q > 1 {
		panic("core: RTT EWMA weight must be in (0, 1]")
	}
	*e = RTTEstimator{weight: q}
}

// OnSample folds one RTT measurement into the averages.
func (e *RTTEstimator) OnSample(r float64) {
	if r <= 0 {
		return
	}
	e.last = r
	if !e.init {
		e.init = true
		e.srtt = r
		e.sqrtM = math.Sqrt(r)
		return
	}
	q := e.weight
	e.srtt = (1-q)*e.srtt + q*r
	e.sqrtM = (1-q)*e.sqrtM + q*math.Sqrt(r)
}

// Valid reports whether at least one sample has been folded in.
func (e *RTTEstimator) Valid() bool { return e.init }

// SRTT returns the smoothed round-trip time.
func (e *RTTEstimator) SRTT() float64 { return e.srtt }

// Last returns the most recent raw sample R₀.
func (e *RTTEstimator) Last() float64 { return e.last }

// SqrtMean returns M, the moving average of √RTT.
func (e *RTTEstimator) SqrtMean() float64 { return e.sqrtM }

// RTO returns the retransmit-timeout estimate. The paper finds the simple
// heuristic t_RTO = 4R provides fairness with TCP in practice (§3.2), so
// that is what TFRC uses.
func (e *RTTEstimator) RTO() float64 { return 4 * e.srtt }
