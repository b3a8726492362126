package core

// LossHistoryConfig parameterizes the Average Loss Interval estimator.
type LossHistoryConfig struct {
	// N is the number of closed loss intervals averaged (paper: 8).
	N int
	// ConstantWeights gives every interval equal weight instead of the
	// paper's decreasing tail — used by the Figure 18 predictor study.
	ConstantWeights bool
	// Discounting enables history discounting (§3.3, [FHPW00]): after the
	// open interval exceeds twice the average, older intervals are
	// smoothly de-weighted so the estimator tracks a sustained decrease
	// in congestion. Enabled in the protocol proper.
	Discounting bool
}

// discountThreshold floors the discount factor (RFC 3448 §5.5).
const discountThreshold = 0.25

// DefaultLossHistory is the configuration evaluated throughout the paper:
// eight intervals, decreasing weights on the older half, discounting on.
func DefaultLossHistory() LossHistoryConfig {
	return LossHistoryConfig{N: 8, Discounting: true}
}

// LossHistory computes the loss event rate with the full Average Loss
// Interval method (§3.3): a weighted average of the last n loss intervals,
// where the open interval s₀ (packets since the most recent loss event) is
// included only when doing so increases the average — max(ŝ, ŝ_new) — and
// history discounting de-weights old intervals after long loss-free runs.
//
// Interval lengths are in packets. The zero value is not ready; use
// NewLossHistory. A history of the paper's n = 8 or less keeps its
// interval buffers in itself, so it is not copied once initialized (go
// vet's copylocks check sees the noCopy marker).
type LossHistory struct {
	_       noCopy
	cfg     LossHistoryConfig
	weights []float64 // w[0] = w_1 (most recent closed interval) … w[n-1] = w_n

	closed  []float64 // closed[0] = s_1 most recent … at most N entries
	df      []float64 // per-closed-interval accumulated discount factors
	open    float64   // s₀
	dfCur   float64   // discount factor applied at the last Report
	lastAvg float64   // average interval at the last Report, the discount trigger

	// ring backs closed and df for a window of up to eight intervals.
	ring [2 * (8 + 1)]float64
}

// noCopy marks a struct that points into itself: go vet's copylocks
// check reports a copy of any struct that holds one.
type noCopy struct{}

func (*noCopy) Lock()   {}
func (*noCopy) Unlock() {}

// Weights returns the paper's weight sequence for n intervals: 1 for the
// newest ⌈n/2⌉, then linearly decreasing. For n = 8 this is
// 1, 1, 1, 1, 0.8, 0.6, 0.4, 0.2.
func Weights(n int) []float64 {
	w := make([]float64, n)
	half := n / 2
	for i := 1; i <= n; i++ {
		if i <= half || half == 0 {
			w[i-1] = 1
		} else {
			w[i-1] = 1 - float64(i-half)/float64(half+1)
		}
	}
	return w
}

// sharedWeights8 is the paper's default weight sequence, shared read-only
// by every default-configured history so the hot construction path does
// not recompute (or reallocate) it.
var sharedWeights8 = Weights(8)

// NewLossHistory returns an empty history (no loss events seen). The
// interval buffers are sized to the window once, so steady-state
// OnLossEvent calls never grow them.
func NewLossHistory(cfg LossHistoryConfig) *LossHistory {
	h := new(LossHistory)
	h.Init(cfg)
	return h
}

// Init resets a history in place to the empty state, its interval
// buffers in its own ring when the window fits there, else reused when
// it still fits them — the re-initialization path for histories
// embedded by value in pooled receivers.
func (h *LossHistory) Init(cfg LossHistoryConfig) {
	if cfg.N < 1 {
		panic("core: loss history needs N ≥ 1")
	}
	var w []float64
	switch {
	case cfg.ConstantWeights:
		w = make([]float64, cfg.N)
		for i := range w {
			w[i] = 1
		}
	case cfg.N == 8:
		w = sharedWeights8
	default:
		w = Weights(cfg.N)
	}
	closed, df := h.closed[:0], h.df[:0]
	if cap(closed) < cfg.N+1 || cap(df) < cfg.N+1 {
		// One backing array serves both interval buffers.
		buf := h.ring[:]
		if len(buf) < 2*(cfg.N+1) {
			buf = make([]float64, 2*(cfg.N+1))
		}
		closed = buf[0 : 0 : cfg.N+1]
		df = buf[cfg.N+1 : cfg.N+1 : 2*(cfg.N+1)]
	}
	*h = LossHistory{
		cfg:     cfg,
		weights: w,
		closed:  closed,
		df:      df,
		dfCur:   1,
	}
}

// HaveLoss reports whether any loss interval exists (real or seeded).
func (h *LossHistory) HaveLoss() bool { return len(h.closed) > 0 }

// Seed installs a synthetic first interval (packets), used when slow start
// terminates: the expected loss interval that would produce half the rate
// at which the loss occurred (§3.4.1). Real loss-interval data then
// replaces the synthetic value as it arrives.
func (h *LossHistory) Seed(interval float64) {
	if interval < 1 {
		interval = 1
	}
	h.closed = h.closed[:0]
	h.df = h.df[:0]
	h.closed = append(h.closed, interval)
	h.df = append(h.df, 1)
	h.open = 0
	h.dfCur = 1
	h.lastAvg = 0
}

// OnLossEvent closes the open interval: the interval that was s₀ becomes
// s₁ with the given final length (packets between the start of the
// previous loss event and the start of this one), everything shifts down,
// and a fresh open interval begins. Accumulated discounting is folded into
// the per-interval factors at this point, per RFC 3448 §5.5.
func (h *LossHistory) OnLossEvent(intervalLen float64) {
	if intervalLen < 1 {
		intervalLen = 1
	}
	// Fold the last report's discount into history before shifting.
	if h.cfg.Discounting && h.dfCur < 1 {
		for i := range h.df {
			h.df[i] *= h.dfCur
		}
	}
	h.closed = append(h.closed, 0)
	h.df = append(h.df, 0)
	copy(h.closed[1:], h.closed)
	copy(h.df[1:], h.df)
	h.closed[0] = intervalLen
	h.df[0] = 1
	if len(h.closed) > h.cfg.N {
		h.closed = h.closed[:h.cfg.N]
		h.df = h.df[:h.cfg.N]
	}
	h.open = 0
	h.dfCur = 1
	h.lastAvg = 0
}

// SetOpen updates the open interval s₀: the number of packets received
// since the start of the most recent loss event.
func (h *LossHistory) SetOpen(pkts float64) {
	if pkts < 0 {
		pkts = 0
	}
	h.open = pkts
}

// Open returns the current open interval s₀ in packets.
func (h *LossHistory) Open() float64 { return h.open }

// avgExcluding returns ŝ computed over the closed intervals only
// (s₁ … s_n with weights w₁ … w_n and accumulated discounts).
func (h *LossHistory) avgExcluding() float64 {
	var itot, wtot float64
	for i, s := range h.closed {
		w := h.weights[i] * h.df[i]
		itot += s * w
		wtot += w
	}
	if wtot == 0 {
		return 0
	}
	return itot / wtot
}

// average returns the average loss interval max(ŝ, ŝ_new) in packets (0
// when no loss has been recorded) and the discount factor it applied to
// the history. It only reads.
func (h *LossHistory) average() (avg, dfCur float64) {
	if len(h.closed) == 0 {
		return 0, 1
	}
	exc := h.avgExcluding()

	// History discounting: once the open interval exceeds twice the
	// average loss interval, de-weight the history when s₀ participates.
	// The trigger compares against the previously reported average (RFC
	// 3448 §5.5), which itself grows with s₀ — negative feedback that
	// makes the discount deepen smoothly rather than in a step.
	trigger := h.lastAvg
	if trigger < exc {
		trigger = exc
	}
	dfCur = 1
	if h.cfg.Discounting && trigger > 0 && h.open > 2*trigger {
		dfCur = max(2*trigger/h.open, discountThreshold)
	}

	// ŝ_new: shift every interval one weight down so s₀ takes w₁. The
	// oldest interval falls off when the history is full.
	var itot, wtot float64
	itot = h.open * h.weights[0]
	wtot = h.weights[0]
	for i, s := range h.closed {
		if i+1 >= len(h.weights) {
			break
		}
		w := h.weights[i+1] * h.df[i] * dfCur
		itot += s * w
		wtot += w
	}
	inc := itot / wtot

	avg = exc
	if inc > avg {
		avg = inc
	}
	return avg, dfCur
}

// AvgInterval returns the average loss interval max(ŝ, ŝ_new) in packets,
// or 0 when no loss has been recorded. It does not change the history.
func (h *LossHistory) AvgInterval() float64 {
	avg, _ := h.average()
	return avg
}

// LossEventRate returns p = 1/AvgInterval, or 0 when no loss has been
// recorded (the sender stays in slow start on p = 0). It does not change
// the history.
func (h *LossHistory) LossEventRate() float64 {
	return invert(h.AvgInterval())
}

// Report returns the loss event rate for a feedback report and makes
// that report's average the discount trigger of every later read, with
// its discount factor the one the next loss event folds into history.
// The receiver calls it once per report it sends.
func (h *LossHistory) Report() float64 {
	avg, dfCur := h.average()
	h.lastAvg, h.dfCur = avg, dfCur
	return invert(avg)
}

func invert(avg float64) float64 {
	if avg <= 0 {
		return 0
	}
	return 1 / avg
}
