package core

import (
	"math"
	"testing"
	"testing/quick"
)

func TestWeightsPaperValues(t *testing.T) {
	// Paper §3.3: for n = 8 the weights are 1,1,1,1,0.8,0.6,0.4,0.2.
	want := []float64{1, 1, 1, 1, 0.8, 0.6, 0.4, 0.2}
	got := Weights(8)
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-12 {
			t.Fatalf("w[%d] = %v, want %v", i+1, got[i], want[i])
		}
	}
}

func TestWeightsSumN8(t *testing.T) {
	sum := 0.0
	for _, w := range Weights(8) {
		sum += w
	}
	if math.Abs(sum-6.0) > 1e-12 {
		t.Fatalf("Σw = %v, want 6", sum)
	}
}

func fill(h *LossHistory, intervals ...float64) {
	for _, iv := range intervals {
		h.OnLossEvent(iv)
	}
}

func TestStableLossGivesStableEstimate(t *testing.T) {
	// Paper Figure 2, before t=6: constant periodic loss produces a
	// completely stable measure.
	h := NewLossHistory(DefaultLossHistory())
	fill(h, 100, 100, 100, 100, 100, 100, 100, 100)
	if got := h.AvgInterval(); math.Abs(got-100) > 1e-9 {
		t.Fatalf("avg = %v, want 100", got)
	}
	if p := h.LossEventRate(); math.Abs(p-0.01) > 1e-12 {
		t.Fatalf("p = %v, want 0.01", p)
	}
	// An open interval below the average must not move the estimate:
	// unlike a trailing window of packets, the history has no boundary
	// for loss events to cross between losses.
	for s0 := 1.0; s0 < 100; s0++ {
		h.SetOpen(s0)
		if got := h.AvgInterval(); math.Abs(got-100) > 1e-9 {
			t.Fatalf("avg with s0 = %v is %v, want 100", s0, got)
		}
	}
}

func TestOneShortIntervalMovesAverageMildly(t *testing.T) {
	// §3.3: the weighted average over n intervals does not let one
	// interval dominate, as an EWMA with a responsive weight would.
	h := NewLossHistory(DefaultLossHistory())
	for i := 0; i < 20; i++ {
		h.OnLossEvent(100)
	}
	h.OnLossEvent(2)
	if avg := h.AvgInterval(); avg < 80 {
		t.Fatalf("avg = %v after one short interval, want a mild reaction", avg)
	}
}

func TestOpenIntervalOnlyRaisesAverage(t *testing.T) {
	// §3.3: include s0 only when it increases the average.
	h := NewLossHistory(DefaultLossHistory())
	fill(h, 100, 100, 100, 100, 100, 100, 100, 100)
	base := h.AvgInterval()
	h.SetOpen(400)
	if got := h.AvgInterval(); got <= base {
		t.Fatalf("large s0 did not raise the average: %v ≤ %v", got, base)
	}
}

func TestEstimateNeverDecreasesWithoutNewLoss(t *testing.T) {
	// Design guideline: the estimated loss event rate increases only in
	// response to a new loss event. Growing s0 must never raise p.
	h := NewLossHistory(DefaultLossHistory())
	fill(h, 80, 120, 90, 110, 100, 95, 105, 100)
	prev := h.LossEventRate()
	for s0 := 1.0; s0 < 2000; s0 *= 1.5 {
		h.SetOpen(s0)
		p := h.LossEventRate()
		if p > prev+1e-12 {
			t.Fatalf("p rose from %v to %v as s0 grew to %v", prev, p, s0)
		}
		prev = p
	}
}

func TestAppendixA2LowerBounds(t *testing.T) {
	// Appendix A.2: starting from equal intervals 1/p, after k near-zero
	// intervals the average is at least: 5/(6p), 2/(3p), …, and only
	// after five small intervals can it reach 1/(4p).
	const I = 1.0e6 // 1/p, large so the ε=1 floor is negligible
	steps := []struct {
		k    int
		frac float64 // lower bound on avg/I after k small intervals
	}{
		{1, 5.0 / 6.0},
		{2, 4.0 / 6.0},
		{3, 3.0 / 6.0},
		{4, 2.0 / 6.0},
		{5, 1.2 / 6.0},
	}
	h := NewLossHistory(LossHistoryConfig{N: 8}) // no discounting, as in A.2
	fill(h, I, I, I, I, I, I, I, I)
	for _, st := range steps {
		h.OnLossEvent(1) // "smallest possible" new interval
		got := h.AvgInterval() / I
		if got < st.frac-1e-3 {
			t.Fatalf("after %d small intervals avg/I = %v, below bound %v", st.k, got, st.frac)
		}
		if got > st.frac+1e-3 {
			t.Fatalf("after %d small intervals avg/I = %v, above expected %v", st.k, got, st.frac)
		}
	}
	// Consequence (paper): the rate can halve (avg ≤ I/4) only after the
	// fifth small interval: 1.2/6 = 1/5 < 1/4 < 2/6.
	if f4 := 2.0 / 6.0; f4 <= 0.25 {
		t.Fatal("internal check: bound after four intervals should exceed 1/4")
	}
}

func TestShiftDropsOldest(t *testing.T) {
	h := NewLossHistory(LossHistoryConfig{N: 4})
	fill(h, 10, 20, 30, 40) // closed: [40 30 20 10]
	h.OnLossEvent(50)       // oldest (10) falls off: [50 40 30 20]
	iv := h.closed
	want := []float64{50, 40, 30, 20}
	for i := range want {
		if iv[i] != want[i] {
			t.Fatalf("intervals = %v, want %v", iv, want)
		}
	}
}

func TestNoStepIncreaseWhenOldIntervalLeaves(t *testing.T) {
	// Paper Figure 2 discussion: when short (10-packet) intervals leave
	// the history during recovery, the estimate must rise smoothly —
	// this is exactly what max(ŝ, ŝ_new) provides. We verify the
	// transmission-rate proxy √(avg) never jumps by more than the A.1
	// bound as s0 grows packet by packet.
	h := NewLossHistory(DefaultLossHistory())
	fill(h, 100, 100, 100, 100, 10, 10, 10, 10)
	prevRate := 1.2 * math.Sqrt(h.AvgInterval())
	for s0 := 1.0; s0 < 3000; s0++ {
		h.SetOpen(s0)
		rate := 1.2 * math.Sqrt(h.AvgInterval())
		if rate-prevRate > 0.3+1e-9 {
			t.Fatalf("rate stepped by %v pkts/RTT at s0=%v", rate-prevRate, s0)
		}
		prevRate = rate
	}
}

func TestSeedReplacesHistory(t *testing.T) {
	h := NewLossHistory(DefaultLossHistory())
	if h.HaveLoss() {
		t.Fatal("fresh history claims loss")
	}
	if h.LossEventRate() != 0 {
		t.Fatal("fresh history has nonzero p")
	}
	h.Seed(250)
	if !h.HaveLoss() {
		t.Fatal("seeded history claims no loss")
	}
	if p := h.LossEventRate(); math.Abs(p-1.0/250) > 1e-12 {
		t.Fatalf("seeded p = %v, want 0.004", p)
	}
	// Real data then dilutes the seed.
	h.OnLossEvent(50)
	if avg := h.AvgInterval(); avg >= 250 || avg <= 50 {
		t.Fatalf("avg after real interval = %v, want between 50 and 250", avg)
	}
}

func TestHistoryDiscountingRaisesEstimate(t *testing.T) {
	mk := func(discount bool) *LossHistory {
		h := NewLossHistory(LossHistoryConfig{N: 8, Discounting: discount})
		fill(h, 100, 100, 100, 100, 100, 100, 100, 100)
		h.SetOpen(1000) // ten times the average: sustained improvement
		return h
	}
	plain, disc := mk(false), mk(true)
	if disc.AvgInterval() <= plain.AvgInterval() {
		t.Fatalf("discounting did not help: %v ≤ %v", disc.AvgInterval(), plain.AvgInterval())
	}
}

func TestHistoryDiscountingNotTriggeredEarly(t *testing.T) {
	// §3.3: discounting only after s0 exceeds twice the average.
	mkAvg := func(discount bool, open float64) float64 {
		h := NewLossHistory(LossHistoryConfig{N: 8, Discounting: discount})
		fill(h, 100, 100, 100, 100, 100, 100, 100, 100)
		h.SetOpen(open)
		return h.AvgInterval()
	}
	if a, b := mkAvg(true, 150), mkAvg(false, 150); math.Abs(a-b) > 1e-9 {
		t.Fatalf("discounting active below 2×avg: %v vs %v", a, b)
	}
	if a, b := mkAvg(true, 250), mkAvg(false, 250); a <= b {
		t.Fatalf("discounting inactive above 2×avg: %v vs %v", a, b)
	}
}

func TestDiscountWeightCap(t *testing.T) {
	// Appendix A.1: with maximum discounting the effective (normalized)
	// weight on the most recent interval rises to ≈ 0.4, versus 1/6
	// without. Drive s0 enormous and verify the estimate approaches
	// w₁·s0 / (w₁ + 0.25·Σrest) — i.e. the open interval dominates at
	// a 0.44 share.
	h := NewLossHistory(DefaultLossHistory())
	fill(h, 100, 100, 100, 100, 100, 100, 100, 100)
	s0 := 1.0e9
	h.SetOpen(s0)
	got := h.AvgInterval()
	// ŝ_new = (1·s0 + 0.25·(w₂..w₈)·100) / (1 + 0.25·(w₂..w₈)); the
	// history term is negligible, so avg ≈ s0/(1+0.25·5) = s0/2.25.
	want := s0 / 2.25
	if math.Abs(got-want)/want > 1e-3 {
		t.Fatalf("max-discount avg = %v, want ≈ %v (weight 0.44 on s0)", got, want)
	}
}

func TestDiscountFoldedOnLossEvent(t *testing.T) {
	// After discounting is active, a new loss event folds the discount
	// into history, so the old intervals stay de-weighted.
	h := NewLossHistory(DefaultLossHistory())
	fill(h, 100, 100, 100, 100, 100, 100, 100, 100)
	h.SetOpen(1000)
	h.Report() // a report at s₀ = 1000 sets the discount the next event folds in
	h.OnLossEvent(1000)
	// New estimate should be much closer to 1000 than the undiscounted
	// weighted average of [1000, 100×7] = 1000·(1/6)+100·(5/6) = 250.
	if avg := h.AvgInterval(); avg < 400 {
		t.Fatalf("avg after fold = %v, want well above undiscounted 250", avg)
	}
}

func TestConstantWeights(t *testing.T) {
	h := NewLossHistory(LossHistoryConfig{N: 4, ConstantWeights: true})
	fill(h, 10, 20, 30, 40)
	if got := h.AvgInterval(); math.Abs(got-25) > 1e-9 {
		t.Fatalf("constant-weight avg = %v, want 25", got)
	}
}

func TestPartialHistory(t *testing.T) {
	// With fewer than N intervals, only the available ones participate.
	h := NewLossHistory(DefaultLossHistory())
	fill(h, 100)
	if got := h.AvgInterval(); math.Abs(got-100) > 1e-9 {
		t.Fatalf("single-interval avg = %v, want 100", got)
	}
	fill(h, 200)
	if got := h.AvgInterval(); math.Abs(got-150) > 1e-9 {
		t.Fatalf("two-interval avg = %v, want 150", got)
	}
}

func TestIntervalFloor(t *testing.T) {
	h := NewLossHistory(DefaultLossHistory())
	h.OnLossEvent(0) // clamped to 1
	if got := h.AvgInterval(); got < 1 {
		t.Fatalf("avg = %v, want ≥ 1", got)
	}
	h.SetOpen(-5)
	if h.Open() != 0 {
		t.Fatalf("negative open not clamped: %v", h.Open())
	}
}

func TestAvgIntervalBoundsProperty(t *testing.T) {
	// Property: with no discounting and s0 = 0, the average lies within
	// [min, max] of the recorded intervals.
	f := func(raw []uint16) bool {
		if len(raw) == 0 {
			return true
		}
		h := NewLossHistory(LossHistoryConfig{N: 8})
		lo, hi := math.Inf(1), math.Inf(-1)
		for i, v := range raw {
			iv := 1 + float64(v%5000)
			h.OnLossEvent(iv)
			// Track bounds over the last N=8 only.
			if len(raw)-i <= 8 {
				lo = math.Min(lo, iv)
				hi = math.Max(hi, iv)
			}
		}
		avg := h.AvgInterval()
		return avg >= lo-1e-9 && avg <= hi+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestLossEventRateInverseProperty(t *testing.T) {
	// p = 1/avg always.
	f := func(raw []uint16) bool {
		h := NewLossHistory(DefaultLossHistory())
		for _, v := range raw {
			h.OnLossEvent(1 + float64(v%1000))
		}
		if !h.HaveLoss() {
			return h.LossEventRate() == 0
		}
		return math.Abs(h.LossEventRate()*h.AvgInterval()-1) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestBadConfigPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("N=0 did not panic")
		}
	}()
	NewLossHistory(LossHistoryConfig{N: 0})
}
