package core

import (
	"math"
	"testing"
)

func TestRTTFirstSampleInitializes(t *testing.T) {
	e := NewRTTEstimator(0.1)
	if e.Valid() {
		t.Fatal("fresh estimator claims validity")
	}
	e.OnSample(0.2)
	if !e.Valid() || e.SRTT() != 0.2 || e.Last() != 0.2 {
		t.Fatalf("after first sample: srtt=%v last=%v", e.SRTT(), e.Last())
	}
	if got := e.SqrtMean(); math.Abs(got-math.Sqrt(0.2)) > 1e-12 {
		t.Fatalf("sqrt mean = %v", got)
	}
	if got := e.RTO(); math.Abs(got-0.8) > 1e-12 {
		t.Fatalf("RTO = %v, want 4·SRTT = 0.8", got)
	}
}

func TestRTTEWMAConverges(t *testing.T) {
	e := NewRTTEstimator(0.1)
	e.OnSample(1.0)
	for i := 0; i < 300; i++ {
		e.OnSample(0.05)
	}
	if math.Abs(e.SRTT()-0.05) > 1e-6 {
		t.Fatalf("SRTT did not converge: %v", e.SRTT())
	}
	if math.Abs(e.SqrtMean()-math.Sqrt(0.05)) > 1e-6 {
		t.Fatalf("sqrt mean did not converge: %v", e.SqrtMean())
	}
}

func TestRTTEWMAWeight(t *testing.T) {
	e := NewRTTEstimator(0.25)
	e.OnSample(0.1)
	e.OnSample(0.2)
	want := 0.75*0.1 + 0.25*0.2
	if math.Abs(e.SRTT()-want) > 1e-12 {
		t.Fatalf("SRTT = %v, want %v", e.SRTT(), want)
	}
}

func TestRTTSmallWeightDamps(t *testing.T) {
	// A small weight must damp a single outlier far more than a large
	// weight — the paper's §3.4 rationale for the middle-ground design.
	small, large := NewRTTEstimator(0.05), NewRTTEstimator(0.5)
	for _, e := range []*RTTEstimator{small, large} {
		e.OnSample(0.1)
		e.OnSample(0.5) // outlier
	}
	devSmall := small.SRTT() - 0.1
	devLarge := large.SRTT() - 0.1
	if devSmall >= devLarge/5 {
		t.Fatalf("weight 0.05 deviation %v vs weight 0.5 deviation %v", devSmall, devLarge)
	}
}

func TestRTTIgnoresNonPositive(t *testing.T) {
	e := NewRTTEstimator(0.1)
	e.OnSample(-1)
	e.OnSample(0)
	if e.Valid() {
		t.Fatal("non-positive samples accepted")
	}
}

func TestRTTBadWeightPanics(t *testing.T) {
	for _, w := range []float64{0, -0.1, 1.1} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("weight %v did not panic", w)
				}
			}()
			NewRTTEstimator(w)
		}()
	}
}
