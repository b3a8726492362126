package sim

import (
	"math"
	"testing"
)

// TestSchedulerRandRecycledDeterminism pins the contract that makes
// generator recycling safe: a Rand handed out by a recycled scheduler is
// re-seeded, and re-seeding fully resets the source, so the stream is
// bit-identical to a fresh NewRand with the same seed. Sweep cells built
// on recycled schedulers therefore stay deterministic.
func TestSchedulerRandRecycledDeterminism(t *testing.T) {
	draw := func(r *Rand, n int) []float64 {
		out := make([]float64, n)
		for i := range out {
			out[i] = r.Float64()
		}
		return out
	}
	want := draw(NewRand(42), 500)

	s := NewScheduler()
	first := s.NewRand(42)
	got := draw(first, 500)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("scheduler-owned generator diverges from fresh NewRand at draw %d", i)
		}
	}
	s.Release()

	// The recycled scheduler hands the same generator out again; after
	// re-seeding it must replay the stream exactly, even though the
	// previous life left it mid-sequence.
	s2 := NewScheduler()
	recycled := s2.NewRand(42)
	got2 := draw(recycled, 500)
	for i := range want {
		if got2[i] != want[i] {
			t.Fatalf("recycled generator diverges from fresh NewRand at draw %d", i)
		}
	}
	// Different seed on the next life must give the matching fresh stream
	// too, not a continuation of anything.
	s2.Release()
	s3 := NewScheduler()
	want7 := draw(NewRand(7), 100)
	got7 := draw(s3.NewRand(7), 100)
	for i := range want7 {
		if got7[i] != want7[i] {
			t.Fatalf("re-seeded recycled generator diverges at draw %d", i)
		}
	}
	s3.Release()
}

// TestNewRandAllocatesOnlyItsSource pins what a generator costs a cold
// cell: its math/rand source and nothing else. The Rand itself lives in
// the scheduler's slab, so once the first chunk is spent (and the second
// cut) every NewRand on a scheduler nothing has used before is exactly
// one allocation.
func TestNewRandAllocatesOnlyItsSource(t *testing.T) {
	s := new(Scheduler)
	s.Reset()
	for i := range slabFirstChunk + 1 {
		s.NewRand(int64(i))
	}
	seed := int64(slabFirstChunk + 1)
	// One warm-up call plus the runs all fall in the second chunk.
	per := testing.AllocsPerRun(slabFirstChunk, func() {
		s.NewRand(seed)
		seed++
	})
	if per != 1 {
		t.Errorf("a fresh scheduler's NewRand allocated %v times, want 1 (the source)", per)
	}
}

// TestSchedulerRandDistinctStreams checks that one scheduler hands out
// independent generators, in order, rather than aliasing one source.
func TestSchedulerRandDistinctStreams(t *testing.T) {
	s := NewScheduler()
	a, b := s.NewRand(1), s.NewRand(2)
	if a == b {
		t.Fatal("scheduler returned the same generator twice")
	}
	wantA, wantB := NewRand(1), NewRand(2)
	for i := 0; i < 100; i++ {
		if a.Float64() != wantA.Float64() {
			t.Fatalf("generator A diverges at draw %d", i)
		}
		if b.Float64() != wantB.Float64() {
			t.Fatalf("generator B diverges at draw %d", i)
		}
	}
	s.Release()
}

// TestParetoMeanAcrossShapes checks the mean parameterization across the
// shape range the traffic models use (the ON/OFF sources run alpha 1.2 to
// 1.9 territory, where the tail is heaviest).
func TestParetoMeanAcrossShapes(t *testing.T) {
	for _, tc := range []struct {
		alpha, tol float64
	}{
		{1.2, 0.35}, // extremely heavy tail: slow convergence
		{1.5, 0.15},
		{2.5, 0.05},
	} {
		r := NewRand(11)
		const mean, n = 2.0, 400000
		sum := 0.0
		for i := 0; i < n; i++ {
			sum += r.Pareto(mean, tc.alpha)
		}
		got := sum / n
		if got < mean*(1-tc.tol) || got > mean*(1+tc.tol) {
			t.Errorf("Pareto(mean=%v, alpha=%v) sample mean = %v, want within %v%%",
				mean, tc.alpha, got, tc.tol*100)
		}
	}
}

// TestExponentialMeanAndVariance checks both moments: for an exponential
// with mean m the variance is m².
func TestExponentialMeanAndVariance(t *testing.T) {
	r := NewRand(13)
	const mean, n = 0.5, 400000
	var sum, sumSq float64
	for i := 0; i < n; i++ {
		v := r.Exponential(mean)
		sum += v
		sumSq += v * v
	}
	gotMean := sum / n
	gotVar := sumSq/n - gotMean*gotMean
	if math.Abs(gotMean-mean) > 0.02*mean {
		t.Errorf("Exponential mean = %v, want ≈ %v", gotMean, mean)
	}
	if math.Abs(gotVar-mean*mean) > 0.05*mean*mean {
		t.Errorf("Exponential variance = %v, want ≈ %v", gotVar, mean*mean)
	}
}

// TestDistributionDeterminismAcrossRecycledGenerators draws every
// distribution helper through a recycled generator and checks the
// variates match a fresh generator draw-for-draw — the property the
// byte-identical figure goldens rest on.
func TestDistributionDeterminismAcrossRecycledGenerators(t *testing.T) {
	sample := func(r *Rand) []float64 {
		out := make([]float64, 0, 400)
		for i := 0; i < 100; i++ {
			out = append(out,
				r.Uniform(0.080, 0.120),
				r.Exponential(2),
				r.Pareto(1, 1.5),
				boolToF(r.Bernoulli(0.3)))
		}
		return out
	}
	want := sample(NewRand(99))

	s := NewScheduler()
	s.NewRand(1) // occupy slot 0 so the next life reuses it for seed 99
	s.Release()

	s2 := NewScheduler()
	got := sample(s2.NewRand(99))
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("recycled generator variate %d = %v, want %v", i, got[i], want[i])
		}
	}
	s2.Release()
}

func boolToF(b bool) float64 {
	if b {
		return 1
	}
	return 0
}
