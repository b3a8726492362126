package sim

import (
	"math"
	"math/rand"
)

// Rand wraps math/rand with the distribution helpers the experiments need.
// Every experiment owns its Rand (or several, one per traffic source) so
// that adding a source never perturbs the variates drawn by another.
type Rand struct {
	rand.Rand
}

// NewRand returns a deterministic source seeded with seed.
func NewRand(seed int64) *Rand {
	return &Rand{*rand.New(rand.NewSource(seed))}
}

// NewRand returns a deterministic source seeded with seed whose storage
// is owned by the scheduler: when the scheduler is Released and reused,
// the generators it handed out are re-seeded and handed out again.
// Re-seeding fully resets the underlying source, so a recycled generator
// produces exactly the stream a fresh NewRand(seed) would — scenario
// cells stay deterministic while the (large) source state stops being
// reallocated per cell. The generator lives in the scheduler's slab, so
// a fresh one costs only its source.
func (s *Scheduler) NewRand(seed int64) *Rand {
	r := s.rands.Get()
	if r.Rand == (rand.Rand{}) {
		r.Rand = *rand.New(rand.NewSource(seed))
	} else {
		r.Seed(seed)
	}
	return r
}

// Uniform returns a variate uniformly distributed on [lo, hi).
func (r *Rand) Uniform(lo, hi float64) float64 {
	return lo + (hi-lo)*r.Float64()
}

// Exponential returns an exponentially distributed variate with the given
// mean.
func (r *Rand) Exponential(mean float64) float64 {
	return r.ExpFloat64() * mean
}

// Pareto returns a Pareto variate with shape alpha and the given mean.
// Requires alpha > 1 so the mean exists; the scale is derived as
// mean·(alpha−1)/alpha. Heavy-tailed ON/OFF times drawn from this
// distribution generate self-similar aggregate traffic (Willinger et al.).
func (r *Rand) Pareto(mean, alpha float64) float64 {
	if alpha <= 1 {
		panic("sim: Pareto shape must exceed 1 for a finite mean")
	}
	scale := mean * (alpha - 1) / alpha
	u := r.Float64()
	for u == 0 {
		u = r.Float64()
	}
	return scale / math.Pow(u, 1/alpha)
}

// Bernoulli reports true with probability p.
func (r *Rand) Bernoulli(p float64) bool {
	return r.Float64() < p
}
