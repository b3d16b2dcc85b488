// Package xrand provides deterministic pseudo-random streams for the
// simulator. Every source of randomness in the repository flows from a
// seeded splitmix64 generator so that experiments are reproducible
// bit-for-bit across runs and machines.
//
// The package deliberately does not depend on math/rand: the simulator
// needs stable streams that can be forked per component ("substreams")
// without the components perturbing each other.
package xrand

import "math"

// Rand is a deterministic pseudo-random generator based on splitmix64.
// The zero value is a valid generator seeded with 0; use New to seed.
type Rand struct {
	state uint64
}

// New returns a generator seeded with seed.
func New(seed uint64) *Rand {
	return &Rand{state: seed}
}

// Fork derives an independent substream labelled by tag. Two forks with
// different tags from the same parent produce uncorrelated streams, and
// forking does not advance the parent.
func (r *Rand) Fork(tag uint64) *Rand {
	// Mix the parent state and the tag through one splitmix64 round each
	// so that adjacent tags land far apart in the sequence.
	z := r.state + 0x9e3779b97f4a7c15*(tag+1)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return &Rand{state: z ^ (z >> 31)}
}

// DeriveSeed maps a (base seed, cell index) pair to the seed of an
// independent substream. It is the seed-level counterpart of Fork: the
// parallel experiment engine assigns each cell DeriveSeed(seed, i) so
// that cells draw from uncorrelated streams no matter which worker, or
// in which order, executes them. XORing the golden-ratio-scaled index
// into the seed and then applying the splitmix64 finalizer keeps
// adjacent cell indices far apart in state space.
func DeriveSeed(seed, cell uint64) uint64 {
	z := seed ^ (0x9e3779b97f4a7c15 * (cell + 1))
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// ForkString derives a substream from a string label.
func (r *Rand) ForkString(label string) *Rand {
	var h uint64 = 14695981039346656037 // FNV-1a offset basis
	for i := 0; i < len(label); i++ {
		h ^= uint64(label[i])
		h *= 1099511628211
	}
	return r.Fork(h)
}

// Uint64 returns the next 64 uniformly distributed bits.
func (r *Rand) Uint64() uint64 {
	r.state += 0x9e3779b97f4a7c15
	z := r.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Float64 returns a uniform value in [0, 1).
func (r *Rand) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Intn returns a uniform integer in [0, n). It panics if n <= 0.
func (r *Rand) Intn(n int) int {
	if n <= 0 {
		panic("xrand: Intn with non-positive n")
	}
	return int(r.Uint64() % uint64(n))
}

// Range returns a uniform value in [lo, hi).
func (r *Rand) Range(lo, hi float64) float64 {
	return lo + (hi-lo)*r.Float64()
}

// Normal returns a normally distributed value with the given mean and
// standard deviation, using the Box-Muller transform.
func (r *Rand) Normal(mean, stddev float64) float64 {
	// Guard against log(0).
	u1 := r.Float64()
	for u1 == 0 {
		u1 = r.Float64()
	}
	u2 := r.Float64()
	z := math.Sqrt(-2*math.Log(u1)) * math.Cos(2*math.Pi*u2)
	return mean + stddev*z
}

// LogNormal returns exp(Normal(mu, sigma)). For a multiplicative noise
// factor with median 1, pass mu = 0.
func (r *Rand) LogNormal(mu, sigma float64) float64 {
	return math.Exp(r.Normal(mu, sigma))
}

// Exp returns an exponentially distributed value with the given rate
// (mean 1/rate).
func (r *Rand) Exp(rate float64) float64 {
	if rate <= 0 {
		panic("xrand: Exp with non-positive rate")
	}
	u := r.Float64()
	for u == 0 {
		u = r.Float64()
	}
	return -math.Log(u) / rate
}

// Poisson returns a Poisson-distributed count with the given mean,
// using Knuth's method for small means and a normal approximation for
// large ones (mean > 64) where the exact method would be slow.
func (r *Rand) Poisson(mean float64) int {
	if mean <= 0 {
		return 0
	}
	if mean > 64 {
		v := r.Normal(mean, math.Sqrt(mean))
		if v < 0 {
			return 0
		}
		return int(v + 0.5)
	}
	limit := math.Exp(-mean)
	p := 1.0
	k := 0
	for {
		p *= r.Float64()
		if p <= limit {
			return k
		}
		k++
	}
}

// Perm returns a pseudo-random permutation of [0, n).
func (r *Rand) Perm(n int) []int {
	p := make([]int, n)
	r.PermInto(p)
	return p
}

// PermInto fills p with a pseudo-random permutation of [0, len(p)).
// It draws exactly the variates Perm(len(p)) would, so the two are
// interchangeable stream-wise; this is the allocation-free form for
// hot loops with a reusable buffer.
func (r *Rand) PermInto(p []int) {
	for i := range p {
		p[i] = i
	}
	for i := len(p) - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
}

// Choice returns a pseudo-random index weighted by the non-negative
// weights. It panics if weights is empty or sums to zero.
func (r *Rand) Choice(weights []float64) int {
	var total float64
	for _, w := range weights {
		if w < 0 {
			panic("xrand: negative weight")
		}
		total += w
	}
	if len(weights) == 0 || total == 0 {
		panic("xrand: Choice with empty or zero weights")
	}
	x := r.Float64() * total
	for i, w := range weights {
		x -= w
		if x < 0 {
			return i
		}
	}
	return len(weights) - 1
}
