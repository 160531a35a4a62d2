package workload

// RNG is a small deterministic pseudo-random generator (SplitMix64).
// Simulations must be exactly reproducible across runs and platforms, so
// workload generators use this rather than math/rand: its sequence is
// pinned by this implementation, not by a library version.
type RNG struct {
	state uint64
}

// NewRNG seeds a generator. Distinct seeds give independent-looking
// streams; generators derive per-PE seeds as seed + PE index.
func NewRNG(seed uint64) *RNG { return &RNG{state: seed} }

// Reseed restores the generator to the state NewRNG(seed) would produce.
func (r *RNG) Reseed(seed uint64) { r.state = seed }

// Uint64 returns the next 64 random bits.
func (r *RNG) Uint64() uint64 {
	r.state += 0x9e3779b97f4a7c15
	z := r.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Intn returns a uniform integer in [0, n). It panics if n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("workload: Intn with non-positive bound")
	}
	return int(r.Uint64() % uint64(n))
}

// Float64 returns a uniform float in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / float64(1<<53)
}

// Geometric returns a sample from a geometric-ish distribution: the number
// of failures before a success with probability p. Used for reuse-distance
// sampling in the locality model.
func (r *RNG) Geometric(p float64) int {
	if p <= 0 || p > 1 {
		panic("workload: Geometric probability out of (0, 1]")
	}
	n := 0
	for r.Float64() >= p {
		n++
		if n > 1<<20 {
			break // pathological p; bound the tail
		}
	}
	return n
}
