package traffic

import (
	"math"
	"math/rand"
	"time"
)

// SizeDist draws flow sizes in packets. Implementations must be pure
// functions of the rng state so seeded runs are reproducible.
type SizeDist interface {
	// Sample returns a flow size in packets (>= 1).
	Sample(rng *rand.Rand) int
}

// Pareto is the canonical heavy-tailed flow-size distribution: most
// flows are mice of a few packets, a small fraction are elephants
// carrying most of the bytes. Shape alpha in (1, 2) reproduces the
// Internet's mass-in-the-tail regime (smaller alpha = heavier tail).
type Pareto struct {
	// Alpha is the tail index (default 1.3, the classic flow-size
	// estimate; must be > 0).
	Alpha float64
	// MinPackets is the scale (smallest flow; default 2).
	MinPackets int
	// MaxPackets truncates the tail so one astronomically large draw
	// cannot dominate a finite run (default 16384).
	MaxPackets int
}

func (p Pareto) Sample(rng *rand.Rand) int {
	alpha, lo, hi := p.Alpha, p.MinPackets, p.MaxPackets
	if alpha <= 0 {
		alpha = 1.3
	}
	if lo < 1 {
		lo = 2
	}
	if hi < lo {
		hi = 16384
	}
	// Inverse-CDF: X = lo * U^(-1/alpha), U in (0, 1].
	u := 1 - rng.Float64() // (0, 1]
	return min(max(int(float64(lo)*math.Pow(u, -1/alpha)), lo), hi)
}

// Lognormal flow sizes: exp(N(Mu, Sigma)). A lighter tail than Pareto;
// the usual fit for transaction-style workloads.
type Lognormal struct {
	// Mu, Sigma parameterize the underlying normal (defaults 2.0, 1.0
	// — median ~7 packets).
	Mu, Sigma float64
	// MaxPackets truncates the tail (default 16384).
	MaxPackets int
}

func (l Lognormal) Sample(rng *rand.Rand) int {
	mu, sigma, hi := l.Mu, l.Sigma, l.MaxPackets
	if sigma <= 0 {
		sigma = 1.0
	}
	if mu == 0 {
		mu = 2.0
	}
	if hi < 1 {
		hi = 16384
	}
	return min(max(int(math.Exp(mu+sigma*rng.NormFloat64())), 1), hi)
}

// expInterval draws a Poisson-process inter-arrival gap for the given
// rate (events/sec).
func expInterval(rng *rand.Rand, rate float64) time.Duration {
	u := 1 - rng.Float64() // (0, 1]: never log(0)
	return time.Duration(-math.Log(u) / rate * float64(time.Second))
}
