package main

import (
	"math"
	"math/rand"
	"sort"

	"lemp"
)

// Seeded input generators. Every input of a run derives from --seed
// through stream(), so the same seed gives the same catalogue, queries and
// operation mix; the program under test sees only these matrices and
// requests.

// stream returns the RNG of one named input stream of a seed.
func stream(seed int64, name string) *rand.Rand {
	h := uint64(14695981039346656037)
	for _, c := range name {
		h = (h ^ uint64(c)) * 1099511628211
	}
	return rand.New(rand.NewSource(int64(uint64(seed)*0x9e3779b97f4a7c15 ^ h)))
}

// lognormalLength draws a length with mean 1 and coefficient of variation
// cov (the length-skew statistic of the paper's Table 1).
func lognormalLength(rng *rand.Rand, cov float64) float64 {
	s2 := math.Log1p(cov * cov)
	return math.Exp(math.Sqrt(s2)*rng.NormFloat64() - s2/2)
}

// randomDirection fills v with a uniform unit direction.
func randomDirection(rng *rand.Rand, v []float64) {
	for {
		var n2 float64
		for i := range v {
			v[i] = rng.NormFloat64()
			n2 += v[i] * v[i]
		}
		if n2 > 0 {
			scale(v, 1/math.Sqrt(n2))
			return
		}
	}
}

func scale(v []float64, f float64) {
	for i := range v {
		v[i] *= f
	}
}

func norm(v []float64) float64 {
	var s float64
	for _, x := range v {
		s += x * x
	}
	return math.Sqrt(s)
}

func dot(a, b []float64) float64 {
	var s float64
	for i := range a {
		s += a[i] * b[i]
	}
	return s
}

// stratifiedLengths returns n log-normal lengths of mean 1 and nominal
// coefficient of variation cov at evenly spaced quantiles, in random
// order. Every seed gets the same length distribution, so the work a
// catalogue causes does not swing with the luck of its longest draws.
func stratifiedLengths(rng *rand.Rand, n int, cov float64) []float64 {
	s := math.Sqrt(math.Log1p(cov * cov))
	ls := make([]float64, n)
	var sum float64
	for i := range ls {
		z := math.Sqrt2 * math.Erfinv(2*(float64(i)+0.5)/float64(n)-1)
		ls[i] = math.Exp(s * z)
		sum += ls[i]
	}
	for i := range ls {
		ls[i] *= float64(n) / sum
	}
	rng.Shuffle(n, func(i, j int) { ls[i], ls[j] = ls[j], ls[i] })
	return ls
}

// denseVectors returns n dense vectors of dimension r with uniform
// directions and log-normal lengths of coefficient of variation cov: the
// shape of the paper's factor matrices.
func denseVectors(rng *rand.Rand, n, r int, cov float64) *lemp.Matrix {
	m := lemp.NewMatrix(r, n)
	for i, l := range stratifiedLengths(rng, n, cov) {
		v := m.Vec(i)
		randomDirection(rng, v)
		scale(v, l)
	}
	return m
}

// clustered is a catalogue whose directions fall into a few cones and
// whose lengths follow a Zipf law by rank, stored in decreasing-length
// order (the order a popularity-ranked export has). The cone axes come
// in opposite pairs along orthonormal directions, and ranks go round the
// cones in turn, so every seed gets the same geometry up to a rotation
// and the noise. An Above-θ query can rule out at least the shard holding
// the cone opposite its own.
type clustered struct {
	r       int
	centers [][]float64
}

// newClustered draws k cone axes: ±u for k/2 random orthonormal u
// (k even, k/2 ≤ r).
func newClustered(rng *rand.Rand, r, k int) *clustered {
	c := &clustered{r: r, centers: make([][]float64, k)}
	for i := 0; i < k; i += 2 {
		v := make([]float64, r)
		for {
			randomDirection(rng, v)
			for j := 0; j < i; j += 2 {
				u := c.centers[j]
				d := dot(u, v)
				for f := range v {
					v[f] -= d * u[f]
				}
			}
			if n := norm(v); n > 1e-6 {
				scale(v, 1/n)
				break
			}
		}
		c.centers[i] = v
		c.centers[i+1] = make([]float64, r)
		for f := range v {
			c.centers[i+1][f] = -v[f]
		}
	}
	return c
}

// probe writes a catalogue vector of length-rank rank (0 = longest) into v.
func (c *clustered) probe(rng *rand.Rand, rank int, v []float64) {
	ctr := c.centers[rank%len(c.centers)]
	for f := range v {
		v[f] = ctr[f] + 0.2*rng.NormFloat64()
	}
	scale(v, 8/(norm(v)*math.Pow(float64(rank+1), 0.7)))
}

// catalogue returns n probes, longest first.
func (c *clustered) catalogue(rng *rand.Rand, n int) *lemp.Matrix {
	m := lemp.NewMatrix(c.r, n)
	for i := 0; i < n; i++ {
		c.probe(rng, i, m.Vec(i))
	}
	return m
}

// query writes unit query i, focused on cone i mod k, into v.
func (c *clustered) query(rng *rand.Rand, i int, v []float64) {
	ctr := c.centers[i%len(c.centers)]
	for f := range v {
		v[f] = ctr[f] + 0.1*rng.NormFloat64()
	}
	scale(v, 1/norm(v))
}

// productQuantile returns the q-quantile of the inner products between
// the queries and every probe.
func productQuantile(queries, probes *lemp.Matrix, q float64) float64 {
	prods := make([]float64, 0, queries.N()*probes.N())
	for i := 0; i < queries.N(); i++ {
		qi := queries.Vec(i)
		for j := 0; j < probes.N(); j++ {
			prods = append(prods, dot(qi, probes.Vec(j)))
		}
	}
	sort.Float64s(prods)
	return prods[int(q*float64(len(prods)-1))]
}
