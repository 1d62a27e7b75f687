// Package vecmath provides the dense vector primitives used throughout the
// LEMP library: inner products, Euclidean norms and normalization.
//
// Vectors are plain []float64 slices. All functions are allocation-free
// unless documented otherwise, because they sit on the hot path of every
// retrieval algorithm.
package vecmath

import "math"

// Dot returns the inner product of a and b. The slices must have equal
// length; Dot panics otherwise (a programming error, not an input error).
func Dot(a, b []float64) float64 {
	if len(a) != len(b) {
		panic("vecmath: Dot on vectors of unequal length")
	}
	var s float64
	// Unrolled by four: measurably faster than the naive loop for the
	// r in [10,500] regime this library targets. This accumulation order
	// is the oracle of the blocked kernels (kernels.go), which reproduce
	// it bit for bit; changing it means changing them.
	i := 0
	for ; i+4 <= len(a); i += 4 {
		s += a[i]*b[i] + a[i+1]*b[i+1] + a[i+2]*b[i+2] + a[i+3]*b[i+3]
	}
	for ; i < len(a); i++ {
		s += a[i] * b[i]
	}
	return s
}

// Norm2 returns the squared Euclidean norm of v.
func Norm2(v []float64) float64 {
	var s float64
	for _, x := range v {
		s += x * x
	}
	return s
}

// Norm returns the Euclidean norm ‖v‖.
func Norm(v []float64) float64 {
	return math.Sqrt(Norm2(v))
}

// Normalize writes v/‖v‖ into dst and returns ‖v‖. If v is the zero vector,
// dst is zeroed and 0 is returned; callers treat zero vectors as having no
// direction (their inner product with anything is 0). dst and v may alias.
func Normalize(dst, v []float64) float64 {
	n := Norm(v)
	if n == 0 {
		for i := range dst {
			dst[i] = 0
		}
		return 0
	}
	inv := 1 / n
	for i, x := range v {
		dst[i] = x * inv
	}
	return n
}

// Scale writes s*v into dst. dst and v may alias.
func Scale(dst, v []float64, s float64) {
	for i, x := range v {
		dst[i] = x * s
	}
}

// Cos returns the cosine similarity of a and b, in [-1,1]. Zero vectors have
// cosine 0 with everything. The result is clamped to [-1,1] to guard against
// floating-point drift. The dot product and ‖b‖² come out of one fused
// DotNorm2 pass, so Cos reads b once and a twice instead of each twice.
func Cos(a, b []float64) float64 {
	dot, nb2 := DotNorm2(a, b)
	na2 := Norm2(a)
	if na2 == 0 || nb2 == 0 {
		return 0
	}
	c := dot / (math.Sqrt(na2) * math.Sqrt(nb2))
	return Clamp(c, -1, 1)
}

// Clamp returns x limited to the closed interval [lo, hi].
func Clamp(x, lo, hi float64) float64 {
	if x < lo {
		return lo
	}
	if x > hi {
		return hi
	}
	return x
}

// SqDist returns the squared Euclidean distance ‖a-b‖².
func SqDist(a, b []float64) float64 {
	if len(a) != len(b) {
		panic("vecmath: SqDist on vectors of unequal length")
	}
	var s float64
	for i, x := range a {
		d := x - b[i]
		s += d * d
	}
	return s
}

// Dist returns the Euclidean distance ‖a-b‖.
func Dist(a, b []float64) float64 {
	return math.Sqrt(SqDist(a, b))
}
