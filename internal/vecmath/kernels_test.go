package vecmath

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"lemp/internal/simd/simdtest"
)

// naiveDot is the straight-line reference the blocked kernels are
// property-tested against: sequential accumulation, no unrolling.
func naiveDot(a, b []float64) float64 {
	var s float64
	for i := range a {
		s += a[i] * b[i]
	}
	return s
}

func naiveNorm2(v []float64) float64 {
	var s float64
	for _, x := range v {
		s += x * x
	}
	return s
}

// genVec draws a Gaussian vector; about one call in eight returns the zero
// vector so the degenerate case is always in the property mix.
func genVec(rng *rand.Rand, n int) []float64 {
	v := make([]float64, n)
	if rng.Intn(8) == 0 {
		return v
	}
	for i := range v {
		v[i] = rng.NormFloat64() * math.Exp(rng.NormFloat64())
	}
	return v
}

// kernelLengths are the dimensions the kernel tests sweep: zero, the odd
// lengths straddling the unroll width (4), and the row-group widths (4, 8)
// with their neighbors, plus larger sizes that exercise several full
// iterations with ragged tails.
var kernelLengths = []int{0, 1, 2, 3, 4, 5, 7, 8, 9, 15, 16, 17, 31, 50, 64, 65}

// sameBits reports whether a kernel result matches the Dot oracle: the
// same bits, or NaN on both sides (the payload of a NaN is not part of the
// contract; see kernels.go).
func sameBits(got, want float64) bool {
	return math.Float64bits(got) == math.Float64bits(want) || (math.IsNaN(got) && math.IsNaN(want))
}

// TestDotBatchBitIdenticalToDot is the exactness contract of the blocked
// verifier: for every row, DotBatch must produce the same bits as the seed
// Dot implementation — the differential mutation harness asserts
// byte-identical retrieval results, so any last-ulp drift here would surface
// as a correctness failure there.
func TestDotBatchBitIdenticalToDot(t *testing.T) {
	simdtest.Each(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(11))
		for _, r := range kernelLengths {
			for _, rows := range []int{0, 1, 2, 3, 4, 5, 7, 8, 9, 12, 16, 17, 33} {
				q := genVec(rng, r)
				panel := make([]float64, rows*r)
				for i := range panel {
					panel[i] = rng.NormFloat64()
				}
				out := make([]float64, rows)
				DotBatch(q, panel, out)
				for i := 0; i < rows; i++ {
					want := Dot(q, panel[i*r:(i+1)*r])
					if math.Float64bits(out[i]) != math.Float64bits(want) {
						t.Fatalf("r=%d rows=%d row %d: DotBatch %x, Dot %x",
							r, rows, i, math.Float64bits(out[i]), math.Float64bits(want))
					}
				}
			}
		}
	})
}

// hardValue draws a coordinate from the classes that break a kernel whose
// rounding differs from Dot's: signed zeros, subnormals, huge and tiny
// magnitudes (±2^±100, whose products cancel and overflow), values near
// the overflow threshold, infinities and NaN, mixed with ordinary ones.
func hardValue(rng *rand.Rand) float64 {
	sign := 1.0
	if rng.Intn(2) == 0 {
		sign = -1
	}
	switch rng.Intn(12) {
	case 0:
		return math.Copysign(0, sign)
	case 1:
		return sign * math.Float64frombits(uint64(rng.Int63n(1<<52-1)+1)) // subnormal
	case 2:
		return sign * math.Ldexp(1+rng.Float64(), 100)
	case 3:
		return sign * math.Ldexp(1+rng.Float64(), -100)
	case 4:
		return sign * math.Ldexp(1+rng.Float64(), 1000)
	case 5:
		if rng.Intn(8) == 0 {
			return math.Inf(int(sign))
		}
		if rng.Intn(8) == 0 {
			return math.NaN()
		}
		return sign * rng.Float64()
	default:
		return rng.NormFloat64()
	}
}

// checkVerifyKernels compares DotBatch and DotRows on panel against one
// Dot per row, under whichever kernel family is active.
func checkVerifyKernels(t *testing.T, q, panel []float64, lids []int32) {
	t.Helper()
	r := len(q)
	rows := 0
	if r > 0 {
		rows = len(panel) / r
	}
	out := make([]float64, rows)
	DotBatch(q, panel[:rows*r], out)
	for i := range out {
		if want := Dot(q, panel[i*r:(i+1)*r]); !sameBits(out[i], want) {
			t.Fatalf("r=%d DotBatch row %d: %x, Dot %x", r, i, math.Float64bits(out[i]), math.Float64bits(want))
		}
	}
	out = make([]float64, len(lids))
	if blocked := DotRows(q, panel, lids, out); blocked < 0 || blocked > len(lids) {
		t.Fatalf("r=%d DotRows blocked count %d of %d rows", r, blocked, len(lids))
	}
	for i, l := range lids {
		if want := Dot(q, panel[int(l)*r:int(l+1)*r]); !sameBits(out[i], want) {
			t.Fatalf("r=%d DotRows row %d (lid %d): %x, Dot %x", r, i, l, math.Float64bits(out[i]), math.Float64bits(want))
		}
	}
}

// TestVerifyKernelExact sweeps every dimension 0..70 (every r mod 4, and
// r < 4 where only the sequential tail runs) over adversarial values and
// shuffled, gapped, repeated row lists of 0..26 rows (around the row-group
// widths 4 and 8), and requires both verify kernels to reproduce Dot bit
// for bit.
func TestVerifyKernelExact(t *testing.T) {
	simdtest.Each(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(15))
		for r := 0; r <= 70; r++ {
			for trial := 0; trial < 30; trial++ {
				nRows := 1 + rng.Intn(13)
				q := make([]float64, r)
				for i := range q {
					q[i] = hardValue(rng)
				}
				panel := make([]float64, nRows*r)
				for i := range panel {
					panel[i] = hardValue(rng)
				}
				// Exact cancellation: a row that negates another row's
				// huge coordinates, so partial sums swing through ±2^200.
				if nRows > 1 && r > 0 {
					for i := 0; i < r; i++ {
						panel[r+i] = -panel[i]
						if i%3 == 0 {
							panel[r+i] = math.Ldexp(panel[r+i], -1)
						}
					}
				}
				lids := make([]int32, rng.Intn(2*nRows+1))
				for i := range lids {
					lids[i] = int32(rng.Intn(nRows))
				}
				checkVerifyKernels(t, q, panel, lids)
			}
		}
	})
}

// FuzzVerifyKernelExact feeds raw bit patterns to both verify kernels: the
// first byte picks the dimension, the rest become float64 coordinates
// (query first, then rows) and row indices. The dispatched kernels must
// match Dot bit for bit on every input.
func FuzzVerifyKernelExact(f *testing.F) {
	f.Add([]byte{5, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17})
	f.Add(append([]byte{3}, make([]byte, 8*12)...))
	seed := make([]byte, 1+8*60)
	seed[0] = 9
	for i := 1; i < len(seed); i++ {
		seed[i] = byte(i * 37)
	}
	f.Add(seed)
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		r := int(data[0]) % 71
		data = data[1:]
		words := make([]float64, len(data)/8)
		for i := range words {
			var bits uint64
			for b := 0; b < 8; b++ {
				bits |= uint64(data[8*i+b]) << (8 * b)
			}
			words[i] = math.Float64frombits(bits)
		}
		if len(words) < r {
			return
		}
		q, panel := words[:r], words[r:]
		nRows := 0
		if r > 0 {
			nRows = len(panel) / r
		}
		var lids []int32
		for i := 0; nRows > 0 && i < 2*nRows; i++ {
			lids = append(lids, int32(int(data[i%len(data)])%nRows))
		}
		for _, avx := range []bool{true, false} {
			if avx {
				checkVerifyKernels(t, q, panel, lids)
			} else {
				simdtest.Portable(func() { checkVerifyKernels(t, q, panel, lids) })
			}
		}
	})
}

// TestKernelsMatchNaiveReference checks tolerance-bounded agreement with the
// sequential reference across the length sweep (accumulation order differs,
// so equality is approximate by design).
func TestKernelsMatchNaiveReference(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for _, r := range kernelLengths {
		for trial := 0; trial < 20; trial++ {
			q := genVec(rng, r)
			rows := 1 + rng.Intn(12)
			panel := make([]float64, rows*r)
			for i := range panel {
				panel[i] = rng.NormFloat64()
			}
			out := make([]float64, rows)
			DotBatch(q, panel, out)
			for i := 0; i < rows; i++ {
				want := naiveDot(q, panel[i*r:(i+1)*r])
				if !almostEqual(out[i], want, 1e-9) {
					t.Fatalf("r=%d row %d: DotBatch %g, naive %g", r, i, out[i], want)
				}
			}
			b := genVec(rng, r)
			dot, n2 := DotNorm2(q, b)
			if !almostEqual(dot, naiveDot(q, b), 1e-9) {
				t.Fatalf("r=%d: DotNorm2 dot %g, naive %g", r, dot, naiveDot(q, b))
			}
			if !almostEqual(n2, naiveNorm2(b), 1e-9) {
				t.Fatalf("r=%d: DotNorm2 norm2 %g, naive %g", r, n2, naiveNorm2(b))
			}
		}
	}
}

// TestDotNorm2DotBitIdentical: the dot half of the fused kernel keeps Dot's
// exact accumulation order.
func TestDotNorm2DotBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	for _, r := range kernelLengths {
		a, b := genVec(rng, r), genVec(rng, r)
		dot, _ := DotNorm2(a, b)
		if math.Float64bits(dot) != math.Float64bits(Dot(a, b)) {
			t.Fatalf("r=%d: DotNorm2 dot %x, Dot %x", r, math.Float64bits(dot), math.Float64bits(Dot(a, b)))
		}
	}
}

// TestKernelQuickProperties drives testing/quick over random row sets:
// blocked results agree with the reference within tolerance, zero vectors
// yield exact zeros, and non-finite inputs produce the same non-finite
// classification as the reference (NaN where the reference is NaN).
func TestKernelQuickProperties(t *testing.T) {
	f := func(q []float64, rowSeed int64, nRows uint8) bool {
		r := len(q)
		for _, x := range q {
			if math.IsNaN(x) || math.IsInf(x, 0) || math.Abs(x) > 1e100 {
				return true // extreme magnitudes overflow any order; skip
			}
		}
		rows := int(nRows%13) + 1
		rng := rand.New(rand.NewSource(rowSeed))
		panel := make([]float64, rows*r)
		for i := range panel {
			panel[i] = rng.NormFloat64()
		}
		out := make([]float64, rows)
		DotBatch(q, panel, out)
		for i := 0; i < rows; i++ {
			want := naiveDot(q, panel[i*r:(i+1)*r])
			if !almostEqual(out[i], want, 1e-9) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestKernelsZeroVector(t *testing.T) {
	q := make([]float64, 10)
	panel := make([]float64, 5*10)
	for i := range panel {
		panel[i] = float64(i) - 20
	}
	out := make([]float64, 5)
	DotBatch(q, panel, out)
	for i, v := range out {
		if v != 0 {
			t.Fatalf("zero query row %d: %g", i, v)
		}
	}
	dot, n2 := DotNorm2(panel[:10], q)
	if dot != 0 || n2 != 0 {
		t.Fatalf("DotNorm2 against zero vector: %g, %g", dot, n2)
	}
}

// TestKernelsNonFiniteBoundary: NaN and Inf coordinates must flow through
// identically to the seed Dot (no kernel may silently skip or mask them).
// Retrieval rejects non-finite inputs at its boundary; the kernels still
// must not turn garbage into plausible numbers.
func TestKernelsNonFiniteBoundary(t *testing.T) {
	q := []float64{1, math.NaN(), 2, 3, 4}
	row := []float64{5, 6, 7, 8, 9}
	out := make([]float64, 4)
	DotRows(q, row, []int32{0, 0, 0, 0}, out)
	for i, v := range out {
		if !math.IsNaN(v) {
			t.Fatalf("DotRows row %d with NaN query: %g", i, v)
		}
	}
	qInf := []float64{1, math.Inf(1), 2, 3, 4}
	out2 := make([]float64, 2)
	DotBatch(qInf, append(append([]float64{}, row...), row...), out2)
	for i, v := range out2 {
		want := Dot(qInf, row)
		if math.Float64bits(v) != math.Float64bits(want) {
			t.Fatalf("DotBatch row %d with Inf query: %g, Dot %g", i, v, want)
		}
	}
	dot, n2 := DotNorm2(q, row)
	if !math.IsNaN(dot) {
		t.Fatalf("DotNorm2 dot with NaN input: %g", dot)
	}
	if n2 != naiveNorm2(row) {
		t.Fatalf("DotNorm2 norm2 polluted by the other vector's NaN: %g", n2)
	}
}

func TestKernelsPanicOnShapeMismatch(t *testing.T) {
	cases := []struct {
		name string
		fn   func()
	}{
		{"DotBatch", func() { DotBatch(make([]float64, 3), make([]float64, 7), make([]float64, 2)) }},
		{"DotRows length", func() { DotRows(make([]float64, 3), make([]float64, 9), []int32{0, 1}, make([]float64, 3)) }},
		{"DotRows row range", func() { DotRows(make([]float64, 3), make([]float64, 8), []int32{0, 2}, make([]float64, 2)) }},
		{"DotRows negative row", func() { DotRows(make([]float64, 3), make([]float64, 9), []int32{-1}, make([]float64, 1)) }},
		{"DotNorm2", func() { DotNorm2(make([]float64, 3), make([]float64, 4)) }},
	}
	for _, c := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic for mismatched shapes", c.name)
				}
			}()
			c.fn()
		}()
	}
}
