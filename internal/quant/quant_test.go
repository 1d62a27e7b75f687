package quant_test

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"lemp/internal/quant"
	"lemp/internal/simd/simdtest"
	"lemp/internal/vecmath"
)

// naiveDotQ8 is the reference for the unrolled kernel.
func naiveDotQ8(a, b []int8) int32 {
	var s int32
	for i := range a {
		s += int32(a[i]) * int32(b[i])
	}
	return s
}

func TestDotQ8MatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, r := range []int{1, 2, 3, 4, 5, 7, 8, 15, 16, 17, 31, 64, 100, 257} {
		a := make([]int8, r)
		b := make([]int8, r)
		for trial := 0; trial < 20; trial++ {
			for i := range a {
				a[i] = int8(rng.Intn(255) - 127)
				b[i] = int8(rng.Intn(255) - 127)
			}
			if got, want := quant.DotQ8(a, b), naiveDotQ8(a, b); got != want {
				t.Fatalf("r=%d: DotQ8 = %d, naive = %d", r, got, want)
			}
		}
	}
}

// screenOracle is Filter's contract spelled out one row at a time with the
// scalar UB: row l is dropped exactly when UB(l)·lens[l] < cut, and a kept
// row reports UB's head dot.
func screenOracle(scr *quant.Screen, lids []int32, lens []float64, cut float64) (kept, heads []int32) {
	for _, l := range lids {
		head, u := scr.UB(int(l))
		if u*lens[l] < cut {
			continue
		}
		kept = append(kept, l)
		heads = append(heads, head)
	}
	return kept, heads
}

// TestScreenKernelExact: the dispatched list screen (AVX2 where the CPU has
// it) and the portable one must keep exactly the candidates, in exactly the
// order, and report exactly the head dots that the scalar UB predicate
// does — over every dimension 1..300 (head lengths 1..50, most not a
// multiple of the kernel's 16-element chunk), rows carrying the non-finite
// NaN sentinels, zero lengths, cutoffs at ±Inf and NaN, and cutoffs tied
// exactly to a row's ub·len.
func TestScreenKernelExact(t *testing.T) {
	simdtest.Each(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(9))
		for r := 1; r <= 300; r++ {
			n := 1 + rng.Intn(24)
			rows := make([]float64, n*r)
			for i := range rows {
				rows[i] = rng.NormFloat64() * math.Exp(3*rng.NormFloat64())
			}
			if rng.Intn(3) == 0 { // a non-finite row: NaN sentinel, never screened
				rows[rng.Intn(n)*r+rng.Intn(r)] = []float64{math.NaN(), math.Inf(1), math.Inf(-1)}[rng.Intn(3)]
			}
			q := make([]float64, r)
			for i := range q {
				q[i] = rng.NormFloat64()
			}
			qr := quant.QuantizeRows(rows, r)
			qq, ok := quant.QuantizeQuery(make([]int8, r), q)
			if !ok {
				t.Fatalf("r=%d: query did not quantize", r)
			}
			lens := make([]float64, n)
			for i := range lens {
				if rng.Intn(5) > 0 {
					lens[i] = rng.ExpFloat64()
				}
			}
			lids := make([]int32, rng.Intn(2*n+9))
			for i := range lids {
				lids[i] = int32(rng.Intn(n))
			}
			for _, emit := range []float64{1, 2.5, math.Inf(1), math.NaN()} {
				scr := qr.NewScreen(qq, emit)
				cuts := []float64{math.Inf(-1), math.Inf(1), math.NaN(), 0, -1, 1, 10}
				for _, l := range lids[:min(len(lids), 3)] {
					_, u := scr.UB(int(l))
					cuts = append(cuts, u*lens[l]) // a tie: must be kept
				}
				for _, cut := range cuts {
					wantKept, wantHeads := screenOracle(&scr, lids, lens, cut)
					got := append([]int32(nil), lids...)
					heads := make([]int32, len(got))
					k := scr.Filter(got, lens, cut, heads)
					if k != len(wantKept) || !slices.Equal(got[:k], wantKept) || !slices.Equal(heads[:k], wantHeads) {
						t.Fatalf("r=%d emit=%v cut=%v: Filter kept %v heads %v, oracle %v heads %v",
							r, emit, cut, got[:k], heads[:k], wantKept, wantHeads)
					}
					got = append(got[:0], lids...)
					if k2 := scr.Filter(got, lens, cut, nil); k2 != k || !slices.Equal(got[:k2], wantKept) {
						t.Fatalf("r=%d emit=%v cut=%v: Filter without heads kept %v, oracle %v", r, emit, cut, got[:k2], wantKept)
					}
				}
			}
		}
	})
}

// TestScreenFilterPanics: a lid outside the panel or short lens/heads
// slices are programming errors the kernel must never see.
func TestScreenFilterPanics(t *testing.T) {
	qr := quant.QuantizeRows(make([]float64, 4*20), 20)
	qq, _ := quant.QuantizeQuery(make([]int8, 20), make([]float64, 20))
	scr := qr.NewScreen(qq, 1)
	lens := make([]float64, 4)
	for name, fn := range map[string]func(){
		"lid":   func() { scr.Filter([]int32{0, 4}, lens, 0, nil) },
		"neg":   func() { scr.Filter([]int32{-1}, lens, 0, nil) },
		"lens":  func() { scr.Filter([]int32{0}, lens[:3], 0, nil) },
		"heads": func() { scr.Filter([]int32{0, 1}, lens, 0, make([]int32, 1)) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic", name)
				}
			}()
			fn()
		}()
	}
}

func TestDotQ8SaturationNoOverflow(t *testing.T) {
	// The extreme case the int32 contract is sized for: every product is
	// 127·127 at the maximal supported dimension.
	r := quant.MaxDim
	a := make([]int8, r)
	b := make([]int8, r)
	for i := range a {
		a[i], b[i] = 127, 127
	}
	want := int64(127*127) * int64(r)
	if want > math.MaxInt32 {
		t.Fatalf("MaxDim contract broken: %d products overflow int32", r)
	}
	if got := quant.DotQ8(a, b); int64(got) != want {
		t.Fatalf("DotQ8 at saturation = %d, want %d", got, want)
	}
	for i := range b {
		b[i] = -127
	}
	if got := quant.DotQ8(a, b); int64(got) != -want {
		t.Fatalf("DotQ8 at negative saturation = %d, want %d", got, -want)
	}
}

// checkBracket asserts the screening contract for one (query, panel) pair:
// for every row, approx−bound ≤ Dot(q, row) ≤ approx+bound, where Dot is the
// exact float64 kernel the verifier runs. Non-finite rows must report an
// infinite bound (never screened). Returns false on violation.
func checkBracket(t *testing.T, q, rows []float64, r int) bool {
	t.Helper()
	qr := quant.QuantizeRows(rows, r)
	dst := make([]int8, r)
	qq, ok := quant.QuantizeQuery(dst, q)
	if !ok {
		// Unquantizable query: screening is off entirely; nothing to check.
		return true
	}
	scr := qr.NewScreen(qq, 1)
	// A second screen with a nontrivial emit factor: its bound must cover
	// the emit-scaled dot in the caller's multiply order.
	const emit = 2.5
	scrE := qr.NewScreen(qq, emit)
	for i := 0; i < qr.N(); i++ {
		approx, bound := qr.ApproxBound(qq, i)
		row := rows[i*r : (i+1)*r]
		exact := vecmath.Dot(q, row)
		head, ub := scr.UB(i)
		if _, ubE := scrE.UB(i); !math.IsNaN(exact) && emit*exact > ubE {
			t.Errorf("row %d: emit-folded bound %v below %v·exact = %v", i, ubE, emit, emit*exact)
			return false
		}
		if fa, fb := qr.FinishApproxBound(qq, i, head); fa != approx || fb != bound {
			t.Errorf("row %d: FinishApproxBound (%v, %v) != ApproxBound (%v, %v)",
				i, fa, fb, approx, bound)
			return false
		}
		if !math.IsNaN(exact) && exact > ub {
			t.Errorf("row %d: checkpoint bound %v below exact dot %v", i, ub, exact)
			return false
		}
		if math.IsInf(bound, 1) {
			continue // never screened: contract holds vacuously
		}
		finite := true
		for _, x := range row {
			if math.IsNaN(x) || math.IsInf(x, 0) {
				finite = false
			}
		}
		if !finite {
			t.Errorf("non-finite row %d got finite bound %v", i, bound)
			return false
		}
		if !(approx-bound <= exact && exact <= approx+bound) {
			t.Errorf("row %d: exact %v outside [%v, %v] (approx %v, bound %v)",
				i, exact, approx-bound, approx+bound, approx, bound)
			return false
		}
	}
	return true
}

func TestApproxBoundBracketsQuick(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	// Values spanning many magnitudes: quick's default float64 generator
	// only produces moderate values, so draw mantissa and exponent
	// separately to reach subnormals, huge values and saturation edges.
	genVal := func() float64 {
		switch rng.Intn(8) {
		case 0:
			return 0
		case 1:
			return float64(rng.Intn(255) - 127) // exact int8 lattice points
		default:
			return (rng.Float64()*2 - 1) * math.Pow(2, float64(rng.Intn(600)-300))
		}
	}
	for trial := 0; trial < 300; trial++ {
		r := 1 + rng.Intn(48)
		n := 1 + rng.Intn(6)
		rows := make([]float64, n*r)
		q := make([]float64, r)
		for i := range rows {
			rows[i] = genVal()
		}
		for i := range q {
			q[i] = genVal()
		}
		if !checkBracket(t, q, rows, r) {
			t.Fatalf("trial %d (r=%d, n=%d) violated the bracket", trial, r, n)
		}
	}
}

func TestApproxBoundQuickRandom(t *testing.T) {
	// testing/quick over its own generator as a second, independent source
	// of inputs (moderate magnitudes, adversarial bit patterns).
	f := func(qv, rv [16]float64) bool {
		return checkBracket(t, qv[:], rv[:], 16)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestApproxBoundAdversarialRows(t *testing.T) {
	r := 8
	mk := func(v float64) []float64 {
		row := make([]float64, r)
		for i := range row {
			row[i] = v
		}
		return row
	}
	cases := [][]float64{
		mk(0),                           // zero row
		mk(1),                           // constant row
		mk(-1),                          // negative constant
		mk(127),                         // int8 saturation value
		mk(127.5),                       // rounds past the lattice
		mk(math.MaxFloat64),             // scale at the float ceiling
		mk(math.SmallestNonzeroFloat64), // subnormal row
		mk(1e-300),                      // near the tiny slack
		mk(1e300),                       // huge but finite
		{1, -1, 127, -127, 0.5, -0.5, 126.9999, -0.0001},
		{math.MaxFloat64, -math.MaxFloat64, 1, -1, 0, 0, 0, 0},
	}
	rows := make([]float64, 0, len(cases)*r)
	for _, c := range cases {
		rows = append(rows, c...)
	}
	queries := [][]float64{
		mk(0), mk(1), mk(-1), mk(0.007),
		{1, 2, 3, 4, -4, -3, -2, -1},
		mk(1e-200), mk(1e200),
	}
	for _, q := range queries {
		if !checkBracket(t, q, rows, r) {
			t.Fatalf("adversarial case violated the bracket for query %v", q[:2])
		}
	}
}

func TestNonFiniteRowsNeverScreened(t *testing.T) {
	r := 4
	rows := []float64{
		1, 2, 3, 4,
		math.NaN(), 1, 1, 1,
		math.Inf(1), 0, 0, 0,
		0, math.Inf(-1), 0, 0,
	}
	qr := quant.QuantizeRows(rows, r)
	if !math.IsInf(qr.Resid[1], 1) || !math.IsInf(qr.Resid[2], 1) || !math.IsInf(qr.Resid[3], 1) {
		t.Fatalf("non-finite rows must carry infinite residuals, got %v", qr.Resid)
	}
	dst := make([]int8, r)
	qq, ok := quant.QuantizeQuery(dst, []float64{1, 1, 1, 1})
	if !ok {
		t.Fatal("finite query failed to quantize")
	}
	for i := 1; i < 4; i++ {
		approx, bound := qr.ApproxBound(qq, i)
		if approx != 0 || !math.IsInf(bound, 1) {
			t.Fatalf("row %d: want (0, +Inf), got (%v, %v)", i, approx, bound)
		}
		// The screening predicate "upper bound < cut" must be false for
		// every cut, including +Inf and NaN.
		for _, cut := range []float64{-1, 0, 1e300, math.Inf(1)} {
			if approx+bound < cut {
				t.Fatalf("row %d screened at cut %v", i, cut)
			}
		}
	}
}

func TestNonFiniteQueryDisablesScreening(t *testing.T) {
	r := 4
	dst := make([]int8, r)
	for _, q := range [][]float64{
		{math.NaN(), 0, 0, 0},
		{math.Inf(1), 1, 1, 1},
		{1, math.Inf(-1), 1, 1},
	} {
		if _, ok := quant.QuantizeQuery(dst, q); ok {
			t.Fatalf("non-finite query %v must not quantize", q)
		}
	}
	if _, ok := quant.QuantizeQuery(nil, nil); ok {
		t.Fatal("empty query must not quantize")
	}
}

func TestQuantizeRowsDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	r, n := 24, 50
	rows := make([]float64, n*r)
	for i := range rows {
		rows[i] = rng.NormFloat64() * math.Pow(10, float64(rng.Intn(8)-4))
	}
	a := quant.QuantizeRows(rows, r)
	b := quant.QuantizeRows(rows, r)
	for i := range a.Scales {
		if a.Scales[i] != b.Scales[i] || a.Resid[i] != b.Resid[i] || a.Norm[i] != b.Norm[i] {
			t.Fatalf("row %d: quantization not deterministic", i)
		}
	}
	for i := range a.Codes {
		if a.Codes[i] != b.Codes[i] {
			t.Fatalf("code %d differs across runs", i)
		}
	}
}

func TestRowsAccessors(t *testing.T) {
	rows := []float64{1, 2, 3, 4, 5, 6}
	qr := quant.QuantizeRows(rows, 3)
	if qr.R() != 3 || qr.N() != 2 {
		t.Fatalf("R/N = %d/%d, want 3/2", qr.R(), qr.N())
	}
	if len(qr.Row(1)) != 3 {
		t.Fatalf("Row(1) len %d", len(qr.Row(1)))
	}
	wantBytes := 6 + 8*(2+2+2+2+2*2)
	if qr.Bytes() != wantBytes {
		t.Fatalf("Bytes = %d, want %d", qr.Bytes(), wantBytes)
	}
	var nilRows *quant.Rows
	if nilRows.Bytes() != 0 {
		t.Fatal("nil Rows must report 0 bytes")
	}
}

func TestQuantizeRowsPanics(t *testing.T) {
	for _, tc := range []struct {
		name string
		fn   func()
	}{
		{"zero dim", func() { quant.QuantizeRows(nil, 0) }},
		{"over MaxDim", func() { quant.QuantizeRows(make([]float64, quant.MaxDim+1), quant.MaxDim+1) }},
		{"ragged", func() { quant.QuantizeRows(make([]float64, 7), 3) }},
		{"dotq8 len", func() { quant.DotQ8(make([]int8, 3), make([]int8, 4)) }},
		{"query buf", func() { quant.QuantizeQuery(make([]int8, 2), make([]float64, 3)) }},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic", tc.name)
				}
			}()
			tc.fn()
		}()
	}
}

func TestScreeningIsUseful(t *testing.T) {
	// The bound must not only be sound but tight enough to screen: for a
	// well-scaled catalog, a candidate whose true dot is far below a
	// threshold must actually be screenable.
	rng := rand.New(rand.NewSource(4))
	r := 32
	n := 256
	rows := make([]float64, n*r)
	for i := range rows {
		rows[i] = rng.NormFloat64()
	}
	// Normalize rows to unit length, like core quantizes bucket directions.
	for i := 0; i < n; i++ {
		row := rows[i*r : (i+1)*r]
		vecmath.Normalize(row, row)
	}
	qr := quant.QuantizeRows(rows, r)
	q := make([]float64, r)
	for i := range q {
		q[i] = rng.NormFloat64()
	}
	vecmath.Normalize(q, q)
	dst := make([]int8, r)
	qq, ok := quant.QuantizeQuery(dst, q)
	if !ok {
		t.Fatal("unit query failed to quantize")
	}
	theta := 0.5 // high threshold for unit vectors: most dots are far below
	screened := 0
	for i := 0; i < n; i++ {
		approx, bound := qr.ApproxBound(qq, i)
		if approx+bound < theta {
			screened++
			if exact := vecmath.Dot(q, rows[i*r:(i+1)*r]); exact >= theta {
				t.Fatalf("row %d screened but exact dot %v ≥ θ", i, exact)
			}
		}
	}
	if screened < n/2 {
		t.Fatalf("bound too loose: only %d/%d unit rows screened at θ=%v", screened, n, theta)
	}
}

func BenchmarkDotQ8(b *testing.B) {
	for _, r := range []int{16, 64, 256} {
		x := make([]int8, r)
		y := make([]int8, r)
		rng := rand.New(rand.NewSource(5))
		for i := range x {
			x[i] = int8(rng.Intn(255) - 127)
			y[i] = int8(rng.Intn(255) - 127)
		}
		b.Run(fmt.Sprintf("r=%d", r), func(b *testing.B) {
			b.SetBytes(int64(2 * r))
			var sink int32
			for i := 0; i < b.N; i++ {
				sink += quant.DotQ8(x, y)
			}
			_ = sink
		})
	}
}

func BenchmarkApproxBound(b *testing.B) {
	for _, r := range []int{16, 64, 256} {
		rng := rand.New(rand.NewSource(6))
		n := 1024
		rows := make([]float64, n*r)
		for i := range rows {
			rows[i] = rng.NormFloat64()
		}
		qr := quant.QuantizeRows(rows, r)
		q := make([]float64, r)
		for i := range q {
			q[i] = rng.NormFloat64()
		}
		dst := make([]int8, r)
		qq, _ := quant.QuantizeQuery(dst, q)
		b.Run(fmt.Sprintf("r=%d", r), func(b *testing.B) {
			var sink float64
			for i := 0; i < b.N; i++ {
				a, bd := qr.ApproxBound(qq, i%n)
				sink += a + bd
			}
			_ = sink
		})
	}
}
